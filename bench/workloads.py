"""Workload inputs, timed calls and output checks; one repetition per process.

Run as a script, this module performs one repetition of one workload in
the current interpreter and prints its result as one JSON line. The
runner starts a fresh interpreter for every repetition, so module caches
inside cbdf (the composition setup cache, the stability weight cache, the
quad cache of stiff_arctan) never carry over from one repetition to the
next. Only the standard library is imported before the timed
``import cbdf``.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

import spans
import spec

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Seed 0 gives the inputs below exactly; other seeds pick from these small
# ranges, and reference.json holds this commit's outputs for each pick.
GRID_NS = (156, 158, 160, 162, 164)
# cubic_decay is integrated over [0, 3] instead of its default [0, 1]: the
# same cells at the same step, three times as many steps, so that one
# repetition times more than the interpreter start-up around it.
GRID_T_END = 3.0
RASTER_HALF_WIDTHS = (7.84, 7.92, 8.0, 8.08, 8.16)
TAU0_SPREAD = 0.05

ENDPOINT_RTOL, ENDPOINT_ATOL = 1e-2, 1e-13
CELL_TOL = 4  # stable cells, of 40,401
CAL_ITERATIONS = 20000  # about 0.1 s of the scalar calibration kernel
CAL_BATCH_SWEEPS = 12  # about 0.1 s of the batch calibration kernel
ANGLE_TOL = 0.05  # degrees, the bisection step
BOUND_TOL = 1e-4  # the bisection step


def inputs(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    if workload == "fixed_grid":
        return {
            "problem": "cubic_decay",
            "calibration": "scalar",
            "t_end": GRID_T_END,
            "n": 160 if seed == 0 else rng.choice(GRID_NS),
            "cells": [["composed", p] for p in (1, 2, 3, 4)] + [["bdf", p] for p in (2, 3, 4, 5)],
        }
    if workload == "adaptive_stiff":
        spread = 0.0 if seed == 0 else rng.uniform(-TAU0_SPREAD, TAU0_SPREAD)
        return {"problem": "stiff_arctan", "calibration": "scalar", "p": 4, "tol": 1e-10,
                "tau0": 0.01 * (1.0 + spread), "clamps": True}
    if workload == "stability_tables":
        half = 8.0 if seed == 0 else rng.choice(RASTER_HALF_WIDTHS)
        return {
            "calibration": "batch",
            "raster_orders": [3, 6, 9],
            "window": [-half, half, -half, half],
            "nx": 201,
            "ny": 201,
            "angles": [["composed", o] for o in range(2, 9)] + [["bdf", o] for o in range(1, 7)],
            "bounds": [[p, m] for p in range(2, 9) for m in ("first-step", "steady")],
        }
    raise ValueError(f"unknown workload {workload!r}")


def op_names(workload: str, inp: dict) -> list:
    """One name per operation: a solve, a raster, an angle or a bound."""
    if workload == "fixed_grid":
        return [f"{s}-p{p}" for s, p in inp["cells"]]
    if workload == "adaptive_stiff":
        return ["solve"]
    return ([f"raster-{o}" for o in inp["raster_orders"]]
            + [f"angle-{s}-{o}" for s, o in inp["angles"]]
            + [f"bound-{m}-{p}" for p, m in inp["bounds"]])


# ---------------------------------------------------------------- checks
# Each takes plain outputs (a number per operation, or an exception text)
# and returns {operation: None if correct, else the reason}.

def check_fixed_grid(inp: dict, endpoint: dict, ref: dict) -> dict:
    expect = ref["fixed_grid"][str(inp["n"])]
    out = {}
    for op, got in endpoint.items():
        want = expect[op]
        if isinstance(got, str):
            out[op] = got
        elif not (math.isfinite(got) and abs(got - want) <= ENDPOINT_RTOL * want + ENDPOINT_ATOL):
            out[op] = f"endpoint error {got:.6e}, expected {want:.6e}"
        else:
            out[op] = None
    return out


def check_adaptive(inp: dict, run, ref: dict) -> dict:
    """``run`` holds t_end, t_final, min_re_alpha1, all_finite, max_err, or an exception text.

    The max_err ceiling is ten times the worst max_err over the tau0 range
    at this commit: loose enough for roundoff-level changes to the step
    sequence, tight enough to catch a wrong trajectory.
    """
    if isinstance(run, str):
        return {"solve": run}
    problems_found = []
    if not run["t_final"] >= run["t_end"] - 1e-14 * max(1.0, abs(run["t_end"])):
        problems_found.append(f"stopped at t={run['t_final']!r} before t_end={run['t_end']!r}")
    if not run["min_re_alpha1"] > 0.0:
        problems_found.append(f"Re(alpha1) reached {run['min_re_alpha1']!r}")
    if not run["all_finite"]:
        problems_found.append("non-finite state")
    ceiling = ref["adaptive_stiff"]["max_err_ceiling"]
    if not run["max_err"] <= ceiling:
        problems_found.append(f"max_err {run['max_err']!r} above {ceiling!r}")
    return {"solve": "; ".join(problems_found) or None}


def check_stability(inp: dict, values: dict, ref: dict) -> dict:
    counts = ref["stability_tables"]["stable_cells"][repr(inp["window"][1])]
    out = {}
    for op, got in values.items():
        if isinstance(got, str):
            out[op] = got
            continue
        kind, _, key = op.partition("-")
        if kind == "raster":
            want, tol = counts[key], CELL_TOL
        elif kind == "angle":
            want, tol = ref["stability_tables"]["angles"][key], ANGLE_TOL
        else:
            want, tol = ref["stability_tables"]["bounds"][key], BOUND_TOL
        ok = math.isfinite(got) and abs(got - want) <= tol
        out[op] = None if ok else f"{got!r}, expected {want!r} within {tol}"
    return out


# ---------------------------------------------------------------- tracing

def _rows(args):
    return {"polyroot.find_roots_batch.rows": len(args[0])}


def _rows_and_points(args):
    n = len(args[0])
    return {"polyroot.find_roots_batch.rows": n, "stability.points": n}


def install(rec: spans.Recorder) -> None:
    """Wrap each function on the binding its caller looks up."""
    import cbdf.cli  # noqa: F401  (cbdf itself imports every other module)

    m = sys.modules
    bindings = (
        ("cbdf.composition", "bdf_step", "bdf_core.bdf_step", None),
        ("cbdf.cli", "bdf_step", "bdf_core.bdf_step", None),
        ("cbdf.bdf_core", "coeff_variable", "bdf_core.coeff_variable", None),
        ("cbdf.bdf_core", "solve_dense", "polyroot.solve_dense", None),
        ("cbdf.composition", "build_setup", "composition.build_setup", None),
        ("cbdf.composition", "solve_alpha1", "composition.solve_alpha1", None),
        ("cbdf.composition", "G_coefficients", "composition.G_coefficients", None),
        ("cbdf.composition", "error_constant", "composition.error_constant", None),
        ("cbdf.composition", "find_roots", "polyroot.find_roots", None),
        ("cbdf.composition", "composed_step", "composition.composed_step", None),
        ("cbdf.polyroot", "find_roots_batch", "polyroot.find_roots_batch", _rows),
        ("cbdf.stability", "find_roots_batch", "polyroot.find_roots_batch", _rows_and_points),
        ("cbdf.adaptivity", "composed_step", "composition.composed_step", None),
        ("cbdf.adaptivity", "next_step", "adaptivity.next_step", None),
        ("cbdf.adaptivity", "bootstrap", "problems.bootstrap", None),
        ("cbdf.adaptivity", "solve_alpha1", "composition.solve_alpha1", None),
        ("cbdf.cli", "bootstrap", "problems.bootstrap", None),
        # entry points the benchmark itself calls
        ("cbdf.cli", "integrate_fixed", "cli.integrate_fixed", None),
        ("cbdf.adaptivity", "adaptive_drive", "adaptivity.adaptive_drive", None),
        ("cbdf.adaptivity", "min_ratio", "adaptivity.min_ratio", None),
        ("cbdf.stability", "region_raster", "stability.region_raster", None),
        ("cbdf.stability", "stability_angle", "stability.stability_angle", None),
    )
    for module, attr, name, count in bindings:
        rec.patch(m[module], attr, name, count)
    window = getattr(m["cbdf.bdf_core"], "HistoryWindow", None)
    if window is not None:
        rec.patch(window, "advanced", "bdf_core.HistoryWindow.advanced")


def layer_metrics(rec: spans.Recorder, wall_s: float, accepted_steps: int) -> dict:
    """Per-layer metrics of one traced timed call (``rec`` holds only its spans)."""
    sp = rec.spans
    summary = spans.summarize(sp)
    out = {}
    for name in spec.TRACED:
        s = summary.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_s"] = s["self_s"]
    substeps = out["bdf_core.bdf_step.calls"]
    newton = spans.count_with_child(sp, "bdf_core.bdf_step", "polyroot.solve_dense")
    out["bdf_core.newton_substeps"] = newton
    out["bdf_core.newton_frac"] = newton / substeps if substeps else 0.0
    rhs_in_steps = spans.count_children_of(sp, "bdf_core.bdf_step", "problems.rhs")
    out["bdf_core.rhs_per_substep"] = rhs_in_steps / substeps if substeps else 0.0
    out["polyroot.find_roots_batch.rows"] = rec.counters["polyroot.find_roots_batch.rows"]
    builds = out["composition.build_setup.calls"]
    misses = spans.count_with_child(sp, "composition.build_setup", "composition.solve_alpha1")
    out["composition.setup_misses"] = misses
    out["composition.setup_hit_ratio"] = (builds - misses) / builds if builds else 0.0
    out["adaptivity.accepted_steps"] = accepted_steps
    points = rec.counters["stability.points"]
    busy = sum(e - s for n, s, e, _ in sp if n in ("stability.region_raster", "stability.stability_angle"))
    out["stability.points"] = points
    out["stability.points_per_s"] = points / busy if busy else 0.0
    # sp[0] is the span around the whole timed call; its self time is the
    # part of the call spent outside every named function
    out["trace.wall_s"] = wall_s
    out["trace.covered_frac"] = 1.0 - spans.self_times(sp)[0] / wall_s
    out["trace.spans"] = len(sp) - 1
    return out


# ---------------------------------------------------------------- one repetition

def _attempt(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the text of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # one failed operation; the others still run
        return f"raised {type(exc).__name__}: {exc}"


def _scalar_kernel():
    import numpy as np

    v = np.arange(4.0)
    acc = 0.0
    for i in range(CAL_ITERATIONS):
        acc = math.sqrt(acc + float(np.max(np.abs(v * 1.0001 + i))))


def _batch_kernel():
    import numpy as np

    n = 9
    z = (np.arange(8192 * n).reshape(8192, n) % 7 + 1j * (np.arange(n) + 1)).astype(complex)
    idx = np.arange(n)
    for _ in range(CAL_BATCH_SWEEPS):
        d = z[:, :, None] - z[:, None, :]
        d[:, idx, idx] = 1.0
        w = np.prod(d, axis=2)
        z = z - 1e-9 * w / np.abs(w).max()


def calibrate(kind: str) -> float:
    """Seconds for a fixed calibration kernel that does not touch cbdf.

    ``scalar``: small numpy operations and Python float arithmetic, the mix
    of the implicit step's inner loops. ``batch``: the pairwise-product
    sweep of batched root finding on 8192 x 9 complex rows. On shared
    machines the host's speed drifts by tens of percent over seconds to
    minutes; dividing the timed call by a kernel of the same kind, run in
    the same process right after it, cancels most of that drift.
    """
    kernel = _batch_kernel if kind == "batch" else _scalar_kernel
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def _counted(fn, counter):
    def rhs(t, y):
        counter[0] += 1
        return fn(t, y)
    return rhs


def _timed_call(workload, inp, problem):
    """The call whose wall time is measured: {operation: output or exception text}."""
    from cbdf import adaptivity, cli, stability

    if workload == "fixed_grid":
        return {f"{s}-p{p}": _attempt(cli.integrate_fixed, problem, s, p, 1.0 / inp["n"])
                for s, p in inp["cells"]}
    if workload == "adaptive_stiff":
        ctl = adaptivity.StepController(p=inp["p"], tol=inp["tol"])
        return {"solve": _attempt(adaptivity.adaptive_drive, problem, inp["p"], inp["tau0"], ctl,
                                  clamps=inp["clamps"])}
    out = {}
    for o in inp["raster_orders"]:
        out[f"raster-{o}"] = _attempt(stability.region_raster, o, tuple(inp["window"]),
                                      inp["nx"], inp["ny"])
    for s, o in inp["angles"]:
        out[f"angle-{s}-{o}"] = _attempt(stability.stability_angle, o, scheme=s)
    for p, m in inp["bounds"]:
        out[f"bound-{m}-{p}"] = _attempt(adaptivity.min_ratio, p, m)
    return out


def _measure(workload, inp, result, exact, t_end, ref) -> tuple:
    """Outputs of the timed call, measured after it: (checks, measures)."""
    import numpy as np

    measures = {"steps": None, "max_err": None, "over_tol_steps": None}
    if workload == "fixed_grid":
        solved = [e for e in result.values() if isinstance(e, dict)]
        endpoint = {op: (e[max(e)] if isinstance(e, dict) else e) for op, e in result.items()}
        measures["steps"] = sum(len(e) for e in solved)
        measures["max_err"] = max((max(e.values()) for e in solved), default=None)
        measures["endpoint_err"] = endpoint
        return check_fixed_grid(inp, endpoint, ref), measures
    if workload == "adaptive_stiff":
        traj = run = result["solve"]
        if not isinstance(traj, str):
            errs = [float(np.max(np.abs(exact(t) - y))) for t, y in zip(traj.times, traj.states)]
            run = {
                "t_end": t_end,
                "t_final": traj.times[-1] if traj.times else -math.inf,
                "min_re_alpha1": min((a.real for a in traj.alpha1s), default=0.0),
                "all_finite": all(bool(np.all(np.isfinite(y))) for y in traj.states),
                "max_err": max(errs, default=math.inf),
            }
            measures["steps"] = len(traj.times)
            measures["max_err"] = run["max_err"]
            measures["over_tol_steps"] = sum(e > inp["tol"] for e in traj.error_estimates)
        return check_adaptive(inp, run, ref), measures
    values = {op: (int(v.mask.sum()) if op.startswith("raster") and not isinstance(v, str) else v)
              for op, v in result.items()}
    measures["tables"] = values
    return check_stability(inp, values, ref), measures


def run_rep(workload: str, seed: int, traced: bool, spans_path=None) -> dict:
    """Set up, time the workload's call once, then measure and check its outputs."""
    inp = inputs(workload, seed)
    ref = json.loads(REFERENCE.read_text())
    rec = spans.Recorder() if traced else None
    rhs_count = [0]
    problem = exact = t_end = None

    t0 = time.perf_counter()
    import cbdf
    from cbdf import composition, problems

    if rec is not None:
        install(rec)
    if workload != "stability_tables":
        base = problems.builtin(inp["problem"])
        exact, t_end = base.exact, inp.get("t_end", base.t_end)
        if rec is not None:
            rhs, ex = rec.wrap(base.rhs, "problems.rhs"), rec.wrap(exact, "problems.exact")
        else:
            rhs, ex = _counted(base.rhs, rhs_count), exact
        problem = problems.ODEProblem(rhs, base.t0, base.y0, t_end, ex, base.name)
        p, tau = ((max(p for _, p in inp["cells"]), 1.0 / inp["n"]) if workload == "fixed_grid"
                  else (inp["p"], inp["tau0"]))
        problems.bootstrap(problem, p, tau)
    setup_s = time.perf_counter() - t0

    if rec is not None:
        rec.clear()
        t1 = time.perf_counter()
        result = rec.span("bench.timed_call", _timed_call, workload, inp, problem)
        wall_s = time.perf_counter() - t1
        rhs_calls = spans.summarize(rec.spans).get("problems.rhs", {"calls": 0})["calls"]
    else:
        rhs_count[0] = 0
        t1 = time.perf_counter()
        result = _timed_call(workload, inp, problem)
        wall_s = time.perf_counter() - t1
        rhs_calls = rhs_count[0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # after the peak is read, so the kernel's arrays never count in it
    cal_s = 0.5 * (calibrate(inp["calibration"]) + calibrate(inp["calibration"]))

    checks, measures = _measure(workload, inp, result, exact, t_end, ref)
    measures["rhs_calls"] = rhs_calls
    if measures["steps"]:
        measures["rhs_per_step"] = rhs_calls / measures["steps"]
    # entries in the setup cache are its misses (it never evicts at these sizes)
    cache = getattr(composition, "_SETUP_CACHE", None)
    measures["setup_misses"] = None if cache is None else len(cache)

    import numpy as np
    import scipy

    out = {
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cal_s": cal_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": checks,
        "measures": measures,
        "cbdf_file": cbdf.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if rec is not None:
        accepted = measures["steps"] if workload == "adaptive_stiff" else None
        out["layers"] = layer_metrics(rec, wall_s, accepted or 0)
        if spans_path:
            rec.dump(spans_path)
    return out


def scipy_reference(max_err: float) -> dict:
    """scipy BDF on stiff_arctan at the loosest decade rtol (atol = rtol) that
    reaches cbdf's max_err; a reference, never a gated metric."""
    import numpy as np
    from scipy.integrate import solve_ivp

    from cbdf import problems

    prob = problems.builtin("stiff_arctan")
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return prob.rhs(t, y)

    for k in range(3, 14):
        rtol = 10.0 ** -k
        calls[0] = 0
        sol = solve_ivp(rhs, (prob.t0, prob.t_end), prob.y0, method="BDF", rtol=rtol, atol=rtol)
        err = max(float(np.max(np.abs(prob.exact(t) - sol.y[:, i]))) for i, t in enumerate(sol.t))
        if sol.success and err <= max_err:
            break
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        solve_ivp(prob.rhs, (prob.t0, prob.t_end), prob.y0, method="BDF", rtol=rtol, atol=rtol)
        walls.append(time.perf_counter() - t0)
    walls.sort()
    return {"solver": "scipy.integrate.solve_ivp(method='BDF')", "rtol": rtol, "atol": rtol,
            "max_err": err, "matched": err <= max_err, "nfev": int(sol.nfev),
            "rhs_calls_counted": calls[0], "njev": int(sol.njev), "nlu": int(sol.nlu),
            "steps": len(sol.t) - 1, "wall_s_median_of_5": walls[2]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one benchmark repetition (run by bench/run.py)")
    ap.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans-out")
    ap.add_argument("--import-only", action="store_true", help="warm the bytecode and file caches")
    ap.add_argument("--scipy-reference", type=float, metavar="MAX_ERR")
    args = ap.parse_args(argv)
    if args.import_only:
        import cbdf.cli  # noqa: F401
        import scipy.integrate  # noqa: F401

        result = {}
    elif args.scipy_reference is not None:
        result = scipy_reference(args.scipy_reference)
    else:
        result = run_rep(args.workload, args.seed, args.traced, args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

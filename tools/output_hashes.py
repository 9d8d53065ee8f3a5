"""Fingerprint the benchmark's outputs: one sha256 per workload and seed.

    python3 tools/output_hashes.py            # this checkout
    python3 tools/output_hashes.py CHECKOUT   # another checkout of the repo

For each workload of ``bench/workloads.py`` and seeds 0-2, the script
runs the benchmark's own timed call, ``workloads._timed_call``, on the
inputs ``workloads.inputs`` gives, and hashes what it returns. It also
hashes the (error, |Im|) pairs of acceptance criterion 9's four
fixed-step runs, and runs that no workload makes: ``cli.fixed_states`` on
``stiff_arctan``, which reaches Newton and keeps its Jacobian, and on
``cubic_decay``, both on [0, 1], for BDF p = 1..6 and composed p = 1..5 at
two steps; ``adaptive_drive`` without clamps; and stability rasters:
BDF orders 1..6 at the workload's 201^2 cells on [-8, 8]^2, and a composed
one of 97 x 131 cells, a size that is not a multiple of the
classification block. A run that raises
hashes as the text of its error. Arrays hash by dtype, shape and
``tobytes()``, numbers by ``repr``, so two checkouts print the same lines
only when their outputs agree bit for bit. Run it once per checkout, each
in a fresh process, and diff the outputs. The benchmark's files are
imported, never changed.
"""
from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

SEEDS = (0, 1, 2)
CRITERION_9 = (("stiff_arctan", 4), ("stiff_arctan", 5), ("lambert", 3), ("lambert", 5))
CRITERION_9_TAU = 0.01
FIXED = (("stiff_arctan", "bdf", range(1, 7)), ("stiff_arctan", "composed", range(1, 6)),
         ("cubic_decay", "bdf", range(1, 7)), ("cubic_decay", "composed", range(1, 6)))
FIXED_TAUS = (1 / 20, 1 / 64)
# (problem, p, tol) at tau0 = 0.01; the lambert run raises NoAdmissibleRoot
NO_CLAMPS = (("cubic_decay", 2, 1e-8), ("stiff_arctan", 1, 1e-6), ("stiff_arctan", 3, 1e-4),
             ("forced_linear", 2, 1e-6), ("lambert", 3, 1e-6))
# (scheme, order, bounds, nx, ny) of region_raster
RASTERS = tuple(("bdf", p, (-8.0, 8.0, -8.0, 8.0), 201, 201) for p in range(1, 7)) + (
    ("composed", 7, (-9.0, 3.0, -7.0, 8.0), 97, 131),)


def _feed(h, obj) -> None:
    """Feed ``obj`` into the hash ``h``, with its type, so unlike values never collide."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(f"array {obj.dtype.str} {obj.shape}:".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(f"dict {len(obj)}:".encode())
        for key, value in obj.items():
            _feed(h, key)
            _feed(h, value)
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__} {len(obj)}:".encode())
        for value in obj:
            _feed(h, value)
    elif dataclasses.is_dataclass(obj):
        h.update(f"{type(obj).__name__}:".encode())
        for field in dataclasses.fields(obj):
            _feed(h, field.name)
            _feed(h, getattr(obj, field.name))
    elif isinstance(obj, (bool, int, float, complex, str, np.generic)) or obj is None:
        h.update(f"{type(obj).__name__} {obj!r};".encode())
    else:
        raise TypeError(f"no serialisation for {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _problem(inp):
    """The problem ``workloads.run_rep`` hands the timed call, with its plain RHS."""
    from cbdf import problems

    if "problem" not in inp:
        return None
    base = problems.builtin(inp["problem"])
    t_end = inp.get("t_end", base.t_end)
    return problems.ODEProblem(base.rhs, base.t0, base.y0, t_end, base.exact, base.name)


def _outcome(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the text of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"


def _fixed_runs(name, scheme, orders):
    """``cli.fixed_states`` of every order and step of FIXED_TAUS, on [0, 1]."""
    from cbdf import problems
    from cbdf.cli import fixed_states

    base = problems.builtin(name)
    prob = problems.ODEProblem(base.rhs, base.t0, base.y0, 1.0, base.exact, base.name)
    return [_outcome(fixed_states, prob, scheme, p, tau) for p in orders for tau in FIXED_TAUS]


def _no_clamps_run(name, p, tol):
    from cbdf.adaptivity import StepController, adaptive_drive
    from cbdf.problems import builtin

    return _outcome(adaptive_drive, builtin(name), p, 0.01, StepController(p=p, tol=tol),
                    clamps=False)


def _criterion_9_pairs(name, p):
    """Per-step (exact error, |Im|) pairs of criterion 9's propagating run."""
    import numpy as np

    from cbdf.bdf_core import ImplicitSolveConfig
    from cbdf.composition import build_setup, composed_step, ratios_from_times
    from cbdf.problems import bootstrap, builtin

    prob, tau = builtin(name), CRITERION_9_TAU
    cfg = ImplicitSolveConfig(tol=1e-13, max_iterations=200)
    window = bootstrap(prob, p, tau)
    setup = build_setup(ratios_from_times(window.times, tau))
    pairs = []
    for _ in range(p, round((prob.t_end - prob.t0) / tau) + 1):
        window, out = composed_step(prob.rhs, window, tau, setup, cfg)
        err = float(np.max(np.abs(prob.exact(window.times[-1].real) - out.y_real)))
        pairs.append((err, float(np.max(np.abs(out.error_estimate_raw)))))
    return np.array(pairs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    sys.dont_write_bytecode = True  # leave no cache files in the checkouts
    import workloads
    from spec import WORKLOADS

    print(f"cbdf from {root / 'src'}")
    for workload, _ in WORKLOADS:
        for seed in SEEDS:
            inp = workloads.inputs(workload, seed)
            out = workloads._timed_call(workload, inp, _problem(inp))
            print(f"{workload} seed {seed}: {digest(out)}")
    for name, p in CRITERION_9:
        print(f"criterion 9 {name} p={p}: {digest(_criterion_9_pairs(name, p))}")
    for name, scheme, orders in FIXED:
        print(f"fixed_states {name} {scheme}: {digest(_fixed_runs(name, scheme, orders))}")
    for name, p, tol in NO_CLAMPS:
        print(f"no clamps {name} p={p} tol={tol}: {digest(_no_clamps_run(name, p, tol))}")
    from cbdf.stability import region_raster

    for scheme, order, bounds, nx, ny in RASTERS:
        region = _outcome(region_raster, order, bounds, nx, ny, scheme=scheme)
        print(f"raster {scheme} {order} {nx}x{ny}: {digest(region)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

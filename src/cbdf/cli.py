"""Command-line experiment runner.

Subcommands reproduce the study artifacts as CSV/PBM files: sub-step root
candidates, convergence sweeps, error/CPU benchmarks, stability rasters and
angles, admissible-ratio bounds, and adaptive traces.

Exit codes: 0 success; 2 bad arguments, including an order out of range
and a file that cannot be read or written; 3 solver failure.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from . import adaptivity, composition, problems, stability
from .bdf_core import MAX_ORDER, coeff_fixed, predictor_weights
from .errors import CbdfError, NoAdmissibleRoot, OrderOutOfRange, UnknownProblem
from .polyroot import find_roots


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _load_problem(name: str) -> problems.ODEProblem:
    if name.endswith(".json"):
        with open(name) as fh:
            return problems.from_record(json.load(fh))
    return problems.builtin(name)


def integrate_fixed(problem, scheme: str, p: int, tau: float) -> dict:
    """The max-norm errors of ``fixed_states`` against the exact solution: {step index: error}."""
    times, states = fixed_states(problem, scheme, p, tau)
    errors = np.abs(np.array([problem.exact(t) for t in times]) - states.real).max(axis=1)
    return dict(zip(range(p, p + len(times)), errors.tolist()))


def fixed_states(problem, scheme: str, p: int, tau: float) -> tuple:
    """Fixed-step run with exact bootstrap: ``(times, states)``, the real times of
    steps p..n_total and a view of their states. The composed scheme of base
    order p carries p history points and has order p + 1. A step ``tau`` that is
    not positive and finite, or that leaves fewer than p steps on the interval,
    raises ValueError. It is ``adaptivity.march`` with one plan, BDF-p's one sub-step
    or the setup of the bootstrap nodes' ratios, as a uniform grid has one ratio ladder.
    It ends at t0 + n_total tau, n_total = round((t_end - t0) / tau),
    up to tau / 2 off t_end: stiff_arctan at tau = 1/40 ends at 6.275, not 2 pi.
    """
    if scheme not in ("bdf", "composed"):
        raise ValueError(f"unknown scheme {scheme!r}")
    plan = []  # n_total and the one (tau, alpha1, stages), from the first call on

    def constant_plan(times, y_hat):
        if not plan:  # the bootstrap nodes, so tau is known to be positive and finite
            plan.append(n_total := round((problem.t_end - problem.t0) / tau))
            if n_total < p:
                raise ValueError(f"tau {tau!r} gives {n_total} steps, fewer than the order {p}")
            if scheme == "bdf":
                predictor = predictor_weights(tuple(range(1 - p, 1)), 1.0)
                plan.append((tau, 1.0, ((np.array(coeff_fixed(p)), np.array(predictor)),)))
            else:
                setup = composition.build_setup(composition.ratios_from_times(times, tau))
                plan.append((tau, setup.alpha1, setup.stages))
        return plan[1] if len(times) <= plan[0] else None

    times, states = adaptivity.march(problem, p, tau, constant_plan)
    return [t.real for t in times[p:]], states[p:]


def global_error(errors: dict, start: int, n_total: int) -> float:
    """Trapezoid-style average of per-step errors from the first computed index."""
    body = sum(errors[n] for n in range(start, n_total))
    return (body + errors[n_total] / 2.0) / n_total


def run_convergence(problem, scheme: str, p_list, tau_list, out_path) -> list:
    """Global-error sweep with per-order least-squares slopes over two or more distinct steps."""
    if len(set(tau_list)) < 2:
        raise ValueError(f"a slope needs at least 2 distinct taus, got {tau_list}")
    rows = []
    for p in p_list:
        errs = []
        for tau in tau_list:
            fixed = integrate_fixed(problem, scheme, p, tau)
            errs.append(global_error(fixed, p, max(fixed)))
        slope = float(np.polyfit(np.log(tau_list), np.log(errs), 1)[0])
        for tau, e in zip(tau_list, errs):
            rows.append((scheme, p, tau, e, slope))
    with open(out_path, "w", newline="") as fh:
        fh.write("scheme,p,tau,global_error,slope\n")
        for scheme_, p, tau, e, slope in rows:
            fh.write(f"{scheme_},{p},{_fmt(tau)},{_fmt(e)},{_fmt(slope)}\n")
    return rows


def _timed(fn) -> float:
    """Median wall-clock seconds over three runs, after one discarded warmup."""
    fn()
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_bench(problem, p_list, tau_list, out_path) -> list:
    """Error and CPU ratios: base-order-p scheme vs the equal-order composed flow.

    The composed flow of order p uses base order p - 1, so both sides have
    the same approximation order. Ratios follow err_base/err_composed and
    cpu_base/cpu_composed.
    """
    rows = []
    for p in p_list:
        if p < 2:
            raise ValueError("bench compares equal orders; needs p >= 2")
        for tau in tau_list:
            fixed_b = integrate_fixed(problem, "bdf", p, tau)
            n_total = max(fixed_b)
            err_b = global_error(fixed_b, p, n_total)
            err_c = global_error(integrate_fixed(problem, "composed", p - 1, tau), p - 1, n_total)
            cpu_b = _timed(lambda: integrate_fixed(problem, "bdf", p, tau))
            cpu_c = _timed(lambda: integrate_fixed(problem, "composed", p - 1, tau))
            rows.append((p, tau, err_b, err_c, err_b / err_c, cpu_b, cpu_c, cpu_b / cpu_c))
    with open(out_path, "w", newline="") as fh:
        fh.write("p,tau,err_bdf,err_composed,ratio_err,cpu_bdf,cpu_composed,ratio_cpu\n")
        for p, tau, eb, ec, re_, cb, cc, rc in rows:
            fh.write(
                f"{p},{_fmt(tau)},{_fmt(eb)},{_fmt(ec)},{_fmt(re_)},"
                f"{_fmt(cb)},{_fmt(cc)},{_fmt(rc)}\n"
            )
    return rows


def run_roots(p: int, ratios=None) -> complex:
    """Print every sub-step root candidate and mark the selected branch.

    The residual is |G_(p+1)(z)| where Re z > 0, else |P(z)|, quietly inf on
    overflow. When no candidate has a positive real part, all roots are still
    listed and no branch is marked. A base order outside 1..8 raises ValueError.
    """
    if not 1 <= p <= MAX_ORDER:
        raise ValueError(f"base order must be in 1..{MAX_ORDER}, got {p}")
    if ratios is None:
        full = tuple(float(j - 1) for j in range(1, p + 1))
    else:
        full = (0.0,) + tuple(float(r) for r in ratios)
        if len(full) != p:
            raise ValueError(f"expected {p - 1} ratios r2..rp, got {len(full) - 1}")
    poly = composition.alpha1_polynomial(full)
    roots = find_roots(poly)
    try:
        selected = composition.solve_alpha1(full)
    except NoAdmissibleRoot:
        selected = None
    print(f"sub-step root candidates, base order {p}, ratios {full}")
    print("re_alpha1,im_alpha1,residual,selected")
    for z in roots:
        if z.real > 0:
            res = abs(composition.G_coefficients(z, full)[-1])
        else:
            with np.errstate(all="ignore"):
                res = abs(np.polynomial.polynomial.polyval(z, poly))
        mark = "*" if selected is not None and abs(z - selected) < 1e-13 * (1 + abs(z)) else ""
        print(f"{_fmt(z.real)},{_fmt(z.imag)},{_fmt(res)},{mark}")
    return selected


def run_stability(args) -> None:
    if args.angle:
        print(f"{stability.stability_angle(args.order, scheme=args.scheme):.3f}")
        return
    needed = [args.xmin, args.xmax, args.ymin, args.ymax, args.nx, args.ny, args.out]
    if any(v is None for v in needed):
        raise ValueError("raster mode needs --xmin --xmax --ymin --ymax --nx --ny --out")
    if args.out.endswith(".csv"):
        write = stability.region_to_csv
    elif args.out.endswith(".pbm"):
        write = stability.region_to_pbm
    else:
        raise ValueError("--out must end in .csv or .pbm")
    region = stability.region_raster(
        args.order, (args.xmin, args.xmax, args.ymin, args.ymax), args.nx, args.ny,
        scheme=args.scheme,
    )
    write(region, args.out)


def _int_list(text: str):
    return [int(v) for v in text.split(",") if v]


def _float_list(text: str):
    return [float(v) for v in text.split(",") if v]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbdf", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("roots", help="sub-step fraction candidates for one base order")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--ratios", type=_float_list, default=None, help="r2,...,rp")

    sp = sub.add_parser("converge", help="global-error convergence sweep")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--scheme", choices=("bdf", "composed"), required=True)
    sp.add_argument("--p", type=_int_list, required=True)
    sp.add_argument("--taus", type=_float_list, required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("bench", help="error and CPU ratios at equal order")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--p", type=_int_list, required=True)
    sp.add_argument("--taus", type=_float_list, required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("stability", help="stability raster or sector angle")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--scheme", choices=("composed", "bdf"), default="composed")
    sp.add_argument("--angle", action="store_true")
    sp.add_argument("--xmin", type=float)
    sp.add_argument("--xmax", type=float)
    sp.add_argument("--ymin", type=float)
    sp.add_argument("--ymax", type=float)
    sp.add_argument("--nx", type=int)
    sp.add_argument("--ny", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("bounds", help="admissible step-ratio lower bound")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--mode", choices=("first", "steady"), required=True)

    sp = sub.add_parser("adaptive", help="error-controlled adaptive trace")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--tol", type=float, required=True)
    sp.add_argument("--tau0", type=float, required=True)
    sp.add_argument("--no-clamps", action="store_true")
    sp.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "roots":
            run_roots(args.p, args.ratios)
        elif args.subcommand == "converge":
            run_convergence(_load_problem(args.problem), args.scheme, args.p, args.taus, args.out)
        elif args.subcommand == "bench":
            run_bench(_load_problem(args.problem), args.p, args.taus, args.out)
        elif args.subcommand == "stability":
            run_stability(args)
        elif args.subcommand == "bounds":
            mode = "first-step" if args.mode == "first" else "steady"
            print(f"{adaptivity.min_ratio(args.p, mode):.4f}")
        elif args.subcommand == "adaptive":
            problem = _load_problem(args.problem)
            ctl = adaptivity.StepController(p=args.p, tol=args.tol)
            rec = adaptivity.adaptive_drive(problem, args.p, args.tau0, ctl,
                                            clamps=not args.no_clamps)
            rec.write_csv(args.out, problem.exact)
    except (UnknownProblem, OrderOutOfRange, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CbdfError as exc:
        # NoConvergence / NoAdmissibleRoot and kin
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

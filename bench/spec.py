"""What the benchmark measures: workloads, metrics, units and bounds.

BENCHMARK.json at the repository root is generated from this module:

    python3 bench/spec.py > BENCHMARK.json
"""
from __future__ import annotations

import json

RUN_SECONDS = 30

WORKLOADS = (
    ("fixed_grid",
     "cli.integrate_fixed on cubic_decay over [0,3], composed p=1..4 and BDF p=2..5 at tau=1/160: "
     "setup cached, no Newton, so bdf_core coefficients, fixed-point and window shifts dominate"),
    ("adaptive_stiff",
     "adaptive_drive on stiff_arctan, p=4, tol 1e-10: new ratios nearly every step, so the "
     "single-polynomial root solve, Newton/LU fallback and adaptive_drive itself all show"),
    ("stability_tables",
     "composed rasters 201x201 (orders 3,6,9), sector angles and ratio bounds: batched "
     "find_roots_batch does almost all work, no RHS calls or implicit solves"),
)

# Printed on every workload, so each must be defined and nonzero on all of them.
END_TO_END = (
    # median over fresh interpreters of the timed call's wall time divided by
    # the same process's calibration kernel time (workloads.calibrate), which
    # cancels the host's speed drift; raw wall_s is printed but not gated
    ("wall_rel", "ratio", 0.2),
    ("setup_s", "s", 0.25),     # import cbdf + build problem + bootstrap
    ("peak_rss_mb", "MB", 0.1),  # ru_maxrss of the repetition's process
)

# Span names of every traced function, <module>.<function> of its definition.
TRACED = (
    "bdf_core.bdf_step",
    "bdf_core.coeff_variable",
    "bdf_core.HistoryWindow.advanced",
    "polyroot.find_roots_batch",
    "polyroot.find_roots",
    "polyroot.solve_dense",
    "composition.composed_step",
    "composition.build_setup",
    "composition.solve_alpha1",
    "composition.G_coefficients",
    "composition.error_constant",
    "problems.rhs",
    "problems.exact",
    "problems.bootstrap",
    "adaptivity.adaptive_drive",
    "adaptivity.next_step",
    "adaptivity.min_ratio",
    "stability.region_raster",
    "stability.stability_angle",
    "cli.integrate_fixed",
)

DERIVED = (
    ("bdf_core.newton_substeps", "count", "lower"),       # bdf_step spans with an LU child
    ("bdf_core.newton_frac", "ratio", "lower"),           # newton_substeps / bdf_step calls
    ("bdf_core.rhs_per_substep", "calls/substep", "lower"),
    ("polyroot.find_roots_batch.rows", "count", "lower"),
    ("composition.setup_misses", "count", "lower"),       # build_setup spans that solved
    ("composition.setup_hit_ratio", "ratio", "higher"),
    ("adaptivity.accepted_steps", "count", "lower"),
    ("stability.points", "count", "lower"),               # rows the stability layer classified
    ("stability.points_per_s", "1/s", "higher"),
    ("trace.wall_s", "s", "lower"),                       # median traced timed call
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),                   # traced minus untraced
    ("trace.overhead_frac", "ratio", "lower"),            # the same on wall_rel
    ("trace.covered_frac", "ratio", "higher"),            # share of traced wall in named spans
    ("trace.spans", "count", "lower"),
)


def per_layer() -> list:
    out = []
    for name in TRACED:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    out.extend({"name": n, "unit": u, "better": b} for n, u, b in DERIVED)
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": "lower", "bound": b} for n, u, b in END_TO_END
        ],
        "per_layer": per_layer(),
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))

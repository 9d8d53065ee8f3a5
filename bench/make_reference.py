"""Write bench/reference.json: the outputs the output checks compare against.

The values are what the library computes at the commit that defined the
benchmark, for every input a seed can pick. Regenerate only when a change
is meant to alter these outputs, and say so in CHANGES.md:

    PYTHONPATH=src python3 bench/make_reference.py
"""
from __future__ import annotations

import json

import numpy as np

import workloads as w
from cbdf import adaptivity, cli, problems, stability

TAU0_SAMPLES = 11


def main() -> None:
    fixed = {}
    base = problems.builtin("cubic_decay")
    prob = problems.ODEProblem(base.rhs, base.t0, base.y0, w.GRID_T_END, base.exact, base.name)
    cells = w.inputs("fixed_grid", 0)["cells"]
    for n in w.GRID_NS:
        row = {}
        for scheme, p in cells:
            errs = cli.integrate_fixed(prob, scheme, p, 1.0 / n)
            row[f"{scheme}-p{p}"] = errs[max(errs)]
        fixed[str(n)] = row

    worst = 0.0
    stiff = problems.builtin("stiff_arctan")
    inp = w.inputs("adaptive_stiff", 0)
    for u in np.linspace(-w.TAU0_SPREAD, w.TAU0_SPREAD, TAU0_SAMPLES):
        ctl = adaptivity.StepController(p=inp["p"], tol=inp["tol"])
        rec = adaptivity.adaptive_drive(stiff, inp["p"], inp["tau0"] * (1 + u), ctl, clamps=True)
        worst = max(worst, max(float(np.max(np.abs(stiff.exact(t) - y)))
                               for t, y in zip(rec.times, rec.states)))

    tables = w.inputs("stability_tables", 0)
    cells_by_window = {}
    for half in w.RASTER_HALF_WIDTHS:
        cells_by_window[repr(half)] = {
            str(o): int(stability.region_raster(o, (-half, half, -half, half), 201, 201).mask.sum())
            for o in tables["raster_orders"]
        }
    angles = {f"{s}-{o}": stability.stability_angle(o, scheme=s) for s, o in tables["angles"]}
    bounds = {f"{m}-{p}": adaptivity.min_ratio(p, m) for p, m in tables["bounds"]}

    ref = {
        "fixed_grid": fixed,
        "adaptive_stiff": {"max_err_worst": worst, "max_err_ceiling": 10.0 * worst},
        "stability_tables": {"stable_cells": cells_by_window, "angles": angles, "bounds": bounds},
    }
    w.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import spec
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def test_benchmark_json_is_generated_from_spec_and_within_limits():
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert data == spec.benchmark_json()
    names = [w["name"] for w in data["workloads"]]
    names += [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"])
    assert all(UNIT.match(m["unit"]) for m in data["end_to_end"] + data["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in data["end_to_end"])} in data["end_to_end"]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(trace):
    proc = _bench("--workload", "fixed_grid", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    wanted = ([{"name": n, "unit": u} for n, u, _ in spec.END_TO_END] if not trace
              else spec.per_layer())
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    table = "\n".join(lines[:-1])
    for m in wanted:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
        assert re.search(rf"{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}", table)
    if not trace:
        for key, unit in run.UNITS.items():
            assert re.search(rf"{key}\s+\S+\s+{re.escape(unit)}", table), key


def test_wrong_answers_fail_their_checks():
    ref = json.loads(workloads.REFERENCE.read_text())
    grid = workloads.inputs("fixed_grid", 0)
    right = dict(ref["fixed_grid"]["160"])
    assert not any(workloads.check_fixed_grid(grid, right, ref).values())
    wrong = dict(right, **{"composed-p4": right["composed-p4"] * 1.5})
    assert workloads.check_fixed_grid(grid, wrong, ref)["composed-p4"]
    raised = dict(right, **{"bdf-p2": "raised NoConvergence: x"})
    assert workloads.check_fixed_grid(grid, raised, ref)["bdf-p2"]

    tables = workloads.inputs("stability_tables", 0)
    st = ref["stability_tables"]
    values = {f"raster-{o}": st["stable_cells"]["8.0"][str(o)] for o in tables["raster_orders"]}
    values.update({f"angle-{k}": v for k, v in st["angles"].items()})
    values.update({f"bound-{k}": v for k, v in st["bounds"].items()})
    assert not any(workloads.check_stability(tables, values, ref).values())
    for op, bad in (("raster-3", 38332 + 10), ("angle-composed-4", 90.0), ("bound-steady-5", 0.86)):
        assert workloads.check_stability(tables, dict(values, **{op: bad}), ref)[op], op

    stiff = workloads.inputs("adaptive_stiff", 0)
    good = {"t_end": 6.28, "t_final": 6.3, "min_re_alpha1": 0.2, "all_finite": True,
            "max_err": 8e-5}
    assert workloads.check_adaptive(stiff, good, ref) == {"solve": None}
    for bad in ({"t_final": 6.0}, {"min_re_alpha1": -0.1}, {"all_finite": False},
                {"max_err": 1e-2}):
        assert workloads.check_adaptive(stiff, dict(good, **bad), ref)["solve"], bad


def test_self_times_sum_to_the_traced_total():
    rec = spans.Recorder()

    def leaf():
        time.sleep(0.002)

    def middle():
        rec.wrap(leaf, "leaf")()
        time.sleep(0.001)
        rec.wrap(leaf, "leaf")()

    rec.span("root", lambda: (rec.wrap(middle, "middle")(), rec.wrap(leaf, "leaf")()))
    own = spans.self_times(rec.spans)
    root = rec.spans[0]
    assert root[0] == "root" and root[3] == -1
    assert sum(own) == pytest.approx(root[2] - root[1], rel=1e-9, abs=1e-12)
    assert spans.summarize(rec.spans)["leaf"]["calls"] == 3
    assert spans.count_with_child(rec.spans, "middle", "leaf") == 1
    assert spans.count_children_of(rec.spans, "root", "leaf") == 1


def test_traced_repetition_accounts_for_its_wall_time(tmp_path):
    out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", "fixed_grid", "--traced",
         "--spans-out", str(out)],
        env=run.child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    sp = json.loads(out.read_text())["spans"]
    root = sp[0]
    assert root[0] == "bench.timed_call" and all(s[3] >= 0 for s in sp[1:])
    assert sum(spans.self_times(sp)) == pytest.approx(root[2] - root[1], rel=1e-9)
    assert root[2] - root[1] == pytest.approx(rep["wall_s"], rel=0.01)
    layers = rep["layers"]
    assert layers["problems.rhs.calls"] == rep["measures"]["rhs_calls"] > 0
    assert layers["polyroot.find_roots_batch.calls"] == 4  # one setup solve per composed order
    assert layers["bdf_core.newton_substeps"] == 0


def test_runner_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench("--workload", "fixed_grid", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

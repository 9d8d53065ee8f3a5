"""cbdf benchmark runner.

    python3 bench/run.py --workload {fixed_grid,adaptive_stiff,stability_tables,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Every timed repetition runs in a fresh interpreter (``bench/workloads.py``)
with BLAS and OpenMP pinned to one thread, importing cbdf from ``src/``
of the checkout this file sits in. Repetitions run back to back until
``--seconds`` is spent. With ``--trace 0`` the end-to-end metrics come
from untraced repetitions; with ``--trace 1`` untraced and traced
repetitions alternate and the per-layer metrics come from the traced
ones, with tracing overhead as traced minus untraced wall time.

A table of every metric with its unit goes to stdout, the full record
(inputs, machine, samples, failures, scipy reference) to
``bench/results/``, and the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
DEADLINE_S = 160  # every child of a workload is stopped by then, so a run ends within 180 s
MIN_UNTRACED = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# counts that must repeat exactly from repetition to repetition
DETERMINISTIC = ("rhs_calls", "steps", "max_err", "over_tol_steps", "setup_misses")
UNITS = {"wall_rel": "ratio", "wall_s": "s", "setup_s": "s", "rhs_calls": "count", "rhs_per_step": "calls/step",
         "max_err": "abs", "over_tol_steps": "count", "peak_rss_mb": "MB", "fail_frac": "ratio"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list, deadline: float) -> tuple:
    """Run ``workloads.py`` with ``args``; (parsed last stdout line or None, error text)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *args]
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), ""


def machine() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform(), "blas_threads": 1,
            "thread_env": {v: "1" for v in THREAD_VARS}}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repetitions of one workload until ``seconds`` is spent; aggregated record."""
    inp = workloads.inputs(name, seed)
    ops = workloads.op_names(name, inp)
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{name}-seed{seed}.spans.json"
    deadline = time.perf_counter() + DEADLINE_S
    _, err = run_child(["--import-only"], deadline)
    if err:
        raise RuntimeError(f"cannot import cbdf from {SRC}: {err}")

    reps, errors, durations = [], [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        args = ["--workload", name, "--seed", str(seed)]
        if traced:
            args += ["--traced", "--spans-out", str(spans_path)]
        t0 = time.perf_counter()
        rep, err = run_child(args, deadline)
        durations.append(time.perf_counter() - t0)
        if rep is None:
            errors.append(err)
            rep = {"traced": traced, "ops": {op: err for op in ops}, "measures": None}
        reps.append(rep)
        elapsed = time.perf_counter() - start
        untraced = sum(not r["traced"] for r in reps)
        enough = untraced >= MIN_UNTRACED and (not trace or len(reps) - untraced >= 2)
        if enough and elapsed + statistics.median(durations) > seconds:
            break

    attempted = sum(len(r["ops"]) for r in reps)
    failures = [f"{op}: {why}" for r in reps for op, why in r["ops"].items() if why]
    checks = list(errors)
    good = [r for r in reps if r.get("measures") is not None]
    for key in DETERMINISTIC:
        seen = {json.dumps(r["measures"].get(key)) for r in good}
        if len(seen) > 1:
            checks.append(f"{key} differs between repetitions: {sorted(seen)}")
    for r in good:
        if not Path(r["cbdf_file"]).resolve().is_relative_to(SRC.resolve()):
            checks.append(f"imported cbdf from {r['cbdf_file']}, not from {SRC}")
            break

    plain = [r for r in good if not r["traced"]]
    traced_reps = [r for r in good if r["traced"]]
    if plain and any(r["measures"]["rhs_calls"] != plain[0]["measures"]["rhs_calls"]
                     for r in traced_reps):
        checks.append("tracing changed the number of RHS calls")
    counts = {json.dumps({k: v for k, v in r["layers"].items() if k.endswith(".calls")})
              for r in traced_reps}
    if len(counts) > 1:
        checks.append("traced call counts differ between repetitions")
    record = {
        "workload": name, "seed": seed, "inputs": inp, "trace": int(trace),
        "seconds": seconds, "machine": machine(),
        "versions": good[0]["versions"] if good else None,
        "samples": {"untraced": len(plain), "traced": len(good) - len(plain)},
        "attempted": attempted, "failed": len(failures), "failures": failures[:50],
        "self_check_failures": checks,
        "correct": not failures and not checks,
    }
    if not plain:
        return record
    measures = plain[0]["measures"]
    record["end_to_end"] = {
        "wall_rel": statistics.median(r["wall_s"] / r["cal_s"] for r in plain),
        **{k: statistics.median(r[k] for r in plain) for k in ("wall_s", "setup_s", "peak_rss_mb")},
        "rhs_calls": measures["rhs_calls"] if name != "stability_tables" else None,
        "rhs_per_step": measures.get("rhs_per_step"),
        "max_err": measures["max_err"], "over_tol_steps": measures["over_tol_steps"],
        "fail_frac": len(failures) / attempted,
    }
    record["outputs"] = {k: v for k, v in measures.items() if k in ("endpoint_err", "tables")}
    record["setup_misses"] = measures["setup_misses"]
    record["wall_samples_s"] = [r["wall_s"] for r in plain]
    record["calibration_samples_s"] = [r["cal_s"] for r in plain]
    record["setup_samples_s"] = [r["setup_s"] for r in plain]
    if traced_reps:
        layers = {}
        for key in traced_reps[0]["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in traced_reps)
        layers["trace.untraced_wall_s"] = record["end_to_end"]["wall_s"]
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        traced_rel = statistics.median(r["wall_s"] / r["cal_s"] for r in traced_reps)
        layers["trace.overhead_frac"] = traced_rel / record["end_to_end"]["wall_rel"] - 1.0
        record["per_layer"] = layers
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    if name == "adaptive_stiff" and not trace and measures["max_err"] is not None:
        ref, err = run_child(["--scipy-reference", repr(measures["max_err"])], deadline)
        record["scipy_reference"] = ref if ref is not None else {"error": err}
    return record


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_table(rec: dict) -> None:
    m, v = rec["machine"], rec["versions"] or {}
    print(f"== {rec['workload']}  seed {rec['seed']}  inputs {json.dumps(rec['inputs'])}")
    print(f"   machine: {m['cpu']}, nproc {m['nproc']}, python {v.get('python')}, "
          f"numpy {v.get('numpy')}, scipy {v.get('scipy')}, BLAS/OpenMP threads {m['blas_threads']}")
    print(f"   {rec['attempted']} operations attempted, {rec['failed']} failed; "
          f"correct={rec['correct']}")
    for line in rec["failures"][:10] + rec["self_check_failures"]:
        print(f"   ! {line}")
    e2e = rec.get("end_to_end")
    if e2e:
        n = rec["samples"]["untraced"]
        print(f"   {'metric':<16}{'value':>14}  unit")
        for key, value in e2e.items():
            note = {"wall_rel": f"  (wall_s / calibration kernel time, median of {n} samples)",
                    "wall_s": f"  (median of {n} fresh-interpreter samples)",
                    "setup_s": f"  (median of {n} fresh-interpreter samples)"}.get(key, "")
            print(f"   {key:<16}{_fmt(value):>14}  {UNITS[key]}{note}")
    if "scipy_reference" in rec:
        print(f"   scipy reference (not gated): {json.dumps(rec['scipy_reference'])}")
    if "per_layer" in rec:
        units = {d["name"]: d["unit"] for d in spec.per_layer()}
        print(f"   per-layer, median of {rec['samples']['traced']} traced samples:")
        for key, value in rec["per_layer"].items():
            print(f"   {key:<40}{_fmt(value):>14}  {units[key]}")


def contract_metrics(rec: dict, trace: bool) -> dict:
    if trace:
        return {d["name"]: {"value": rec["per_layer"][d["name"]], "unit": d["unit"]}
                for d in spec.per_layer()}
    return {n: {"value": rec["end_to_end"][n], "unit": u} for n, u, _ in spec.END_TO_END}


def main(argv=None) -> int:
    names = [n for n, _ in spec.WORKLOADS]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cbdf" / "__init__.py").is_file():
        print(f"error: no cbdf package under {SRC}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    chosen = names if args.workload == "all" else [args.workload]
    records = []
    for name in chosen:
        rec = run_workload(name, args.seed, args.seconds, trace)
        out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(rec, indent=1) + "\n")
        print_table(rec)
        print(f"   full record: {out.relative_to(ROOT)}")
        records.append(rec)
    if any("end_to_end" not in r or (trace and "per_layer" not in r) for r in records):
        print("error: no repetition completed; no metrics to report", file=sys.stderr)
        return 1

    if len(records) == 1:
        metrics = contract_metrics(records[0], trace)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in contract_metrics(r, trace).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CLI surface: subcommands, file formats, exit codes, determinism."""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cbdf.cli import integrate_fixed, main
from cbdf.problems import builtin


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_p1(capsys):
    code, out, _ = run_cli(capsys, "roots", "--p", "1")
    assert code == 0
    assert "5.0000000000000000e-01" in out
    assert "*" in out


def test_roots_p3_uniform_contains_printed(capsys):
    code, out, _ = run_cli(capsys, "roots", "--p", "3")
    assert code == 0
    assert "3.2477539165376" in out


def test_roots_with_ratios(capsys):
    code, out, _ = run_cli(capsys, "roots", "--p", "2", "--ratios", "3")
    assert code == 0
    # every positive-real-part candidate must nearly zero the trailing weight
    for line in out.splitlines()[2:]:
        re_a, im_a, res, mark = line.split(",")
        if float(re_a) > 0:
            assert float(res) < 1e-9


def test_converge_csv_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = [
        "converge", "--problem", "cubic_decay", "--scheme", "composed",
        "--p", "2", "--taus", "0.1,0.05,0.025",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "scheme,p,tau,global_error,slope"
    assert len(lines) == 4
    slope = float(lines[1].split(",")[4])
    assert abs(slope - 3.0) < 0.3
    # 17 significant digits in scientific notation
    assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d{2,3}", lines[1].split(",")[3])


def test_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--problem", "cubic_decay", "--p", "2",
        "--taus", "0.1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,tau,err_bdf,err_composed,ratio_err,cpu_bdf,cpu_composed,ratio_cpu"
    fields = lines[1].split(",")
    assert float(fields[4]) > 1.0  # composed is more accurate at equal order


def test_stability_angle_output(capsys):
    code, out, _ = run_cli(capsys, "stability", "--order", "2", "--angle")
    assert code == 0
    assert out.strip() == "90.000"
    # the boundary-locus angle: unstable points at |z| near 2 on the rays at
    # 81.603 degrees put it below the 81.628 a ray bisection over 200 radii gave
    code, out, _ = run_cli(capsys, "stability", "--order", "5", "--angle")
    assert code == 0
    assert out.strip() == "81.598"


def test_stability_empty_sector_exits_3(capsys):
    # composed order 9 is unstable at z = -1: EmptySector, a solver failure
    code, out, err = run_cli(capsys, "stability", "--order", "9", "--angle")
    assert code == 3
    assert out == ""
    assert "EmptySector" in err


def test_stability_raster_files(tmp_path):
    csv_out = tmp_path / "reg.csv"
    pbm_out = tmp_path / "reg.pbm"
    base = [
        "stability", "--order", "3", "--xmin", "-1", "--xmax", "1",
        "--ymin", "-1", "--ymax", "1", "--nx", "3", "--ny", "3",
    ]
    assert main(base + ["--out", str(csv_out)]) == 0
    assert main(base + ["--out", str(pbm_out)]) == 0
    assert csv_out.read_text().splitlines()[0] == "re_z,im_z,stable"
    assert pbm_out.read_text().splitlines()[0] == "P1"
    assert main(base + ["--out", str(tmp_path / "reg.txt")]) == 2


@pytest.mark.parametrize("window", [
    ["--xmin", "nan", "--xmax", "1", "--ymin", "-1", "--ymax", "1"],
    ["--xmin", "1", "--xmax", "-1", "--ymin", "-1", "--ymax", "1"],
    ["--xmin", "-1", "--xmax", "inf", "--ymin", "-1", "--ymax", "1"],
    ["--xmin", "-1", "--xmax", "1", "--ymin", "1", "--ymax", "1"],
])
def test_stability_raster_bad_bounds_exit_2(tmp_path, capsys, window):
    out = tmp_path / "reg.csv"
    argv = ["stability", "--order", "3", *window, "--nx", "3", "--ny", "3", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: need finite bounds")
    assert not out.exists()


@pytest.mark.parametrize("size", ["2.5", "three"])
def test_stability_raster_non_integer_size_exit_2(tmp_path, capsys, size):
    out = tmp_path / "reg.csv"
    argv = ["stability", "--order", "3", "--xmin", "-1", "--xmax", "1", "--ymin", "-1",
            "--ymax", "1", "--nx", size, "--ny", "3", "--out", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "--nx: invalid int value" in capsys.readouterr().err
    assert not out.exists()


def test_stability_raster_checks_suffix_before_computing(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("raster computed before the output suffix was checked")

    monkeypatch.setattr("cbdf.stability.region_raster", refuse)
    argv = ["stability", "--order", "3", "--xmin", "-1", "--xmax", "1", "--ymin", "-1",
            "--ymax", "1", "--nx", "3", "--ny", "3", "--out", str(tmp_path / "reg.txt")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --out must end in .csv or .pbm\n"


def test_bounds_output(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--p", "2", "--mode", "first")
    assert code == 0
    assert abs(float(out.strip()) - 0.4506) <= 5e-3


def test_adaptive_trace(tmp_path):
    out = tmp_path / "trace.csv"
    code = main([
        "adaptive", "--problem", "cubic_decay", "--p", "2",
        "--tol", "1e-6", "--tau0", "0.05", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,t_n,tau_n,re_alpha1,im_alpha1,err_estimate")


def test_problem_from_json(tmp_path):
    rec = tmp_path / "prob.json"
    rec.write_text(json.dumps({"name": "fast", "rhs": "lambert", "delta": 0.05}))
    out = tmp_path / "trace.csv"
    code = main([
        "adaptive", "--problem", str(rec), "--p", "2",
        "--tol", "1e-6", "--tau0", "0.5", "--out", str(out),
    ])
    assert code == 0


def test_bad_problem_exits_2():
    assert main(["converge", "--problem", "nope", "--scheme", "bdf",
                 "--p", "2", "--taus", "0.1", "--out", "/tmp/x.csv"]) == 2


def test_integrate_fixed_rejects_unknown_scheme():
    # 2 steps on [0, 1] at base order 3: the loop body never runs, so the
    # scheme must be checked before it
    with pytest.raises(ValueError, match="rk4"):
        integrate_fixed(builtin("cubic_decay"), "rk4", 3, 0.5)


@pytest.mark.parametrize("tau", [0.0, -0.1, float("nan"), float("inf"), 2.0])
def test_integrate_fixed_rejects_bad_step(tau):
    # 2.0 overshoots [0, 1] before the first step of order 3
    with pytest.raises(ValueError, match="tau"):
        integrate_fixed(builtin("cubic_decay"), "bdf", 3, tau)


@pytest.mark.parametrize("argv", [
    ["converge", "--scheme", "bdf", "--p", "2", "--taus", "0"],
    ["converge", "--scheme", "bdf", "--p", "1", "--taus", "-0.1"],
    ["converge", "--scheme", "composed", "--p", "3", "--taus", "2.0"],
    ["bench", "--p", "2", "--taus", "0"],
    ["adaptive", "--p", "1", "--tol", "1e-6", "--tau0", "0"],
    ["adaptive", "--p", "1", "--tol", "1e-6", "--tau0", "nan"],
    # the exact start history of order 4 ends at 1.5, past t_end = 1
    ["adaptive", "--p", "4", "--tol", "1e-8", "--tau0", "0.5"],
    # one distinct step leaves the least-squares slope undetermined
    ["converge", "--scheme", "bdf", "--p", "2", "--taus", "0.1"],
    ["converge", "--scheme", "bdf", "--p", "2", "--taus", "0.1,0.1"],
])
def test_bad_step_exits_2(tmp_path, capsys, argv):
    argv = argv[:1] + ["--problem", "cubic_decay", "--out", str(tmp_path / "x.csv")] + argv[1:]
    assert main(argv) == 2
    assert "tau" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["roots", "--p", "0"],
    ["roots", "--p", "-1"],
    ["roots", "--p", "9"],
    ["stability", "--order", "10", "--angle"],
    ["stability", "--order", "7", "--scheme", "bdf", "--angle"],
    ["adaptive", "--problem", "{tmp}/missing.json", "--p", "2", "--tol", "1e-6",
     "--tau0", "0.05", "--out", "{tmp}/t.csv"],
    ["converge", "--problem", "cubic_decay", "--scheme", "bdf", "--p", "2",
     "--taus", "0.1,0.05", "--out", "{tmp}/no/such/dir/x.csv"],
])
def test_bad_argument_exits_2(tmp_path, capsys, argv):
    # an order out of range or an unreadable or unwritable file is a bad
    # argument, not a solver failure or a traceback
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("record", [
    [1, 2],
    {"rhs": "forced_linear", "lam": [1]},
    {"rhs": "lambert", "delta": None},
])
def test_malformed_problem_record_exits_2(tmp_path, capsys, record):
    # well-formed JSON of the wrong shape or types is a bad argument too
    rec = tmp_path / "prob.json"
    rec.write_text(json.dumps(record))
    assert main(["adaptive", "--problem", str(rec), "--p", "2", "--tol", "1e-6",
                 "--tau0", "0.1", "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["adaptive", "--p", "2", "--tol", "1e-6", "--tau0", "0.1"],
    ["converge", "--scheme", "bdf", "--p", "2", "--taus", "0.1,0.05"],
])
@pytest.mark.parametrize("t_end", [-1.0, float("inf")])
def test_backward_or_infinite_interval_exits_2(tmp_path, capsys, argv, t_end):
    # a backward interval leaves no step and an infinite one no step count:
    # both are bad arguments, refused before an output file is written
    rec = tmp_path / "prob.json"
    rec.write_text(json.dumps({"rhs": "forced_linear", "t_end": t_end}))
    out = tmp_path / "o.csv"
    assert main(argv[:1] + ["--problem", str(rec), "--out", str(out)] + argv[1:]) == 2
    assert "t0 < t_end" in capsys.readouterr().err
    assert not out.exists()


def test_bad_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_solver_failure_exits_3(tmp_path):
    code = main([
        "adaptive", "--problem", "lambert", "--p", "4",
        "--tol", "1e-12", "--tau0", "0.01", "--no-clamps",
        "--out", str(tmp_path / "t.csv"),
    ])
    assert code == 3


def test_bench_ratio_columns_consistent(tmp_path):
    # the ratio columns are exactly the quotients of the error columns
    out = tmp_path / "bench.csv"
    assert main([
        "bench", "--problem", "cubic_decay", "--p", "2,3",
        "--taus", "0.1,0.05", "--out", str(out),
    ]) == 0
    for line in out.read_text().splitlines()[1:]:
        f = line.split(",")
        assert float(f[4]) == pytest.approx(float(f[2]) / float(f[3]), rel=1e-14)


def test_adaptive_trace_determinism(tmp_path):
    args = [
        "adaptive", "--problem", "cubic_decay", "--p", "2",
        "--tol", "1e-6", "--tau0", "0.05",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _fresh_python(code):
    """Run ``code`` in a new interpreter that imports this checkout's cbdf."""
    import cbdf

    src = str(Path(cbdf.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    # scipy is imported where it is used, so a cold `import cbdf` stays light, and
    # runs on scalar problems, which solve no matrix larger than 1x1, never load it
    code = """
import sys, cbdf
def loaded(*prefixes):
    return sorted(m for m in sys.modules if m.startswith(prefixes))
print(loaded("scipy", "numpy.polynomial"))
for name in ("cubic_decay", "forced_linear", "stiff_arctan", "lambert"):
    prob = cbdf.builtin(name)
    for t in (0.0, 0.01, 0.5, prob.t_end):
        prob.exact(t)
prob = cbdf.builtin("stiff_arctan")
cbdf.bootstrap(prob, 4, 0.01)
short = cbdf.ODEProblem(prob.rhs, prob.t0, prob.y0, 0.3, prob.exact, prob.name)
cbdf.adaptive_drive(short, 4, 0.01, cbdf.StepController(4, 1e-10))
print(loaded("scipy"))
"""
    assert _fresh_python(code).splitlines() == ["[]", "[]"]


def test_public_names_resolve():
    # every exported name exists, and a star import in a fresh interpreter binds them all
    import cbdf

    missing = [name for name in cbdf.__all__ if not hasattr(cbdf, name)]
    assert not missing
    assert len(set(cbdf.__all__)) == len(cbdf.__all__)
    code = ("from cbdf import *; import cbdf; "
            "print(sorted(n for n in cbdf.__all__ if n not in globals()))")
    assert _fresh_python(code) == "[]"


def _referenced_names(path) -> set:
    """Names that code in ``path`` reads, binds by import, or takes as attributes."""
    names = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
            if node.level and node.module:
                names.add(node.module)  # ``from .errors import X`` reads ``errors``
    return names


def test_public_names_have_a_reader():
    # every exported name is read by code in a cbdf module other than the
    # package's __init__, or is imported by the acceptance suite; a mention
    # in a docstring or a definition alone does not count
    import cbdf

    package = Path(cbdf.__file__).resolve().parent
    read = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            read |= _referenced_names(path)
    acceptance = Path(__file__).resolve().parent / "test_acceptance.py"
    for node in ast.walk(ast.parse(acceptance.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cbdf"):
            read.update(alias.name for alias in node.names)
    assert sorted(set(cbdf.__all__) - read) == []


def test_readme_quick_start_runs():
    # the documented HistoryWindow and composed_step example runs, and its
    # last line prints what the comment on that line says
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expect = code.rstrip().splitlines()[-1].split("# ", 1)[1]
    assert _fresh_python(code).splitlines()[-1] == expect

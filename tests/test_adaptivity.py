"""Step controller, admissible-ratio bounds, and the adaptive driver."""
import math
from itertools import accumulate

import numpy as np
import pytest

from cbdf.adaptivity import (
    StepController,
    _history_gaps,
    adaptive_drive,
    min_ratio,
    next_step,
    ratio_clamp,
)
from cbdf.composition import solve_alpha1
from cbdf.errors import NoAdmissibleRoot, NoConvergence
from cbdf.problems import builtin

TABLE_FIRST = {2: 0.4506, 3: 0.6311, 4: 0.7158, 5: 0.7717, 6: 0.8125, 7: 0.8454, 8: 0.8734}


def test_ratio_clamp_rule():
    assert ratio_clamp(1) == 2.0
    for p in range(2, 6):
        assert ratio_clamp(p) == pytest.approx(2.0 ** (1.0 / (2 * p - 3)))
    for p in range(6, 9):
        assert ratio_clamp(p) == pytest.approx(p ** (1.0 / (p * (p - 1))))


def test_controller_validation():
    ctl = StepController(p=3, tol=1e-8)
    assert ctl.ell == pytest.approx(2.0 ** (1.0 / 3.0))
    with pytest.raises(ValueError):
        StepController(p=3, tol=-1.0)


def test_next_step_fixed_point():
    ctl = StepController(p=3, tol=1e-8)
    assert next_step(0.2, 1e-8, ctl) == pytest.approx(0.2)


def test_next_step_huge_error_hits_lower_clamp():
    ctl = StepController(p=2, tol=1e-8)
    assert next_step(0.4, 1e6 * ctl.tol, ctl) == pytest.approx(0.4 / 2.0)
    ctl7 = StepController(p=7, tol=1e-8)
    assert next_step(0.4, 1e300, ctl7) == pytest.approx(0.4 / 7 ** (1 / 42.0))


def test_next_step_zero_error_upper_clamp():
    ctl = StepController(p=4, tol=1e-10)
    assert next_step(0.1, 0.0, ctl) == pytest.approx(0.1 * ctl.ell)


def test_next_step_absolute_clamps():
    ctl = StepController(p=1, tol=1e-8)
    # halving 1.5e-12 would fall below the 1e-12 floor, which holds the step
    assert next_step(1.5e-12, 1e6, ctl) == 1e-12
    assert next_step(0.1, 1e6, ctl) == pytest.approx(0.05)
    assert next_step(0.1, 0.0, ctl) == pytest.approx(0.2)


@pytest.mark.parametrize("tau_n, e_n", [
    (math.nan, 1e-8), (0.1, math.nan), (math.inf, 1e-8), (0.0, 1e-8), (0.1, -1e-8),
])
def test_next_step_rejects_nan_and_infinite_inputs(tau_n, e_n):
    # a NaN used to pass both sign checks and come back as a NaN step
    with pytest.raises(ValueError, match="tau_n|e_n"):
        next_step(tau_n, e_n, StepController(p=3, tol=1e-8))


def test_clamp_soundness(rng):
    ctl = StepController(p=3, tol=1e-9)
    tau = 0.3
    for e in 10.0 ** rng.uniform(-16, 3, size=200):
        nxt = next_step(tau, e, ctl)
        assert tau / ctl.ell - 1e-15 <= nxt <= tau * ctl.ell + 1e-15
        tau = nxt


@pytest.mark.parametrize("p", sorted(TABLE_FIRST))
def test_min_ratio_first_step(p):
    assert abs(min_ratio(p, "first-step") - TABLE_FIRST[p]) <= 5e-3


def test_min_ratio_steady_headline():
    assert abs(min_ratio(3, "steady") - 0.6806) <= 5e-3


# where the admissible root reaches the imaginary axis (an independent
# fsolve on alpha1_polynomial(iy) = 0 gives the same seven digits)
EXACT_BOUNDS = {
    (2, "first-step"): 0.4496976,
    (3, "first-step"): 0.6305101,
    (4, "first-step"): 0.7156863,
    (3, "steady"): 0.6801446,
    (4, "steady"): 0.7894603,
}


@pytest.mark.parametrize("p, mode", sorted(EXACT_BOUNDS))
def test_min_ratio_is_the_crossing(p, mode):
    assert abs(min_ratio(p, mode) - EXACT_BOUNDS[p, mode]) <= 1e-7


@pytest.mark.parametrize("mode", ["first-step", "steady"])
@pytest.mark.parametrize("p", range(2, 9))
def test_min_ratio_brackets_admissibility(p, mode):
    # just above the bound the ladder has an admissible root, just below none
    bound = min_ratio(p, mode)
    c = tuple(accumulate(_history_gaps(p, mode), initial=0.0))
    assert solve_alpha1(tuple(x / (bound * (1 + 1e-9)) for x in c)).real > 0
    with pytest.raises(NoAdmissibleRoot):
        solve_alpha1(tuple(x / (bound * (1 - 1e-9)) for x in c))


def test_rule_of_thumb_is_conservative():
    for p in range(2, 9):
        rule = 1.0 / 2.0 ** (1.0 / (2 * p - 3))
        assert rule >= min_ratio(p, "first-step") - 5e-3


def test_adaptive_drive_smoke(tmp_path):
    prob = builtin("lambert", delta=0.01)
    ctl = StepController(p=2, tol=1e-7)
    rec = adaptive_drive(prob, 2, 0.5, ctl)
    assert rec.times[-1] >= prob.t_end - 1e-9
    taus = np.array(rec.taus)
    ratios = taus[1:] / taus[:-1]
    assert (ratios >= 1 / ctl.ell - 1e-12).all()
    assert (ratios <= ctl.ell + 1e-12).all()
    assert all(a.real > 0 for a in rec.alpha1s)
    out = tmp_path / "trace.csv"
    rec.write_csv(out, prob.exact)
    lines = out.read_text().splitlines()
    assert lines[0] == "n,t_n,tau_n,re_alpha1,im_alpha1,err_estimate,err_exact"
    assert len(lines) == 1 + len(rec.times)


def test_write_csv_exact_column(tmp_path):
    prob = builtin("cubic_decay")
    rec = adaptive_drive(prob, 2, 0.05, StepController(p=2, tol=1e-6))
    with_exact, without = tmp_path / "a.csv", tmp_path / "b.csv"
    rec.write_csv(with_exact, prob.exact)
    rec.write_csv(without, None)
    rows = [line.split(",") for line in with_exact.read_text().splitlines()]
    assert [",".join(r[:-1]) for r in rows] == without.read_text().splitlines()
    for (t, y), row in zip(zip(rec.times, rec.states), rows[1:]):
        assert float(row[-1]) == float(np.max(np.abs(prob.exact(t) - y)))


def test_step_budget_exhaustion_is_a_solver_failure(monkeypatch, tmp_path):
    import cbdf.adaptivity
    from cbdf.cli import main

    monkeypatch.setattr(cbdf.adaptivity, "_MAX_STEPS", 3)
    with pytest.raises(NoConvergence, match="3 steps"):
        adaptive_drive(builtin("cubic_decay"), 2, 0.05, StepController(p=2, tol=1e-6))
    argv = ["adaptive", "--problem", "cubic_decay", "--p", "2", "--tol", "1e-6",
            "--tau0", "0.05", "--out", str(tmp_path / "trace.csv")]
    assert main(argv) == 3


# the start history of order 2 ends at tau0, so 1.0 and 1.5 leave no step
# before cubic_decay's t_end = 1
@pytest.mark.parametrize("tau0", [0.0, -0.05, float("nan"), float("inf"), 1.0, 1.5])
def test_adaptive_drive_rejects_bad_first_step(tau0):
    with pytest.raises(ValueError, match="tau"):
        adaptive_drive(builtin("cubic_decay"), 2, tau0, StepController(p=2, tol=1e-6))


@pytest.mark.parametrize("p, ctl_p", [(2, 4), (4, 1)])
def test_adaptive_drive_rejects_controller_of_other_order(p, ctl_p):
    with pytest.raises(ValueError, match="controller"):
        adaptive_drive(builtin("cubic_decay"), p, 0.05, StepController(p=ctl_p, tol=1e-6))


def test_adaptive_reaches_final_time():
    prob = builtin("cubic_decay")
    ctl = StepController(p=2, tol=1e-6)
    rec = adaptive_drive(prob, 2, 0.05, ctl)
    assert rec.times[-1] >= prob.t_end - 1e-12
    # the landing cap may shorten the last step, never below the ratio clamp
    taus = np.array(rec.taus)
    assert (taus[1:] / taus[:-1] >= 1 / ctl.ell - 1e-12).all()


def test_controller_rejects_off_rule_clamp():
    with pytest.raises(TypeError):
        StepController(p=3, tol=1e-8, ell=1.7)


def test_adaptive_step_counts_track_tolerance_and_order():
    # tighter tolerances force smaller steps; higher orders afford larger ones
    prob = builtin("lambert", delta=0.01)
    counts_tol = []
    for tol in (1e-7, 1e-9):
        rec = adaptive_drive(prob, 2, 0.1, StepController(p=2, tol=tol))
        assert all(a.real > 0 for a in rec.alpha1s)
        counts_tol.append(len(rec.times))
    assert counts_tol[0] < counts_tol[1]
    n_p2 = counts_tol[1]
    for p in (3, 4):
        rec = adaptive_drive(prob, p, 0.1, StepController(p=p, tol=1e-9))
        assert len(rec.times) < n_p2


def test_stiff_run_rhs_calls_per_step():
    # the first stiff sub-step leaves the sweep for Newton and builds the RHS
    # Jacobian; every later sub-step keeps it and starts with Newton from the
    # predictor: about two RHS calls per sub-step, four per step (10.4 when
    # each sub-step swept twice and built its own Jacobian)
    from cbdf.problems import ODEProblem

    calls = [0]

    def counted(base):
        def rhs(t, y):
            calls[0] += 1
            return base.rhs(t, y)
        return ODEProblem(rhs, base.t0, base.y0, base.t_end, base.exact, base.name)

    base = builtin("stiff_arctan")
    rec = adaptive_drive(counted(base), 4, 0.01, StepController(p=4, tol=1e-10))
    assert rec.times[-1] >= base.t_end - 1e-12
    assert len(rec.times) == 207
    assert calls[0] <= 4.5 * len(rec.times), calls[0]
    max_err = max(float(np.abs(base.exact(t) - y).max()) for t, y in zip(rec.times, rec.states))
    assert abs(max_err - 8.1860e-05) <= 1e-3 * 8.1860e-05, max_err
    # a kept Jacobian that slows Newton down is rebuilt: rebuilt only when an
    # increment fails to shrink, this run made 2,101 calls
    calls[0] = 0
    adaptive_drive(counted(builtin("lambert")), 8, 0.01, StepController(p=8, tol=1e-12))
    assert calls[0] <= 1697, calls[0]

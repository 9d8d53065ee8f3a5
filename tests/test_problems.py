"""Test problems, the Lambert W evaluation, and window bootstrap."""
import math

import numpy as np
import pytest

from cbdf.bdf_core import HistoryWindow
from cbdf.errors import DomainError, MissingExactSolution, UnknownProblem
from cbdf.problems import ODEProblem, bootstrap, builtin, from_record, lambert_w

W1_BISECTION = 0.567143290409783873  # 200-step bisection of w e^w = 1 on [0, 1]


def test_cubic_decay_exact_value():
    prob = builtin("cubic_decay")
    assert prob.exact(0.5)[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


def test_forced_linear_initial_condition():
    prob = builtin("forced_linear")
    assert prob.exact(0.0)[0] == pytest.approx(2.0, abs=1e-13)


def test_lambert_initial_condition():
    prob = builtin("lambert", delta=0.01)
    assert prob.exact(0.0)[0] == pytest.approx(0.01, abs=1e-14)


def test_unknown_problem():
    with pytest.raises(UnknownProblem):
        builtin("does_not_exist")
    with pytest.raises(UnknownProblem):
        builtin("cubic_decay", gamma=2.0)


@pytest.mark.parametrize("name", ("cubic_decay", "forced_linear", "stiff_arctan", "lambert"))
def test_exact_satisfies_ode(name):
    prob = builtin(name)
    h = 3e-6
    span = prob.t_end - prob.t0
    for k in range(100):
        t = prob.t0 + span * (k + 0.5) / 100.0
        dy = (prob.exact(t + h) - prob.exact(t - h)) / (2.0 * h)
        res = np.max(np.abs(dy - prob.rhs(t, prob.exact(t).astype(complex)).real))
        assert res <= 1e-6, f"{name}: residual {res:.2e} at t={t:.4f}"


def test_rhs_accepts_complex_arguments():
    for name in ("cubic_decay", "forced_linear", "stiff_arctan", "lambert"):
        prob = builtin(name)
        val = prob.rhs(0.3 + 0.1j, np.array([0.5 + 0.2j]))
        assert np.iscomplexobj(np.asarray(val))


def _arctan_oracle(t: float) -> float:
    """stiff_arctan's exact solution at t, by a 40-digit mpmath quadrature."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lam, tt = mpmath.mpf(-50), mpmath.mpf(t)
        cut = min(tt, mpmath.mpf(46) / 50)
        integral = mpmath.quad(lambda u: mpmath.exp(lam * u) * mpmath.atan(20 * (tt - u)),
                               [cut * k / 20 for k in range(21)])
        return float(mpmath.exp(lam * tt) - lam * integral)


@pytest.mark.parametrize("t", (1e-6, 0.05, 0.3, 0.92 - 1e-7, 0.92, 0.92 + 1e-7, 3.0, 2.0 * math.pi))
def test_stiff_arctan_exact_matches_oracle(t):
    # t << 1, the e^{-46} cutoff at 46/50 = 0.92 on both sides, and t_end
    assert abs(builtin("stiff_arctan").exact(t)[0] - _arctan_oracle(t)) <= 1e-15


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")  # epsabs at roundoff
def test_stiff_arctan_exact_matches_quad():
    integrate = pytest.importorskip("scipy.integrate")
    exact = builtin("stiff_arctan").exact
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.0, 2.0 * math.pi, 100):
        integral, _ = integrate.quad(lambda u: math.exp(-50.0 * u) * math.atan(20.0 * (t - u)),
                                     0.0, min(t, 0.92), epsabs=1e-16, epsrel=1e-14, limit=500)
        assert abs(exact(t)[0] - (math.exp(-50.0 * t) + 50.0 * integral)) <= 2e-15, t


def test_lambert_w_values():
    assert lambert_w(0.0) == 0.0
    assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-14)
    assert lambert_w(1.0) == pytest.approx(W1_BISECTION, abs=1e-13)
    with pytest.raises(DomainError):
        lambert_w(-1.0)


def test_lambert_w_defining_equation():
    for x in np.logspace(-6, 6, 1000):
        w = lambert_w(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-13 * (1.0 + x)


def test_lambert_w_near_branch_point():
    x = -1.0 / math.e + 1e-6
    w = lambert_w(x)
    assert abs(w * math.exp(w) - x) <= 1e-13


def test_bootstrap_p1():
    prob = builtin("cubic_decay")
    win = bootstrap(prob, 1, 0.1)
    assert win.times == (0.0,)
    assert win.states[0][0] == pytest.approx(1.0)


def test_bootstrap_exact_values():
    prob = builtin("cubic_decay")
    win = bootstrap(prob, 3, 0.1, policy="exact")
    expect = [1.0, 1.0 / math.sqrt(1.2), 1.0 / math.sqrt(1.4)]
    for s, e in zip(win.states, expect):
        assert s[0] == pytest.approx(e, abs=1e-15)


def test_bootstrap_missing_exact():
    prob = ODEProblem(lambda t, y: -y, 0.0, np.array([1.0]), 1.0, None, "bare")
    with pytest.raises(MissingExactSolution):
        bootstrap(prob, 2, 0.1, policy="exact")


@pytest.mark.parametrize("policy", ["cascade", "", "Exact", None])
def test_bootstrap_rejects_other_policies(policy):
    with pytest.raises(ValueError, match="policy"):
        bootstrap(builtin("cubic_decay"), 2, 0.1, policy=policy)


@pytest.mark.parametrize("tau", [0.0, -0.1, float("nan"), float("inf")])
def test_bootstrap_rejects_bad_step(tau):
    with pytest.raises(ValueError, match="tau"):
        bootstrap(builtin("cubic_decay"), 2, tau)


@pytest.mark.parametrize("t_end", [0.0, -1.0, math.inf, math.nan])
def test_problem_rejects_an_empty_backward_or_non_finite_interval(t_end):
    base = builtin("cubic_decay")
    with pytest.raises(ValueError, match="t0 < t_end"):
        ODEProblem(base.rhs, base.t0, base.y0, t_end, base.exact, base.name)


def test_from_record():
    prob = from_record({"name": "slow", "rhs": "lambert", "delta": 0.05})
    assert prob.name == "slow"
    assert prob.y0[0] == pytest.approx(0.05)
    with pytest.raises(UnknownProblem):
        from_record({"name": "x"})

"""Coefficient generation and the implicit step."""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbdf.bdf_core import (
    HistoryWindow,
    ImplicitSolveConfig,
    coeff_fixed,
    coeff_variable,
    g_closed_form,
    implicit_solve,
    predictor_weights,
)
from cbdf.errors import DuplicateEps, DuplicateNode, OrderOutOfRange
from cbdf.polyroot import solve_dense
from conftest import draw_eps, solve_from, stage1_system, step_weights

TABLE_FIXED = {
    1: (1.0, -1.0),
    2: (1.5, -2.0, 0.5),
    3: (11 / 6, -3.0, 1.5, -1 / 3),
    4: (25 / 12, -4.0, 3.0, -4 / 3, 0.25),
    5: (137 / 60, -5.0, 5.0, -10 / 3, 1.25, -0.2),
}


@pytest.mark.parametrize("p", sorted(TABLE_FIXED))
def test_coeff_fixed_table(p):
    got = coeff_fixed(p)
    for g, ref in zip(got, TABLE_FIXED[p]):
        assert abs(g - ref) <= 1e-15 * max(1.0, abs(ref))


@pytest.mark.parametrize("p", [0, 9, -3])
def test_coeff_fixed_range(p):
    with pytest.raises(OrderOutOfRange):
        coeff_fixed(p)


def test_coeff_variable_backward_euler():
    c = coeff_variable((0.0,), 0.3)
    assert np.allclose(c, (1.0, -1.0), atol=1e-14)


def test_coeff_variable_uniform_matches_table():
    c = coeff_variable((0.0, 1.0), 2.0)
    assert np.allclose(c, (1.5, -2.0, 0.5), atol=1e-14)


def test_coeff_variable_against_dense_solve():
    c = coeff_variable((0.0, 1.0), 1.5)
    # scaled offsets (1.5 - t_j) / (1.5 - 1.0), newest node first
    a, rhs = stage1_system((1.0, 3.0))
    ref = solve_dense(a, rhs)
    assert np.max(np.abs(np.array(c) - ref)) < 1e-12


def test_coeff_variable_duplicate_node():
    with pytest.raises(DuplicateNode):
        coeff_variable((0.0, 0.0), 1.0)
    with pytest.raises(DuplicateNode):
        coeff_variable((0.0, 1.0), 1.0)


def test_g_closed_form_single_node():
    assert np.allclose(g_closed_form((1.0,)), (1.0, -1.0), atol=1e-15)


def test_g_closed_form_uniform_pair():
    g = g_closed_form((1.0, 2.0))
    assert abs(g[0] - 1.5) < 1e-14
    a, rhs = stage1_system((1.0, 2.0))
    ref = solve_dense(a, rhs)
    assert np.max(np.abs(np.array(g) - ref)) < 1e-13


def test_g_closed_form_random_vs_dense(rng):
    for _ in range(20):
        eps = draw_eps(rng, 5)
        g = np.array(g_closed_form(eps))
        a, rhs = stage1_system(eps)
        ref = solve_dense(a, rhs)
        assert np.max(np.abs(g - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_g_closed_form_duplicates():
    with pytest.raises(DuplicateEps):
        g_closed_form((1.0, 1.0))
    with pytest.raises(DuplicateEps):
        g_closed_form((0.0, 1.0))


def test_check_order_conditions():
    def satisfies_moments(weights, eps):
        # order-p moment sums within 1e-9 of the terms' magnitude
        a, rhs = stage1_system(eps)
        g = np.array(weights, dtype=complex)
        magn = np.max(np.abs(a) @ np.abs(g))
        return np.max(np.abs(a @ g - rhs)) <= 1e-9 * max(1.0, magn)

    # coeff_fixed steps from the nodes -p..-1 to 0, so its scaled offsets are 1..p
    assert satisfies_moments(coeff_fixed(3), (1.0, 2.0, 3.0))
    assert satisfies_moments(coeff_fixed(1), (1.0,))
    assert not satisfies_moments((1.6, -2.0, 0.4), (1.0, 2.0))


def test_consistency_zero_sum(rng):
    for p in range(1, 9):
        assert abs(sum(coeff_fixed(p))) <= 1e-12
        times = np.cumsum(rng.uniform(0.4, 1.5, p))
        c = coeff_variable(tuple(times), float(times[-1] + rng.uniform(0.4, 1.5)))
        assert abs(sum(c)) <= 1e-12 * max(abs(w) for w in c)


@pytest.mark.parametrize("p", range(1, 9))
def test_uniform_grid_equivalence(p):
    times = tuple(float(j) for j in range(p))
    var = coeff_variable(times, float(p))
    fix = coeff_fixed(p)
    assert np.max(np.abs(np.array(var) - np.array(fix))) <= 1e-12


@pytest.mark.parametrize("iterations, match", [
    (float("nan"), "not an integer"),
    (3.0, "not an integer"),
    ("3", "not an integer"),
    (None, "not an integer"),
    (0, "at least 1"),
    (-2, "at least 1"),
])
def test_solve_config_rejects_bad_iteration_budgets(iterations, match):
    # an iteration budget is an integer: nan fails no comparison, and 3.0
    # cannot size a range
    with pytest.raises(ValueError, match=match):
        ImplicitSolveConfig(max_iterations=iterations)


def test_solve_config_accepts_numpy_integers():
    assert ImplicitSolveConfig(max_iterations=np.int64(3)).max_iterations == 3
    with pytest.raises(ValueError, match="tol"):
        ImplicitSolveConfig(tol=float("nan"))


@pytest.mark.parametrize("times, states, match", [
    ((0.0, 1.0), ([1.0],), "equal length"),
    ((), (), "window length"),
    ((1.0, 0.5), ([1.0], [2.0]), "increasing"),
    ((0.0, 1.0), ([1.0], [2.0, 3.0]), "one shape"),
    ((0.0,), (np.eye(2),), "vector"),
])
def test_window_validation(times, states, match):
    with pytest.raises(ValueError, match=match):
        HistoryWindow(times, states)


def test_window_states_are_one_read_only_copy():
    y0 = np.array([1.0, 2.0])
    window = HistoryWindow((0.0, 1.0), (y0, (3.0, 4.0)))
    y0[0] = 9.0
    assert window.states.shape == (2, 2) and window.states.dtype == complex
    assert not window.states.flags.writeable
    assert np.array_equal(window.states, [[1.0, 2.0], [3.0, 4.0]])


def test_window_slope_is_a_checked_read_only_copy():
    slope = np.array([1.0, 2.0])
    window = HistoryWindow((0.0, 1.0), (np.zeros(2), np.ones(2)), slope)
    slope[0] = 9.0
    assert window.slope.dtype == complex and not window.slope.flags.writeable
    assert np.array_equal(window.slope, [1.0, 2.0])
    assert HistoryWindow((0.0,), (np.ones(2),)).slope is None
    with pytest.raises(ValueError, match="slope"):
        HistoryWindow((0.0,), (np.ones(2),), np.ones(3))


def test_window_jac_is_a_checked_read_only_copy():
    jac = -np.eye(2)
    window = HistoryWindow((0.0,), (np.ones(2),), jac=jac)
    jac[0, 0] = 9.0
    assert window.jac.dtype == complex and not window.jac.flags.writeable
    assert np.array_equal(window.jac, -np.eye(2))
    assert HistoryWindow((0.0,), (np.ones(2),)).jac is None
    with pytest.raises(ValueError, match="jac"):
        HistoryWindow((0.0,), (np.ones(2),), jac=np.ones(2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=st.integers(1, 8), complex_nodes=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_start_value_reproduces_polynomials(p, complex_nodes, seed):
    # states sampled from a polynomial of degree <= p at distinct nodes, with
    # its exact slope at the newest node: the p state weights and the slope
    # weight must return that polynomial at any target
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.2, 1.0, p)).astype(complex)
    if complex_nodes:
        times += 1j * rng.uniform(-0.5, 0.5, p)
    times = tuple(times)
    coeffs = rng.uniform(-1, 1, (p + 1, 2)) + 1j * rng.uniform(-1, 1, (p + 1, 2))

    def poly(t):
        return sum(c * (t - times[-1]) ** k for k, c in enumerate(coeffs))

    window = HistoryWindow(times, tuple(poly(t) for t in times), coeffs[1])
    h = rng.uniform(0.2, 1.0)
    for t in (times[-1] + h, times[-1] + h * complex(rng.uniform(0.2, 1.0), rng.uniform(-1, 1))):
        weights = predictor_weights(window.times, t)
        assert len(weights) == p + 1
        slope_term = weights[-1] * (t - window.times[-1]) * window.slope
        got = np.dot(weights[:-1], window.states) + slope_term
        expect = poly(t)
        scale = max(np.abs(expect).max(), np.abs(window.states).max(), np.abs(slope_term).max())
        assert np.abs(got - expect).max() <= 1e-10 * scale


def test_bdf_step_implicit_euler_linear():
    window = HistoryWindow((0.0,), (np.array([1.0 + 0j]),))
    y, _, _ = solve_from(lambda t, y: -y, window, 0.1, *step_weights(window, 0.1),
                      ImplicitSolveConfig(tol=1e-14))
    assert abs(y[0] - 1.0 / 1.1) < 1e-13


def test_bdf_step_two_point_linear():
    window = HistoryWindow((0.0, 0.1), (np.array([1.0 + 0j]), np.array([0.905 + 0j])))
    y, _, _ = solve_from(lambda t, y: -y, window, 0.1, *step_weights(window, 0.1),
                      ImplicitSolveConfig(tol=1e-14))
    expect = (2 * 0.905 - 0.5 * 1.0) / (1.5 + 0.1)
    assert abs(y[0] - expect) < 1e-13


def test_bdf_step_cubic_vs_bisection():
    # oracle: unique real root of y + 0.1 y^3 = 1 on [0, 1]
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + 0.1 * mid**3 < 1.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    window = HistoryWindow((0.0,), (np.array([1.0 + 0j]),))
    y, _, _ = solve_from(lambda t, y: -(y**3), window, 0.1, *step_weights(window, 0.1),
                      ImplicitSolveConfig(tol=1e-14))
    assert abs(y[0] - root) < 1e-12


def test_bdf_step_returns_state_and_keeps_window():
    window = HistoryWindow((0.0, 1.0), (np.array([1.0, 5.0]), np.array([2.0, 7.0])))
    states = window.states
    y, slope, _ = solve_from(lambda t, y: 0 * y, window, 1.0, *step_weights(window, 1.0))
    assert y.shape == (2,) and y.dtype == complex
    assert slope.shape == (2,) and slope.dtype == complex
    assert window.times == (0.0, 1.0) and window.states is states
    assert np.array_equal(window.states, [[1.0, 5.0], [2.0, 7.0]])


def test_bdf_step_residual_contract(rng):
    cfg = ImplicitSolveConfig(tol=1e-13)
    for p in (1, 3, 5):
        times = tuple(float(j) * 0.1 for j in range(p))
        states = tuple(np.array([np.exp(-t) + 0j]) for t in times)
        window = HistoryWindow(times, states)
        tau = 0.1
        y, _, _ = solve_from(lambda t, y: -y, window, tau, *step_weights(window, tau), cfg)
        c = coeff_variable(times, times[-1] + tau)
        res = c[0] * y + sum(
            c[i] * states[p - i] for i in range(1, p + 1)
        ) - tau * (-y)
        assert np.max(np.abs(res)) <= 10 * cfg.tol


def test_fixed_point_contraction_converges():
    # |lambda tau / g0| = 0.4: the sweep contracts too slowly and hands over
    # to Newton, which must still converge within the budget
    window = HistoryWindow((0.0, 0.5), (np.array([1.0 + 0j]), np.array([0.6 + 0j])))
    cfg = ImplicitSolveConfig(tol=1e-13, max_iterations=80)
    y, _, _ = solve_from(lambda t, y: -1.2 * y, window, 0.5, *step_weights(window, 0.5), cfg)
    assert np.isfinite(y).all()


def test_convergence_order_light():
    # exact-bootstrap global order on the cubic decay problem, small grid
    from cbdf.cli import global_error, integrate_fixed
    from cbdf.problems import builtin

    prob = builtin("cubic_decay")
    for p, band in ((1, 0.1), (2, 0.1)):
        errs = []
        for tau in (1 / 20, 1 / 40, 1 / 80, 1 / 160):
            n_total = round(1.0 / tau)
            errs.append(global_error(integrate_fixed(prob, "bdf", p, tau), p, n_total))
        slope = np.log(errs[-2] / errs[-1]) / np.log(2.0)
        assert abs(slope - p) <= band


def test_newton_solves_cubic(monkeypatch):
    # the sweep contracts by 0.27 and hands over to Newton, which factors once
    import cbdf.bdf_core

    factorizations = []

    def counted(a, b):
        factorizations.append(a)
        return solve_dense(a, b)

    monkeypatch.setattr(cbdf.bdf_core, "solve_dense", counted)
    window = HistoryWindow((0.0,), (np.array([1.0 + 0j]),))
    cfg = ImplicitSolveConfig(tol=1e-13, max_iterations=60)
    y, _, _ = solve_from(lambda t, y: -(y**3), window, 0.1, *step_weights(window, 0.1), cfg)
    assert abs(y[0] ** 3 * 0.1 + y[0] - 1.0) < 1e-11
    assert len(factorizations) == 1


def test_singular_jacobian():
    from cbdf.errors import SingularJacobian

    # rhs tuned so the residual is independent of the unknown: zero Jacobian
    window = HistoryWindow((0.0, 1.0), (np.array([1.0 + 0j]), np.array([2.0 + 0j])))
    g0 = coeff_fixed(2)[0]
    cfg = ImplicitSolveConfig(tol=1e-13, max_iterations=40)
    with pytest.raises(SingularJacobian):
        solve_from(lambda t, y: (g0 / 1.0) * y, window, 1.0, *step_weights(window, 1.0), cfg)


def test_stiff_rows_are_not_singular():
    # tau J = diag(-1e10, 0) makes M = diag(1 + 1e10, 1) regular, though its
    # inverse is large against its largest term: each row of M is judged
    # against its own terms; the step solves from no J and from the exact one
    lam = np.array([-1e10, 0.0])
    window = HistoryWindow((0.0,), (np.array([1.0, 2.0]),))
    expect = np.array([1.0 / (1.0 + 1e10), 2.0])
    weights = (coeff_fixed(1), predictor_weights((0.0,), 1.0))
    for w in (window, HistoryWindow(window.times, window.states, jac=np.diag(lam))):
        y, _, _ = solve_from(lambda t, y: lam * y, w, 1.0, *weights)
        assert np.abs(y - expect).max() <= 1e-13


def test_stale_kept_jacobian_is_rebuilt(monkeypatch):
    # a kept J at half the true one: the first two increments hardly shrink,
    # so Newton rebuilds J at its iterate, one more matrix, and the next
    # increments, made with the rebuilt J alone, meet tol
    import cbdf.bdf_core

    matrices = []

    def counted(a, b):
        matrices.append(a)
        return solve_dense(a, b)

    monkeypatch.setattr(cbdf.bdf_core, "solve_dense", counted)
    lam, tau = -1e3, 0.1
    cfg = ImplicitSolveConfig(tol=1e-10)
    weights = np.array(coeff_fixed(1)), np.array(predictor_weights((0.0,), tau))
    with np.errstate(all="ignore"):
        y, _, jac = implicit_solve(lambda t, y: lam * y, 0j, np.ones((1, 1), dtype=complex), None,
                                   np.array([[0.5 * lam + 0j]]), complex(tau), *weights, cfg)
    assert len(matrices) == 2
    assert abs(jac[0, 0] - lam) <= 1e-6 * abs(lam)
    assert abs(y[0] - 1.0 / (1.0 - tau * lam)) <= cfg.tol


def test_jacobian_built_in_the_solve_is_rebuilt_only_when_an_increment_grows():
    # implicit Euler on y' = -a y^3 from y = 2.9149: the sweep diverges, Newton
    # builds J at the predictor, and its first increments shrink by less than
    # a factor of a hundred on the way in; a J built in the solve is current,
    # so none of them rebuilds it, and the solve meets tol at the real root
    a, y0, tau, tol = 2.4787, 2.9149, 0.08597, 1.3e-7
    window = HistoryWindow((0.0,), (np.array([y0 + 0j]),))
    y, _, _ = solve_from(lambda t, y: -a * y**3, window, tau, coeff_fixed(1),
                         predictor_weights((0.0,), tau), ImplicitSolveConfig(tol=tol))
    # y + a tau y^3 = y0 is increasing in y, so its real root is unique
    root = max(r.real for r in np.roots([a * tau, 0.0, 1.0, -y0]) if abs(r.imag) < 1e-9)
    for _ in range(3):
        root -= (root + a * tau * root**3 - y0) / (1.0 + 3.0 * a * tau * root**2)
    assert abs(y[0] - root) <= tol


@pytest.mark.parametrize("scale", (1.0, 1.2, 1.5, 1.73))
def test_kept_jacobian_that_fails_is_retried_without_it(scale):
    # the solve of the test above, handed a kept J at 1-1.73 times the J at
    # the root: from the far predictor (-2.36) its increments shrink slowly,
    # so it spends its one rebuild far from the root and the next increment
    # grows; the solve then retries as a solve without a J, from the
    # predictor with J built there, and meets tol like the solve without one
    a, y0, tau, tol = 2.4787, 2.9149, 0.08597, 1.3e-7
    root = max(r.real for r in np.roots([a * tau, 0.0, 1.0, -y0]) if abs(r.imag) < 1e-9)
    for _ in range(3):
        root -= (root + a * tau * root**3 - y0) / (1.0 + 3.0 * a * tau * root**2)
    window = HistoryWindow((0.0,), (np.array([y0 + 0j]),), jac=[[-3.0 * a * root**2 * scale]])
    y, _, _ = solve_from(lambda t, y: -a * y**3, window, tau, coeff_fixed(1),
                         predictor_weights((0.0,), tau), ImplicitSolveConfig(tol=tol))
    assert abs(y[0] - root) <= tol


@pytest.mark.parametrize("tau", (0.0, -0.1, 0.5j, -0.1 + 0.2j, -0.0 - 1j))
def test_step_that_does_not_advance_time_is_refused(tau):
    window = HistoryWindow((0.0, 0.1), (np.array([1.0 + 0j]), np.array([0.9 + 0j])))
    with pytest.raises(ValueError, match="step must advance the real part of time"):
        solve_from(lambda t, y: -y, window, tau, coeff_fixed(2),
                   predictor_weights(window.times, window.times[-1] + 0.1))


def test_no_convergence_budget():
    from cbdf.errors import NoConvergence

    window = HistoryWindow((0.0,), (np.array([1.0 + 0j]),))
    cfg = ImplicitSolveConfig(tol=1e-13, max_iterations=1)
    with pytest.raises(NoConvergence):
        solve_from(lambda t, y: -(y**3) * 40.0, window, 0.9, *step_weights(window, 0.9), cfg)


def test_no_convergence_names_its_cause():
    # one Newton iteration on y' = -40 y^3 runs out of budget; the implicit
    # Euler step of y' = y^3 at tau = 0.6 solves y - 0.6 y^3 = 1, whose one
    # real root, -1.638, lies beyond the hump between it and the predictor
    # 1.6: Newton's increments shrink for four iterations, the fifth grows and
    # rebuilds J at 0.608, and the sixth, from 2.19, grows again
    from cbdf.errors import NoConvergence

    window = HistoryWindow((0.0,), (np.array([1.0 + 0j]),))
    cases = (
        (lambda t, y: -40.0 * y**3, 0.9, 1, r"iteration 1 of 1 .*budget ran out"),
        (lambda t, y: y**3, 0.6, 200, r"iteration 6 of 100 .*did not shrink after the Jacobian"),
    )
    for rhs, tau, iterations, cause in cases:
        cfg = ImplicitSolveConfig(max_iterations=iterations)
        with pytest.raises(NoConvergence, match=cause):
            solve_from(rhs, window, tau, coeff_fixed(1), predictor_weights((0.0,), tau), cfg)


def test_overflowing_sweep_warns_nothing():
    # a sweep at tau = 5e25 overflows cubing its iterate; under the errstate
    # a run holds, the overflowing sweep hands over to Newton quietly, and the
    # step fails with its own error, not with numpy's overflow warning
    from cbdf.errors import NoConvergence

    window = HistoryWindow((0.0,), (np.array([1.0 + 0j]),))
    tau = 5e25
    predictor = predictor_weights((0.0,), tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence):
            solve_from(lambda t, y: -(y**3), window, tau, coeff_fixed(1), predictor)


def test_failing_runs_raise_no_warnings():
    # y' = y^3 from y(0) = 1 is 1/sqrt(1 - 2t), infinite at t = 1/2; and
    # y' = -y^3 at tau = 5e25 overflows its first sweeps, as in
    # test_overflowing_sweep_warns_nothing. Both fixed-step schemes stop with
    # their own error, and the run's errstate keeps numpy's overflow
    # warnings from reaching the caller
    from cbdf.cli import integrate_fixed
    from cbdf.errors import NoConvergence
    from cbdf.problems import ODEProblem

    blow_up = ODEProblem(lambda t, y: y**3, 0.0, np.array([1.0]), 1.0,
                         lambda t: np.array([1.0 / np.sqrt(1.0 - 2.0 * t)]), "cubic_blow_up")
    far = ODEProblem(lambda t, y: -(y**3), 0.0, np.array([1.0]), 1e27,
                     lambda t: np.array([1.0 / np.sqrt(1.0 + 2.0 * t)]), "cubic_far")
    for prob, p, tau in ((blow_up, 2, 0.05), (far, 1, 5e25)):
        for scheme in ("bdf", "composed"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NoConvergence):
                    integrate_fixed(prob, scheme, p, tau)


def test_fixed_point_stays_in_contraction_regime(monkeypatch):
    # with |lambda*tau/g0| = 0.067 < 0.1 every sweep gains a digit, so the
    # plain sweep reaches the answer without Newton (counted through rhs
    # evaluations and factorizations)
    import cbdf.bdf_core

    def refuse(*args, **kwargs):
        raise AssertionError("newton factorized in the contraction regime")

    monkeypatch.setattr(cbdf.bdf_core, "solve_dense", refuse)
    calls = {"n": 0}

    def rhs(t, y):
        calls["n"] += 1
        return -0.2 * y

    window = HistoryWindow((0.0, 0.5), (np.array([1.0 + 0j]), np.array([0.6 + 0j])))
    cfg = ImplicitSolveConfig(tol=1e-13, max_iterations=100)
    y, _, _ = solve_from(rhs, window, 0.5, *step_weights(window, 0.5), cfg)
    c = coeff_variable((0.0, 0.5), 1.0)
    expect = -(c[1] * 0.6 + c[2] * 1.0) / (c[0] + 0.2 * 0.5)
    assert abs(y[0] - expect) < 1e-12
    assert calls["n"] < 50  # newton would need extra evaluations per sweep


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    p=st.integers(1, 8),
    log_ratio=st.floats(-3.0, 3.0),
    angle=st.floats(0.5 * np.pi, 1.5 * np.pi),
    seed=st.integers(0, 2**32 - 1),
    jac_scale=st.sampled_from([None, 1.0]) | st.floats(0.5, 2.0),
)
@example(p=4, log_ratio=-2.0, angle=np.pi, seed=0, jac_scale=None)  # |lambda tau/g0| < 0.1: sweep
@example(p=4, log_ratio=2.0, angle=0.6 * np.pi, seed=0, jac_scale=None)  # > 1: Newton
@example(p=4, log_ratio=2.0, angle=0.6 * np.pi, seed=0, jac_scale=1.0)  # Newton on the exact J
@example(p=4, log_ratio=2.0, angle=np.pi, seed=0, jac_scale=0.5)  # a stale J: rebuilt
@example(p=4, log_ratio=-2.0, angle=np.pi, seed=0, jac_scale=2.0)  # Newton, where a sweep would do
def test_bdf_step_linear_closed_form(p, log_ratio, angle, seed, jac_scale):
    # y' = lambda y makes the implicit equation linear: y = -hist/(g0 - tau lambda);
    # the window keeps no Jacobian, the exact one, or one scaled by jac_scale
    weights = coeff_fixed(p)
    g0 = weights[0].real
    z = g0 * 10.0**log_ratio * np.exp(1j * angle)  # tau*lambda with tau = 1
    rng = np.random.default_rng(seed)
    states = tuple(rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2) for _ in range(p))
    jac = None if jac_scale is None else jac_scale * z * np.eye(2)
    window = HistoryWindow(tuple(float(j) for j in range(p)), states, jac=jac)
    hist = sum(w * s for w, s in zip(weights[1:], reversed(states)))
    expect = -hist / (g0 - z)
    scale = np.abs(expect).max()
    cfg = ImplicitSolveConfig(tol=1e-14 * scale)
    predictor = predictor_weights(window.times, float(p))
    y, _, _ = solve_from(lambda t, y: z * y, window, 1.0, weights, predictor, cfg)
    assert np.abs(y - expect).max() <= 1e-12 * scale


def test_fixed_grid_never_reaches_newton(monkeypatch):
    # mirrors the benchmark's fixed-grid guard: no sub-step leaves the sweep
    import cbdf.bdf_core
    from cbdf.cli import integrate_fixed
    from cbdf.problems import builtin

    def refuse(*args, **kwargs):
        raise AssertionError("newton factorized on the fixed grid")

    monkeypatch.setattr(cbdf.bdf_core, "solve_dense", refuse)
    prob = builtin("cubic_decay")
    for scheme, orders in (("composed", (1, 2, 3, 4)), ("bdf", (2, 3, 4, 5))):
        for p in orders:
            assert integrate_fixed(prob, scheme, p, 1 / 160)


def test_composed_fixed_grid_rhs_budget(monkeypatch):
    # started from the degree-p predictor, the order-4 sweep needs about
    # three RHS calls per sub-step (six from the newest state); the order-1
    # sweep, over the benchmark's interval [0, 3], 4.55 (5.55 from a
    # constant predictor)
    import cbdf.composition
    from cbdf.cli import integrate_fixed
    from cbdf.problems import ODEProblem, builtin

    base = builtin("cubic_decay")
    calls = {"rhs": 0, "substeps": 0}

    def rhs(t, y):
        calls["rhs"] += 1
        return base.rhs(t, y)

    step = cbdf.composition.implicit_solve

    def counted(*args):
        calls["substeps"] += 1
        return step(*args)

    monkeypatch.setattr(cbdf.composition, "implicit_solve", counted)
    for p, t_end, bound in ((4, base.t_end, 4.0), (1, 3.0, 4.75)):
        prob = ODEProblem(rhs, base.t0, base.y0, t_end, base.exact, base.name)
        calls.update(rhs=0, substeps=0)
        assert integrate_fixed(prob, "composed", p, 1 / 160)
        assert calls["rhs"] <= bound * calls["substeps"], (p, calls)


def _count_slope_evaluations(monkeypatch, modules):
    """Patch ``implicit_solve`` in ``modules`` and return ``(rhs wrapper, counts)``.

    The wrapper counts RHS calls at the newest history node of the running
    solve: a solve only evaluates there when it is handed no slope, since
    every sweep and Newton call is at the new node.
    """
    counts = {"slope": 0, "rhs": 0}
    newest = [None]

    def watch(step):
        def watched(rhs, t_last, *args):
            newest[0] = t_last
            return step(rhs, t_last, *args)
        return watched

    for module in modules:
        monkeypatch.setattr(module, "implicit_solve", watch(module.implicit_solve))

    def wrap(fn):
        def rhs(t, y):
            counts["rhs"] += 1
            counts["slope"] += t == newest[0]
            return fn(t, y)
        return rhs

    return wrap, counts


def test_one_slope_evaluation_per_run(monkeypatch):
    # only the bootstrapped window lacks a slope: every later window, the
    # intermediate and the forwarded one, carries the slope of the sub-step
    # that built it
    import cbdf.cli
    import cbdf.composition
    from cbdf import adaptivity
    from cbdf.cli import integrate_fixed
    from cbdf.problems import ODEProblem, builtin

    wrap, counts = _count_slope_evaluations(monkeypatch, (cbdf.cli, cbdf.composition))
    for name, p in (("cubic_decay", 3), ("stiff_arctan", 4)):
        base = builtin(name)
        prob = ODEProblem(wrap(base.rhs), base.t0, base.y0, base.t_end, base.exact, base.name)
        for scheme in ("bdf", "composed"):
            counts.update(slope=0, rhs=0)
            assert integrate_fixed(prob, scheme, p, 1 / 40)
            assert counts["slope"] == 1 and counts["rhs"] > 100, (name, scheme, counts)
        counts.update(slope=0, rhs=0)
        rec = adaptivity.adaptive_drive(prob, p, 0.01, adaptivity.StepController(p=p, tol=1e-8))
        assert rec.times[-1] >= prob.t_end - 1e-12
        assert counts["slope"] == 1 and counts["rhs"] > 100, (name, counts)


def test_bdf_step_slope_is_the_rhs_at_the_solution(monkeypatch):
    # the sweep returns its last RHS value; Newton, which the sweep hands
    # over to on y' = -1000 y, returns (g0 y + hist) / tau
    import cbdf.bdf_core

    factorizations = []

    def counted(a, b):
        factorizations.append(a)
        return solve_dense(a, b)

    monkeypatch.setattr(cbdf.bdf_core, "solve_dense", counted)
    cubic = lambda t, y: -(y**3)
    stiff = lambda t, y: -1000.0 * y
    for rhs, newton in ((cubic, False), (stiff, True)):
        for p in (1, 3, 5):
            tau = 0.01
            times = tuple(j * tau for j in range(p))
            window = HistoryWindow(times, tuple(np.array([1.0 - 0.5 * t]) for t in times))
            factorizations.clear()
            y, slope, _ = solve_from(rhs, window, tau, *step_weights(window, tau))
            assert bool(factorizations) == newton
            expect = rhs(times[-1] + tau, y)
            assert np.abs(slope - expect).max() <= 1e-9 * np.abs(expect).max()


def test_window_without_slope_costs_one_rhs_call():
    # the same step from the same window, with and without its slope: one
    # more RHS call, the same state within the solve's tolerance
    cfg = ImplicitSolveConfig()
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return -(y**3)

    for p in (1, 2, 4):
        times = tuple(0.1 * j for j in range(p))
        states = tuple(np.array([1.0 / np.sqrt(1.0 + 2.0 * t)]) for t in times)
        bare = HistoryWindow(times, states)
        known = HistoryWindow(times, states, -(bare.states[-1] ** 3))
        counts, ys = [], []
        for window in (known, bare):
            calls[0] = 0
            y, _, _ = solve_from(rhs, window, 0.1, *step_weights(window, 0.1), cfg)
            counts.append(calls[0])
            ys.append(y)
        assert counts[1] == counts[0] + 1
        assert np.abs(ys[1] - ys[0]).max() <= cfg.tol


def test_production_paths_take_weights_from_their_caller(monkeypatch):
    # coeff_variable is the reference for the closed forms, not a step path
    import cbdf.bdf_core
    from cbdf import adaptivity, stability
    from cbdf.cli import integrate_fixed
    from cbdf.problems import builtin

    def refuse(*args, **kwargs):
        raise AssertionError("coeff_variable called on a production path")

    monkeypatch.setattr(cbdf.bdf_core, "coeff_variable", refuse)
    stability._uniform_stage_weights.cache_clear()  # rebuild its setup under the patch
    prob = builtin("cubic_decay")
    for scheme in ("bdf", "composed"):
        assert integrate_fixed(prob, scheme, 2, 0.1)
    rec = adaptivity.adaptive_drive(prob, 2, 0.05, adaptivity.StepController(p=2, tol=1e-6))
    assert rec.times[-1] >= prob.t_end - 1e-12
    assert stability.region_raster(3, (-2.0, 2.0, -2.0, 2.0), 4, 4).mask.any()
    assert 0.0 < adaptivity.min_ratio(3) < 1.0

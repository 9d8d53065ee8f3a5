"""The composed two-jump flow and its per-step constants."""
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cbdf import composition
from cbdf.bdf_core import (
    HistoryWindow,
    ImplicitSolveConfig,
    coeff_variable,
    g_closed_form,
    implicit_solve,
    predictor_weights,
)
from cbdf.composition import (
    G_coefficients,
    alpha1_polynomial,
    build_setup,
    composed_step,
    gbar_fixed,
    ratios_from_window,
    solve_alpha1,
)
from cbdf.errors import (
    DegenerateDenominator,
    NoAdmissibleRoot,
    NoConvergence,
    PoleEvaluation,
)
from cbdf.polyroot import find_roots, solve_dense
from conftest import (
    draw_alpha,
    draw_eps,
    draw_ratios,
    error_constant_at,
    setup_oracle,
    solve_from,
    stage2_system,
    step_weights,
)

PRINTED_ROOTS = {
    1: 0.5 + 0.5j,
    2: 0.4013648789516588 + 0.7409710153124752j,
    3: 0.3247753916537674 + 0.927940112670109j,
    4: 0.2675589068337956 + 1.088573443182903j,
}
# frozen oracle values: 60-digit direct summation of the error-constant
# formula with dense (LU) stage solves, uniform ratios
FROZEN_C = {
    1: 0.333333333333333333,
    2: 2.39925083870020795,
    3: -0.0277476732194392377,
}
FROZEN_C2_R16 = 1.40799414866017189  # p=2, ratios (0, 1.6)


def uniform_ratios(p):
    return tuple(float(j - 1) for j in range(1, p + 1))


def window_cubic(p, tau, t0=0.0):
    exact = lambda t: 1.0 / np.sqrt(1.0 + 2.0 * t)
    times = tuple(t0 + j * tau for j in range(p))
    return HistoryWindow(times, tuple(np.array([exact(t) + 0j]) for t in times))


def test_ratios_uniform():
    w = window_cubic(4, 0.5)
    assert np.allclose(ratios_from_window(w, 0.5), (0.0, 1.0, 2.0, 3.0), atol=1e-14)


def test_ratios_single_point():
    w = window_cubic(1, 0.25)
    assert ratios_from_window(w, 0.3) == (0.0,)


def test_ratios_arithmetic():
    w = HistoryWindow((0.0, 1.0), (np.array([1.0 + 0j]), np.array([1.0 + 0j])))
    assert np.allclose(ratios_from_window(w, 0.5), (0.0, 2.0), atol=1e-14)


def test_alpha1_polynomial_uniform_p2():
    poly = alpha1_polynomial((0.0, 1.0))
    ref = np.array([1.0, 1.0, -1.0, 3.0])
    assert np.max(np.abs(poly - ref)) < 1e-13


def test_alpha1_polynomial_generic_r2():
    r2 = 1.7
    poly = alpha1_polynomial((0.0, r2))
    ref = np.array([r2, r2**2 - 2 * r2 + 2, 3 * r2 - 4, 3.0])
    assert np.max(np.abs(poly - ref)) < 1e-13


def test_alpha1_polynomial_p1():
    poly = alpha1_polynomial((0.0,))
    got = poly / poly[-1] * 2.0
    assert np.max(np.abs(got - np.array([1.0, -2.0, 2.0]))) < 1e-13


@pytest.mark.parametrize("p,expect", sorted(PRINTED_ROOTS.items()))
def test_solve_alpha1_printed(p, expect):
    got = solve_alpha1(uniform_ratios(p))
    assert abs(got - expect) <= 1e-12


def test_solve_alpha1_ratio_independence_p1():
    assert abs(solve_alpha1((0.0,)) - (0.5 + 0.5j)) < 1e-13


def test_solve_alpha1_boundary():
    # at the first-step bound the admissible pair sits on the imaginary axis
    got = solve_alpha1((0.0, 1.0 / 0.4506))
    assert abs(got.real) < 2e-3


def test_solve_alpha1_no_admissible_root():
    with pytest.raises(NoAdmissibleRoot):
        solve_alpha1((0.0, 1.0 / 0.30))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_at_most_one_upper_right_root(p, seed):
    # what lets solve_alpha1 pick its root from the ratios alone
    roots = find_roots(alpha1_polynomial(draw_ratios(np.random.default_rng(seed), p)))
    assert sum(z.real > 0.0 and z.imag > 0.0 for z in roots) <= 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_fraction_equation_vanishes_at_the_root(p, seed):
    # the equation both Newton iterations solve vanishes at the selected
    # root, and its partials are its slopes
    r = draw_ratios(np.random.default_rng(seed), p)
    try:
        a = solve_alpha1(r)
    except NoAdmissibleRoot:
        assume(False)
    f = composition._fraction_equation
    F, Fa, Fs = f(a, r, 1.0)
    assert abs(F) <= 1e-12 * (1.0 + r[-1])
    h = 1e-6
    da = (f(a + h, r, 1.0)[0] - f(a - h, r, 1.0)[0]) / (2 * h)
    ds = (f(a, r, 1.0 + h)[0] - f(a, r, 1.0 - h)[0]) / (2 * h)
    assert abs(da - Fa) <= 1e-6 * (1.0 + abs(Fa))
    assert abs(ds - Fs) <= 1e-6 * (1.0 + abs(Fs))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_alpha1_polynomial_clears_the_fraction_equation(p, seed):
    # the companion matrix's polynomial is F(a; 1) times prod_{j>=2} (a + r_j)
    rng = np.random.default_rng(seed)
    r = draw_ratios(rng, p)
    a = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
    poly = alpha1_polynomial(r)
    got = np.polynomial.polynomial.polyval(a, poly)
    want = composition._fraction_equation(a, r, 1.0)[0] * np.prod([a + rv for rv in r[1:]])
    scale = np.polynomial.polynomial.polyval(abs(a), np.abs(poly))
    assert abs(got - want) <= 1e-12 * scale


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_solve_alpha1_matches_a_40_digit_root(p, seed):
    # whichever route found it, the fraction is F's root to the last bits
    mpmath = pytest.importorskip("mpmath")
    r = draw_ratios(np.random.default_rng(seed), p)
    try:
        a1 = solve_alpha1(r)
    except NoAdmissibleRoot:
        assume(False)
    with mpmath.workdps(40):
        c = [mpmath.mpf(rv) for rv in r]
        root = mpmath.findroot(
            lambda a: (1 - a) ** 2 * sum(a / (a + cj) for cj in c) + a * a + c[-1] * a,
            mpmath.mpc(a1))
        assert abs(a1 - complex(root)) <= 1e-15 * abs(a1)


def test_newton_root_gives_up_on_a_pole():
    # a start on a pole of F hands the ladder to the companion matrix
    assert composition._newton_root((0j, 1 + 0j), 0j) is None


def test_crossing_ratio_without_a_crossing_raises():
    # two coincident nodes leave F independent of s: Newton's system is singular
    with pytest.raises(NoConvergence, match="crossing"):
        composition.crossing_ratio([0.0, 0.0])


def _outcome(fn, r):
    """``fn(r)``, or the type of the exception it raised."""
    try:
        return fn(r)
    except Exception as exc:
        return type(exc)


def _companion_alpha1(r):
    # solve_alpha1 with its Newton iteration refused, so the companion rule picks
    with mock.patch.object(composition, "_newton_root", lambda r, z: None):
        return solve_alpha1(r)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_newton_root_is_the_companion_pick(p, seed):
    r = draw_ratios(np.random.default_rng(seed), p)
    want = _outcome(_companion_alpha1, r)
    got = _outcome(lambda v: build_setup(v).alpha1, r)
    if isinstance(want, type):
        assert got is want
    else:
        assert not isinstance(got, type), got
        assert abs(got - want) <= 1e-14 * abs(want)


def test_adaptive_run_solves_the_companion_matrix_once(monkeypatch):
    # every step's fraction comes from Newton's iteration; the companion
    # matrix is solved only for its start, the uniform ladder's root
    from cbdf.adaptivity import StepController, adaptive_drive
    from cbdf.problems import builtin

    calls = []

    def counted(coeffs):
        calls.append(len(coeffs))
        return find_roots(coeffs)

    monkeypatch.setattr(composition, "find_roots", counted)
    composition._uniform_root.cache_clear()
    rec = adaptive_drive(builtin("stiff_arctan"), 4, 0.01, StepController(p=4, tol=1e-10))
    assert len(rec.times) > 100
    assert calls == [6]


def test_complex_and_rootless_ladders_take_the_companion_matrix(monkeypatch):
    composition._uniform_root(2)  # Newton's start, solved before counting
    calls = []

    def counted(coeffs):
        calls.append(len(coeffs))
        return find_roots(coeffs)

    monkeypatch.setattr(composition, "find_roots", counted)
    # a complex ladder never starts Newton: the companion rule picks its root
    r = (0.0, 1.2 + 0.3j)
    upper = [z for z in find_roots(alpha1_polynomial(r)) if z.real > 0.0 and z.imag > 0.0]
    assert build_setup(r).alpha1 == max(upper, key=lambda z: z.real)
    assert len(calls) == 1
    # a real ladder past the first-step bound has no admissible root, and
    # the companion matrix raises the same error it always did
    with pytest.raises(NoAdmissibleRoot):
        solve_alpha1((0.0, 1.0 / 0.30))
    assert len(calls) == 2


def test_setup_error_constant_matches_dense_oracle(rng):
    ladders = [uniform_ratios(p) for p in range(1, 9)]
    ladders += [draw_ratios(rng, 1 + k % 8) for k in range(40)]
    checked = 0
    for r in ladders:
        try:
            s = build_setup(r)
        except NoAdmissibleRoot:
            continue
        assert s.alpha1 == solve_alpha1(r)
        want = error_constant_at(s.alpha1, r)
        assert abs(s.error_constant - want) <= 1e-8 * max(1.0, abs(want))
        checked += 1
    assert checked >= 30


def test_build_setup_keeps_the_ratios_it_was_given():
    # two ladders one ulp apart, as a fixed grid's accumulated times produce;
    # each setup is built from its own ratios, whatever was built before
    nearby = (0.0, 1.0000000000000002, 2.0000000000000004, 3.0000000000000004)
    for r in (uniform_ratios(4), nearby, uniform_ratios(4)):
        s = build_setup(r)
        assert s.alpha1 == solve_alpha1(r)


def test_build_setup_rejects_a_root_off_the_fraction_equation(monkeypatch):
    # a root one part in a million off leaves |G_(p+1)| and F(alpha1) near
    # 1e-6, above their 1e-9 bounds: the root solve failed, not the caller's
    # arguments. Past the G check, the residual check still catches it; the
    # true root passes both
    r = uniform_ratios(3)
    true = solve_alpha1(r)
    off = true * (1 + 1e-6)
    monkeypatch.setattr(composition, "_newton_root", lambda _r, _z: true)
    assert build_setup(r).alpha1 == true
    monkeypatch.setattr(composition, "_newton_root", lambda _r, _z: off)
    with pytest.raises(NoConvergence, match=r"G_\(p\+1\)"):
        build_setup(r)
    monkeypatch.setattr(composition, "_admissible_root",
                        lambda _r: (off, composition._stage_weights(off, _r)))
    with pytest.raises(NoConvergence, match="root condition") as err:
        build_setup(r)
    # F(alpha1) to first order in the offset
    F, Fa, _ = composition._fraction_equation(true, tuple(map(complex, r)), 1.0)
    assert float(str(err.value).split("= ")[1]) == pytest.approx(abs(Fa * (off - true)), rel=1e-3)


@pytest.mark.parametrize("ratios", [(0.0, float("nan"), 2.0), (0.0, float("inf")),
                                    (0.0, 1.0, -float("inf")), (1.0, 2.0), ()])
def test_build_setup_refuses_ratios_off_a_ladder_before_any_arithmetic(ratios):
    # a non-finite ratio once reached the cleared polynomial, whose numpy
    # warning escaped first under -W error; every ladder starts at r_1 = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite and start at 0"):
            build_setup(ratios)


@pytest.mark.parametrize("ratios,error", [
    ((0.0, 1.0, 1.0), DegenerateDenominator),  # coincident ratios
    ((0.0, 0.0, 2.0), DegenerateDenominator),  # r_2 = 0 coincides with the newest node
    ((0.0, -1.0, -2.0), DegenerateDenominator),  # a node at the step's end: w_2 = 0
    ((0.0, 1.0 / 0.30), NoAdmissibleRoot),  # past the first-step bound
])
def test_build_setup_raises_typed_errors(ratios, error):
    with pytest.raises(error):
        build_setup(ratios)


def test_build_setup_on_a_complex_ladder():
    got = build_setup((0.0, 1.0 + 0.2j, 2.0)).alpha1
    assert abs(got - (0.3098074339183327 + 0.9128193012802158j)) <= 1e-14


def test_setup_matches_a_50_digit_oracle():
    # every weight set within 4e-15 of its largest weight, the error
    # constant within 1e-9, against 50-digit dense solves and products at
    # the double root; g and G sum to zero within 4e-16 of their largest
    # weight
    rng = np.random.default_rng(27)
    ladders = [uniform_ratios(p) for p in range(1, 9)]
    ladders += [draw_ratios(rng, 1 + k % 8) for k in range(160)]
    checked = 0
    for r in ladders:
        try:
            s = build_setup(r)
        except (NoAdmissibleRoot, NoConvergence):
            continue
        sets, c = setup_oracle(s.alpha1, r)
        for got, want in zip((s.step1[0], s.step2[0], s.step1[1], s.step2[1]), sets):
            assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))
        assert abs(s.error_constant - c) <= 1e-9 * abs(c)
        # both weight sets close through their zero-sum rows
        for weights in (s.step1[0], s.step2[0]):
            assert abs(np.sum(weights)) <= 4e-16 * np.max(np.abs(weights))
        checked += 1
    assert checked >= 100


def test_G_trailing_weight_vanishes_at_root():
    for p in range(1, 7):
        r = uniform_ratios(p)
        a1 = solve_alpha1(r)
        assert abs(G_coefficients(a1, r)[-1]) <= 1e-9


def test_G_p1_matches_printed_closed_form():
    a1 = 0.5 + 0.5j
    assert abs(gbar_fixed(1, a1)) < 1e-14
    generic = 0.3 + 0.8j
    assert abs(G_coefficients(generic, (0.0,))[-1] - gbar_fixed(1, generic)) < 1e-13


def test_G_against_dense_solve_p3():
    a1 = 0.3 + 0.9j
    r = uniform_ratios(3)
    got = np.array(G_coefficients(a1, r))
    a, rhs = stage2_system(a1, r)
    ref = solve_dense(a, rhs)
    assert np.max(np.abs(got - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


def test_G_sum_zero(rng):
    for _ in range(30):
        p = int(rng.integers(1, 7))
        g = G_coefficients(draw_alpha(rng), draw_ratios(rng, p))
        assert abs(sum(g)) <= 1e-10 * max(1.0, max(abs(v) for v in g))


def test_gbar_printed_values():
    assert abs(gbar_fixed(1, 1.0 + 0j)) < 1e-14
    assert abs(gbar_fixed(2, PRINTED_ROOTS[2])) < 1e-12
    assert abs(gbar_fixed(4, PRINTED_ROOTS[4])) < 1e-12
    with pytest.raises(PoleEvaluation):
        gbar_fixed(1, 0.5 + 0j)


@pytest.mark.parametrize("p", sorted(FROZEN_C))
def test_error_constant_frozen(p):
    c = build_setup(uniform_ratios(p)).error_constant
    assert abs(c - FROZEN_C[p]) <= 1e-11 * max(1.0, abs(FROZEN_C[p]))


def test_error_constant_variable_frozen():
    r = (0.0, 1.6)
    c = build_setup(r).error_constant
    assert abs(c - FROZEN_C2_R16) <= 1e-11 * abs(FROZEN_C2_R16)


def test_error_constant_conjugation_flips_sign():
    r = uniform_ratios(3)
    s = build_setup(r)
    assert abs(s.error_constant + error_constant_at(s.alpha1.conjugate(), r)) < 1e-10


def test_error_constant_empirical_band():
    # local-error / imaginary-part ratio agrees with the constant to within
    # an order of magnitude (the estimate carries no stated validity range)
    p = 2
    c2 = build_setup(uniform_ratios(p)).error_constant
    exact = lambda t: 1.0 / np.sqrt(1.0 + 2.0 * t)
    tau = 0.0125
    window = window_cubic(p, tau)
    setup = build_setup(ratios_from_window(window, tau))
    _, out = composed_step(lambda t, y: -(y**3), window, tau, setup, ImplicitSolveConfig(tol=1e-15))
    t_n = p * tau
    ratio = (exact(t_n) - out.y_real[0]) / out.error_estimate_raw[0]
    assert abs(c2) / 10 <= abs(ratio) <= abs(c2) * 10


def test_composed_step_p1_closed_form():
    window = HistoryWindow((0.0,), (np.array([1.0 + 0j]),))
    setup = build_setup(ratios_from_window(window, 0.1))
    _, out = composed_step(lambda t, y: -y, window, 0.1, setup, ImplicitSolveConfig(tol=1e-15))
    assert abs(out.y_real[0] - 1.0 / 1.105) < 1e-12
    assert abs(out.error_estimate_raw[0]) < 1e-12


@pytest.mark.parametrize("tau", (0.0, -0.1))
def test_composed_step_that_does_not_advance_time_is_refused(tau):
    # the first sub-step, of alpha1 * tau with Re alpha1 > 0, does not advance
    window = window_cubic(2, 0.1)
    setup = build_setup(uniform_ratios(2))
    with pytest.raises(ValueError, match="step must advance the real part of time"):
        composed_step(lambda t, y: -(y**3), window, tau, setup)


def test_composed_step_forwards_real_window():
    window = window_cubic(2, 0.1)
    setup = build_setup(ratios_from_window(window, 0.1))
    new, out = composed_step(lambda t, y: -(y**3), window, 0.1, setup)
    assert new.times[-1] == pytest.approx(0.2)
    assert np.allclose(new.states[-1].imag, 0.0)
    assert np.array_equal(new.states[-1], out.y_real)


def test_composed_step_forwards_slopes():
    # the forwarded window carries Re f(t, y_hat), the real part of the
    # second sub-step's slope; on y' = -y^3 that is f(t, y_real) + 3 y_real e^2
    # with e the imaginary part, so it matches the slope of the real state
    # to 1e-9 at the benchmark's step and differs by exactly that term at a
    # coarse one
    rhs = lambda t, y: -(y**3)
    for p in (1, 2, 3, 4):
        for tau in (1 / 160, 0.05):
            window = window_cubic(p, tau)
            setup = build_setup(ratios_from_window(window, tau))
            new, out = composed_step(rhs, window, tau, setup)
            expect = rhs(new.times[-1], out.y_real)
            assert new.slope.shape == out.y_real.shape
            if tau < 0.01:
                assert np.abs(new.slope - expect).max() <= 1e-9 * np.abs(expect).max()
            else:
                # the sweep's slope is f at its previous iterate, within 1e-12 of y_hat
                term = 3.0 * out.y_real * out.error_estimate_raw**2
                assert np.abs(new.slope - expect - term).max() <= 1e-3 * np.abs(term).max() + 1e-12
            # a step from the forwarded window reads its slope: the same state
            # as from a copy without one, within the solve's tolerance
            _, again = composed_step(rhs, new, tau, setup)
            _, fresh = composed_step(rhs, HistoryWindow(new.times, new.states), tau, setup)
            assert np.abs(again.y_real - fresh.y_real).max() <= 1e-12


def test_composed_step_substep_nodes_and_forwarded_times():
    # the first sub-step solves at the intermediate node t + alpha1 tau, the
    # second at the real node t + tau, which the forwarded window ends at
    cubic = lambda t, y: -(y**3)
    calls = []

    def rhs(t, y):
        calls.append(t)
        return cubic(t, y)

    base = window_cubic(3, 0.1)
    window = HistoryWindow(base.times, base.states, cubic(base.times[-1], base.states[-1]))
    setup = build_setup(ratios_from_window(window, 0.1))
    new, _ = composed_step(rhs, window, 0.1, setup)
    t_last = window.times[-1]
    nodes = (t_last + setup.alpha1 * 0.1, t_last + 0.1)
    assert (calls[0], calls[-1]) == nodes and set(calls) == set(nodes)
    assert new.times == window.times[1:] + (nodes[1],)


def test_composed_step_is_two_bdf_steps():
    # bit for bit: the implicit solve with setup.step1 from the window, then
    # the one with setup.step2 from the history shifted by the intermediate
    # state, with that state's slope and the Jacobian the first solve
    # returned; the sweeps converge at tau = 1/160, while at tau = 0.05 a
    # window without a Jacobian hands over to Newton, which builds one for
    # the second sub-step
    rhs = lambda t, y: -(y**3)
    built = 0
    for p in (1, 2, 4):
        for tau, kept in ((1 / 160, False), (1 / 160, True), (0.05, False), (0.05, True)):
            window = window_cubic(p, tau)
            if kept:
                window = HistoryWindow(window.times, window.states,
                                       jac=-3.0 * window.states[-1:] ** 2)
            setup = build_setup(ratios_from_window(window, tau))
            new, out = composed_step(rhs, window, tau, setup)
            t_last = window.times[-1]
            t_half = t_last + setup.alpha1 * tau
            with np.errstate(all="ignore"):
                y_half, f_half, jac = implicit_solve(rhs, t_last, window.states, window.slope,
                                                     window.jac, setup.alpha1 * tau, *setup.step1)
                built += window.jac is None and jac is not None
                mid = np.vstack((window.states[1:], y_half))
                y_hat, f_hat, jac = implicit_solve(rhs, t_half, mid, f_half, jac,
                                                   (t_last + tau) - t_half, *setup.step2)
            assert np.array_equal(out.y_real, y_hat.real)
            assert np.array_equal(out.error_estimate_raw, y_hat.imag)
            assert np.array_equal(new.states, np.vstack((window.states[1:], y_hat.real)))
            assert np.array_equal(new.slope, f_hat.real)
            assert (new.jac is None) == (jac is None) and np.array_equal(new.jac, jac)
            if kept:
                assert new.jac is window.jac
    assert built


def test_composed_step_output_does_not_alias_the_window():
    window = window_cubic(2, 0.1)
    setup = build_setup(ratios_from_window(window, 0.1))
    new, out = composed_step(lambda t, y: -(y**3), window, 0.1, setup)
    kept = new.states.copy()
    out.y_real[:] = 7.0
    assert np.array_equal(new.states, kept)


def test_stepped_windows_are_read_only():
    rhs = lambda t, y: -(y**3)
    window = window_cubic(3, 0.1)
    setup = build_setup(ratios_from_window(window, 0.1))
    stepped, _ = composed_step(rhs, window, 0.1, setup)
    y, slope, _ = solve_from(rhs, window, 0.1, *step_weights(window, 0.1))
    shifted = window._shifted(window.times[-1] + 0.1, np.vstack((window.states[1:], y)), slope)
    for new in (stepped, shifted):
        for field in (new.states, new.slope):
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0] = 0.0
    assert slope.flags.writeable  # the caller's array is left as it was


def test_composed_step_rejects_setup_of_other_order():
    window = window_cubic(2, 0.1)
    with pytest.raises(ValueError, match="nodes"):
        composed_step(lambda t, y: -(y**3), window, 0.1, build_setup(uniform_ratios(3)))


def test_composed_step_local_order():
    # one-step error from exact history decays at order p + 2 for p = 2;
    # the finest-pair slope on this grid measures 3.81, drifting toward 4
    exact = lambda t: 1.0 / np.sqrt(1.0 + 2.0 * t)
    errs = []
    taus = (0.1, 0.05, 0.025, 0.0125)
    for tau in taus:
        window = window_cubic(2, tau)
        setup = build_setup(ratios_from_window(window, tau))
        _, out = composed_step(lambda t, y: -(y**3), window, tau, setup, ImplicitSolveConfig(tol=1e-15))
        errs.append(abs(exact(2 * tau) - out.y_real[0]))
    slope = np.log(errs[-2] / errs[-1]) / np.log(2.0)
    assert abs(slope - 4.0) < 0.35
    assert all(a > b for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_global_order_on_a_variable_mesh(p):
    # on t_n = phi(n/N) the steps vary between 0.7 and 1.3 of their mean, so
    # every step builds its own setup; the global error keeps order p + 1
    exact = lambda t: 1.0 / np.sqrt(1.0 + 2.0 * t)
    phi = lambda x: x + 0.3 * np.sin(2 * np.pi * x) / (2 * np.pi)
    errs = []
    for n_steps in (80, 160):
        mesh = [phi(n / n_steps) for n in range(n_steps + 1)]
        window = HistoryWindow(tuple(mesh[:p]), tuple([exact(t)] for t in mesh[:p]))
        for n in range(p, n_steps + 1):
            tau = mesh[n] - mesh[n - 1]
            window, out = composed_step(lambda t, y: -(y**3), window, tau,
                                        build_setup(ratios_from_window(window, tau)))
        errs.append(abs(exact(mesh[-1]) - out.y_real[0]))
    slope = np.log2(errs[0] / errs[1])
    assert abs(slope - (p + 1)) <= 0.15


def test_conjugate_branch_conjugates_output():
    p, tau = 2, 0.1
    window = window_cubic(p, tau)
    rhs = lambda t, y: -(y**3)
    cfg = ImplicitSolveConfig(tol=1e-15)
    a1 = solve_alpha1(uniform_ratios(p))
    out = {}
    for branch, a in (("plus", a1), ("minus", a1.conjugate())):
        y_mid, _, _ = solve_from(rhs, window, a * tau, *step_weights(window, a * tau), cfg)
        mid = HistoryWindow(window.times[1:] + (window.times[-1] + a * tau,),
                            (*window.states[1:], y_mid))
        tau2 = (window.times[-1] + tau) - mid.times[-1]
        y_hat, _, _ = solve_from(rhs, mid, tau2, *step_weights(mid, tau2), cfg)
        out[branch] = y_hat[0]
    assert abs(out["plus"] - out["minus"].conjugate()) < 1e-12
    assert abs(out["plus"].real - out["minus"].real) < 1e-12


@pytest.mark.parametrize("p", range(1, 9))
def test_composed_step_matches_reference_substeps(rng, p):
    # the setup's weight sets drive the same two sub-steps as weights built
    # by divided differences on each sub-step's own nodes
    exact = lambda t: 1.0 / np.sqrt(1.0 + 2.0 * t)
    rhs = lambda t, y: -(y**3)
    cfg = ImplicitSolveConfig(tol=1e-15)
    tau = 0.05
    checked = 0
    for _ in range(20):
        times = tuple(1.0 - rv * tau for rv in reversed(draw_ratios(rng, p)))
        window = HistoryWindow(times, tuple(np.array([exact(t) + 0j]) for t in times))
        try:
            setup = build_setup(ratios_from_window(window, tau))
        except NoAdmissibleRoot:
            continue
        _, out = composed_step(rhs, window, tau, setup, cfg)
        tau1 = setup.alpha1 * tau
        y_half, _, _ = solve_from(rhs, window, tau1, *step_weights(window, tau1), cfg)
        mid = HistoryWindow(window.times[1:] + (window.times[-1] + tau1,),
                            (*window.states[1:], y_half))
        tau2 = (window.times[-1] + tau) - mid.times[-1]
        y_hat, _, _ = solve_from(rhs, mid, tau2, *step_weights(mid, tau2), cfg)
        composed = out.y_real + 1j * out.error_estimate_raw
        assert np.max(np.abs(composed - y_hat)) <= 1e-12 * np.max(np.abs(y_hat))
        checked += 1
    assert checked >= 5


def test_offset_power_product_identity(rng):
    # sum eps_j^{p+1} g_j = (-1)^p prod eps_j
    for p in range(1, 7):
        for _ in range(100):
            eps = draw_eps(rng, p)
            g = g_closed_form(eps)
            terms = [e ** (p + 1) * gj for e, gj in zip(eps, g[1:])]
            lhs = sum(terms)
            rhs = (-1) ** p * np.prod(np.array(eps))
            scale = max(1.0, sum(abs(t) for t in terms))
            assert abs(lhs - rhs) <= 1e-10 * scale


def test_moment_transport_identities(rng):
    # for j <= p the shifted moments collapse to powers of the leading offset;
    # at j = p + 1 the product correction appears
    for p in range(1, 7):
        for _ in range(40):
            a1 = draw_alpha(rng)
            r = np.array(draw_ratios(rng, p))
            eps = 1.0 + r / a1
            g = g_closed_form(tuple(eps))
            g0 = g[0]
            eb0 = 1.0 - a1
            ebar = 1.0 + r
            for j in range(1, p + 1):
                terms = [ebar[i - 1] ** j * g[i] for i in range(1, p + 1)]
                lhs = -sum(terms)
                rhs = eb0 ** (j - 1) * (j * a1 + eb0 * g0)
                scale = max(1.0, sum(abs(t) for t in terms))
                assert abs(lhs - rhs) <= 1e-10 * scale
            terms = [ebar[i - 1] ** (p + 1) * g[i] for i in range(1, p + 1)]
            lhs = -sum(terms)
            rhs = eb0**p * ((p + 1) * a1 + eb0 * g0) + (-1) ** (p + 1) * a1 ** (
                p + 1
            ) * np.prod(eps)
            scale = max(1.0, sum(abs(t) for t in terms))
            assert abs(lhs - rhs) <= 1e-10 * scale


def test_stage_equivalence(rng):
    # the setup's first-stage weights equal the variable-step weights of the
    # first sub-step, and its second-stage weights those of the shifted
    # window, when the sub-step fraction solves its equation
    for p in range(1, 9):
        for _ in range(20):
            r = draw_ratios(rng, p)
            try:
                s = build_setup(r)
            except NoAdmissibleRoot:
                continue
            times = tuple(-rv for rv in reversed(r))  # t_last = 0, tau = 1
            first = coeff_variable(times, s.alpha1)
            # the second window's newest node is the intermediate one
            second = coeff_variable(times[1:] + (s.alpha1,), 1.0)
            for (got, _), ref in ((s.step1, first), (s.step2, second)):
                assert len(got) == len(ref) == p + 1
                scale = max(1.0, max(abs(v) for v in ref))
                assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-9 * scale
            # the predictor weights, built in units of the step, are those
            # of the sub-steps' own nodes on a shifted and scaled time axis
            t0, tau = 2.5, 0.03
            real = tuple(t0 + tau * t for t in times)
            mid = t0 + tau * s.alpha1
            for (_, got), nodes, target in ((s.step1, real, mid),
                                            (s.step2, real[1:] + (mid,), t0 + tau)):
                ref = predictor_weights(nodes, target)
                assert len(got) == len(ref) == p + 1
                scale = max(abs(v) for v in ref)
                assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-9 * scale
                # the slope weight times the sub-step is the Hermite slope
                # weight on the real axis, prod_k (t - t_k) / prod_{k<p} (t_p - t_k)
                h = target - nodes[-1]
                hermite = (np.prod([target - t for t in nodes])
                           / np.prod([nodes[-1] - t for t in nodes[:-1]]))
                assert abs(got[-1] * h - hermite) <= 1e-9 * max(1.0, abs(hermite)) * abs(h)


def test_root_condition_equivalence(rng):
    # every root of the cleared polynomial zeroes the fraction condition,
    # and the selected fraction zeroes the polynomial
    from cbdf.polyroot import find_roots

    for p in range(1, 7):
        for _ in range(10):
            r = draw_ratios(rng, p)
            poly = alpha1_polynomial(r)
            scale = np.max(np.abs(poly))
            for z in find_roots(poly):
                if min(abs(z + rv) for rv in r) < 1e-8 or abs(z) < 1e-8:
                    continue  # cleared-denominator poles
                eps_p = 1.0 + r[-1] / z
                g0 = sum(z / (z + rv) for rv in r)
                cond = eps_p * z**2 + g0 * (1.0 - z) ** 2
                assert abs(cond) <= 1e-9 * max(1.0, abs(eps_p * z**2))
            try:
                a1 = solve_alpha1(r)
            except NoAdmissibleRoot:
                continue
            assert abs(np.polynomial.polynomial.polyval(a1, poly)) <= 1e-9 * scale


def test_setup_invariants(rng):
    for p in range(1, 7):
        r = uniform_ratios(p)
        s = build_setup(r)
        eps_p = 1.0 + r[-1] / s.alpha1
        assert abs(eps_p * s.alpha1**2 + s.step1[0][0] * (1.0 - s.alpha1) ** 2) <= 1e-9
        assert s.alpha1.real > 0
        G = G_coefficients(s.alpha1, r)
        assert np.array_equal(s.step2[0], G[: p + 1])
        assert abs(sum(G)) <= 1e-10
        assert abs(G[-1]) <= 1e-9


def test_degenerate_denominator():
    from cbdf.errors import DegenerateDenominator

    # Ebar0 * g0 - alpha1 vanishes at alpha1 = 1/2 for the one-point window
    with pytest.raises(DegenerateDenominator):
        G_coefficients(0.5 + 0j, (0.0,))


def test_vanishing_first_stage_offset():
    from cbdf.errors import DuplicateEps

    # alpha1 = -r_2 puts the first sub-step's end on a node: eps_2 = 0
    with pytest.raises(DuplicateEps):
        G_coefficients(1.0 + 0j, (0.0, -1.0))


def test_degenerate_imaginary_part():
    from cbdf.errors import DegenerateImaginaryPart

    # a real fraction makes every stage weight real: no imaginary part to scale
    with pytest.raises(DegenerateImaginaryPart):
        error_constant_at(0.3 + 0j, (0.0,))

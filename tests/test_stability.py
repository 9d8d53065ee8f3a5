"""Stability polynomial, region rasters, and sector angles."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cbdf import stability
from cbdf.adaptivity import ratio_clamp
from cbdf.bdf_core import coeff_fixed, coeff_variable, implicit_solve, predictor_weights
from cbdf.cli import fixed_states
from cbdf.composition import build_setup, composed_solve, ratios_from_times, solve_alpha1
from cbdf.errors import EmptySector, NoAdmissibleRoot
from cbdf.problems import bootstrap, builtin
from cbdf.stability import (
    _BLOCK,
    _char_coeffs,
    _stable_mask,
    _workspace,
    region_raster,
    region_to_csv,
    region_to_pbm,
    stability_angle,
    theta_coefficients,
)
from conftest import draw_ratios, schur_cohn_reference, stable_mask_reference


def _stable_at(order, z, scheme="composed"):
    return _stable_mask(_char_coeffs(order, np.array([z]), scheme))[0]


def _as_rows(coeffs):
    """Row-major descending [N, k + 1] copy of coefficient-major ascending coefficients."""
    return coeffs[::-1].T.copy()


def _cell_centers(bounds, nx, ny):
    """The raveled z of a raster's cell centers, bit for bit and in the order of
    ``region_raster``, which divides each span before it scales it."""
    xs = bounds[0] + (np.arange(nx) + 0.5) * ((bounds[1] - bounds[0]) / nx)
    ys = bounds[2] + (np.arange(ny) + 0.5) * ((bounds[3] - bounds[2]) / ny)
    return (xs[:, None] + 1j * ys[None, :]).ravel()


@pytest.mark.parametrize("p", range(1, 9))
def test_theta_consistency_at_origin(p):
    assert abs(sum(theta_coefficients(p, 0.0))) <= 1e-10


@pytest.mark.parametrize("z", [np.array([1.0, 2.0]), np.array([1.0]), [0.5], np.zeros((1, 1))])
def test_theta_rejects_non_scalar_z(z):
    with pytest.raises(ValueError, match="z must be a scalar"):
        theta_coefficients(2, z)


def test_theta_accepts_numpy_scalars():
    want = theta_coefficients(3, -0.7 + 0.3j)
    assert theta_coefficients(3, np.complex128(-0.7 + 0.3j)) == want
    assert theta_coefficients(3, np.array(-0.7 + 0.3j)) == want


def test_theta_against_direct_assembly():
    # oracle: assemble both stage weight sets with coeff_variable and multiply
    for p, z in ((1, -1.0), (3, -0.7 + 0.3j)):
        a1 = solve_alpha1(tuple(float(j - 1) for j in range(1, p + 1)))
        hist = tuple(float(j) for j in range(p))
        g = coeff_variable(hist, (p - 1) + a1)
        gk = coeff_variable(hist[1:] + ((p - 1) + a1,), float(p))
        lead = a1 * z - g[0]
        ref = [lead * (gk[0] - (1 - a1) * z)]
        for i in range(1, p):
            ref.append(gk[1] * g[i] + lead * gk[i + 1])
        ref.append(gk[1] * g[p])
        got = theta_coefficients(p, z)
        scale = max(abs(v) for v in ref)
        assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-10 * scale


def test_positive_axis_instability_lens():
    # derived truth: the order-3 composed flow loses root containment on a
    # bounded lens near the positive real axis, and regains it beyond
    from cbdf.polyroot import find_roots

    th = theta_coefficients(2, 10.0)
    roots = find_roots(tuple(reversed(th)))
    assert len(roots) == 2
    assert _stable_at(3, 10.0)
    assert not _stable_at(3, 1.0)


def test_is_stable_origin_and_axis():
    assert _stable_at(3, 0.0)
    assert _stable_at(3, -1.0)
    assert _stable_at(2, -1.0, scheme="bdf")


def test_composed8_off_axis_point():
    # far outside the narrow stable sector on the upper side
    assert not _stable_at(8, -1.0 + 10.0j)


_SCHEME_ORDERS = st.one_of(
    st.tuples(st.just("composed"), st.integers(2, 9)),
    st.tuples(st.just("bdf"), st.integers(1, 6)),
)
# z drawn in polar form, log-uniform radius over [1e-3, 1e3]
_Z = st.builds(
    lambda r, th: 10.0**r * complex(math.cos(th), math.sin(th)),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 2.0 * math.pi),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scheme_order=_SCHEME_ORDERS, z=_Z)
def test_stable_mask_matches_root_oracle(scheme_order, z):
    scheme, order = scheme_order
    coeffs = _char_coeffs(order, np.array([z]), scheme)
    # a leading coefficient below 1e-13 of the largest one is tested below
    assume(abs(coeffs[-1, 0]) > 1e-13 * np.max(np.abs(coeffs)))
    biggest = np.max(np.abs(np.roots(coeffs[::-1, 0])))
    assume(abs(biggest - (1.0 + 1e-9)) > 1e-7)
    assert _stable_mask(coeffs)[0] == (biggest <= 1.0 + 1e-9)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(scheme_order=_SCHEME_ORDERS, z=_Z, rel=st.sampled_from((0.0, 1e-320, 1e-16, 1e-14)))
def test_stable_mask_vanishing_leading_is_unstable(scheme_order, z, rel):
    scheme, order = scheme_order
    coeffs = _char_coeffs(order, np.array([z]), scheme)
    coeffs[-1, 0] = rel * np.max(np.abs(coeffs))
    assert not _stable_mask(coeffs)[0]


def test_stable_mask_nonfinite_rows_unstable():
    # composed order 3 has degree 2: descending index j is ascending row 2 - j
    coeffs = _char_coeffs(3, np.array([-1.0, -1.0, -1.0, -1.0]), "composed")
    coeffs[1, 1] = np.nan
    coeffs[2, 2] = np.inf
    coeffs[0, 3] = complex(0.0, np.inf)
    assert _stable_mask(coeffs).tolist() == [True, False, False, False]


# points of a batch: z, what is done to its coefficients, which coefficient
# (descending index, mod the degree + 1) goes non-finite, and the size of a
# vanishing leading coefficient relative to the largest
_POINTS = st.lists(
    st.tuples(
        _Z,
        st.sampled_from(("regular", "vanishing", "nan", "inf")),
        st.integers(0, 9),
        st.sampled_from((0.0, 1e-320, 1e-16, 1e-14)),
    ),
    min_size=1,
    max_size=64,
)


def _batch(scheme, order, points):
    """Coefficients at the points' z, with each point's drawn change applied."""
    coeffs = _char_coeffs(order, np.array([z for z, _, _, _ in points]), scheme)
    n = len(coeffs) - 1
    for col, (_, kind, j, rel) in zip(coeffs.T, points):
        if kind == "vanishing":
            col[n] = rel * np.max(np.abs(col))
        elif kind != "regular":
            col[n - j % (n + 1)] = complex(np.nan if kind == "nan" else np.inf)
    return coeffs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scheme_order=_SCHEME_ORDERS, points=_POINTS)
def test_stable_mask_batch_equals_rows_alone(scheme_order, points):
    # the coefficient-major layout must not couple the points of a batch
    scheme, order = scheme_order
    coeffs = _batch(scheme, order, points)
    alone = [_stable_mask(coeffs[:, i : i + 1].copy())[0] for i in range(len(points))]
    assert _stable_mask(coeffs).tolist() == alone


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scheme_order=_SCHEME_ORDERS, points=_POINTS)
def test_stable_mask_equals_row_major_reference(scheme_order, points):
    # bit for bit the mask of the earlier row-major kernel, which copies its
    # input, compresses it and allocates every pass afresh
    scheme, order = scheme_order
    coeffs = _batch(scheme, order, points)
    want = stable_mask_reference(_as_rows(coeffs))
    assert np.array_equal(_stable_mask(coeffs), want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scheme_order=_SCHEME_ORDERS, points=_POINTS, extra=st.integers(0, 5))
def test_schur_cohn_passes_keep_their_operand_order(scheme_order, points, extra):
    # the last pass's coefficients, read from the caller's buffers, are bit for
    # bit those of the recursion that made its own arrays: a product in another
    # operand order, such as np.multiply(t, a0), rounds differently under FMA.
    # The batch sits in the front of wider buffers, as a raster's last block
    # does, and the buffers start out as nan and False.
    scheme, order = scheme_order
    coeffs = _batch(scheme, order, points)
    want, want_final = schur_cohn_reference(coeffs)
    n, size = len(coeffs) - 1, coeffs.shape[1]
    buf = np.full((n + 1, size + extra), complex(np.nan))
    buf[:, :size] = coeffs
    work = _workspace(n, size + extra)
    for b in work[:3]:
        b.fill(np.nan)
    work[3].fill(False)
    assert np.array_equal(_stable_mask(buf[:, :size], work), want)
    final = (buf if n % 2 == 0 else work[1])[:1, : want_final.shape[1]]
    assert final.tobytes() == want_final.tobytes()


@pytest.mark.parametrize(
    "scheme,order", [("composed", o) for o in range(2, 10)] + [("bdf", o) for o in range(1, 7)]
)
def test_raster_equals_row_major_reference(scheme, order):
    # several blocks, the last one partial, against one reference pass over every point
    bounds, nx, ny = (-9.0, 3.0, -7.0, 8.0), 97, 131
    assert nx * ny > 2 * _BLOCK and nx * ny % _BLOCK
    z = _cell_centers(bounds, nx, ny)
    want = stable_mask_reference(_as_rows(_char_coeffs(order, z, scheme))).reshape(nx, ny)
    assert want.any() and not want.all()
    assert np.array_equal(region_raster(order, bounds, nx, ny, scheme=scheme).mask, want)


# stable, stiff and unstable points, criterion 6's sliver 1.275i among them
_RECURRENCE_Z = (-3.0, -0.5 + 0.2j, 0.3j, 1.275j, -0.521 - 2.954j, -20.0 + 5.0j, -1e3, 0.1,
                 2.0 + 1.0j)


def _recurrence_error(a, states, y_hat):
    """|y_hat + sum_i a[p-i] y_(n+1-i) / a[p]| relative to the history ``states``,
    oldest first, with ``a`` the ascending characteristic coefficients at one z."""
    return np.max(np.abs(y_hat + (a[:-1] @ states) / a[-1])) / np.max(np.abs(states))


def _complex_history(rng, p):
    return rng.standard_normal((p, 2)) + 1j * rng.standard_normal((p, 2))


@pytest.mark.parametrize("z", _RECURRENCE_Z)
def test_stability_recurrence_is_the_composed_step(z, rng):
    # one composed step on y' = z y at tau = 1 from a complex uniform history
    # follows the characteristic recurrence; the integrator forwards Re y_hat
    for p in range(1, 9):
        states = _complex_history(rng, p)
        rows = np.vstack((states, states[-1:]))
        with np.errstate(all="ignore"):
            setup = build_setup(tuple(map(float, range(p))))
            y_hat, _, _ = composed_solve(lambda t, y: z * y, complex(p - 1), rows, None, None,
                                         1.0, setup.alpha1, setup.stages)
        a = _char_coeffs(p + 1, np.array([z]), "composed")[:, 0]
        assert _recurrence_error(a, states, y_hat) <= 1e-12
        assert np.array_equal(rows[-1], y_hat.real)


def _geometric_ladder(p, q):
    """r_1 = 0 and r_j = q + .. + q^(j-1): each older gap q times the next newer,
    in units of the upcoming step."""
    return tuple(sum(q**k for k in range(1, j + 1)) for j in range(p))


def _ladder_setups(rng, p):
    """Setups on the random ladders of four draws that have an admissible root (past
    the first-step bound some have none), on steps shrinking at the ratio clamp and on
    steps growing by 1.5 each."""
    setups = [build_setup(_geometric_ladder(p, q)) for q in (ratio_clamp(p), 1.0 / 1.5)]
    for _ in range(4):
        try:
            setups.append(build_setup(draw_ratios(rng, p)))
        except NoAdmissibleRoot:
            pass
    return setups


@pytest.mark.parametrize("z", _RECURRENCE_Z)
def test_stability_recurrence_is_the_composed_step_on_any_ladder(z, rng):
    # the setup's own polynomial is the map its step makes on non-uniform
    # ladders too, not only on the uniform one stability analyses
    steps = 0
    for p in range(1, 9):
        for setup in _ladder_setups(rng, p):
            states = _complex_history(rng, p)
            rows = np.vstack((states, states[-1:]))
            with np.errstate(all="ignore"):
                y_hat, _, _ = composed_solve(lambda t, y: z * y, 0.0, rows, None, None, 1.0,
                                             setup.alpha1, setup.stages)
            a = setup.recurrence([z])[:, 0]
            c = -a[:-1] / a[-1]  # the map y_(n+1) = sum_j c_j y_(n+1-p+j), oldest first
            # to 1e-12 of the terms' size: steps growing by 1.5 at p = 7, 8 amplify
            # the history up to 1e4-fold, and the step sits up to 1.7e-11 from the
            # map relative to the history's size, 1.0e-14 relative to the terms'
            assert np.max(np.abs(y_hat - c @ states)) <= 1e-12 * np.max(np.abs(c) @ np.abs(states))
            steps += 1
    assert steps >= 32  # the 16 geometric ladders, and 20 of 32 random ones here


@pytest.mark.parametrize("tau", [0.01, 0.02])
@pytest.mark.parametrize("p", [3, 4, 5])
def test_global_error_follows_the_real_forwarded_recurrence(p, tau):
    # stiff_arctan is y' = -50 (y - arctan(20 t)): a run's global error e obeys
    # e_(n+1) = sum_j -Re(a[j] / a[p]) e_(n+1-p+j) + LTE_n, with a the recurrence of the
    # run's own setup at z = -50 tau and LTE_n the step from exact history against the
    # exact solution; this ties composed_solve, recurrence and Re forwarding together
    prob = builtin("stiff_arctan")
    window = bootstrap(prob, p, tau)
    setup = build_setup(ratios_from_times(window.times, tau))
    a = setup.recurrence([-50.0 * tau])[:, 0]
    c = -(a[:-1] / a[-1]).real  # the weights of y_(n+1-p)..y_n, oldest first
    run_times, states = fixed_states(prob, "composed", p, tau)
    times = [t.real for t in window.times] + run_times
    exact = np.array([prob.exact(t)[0] for t in times])
    e = np.concatenate((np.zeros(p), states.real[:, 0] - exact[p:]))
    jac = np.array([[-50.0 + 0j]])
    worst = 0.0
    for n in range(p - 1, len(times) - 1):
        rows = np.zeros((p + 1, 1), dtype=complex)
        rows[:p, 0] = exact[n + 1 - p:n + 1]
        with np.errstate(all="ignore"):
            y_hat, _, _ = composed_solve(prob.rhs, complex(times[n]), rows, None, jac, tau,
                                         setup.alpha1, setup.stages)
        lte = y_hat.real[0] - exact[n + 1]
        worst = max(worst, abs(e[n + 1] - c @ e[n + 1 - p:n + 1] - lte))
    assert np.max(np.abs(e)) > 1e-5  # the identity is tested on errors well above roundoff
    assert worst <= 1e-13


def _hand_expansion(setup, z):
    """The composed polynomial expanded term by term from ``.tolist()`` weights, in the
    operand order the pinned masks, angles and bounds were computed with: numpy's
    complex product of two arrays rounds by operand order."""
    p, a1 = setup.p, setup.alpha1
    g, Gk = (weights.tolist() for weights, _ in setup.stages)
    a = np.empty((p + 1, z.size), dtype=complex)
    lead = a1 * z - g[0]
    np.multiply(lead, Gk[0] - (1.0 - a1) * z, out=a[p])
    for i in range(1, p):
        np.multiply(lead, Gk[i + 1], out=a[p - i])
        a[p - i] += Gk[1] * g[i]
    a[0] = Gk[1] * g[p]
    return a


def test_recurrence_keeps_the_hand_expansions_bits():
    # the benchmark's 201^2 raster window over [-8, 8]^2, and the locus fit points
    c = -8.0 + (np.arange(201) + 0.5) * 16.0 / 201
    raster = (c[:, None] + 1j * c[None, :]).ravel()
    for p in range(1, 9):
        setup = build_setup(tuple(map(float, range(p))))
        for z in (raster, np.array([0.0, 1.0, -1.0], dtype=complex)):
            assert np.array_equal(setup.recurrence(z), _hand_expansion(setup, z))
            assert np.array_equal(_char_coeffs(p + 1, z, "composed"), _hand_expansion(setup, z))


def test_coefficients_write_into_out():
    # a raster's last block writes into the front of its block's buffer
    z = _cell_centers((-8.0, 8.0, -8.0, 8.0), 9, 7)
    for scheme, order in (("composed", 2), ("composed", 9), ("bdf", 1), ("bdf", 6)):
        want = _char_coeffs(order, z, scheme)
        buf = np.full((len(want), z.size + 3), complex(np.nan))
        out = buf[:, : z.size]
        assert _char_coeffs(order, z, scheme, out) is out
        assert np.array_equal(out, want) and np.isnan(buf[:, z.size :]).all()
    setup = build_setup((0.0, 1.0, 2.0))
    for bad in (np.empty((3, 4), dtype=complex), np.empty((4, 5), dtype=complex), np.empty((4, 4))):
        with pytest.raises(ValueError, match="out must be a complex"):
            setup.recurrence(z[:4], out=bad)


@pytest.mark.parametrize("z", _RECURRENCE_Z)
def test_stability_recurrence_is_the_bdf_step(z, rng):
    for p in range(1, 7):
        states = _complex_history(rng, p)
        weights = np.array(coeff_fixed(p))
        predictor = np.array(predictor_weights(tuple(map(complex, range(p))), complex(p)))
        with np.errstate(all="ignore"):
            y, _, _ = implicit_solve(lambda t, y: z * y, complex(p - 1), states, None, None,
                                     1.0, weights, predictor)
        assert _recurrence_error(_char_coeffs(p, np.array([z]), "bdf")[:, 0], states, y) <= 1e-12


def test_coefficients_are_coefficient_major():
    z = np.linspace(-2.0, 1.0, 7) + 0.5j
    for scheme, order in (("composed", 2), ("composed", 9), ("bdf", 1), ("bdf", 6)):
        coeffs = _char_coeffs(order, z, scheme)
        assert coeffs.shape == (order + 1 if scheme == "bdf" else order, z.size)
        assert coeffs.dtype == complex and coeffs.flags.c_contiguous
        for i, zi in enumerate(z):
            assert np.array_equal(coeffs[:, i], _char_coeffs(order, np.array([zi]), scheme)[:, 0])


def test_raster_matches_pointwise():
    region = region_raster(3, (-1.0, 1.0, -1.0, 1.0), 2, 2)
    for ix, x in enumerate((-0.5, 0.5)):
        for iy, y in enumerate((-0.5, 0.5)):
            assert region.mask[ix, iy] == _stable_at(3, complex(x, y))
    assert region.mask.any() and not region.mask.all()
    # blocked rasters against one whole-array classification of every point:
    # grids below one block, and grids of several blocks with a partial last
    bounds = (-9.0, 3.0, -7.0, 8.0)
    for nx, ny in ((5, 3), (40, 61), (97, 131), (64, 128)):
        z = _cell_centers(bounds, nx, ny)
        for scheme, order in (("composed", 3), ("composed", 9), ("bdf", 6)):
            whole = _stable_mask(_char_coeffs(order, z, scheme)).reshape(nx, ny)
            region = region_raster(order, bounds, nx, ny, scheme=scheme)
            assert np.array_equal(region.mask, whole), (nx, ny, scheme, order)
    assert 97 * 131 % _BLOCK and 97 * 131 > 2 * _BLOCK and 40 * 61 < _BLOCK


# a grid that is a multiple of neither block size, of more than two blocks of 1,000
_COUPLING_GRID = ((-9.0, 3.0, -7.0, 8.0), 37, 59)
_COUPLING_CASES = [("composed", 3), ("composed", 9), ("bdf", 6)]


@pytest.mark.parametrize("block", [7, 1000])
@pytest.mark.parametrize("scheme,order", _COUPLING_CASES)
def test_raster_blocks_share_no_state(monkeypatch, block, scheme, order):
    # every block of a raster reuses one workspace: the blocked raster is one
    # whole-array classification of its points
    bounds, nx, ny = _COUPLING_GRID
    assert nx * ny % block and nx * ny > 2 * block
    monkeypatch.setattr(stability, "_BLOCK", block)
    whole = _stable_mask(_char_coeffs(order, _cell_centers(bounds, nx, ny), scheme))
    assert whole.any() and not whole.all()
    assert np.array_equal(region_raster(order, bounds, nx, ny, scheme=scheme).mask.ravel(), whole)


@pytest.mark.parametrize("block", [7, 1000])
@pytest.mark.parametrize("scheme,order", _COUPLING_CASES)
def test_raster_block_with_irregular_points(monkeypatch, block, scheme, order):
    # block 1 holds a nan coefficient and a vanishing leading coefficient, so
    # it is compressed into the front of the shared buffers; the regular
    # blocks after it must not see what it leaves there
    bounds, nx, ny = _COUPLING_GRID
    z = _cell_centers(bounds, nx, ny)
    nan_z, vanishing_z = z[block + 1], z[block + 4]
    char_coeffs = stability._char_coeffs

    def injected(order, z, scheme, out=None):
        a = char_coeffs(order, z, scheme, out)
        a[0, z == nan_z] = np.nan
        a[-1, z == vanishing_z] = 0.0
        return a

    monkeypatch.setattr(stability, "_BLOCK", block)
    monkeypatch.setattr(stability, "_char_coeffs", injected)
    want = stable_mask_reference(_as_rows(injected(order, z, scheme)))
    assert want.any() and not want[[block + 1, block + 4]].any()
    assert np.array_equal(region_raster(order, bounds, nx, ny, scheme=scheme).mask.ravel(), want)


def test_raster_memory_is_bounded():
    # a raster's traced peak is one block's coefficients, magnitudes and
    # pass buffers plus the [nx, ny] mask, so it does not grow with the grid
    # (classifying all 160,801 points of this raster in one batch peaks near
    # 100 MiB); the bound is the measured 2,406,529 B plus 50 %
    bounds = (-8.0, 8.0, -8.0, 8.0)
    region_raster(9, bounds, 401, 401)
    tracemalloc.start()
    try:
        region_raster(9, bounds, 401, 401)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2_406_529


def test_benchmark_raster_cell_counts():
    # stable cells of the three 201^2 rasters on [-8, 8]^2, orders 3, 6, 9
    bounds = (-8.0, 8.0, -8.0, 8.0)
    counts = [int(region_raster(o, bounds, 201, 201).mask.sum()) for o in (3, 6, 9)]
    assert counts == [38332, 24693, 6911]


@pytest.mark.parametrize("nx,ny", [(2.5, 3), (3, 2.5), (3.0, 3), ("3", 3), (None, 3)])
def test_raster_rejects_non_integer_sizes(nx, ny):
    with pytest.raises(ValueError, match="must be integers"):
        region_raster(3, (-1.0, 1.0, -1.0, 1.0), nx, ny)


def test_raster_accepts_numpy_integer_sizes():
    region = region_raster(3, (-1.0, 1.0, -1.0, 1.0), np.int64(3), np.int32(2))
    assert region.mask.shape == (3, 2)
    assert np.array_equal(region.mask, region_raster(3, (-1.0, 1.0, -1.0, 1.0), 3, 2).mask)


@pytest.mark.parametrize("bounds", [
    (float("nan"), 1.0, -1.0, 1.0),
    (-1.0, 1.0, -1.0, float("inf")),
    (float("-inf"), float("inf"), -1.0, 1.0),
    (-1e308, 1e308, -1.0, 1.0),  # finite bounds whose span overflows
    (1.0, -1.0, -1.0, 1.0),
    (-1.0, 1.0, 0.5, 0.5),
])
def test_raster_rejects_bad_bounds(bounds):
    with pytest.raises(ValueError, match="need finite bounds"):
        region_raster(3, bounds, 2, 2)


@pytest.mark.parametrize("call", [
    lambda: stability_angle(4.0),
    lambda: stability_angle(3.5, scheme="bdf"),
    lambda: region_raster(4.5, (-1.0, 1.0, -1.0, 1.0), 2, 2),
    lambda: region_raster(3.0, (-1.0, 1.0, -1.0, 1.0), 2, 2, scheme="bdf"),
    lambda: theta_coefficients(3.0, 0.5),
    lambda: theta_coefficients("3", 0.5),
])
def test_non_integer_orders_raise_value_error(call):
    # each used to raise a bare TypeError from range(), or to answer from a cache
    with pytest.raises(ValueError, match="not an integer"):
        call()


def test_numpy_integer_orders_stay_accepted_in_stability():
    bounds = (-1.0, 1.0, -1.0, 1.0)
    assert stability_angle(np.int64(4)) == stability_angle(4)
    assert stability_angle(np.int32(5), scheme="bdf") == stability_angle(5, scheme="bdf")
    want = region_raster(3, bounds, 3, 2).mask
    assert np.array_equal(region_raster(np.int64(3), bounds, 3, 2).mask, want)
    assert theta_coefficients(np.int64(3), 0.5) == theta_coefficients(3, 0.5)


def test_raster_left_half_plane_composed2():
    region = region_raster(2, (-5.0, 1.0, -3.0, 3.0), 24, 12)
    xs = -5.0 + (np.arange(24) + 0.5) * 0.25
    assert region.mask[xs < 0, :].all()


@pytest.mark.parametrize("order", (2, 3, 4))
def test_raster_deep_left_all_stable(order):
    region = region_raster(order, (-100.0, -50.0, -1.0, 1.0), 2, 2)
    assert region.mask.all()


def test_angle_composed2_a_stable():
    assert stability_angle(2) == pytest.approx(90.0)


def test_angle_bdf1():
    assert stability_angle(1, scheme="bdf") == pytest.approx(90.0)


def test_angle_empty_sector_composed9():
    with pytest.raises(EmptySector):
        stability_angle(9)


# the orders whose sector is below 90 degrees, then those capped at 90
_SECTOR_CASES = [("composed", o) for o in range(4, 9)] + [("bdf", o) for o in range(3, 7)]
_ANGLE_CASES = _SECTOR_CASES + [("composed", 2), ("composed", 3), ("bdf", 1), ("bdf", 2)]
_RAY_RADII = np.logspace(-6.0, 6.0, 20001)


def _rays(theta_deg):
    th = math.radians(theta_deg)
    return np.concatenate([_RAY_RADII * np.exp(1j * (math.pi + s * th)) for s in (1.0, -1.0)])


@pytest.mark.parametrize("scheme,order", _ANGLE_CASES)
def test_angle_is_the_edge_of_the_stable_sector(scheme, order):
    # both boundary rays 0.01 degrees inside the sector are stable at 20,001
    # radii over [1e-6, 1e6]; below 90 degrees, rays 0.01 degrees outside it
    # hold an unstable point (27 or more of these radii, at every order)
    theta = stability_angle(order, scheme)
    assert _stable_mask(_char_coeffs(order, _rays(theta - 0.01), scheme)).all()
    if theta < 90.0:
        assert not _stable_mask(_char_coeffs(order, _rays(theta + 0.01), scheme)).all()


@pytest.mark.parametrize("scheme,order", _SECTOR_CASES)
def test_angle_locus_sampling_is_converged(monkeypatch, scheme, order):
    theta = stability_angle(order, scheme)
    monkeypatch.setattr(stability, "_LOCUS_N", 400_001)
    assert abs(theta - stability_angle(order, scheme)) <= 1e-3


def test_angle_bdf_reference_row():
    # the BDF row of the paper's Table 4, the acceptance reference
    for order, ref in ((3, 86.032), (4, 73.351), (5, 51.839), (6, 17.839)):
        assert abs(stability_angle(order, scheme="bdf") - ref) <= 0.005


@pytest.mark.parametrize("q", (3, 4, 5, 6))
def test_composed_region_dominates_bdf(q):
    # containment of the equal-order base region holds strictly at orders
    # 3-4; at orders 5-6 it fails only on a thin sliver hugging the
    # imaginary axis (8-9 cells of 40401, independently confirmed by an
    # eigenvalue-based root check), so those orders allow that sliver
    bounds = (-8.0, 8.0, -8.0, 8.0)
    bdf = region_raster(q, bounds, 201, 201, scheme="bdf")
    comp = region_raster(q, bounds, 201, 201, scheme="composed")
    viol = bdf.mask & ~comp.mask
    if q in (3, 4):
        assert not viol.any()
    else:
        xs = -8.0 + (np.arange(201) + 0.5) * 16.0 / 201
        ix, _ = np.where(viol)
        assert viol.sum() <= 12
        assert all(abs(xs[i]) < 0.05 for i in ix)


def test_csv_and_pbm_export(tmp_path):
    region = region_raster(3, (-1.0, 1.0, -1.0, 1.0), 3, 2)
    csv_path = tmp_path / "r.csv"
    pbm_path = tmp_path / "r.pbm"
    region_to_csv(region, csv_path)
    region_to_pbm(region, pbm_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "re_z,im_z,stable"
    assert len(lines) == 1 + 6
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.5)  # top row carries max Im
    assert first[2] in ("0", "1")
    pbm = pbm_path.read_text().splitlines()
    assert pbm[0] == "P1"
    assert pbm[1] == "3 2"
    assert len(pbm) == 4
    # determinism: identical bytes on rerun
    again = tmp_path / "r2.csv"
    region_to_csv(region_raster(3, (-1.0, 1.0, -1.0, 1.0), 3, 2), again)
    assert again.read_bytes() == csv_path.read_bytes()
    # a raster of several blocks: both files equal lines built cell by cell
    bounds, nx, ny = (-6.0, 2.5, -4.0, 5.0), 71, 60
    assert nx * ny > _BLOCK
    region = region_raster(6, bounds, nx, ny)
    dx, dy = (bounds[1] - bounds[0]) / nx, (bounds[3] - bounds[2]) / ny
    want_csv, want_pbm = ["re_z,im_z,stable"], ["P1", f"{nx} {ny}"]
    for iy in range(ny - 1, -1, -1):
        im = bounds[2] + (iy + 0.5) * dy
        cells = [int(region.mask[ix, iy]) for ix in range(nx)]
        want_csv += [f"{bounds[0] + (ix + 0.5) * dx:.16e},{im:.16e},{c}"
                     for ix, c in enumerate(cells)]
        want_pbm.append(" ".join(str(c) for c in cells))
    region_to_csv(region, csv_path)
    region_to_pbm(region, pbm_path)
    assert csv_path.read_bytes() == ("\n".join(want_csv) + "\n").encode()
    assert pbm_path.read_bytes() == ("\n".join(want_pbm) + "\n").encode()
    assert region.mask.any() and not region.mask.all()

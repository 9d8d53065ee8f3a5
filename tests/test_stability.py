"""Stability polynomial, region rasters, and sector angles."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cbdf import stability
from cbdf.bdf_core import coeff_variable
from cbdf.composition import solve_alpha1
from cbdf.errors import EmptySector
from cbdf.stability import (
    _BLOCK,
    _char_coeffs,
    _stable_mask,
    region_raster,
    region_to_csv,
    region_to_pbm,
    stability_angle,
    theta_coefficients,
)
from conftest import stable_mask_reference


def _stable_at(order, z, scheme="composed"):
    return _stable_mask(_char_coeffs(order, np.array([z]), scheme))[0]


def _as_rows(coeffs):
    """Row-major descending [N, k + 1] copy of coefficient-major ascending coefficients."""
    return coeffs[::-1].T.copy()


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


@pytest.mark.parametrize(
    "scheme,order", [("composed", o) for o in range(2, 10)] + [("bdf", o) for o in range(1, 7)]
)
def test_raster_equals_row_major_reference(scheme, order):
    # several blocks, the last one partial, against one reference pass over every point
    bounds, nx, ny = (-9.0, 3.0, -7.0, 8.0), 97, 131
    assert nx * ny > 2 * _BLOCK and nx * ny % _BLOCK
    xs = bounds[0] + (np.arange(nx) + 0.5) * (bounds[1] - bounds[0]) / nx
    ys = bounds[2] + (np.arange(ny) + 0.5) * (bounds[3] - bounds[2]) / ny
    z = (xs[:, None] + 1j * ys[None, :]).ravel()
    want = stable_mask_reference(_as_rows(_char_coeffs(order, z, scheme))).reshape(nx, ny)
    assert want.any() and not want.all()
    assert np.array_equal(region_raster(order, bounds, nx, ny, scheme=scheme).mask, want)


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
        xs = bounds[0] + (np.arange(nx) + 0.5) * (bounds[1] - bounds[0]) / nx
        ys = bounds[2] + (np.arange(ny) + 0.5) * (bounds[3] - bounds[2]) / ny
        z = (xs[:, None] + 1j * ys[None, :]).ravel()
        for scheme, order in (("composed", 3), ("composed", 9), ("bdf", 6)):
            whole = _stable_mask(_char_coeffs(order, z, scheme)).reshape(nx, ny)
            region = region_raster(order, bounds, nx, ny, scheme=scheme)
            assert np.array_equal(region.mask, whole), (nx, ny, scheme, order)
    assert 97 * 131 % _BLOCK and 97 * 131 > 2 * _BLOCK and 40 * 61 < _BLOCK


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

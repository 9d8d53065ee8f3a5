"""Dense solves and polynomial root finding."""
import numpy as np
import pytest

from cbdf.errors import DegreeZero, NoConvergence, SingularMatrix
from cbdf.polyroot import find_roots, find_roots_batch, solve_dense

PRINTED_P2_ROOT = 0.4013648789516588 + 0.7409710153124752j


def test_solve_identity():
    b = np.array([1.0 + 2j, -3.0, 0.5j])
    x = solve_dense(np.eye(3), b)
    assert np.allclose(x, b, rtol=0, atol=1e-15)


def test_solve_vandermonde_residual():
    # nodes {1, 2}: rows are powers, rhs picks the first-moment condition
    a = np.array([[1.0, 1.0], [1.0, 2.0]], dtype=complex)
    b = np.array([0.0, -1.0], dtype=complex)
    x = solve_dense(a, b)
    assert np.max(np.abs(a @ x - b)) < 1e-12


def test_solve_singular_1x1():
    with pytest.raises(SingularMatrix):
        solve_dense(np.array([[0.0]]), np.array([1.0]))


def test_solve_1x1_is_division():
    a = np.array([[2.0 - 3.0j]])
    b = np.array([[1.0, 0.5j, -4.0]])
    x = solve_dense(a, b)
    assert x.shape == b.shape and x.dtype == complex
    assert np.array_equal(x, b / (2.0 - 3.0j))
    assert solve_dense(a, np.array([1.0])).shape == (1,)


def test_roots_factored_quadratic():
    roots = find_roots((-1.0, 0.0, 1.0))
    assert np.allclose(sorted(r.real for r in roots), [-1.0, 1.0], atol=1e-12)
    assert all(abs(r.imag) < 1e-12 for r in roots)


def test_roots_complex_pair():
    # 2a^2 - 2a + 1 has the conjugate pair 1/2 +- i/2
    roots = find_roots((1.0, -2.0, 2.0))
    expect = {0.5 + 0.5j, 0.5 - 0.5j}
    for e in expect:
        assert min(abs(r - e) for r in roots) < 1e-13


def test_roots_cubic_printed_pair():
    poly = np.array([1.0, 1.0, -1.0, 3.0])
    roots = find_roots(poly)
    assert len(roots) == 3
    assert min(abs(r - PRINTED_P2_ROOT) for r in roots) < 1e-12
    assert min(abs(r - PRINTED_P2_ROOT.conjugate()) for r in roots) < 1e-12
    third = min(roots, key=lambda r: abs(r.imag))
    scale = np.max(np.abs(poly))
    assert abs(np.polynomial.polynomial.polyval(third, poly)) <= 1e-9 * scale


def test_roots_degree_zero():
    with pytest.raises(DegreeZero):
        find_roots((2.0,))


@pytest.mark.parametrize("bad", (np.nan, np.inf, complex(1.0, np.nan)))
def test_roots_reject_nonfinite_coefficients(bad):
    with pytest.raises(ValueError):
        find_roots_batch([[bad, 1.0, 1.0]])


def test_roots_reject_vanishing_leading_coefficient():
    with pytest.raises(ValueError):
        find_roots_batch([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])


def test_eigenvalue_failure_is_no_convergence(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(NoConvergence):
        find_roots((1.0, -2.0, 2.0))


def test_roots_batch_rows_match_numpy(rng):
    rows = rng.standard_normal((30, 6)) + 1j * rng.standard_normal((30, 6))
    batch = find_roots_batch(rows)
    assert batch.shape == (30, 5)
    for row, roots in zip(rows, batch):
        ref = np.roots(row[::-1])  # numpy wants descending coefficients
        assert all(min(abs(r - s) for s in ref) < 1e-8 for r in roots)


def test_roots_residual_contract(rng):
    for _ in range(20):
        deg = int(rng.integers(1, 9))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        coeffs[-1] += 2.0  # keep the leading coefficient away from zero
        scale = np.max(np.abs(coeffs))
        for r in find_roots(coeffs):
            assert abs(np.polynomial.polynomial.polyval(r, coeffs)) <= 1e-9 * scale


def test_recovers_random_separated_roots(rng):
    for _ in range(50):
        deg = int(rng.integers(2, 9))
        while True:
            roots = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
            if all(
                abs(roots[i] - roots[j]) > 1e-3
                for i in range(deg)
                for j in range(i + 1, deg)
            ):
                break
        coeffs = np.array([1.0 + 0j])
        for r in roots:
            coeffs = np.convolve(coeffs, np.array([-r, 1.0]))
        found = find_roots(coeffs)
        for r in sorted(roots, key=lambda z: (z.real, z.imag)):
            assert min(abs(f - r) for f in found) < 1e-7


def test_solve_dense_reconstructs_rhs(rng):
    kept = 0
    while kept < 40:
        n = int(rng.integers(1, 13))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(a) >= 1e6:
            continue
        kept += 1
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = solve_dense(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))

"""Dense complex linear solves and polynomial roots from companion eigenvalues.

The implicit step's Newton iteration funnels its linear algebra through
``solve_dense``, so the error contracts live here and nowhere else. A
polynomial is an array of its coefficients in ascending degree order.
The sub-step fraction needs every root of its cleared polynomial only
where a scalar Newton iteration on the uncleared equation cannot find the
admissible one: for the uniform ladder's root that starts the iteration,
for complex ladders and for ladders with no admissible root. Stability scans need no roots:
``stability`` classifies points by the Schur-Cohn recursion instead.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import DegreeZero, NoConvergence, SingularMatrix

_PIVOT_RTOL = 1e-14


def solve_dense(matrix, rhs) -> np.ndarray:
    """Solve A x = b by LU with partial pivoting.

    Raises SingularMatrix when a pivot magnitude falls below
    1e-14 times the largest matrix entry.
    """
    a = np.asarray(matrix, dtype=complex)
    b = np.asarray(rhs, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"matrix must be square and nonempty, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError("rhs length does not match matrix size")
    if a.shape[0] == 1:
        # a 1x1 matrix is its own LU factor and pivot: skip LAPACK's call overhead
        if a[0, 0] == 0:
            raise SingularMatrix(f"pivot 0.000e+00 below {_PIVOT_RTOL:.0e} * 0.000e+00")
        return b / a[0, 0]

    import scipy.linalg  # deferred: `import cbdf` stays free of scipy

    scale = np.max(np.abs(a))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if scale == 0.0 or np.min(pivots) < _PIVOT_RTOL * scale:
        raise SingularMatrix(
            f"pivot {np.min(pivots):.3e} below {_PIVOT_RTOL:.0e} * {scale:.3e}"
        )
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def _horner_batch(coeffs_asc: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(z)
    for j in range(coeffs_asc.shape[1] - 1, -1, -1):
        acc = acc * z + coeffs_asc[:, j, None]
    return acc


def find_roots_batch(coeff_rows) -> np.ndarray:
    """Roots of a batch of same-degree polynomials, as companion eigenvalues.

    ``coeff_rows`` is [batch, degree+1] in ascending degree order with
    nonzero leading column. Returns roots as a [batch, degree] array
    (unsorted), each polished by two Newton passes. Raises ValueError on a
    non-finite coefficient or a vanishing leading coefficient, and
    NoConvergence when LAPACK's eigenvalue iteration fails.
    """
    c = np.asarray(coeff_rows, dtype=complex)
    n = c.shape[1] - 1
    if n < 1:
        raise DegreeZero("constant polynomial has no roots")
    if not np.isfinite(c).all():
        raise ValueError("polynomial coefficients must be finite")
    if not c[:, -1].all():
        raise ValueError("leading polynomial coefficient must be nonzero")
    # companion matrix: ones on the subdiagonal, -monic coefficients last column
    companion = np.zeros((c.shape[0], n, n), dtype=complex)
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    companion[:, :, -1] = -c[:, :-1] / c[:, -1:]
    try:
        z = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"companion eigenvalues: {exc}") from exc
    # two Newton polish passes on the original coefficients
    dcoef = c[:, 1:] * np.arange(1, n + 1)
    for _ in range(2):
        pv = _horner_batch(c, z)
        dv = _horner_batch(dcoef, z)
        safe = np.abs(dv) > 0
        z = np.where(safe, z - np.where(safe, pv, 0) / np.where(safe, dv, 1), z)
    return z


def find_roots(coeffs) -> list:
    """All complex roots (with multiplicity) of one polynomial, sorted by (Re, Im).

    ``coeffs`` are ascending with a nonzero leading coefficient; the errors
    are those of ``find_roots_batch``.
    """
    roots = find_roots_batch(np.asarray(coeffs, dtype=complex)[None, :])[0]
    return sorted((complex(r) for r in roots), key=lambda r: (r.real, r.imag))

"""Linear stability of the composed flow: characteristic polynomial over the
scaled eigenvalue z, rasterized stability regions, and sector angles.

A point is stable when no root of the one-step recurrence polynomial has
magnitude above 1 + 1e-9. A Schur-Cohn recursion classifies points with no
roots computed, on a coefficient-major array: each pass runs along the points.
Rasters are classified in blocks of ``_BLOCK`` points, so a raster's memory is
one block's passes plus its [nx, ny] mask, whatever the grid size. Sector
angles come from the boundary locus, the z at which a root w lies on the unit
circle (Hairer & Wanner, *Solving ODEs II*, §V.1): one quadratic in z per w.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bdf_core import coeff_fixed
from .composition import build_setup
from .errors import EmptySector, OrderOutOfRange

_ABS_TOL = 1e-9  # slack on the unit-disk root-magnitude bound
_LOCUS_N = 4096  # every angle lies within 4e-4 deg of its 400,001-sample value (2001: 8e-4)
# every true locus point has |z| < 36; a BDF row's roundoff-sized fitted z^2
# term gives a spurious second root near 1e16
_LOCUS_MAX = 1e8
# Raster points per classification block: at order 9 a block's passes hold
# [10, B] complex arrays of 0.6 MiB, about three live at once, so 4096 is the
# largest power of two that stays in one core's 2 MiB L2 on the 2-vCPU Xeon
# measured. Blocks of 1024..8192 all ran order-9 rasters faster than the
# whole array (152 against 437 ms at 601^2 for 4096); 8192 was about 10 %
# faster still, but spills L2 and doubles the traced peak to 5.4 MiB.
_BLOCK = 4096


@dataclass(frozen=True)
class StabilityRegion:
    """Boolean raster of a scheme's stability over a z-plane rectangle."""

    bounds: tuple  # (xmin, xmax, ymin, ymax)
    mask: np.ndarray  # [nx, ny], True = stable


@lru_cache(maxsize=None)
def _uniform_stage_weights(p: int):
    """First- and second-stage weights on the uniform grid for base order p."""
    ratios = tuple(float(j - 1) for j in range(1, p + 1))
    setup = build_setup(ratios)
    return setup.alpha1, setup.step1[0].tolist(), setup.step2[0].tolist()


@lru_cache(maxsize=None)
def _bdf_weights(order: int) -> tuple:
    """BDF weights of one order, built once from ``coeff_fixed``'s exact rationals."""
    return coeff_fixed(order)


def theta_coefficients(p: int, z: complex) -> tuple:
    """Recurrence weights of the composed flow on y' = lambda*y at z = tau*lambda.

    Uniform-grid setup (ratios j-1) with the fixed admissible sub-step
    fraction for base order p.
    """
    if not 1 <= p <= 8:
        raise OrderOutOfRange(f"base order must be in 1..8, got {p}")
    return tuple(_char_rows(p + 1, np.array([z]), "composed")[0])


def _char_rows(order: int, z: np.ndarray, scheme: str) -> np.ndarray:
    """Descending-power coefficient rows of the characteristic polynomial."""
    z = np.asarray(z, dtype=complex).ravel()
    if scheme == "composed":
        if not 2 <= order <= 9:
            raise OrderOutOfRange(f"composed order must be in 2..9, got {order}")
        p = order - 1
        a1, g, Gk = _uniform_stage_weights(p)
        rows = np.empty((z.size, p + 1), dtype=complex)
        lead = a1 * z - g[0]
        rows[:, 0] = lead * (Gk[0] - (1.0 - a1) * z)
        for i in range(1, p):
            rows[:, i] = Gk[1] * g[i] + lead * Gk[i + 1]
        rows[:, p] = Gk[1] * g[p]
        return rows
    if scheme == "bdf":
        if not 1 <= order <= 6:
            raise OrderOutOfRange(f"bdf order must be in 1..6, got {order}")
        g = _bdf_weights(order)
        rows = np.empty((z.size, order + 1), dtype=complex)
        rows[:, 0] = g[0] - z
        for i in range(1, order + 1):
            rows[:, i] = g[i]
        return rows
    raise ValueError(f"unknown scheme {scheme!r}")


def _stable_mask(rows: np.ndarray) -> np.ndarray:
    """Stability classification for a batch of descending coefficient rows.

    Schur-Cohn recursion on Q(w) = P((1 + 1e-9) w): every root of P has
    modulus below 1 + 1e-9 exactly when every root of Q lies strictly inside
    the unit disk. A degree-k polynomial a_0 + ... + a_k w^k has that
    property iff |a_0| < |a_k| and the degree k - 1 polynomial
    (conj(a_k) a - a_0 conj(reversed a)) / w has it too, so k = n..1 takes
    n passes, each along the points of a coefficient-major [k + 1, N] array.
    """
    a = np.ascontiguousarray(rows.T[::-1])
    scale = np.max(np.abs(a), axis=0)
    # a vanishing leading coefficient means an escaping root: unstable; a
    # non-finite row fails this test too (nan scale or infinite threshold)
    regular = np.abs(a[-1]) > 1e-13 * np.maximum(scale, 1e-300)
    a = np.compress(regular, a, axis=1)
    a *= ((1.0 + _ABS_TOL) ** np.arange(len(a)))[:, None]
    stable = np.ones(a.shape[1], dtype=bool)
    for k in range(len(a) - 1, 0, -1):
        a0, ak = a[0], a[k]
        stable &= np.abs(a0) < np.abs(ak)
        a, tail = np.conj(ak) * a[1:], np.conj(a[-2::-1])
        a -= np.multiply(a0, tail, out=tail)  # a0 first: FMA rounds by operand order
        a *= 1.0 / np.maximum(np.max(np.abs(a), axis=0), 1e-300)
    out = np.zeros(rows.shape[0], dtype=bool)
    out[regular] = stable
    return out


def region_raster(
    order: int,
    bounds: tuple,
    nx: int,
    ny: int,
    scheme: str = "composed",
) -> StabilityRegion:
    """Rasterize the stability set over a rectangle, cell-center sampling.

    The raveled grid is classified ``_BLOCK`` points at a time, each block's
    z values built when its turn comes, so memory is O(block) plus the mask.
    Every Schur-Cohn operation acts on one point, so the mask does not depend
    on the block size.
    """
    if nx < 2 or ny < 2:
        raise ValueError("nx and ny must be at least 2")
    xmin, xmax, ymin, ymax = (float(v) for v in bounds)
    dx = (xmax - xmin) / nx
    dy = (ymax - ymin) / ny
    if not (0.0 < dx < math.inf and 0.0 < dy < math.inf):  # false on nan too
        raise ValueError(f"need finite bounds and spans, xmin < xmax, ymin < ymax; got {bounds!r}")
    xs = xmin + (np.arange(nx) + 0.5) * dx
    ys = ymin + (np.arange(ny) + 0.5) * dy
    n = nx * ny
    mask = np.empty(n, dtype=bool)
    for start in range(0, n, _BLOCK):
        ix, iy = np.divmod(np.arange(start, min(start + _BLOCK, n)), ny)
        mask[start : start + _BLOCK] = _stable_mask(_char_rows(order, xs[ix] + 1j * ys[iy], scheme))
    return StabilityRegion((xmin, xmax, ymin, ymax), mask.reshape(nx, ny))


def stability_angle(order: int, scheme: str = "composed") -> float:
    """Half-angle theta (degrees, at most 90) of the open sector |arg(-z)| < theta
    that no point of the boundary locus enters, over ``_LOCUS_N`` samples.

    Roots cross the unit circle only on the locus, so that sector is stable
    throughout once it holds a stable point. z = -1 is that point; where it
    is unstable, as at composed order 9, EmptySector is raised.
    """
    rows = _char_rows(order, np.array([0.0, 1.0, -1.0]), scheme)
    if not _stable_mask(rows[2:])[0]:
        raise EmptySector(f"{scheme} order {order} is unstable on the negative real axis")
    # every coefficient is A + B z + C z^2, fitted at z = 0, 1, -1, so at each w
    # z solves a z^2 + b z + c = 0; the samples skip w = 1, whose root z = 0 has no angle
    w = np.exp(2j * math.pi * (np.arange(_LOCUS_N) + 0.5) / _LOCUS_N)
    a, b, c = (np.polyval(q, w) for q in (0.5 * (rows[1] + rows[2]) - rows[0],
                                          0.5 * (rows[1] - rows[2]), rows[0]))
    with np.errstate(all="ignore"):
        root = np.sqrt(b * b - 4.0 * a * c)
        z = np.concatenate((2.0 * c / (-b - root), 2.0 * c / (-b + root)))
    z = z[np.abs(z) < _LOCUS_MAX]  # drops nan too
    return min(90.0, math.degrees(float(np.min(np.abs(np.angle(-z))))))


def region_to_csv(region: StabilityRegion, path) -> None:
    """Rows `re_z,im_z,stable(0|1)`, top raster row (max Im) first."""
    xmin, xmax, ymin, ymax = region.bounds
    nx, ny = region.mask.shape
    dx = (xmax - xmin) / nx
    dy = (ymax - ymin) / ny
    # each coordinate is formatted once, then shared by its row or column
    res = [f"{xmin + (ix + 0.5) * dx:.16e}," for ix in range(nx)]
    with open(path, "w", newline="") as fh:
        fh.write("re_z,im_z,stable\n")
        for iy in range(ny - 1, -1, -1):
            im = f"{ymin + (iy + 0.5) * dy:.16e},"
            flags = region.mask[:, iy].tolist()
            fh.write("".join([re + im + ("1\n" if b else "0\n") for re, b in zip(res, flags)]))


def region_to_pbm(region: StabilityRegion, path) -> None:
    """Plain-text P1 bitmap, one raster row per line, top row = max Im, 1 = stable."""
    nx, ny = region.mask.shape
    with open(path, "w", newline="") as fh:
        fh.write("P1\n")
        fh.write(f"{nx} {ny}\n")
        for iy in range(ny - 1, -1, -1):
            fh.write(" ".join(["1" if b else "0" for b in region.mask[:, iy].tolist()]) + "\n")

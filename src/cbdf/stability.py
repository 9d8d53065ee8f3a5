"""Linear stability of the composed flow: characteristic polynomial over the
scaled eigenvalue z, rasterized stability regions, and sector angles.

A point is stable when no root of the one-step recurrence polynomial has
magnitude above 1 + 1e-9. A Schur-Cohn recursion classifies points with no
roots computed, on a coefficient-major array: each pass runs along the points.
Rasters are classified in blocks of ``_BLOCK`` points, so a raster's memory is
one block's passes plus its [nx, ny] mask, whatever the grid size.
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
_RAY_RADII = np.logspace(-3.0, 3.0, 200)
_THETA_TOL = 0.05
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
    return setup.alpha1, setup.g, setup.G[: p + 1]


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


def _rays_stable(order: int, scheme: str, theta_deg: float) -> bool:
    th = math.radians(theta_deg)
    z = np.concatenate([_RAY_RADII * np.exp(1j * (math.pi + s * th)) for s in (1.0, -1.0)])
    return bool(_stable_mask(_char_rows(order, z, scheme)).all())


def stability_angle(order: int, scheme: str = "composed") -> float:
    """Largest sector half-angle (degrees) whose boundary rays stay stable.

    Bisection on the angle to 0.05 degrees; each probe classifies 200
    log-spaced radii in [1e-3, 1e3] on both boundary rays in one batch.
    Raises EmptySector when even a vanishing half-angle fails.
    """
    if not _rays_stable(order, scheme, 1e-4):
        raise EmptySector(f"{scheme} order {order} is unstable on the negative real axis")
    if _rays_stable(order, scheme, 90.0):
        return 90.0
    lo, hi = 0.0, 90.0
    while hi - lo > _THETA_TOL:
        mid = 0.5 * (lo + hi)
        if _rays_stable(order, scheme, mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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

"""Linear stability of the composed flow: characteristic polynomial over the
scaled eigenvalue z, rasterized stability regions, and sector angles.

A point is stable when no root of the one-step recurrence polynomial has
magnitude above 1 + 1e-9. A Schur-Cohn recursion classifies points with no
roots computed, on an ascending, coefficient-major [degree + 1, N] array that
the coefficient builder writes directly: each pass runs along the points.
Rasters are classified in blocks of ``_BLOCK`` points. A block holds its
coefficients, their magnitudes and two [degree, N] pass buffers, each made
once, so a raster's memory is that plus its [nx, ny] mask, whatever the grid
size: an order-9 raster at 401^2 peaks at 2.3 MiB of traced allocations. Sector
angles come from the boundary locus, the z at which a root w lies on the unit
circle (Hairer & Wanner, *Solving ODEs II*, §V.1): one quadratic in z per w.
"""
from __future__ import annotations

import math
import operator
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
# Raster points per classification block. At order 9 and B = 4096 a block
# holds its [10, B] complex coefficients (0.6 MiB), their [10, B] magnitudes
# (0.3 MiB) and two [9, B] complex pass buffers (0.56 MiB each): 2.1 MiB,
# about one core's 2 MiB L2 on the 2-vCPU Xeon measured. An order-9 raster
# at 401^2 peaks at 2.3 MiB of traced allocations. Blocks of 1024..8192 all
# ran order-9 rasters faster than the whole array (152 against 437 ms at
# 601^2 for 4096); 8192 was about 10 % faster still, but spills L2 and
# doubles the traced peak.
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
    """Recurrence weights of the composed flow on y' = lambda*y at z = tau*lambda,
    highest power first.

    Uniform-grid setup (ratios j-1) with the fixed admissible sub-step
    fraction for base order p.
    """
    if not 1 <= p <= 8:
        raise OrderOutOfRange(f"base order must be in 1..8, got {p}")
    if np.ndim(z) != 0:
        raise ValueError(f"z must be a scalar, got shape {np.shape(z)}")
    return tuple(_char_coeffs(p + 1, np.array([z]), "composed")[::-1, 0])


def _char_coeffs(order: int, z: np.ndarray, scheme: str) -> np.ndarray:
    """Ascending-power coefficients of the characteristic polynomial,
    coefficient-major: row j holds the w^j coefficient at every point z."""
    z = np.asarray(z, dtype=complex).ravel()
    if scheme == "composed":
        if not 2 <= order <= 9:
            raise OrderOutOfRange(f"composed order must be in 2..9, got {order}")
        p = order - 1
        a1, g, Gk = _uniform_stage_weights(p)
        a = np.empty((p + 1, z.size), dtype=complex)
        lead = a1 * z - g[0]
        np.multiply(lead, Gk[0] - (1.0 - a1) * z, out=a[p])
        for i in range(1, p):
            np.multiply(lead, Gk[i + 1], out=a[p - i])
            a[p - i] += Gk[1] * g[i]
        a[0] = Gk[1] * g[p]
        return a
    if scheme == "bdf":
        if not 1 <= order <= 6:
            raise OrderOutOfRange(f"bdf order must be in 1..6, got {order}")
        g = _bdf_weights(order)
        a = np.empty((order + 1, z.size), dtype=complex)
        np.subtract(g[0], z, out=a[order])
        for i in range(1, order + 1):
            a[order - i] = g[i]
        return a
    raise ValueError(f"unknown scheme {scheme!r}")


def _stable_mask(a: np.ndarray) -> np.ndarray:
    """Stability classification of the points of an ascending, coefficient-major
    [n + 1, N] array, which it overwrites.

    Schur-Cohn recursion on Q(w) = P((1 + 1e-9) w): every root of P has
    modulus below 1 + 1e-9 exactly when every root of Q lies strictly inside
    the unit disk. A degree-k polynomial a_0 + ... + a_k w^k has that
    property iff |a_0| < |a_k| and the degree k - 1 polynomial
    (conj(a_k) a - a_0 conj(reversed a)) / w has it too, so k = n..1 takes
    n passes, each along the points. Each pass writes into [n, N] buffers
    made once per call and swaps the new coefficients with the old storage.
    """
    n = len(a) - 1
    mag = np.abs(a)
    # a vanishing leading coefficient means an escaping root: unstable; a
    # non-finite point fails this test too (nan scale or infinite threshold)
    regular = mag[n] > 1e-13 * np.maximum(np.max(mag, axis=0), 1e-300)
    all_regular = regular.all()
    if not all_regular:
        a, mag = np.compress(regular, a, axis=1), np.compress(regular, mag, axis=1)
    a *= ((1.0 + _ABS_TOL) ** np.arange(n + 1))[:, None]
    spare, tail = np.empty_like(a[1:]), np.empty_like(a[1:])
    stable = np.ones(a.shape[1], dtype=bool)
    for k in range(n, 0, -1):
        a0 = a[0]
        np.abs(a0, out=mag[0])
        np.abs(a[k], out=mag[1])
        stable &= mag[0] < mag[1]
        new, t = spare[:k], tail[:k]
        np.multiply(np.conj(a[k]), a[1 : k + 1], out=new)
        np.conjugate(a[k - 1 :: -1], out=t)
        new -= np.multiply(a0, t, out=t)  # a0 first: FMA rounds by operand order
        new *= 1.0 / np.maximum(np.max(np.abs(new, out=mag[:k]), axis=0), 1e-300)
        a, spare = spare, a
    if all_regular:
        return stable
    out = np.zeros(regular.size, dtype=bool)
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
    z values and coefficients built when its turn comes, so memory is
    O(block) plus the mask. Every Schur-Cohn operation acts on one point, so
    the mask does not depend on the block size.
    """
    try:
        nx, ny = operator.index(nx), operator.index(ny)
    except TypeError:
        raise ValueError(f"nx and ny must be integers, got {nx!r} and {ny!r}") from None
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
        mask[start : start + _BLOCK] = _stable_mask(_char_coeffs(order, xs[ix] + 1j * ys[iy], scheme))
    return StabilityRegion((xmin, xmax, ymin, ymax), mask.reshape(nx, ny))


@lru_cache(maxsize=1)
def _locus_samples(n: int) -> np.ndarray:
    """The n points w = exp(2 pi i (j + 1/2) / n) of the unit circle, read-only."""
    w = np.exp(2j * math.pi * (np.arange(n) + 0.5) / n)
    w.flags.writeable = False
    return w


def stability_angle(order: int, scheme: str = "composed") -> float:
    """Half-angle theta (degrees, at most 90) of the open sector |arg(-z)| < theta
    that no point of the boundary locus enters, over ``_LOCUS_N`` samples.

    Roots cross the unit circle only on the locus, so that sector is stable
    throughout once it holds a stable point. z = -1 is that point; where it
    is unstable, as at composed order 9, EmptySector is raised.
    """
    coeffs = _char_coeffs(order, np.array([0.0, 1.0, -1.0]), scheme)
    if not _stable_mask(coeffs[:, 2:].copy())[0]:
        raise EmptySector(f"{scheme} order {order} is unstable on the negative real axis")
    # every coefficient is A + B z + C z^2, fitted at z = 0, 1, -1, so at each w
    # z solves a z^2 + b z + c = 0; the samples skip w = 1, whose root z = 0 has no angle
    w = _locus_samples(_LOCUS_N)
    at0, at1, at_m1 = coeffs[::-1].T  # highest power first, as np.polyval takes them
    a, b, c = (np.polyval(q, w) for q in (0.5 * (at1 + at_m1) - at0, 0.5 * (at1 - at_m1), at0))
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

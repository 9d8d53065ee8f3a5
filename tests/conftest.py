"""Shared oracle builders: dense moment systems, divided-difference step
weights, the implicit step on a window's arrays, a row-major Schur-Cohn
classifier and randomized draws.

The dense systems here are the independent reference route for the
closed-form coefficient formulas, so they are assembled from scratch
rather than through the library's own product expressions.
"""
from __future__ import annotations

import numpy as np
import pytest

from cbdf.bdf_core import ImplicitSolveConfig, coeff_variable, implicit_solve, predictor_weights
from cbdf.composition import _error_constant
from cbdf.polyroot import solve_dense


def stage1_system(eps, dtype=complex):
    """Moment system for the first-stage weights in the scaled offsets;
    ``dtype=object`` keeps the arithmetic of the entries of ``eps``."""
    p = len(eps)
    a = np.zeros((p + 1, p + 1), dtype=dtype)
    a[0, :] = 1.0
    for m in range(1, p + 1):
        for j in range(1, p + 1):
            a[m, j] = eps[j - 1] ** m
    rhs = np.zeros(p + 1, dtype=dtype)
    rhs[1] = -1.0
    return a, rhs


def stage2_system(alpha1, ratios, dtype=complex):
    """Second-stage moment system with the first-jump error correction row;
    ``dtype=object`` keeps the arithmetic of ``alpha1`` and the ratios."""
    r = np.asarray(ratios, dtype=dtype)
    p = len(r)
    eps = 1.0 + r / alpha1
    g0 = np.sum(1.0 / eps)
    ebar = np.concatenate(([1.0 - alpha1], 1.0 + r))
    n = p + 2
    a = np.zeros((n, n), dtype=dtype)
    a[0, :] = 1.0
    for m in range(1, p + 2):
        for i in range(p + 1):
            a[m, 1 + i] = ebar[i] ** m
    a[p + 1, 1] += (-alpha1) ** (p + 1) / g0 * np.prod(eps)
    rhs = np.zeros(n, dtype=dtype)
    rhs[1] = -ebar[0]
    return a, rhs


def error_constant_at(alpha1, ratios):
    """The error-constant formula at any fraction ``alpha1``, root or not,
    evaluated on the weights of the dense stage systems."""
    r = tuple(complex(v) for v in ratios)
    g = solve_dense(*stage1_system([1.0 + rv / alpha1 for rv in r]))
    G = solve_dense(*stage2_system(alpha1, r))
    w = (1.0 - alpha1,) + tuple(1.0 + rv for rv in r)
    return _error_constant(alpha1, w, tuple(g), tuple(G))


def _hermite_weights(nodes, t_new):
    """Weights at ``t_new`` of the degree-p polynomial through the p states at
    ``nodes``, oldest first, with the slope at the newest node: the Hermite
    basis products, the slope weight divided by the step t_new - nodes[-1]."""
    *old, last = nodes
    h = t_new - last

    def lagrange(j):
        out = 1
        for k, tk in enumerate(nodes):
            if k != j:
                out *= (t_new - tk) / (nodes[j] - tk)
        return out

    psi = 1
    for tk in nodes:
        psi *= t_new - tk
    for tk in old:
        psi /= last - tk
    weights = [lagrange(j) * h / (tj - last) for j, tj in enumerate(old)]
    newest = lagrange(len(old))
    weights.append(newest - psi * sum(1 / (last - tk) for tk in old))
    return weights + [psi / h]


def setup_oracle(alpha1, ratios):
    """``build_setup``'s four weight sets ``(g, G_0..G_p, predictor 1, predictor 2)``
    and error constant at the fraction ``alpha1``, in 50-digit arithmetic:
    the dense stage systems solved by ``mp.lu_solve``, the Hermite predictor
    products on each sub-step's nodes in units of the step, and the
    error-constant formula on those weights. Returns complex and float values."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(50):
        a = mp.mpc(alpha1)
        r = [mp.mpc(v) for v in ratios]
        solve = lambda m, rhs: list(mp.lu_solve(mp.matrix(m.tolist()), mp.matrix(rhs.tolist())))
        g = solve(*stage1_system([1 + rv / a for rv in r], dtype=object))
        G = solve(*stage2_system(a, r, dtype=object))
        nodes = [-rv for rv in reversed(r)]
        pred1 = _hermite_weights(nodes, a)
        pred2 = _hermite_weights(nodes[1:] + [a], mp.mpf(1))
        w = (1 - a,) + tuple(1 + rv for rv in r)
        c = _error_constant(a, w, tuple(g), tuple(G))
        sets = [[complex(v) for v in s] for s in (g, G[:len(r) + 1], pred1, pred2)]
        return sets, float(c)


_ABS_TOL = 1e-9  # the stability module's slack on the root-magnitude bound


def stable_mask_reference(rows: np.ndarray) -> np.ndarray:
    """Schur-Cohn stability of a batch of descending [N, k + 1] coefficient
    rows, by the stability module's earlier kernel: a contiguous transposed
    copy, ``np.compress`` of the regular points, fresh arrays every pass.
    The input is left unchanged."""
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


def step_weights(window, tau):
    """Step and predictor weights of one step of ``tau`` from ``window``,
    by divided differences and Lagrange products on the window's own nodes."""
    t_new = window.times[-1] + tau
    return coeff_variable(window.times, t_new), predictor_weights(window.times, t_new)


def solve_from(rhs, window, tau, weights, predictor, cfg=ImplicitSolveConfig()):
    """``implicit_solve`` of one step of ``tau`` on ``window``'s arrays, with the
    weights as arrays, under the ``np.errstate`` a run holds: ``(y, slope, jac)``."""
    with np.errstate(all="ignore"):
        return implicit_solve(rhs, window.times[-1], window.states, window.slope, window.jac,
                              complex(tau), np.asarray(weights), np.asarray(predictor), cfg)


def draw_ratios(rng, p):
    """Step-ladder ratios: r_1 = 0, then cumulative gaps over a random step."""
    gaps = rng.uniform(0.5, 2.0, size=p - 1)
    tau = rng.uniform(0.6, 1.6)
    r = [0.0]
    acc = 0.0
    for gap in gaps:
        acc += gap
        r.append(acc / tau)
    return tuple(r)


def draw_alpha(rng):
    return complex(rng.uniform(0.15, 0.9), rng.uniform(0.4, 1.3))


def draw_eps(rng, p):
    """Well-separated complex offsets in a moderate annulus."""
    while True:
        eps = rng.uniform(0.5, 2.0, p) * np.exp(1j * rng.uniform(-2.5, 2.5, p))
        ok = all(
            abs(eps[i] - eps[j]) > 0.1 for i in range(p) for j in range(i + 1, p)
        )
        if ok and np.min(np.abs(eps)) > 0.2:
            return tuple(complex(e) for e in eps)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

"""Backward-difference coefficient generation and the implicit one-step solve.

The implicit step returns the state at one new node and the slope there,
and a caller that keeps the node shifts its window, slope included.
``implicit_solve`` does the work on raw arrays, under an ``np.errstate``
its caller holds once per step or per run; ``bdf_step`` is its checked
entry point for one step from a window. Its weights come from the
caller: the step weights ``(g_0, g_1..g_p)`` and the predictor weights
that extrapolate the window, states and newest slope, to the new node.
``coeff_fixed`` and ``predictor_weights`` give both for a uniform grid,
and a composed step passes the two sets of each that its
``CompositionSetup`` carries as arrays. A fixed-point sweep from
the predictor runs while each sweep gains a digit; a slower or diverging
one hands over to a simplified Newton that builds one finite-difference
Jacobian and one factorization per solve, refreshing them once if an
increment fails to shrink.
``coeff_variable`` builds the weight tuple of any distinct, possibly
complex, node set from divided-difference products; it is the reference
the closed forms are checked against, and no step calls it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DuplicateEps,
    DuplicateNode,
    NoConvergence,
    OrderOutOfRange,
    SingularJacobian,
    SingularMatrix,
)
from .polyroot import solve_dense

MAX_ORDER = 8

RhsFunction = Callable[[complex, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class HistoryWindow:
    """p time nodes with their p state vectors, oldest first, and the newest slope.

    ``states`` is one read-only ``[p, d]`` complex array; the constructor
    copies whatever sequence of states it is given. ``slope`` is the
    derivative ``f(times[-1], states[-1])``, a ``[d]`` complex array, or
    None when the window does not know it; a step from a window without
    one evaluates it with one RHS call.
    """

    times: tuple
    states: np.ndarray
    slope: Optional[np.ndarray] = None

    def __post_init__(self):
        times = tuple(complex(t) for t in self.times)
        rows = [np.atleast_1d(np.asarray(y, dtype=complex)) for y in self.states]
        if len(times) != len(rows):
            raise ValueError("times and states must have equal length")
        if not 1 <= len(times) <= MAX_ORDER:
            raise ValueError(f"window length must be in [1, {MAX_ORDER}], got {len(times)}")
        for a, b in zip(times, times[1:]):
            if not b.real > a.real:
                raise ValueError("times must be strictly increasing in real part")
        if len({r.shape for r in rows}) > 1:
            raise ValueError("states must share one shape")
        if rows[0].ndim != 1:
            raise ValueError("each state must be a vector")
        states = np.array(rows)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if self.slope is not None:
            slope = np.array(self.slope, dtype=complex)
            if slope.shape != rows[0].shape:
                raise ValueError("slope must have the shape of a state")
            slope.setflags(write=False)
            object.__setattr__(self, "slope", slope)

    @property
    def p(self) -> int:
        return len(self.times)

    def advanced(self, t_new: complex, y_new, slope=None) -> "HistoryWindow":
        """Drop the oldest node and append (t_new, y_new), in a fresh array.

        ``slope`` is the derivative at the new node, or None. Skips
        re-validation: shifting a valid window by a forward node preserves
        every invariant.
        """
        states = self.states.copy()
        states[:-1] = self.states[1:]
        states[-1] = y_new
        return self._shifted(t_new, states, slope)

    def _shifted(self, t_new: complex, states: np.ndarray, slope=None) -> "HistoryWindow":
        """The window at ``times[1:] + (t_new,)`` over ``states``, a ``[p, d]`` array
        the caller hands over and this freezes, with a read-only view of ``slope``."""
        states.setflags(write=False)
        if slope is not None:
            slope = slope.view()
            slope.setflags(write=False)
        win = object.__new__(HistoryWindow)
        object.__setattr__(win, "times", self.times[1:] + (complex(t_new),))
        object.__setattr__(win, "states", states)
        object.__setattr__(win, "slope", slope)
        return win


@dataclass(frozen=True)
class ImplicitSolveConfig:
    """Stopping rule and iteration budget for the implicit solve.

    Newton gets ``max(1, max_iterations // 2)`` iterations and the sweep
    the rest, but at least one: one each at ``max_iterations = 1``. Every
    production step uses the defaults.
    """

    tol: float = 1e-13
    max_iterations: int = 200

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def coeff_fixed(p: int) -> tuple:
    """Uniform-grid weights (g_0, ..., g_p) of order p, exact rationals evaluated in floats."""
    if not 1 <= p <= MAX_ORDER:
        raise OrderOutOfRange(f"order must be in [1, {MAX_ORDER}], got {p}")
    weights = []
    for i in range(p + 1):
        acc = Fraction(0)
        for j in range(max(1, i), p + 1):
            acc += Fraction(math.comb(j, i), j)
        weights.append(complex((-1) ** i * acc))
    return tuple(weights)


def predictor_weights(times: Sequence[complex], t_new: complex) -> tuple:
    """Weights of the degree-p extrapolant at ``t_new``: p state weights, then one slope weight.

    The extrapolant is the polynomial through the p states, oldest node
    first, whose derivative at the newest node is the window's slope. The
    state weights multiply the states; the slope weight multiplies the
    slope times the step ``h = t_new - times[-1]``. The weights depend only
    on the nodes' relative positions, so a caller may pass the nodes in
    units of the step. ``t_new`` must differ from every node.
    """
    last = len(times) - 1
    t_last = times[last]
    h = t_new - t_last
    weights = []
    for j in range(last):
        tj = times[j]
        # the Lagrange weight of t_j on the nodes with the newest one doubled
        c = h / (tj - t_last)
        for k, tk in enumerate(times):
            if k != j:
                c *= (t_new - tk) / (tj - tk)
        weights.append(c)
    # the newest value and the slope share the newest node's Lagrange weight
    lagrange_last = 1.0 + 0j
    recip = 0j
    for tk in times[:last]:
        d = t_last - tk
        lagrange_last *= (t_new - tk) / d
        recip += 1.0 / d
    weights.append(lagrange_last * (1.0 - h * recip))
    weights.append(lagrange_last)
    return tuple(weights)


def _check_distinct(points: Sequence[complex]):
    scale = max(1.0, max(abs(t) for t in points))
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if abs(points[i] - points[j]) <= 1e-14 * scale:
                raise DuplicateNode(
                    f"nodes {points[i]} and {points[j]} coincide within 1e-14 relative"
                )


def coeff_variable(times: Sequence[complex], t_new: complex) -> tuple:
    """Variable-node weights ``(g_0, ..., g_p)`` via divided-difference products.

    ``times`` are the p history nodes oldest first; the step is
    ``t_new - times[-1]``. The weights satisfy the order-p moment system
    in the scaled offsets (t_new - t_j)/(t_new - times[-1]).
    """
    times = tuple(complex(t) for t in times)
    t_new = complex(t_new)
    p = len(times)
    if not 1 <= p <= MAX_ORDER:
        raise OrderOutOfRange(f"window length must be in [1, {MAX_ORDER}], got {p}")
    _check_distinct(times + (t_new,))
    # T[k] is the k-th newest point, T[0] the target
    T = (t_new,) + tuple(reversed(times))
    tau = t_new - times[-1]
    weights = []
    for j in range(p + 1):
        acc = 0j
        for m in range(max(1, j), p + 1):
            b = tau
            for l in range(1, m):
                b *= T[0] - T[l]
            c = 1.0 + 0j
            for l in range(0, m + 1):
                if l != j:
                    c /= T[j] - T[l]
            acc += b * c
        weights.append(acc)
    return tuple(weights)


def g_closed_form(eps: Sequence[complex]) -> tuple:
    """Closed-form weights from the scaled node offsets eps_1..eps_p.

    g_0 is the sum of reciprocals; each g_i is a signed product of offset
    ratios. Matches the dense solve of the moment system for distinct,
    nonzero offsets.
    """
    eps = tuple(map(complex, eps))
    tol = 1e-14 * max(1.0, max(map(abs, eps)))
    if any([abs(e) <= tol for e in eps]):
        raise DuplicateEps("offsets must be nonzero")
    weights = [sum([1.0 / e for e in eps])]
    sign = (-1) ** len(eps)
    for i, ei in enumerate(eps):
        prod = 1.0 + 0j
        for j, ej in enumerate(eps):
            if j != i:
                diff = ei - ej
                if abs(diff) <= tol:
                    raise DuplicateEps(f"offsets {eps[min(i, j)]} and {eps[max(i, j)]} coincide")
                prod *= ej / diff
        weights.append(sign / ei * prod)
    return tuple(weights)


def _inverse_jacobian(residual, y, res):
    """Invert the finite-difference Jacobian of ``residual`` at ``y``."""
    d = y.shape[0]
    jac = np.empty((d, d), dtype=complex)
    for i in range(d):
        h = 1e-7 * (1.0 + abs(y[i]))
        yp = y.copy()
        yp[i] += h
        jac[:, i] = (residual(yp) - res) / h
    try:
        return solve_dense(jac, np.eye(d))
    except SingularMatrix as exc:
        raise SingularJacobian(str(exc)) from exc


def _newton(residual, y0, tol: float, budget: int, t_new: complex):
    """Simplified Newton: one Jacobian and one factorization for the solve.

    Each iteration costs one residual and one mat-vec. The first increment
    that fails to shrink refreshes the Jacobian once, at the current
    iterate; a second failure or an exhausted budget raises NoConvergence.
    """
    y = np.array(y0, dtype=complex)
    res = residual(y)
    inv = _inverse_jacobian(residual, y, res)
    refreshed = False
    prev_size = math.inf
    for _ in range(budget):
        delta = inv @ res
        size = float(np.abs(delta).max())
        if not size < prev_size:
            if refreshed:
                break
            refreshed = True
            inv = _inverse_jacobian(residual, y, res)
            delta = inv @ res
            size = float(np.abs(delta).max())
        y = y - delta
        if size < tol:
            return y
        prev_size = size
        res = residual(y)
    raise NoConvergence(f"newton did not converge in {budget} iterations at t={t_new}")


def bdf_step(
    rhs: RhsFunction,
    window: HistoryWindow,
    tau: complex,
    weights: Sequence[complex],
    predictor: Sequence[complex],
    cfg: ImplicitSolveConfig = ImplicitSolveConfig(),
) -> tuple:
    """Solve one implicit step of size ``tau`` past the window.

    ``weights`` are ``(g_0, g_1..g_p)`` for the window's nodes and the target
    ``window.times[-1] + tau``: ``g_0`` multiplies the unknown and ``g_j``
    the j-th newest history state, as ``coeff_fixed`` returns them.
    ``predictor`` holds the ``predictor_weights`` of the window's nodes at
    the target. Either may be an array, which the step reads as it is, or a
    sequence, which it converts. Returns ``(y, slope)``: the ``[d]`` complex
    state at the target and ``f(target, y)``; the window is left unchanged.
    Checks the weight counts, then runs ``implicit_solve`` under one ``np.errstate``.
    """
    p = len(window.times)
    if len(weights) != p + 1:
        raise ValueError(f"need {p + 1} weights for {p} nodes, got {len(weights)}")
    if len(predictor) != p + 1:
        raise ValueError(f"need {p + 1} predictor weights, got {len(predictor)}")
    with np.errstate(all="ignore"):
        return implicit_solve(rhs, window.times[-1], window.states, window.slope, complex(tau),
                              np.asarray(weights), np.asarray(predictor), cfg)


def implicit_solve(rhs, t_last, states, slope, tau, weights, predictor,
                   cfg=ImplicitSolveConfig()) -> tuple:
    """``bdf_step`` on raw arrays: the ``[p, d]`` history ``states`` ending at
    node ``t_last``, the ``slope`` there or None (one RHS call), and the two
    weight arrays. It checks no lengths and its caller holds
    ``np.errstate(all="ignore")``, so an overflowing sweep hands over to
    Newton quietly. A step that does not advance real time raises ValueError.

    The fixed-point sweep starts from the predictor, the history's degree-p
    extrapolant at the target, and its last RHS value is the slope; once a
    sweep contracts by less than a factor of ten, or diverges, the solve
    restarts from the predictor with a simplified Newton, whose slope
    ``(g_0 y + hist) / tau`` follows from the step's own equation.
    """
    t_new = t_last + tau
    if not t_new.real > t_last.real:
        raise ValueError("step must advance the real part of time")
    if slope is None:
        slope = rhs(t_last, states[-1])
    g0 = weights[0]
    hist = weights[:0:-1] @ states
    y_start = predictor[:-1] @ states + (predictor[-1] * tau) * slope

    # each sweep is y <- (tau f(y) - hist) / g0, with both quotients taken once
    tau_g0, hist_g0 = tau / g0, hist / g0
    y = y_start
    newton_budget = max(1, cfg.max_iterations // 2)
    prev_step = None
    for _ in range(max(1, cfg.max_iterations - newton_budget)):
        f = rhs(t_new, y)
        y_new = tau_g0 * f - hist_g0
        step = float(np.maximum.reduce(np.abs(y_new - y)))
        if not math.isfinite(step):
            break
        if step < cfg.tol:
            return y_new, np.array(f, dtype=complex)
        # a sweep that gains less than one digit hands over to Newton
        if prev_step is not None and step > 0.1 * prev_step:
            break
        prev_step = step
        y = y_new

    def residual(y):
        return g0 * y + hist - tau * np.asarray(rhs(t_new, y), dtype=complex)

    y = _newton(residual, y_start, cfg.tol, newton_budget, t_new)
    return y, (y + hist_g0) / tau_g0

"""Backward-difference coefficient generation and the implicit one-step solve.

The implicit step, ``implicit_solve``, returns the state at one new node
and the slope there; a run stores each state in one array whose rows
later steps read as views. The step works on raw arrays, under an
``np.errstate`` its caller holds once per step or per run. Its weights
come from the caller: the step weights ``(g_0, g_1..g_p)`` and the
predictor weights that extrapolate the history, states and newest slope,
to the new node. ``coeff_fixed`` and ``predictor_weights`` give both for
a uniform grid, and a composed step passes the two sets of each that its
``CompositionSetup`` carries as arrays. Until a run first needs Newton,
a fixed-point sweep from the predictor runs while each sweep gains a
digit; a slower or diverging one hands over to a simplified Newton, which
builds the RHS Jacobian J = df/dy by finite differences, d RHS calls.
The window keeps J from then on, like its slope, and every later solve
skips the sweep: Newton starts from the predictor on the solve's own
matrix ``g_0 I - tau J``, inverted once per solve. J is rebuilt at the
current iterate when an increment shrinks by less than a factor of a
hundred; after that, an increment that fails to shrink raises
NoConvergence. A solve handed a kept J that fails so is retried once as a
solve without one: Newton from the predictor, with J built there.
``coeff_variable`` builds the weight tuple of any distinct, possibly
complex, node set from divided-difference products; it is the reference
the closed forms are checked against, and no step calls it.
"""
from __future__ import annotations

import math
import operator
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
_SINGULAR_RTOL = 1e-8  # of the Newton matrix's terms, see _newton_operator

RhsFunction = Callable[[complex, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class HistoryWindow:
    """p time nodes with their p state vectors, oldest first, and the newest slope.

    ``states`` is one read-only ``[p, d]`` complex array; the constructor
    copies whatever sequence of states it is given. ``slope`` is the
    derivative ``f(times[-1], states[-1])``, a ``[d]`` complex array, or
    None when the window does not know it; a step from a window without
    one evaluates it with one RHS call. ``jac`` is the RHS Jacobian
    ``df/dy`` that the run keeps, a read-only ``[d, d]`` complex array
    built near some earlier state, or None until a solve has needed one.
    """

    times: tuple
    states: np.ndarray
    slope: Optional[np.ndarray] = None
    jac: Optional[np.ndarray] = None

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
        if self.jac is not None:
            jac = np.array(self.jac, dtype=complex)
            if jac.shape != rows[0].shape * 2:
                raise ValueError("jac must be a square matrix of the state's size")
            jac.setflags(write=False)
            object.__setattr__(self, "jac", jac)

    @property
    def p(self) -> int:
        return len(self.times)

    def _shifted(self, t_new: complex, states: np.ndarray, slope=None, jac=None) -> "HistoryWindow":
        """The window at ``times[1:] + (t_new,)`` over ``states``, a ``[p, d]`` array
        the caller hands over and this freezes, with read-only views of ``slope``
        and ``jac``."""
        states.setflags(write=False)
        if slope is not None:
            slope = slope.view()
            slope.setflags(write=False)
        # a kept Jacobian passes from window to window already frozen
        if jac is not None and jac.flags.writeable:
            jac = jac.view()
            jac.setflags(write=False)
        win = object.__new__(HistoryWindow)
        object.__setattr__(win, "times", self.times[1:] + (complex(t_new),))
        object.__setattr__(win, "states", states)
        object.__setattr__(win, "slope", slope)
        object.__setattr__(win, "jac", jac)
        return win


@dataclass(frozen=True)
class ImplicitSolveConfig:
    """Stopping rule and iteration budget for the implicit solve.

    Newton gets ``max(1, max_iterations // 2)`` iterations and the sweep
    the rest, but at least one: one each at ``max_iterations = 1``. A solve
    from a window that keeps a Jacobian runs no sweep, and Newton's share
    stays the same. Every production step uses the defaults.
    """

    tol: float = 1e-13
    max_iterations: int = 200

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        try:
            iterations = operator.index(self.max_iterations)
        except TypeError:
            raise ValueError(f"max_iterations {self.max_iterations!r} is not an integer") from None
        if iterations < 1:
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


def _jacobian(rhs, t, y, f):
    """Finite-difference Jacobian of ``rhs`` at ``(t, y)``, where it is ``f``: d RHS calls."""
    d = y.shape[0]
    jac = np.empty((d, d), dtype=complex)
    for i in range(d):
        h = 1e-7 * (1.0 + abs(y[i]))
        yp = y.copy()
        yp[i] += h
        jac[:, i] = (rhs(t, yp) - f) / h
    return jac


def _newton_operator(g0, tau, hist, jac):
    """``(B, c)``, ``tau M^-1`` and ``M^-1 hist``, for the Newton matrix ``M = g0 I - tau J``.

    A Newton iterate is then ``y <- B (f(y) - J y) - c``; with J = 0 it is
    the sweep. A finite-difference J carries roundoff near 1e-9 of its
    entries, so a row of M may be pure roundoff where ``g0`` and ``tau J``
    cancel. M counts as singular once its inverse, with each row of M
    scaled by the size of its terms, ``|g0| + sum_j |tau J_ij|``, exceeds
    ``1 / _SINGULAR_RTOL``; a stiff row far from the others scales itself.
    """
    eye = np.eye(jac.shape[0])
    tau_jac = tau * jac
    try:
        inv = solve_dense(g0 * eye - tau_jac, eye)
    except SingularMatrix as exc:
        raise SingularJacobian(str(exc)) from exc
    # (D^-1 M)^-1 = M^-1 D scales column j of the inverse by row j's terms
    size = float(np.maximum.reduce(np.abs(inv) * (abs(g0) + np.abs(tau_jac).sum(axis=1)),
                                   axis=None))
    if size > 1.0 / _SINGULAR_RTOL:
        raise SingularJacobian(
            f"row-scaled newton matrix inverse {size:.3e} above 1 / {_SINGULAR_RTOL:.0e}"
        )
    return tau * inv, inv @ hist


def _newton(rhs, t_new, y, f, g0, hist, tau, jac, tol: float, budget: int):
    """Simplified Newton from ``y``, where the RHS is ``f``, on ``g0 I - tau J``.

    ``jac`` is the RHS Jacobian the caller keeps, or None to build one at
    ``y``. Each iteration costs one RHS call and two mat-vecs. The
    iteration stops once an increment is below ``tol`` or once the error
    that the contraction rate of two increments made with the same J
    predicts is; the increment right after a rebuild has no rate. J is
    rebuilt once, at the current iterate: a J kept from an earlier solve at
    the first increment that shrinks by less than a factor of a hundred, a J
    built here at the first that fails to shrink. After the rebuild an
    increment that fails to shrink, or an exhausted budget, raises
    NoConvergence. Returns the solution and the J it ended with.
    """
    # near the solution a current J gains far more than two digits an
    # iteration, so a kept J that gains less is stale, and one rebuild costs
    # less than the iterations it saves; a J built here is current, though
    # its first increments may shrink slowly
    stale_rate = 0.01
    if jac is None:
        jac = _jacobian(rhs, t_new, y, f)
        stale_rate = 1.0
    B, c = _newton_operator(g0, tau, hist, jac)
    refreshed = False
    prev_size = math.inf
    for k in range(1, budget + 1):
        y_new = B @ (f - jac @ y) - c
        size = float(np.maximum.reduce(np.abs(y_new - y)))
        # the rate of the last two increments, when one J made both
        base = prev_size
        if not refreshed and not size < stale_rate * prev_size:
            refreshed = True
            jac = _jacobian(rhs, t_new, y, f)
            B, c = _newton_operator(g0, tau, hist, jac)
            y_new = B @ (f - jac @ y) - c
            size = float(np.maximum.reduce(np.abs(y_new - y)))
            base = math.inf
        elif refreshed and not size < prev_size:
            raise NoConvergence(
                f"newton stopped at iteration {k} of {budget} at t={t_new}: the increment "
                f"{size:.3e} did not shrink after the Jacobian refresh"
            )
        y = y_new
        # done once the increment, or the error its rate r predicts, r/(1-r) * size, is below tol
        if size < tol or (base < math.inf and size * size < tol * (base - size)):
            return y, jac
        prev_size = size
        f = rhs(t_new, y)
    raise NoConvergence(
        f"newton stopped at iteration {budget} of {budget} at t={t_new}: the iteration "
        f"budget ran out"
    )


def implicit_solve(rhs, t_last, states, slope, jac, tau, weights, predictor,
                   cfg=ImplicitSolveConfig()) -> tuple:
    """One implicit step of size ``tau`` past the ``[p, d]`` history ``states``,
    which ends at node ``t_last`` with the ``slope`` there or None (one RHS
    call) and the kept RHS Jacobian ``jac`` or None. The ``weights`` array
    ``(g_0, g_1..g_p)`` is in ``coeff_fixed``'s order: ``g_0`` multiplies the
    unknown, ``g_j`` the j-th newest state. ``predictor`` holds the history's
    ``predictor_weights`` at the target. Returns ``(y, slope, jac)``: the
    ``[d]`` complex state at the target, the RHS there, and the Jacobian to
    keep (the one handed in, a rebuilt one, or None while no solve has needed
    one). It checks no lengths and its caller holds ``np.errstate(all="ignore")``,
    so an overflowing sweep hands over to Newton quietly. A step that does
    not advance real time raises ValueError.

    Without a Jacobian, a fixed-point sweep starts from the predictor, the
    history's degree-p extrapolant at the target, and its last RHS value is
    the slope; once a sweep contracts by less than a factor of ten, or
    diverges, the solve restarts from the predictor with a simplified Newton
    that builds J there, reusing the sweep's first RHS value. With a
    Jacobian, Newton starts from the predictor at once, and if it raises
    NoConvergence, runs once more as that Newton without one. Newton's slope
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
    f_start = rhs(t_new, y_start)

    # each sweep is y <- (tau f(y) - hist) / g0, with both quotients taken once
    tau_g0, hist_g0 = tau / g0, hist / g0
    newton_budget = max(1, cfg.max_iterations // 2)
    if jac is None:
        y, f = y_start, f_start
        prev_step = None
        for k in range(max(1, cfg.max_iterations - newton_budget)):
            if k:
                f = rhs(t_new, y)
            y_new = tau_g0 * f - hist_g0
            step = float(np.maximum.reduce(np.abs(y_new - y)))
            if not math.isfinite(step):
                break
            if step < cfg.tol:
                return y_new, np.array(f, dtype=complex), None
            # a sweep that gains less than one digit hands over to Newton
            if prev_step is not None and step > 0.1 * prev_step:
                break
            prev_step = step
            y = y_new

    try:
        y, jac = _newton(rhs, t_new, y_start, f_start, g0, hist, tau, jac, cfg.tol, newton_budget)
    except NoConvergence:
        if jac is None:
            raise
        # a kept J can spend its one rebuild far from the root: build J here
        y, jac = _newton(rhs, t_new, y_start, f_start, g0, hist, tau, None, cfg.tol, newton_budget)
    return y, (y + hist_g0) / tau_g0, jac

"""The two-jump composed flow: one base step of complex fraction alpha1,
then one of 1 - alpha1, whose real output gains one order of accuracy and
whose imaginary part estimates the local error. Both sub-steps run on raw
arrays under one ``np.errstate``, in p + 1 rows of the caller's state array,
so a step allocates no window, history or record.

The sub-step fraction, the positive-real-part root of an algebraic
equation in the step ratios, comes from a scalar Newton iteration on
``_fraction_equation``, started from the uniform ladder's root; the
cleared polynomial only feeds the companion matrix. Both weight sets, both
sub-steps' predictor weights and the error constant then follow from one
scalar pass over one table of ratio differences, and become arrays once per
setup. Bad ratios raise ValueError first, and a failed check a typed error.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .bdf_core import (
    HistoryWindow,
    ImplicitSolveConfig,
    RhsFunction,
    implicit_solve,
)
from .errors import (
    DegenerateDenominator,
    DegenerateImaginaryPart,
    DuplicateEps,
    NoAdmissibleRoot,
    NoConvergence,
    PoleEvaluation,
)
from .polyroot import find_roots


@dataclass(frozen=True, eq=False)
class CompositionSetup:
    """Everything one composed step needs, derived from the step ratios."""

    p: int
    alpha1: complex
    error_constant: float
    # (weights, predictor) arrays of each sub-step, as implicit_solve takes them: the
    # first-stage weights g_0..g_p with the predictor weights of the window's
    # nodes, then the second-stage weights G_0..G_p with those of the
    # intermediate history; each set is in units of its own sub-step
    step1: tuple
    step2: tuple

    def error_estimate(self, raw: np.ndarray) -> float:
        """The local-error estimate of a step whose result has imaginary part ``raw``."""
        return abs(self.error_constant) * float(np.abs(raw).max())


@dataclass(frozen=True)
class ComposedStepOutput:
    """Result of one composed step; the complex result is y_real + 1j*error_estimate_raw."""

    y_real: np.ndarray
    error_estimate_raw: np.ndarray
    error_estimate: float


def ratios_from_window(window: HistoryWindow, tau: float) -> tuple:
    """Backward node distances scaled by the upcoming step: r_j = (t_{n-1} - t_{n-j}) / tau."""
    return ratios_from_times(window.times, tau)


def ratios_from_times(times: Sequence[complex], tau: float) -> tuple:
    """``ratios_from_window`` for the node times ``times``, oldest first."""
    return tuple([(times[-1] - t) / tau for t in reversed(times)])


def alpha1_polynomial(ratios: Sequence[complex]) -> np.ndarray:
    """Ascending complex coefficients of the cleared sub-step fraction equation.

    Multiplying (1-a)^2 * sum_j a/(a+r_j) + a^2 (1 + r_p/a) = 0 by
    prod_j (a+r_j) and deflating the spurious root a = 0 (introduced by
    r_1 = 0) leaves (1-a)^2 (aP)' + (a^2 + r_p a) P with P = prod_{j>=2} (a+r_j),
    a polynomial of degree p+1 with leading coefficient p+1.
    """
    r = np.asarray(ratios, dtype=complex)
    P = reduce(np.convolve, [[rj, 1.0] for rj in r[1:]], np.ones(1, dtype=complex))
    # (aP)' has a^k coefficient (k+1) P_k
    return (np.convolve([1.0, -2.0, 1.0], np.arange(1, len(P) + 1) * P)
            + np.convolve([0.0, r[-1], 1.0], P))


def _fraction_equation(a: complex, c: Sequence[complex], s: float) -> tuple:
    """``(F, dF/da, dF/ds)`` for F(a; s) = (1-a)^2 sum_j a/(a + c_j s) + a^2 + c_p s a,
    the equation ``alpha1_polynomial`` clears, on the ladder r_j = c_j s."""
    S = T = 0.0
    for cj in c:
        qj = 1.0 / (a + cj * s)
        S += qj
        T += cj * qj * qj
    S = a * S  # dS/da = s T, dS/ds = -a T
    u2 = (1.0 - a) ** 2
    return (u2 * S + a * a + c[-1] * s * a,
            u2 * s * T - 2.0 * (1.0 - a) * S + 2.0 * a + c[-1] * s,
            c[-1] * a - u2 * a * T)


def crossing_ratio(c: Sequence[float]) -> float:
    """The step ratio 1/s at which the admissible root on the ladder r_j = c_j s,
    c in units of the newest gap, reaches the imaginary axis at a = iy: Newton's
    method on Re F = Im F = 0 (``_fraction_equation``) in (y, s) from (1, 1)."""
    y, s = 1.0, 1.0
    for _ in range(30):
        F, Fa, Fs = _fraction_equation(1j * y, c, s)
        # i Fa dy + Fs ds = F splits into two real equations by conj(Fs) and conj(Fa);
        # a singular system takes NaN steps, which never settle
        det = (Fa.conjugate() * Fs).real or math.nan
        dy, ds = (Fs.conjugate() * F).imag / det, (Fa.conjugate() * F).real / det
        y, s = y - dy, s - ds
        if abs(dy) <= 1e-13 * abs(y) and abs(ds) <= 1e-13 * abs(s):
            return 1.0 / s
    raise NoConvergence(f"no imaginary-axis crossing found in 30 steps for the ladder {c}")


def _ladder(ratios: Sequence[complex]) -> tuple:
    """The ratios, as floats on a real ladder; ValueError unless finite and r_1 = 0."""
    r = tuple(map(complex, ratios))
    if not all(map(cmath.isfinite, r)) or r[:1] != (0,):
        raise ValueError(f"step ratios must be finite and start at 0, got {r}")
    x = tuple([v.real for v in r])
    return x if x == r else r


def _stage_weights(a: complex, r: tuple) -> tuple:
    """``(w, g, G, pred1, pred2, F)`` at the fraction ``a`` on the ladder ``r``: the second
    sub-step's node offsets, both weight sets, both predictor sets and F(a; 1) of
    ``_fraction_equation``, from one table of ratio differences D_j = prod_{k != j} (r_j - r_k).
    With A_j = a + r_j, g_j is (-1)^p a prod(A) / (A_j^2 D_j), and g_0 closes the set through
    its zero-sum row as G_0 does; F and the checks read g_0 = a sum_j 1/A_j instead. The first
    predictor weighs an older node A_j g_j / r_j and the newest -g_1. The second-stage offsets
    w = (1 - a, 1 + r_j) differ by r_j - r_k, and by -A_j against the intermediate node, so
    G's Lagrange denominators are w_j A_j D_j, and the second predictor drops the oldest node
    by (r_p - r_j) / w_p."""
    p = len(r)
    A = [a + rv for rv in r]
    if min(mags := [abs(Aj) for Aj in A]) <= 1e-14 * max(*mags, abs(a)):
        raise DuplicateEps("a first-stage offset 1 + r_j/alpha1 vanishes")
    w0, w = 1.0 - a, [1.0 + rv for rv in r]
    P, Wr = math.prod(A), math.prod(w)
    recip = sum([1.0 / Aj for Aj in A[:-1]])
    g0 = a * (recip + 1.0 / A[-1])
    if abs(w0 * g0 - a) < 1e-12 or w0 * P == 0:  # den_0 = (-1)^p w_0 P
        raise DegenerateDenominator(f"|Ebar0*g0 - alpha1| = {abs(w0 * g0 - a):.3e}, Ebar0 = {w0}")
    d0 = 1.0 - a / (w0 * g0)  # 1 + kappa / den_0
    if abs(d0) < 1e-12:
        raise DegenerateDenominator("corrected leading denominator vanished")
    ga = (-1) ** p * a * P  # g_j = ga / (A_j^2 D_j); the rank-one term is kappa = -ga / g0
    rw = -(-1) ** p * w0 * w0 * Wr  # node j's Lagrange quotient is rw / (w_j den_j)
    x0 = -Wr / P / d0
    kx0, rp, wp = ga / g0 * x0, r[-1], w[-1]
    g, G, pred1, pred2 = [g0], [0.0, x0], [], []
    for j, rj in enumerate(r):
        AD = A[j]  # A_j D_j
        for rk in r[:j] + r[j + 1:]:
            AD *= rj - rk
        den = w[j] * AD
        if den == 0:
            raise DegenerateDenominator("coincident node offsets")
        g.append(ga / (A[j] * AD))
        G.append((rw / w[j] + kx0) / den)
        if j:
            pred1.insert(0, ga / (AD * rj))
        if j < p - 1:
            pred2.insert(0, rw * (rp - rj) / (den * wp * A[j]))
    G[0] = -sum(G)
    g[0] = -sum(g[1:])  # the weights close through the zero-sum row, as G does
    L = Wr / P * A[-1] / wp
    pred1 += [-g[1] * (1.0 - a * sum([1.0 / rv for rv in r[1:]])), -g[1]]
    pred2 += [L * (1.0 - w0 * recip), L]
    return [w0] + w, g, G, pred1, pred2, w0 * w0 * g0 + a * (a + rp)


def G_coefficients(alpha1: complex, ratios: Sequence[complex]) -> tuple:
    """Second-stage weights G_0..G_{p+1} in closed form: the Lagrange solution of the
    (p+2)-square moment system (Vandermonde rows in the node offsets plus a rank-one
    correction carrying the first jump's leading error) over ``build_setup``'s table of
    ratio differences. G_0 closes the set through the zero-sum row."""
    return tuple(_stage_weights(complex(alpha1), _ladder(ratios))[2])


# Newton steps allowed before the companion matrix takes over; from the
# uniform root, the adaptive driver's clamped ladders settle in 1 to 6
_NEWTON_MAX_ITER = 20


def _newton_root(r: tuple, z: complex):
    """Newton's root of ``_fraction_equation`` on the ladder ``r`` from ``z``, or
    None unless a step falls below 1e-14 of the root within _NEWTON_MAX_ITER."""
    for _ in range(_NEWTON_MAX_ITER):
        try:
            F, Fa, _ = _fraction_equation(z, r, 1.0)
            step = F / Fa
        except ZeroDivisionError:  # z on a pole of F, or a flat slope
            return None
        z -= step
        if abs(step) <= 1e-14 * abs(z):
            return z
    return None


def _companion_root(r: tuple) -> complex:
    """The root solve_alpha1 picks, from all companion-matrix roots."""
    admissible = [z for z in find_roots(alpha1_polynomial(r)) if z.real > 0.0]
    if not admissible:
        raise NoAdmissibleRoot(f"no positive-real-part root for ratios {r}")
    upper = [z for z in admissible if z.imag > 0.0]
    return max(upper or admissible, key=lambda z: z.real)


@lru_cache(maxsize=None)
def _uniform_root(p: int) -> complex:
    """The admissible root of the uniform ladder 0, 1, .., p - 1."""
    return _companion_root(tuple(complex(j) for j in range(p)))


def _admissible_root(r: tuple) -> tuple:
    """``(alpha1, _stage_weights(alpha1, r))`` for the root solve_alpha1 picks.

    ``r`` is a ladder as ``_ladder`` returns it. On a real ladder, Newton's
    iteration on ``_fraction_equation`` from the uniform ladder's root is
    kept when it settles in the open upper-right quadrant: at most one root
    lies there, so it is the root the companion rule picks. Otherwise every
    root comes from the companion matrix and the rule of solve_alpha1 picks one.
    """
    z = _newton_root(r, _uniform_root(len(r))) if type(r[0]) is float else None
    if z is None or not (z.real > 0.0 and z.imag > 0.0):
        z = _companion_root(r)
    table = _stage_weights(z, r)
    if abs(table[2][-1]) > 1e-9:
        raise NoConvergence(f"refined root leaves |G_(p+1)| = {abs(table[2][-1]):.3e}")
    return z, table


def solve_alpha1(ratios: Sequence[complex]) -> complex:
    """The admissible sub-step fraction for these ratios.

    Among roots with positive real part, prefers positive imaginary part,
    then the largest real part. For real ratio ladders at most one root
    lies in the open upper-right quadrant, so the choice depends on the
    ratios alone, and Newton's iteration on ``_fraction_equation`` from the
    uniform ladder's root usually finds it without the companion matrix.
    Raises NoAdmissibleRoot when every root has Re <= 0, and NoConvergence
    when the root leaves the trailing weight G_(p+1) above 1e-9.
    """
    return _admissible_root(_ladder(ratios))[0]


_GBAR_FORMS = {
    1: (
        lambda a: (a - 1) * (2 * a**2 - 2 * a + 1),
        lambda a: a * (2 * a - 1),
    ),
    2: (
        lambda a: -(a - 1) * (3 * a**3 - a**2 + a + 1),
        lambda a: 2 * (a + 1) * (3 * a**2 - 1),
    ),
    3: (
        lambda a: (a - 1) * (4 * a**4 + 5 * a**3 + a**2 + 6 * a + 2),
        lambda a: 6 * (2 * a + 1) * (a + 2) * (a**2 + a - 1),
    ),
    4: (
        lambda a: -(a - 1) * (5 * a**5 + 19 * a**4 + 19 * a**3 + 19 * a**2 + 28 * a + 6),
        lambda a: 4 * (a + 3) * (5 * a**4 + 20 * a**3 + 15 * a**2 - 10 * a - 6),
    ),
}


def gbar_fixed(p: int, alpha: complex) -> complex:
    """Uniform-grid closed form of the trailing second-stage weight, p = 1..4."""
    if p not in _GBAR_FORMS:
        raise ValueError(f"closed uniform-grid forms exist for p in 1..4, got {p}")
    num, den = _GBAR_FORMS[p]
    alpha = complex(alpha)
    n, d = num(alpha), den(alpha)
    if abs(d) < 1e-12 * max(1.0, abs(n)):
        raise PoleEvaluation(f"denominator {abs(d):.3e} too close to a pole")
    return n / d


def _error_constant(alpha1: complex, w: tuple, g: tuple, G: tuple) -> float:
    """Real factor mapping the imaginary part to the local error of the real part.

    Built from the second sub-step's node offsets ``w`` and both weight sets.
    """
    p = len(w) - 1
    G1_g0 = G[1] / g[0]
    acc = sum([(G[i + 1] - G1_g0 * g[i]) * w[i] ** (p + 2) for i in range(p + 1)])
    acc += (p + 2) * alpha1 * w[0] ** (p + 1)
    curly = (-1) ** (p + 2) / math.factorial(p + 2) * acc
    ratio = curly / G[0]
    if abs(ratio.imag) < 1e-14 * abs(ratio):
        raise DegenerateImaginaryPart(f"imaginary part of {ratio} is numerically zero")
    return ratio.real / ratio.imag


def build_setup(ratios: Sequence[complex]) -> CompositionSetup:
    """Solve the fraction equation and assemble all per-step constants.

    A pure function of the ratios, r_1 = 0 first: a caller that steps on a
    uniform grid builds the setup once. Past the root, ``_stage_weights`` gives
    every weight in one pass. Raises ValueError on ratios ``_ladder`` refuses,
    NoAdmissibleRoot, NoConvergence when the root leaves |G_(p+1)| or
    ``_fraction_equation`` above 1e-9, DegenerateDenominator on coincident node
    offsets, DuplicateEps on a vanishing one and DegenerateImaginaryPart.
    """
    r = _ladder(ratios)
    alpha1, (w, g, G, pred1, pred2, F) = _admissible_root(r)
    if abs(F) > 1e-9:
        raise NoConvergence(f"root condition violated: |residual| = {abs(F):.3e}")
    p = len(r)
    q = p + 1
    rows = np.array(g + G[:q] + pred1 + pred2, dtype=complex)
    rows.setflags(write=False)
    return CompositionSetup(
        p=p,
        alpha1=alpha1,
        error_constant=_error_constant(alpha1, w, g, G),
        step1=(rows[:q], rows[2 * q:3 * q]),
        step2=(rows[q:2 * q], rows[3 * q:]),
    )


def composed_step(
    rhs: RhsFunction,
    window: HistoryWindow,
    tau: float,
    setup: CompositionSetup,
    cfg: ImplicitSolveConfig = ImplicitSolveConfig(),
) -> tuple:
    """One composed step: two base sub-steps with complex fractions.

    Returns ``(new_window, output)``. The forwarded window carries the real
    part of the composed result at the real node t_{n-1} + tau, with the
    real part of the second sub-step's slope as its slope; the output
    record holds that real part, the imaginary part and its error estimate.
    ``setup`` holds the constants for the window's step ratios,
    ``build_setup(ratios_from_window(window, tau))``; raises ValueError when
    its node count differs from the window's, and otherwise runs
    ``composed_solve`` under one ``np.errstate`` on a copy of the window.
    """
    if setup.p != window.p:
        raise ValueError(f"setup for {setup.p} nodes, window holds {window.p}")
    rows = np.concatenate((window.states, window.states[-1:]))  # the step overwrites the last row
    t_last, tau = window.times[-1], float(tau)
    with np.errstate(all="ignore"):
        y_hat, slope, jac = composed_solve(rhs, t_last, rows, window.slope, window.jac, tau,
                                           setup, cfg)
    return window._shifted(t_last + tau, rows[1:], slope, jac), ComposedStepOutput(
        y_hat.real, y_hat.imag, setup.error_estimate(y_hat.imag))


def composed_solve(rhs, t_last, rows, slope, jac, tau, setup, cfg=ImplicitSolveConfig()) -> tuple:
    """``composed_step`` on raw arrays and a float ``tau``: ``rows`` is a ``[p + 1, d]``
    array whose first p rows hold the history ending at ``t_last``, with its
    ``slope`` and kept ``jac``. Sub-step 1 writes ``rows[p]``, sub-step 2 reads
    ``rows[1:]``, and ``rows[p]`` ends as Re y_hat. Returns ``(y_hat, Re slope, jac)``;
    the caller holds ``np.errstate(all="ignore")``.
    """
    tau1 = setup.alpha1 * tau
    t_half = t_last + tau1
    rows[-1], f_half, jac = implicit_solve(rhs, t_last, rows[:-1], slope, jac, tau1, *setup.step1,
                                           cfg)
    y_hat, f_hat, jac = implicit_solve(rhs, t_half, rows[1:], f_half, jac,
                                       (t_last + tau) - t_half, *setup.step2, cfg)
    rows[-1] = y_hat.real
    return y_hat, f_hat.real, jac

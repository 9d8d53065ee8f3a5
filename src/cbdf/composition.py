"""The two-jump composed flow: one base step of complex fraction alpha1,
then one of 1 - alpha1, whose real output gains one order of accuracy and
whose imaginary part estimates the local error.

The sub-step fraction is the positive-real-part root of an algebraic
equation in the step ratios, found by a scalar Newton iteration from the
uniform ladder's root; the second-stage weights, the error constant and
both sub-steps' predictor weights follow from it in closed form, over
Python scalars, and the weights the two sub-steps read are converted to
arrays once per setup.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bdf_core import (
    HistoryWindow,
    ImplicitSolveConfig,
    RhsFunction,
    bdf_step,
    g_closed_form,
    predictor_weights,
)
from .errors import (
    DegenerateDenominator,
    DegenerateImaginaryPart,
    NoAdmissibleRoot,
    NoConvergence,
    PoleEvaluation,
)
from .polyroot import find_roots


@dataclass(frozen=True, eq=False)
class CompositionSetup:
    """Everything one composed step needs, derived from the step ratios."""

    p: int
    ratios: tuple
    alpha1: complex
    eps: tuple
    g: tuple  # first-stage weights g_0..g_p, for the offsets eps
    G: tuple  # second-stage weights G_0..G_{p+1}; G_0..G_p drive the second sub-step
    error_constant: float
    # (weights, predictor) arrays of each sub-step, as bdf_step takes them: g_0..g_p
    # with the predictor weights of the window's nodes, then G_0..G_p with those of
    # the intermediate window; each set is in units of its own sub-step
    step1: tuple
    step2: tuple

    def __post_init__(self):
        if not self.alpha1.real > 0:
            raise ValueError("alpha1 must have positive real part")
        cond = self.eps[-1] * self.alpha1**2 + self.g[0] * (1.0 - self.alpha1) ** 2
        if abs(cond) > 1e-9:
            raise ValueError(f"root condition violated: |residual| = {abs(cond):.3e}")
        if abs(sum(self.G)) > 1e-10 or abs(self.G[-1]) > 1e-9:
            raise ValueError("second-stage weights violate their sum/vanishing constraints")


@dataclass(frozen=True)
class ComposedStepOutput:
    """Result of one composed step; the complex result is y_real + 1j*error_estimate_raw."""

    y_real: np.ndarray
    error_estimate_raw: np.ndarray
    error_estimate: float
    intermediate: np.ndarray


def ratios_from_window(window: HistoryWindow, tau: float) -> tuple:
    """Backward node distances scaled by the upcoming step: r_j = (t_{n-1} - t_{n-j}) / tau."""
    t_last = window.times[-1]
    return tuple([(t_last - t) / tau for t in reversed(window.times)])


def _alpha1_coeffs(r: tuple) -> list:
    """``alpha1_polynomial`` as a list of Python complex coefficients."""
    P = [1.0 + 0j]  # ascending; the elementary symmetric polynomials of r_2..r_p
    for rj in r[1:]:
        # multiply by (a + rj) in place, highest coefficient first
        P.append(P[-1])
        for k in range(len(P) - 2, 0, -1):
            P[k] = P[k - 1] + rj * P[k]
        P[0] = rj * P[0]
    poly = [0j] * (len(P) + 2)
    r_last = r[-1]
    for k, c in enumerate(P):
        # sum_j a/(a+r_j) times prod_j (a+r_j) = aP is a (aP)', whose a^k coefficient is (k+1) P_k
        d = (k + 1) * c
        poly[k] += d
        poly[k + 1] += r_last * c - 2.0 * d
        poly[k + 2] += c + d
    return poly


def alpha1_polynomial(ratios: Sequence[complex]) -> np.ndarray:
    """Ascending complex coefficients of the cleared sub-step fraction equation.

    Multiplying (1-a)^2 * sum_j a/(a+r_j) + a^2 (1 + r_p/a) = 0 by
    prod_j (a+r_j) and deflating the spurious root a = 0 (introduced by
    r_1 = 0) leaves (1-a)^2 (aP)' + (a^2 + r_p a) P with P = prod_{j>=2} (a+r_j),
    a polynomial of degree p+1 with leading coefficient p+1.
    """
    return np.array(_alpha1_coeffs(tuple(map(complex, ratios))))


def _fraction_equation(a: complex, c: Sequence[float], s: float) -> tuple:
    """``(F, dF/da, dF/ds)`` for F(a; s) = (1-a)^2 sum_j a/(a + c_j s) + a^2 + c_p s a,
    the equation ``alpha1_polynomial`` clears, on the ladder r_j = c_j s."""
    q = [1.0 / (a + cj * s) for cj in c]
    S = a * sum(q)
    T = sum([cj * qj * qj for cj, qj in zip(c, q)])  # dS/da = s T, dS/ds = -a T
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


def _offsets(alpha1: complex, r: tuple) -> tuple:
    """The node-offset table of one composed step, ``(eps, w)``.

    ``eps_j = 1 + r_j/alpha1`` are the first sub-step's scaled offsets and
    ``w = (1 - alpha1, 1 + r_1, .., 1 + r_p)`` the second's, the
    intermediate node first.
    """
    return (tuple([1.0 + rv / alpha1 for rv in r]),
            tuple([1.0 - alpha1] + [1.0 + rv for rv in r]))


def G_coefficients(alpha1: complex, ratios: Sequence[complex]) -> tuple:
    """Second-stage weights G_0..G_{p+1} in closed form.

    Solves the (p+2)-square moment system (Vandermonde rows in the node
    offsets plus a rank-one correction carrying the first jump's leading
    error) by Lagrange inversion, so every weight is a product over node
    offsets. G_0 closes the set through the zero-sum row.
    """
    alpha1 = complex(alpha1)
    return _G_from_offsets(alpha1, *_offsets(alpha1, tuple(map(complex, ratios))))


def _G_from_offsets(alpha1: complex, eps: tuple, w: tuple) -> tuple:
    """``G_coefficients`` from the node-offset table ``_offsets(alpha1, r)``."""
    p = len(eps)
    g0 = sum([1.0 / e for e in eps])
    if abs(w[0] * g0 - alpha1) < 1e-12:
        raise DegenerateDenominator(f"|Ebar0*g0 - alpha1| = {abs(w[0]*g0 - alpha1):.3e}")
    kappa = (-alpha1) ** (p + 1) / g0 * math.prod(eps)
    lead = -w[0] * (-1) ** p
    raw, denom = [], []
    for i, wi in enumerate(w):
        num = 1.0 + 0j
        den = wi
        for l, wl in enumerate(w):
            if l != i:
                num *= wl
                den *= wi - wl
        if den == 0:
            raise DegenerateDenominator("coincident node offsets")
        raw.append(lead * num / den)
        denom.append(den)
    d0 = 1.0 + kappa / denom[0]
    if abs(d0) < 1e-12:
        raise DegenerateDenominator("corrected leading denominator vanished")
    x0 = raw[0] / d0
    x = [x0] + [raw[i] - kappa * x0 / denom[i] for i in range(1, p + 1)]
    return (-sum(x),) + tuple(x)


# Newton steps allowed before the companion matrix takes over; from the
# uniform root, the adaptive driver's clamped ladders settle in 5 to 7
_NEWTON_MAX_ITER = 20


def _newton_root(coeffs: list, z: complex):
    """Newton's root of the polynomial from ``z``, or None if it does not settle.

    Each iteration evaluates the polynomial and its derivative by Horner's
    rule; the iteration has settled once a step is below 1e-14 of the root.
    """
    lead, rest = coeffs[-1], coeffs[-2::-1]
    for _ in range(_NEWTON_MAX_ITER):
        f, df = lead, 0j
        for c in rest:
            df = df * z + f
            f = f * z + c
        if df == 0:
            return None
        step = f / df
        z -= step
        if abs(step) <= 1e-14 * abs(z):
            return z
    return None


def _companion_root(coeffs: list, r: tuple) -> complex:
    """The root solve_alpha1 picks, from all companion-matrix roots."""
    roots = find_roots(coeffs)
    admissible = [z for z in roots if z.real > 0.0]
    if not admissible:
        raise NoAdmissibleRoot(f"no positive-real-part root for ratios {r}")
    upper = [z for z in admissible if z.imag > 0.0]
    return max(upper or admissible, key=lambda z: z.real)


@lru_cache(maxsize=None)
def _uniform_root(p: int) -> complex:
    """The admissible root of the uniform ladder 0, 1, .., p - 1."""
    r = tuple(complex(j) for j in range(p))
    return _companion_root(_alpha1_coeffs(r), r)


def _admissible_root(r: tuple) -> tuple:
    """``(alpha1, eps, w, G)`` for the root solve_alpha1 picks: the root, its
    node-offset table ``_offsets(alpha1, r)`` and ``G_coefficients(alpha1, r)``.

    ``r`` holds the ratios as complex numbers. On a real ladder, Newton's iteration from the uniform ladder's root is
    kept when it settles in the open upper-right quadrant and zeroes the
    trailing weight G_(p+1): at most one root lies there, so it is the root
    the companion rule picks. Otherwise every root comes from the companion
    matrix and the rule of solve_alpha1 picks one.
    """
    coeffs = _alpha1_coeffs(r)
    if all([rv.imag == 0.0 for rv in r]):
        z = _newton_root(coeffs, _uniform_root(len(r)))
        if z is not None and z.real > 0.0 and z.imag > 0.0:
            eps, w = _offsets(z, r)
            G = _G_from_offsets(z, eps, w)
            if abs(G[-1]) <= 1e-9:
                return z, eps, w, G
    root = _companion_root(coeffs, r)
    eps, w = _offsets(root, r)
    G = _G_from_offsets(root, eps, w)
    if abs(G[-1]) > 1e-9:
        raise NoConvergence(f"refined root leaves |G_(p+1)| = {abs(G[-1]):.3e}")
    return root, eps, w, G


def solve_alpha1(ratios: Sequence[complex]) -> complex:
    """The admissible sub-step fraction for these ratios.

    Among roots with positive real part, prefers positive imaginary part,
    then the largest real part. For real ratio ladders at most one root
    lies in the open upper-right quadrant, so the choice depends on the
    ratios alone, and a Newton iteration from the uniform ladder's root
    usually finds it without the companion matrix. Raises NoAdmissibleRoot
    when every root has Re <= 0, and NoConvergence when the root leaves the
    trailing weight G_(p+1) above 1e-9.
    """
    return _admissible_root(tuple(map(complex, ratios)))[0]


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

    A pure function of the ratios it is given. A caller that steps on a
    uniform grid builds the setup once and passes it to every step.
    """
    r = tuple(map(complex, ratios))
    alpha1, eps, w, G = _admissible_root(r)
    g = g_closed_form(eps)
    p = len(r)
    # the window's nodes in units of the step, from t_{n-1} = 0, oldest first
    nodes = [-rv for rv in reversed(r)]
    # one conversion: g_0..g_p, G_0..G_p and the two predictor sets, p + 1 each
    q = p + 1
    rows = np.array((*g, *G[:q], *predictor_weights(nodes, alpha1),
                     *predictor_weights(nodes[1:] + [alpha1], 1.0)), dtype=complex)
    rows.setflags(write=False)
    return CompositionSetup(
        p=p,
        ratios=r,
        alpha1=alpha1,
        eps=eps,
        g=g,
        G=G,
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
    record holds that real part, the imaginary part and the intermediate
    state. ``setup`` holds the constants for the window's step ratios,
    ``build_setup(ratios_from_window(window, tau))``, including both sub-steps'
    weights and predictors; raises ValueError when its node count differs
    from the window's.
    """
    if setup.p != window.p:
        raise ValueError(f"setup for {setup.p} nodes, window holds {window.p}")
    tau = float(tau)
    t_last = window.times[-1]
    tau1 = setup.alpha1 * tau
    y_half, f_half = bdf_step(rhs, window, tau1, *setup.step1, cfg)
    mid_window = window.advanced(t_last + tau1, y_half, f_half)
    y_hat, f_hat = bdf_step(rhs, mid_window, (t_last + tau) - mid_window.times[-1],
                            *setup.step2, cfg)
    y_real = y_hat.real.copy()
    raw = y_hat.imag.copy()
    return window.advanced(t_last + tau, y_real, f_hat.real), ComposedStepOutput(
        y_real=y_real,
        error_estimate_raw=raw,
        error_estimate=abs(setup.error_constant) * float(np.abs(raw).max()),
        intermediate=y_half,
    )

"""The two-jump composed flow: one base step of complex fraction alpha1,
then one of 1 - alpha1, whose real output gains one order of accuracy and
whose imaginary part estimates the local error.

The sub-step fraction is the positive-real-part root of an algebraic
equation in the step ratios; the second-stage weights and the error
constant follow from it in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bdf_core import (
    HistoryWindow,
    ImplicitSolveConfig,
    RhsFunction,
    bdf_step,
    g_closed_form,
)
from .errors import (
    DegenerateDenominator,
    DegenerateImaginaryPart,
    NoAdmissibleRoot,
    NoConvergence,
    PoleEvaluation,
)
from .polyroot import find_roots


@dataclass(frozen=True)
class CompositionSetup:
    """Everything one composed step needs, derived from the step ratios."""

    p: int
    ratios: tuple
    alpha1: complex
    alpha2: complex
    eps: tuple
    g: tuple  # first-stage weights g_0..g_p, for the offsets eps
    G: tuple  # second-stage weights G_0..G_{p+1}; G_0..G_p drive the second sub-step
    error_constant: float

    def __post_init__(self):
        if self.alpha1 + self.alpha2 != 1.0:
            raise ValueError("alpha1 + alpha2 must equal 1 as the stored pair")
        if not self.alpha1.real > 0:
            raise ValueError("alpha1 must have positive real part")
        cond = self.eps[-1] * self.alpha1**2 + self.g[0] * self.alpha2**2
        if abs(cond) > 1e-9:
            raise ValueError(f"root condition violated: |residual| = {abs(cond):.3e}")
        if abs(sum(self.G)) > 1e-10 or abs(self.G[-1]) > 1e-9:
            raise ValueError("second-stage weights violate their sum/vanishing constraints")


@dataclass(frozen=True)
class ComposedStepOutput:
    """Result of one composed step."""

    y_hat: np.ndarray
    y_real: np.ndarray
    error_estimate_raw: np.ndarray
    error_estimate: float
    intermediate: np.ndarray


def ratios_from_window(window: HistoryWindow, tau: float) -> tuple:
    """Backward node distances scaled by the upcoming step: r_j = (t_{n-1} - t_{n-j}) / tau."""
    t_last = window.times[-1]
    return tuple((t_last - window.times[window.p - j]) / tau for j in range(1, window.p + 1))


def alpha1_polynomial(ratios: Sequence[complex]) -> np.ndarray:
    """Ascending complex coefficients of the cleared sub-step fraction equation.

    Multiplying (1-a)^2 * sum_j a/(a+r_j) + a^2 (1 + r_p/a) = 0 by
    prod_j (a+r_j) and deflating the spurious root a = 0 (introduced by
    r_1 = 0) leaves (1-a)^2 (aP)' + (a^2 + r_p a) P with P = prod_{j>=2} (a+r_j),
    a polynomial of degree p+1 with leading coefficient p+1.
    """
    r = [complex(v) for v in ratios]
    P = np.array([1.0 + 0j])  # ascending; the elementary symmetric polynomials of r_2..r_p
    for rj in r[1:]:
        P = np.convolve(P, np.array([rj, 1.0 + 0j]))
    # sum_j a/(a+r_j) times prod_j (a+r_j) = aP is a (aP)', whose a^k coefficient is (k+1) P_k
    poly = np.convolve(np.array([1.0, -2.0, 1.0], dtype=complex), P * np.arange(1, len(P) + 1))
    poly[1:] += np.convolve(np.array([r[-1], 1.0 + 0j]), P)
    return poly


def G_coefficients(alpha1: complex, ratios: Sequence[complex]) -> tuple:
    """Second-stage weights G_0..G_{p+1} in closed form.

    Solves the (p+2)-square moment system (Vandermonde rows in the node
    offsets plus a rank-one correction carrying the first jump's leading
    error) by Lagrange inversion, so every weight is a product over node
    offsets. G_0 closes the set through the zero-sum row.
    """
    alpha1 = complex(alpha1)
    r = np.asarray(ratios, dtype=complex)
    p = len(r)
    eps = 1.0 + r / alpha1
    g0 = np.sum(1.0 / eps)
    w = np.concatenate(([1.0 - alpha1], 1.0 + r))  # node offsets; w[0] is the intermediate
    if abs(w[0] * g0 - alpha1) < 1e-12:
        raise DegenerateDenominator(f"|Ebar0*g0 - alpha1| = {abs(w[0]*g0 - alpha1):.3e}")
    kappa = (-alpha1) ** (p + 1) / g0 * np.prod(eps)
    sign = (-1) ** p
    raw = np.empty(p + 1, dtype=complex)
    denom = np.empty(p + 1, dtype=complex)
    for i in range(p + 1):
        num = 1.0 + 0j
        den = w[i]
        for l in range(p + 1):
            if l != i:
                num *= w[l]
                den *= w[i] - w[l]
        if den == 0:
            raise DegenerateDenominator("coincident node offsets")
        raw[i] = -w[0] * sign * num / den
        denom[i] = den
    d0 = 1.0 + kappa / denom[0]
    if abs(d0) < 1e-12:
        raise DegenerateDenominator("corrected leading denominator vanished")
    x = np.empty(p + 1, dtype=complex)
    x[0] = raw[0] / d0
    for i in range(1, p + 1):
        x[i] = raw[i] - kappa * x[0] / denom[i]
    return (complex(-np.sum(x)),) + tuple(complex(v) for v in x)


def _admissible_root(ratios: Sequence[complex]) -> tuple:
    """``(alpha1, G_coefficients(alpha1, ratios))`` for the root solve_alpha1 picks."""
    roots = find_roots(alpha1_polynomial(ratios))
    admissible = [z for z in roots if z.real > 0.0]
    if not admissible:
        raise NoAdmissibleRoot(f"no positive-real-part root for ratios {tuple(ratios)}")
    upper = [z for z in admissible if z.imag > 0.0]
    root = max(upper or admissible, key=lambda z: z.real)
    G = G_coefficients(root, ratios)
    if abs(G[-1]) > 1e-9:
        raise NoConvergence(f"refined root leaves |G_(p+1)| = {abs(G[-1]):.3e}")
    return root, G


def solve_alpha1(ratios: Sequence[complex]) -> complex:
    """The admissible sub-step fraction for these ratios.

    Among roots with positive real part, prefers positive imaginary part,
    then the largest real part. For real ratio ladders at most one root
    lies in the open upper-right quadrant, so the choice depends on the
    ratios alone. Raises NoAdmissibleRoot when every root has Re <= 0, and
    NoConvergence when the root leaves the trailing weight G_(p+1) above 1e-9.
    """
    return _admissible_root(ratios)[0]


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


def _error_constant(alpha1: complex, r: tuple, g: tuple, G: tuple) -> float:
    """Error constant from the first- and second-stage weights g and G."""
    p = len(r)
    g0 = g[0]
    ebar = (1.0 - alpha1,) + tuple(1.0 + rv for rv in r)
    acc = sum((G[i + 1] - G[1] / g0 * g[i]) * ebar[i] ** (p + 2) for i in range(p + 1))
    acc += (p + 2) * alpha1 * ebar[0] ** (p + 1)
    curly = (-1) ** (p + 2) / math.factorial(p + 2) * acc
    ratio = curly / G[0]
    if abs(ratio.imag) < 1e-14 * abs(ratio):
        raise DegenerateImaginaryPart(f"imaginary part of {ratio} is numerically zero")
    return ratio.real / ratio.imag


def error_constant(alpha1: complex, ratios: Sequence[complex]) -> float:
    """Real factor mapping the imaginary part to the local error of the real part.

    ``alpha1`` need not solve the fraction equation; ``build_setup`` stores
    the same value for the admissible root of ``ratios``.
    """
    alpha1 = complex(alpha1)
    r = tuple(complex(v) for v in ratios)
    g = g_closed_form(tuple(1.0 + rv / alpha1 for rv in r))
    return _error_constant(alpha1, r, g, G_coefficients(alpha1, r))


def build_setup(ratios: Sequence[complex]) -> CompositionSetup:
    """Solve the fraction equation and assemble all per-step constants.

    A pure function of the ratios it is given. A caller that steps on a
    uniform grid builds the setup once and passes it to every step.
    """
    r = tuple(complex(v) for v in ratios)
    alpha1, G = _admissible_root(r)
    eps = tuple(1.0 + rv / alpha1 for rv in r)
    g = g_closed_form(eps)
    return CompositionSetup(
        p=len(r),
        ratios=r,
        alpha1=alpha1,
        alpha2=1.0 - alpha1,
        eps=eps,
        g=g,
        G=G,
        error_constant=_error_constant(alpha1, r, g, G),
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
    part of the composed result at the real node t_{n-1} + tau; the full
    complex result and the intermediate state ride along in the output
    record. ``setup`` holds the constants for the window's step ratios,
    ``build_setup(ratios_from_window(window, tau))``, including both sub-steps'
    weights; raises ValueError when its node count differs from the window's.
    """
    if setup.p != window.p:
        raise ValueError(f"setup for {setup.p} nodes, window holds {window.p}")
    tau = float(tau)
    t_last = window.times[-1]
    mid_window, y_half = bdf_step(rhs, window, setup.alpha1 * tau, setup.g, cfg)
    _, y_hat = bdf_step(rhs, mid_window, (t_last + tau) - mid_window.times[-1],
                        setup.G[: setup.p + 1], cfg)
    y_real = y_hat.real.copy()
    raw = y_hat.imag.copy()
    out_window = window.advanced(t_last + tau, y_real)
    output = ComposedStepOutput(
        y_hat=y_hat,
        y_real=y_real,
        error_estimate_raw=raw,
        error_estimate=abs(setup.error_constant) * float(np.max(np.abs(raw))),
        intermediate=y_half,
    )
    return out_window, output

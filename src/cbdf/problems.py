"""Built-in test problems with exact solutions, and windows sampled from them.

All right-hand sides accept complex time and complex states, because the
composed flow evaluates them at complex intermediate nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .bdf_core import HistoryWindow
from .errors import DomainError, MissingExactSolution, UnknownProblem

_INV_E = math.exp(-1.0)


@dataclass(frozen=True)
class ODEProblem:
    """An initial-value problem on a finite t0 < t_end, optionally with its exact solution."""

    rhs: Callable[[complex, np.ndarray], np.ndarray]
    t0: float
    y0: np.ndarray
    t_end: float
    exact: Optional[Callable[[float], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        if not -math.inf < self.t0 < self.t_end < math.inf:
            raise ValueError(f"need finite t0 < t_end, got {self.t0!r} and {self.t_end!r}")
        object.__setattr__(self, "y0", np.atleast_1d(np.asarray(self.y0, dtype=float)))
        if self.exact is not None:
            gap = np.max(np.abs(self.exact(self.t0) - self.y0))
            if gap > 1e-12:
                raise ValueError(f"exact(t0) disagrees with y0 by {gap:.3e}")


def lambert_w(x: float) -> float:
    """Principal branch of w e^w = x for real x >= -1/e, by Halley iteration."""
    x = float(x)
    if x < -_INV_E + 1e-12:
        raise DomainError(f"argument {x} below -1/e")
    if x == 0.0:
        return 0.0
    if x >= 0.0:
        w = math.log1p(x)
    else:
        # series around the branch point keeps the iteration on the principal branch
        q = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + q - q * q / 3.0 + 11.0 * q**3 / 72.0
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        step = f / denom
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


@lru_cache(maxsize=None)
def _gauss_legendre_16() -> tuple:
    """Nodes on [0, 1] and weights of the 16-point Gauss-Legendre rule."""
    from numpy.polynomial.legendre import leggauss  # not loaded by `import numpy`

    x, w = leggauss(16)
    return 0.5 * (x + 1.0), 0.5 * w


def _exp_weighted_arctan(t: float, lam: float, scale: float) -> float:
    """-lam times the integral of e^{lam u} arctan(scale*(t-u)) over [0, t].

    By parts: arctan(scale*t) less the integral of e^{lam u} scale/(1 + (scale*(t-u))^2),
    truncated, with its boundary term, where e^{lam u} underflows. Its poles u = t +- i/scale
    lie a panel width from the axis, so 16 Gauss-Legendre nodes per panel err by about 5e-19.
    """
    if t <= 0.0:
        return 0.0
    cutoff = min(t, 46.0 / abs(lam))  # e^{-46} is below double roundoff
    panels = math.ceil(cutoff * scale)
    x, w = _gauss_legendre_16()
    u = (np.arange(panels)[:, None] + x) * (cutoff / panels)
    kernel = np.exp(lam * u) * (scale / (1.0 + (scale * (t - u)) ** 2))
    return math.atan(scale * t) - cutoff / panels * float(np.sum(kernel * w))


def builtin(name: str, **params) -> ODEProblem:
    """A named test problem.

    cubic_decay            y' = -y^3, y(0) = 1, exact 1/sqrt(1+2t)
    forced_linear          y' = lam*y + sin(omega*t), exact in closed form
    stiff_arctan           y' = -50 (y - arctan(20 t)), y(0) = 1
    lambert                y' = y^2 - y^3, y(0) = delta, exact via Lambert W
    """
    if name == "cubic_decay":
        if params:
            raise UnknownProblem(f"cubic_decay takes no parameters, got {params}")
        return ODEProblem(
            rhs=lambda t, y: -(y**3),
            t0=0.0,
            y0=np.array([1.0]),
            t_end=1.0,
            exact=lambda t: np.array([1.0 / math.sqrt(1.0 + 2.0 * t)]),
            name="cubic_decay",
        )
    if name == "forced_linear":
        lam = float(params.pop("lam", -0.1))
        omega = float(params.pop("omega", 2.0 * math.pi))
        y0 = float(params.pop("y0", 2.0))
        t_end = float(params.pop("t_end", 5.0))
        if params:
            raise UnknownProblem(f"unexpected parameters {params}")
        if lam >= 0:
            raise ValueError("forced_linear expects lam < 0")

        def exact(t, lam=lam, omega=omega, y0=y0):
            osc = lam * math.sin(omega * t) + omega * math.cos(omega * t)
            val = math.exp(lam * t) * (
                y0 + (omega - math.exp(-lam * t) * osc) / (omega**2 + lam**2)
            )
            return np.array([val])

        def rhs(t, y, lam=lam, omega=omega):
            return lam * y + np.sin(omega * t)

        return ODEProblem(rhs, 0.0, np.array([y0]), t_end, exact, "forced_linear")
    if name == "stiff_arctan":
        if params:
            raise UnknownProblem(f"stiff_arctan takes no parameters, got {params}")
        lam, scale = -50.0, 20.0

        @lru_cache(maxsize=200000)
        def forced(t):
            return _exp_weighted_arctan(t, lam, scale)

        def exact(t, lam=lam):
            return np.array([math.exp(lam * t) + forced(t)])

        def rhs(t, y, lam=lam, scale=scale):
            return lam * (y - np.arctan(scale * t))

        return ODEProblem(rhs, 0.0, np.array([1.0]), 2.0 * math.pi, exact, "stiff_arctan")
    if name == "lambert":
        delta = float(params.pop("delta", 0.01))
        if params:
            raise UnknownProblem(f"unexpected parameters {params}")
        if not 0.0 < delta < 1.0:
            raise ValueError("lambert expects delta in (0, 1)")
        d = 1.0 / delta - 1.0

        def exact(t, d=d):
            return np.array([1.0 / (lambert_w(d * math.exp(d - t)) + 1.0)])

        def rhs(t, y):
            return y * y - y * y * y

        return ODEProblem(rhs, 0.0, np.array([delta]), 2.0 / delta, exact, "lambert")
    raise UnknownProblem(f"no builtin problem named {name!r}")


def from_record(record: dict) -> ODEProblem:
    """Problem from a JSON-style record: {"name": ..., "rhs": builtin-id, ...params};
    ValueError for a record that is not an object or a parameter that is not a real number."""
    if not isinstance(record, dict):
        raise ValueError(f"a problem record must be an object, got {type(record).__name__}")
    rec = dict(record)
    label = rec.pop("name", None)
    rhs_id = rec.pop("rhs", None)
    if rhs_id is None:
        raise UnknownProblem("record needs an 'rhs' builtin identifier")
    if not all(type(v) in (int, float) for v in rec.values()):
        raise ValueError(f"problem parameters must be real numbers, got {rec}")
    prob = builtin(rhs_id, **rec)
    if label:
        prob = ODEProblem(prob.rhs, prob.t0, prob.y0, prob.t_end, prob.exact, str(label))
    return prob


def bootstrap(problem: ODEProblem, p: int, tau: float, policy: str = "exact") -> HistoryWindow:
    """Length-p startup window sampled from the problem's exact solution on
    the uniform grid t0 + j*tau, tau positive and finite.

    Raises MissingExactSolution for a problem without one, and ValueError
    for any ``policy`` other than ``"exact"``, the only one there is.
    """
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    if policy != "exact":
        raise ValueError(f"unknown bootstrap policy {policy!r}")
    if problem.exact is None:
        raise MissingExactSolution(f"problem {problem.name!r} has no exact solution")
    times = tuple(problem.t0 + j * tau for j in range(p))
    return HistoryWindow(times, tuple(problem.exact(t).astype(complex) for t in times))

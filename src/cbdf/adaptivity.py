"""Step-size control for the composed flow: the ratio-clamped controller,
the admissible-ratio lower bounds, the adaptive driver, and ``march``, the
one stepping loop of every run, fixed-grid or adaptive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bdf_core import _order
from .composition import build_setup, composed_solve, crossing_ratio, ratios_from_times
from .errors import NoConvergence
from .problems import ODEProblem, bootstrap

_TAU_FLOOR = 1e-12  # smallest step the controller proposes
_MAX_STEPS = 500000


def ratio_clamp(p: int) -> float:
    """Per-step growth/shrink factor ell_p keeping the sub-step root admissible.

    An order that is not an integer in 1..8 raises ValueError.
    """
    p = _order(p)
    if p == 1:
        return 2.0
    if 2 <= p <= 5:
        return 2.0 ** (1.0 / (2 * p - 3))
    if 6 <= p <= 8:
        return p ** (1.0 / (p * (p - 1)))
    raise ValueError(f"base order must be in 1..8, got {p}")


@dataclass(frozen=True)
class StepController:
    """Tolerance and base order, which fixes the relative ratio clamp ``ell``,
    ``ratio_clamp(p)``, computed once here."""

    p: int
    tol: float
    ell: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # rejects an order that is not an integer in 1..8
        object.__setattr__(self, "ell", ratio_clamp(self.p))
        if not self.tol > 0:
            raise ValueError("tol must be positive")


def next_step(tau_n: float, e_n: float, ctl: StepController) -> float:
    """Controller update: rescale by (tol/e)^(1/(p+2)), then clamp.

    A zero error estimate maps to the upper relative clamp; no step falls
    below 1e-12. A NaN or an infinite step, or a NaN estimate, raises
    ValueError.
    """
    if not 0 < tau_n < math.inf:
        raise ValueError(f"tau_n must be positive and finite, got {tau_n!r}")
    if not e_n >= 0:
        raise ValueError(f"e_n must be nonnegative, got {e_n!r}")
    if e_n == 0.0:
        tau = tau_n * ctl.ell
    else:
        tau = tau_n * (ctl.tol / e_n) ** (1.0 / (ctl.p + 2))
        tau = min(max(tau, tau_n / ctl.ell), tau_n * ctl.ell)
    return max(tau, _TAU_FLOOR)


def _history_gaps(p: int, mode: str) -> list:
    """Window gap sizes, newest first, each rho times the next newer; rho = 1 for first-step."""
    if mode not in ("first-step", "steady"):
        raise ValueError(f"unknown mode {mode!r}")
    rho = p ** (1.0 / (p * (p - 1))) if mode == "steady" else 1.0
    return [rho**j for j in range(p - 1)]


def min_ratio(p: int, mode: str = "first-step") -> float:
    """Smallest step ratio keeping a positive-real-part sub-step root, where it
    crosses the imaginary axis (``crossing_ratio``). first-step: uniform history;
    steady: each prior ratio 1/rho, rho = p^(1/(p(p-1))).
    """
    p = _order(p)
    if not 2 <= p <= 8:
        raise ValueError(f"base order must be in 2..8, got {p}")
    gaps = _history_gaps(p, mode)  # newest first, the newest of length 1
    return crossing_ratio([sum(gaps[:j]) for j in range(p)])


@dataclass
class TrajectoryRecord:
    """Accepted steps of one adaptive run."""

    times: list
    states: list
    error_estimates: list
    alpha1s: list
    taus: list

    def write_csv(self, path, exact) -> None:
        """One row per accepted step; with an ``exact`` solution, an err_exact column."""
        with open(path, "w", newline="") as fh:
            cols = "n,t_n,tau_n,re_alpha1,im_alpha1,err_estimate"
            if exact is not None:
                cols += ",err_exact"
            fh.write(cols + "\n")
            for i in range(len(self.times)):
                row = (
                    f"{i},{self.times[i]:.16e},{self.taus[i]:.16e},"
                    f"{self.alpha1s[i].real:.16e},{self.alpha1s[i].imag:.16e},"
                    f"{self.error_estimates[i]:.16e}"
                )
                if exact is not None:
                    err = float(np.max(np.abs(exact(self.times[i]) - self.states[i])))
                    row += f",{err:.16e}"
                fh.write(row + "\n")


def march(problem: ODEProblem, p: int, tau: float, next_plan) -> tuple:
    """Step from the exact solution at p nodes ``tau`` apart: ``(times, states)``, every node
    time and a ``[len(times), d]`` view of their states, both complex. Before each step,
    ``next_plan(times, y_hat)`` gets the nodes so far and the last step's complex result (None
    at first), and returns the step's ``(tau, alpha1, stages)`` for ``composed_solve``, or None
    to stop. The steps write one state array, doubled when full, and carry the slope and J."""
    window = bootstrap(problem, p, tau)
    times, y_hat, slope, jac = list(window.times), None, window.slope, window.jac
    Y = np.array(window.states)
    with np.errstate(all="ignore"):
        while (plan := next_plan(times, y_hat)) is not None:
            tau, alpha1, stages = plan
            if (n := len(times)) == len(Y):
                Y = np.concatenate((Y, np.empty_like(Y)))
            y_hat, slope, jac = composed_solve(problem.rhs, times[-1], Y[n - p:n + 1], slope, jac,
                                               tau, alpha1, stages)
            times.append(times[-1] + tau)
    return times, Y[:len(times)]


def adaptive_drive(
    problem: ODEProblem,
    p: int,
    tau0: float,
    ctl: StepController,
    clamps: bool = True,
) -> TrajectoryRecord:
    """March the composed flow with error-controlled steps until problem.t_end.

    With ``clamps`` the consecutive-step ratio stays inside [1/ell, ell],
    and the run lands exactly on t_end whenever the shortened final step
    stays within the clamp. Without clamps the controller is the raw
    rescale rule (growth capped at x10 when the estimate is zero), which
    can demand an inadmissible ratio and raise NoAdmissibleRoot. A run that
    does not land ends past t_end, by less than its last step. It is ``march``
    with a setup per step, on the newest p nodes, and the record's states
    are rows of its state array. A run that needs more than 500,000 steps
    raises NoConvergence. A p other than ``ctl.p``, or a tau0 not positive
    and finite or whose start history already reaches t_end, raises ValueError.
    """
    if p != ctl.p:
        raise ValueError(f"base order {p} differs from the controller's order {ctl.p}")
    t_end = problem.t_end
    t_stop = t_end - 1e-14 * max(1.0, abs(t_end))  # t_end, to 1e-14 relative
    rec, setup, tau = TrajectoryRecord([], [], [], [], []), None, float(tau0)

    def plan(times, y_hat):
        nonlocal setup, tau
        t = times[-1].real
        if setup is not None:  # record the step just taken, then choose the next tau
            e_n = setup.error_estimate(y_hat.imag)
            rec.times.append(t)
            rec.error_estimates.append(e_n)
            rec.alpha1s.append(setup.alpha1)
            rec.taus.append(tau)
            if clamps:
                tau_next = next_step(tau, e_n, ctl)
                remaining = t_end - t
                # land exactly on t_end only when the shortened step keeps the consecutive
                # ratio admissible; otherwise the last step ends past t_end by less than its length
                if _TAU_FLOOR < remaining < tau_next and remaining >= tau / ctl.ell:
                    tau_next = remaining
            else:
                growth = 10.0 if e_n == 0.0 else (ctl.tol / e_n) ** (1.0 / (ctl.p + 2))
                tau_next = max(tau * growth, _TAU_FLOOR)
            tau = tau_next
        if t >= t_stop:
            if not rec.taus:
                raise ValueError(f"tau0 {tau0!r} leaves no step before t_end = {t_end!r}")
            return None
        if len(rec.taus) == _MAX_STEPS:
            raise NoConvergence(f"exceeded {_MAX_STEPS} steps before reaching t_end = {t_end}")
        setup = build_setup(ratios_from_times(times[-p:], tau))
        return tau, setup.alpha1, setup.stages

    rec.states = list(march(problem, p, tau0, plan)[1][p:].real)
    return rec

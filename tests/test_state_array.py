"""Runs that step on one state array: bit for bit the same steps taken
window by window, and no record, window or buffer that shares memory with
another."""
import math

import numpy as np
import pytest

from cbdf import composition
from cbdf.adaptivity import StepController, adaptive_drive, next_step
from cbdf.bdf_core import HistoryWindow, coeff_fixed, implicit_solve, predictor_weights
from cbdf.cli import fixed_states, integrate_fixed
from cbdf.composition import build_setup, composed_step, ratios_from_times
from cbdf.problems import ODEProblem, bootstrap, builtin

LAM = np.array([-0.5, -4.0, -40.0])


def diagonal_linear():
    """y' = LAM y on [0, 1], d = 3; its stiff row sends the solve to Newton with a 3x3 J."""
    y0 = np.array([1.0, -2.0, 0.5])
    return ODEProblem(lambda t, y: LAM * y, 0.0, y0, 1.0, lambda t: y0 * np.exp(LAM * t),
                      "diagonal_linear")


def on_unit_interval(name):
    base = builtin(name)
    return ODEProblem(base.rhs, base.t0, base.y0, 1.0, base.exact, base.name)


# cubic_decay never leaves the sweep; stiff_arctan and the diagonal system
# reach Newton and keep its Jacobian for the rest of the run
PROBLEMS = {
    "cubic_decay": (lambda: on_unit_interval("cubic_decay"), 1 / 40),
    "stiff_arctan": (lambda: on_unit_interval("stiff_arctan"), 1 / 64),
    "diagonal_linear": (diagonal_linear, 1 / 40),
}
CELLS = [("composed", p) for p in (1, 2, 3, 4)] + [("bdf", p) for p in (2, 3, 4, 5)]


def reference_run(problem, scheme, p, tau):
    """The fixed-step run over windows: composed_step, or the implicit solve on
    the window's arrays, each next window built by the public HistoryWindow
    constructor, so no shift code is shared with the run; ``(times, states,
    jac_built)``."""
    window = bootstrap(problem, p, tau)
    n_total = round((problem.t_end - problem.t0) / tau)
    weights = np.array(coeff_fixed(p))
    predictor = np.array(predictor_weights(tuple(range(1 - p, 1)), 1.0))
    setup = build_setup(ratios_from_times(window.times, tau))
    times, states = [], []
    for _ in range(p, n_total + 1):
        if scheme == "composed":
            window, out = composed_step(problem.rhs, window, tau, setup)
            y = out.y_real
        else:
            t_last = window.times[-1]
            with np.errstate(all="ignore"):
                y, slope, jac = implicit_solve(problem.rhs, t_last, window.states, window.slope,
                                               window.jac, tau, weights, predictor)
            window = HistoryWindow(window.times[1:] + (t_last + tau,), (*window.states[1:], y),
                                   slope, jac)
        times.append(window.times[-1].real)
        states.append(y)
    return times, states, window.jac is not None


def shared_pairs(arrays):
    """Index pairs of the arrays that share memory."""
    return [(i, j) for i in range(len(arrays)) for j in range(i + 1, len(arrays))
            if np.shares_memory(arrays[i], arrays[j])]


@pytest.mark.parametrize("scheme,p", CELLS)
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_fixed_run_equals_window_steps(name, scheme, p):
    make, tau = PROBLEMS[name]
    problem = make()
    times, states = fixed_states(problem, scheme, p, tau)
    want_times, want_states, jac_built = reference_run(problem, scheme, p, tau)
    assert jac_built == (name != "cubic_decay")
    assert times == want_times
    assert len(states) == len(want_states)
    for got, want in zip(states, want_states):
        assert np.array_equal(got, want)
    errors = integrate_fixed(problem, scheme, p, tau)
    assert list(errors) == list(range(p, p + len(times)))


# lambert on its whole interval takes 713 steps, so its run doubles the state array 8 times
@pytest.mark.parametrize("name,p,tol", [("stiff_arctan", 4, 1e-10), ("cubic_decay", 1, 1e-9),
                                        ("diagonal_linear", 2, 1e-8), ("lambert", 4, 1e-12)])
def test_adaptive_record_equals_window_steps(name, p, tol):
    # the record's steps, retaken with composed_step from a window, each on a
    # setup built from that window's ratios, agree bit for bit; each next step
    # is the controller's, or the shortened step that lands on t_end
    problem = PROBLEMS[name][0]() if name in PROBLEMS else builtin(name)
    ctl = StepController(p=p, tol=tol)
    rec = adaptive_drive(problem, p, 0.01, ctl)
    window = bootstrap(problem, p, 0.01)
    for k, tau in enumerate(rec.taus):
        setup = build_setup(ratios_from_times(window.times, tau))
        window, out = composed_step(problem.rhs, window, tau, setup)
        assert rec.times[k] == window.times[-1].real
        assert np.array_equal(rec.states[k], out.y_real)
        assert rec.error_estimates[k] == out.error_estimate
        assert rec.alpha1s[k] == setup.alpha1
        if k + 1 < len(rec.taus):
            assert rec.taus[k + 1] in (next_step(tau, out.error_estimate, ctl),
                                       problem.t_end - rec.times[k])
    assert rec.times[-1] >= problem.t_end - 1e-14


def test_adaptive_record_states_share_no_memory():
    rec = adaptive_drive(on_unit_interval("stiff_arctan"), 4, 0.01, StepController(p=4, tol=1e-10))
    assert len(rec.states) > 50
    assert shared_pairs(rec.states) == []
    # what the check catches: a record that appends a view of the shifting
    # buffer's newest row at every step
    buf = np.zeros((5, 1), dtype=complex)
    assert shared_pairs([buf[-2].real for _ in range(3)]) == [(0, 1), (0, 2), (1, 2)]


def test_composed_step_leaves_its_window_and_shares_nothing_later(monkeypatch):
    rhs = lambda t, y: LAM * y
    buffers = []

    def solve(rhs, t_last, rows, *args):
        buffers.append(rows)
        return composed_solve(rhs, t_last, rows, *args)

    composed_solve = composition.composed_solve
    monkeypatch.setattr(composition, "composed_solve", solve)
    tau = 0.05
    window = bootstrap(diagonal_linear(), 3, tau)
    setup = build_setup(ratios_from_times(window.times, tau))
    windows, outs = [window], []
    for _ in range(4):
        before = (window.times, window.states.copy(), window.slope, window.jac)
        kept = [None if a is None else a.copy() for a in (window.slope, window.jac)]
        new, out = composed_step(rhs, window, tau, setup)
        assert window.times == before[0] and np.array_equal(window.states, before[1])
        assert window.slope is before[2] and window.jac is before[3]
        for a, b in zip((window.slope, window.jac), kept):
            assert (a is None and b is None) or np.array_equal(a, b)
        assert not window.states.flags.writeable
        window = new
        windows.append(new)
        outs.append(out)
    assert windows[-1].jac is not None  # the stiff row took the solve to Newton
    for i, w in enumerate(windows):
        for later in buffers[i:]:
            assert not np.shares_memory(w.states, later)
    # y_real and error_estimate_raw of one step interleave in one complex
    # result, but no element of one overlaps the other
    arrays = [w.states for w in windows] + [o.y_real for o in outs] + [o.error_estimate_raw
                                                                       for o in outs]
    assert shared_pairs(arrays) == []


def bdf_plan(p):
    """``(alpha1, stages)`` of a BDF-p step: one sub-step of fraction 1 on the uniform grid."""
    predictor = predictor_weights(tuple(range(1 - p, 1)), 1.0)
    return 1.0, ((np.array(coeff_fixed(p)), np.array(predictor)),)


def composed_plan(window, tau):
    setup = build_setup(ratios_from_times(window.times, tau))
    return setup.alpha1, setup.stages


@pytest.mark.parametrize("plan", [composed_plan, lambda window, tau: bdf_plan(window.p)],
                         ids=["composed", "bdf"])
def test_composed_solve_writes_only_the_last_row(plan):
    rhs = lambda t, y: LAM * y
    window = bootstrap(diagonal_linear(), 2, 0.05)
    rows = np.concatenate((window.states, np.full((1, 3), np.nan)))
    with np.errstate(all="ignore"):
        y_hat, slope, _ = composition.composed_solve(rhs, window.times[-1], rows, None, None, 0.05,
                                                     *plan(window, 0.05))
    assert np.array_equal(rows[:-1], window.states)
    assert np.array_equal(rows[-1], y_hat.real) and not np.any(rows[-1].imag)
    assert slope.dtype == float and math.isfinite(float(np.abs(slope).max()))


@pytest.mark.parametrize("name", ["cubic_decay", "diagonal_linear"])
def test_bdf_plan_step_is_one_implicit_solve(name):
    # bit for bit: the state, the forwarded row (Re y), the real slope and the
    # kept J; cubic_decay stays in the sweep, the diagonal system reaches Newton
    # at its first step and keeps J for the later ones
    make, tau = PROBLEMS[name]
    problem, p = make(), 3
    window = bootstrap(problem, p, tau)
    t, states, slope, jac = window.times[-1], window.states, window.slope, window.jac
    for _ in range(4):
        rows = np.concatenate((states, np.full((1, states.shape[1]), np.nan)))
        with np.errstate(all="ignore"):
            y_hat, got_slope, got_jac = composition.composed_solve(problem.rhs, t, rows, slope,
                                                                   jac, tau, *bdf_plan(p))
            y, want_slope, want_jac = implicit_solve(problem.rhs, t, states, slope, jac, tau,
                                                     *bdf_plan(p)[1][0])
        assert y_hat.tobytes() == y.tobytes()
        assert rows[p].tobytes() == y.real.astype(complex).tobytes()
        assert got_slope.tobytes() == want_slope.real.tobytes()
        assert (got_jac is None and want_jac is None) or got_jac.tobytes() == want_jac.tobytes()
        t, states, slope, jac = t + tau, rows[1:], got_slope, got_jac
    assert (jac is not None) == (name == "diagonal_linear")

"""Certified early escape: the pendulum energy bound that ends a failing
trajectory, checked condition by condition against the computed
trapezoidal map, against the divergence-norm rule it anticipates, and
across the lockstep batch."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moi import (
    IntegratorConfig,
    PENDULUM_DIVERGENCE_NORM,
    PendulumParams,
    Termination,
    find_sep,
    multimachine_system,
    pendulum_sep,
    pendulum_system,
    simulate,
    spectral_abscissa,
    step_trapezoidal,
)
from moi.integrator import Lockstep, _recovery_sets

from conftest import escape_row, make_tent_toy

#: adjacent doubles bracketing the pendulum boundary at h = 0.02
PEND_P_STAR = 1.5686593295631313
PEND_P_FAIL = 1.5686593295631315

PARAMS = PendulumParams()
SYS = pendulum_system(PARAMS)
C1, C2 = PARAMS.c1, PARAMS.c2

torques = st.floats(0.05, 1.95)
#: step sizes inside the certificate's conditions at c1 = 2, c2 = 0.5
steps = st.sampled_from([0.02, 0.08, 0.2, 0.4])


def config(step, **kwargs):
    return IntegratorConfig(step=step, divergence_norm=PENDULUM_DIVERGENCE_NORM, **kwargs)


def energy(x, torque):
    return SYS.escape_energy[0](np.asarray(x, dtype=float), np.array([torque]))


def row(torque, cfg, turns=0):
    """(saddle, speed, level) at the SEP representative ``turns`` turns on."""
    sep = pendulum_sep(PARAMS, torque) + [2.0 * np.pi * turns, 0.0]
    return sep, escape_row(SYS, [torque], cfg, sep)


@settings(max_examples=60, deadline=None)
@given(torque=torques, turns=st.integers(-2, 2), step=steps)
def test_level_lies_just_below_the_saddle_right_of_the_sep(torque, turns, step):
    """The saddle is the equilibrium with an unstable direction next to the
    SEP on its right, and the level lies within 1e-5 below its energy."""
    sep, (saddle, speed, level) = row(torque, config(step), turns)
    x_u = np.array([saddle, 0.0])
    assert np.abs(SYS.field(x_u, np.array([torque]))).max() < 1e-12
    assert spectral_abscissa(SYS.jacobian(x_u, np.array([torque]))) > 0.0
    assert sep[0] < saddle < sep[0] + 2.0 * np.pi
    assert energy(x_u, torque) - 1e-5 < level < energy(x_u, torque)
    assert speed == (C1 + torque + (2e-12 + 1e-12 + 8 * np.finfo(float).eps * 50) / step) / C2


@settings(max_examples=40, deadline=None)
@given(
    torque=torques,
    step=steps,
    newton_tol=st.sampled_from([1e-12, 1e-10, 1e-8]),
    max_time=st.sampled_from([20.0, 200.0, 800.0]),
)
def test_margin_covers_the_newton_error_over_the_whole_budget(
    torque, step, newton_tol, max_time
):
    """delta >= N e, e >= 2 newton_tol (c1 + p + B) the energy that a step's
    Newton residual can add, N the step budget."""
    cfg = config(step, newton_tol=newton_tol, max_time=max_time)
    _, (saddle, speed, level) = row(torque, cfg)
    budget = np.floor(max_time / step + 1e-9)
    delta = energy([saddle, 0.0], torque) - level
    assert delta >= budget * 2.0 * newton_tol * (C1 + torque + speed)


@settings(max_examples=60, deadline=None)
@given(torque=torques, step=steps, angle=st.floats(-10.0, 10.0), frac=st.floats(-1.0, 1.0))
def test_speed_bound_is_kept_by_every_step(torque, step, angle, frac):
    """|w| <= B implies |w'| <= B (h c2 < 2)."""
    cfg = config(step)
    _, (_, speed, _) = row(torque, cfg)
    y = step_trapezoidal(SYS, np.array([angle, frac * speed]), np.array([torque]), cfg)
    assert abs(y[1]) <= speed


@settings(max_examples=60, deadline=None)
@given(torque=torques, step=steps, angle=st.floats(-10.0, 10.0), frac=st.floats(-1.0, 1.0))
def test_energy_falls_by_the_damping_less_the_trapezoid_error(torque, step, angle, frac):
    """E' - E <= -h w_bar^2 (c2 - c1 h^2 |w_bar| / 12), up to the Newton
    residual, for |w| <= B."""
    cfg = config(step)
    _, (_, speed, _) = row(torque, cfg)
    x = np.array([angle, frac * speed])
    y = step_trapezoidal(SYS, x, np.array([torque]), cfg)
    w_bar = abs(x[1] + y[1]) / 2.0
    bound = -step * w_bar**2 * (C2 - C1 * step**2 * w_bar / 12.0)
    assert energy(y, torque) - energy(x, torque) <= bound + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    torque=torques,
    step=steps,
    gap=st.floats(1e-6, 3.0),
    frac=st.floats(-1.0, 1.0),
)
def test_no_state_of_the_escape_set_steps_back_over_the_saddle(torque, step, gap, frac):
    """From a state past the saddle, within the speed bound and below the
    level, 50 computed steps stay past the saddle, below the saddle's
    energy (h sqrt(c1) < 2 and delta's margin)."""
    cfg = config(step)
    _, (saddle, speed, level) = row(torque, cfg)
    angle = saddle + gap
    room = level + C1 * np.cos(angle) + torque * angle
    assume(room > 0.0)
    x = np.array([angle, frac * min(np.sqrt(2.0 * room), speed)])
    assume(energy(x, torque) < level)
    energy_u = energy([saddle, 0.0], torque)
    for _ in range(50):
        x = step_trapezoidal(SYS, x, np.array([torque]), cfg)
        assert x[0] > saddle and energy(x, torque) < energy_u


@pytest.mark.parametrize(
    "params, torque, inside, outside",
    [
        # c1 h (h B + rho) < 12 c2 fails at h = 0.8 (the coarse sweep's row)
        (PARAMS, PEND_P_STAR, 0.4, 0.8),
        # h sqrt(c1) < 2 fails at h = 1
        (PendulumParams(c1=4.0, c2=1.5), 0.1, 0.99, 1.0),
        # h c2 < 2 fails at h = 0.5
        (PendulumParams(c1=0.5, c2=4.0), 0.2, 0.49, 0.5),
    ],
    ids=["trapezoid-error", "jump", "speed"],
)
def test_no_certificate_for_a_step_outside_the_conditions(params, torque, inside, outside):
    sys_ = pendulum_system(params)
    sep = pendulum_sep(params, torque)
    assert np.isfinite(escape_row(sys_, [torque], config(inside), sep)).all()
    assert np.isinf(escape_row(sys_, [torque], config(outside), sep)).all()


@pytest.mark.parametrize(
    "torque, sep, cfg",
    [
        (0.0, [0.0, 0.0], config(0.02)),
        (-0.5, [np.arcsin(-0.25), 0.0], config(0.02)),
        (2.5, [0.0, 0.0], config(0.02)),
        (np.nan, [0.0, 0.0], config(0.02)),
        (1.5, [np.nan, 0.0], config(0.02)),
        (1.5, [np.inf, 0.0], config(0.02)),
        (1.5, [np.arcsin(0.75), 0.0], IntegratorConfig(step=0.02, divergence_norm=np.inf)),
    ],
    ids=["zero-torque", "negative-torque", "no-sep", "nan-torque", "nan-sep", "inf-sep",
         "inf-norm"],
)
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the Lyapunov set at inf
def test_no_certificate_for_a_torque_at_most_zero_or_a_non_finite_input(torque, sep, cfg):
    assert np.isinf(escape_row(SYS, [torque], cfg, sep)).all()


def test_models_without_an_energy_function_have_no_escape_set(nine_bus):
    """The swing network and the toys run as before: saddle inf."""
    grid = multimachine_system(nine_bus)
    assert grid.escape_energy is None and make_tent_toy().escape_energy is None
    p, sep = np.array([[1.0]]), find_sep(grid, [1.0])[None]
    cfg = IntegratorConfig(step=1.0 / 60.0)
    assert np.isinf(_recovery_sets(grid, p, sep, cfg)[3]).all()


def test_energy_is_evaluated_only_on_states_past_the_saddle(pendulum, pend_cfg):
    calls = []
    energy_fn, bounds = pendulum.escape_energy

    def spy(x, p):
        calls.append(np.array(x))
        return energy_fn(x, p)

    spied = replace(pendulum, escape_energy=(spy, bounds))
    sep = find_sep(pendulum, [1.5])
    assert simulate(spied, [1.5], pend_cfg, sep).termination is Termination.CONVERGED_TO_SEP
    assert calls == []
    sep = find_sep(pendulum, [1.7])
    traj = simulate(spied, [1.7], pend_cfg, sep)
    saddle = escape_row(pendulum, [1.7], pend_cfg, sep)[0]
    past = [x for x in traj.states[1:] if x[0] > saddle]
    assert len(calls) == len(past) > 0
    assert all(np.array_equal(a, b) for a, b in zip(calls, past))


@pytest.mark.parametrize("step", [0.02, 0.2, 0.8])
def test_lockstep_members_end_as_simulate_ends_them(pendulum, step):
    """Members started together and later, escaping, recovering and (at
    h = 0.8, without a certificate) diverging by norm, end bitwise as
    ``simulate`` ends them; the verdicts equal those of runs without the
    escape certificate."""
    cfg = config(step)
    bare = replace(pendulum, escape_energy=None)
    torques = [1.5, PEND_P_STAR, PEND_P_FAIL, 1.5686593295641313, 1.6, 1.7, 1.9]
    seps = [find_sep(pendulum, [p]) for p in torques]
    lock = Lockstep(pendulum, cfg)
    first = lock.add(np.array(torques[:4])[:, None], np.array(seps[:4]))
    ends = {}
    for _ in range(7):
        ends.update(lock.step())
    later = lock.add(np.array(torques[4:])[:, None], np.array(seps[4:]))
    while len(lock):
        ends.update(lock.step())
    escaped = 0
    for k, p, sep in zip(list(first) + list(later), torques, seps):
        traj = simulate(pendulum, [p], cfg, sep)
        assert ends[k].termination is traj.termination
        assert np.array_equal(ends[k].final_state, traj.states[-1])
        assert ends[k].elapsed == traj.elapsed
        plain = simulate(bare, [p], cfg, sep)
        assert plain.termination is traj.termination
        assert np.array_equal(traj.states, plain.states[: len(traj)])
        escaped += len(traj) < len(plain)
    assert (escaped > 0) == (step < 0.8)

"""Certified early escape: the pendulum energy bound that ends a failing
trajectory, checked condition by condition against the computed
trapezoidal map, against the divergence-norm rule it anticipates, and
across the lockstep batch; the sub-step time of an escape; and the run
engine's escape contract on a toy that has no energy."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from moi import (
    IntegratorConfig,
    PENDULUM_DIVERGENCE_NORM,
    ParameterizedSystem,
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
from moi import model_zoo
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
    """E = w^2/2 - c1 cos t - p t, for one state or a stack."""
    x = np.asarray(x, dtype=float)
    t, w = x[..., 0], x[..., 1]
    return 0.5 * w * w - C1 * np.cos(t) - torque * t


def row(torque, cfg, turns=0):
    """(saddle, speed, level, gate) at the SEP representative ``turns``
    turns on."""
    sep = pendulum_sep(PARAMS, torque) + [2.0 * np.pi * turns, 0.0]
    return sep, escape_row(SYS, [torque], cfg, sep)


@settings(max_examples=60, deadline=None)
@given(torque=torques, turns=st.integers(-2, 2), step=steps)
def test_level_lies_just_below_the_saddle_right_of_the_sep(torque, turns, step):
    """The saddle is the equilibrium with an unstable direction next to the
    SEP on its right, and the level lies within 1e-5 below its energy."""
    sep, (saddle, speed, level, _) = row(torque, config(step), turns)
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
    _, (saddle, speed, level, _) = row(torque, cfg)
    budget = np.floor(max_time / step + 1e-9)
    delta = energy([saddle, 0.0], torque) - level
    assert delta >= budget * 2.0 * newton_tol * (C1 + torque + speed)


@settings(max_examples=60, deadline=None)
@given(torque=torques, step=steps, angle=st.floats(-10.0, 10.0), frac=st.floats(-1.0, 1.0))
def test_speed_bound_is_kept_by_every_step(torque, step, angle, frac):
    """|w| <= B implies |w'| <= B (h c2 < 2)."""
    cfg = config(step)
    _, (_, speed, _, _) = row(torque, cfg)
    y = step_trapezoidal(SYS, np.array([angle, frac * speed]), np.array([torque]), cfg)
    assert abs(y[1]) <= speed


@settings(max_examples=60, deadline=None)
@given(torque=torques, step=steps, angle=st.floats(-10.0, 10.0), frac=st.floats(-1.0, 1.0))
def test_energy_falls_by_the_damping_less_the_trapezoid_error(torque, step, angle, frac):
    """E' - E <= -h w_bar^2 (c2 - c1 h^2 |w_bar| / 12), up to the Newton
    residual, for |w| <= B."""
    cfg = config(step)
    _, (_, speed, _, _) = row(torque, cfg)
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
    _, (saddle, speed, level, _) = row(torque, cfg)
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
    """The swing network and the toys run as before: no escape set, and
    escape rows of width 0."""
    grid = multimachine_system(nine_bus)
    assert grid.escape is None and make_tent_toy().escape is None
    p, sep = np.array([[1.0]]), find_sep(grid, [1.0])[None]
    cfg = IntegratorConfig(step=1.0 / 60.0)
    assert _recovery_sets(grid, p, sep, cfg)[3].shape == (1, 0)


def test_energy_is_evaluated_only_on_states_past_the_gate(pendulum, pend_cfg, monkeypatch):
    """E is evaluated at exactly the states past their gate, and once more
    at the previous state of each escape timed within its step (a state
    past its saddle)."""
    calls = []
    energy_fn = model_zoo._pendulum_energy

    def spy(c1, x, p):
        calls.append(np.array(x))
        return energy_fn(c1, x, p)

    monkeypatch.setattr(model_zoo, "_pendulum_energy", spy)
    sep = find_sep(pendulum, [1.5])
    assert simulate(pendulum, [1.5], pend_cfg, sep).termination is Termination.CONVERGED_TO_SEP
    assert calls == []
    sep = find_sep(pendulum, [1.7])
    traj = simulate(pendulum, [1.7], pend_cfg, sep)
    saddle, _, _, gate = escape_row(pendulum, [1.7], pend_cfg, sep)
    assert gate > saddle
    past = [x for x in traj.states[1:] if x[0] > gate]
    # the run escapes from a state past its saddle: one timed escape
    assert traj.termination is Termination.DIVERGED and traj.states[-2][0] > saddle
    evaluated = np.concatenate(calls)
    assert len(evaluated) == len(past) + 1 and len(past) > 1
    assert np.array_equal(evaluated, np.array(past + [traj.states[-2]]))


@settings(max_examples=60, deadline=None)
@given(torque=torques, step=steps, seed=st.integers(0, 2**32 - 1))
def test_crossing_is_the_energy_set_and_its_interpolation(torque, step, seed):
    """The pendulum's crossing puts a state in its set exactly when
    t > saddle, |w| <= speed and E < level, and times the entry at
    (E_- - level) / (E_- - E_n) when the previous state lay past the saddle
    above the level, at 1 otherwise.  The rows are the real ones, gate
    included."""
    cfg = config(step)
    _, escape = row(torque, cfg)
    saddle, speed, level, _ = escape
    rng = np.random.default_rng(seed)
    k = 200
    # angles around the saddle, speeds around the energy's level there
    x_prev, x = (
        np.column_stack([saddle + rng.uniform(-0.3, 0.3, k), rng.uniform(-0.8, 0.8, k)])
        for _ in range(2)
    )
    p = np.full((k, 1), torque)
    rows = np.tile(escape, (k, 1))
    entered = SYS.escape[1](x_prev, x, p, rows)
    e_prev, e = energy(x_prev, torque), energy(x, torque)
    inside = (x[:, 0] > saddle) & (np.abs(x[:, 1]) <= speed) & (e < level)
    if not inside.any():
        assert entered is None
        return
    assert np.array_equal(np.isfinite(entered), inside)
    timed = inside & (x_prev[:, 0] > saddle) & (e_prev > level)
    expected = np.ones(k)
    expected[timed] = (e_prev[timed] - level) / (e_prev[timed] - e[timed])
    assert np.array_equal(entered[inside], expected[inside])
    assert ((0.0 < entered[inside]) & (entered[inside] <= 1.0)).all()


@settings(max_examples=60, deadline=None)
@given(
    torque=torques,
    turns=st.integers(-2, 2),
    step=steps,
    error=st.sampled_from([0.0, 0.5, 0.99, -0.99, 1.5]),
    frac=st.floats(0.0, 1.0),
)
@example(torque=1.5, turns=0, step=0.02, error=0.99, frac=1.0)
@example(torque=0.125, turns=0, step=0.4, error=-0.99, frac=1.0)
def test_no_state_between_the_saddle_and_the_gate_is_in_the_set(
    torque, turns, step, error, frac
):
    """States with t in (saddle, gate] lie outside the set at every speed:
    at |w| = 0, where E is lowest, E >= level as the crossing computes it.
    The SEP is off by ``error`` times the gate's width at the exact SEP, up
    to 0.99 of it, the largest error that leaves the gate past the saddle;
    1.5 of it closes the gate on the saddle.  A run that enters its set
    from such a state is timed within its step."""
    cfg = config(step)
    exact = pendulum_sep(PARAMS, torque) + [2.0 * np.pi * turns, 0.0]
    saddle, _, _, gate = escape_row(SYS, [torque], cfg, exact)
    assert saddle < gate < saddle + 1e-3
    sep = exact + [error * (gate - saddle), 0.0]
    escape = escape_row(SYS, [torque], cfg, sep)
    saddle, speed, level, gate = escape
    if error == 1.5:
        assert gate == saddle
        return
    assert gate > saddle
    angles = np.array([np.nextafter(saddle, np.inf), saddle + frac * (gate - saddle), gate])
    angles = np.clip(angles, np.nextafter(saddle, np.inf), gate)
    x = np.column_stack([angles, np.zeros(3)])
    p = np.full((3, 1), torque)
    e_prev = model_zoo._pendulum_energy(C1, x, p)
    assert (e_prev >= level).all()
    # the crossing with its gate opened to the saddle evaluates these states
    opened = np.tile([saddle, speed, level, saddle], (3, 1))
    assert SYS.escape[1](x, x, p, opened) is None
    # from there into the set, well past the gate: the entry is interpolated
    inside = np.column_stack([np.full(3, saddle + 0.05), np.zeros(3)])
    e_in = model_zoo._pendulum_energy(C1, inside, p)
    assert (e_in < level).all()
    entered = SYS.escape[1](x, inside, p, np.tile(escape, (3, 1)))
    expected = np.where(e_prev > level, (e_prev - level) / (e_prev - e_in), 1.0)
    assert np.array_equal(entered, expected)


@pytest.mark.parametrize("step", [0.02, 0.2, 0.8])
def test_lockstep_members_end_as_simulate_ends_them(pendulum, step):
    """Members started together and later, escaping, recovering and (at
    h = 0.8, without a certificate) diverging by norm, end bitwise as
    ``simulate`` ends them; the verdicts equal those of runs without the
    escape certificate."""
    cfg = config(step)
    bare = replace(pendulum, escape=None)
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


def lockstep_ends(sys_, torques, cfg, later=()):
    """Run ends, in order, of ``torques`` started together in one Lockstep
    and of ``later`` started two steps after them."""
    lock = Lockstep(sys_, cfg)
    seps = [find_sep(sys_, [p]) for p in list(torques) + list(later)]
    ids = list(lock.add(np.array(torques, dtype=float)[:, None], np.array(seps[: len(torques)])))
    ends = {}
    for _ in range(2):
        ends.update(lock.step())
    if len(later):
        ids += list(lock.add(np.array(later)[:, None], np.array(seps[len(torques):])))
    while len(lock):
        ends.update(lock.step())
    return [ends[k] for k in ids]


@pytest.mark.parametrize("step", [0.02, 0.08, 0.4])
def test_escape_is_timed_within_its_last_step_alike_in_any_batch(step):
    """A run that ends in its escape set from a state past its saddle ends
    at tau in (n - 1, n], n its step count; tau is bitwise the same for the
    run alone and in a batch started in two groups."""
    cfg = config(step)
    torques = np.linspace(1.58, 1.95, 12)
    alone = [lockstep_ends(SYS, [p], cfg)[0] for p in torques]
    together = lockstep_ends(SYS, torques[:6], cfg, later=torques[6:])
    fractional = 0
    for run, member in zip(alone, together):
        n = round(run.elapsed / step)
        assert run.termination is Termination.DIVERGED
        assert run.rule == member.rule == "escape"
        assert np.linalg.norm(run.final_state) <= cfg.divergence_norm
        assert n - 1 < run.tau <= n
        assert member.tau == run.tau and member.elapsed == run.elapsed
        fractional += run.tau < n
    assert fractional == len(torques)


def escaping_run(torque, cfg):
    """The states of an escaping pendulum run, its energies and a late step
    m at which its angle, norm and energy are monotone."""
    traj = simulate(SYS, [torque], cfg, find_sep(SYS, [torque]))
    assert traj.termination is Termination.DIVERGED
    x = traj.states
    e = energy(x, torque)
    m = len(x) - 2
    norms = np.linalg.norm(x, axis=1)
    assert x[:m, 0].max() < x[m, 0] and norms[:m].max() < norms[m] and e[m] < e[:m].min()
    return x, e, m


def test_saddle_crossed_in_the_last_step_keeps_the_step_count():
    """A run whose state m is its first past its saddle, and in its escape
    set, ends at tau = m exactly: state m - 1 is not past the saddle, so
    its energy does not time the escape, alone or in a batch with a member
    past its own saddle.  The escape rows are made up for the test: the
    member at 1.7 has its saddle between states m - 1 and m and its level
    between their energies; the member at 1.75 is past its saddle from the
    start and never in its set.  Each made-up gate equals its saddle, a
    gate that holds for any set."""
    cfg = config(0.2)
    x, e, m = escaping_run(1.7, cfg)
    saddle = (x[m - 1, 0] + x[m, 0]) / 2.0
    crossing = [saddle, np.inf, (e[m - 1] + e[m]) / 2.0, saddle]

    def rows(p, sep, cfg_):
        return np.where(p == 1.7, crossing, [-np.inf, np.inf, -np.inf, -np.inf])

    made_up = replace(SYS, escape=(rows, SYS.escape[1]))
    (alone,) = lockstep_ends(made_up, [1.7], cfg)
    batch = lockstep_ends(made_up, [1.7, 1.75], cfg)
    for run in (alone, batch[0]):
        assert run.termination is Termination.DIVERGED
        assert run.elapsed == m * cfg.step and run.tau == m
    # the first step is not timed: a run in its set one step on, from an
    # initial state past its saddle above the level, ends at tau = 1
    first = [-np.inf, np.inf, (e[0] + e[1]) / 2.0, -np.inf]
    assert e[1] < e[0]
    from_start = replace(
        SYS, escape=(lambda p, sep, cfg_: np.tile(first, (len(p), 1)), SYS.escape[1])
    )
    (run,) = lockstep_ends(from_start, [1.7], cfg)
    assert run.elapsed == cfg.step and run.tau == 1.0


def test_norm_end_keeps_the_step_count():
    """A run that passes the divergence norm in the step in which it also
    enters its escape set, from a state past its saddle above the level,
    ends at tau = n: the norm, not the energy, ends it.  The escape row is
    made up for the test, with the level between the energies of states
    m - 1 and m, and the norm lies between their norms; its gate equals
    its saddle."""
    x, e, m = escaping_run(1.7, config(0.2))
    norms = np.linalg.norm(x, axis=1)
    cfg = IntegratorConfig(step=0.2, divergence_norm=(norms[m - 1] + norms[m]) / 2.0)
    made_up = replace(
        SYS,
        escape=(
            lambda p, sep, cfg_: np.tile(
                [-np.inf, np.inf, (e[m - 1] + e[m]) / 2.0, -np.inf], (len(p), 1)
            ),
            SYS.escape[1],
        ),
    )
    (run,) = lockstep_ends(made_up, [1.7], cfg)
    assert run.termination is Termination.DIVERGED and run.rule == "norm"
    assert run.elapsed == m * cfg.step and run.tau == m
    # the same run with the norm out of reach is timed within the step
    (timed,) = lockstep_ends(made_up, [1.7], config(0.2))
    assert m - 1 < timed.tau < m


def drift_toy() -> ParameterizedSystem:
    """x' = (v, 0) at p = (v, f), batched, from x0 = 0: each step moves the
    first coordinate by v h.  Its escape set is x[0] >= 1, and its own
    ``crossing`` says a run entered it at the fraction f of the step, the
    run's escape row."""

    def field(x, p):
        out = np.zeros(x.shape)
        out[..., 0] = p[..., 0]
        return out

    def crossing(x_prev, x, p, rows):
        inside = x[:, 0] >= 1.0
        if not inside.any():
            return None
        return np.where(inside, rows[:, 0], np.nan)

    return ParameterizedSystem(
        state_dim=2,
        param_dim=2,
        field=field,
        jacobian=lambda x, p: np.zeros(x.shape + (2,)),
        initial_condition=lambda p: np.zeros(np.shape(p)),
        name="drift",
        batched=True,
        escape=(lambda p, sep, cfg: p[:, 1:].copy(), crossing),
    )


def drift_ends(points, cfg, later=()):
    """Run ends, in order, of the drift toy at ``points`` started together
    and of ``later`` started two steps after them."""
    lock = Lockstep(drift_toy(), cfg)
    ids = list(lock.add(np.array(points, dtype=float), np.zeros((len(points), 2))))
    ends = {}
    for _ in range(2):
        ends.update(lock.step())
    if len(later):
        ids += list(lock.add(np.array(later, dtype=float), np.zeros((len(later), 2))))
    while len(lock):
        ends.update(lock.step())
    return [ends[k] for k in ids]


def test_engine_times_an_escape_by_the_systems_crossing_alike_in_any_batch():
    """A run of a system without an energy ends ``DIVERGED`` at the first
    state its crossing puts in the set, at tau = n - 1 + f for the fraction
    f the crossing gives, or at tau = n = 1 when that is its first state:
    bitwise alike alone, in one batch and started in two groups."""
    cfg = IntegratorConfig(step=0.1)
    # speeds that take 1 (v h >= 1), 2, 3, 4, 10 and 34 steps, and
    # fractions with f = 1 among them; the second group's first step is
    # the batch's third
    points = [(7.0, 0.25), (4.0, 1.0), (12.0, 0.3), (3.0, 0.5), (1.05, 0.75),
              (0.3, 0.125), (15.0, 0.4), (2.6, 0.0625)]
    alone = [drift_ends([q], cfg)[0] for q in points]
    together = drift_ends(points, cfg)
    groups = drift_ends(points[:3], cfg, later=points[3:])
    first = 0
    for (v, f), run, member, grouped in zip(points, alone, together, groups):
        n = round(run.elapsed / cfg.step)
        traj = simulate(drift_toy(), [v, f], cfg, np.zeros(2))
        assert len(traj) == n + 1 and traj.states[-2, 0] < 1.0 <= traj.states[-1, 0]
        assert run.termination is Termination.DIVERGED
        assert run.tau == (n if n == 1 else n - 1 + f)
        first += n == 1
        for other in (member, grouped):
            assert other.termination is run.termination
            assert other.tau == run.tau and other.elapsed == run.elapsed
            assert np.array_equal(other.final_state, run.final_state)
    assert first == 2

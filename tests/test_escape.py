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
from moi.instability_mode import average_jacobian
from moi.integrator import SEP_TOL, Lockstep, _recovery_sets
from moi.spectral import _eigvals

from conftest import escape_row, has_well, make_tent_toy, model_ends

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
    """The SEP representative ``turns`` turns on and its escape row; its
    first four columns (saddle, speed, level, gate) are the energy set's."""
    sep = pendulum_sep(PARAMS, torque) + [2.0 * np.pi * turns, 0.0]
    return sep, escape_row(SYS, [torque], cfg, sep)


def energy_only(saddle, speed, level, gate):
    """A row with this energy set, no exit cone and no well.  A made-up
    saddle "before every state" is -1e300, not -inf, so that the cone's
    coordinates stay finite."""
    return [saddle, speed, level, gate, gate, 0.0, 0.0, 0.0, 0.0, -np.inf, np.inf, np.inf,
            -np.inf, -np.inf]


def rows_of(row):
    """The ``rows`` callable of an escape hook that gives every run ``row``
    and no well."""
    return lambda p, sep, cfg_, radius: (np.tile(row, (len(p), 1)), np.zeros(len(p), dtype=bool))


def no_sets(row) -> bool:
    """Whether ``row`` is that of a run with no escape set and no well:
    the escape columns inf, except ia = 0, and the well's -inf."""
    return (np.isinf(np.delete(row[:12], 7)).all() and row[7] == 0.0
            and (row[12:] == -np.inf).all())


@settings(max_examples=60, deadline=None)
@given(torque=torques, turns=st.integers(-2, 2), step=steps)
def test_level_lies_just_below_the_saddle_right_of_the_sep(torque, turns, step):
    """The saddle is the equilibrium with an unstable direction next to the
    SEP on its right, and the level lies within 1e-5 below its energy."""
    sep, escape = row(torque, config(step), turns)
    saddle, speed, level, _ = escape[:4]
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
    saddle, speed, level, _ = row(torque, cfg)[1][:4]
    budget = np.floor(max_time / step + 1e-9)
    delta = energy([saddle, 0.0], torque) - level
    assert delta >= budget * 2.0 * newton_tol * (C1 + torque + speed)


@settings(max_examples=60, deadline=None)
@given(torque=torques, step=steps, angle=st.floats(-10.0, 10.0), frac=st.floats(-1.0, 1.0))
def test_speed_bound_is_kept_by_every_step(torque, step, angle, frac):
    """|w| <= B implies |w'| <= B (h c2 < 2)."""
    cfg = config(step)
    speed = row(torque, cfg)[1][1]
    y = step_trapezoidal(SYS, np.array([angle, frac * speed]), np.array([torque]), cfg)
    assert abs(y[1]) <= speed


@settings(max_examples=60, deadline=None)
@given(torque=torques, step=steps, angle=st.floats(-10.0, 10.0), frac=st.floats(-1.0, 1.0))
def test_energy_falls_by_the_damping_less_the_trapezoid_error(torque, step, angle, frac):
    """E' - E <= -h w_bar^2 (c2 - c1 h^2 |w_bar| / 12), up to the Newton
    residual, for |w| <= B."""
    cfg = config(step)
    speed = row(torque, cfg)[1][1]
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
    saddle, speed, level, _ = row(torque, cfg)[1][:4]
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
    assert np.isfinite(escape_row(sys_, [torque], config(inside), sep)[:4]).all()
    assert no_sets(escape_row(sys_, [torque], config(outside), sep))


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
    assert no_sets(escape_row(SYS, [torque], cfg, sep))


def test_models_without_an_energy_function_have_no_escape_set(nine_bus):
    """The swing network and the toys run as before: no escape set, and
    escape rows of width 0."""
    grid = multimachine_system(nine_bus)
    assert grid.end_sets is None and make_tent_toy().end_sets is None
    p, sep = np.array([[1.0]]), find_sep(grid, [1.0])[None]
    cfg = IntegratorConfig(step=1.0 / 60.0)
    assert _recovery_sets(grid, p, sep, cfg)[3].shape == (1, 0)


def test_energy_is_evaluated_once_per_step_where_a_set_can_hold_a_state(
    pendulum, pend_cfg, monkeypatch
):
    """E is evaluated once per step, at every state, on exactly the steps
    with a state before its well's edge or past its escape set's low end,
    and once more at the previous state of each escape timed within its
    step (a state past its saddle): for a run that recovers in its well and
    one that escapes."""
    calls = []
    energy_fn = model_zoo._pendulum_energy

    def spy(c1, x, p):
        calls.append(np.array(x))
        return energy_fn(c1, x, p)

    monkeypatch.setattr(model_zoo, "_pendulum_energy", spy)
    for torque in (1.5, 1.7):
        calls.clear()
        sep = find_sep(pendulum, [torque])
        traj = simulate(pendulum, [torque], pend_cfg, sep)
        escape = escape_row(pendulum, [torque], pend_cfg, sep)
        saddle, low, edge = escape[0], escape[4], escape[12]
        assert saddle - 1e-5 < low < saddle and edge < low
        tested = [x for x in traj.states[1:] if x[0] < edge or x[0] > low]
        if torque == 1.5:
            assert traj.termination is Termination.CONVERGED_TO_SEP
            assert traj.states[-1][0] < edge
        else:
            # the run escapes from a state past its saddle: one timed escape
            assert traj.termination is Termination.DIVERGED and traj.states[-2][0] > saddle
            tested.append(traj.states[-2])
        assert 1 < len(tested) < len(traj) - 1
        assert np.array_equal(np.concatenate(calls), np.array(tested))


def eigen_coordinates(torque, saddle, x):
    """alpha and beta of the states ``x`` (K, 2) along the unstable and the
    stable eigenvector of the Jacobian at (saddle, 0), each scaled to a
    first component 1, worked out here by ``np.linalg.eig``."""
    values, vectors = np.linalg.eig(SYS.jacobian(np.array([saddle, 0.0]), np.array([torque])))
    vectors = vectors[:, np.argsort(-values.real)].real
    vectors /= vectors[0]
    alpha, beta = np.linalg.solve(vectors, (x - [saddle, 0.0]).T)
    return alpha, beta


@settings(max_examples=60, deadline=None)
@given(torque=torques, step=steps, seed=st.integers(0, 2**32 - 1))
# shallow wells, which states at the run's scale alone once missed
@example(torque=1.90625, step=0.02, seed=2652)
@example(torque=1.9642, step=0.4, seed=7)
def test_crossing_is_the_union_of_the_energy_set_and_the_cone(torque, step, seed):
    """The pendulum's ``ends`` puts a state in its escape set exactly when it is
    in the energy set (t > saddle, |w| <= speed and E < level) or in the
    exit cone (alpha <= top and phi = min(alpha - P beta^2 - mp,
    alpha - m) >= 0, in eigen-coordinates worked out here; such a state
    has alpha >= m > 0).  It times an
    energy entry at (E_- - level) / (E_- - E_n) when the previous state lay
    past the saddle above the level, a cone entry at phi_- / (phi_- - phi_n)
    when the previous state had phi_- < 0, at 1 otherwise, and an entry
    into both at the earlier of the two.  The same call puts a state in its
    energy well exactly when t < edge and E < floor.  The rows are the
    real ones.  States lie around the saddle at the energy set's scale,
    and at the cone's, from below its floor m to beyond its reach top,
    inside the parabola and outside it, and across the well, at the run's
    scale and at the well's own, from below its floor to above it and on
    both sides of its edge."""
    cfg = config(step)
    _, escape = row(torque, cfg)
    saddle, speed, level, _, _, _, _, _, wide, top, margin, m, edge, floor = escape
    rng = np.random.default_rng(seed)
    n = 200
    # angles around the saddle, speeds around the energy's level there
    x_prev, x = (
        np.column_stack([saddle + rng.uniform(-0.3, 0.3, n), rng.uniform(-0.8, 0.8, n)])
        for _ in range(2)
    )
    if np.isfinite(m):
        values = np.linalg.eigvals(SYS.jacobian(np.array([saddle, 0.0]), np.array([torque])))
        lam, kap = values.real.max(), -values.real.min()
        # below the floor, between floor and reach, beyond the reach, and
        # on the side of alpha < 0, a quarter each
        ends = np.log([m / 30.0, m, top, 3.0 * top])
        alpha = np.exp(np.concatenate(
            [rng.uniform(lo, hi, n // 4) for lo, hi in zip(ends, ends[1:])]
            + [rng.uniform(ends[1], ends[2], n // 4)]))
        alpha[-(n // 4):] *= -1.0
        beta = rng.uniform(-1.5, 1.5, n) * np.sqrt(np.abs(alpha) / wide)
        a_prev, b_prev = alpha * rng.uniform(0.5, 1.1, n), beta * rng.uniform(0.9, 1.5, n)
        x_prev = np.vstack([x_prev, np.column_stack([saddle + a_prev + b_prev,
                                                     lam * a_prev - kap * b_prev])])
        x = np.vstack([x, np.column_stack([saddle + alpha + beta, lam * alpha - kap * beta])])
    if np.isfinite(floor):
        # half at the scale of the run, half at the well's own: its width
        # edge - t_s and its top speed sqrt(2 (floor - U(t_s)))
        sep = pendulum_sep(PARAMS, torque)[0]
        width, top_speed = edge - sep, np.sqrt(2.0 * (floor - energy([sep, 0.0], torque)))
        well = np.vstack([
            np.column_stack([rng.uniform(sep - 1.5, edge + 0.2, n // 2),
                             rng.uniform(-1.5, 1.5, n // 2)]),
            np.column_stack([rng.uniform(sep - 2.0 * width, edge + 0.2 * width, n // 2),
                             rng.uniform(-1.5, 1.5, n // 2) * top_speed])])
        x_prev, x = np.vstack([x_prev, well[::-1]]), np.vstack([x, well])
    k_all = len(x)
    p = np.full((k_all, 1), torque)
    entered, recovered = SYS.end_sets[1](x_prev, x, p, np.tile(escape, (k_all, 1)))
    in_well = (x[:, 0] < edge) & (energy(x, torque) < floor)
    if recovered is None:
        assert not (x[:, 0] < edge).any()
    else:
        assert np.array_equal(recovered, in_well)
    assert in_well.any() == np.isfinite(floor)
    e_prev, e = energy(x_prev, torque), energy(x, torque)
    in_energy = (x[:, 0] > saddle) & (np.abs(x[:, 1]) <= speed) & (e < level)
    alpha, beta = eigen_coordinates(torque, saddle, x)
    bowl, lift = alpha - wide * beta**2 - margin, alpha - m
    phi = np.minimum(bowl, lift)
    in_cone = (alpha <= top) & (phi >= 0.0)
    # states within rounding of the cone's boundary decide nothing here
    scale = np.abs(alpha) + wide * beta**2
    clear = (np.abs(alpha - top) > 1e-9 * top) & (np.abs(bowl) > 1e-9 * scale)
    clear &= np.abs(lift) > 1e-9 * scale
    inside = in_energy | in_cone
    if not inside.any():
        assert entered is None or not np.isfinite(entered[clear]).any()
        return
    assert np.array_equal(np.isfinite(entered)[clear], inside[clear])
    if np.isfinite(m):
        # the cone is sampled inside, beyond its reach and below its floor
        in_bowl = (bowl >= 0.0) & clear
        assert (in_cone & clear).any() and (in_bowl & (alpha > top)).any()
        assert (in_bowl & (lift < 0.0)).any()
    timed = in_energy & (x_prev[:, 0] > saddle) & (e_prev > level)
    f_energy = np.full(k_all, np.inf)
    f_energy[in_energy] = 1.0
    f_energy[timed] = (e_prev[timed] - level) / (e_prev[timed] - e[timed])
    a_prev, b_prev = eigen_coordinates(torque, saddle, x_prev)
    phi_prev = np.minimum(a_prev - wide * b_prev**2 - margin, a_prev - m)
    f_cone = np.full(k_all, np.inf)
    f_cone[in_cone] = np.where(phi_prev < 0.0, phi_prev / (phi_prev - phi), 1.0)[in_cone]
    expected = np.minimum(f_energy, f_cone)
    both = inside & clear
    # the energy set alone is timed bit for bit, the cone to its rounding
    alone = both & ~in_cone
    assert np.array_equal(entered[alone], expected[alone])
    np.testing.assert_allclose(entered[both], expected[both], rtol=1e-6)
    assert ((0.0 < entered[both]) & (entered[both] <= 1.0)).all()


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
    saddle, _, _, gate = escape_row(SYS, [torque], cfg, exact)[:4]
    assert saddle < gate < saddle + 1e-3
    sep = exact + [error * (gate - saddle), 0.0]
    escape = escape_row(SYS, [torque], cfg, sep)
    saddle, speed, level, gate = escape[:4]
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
    opened = np.tile(energy_only(saddle, speed, level, saddle), (3, 1))
    assert SYS.end_sets[1](x, x, p, opened)[0] is None
    # from there into the set, well past the gate: the entry is interpolated
    inside = np.column_stack([np.full(3, saddle + 0.05), np.zeros(3)])
    e_in = model_zoo._pendulum_energy(C1, inside, p)
    assert (e_in < level).all()
    entered = SYS.end_sets[1](x, inside, p, np.tile(escape, (3, 1)))[0]
    expected = np.where(e_prev > level, (e_prev - level) / (e_prev - e_in), 1.0)
    assert np.array_equal(entered, expected)


@pytest.mark.parametrize("step", [0.02, 0.2, 0.8])
def test_lockstep_members_end_as_simulate_ends_them(pendulum, step):
    """Members started together and later, escaping, recovering and (at
    h = 0.8, without a certificate) diverging by norm, end bitwise as
    ``simulate`` ends them; the verdicts equal those of runs without the
    escape certificate."""
    cfg = config(step)
    bare = replace(pendulum, end_sets=None)
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


#: adjacent doubles bracketing the boundary of ``SYS`` (the closed-form
#: initial condition) at each step size
BOUNDARY = {
    0.02: (1.5686576201652571, 1.5686576201652573),
    0.08: (1.5685034625298035, 1.5685034625298038),
    0.2: (1.5676427269816566, 1.5676427269816569),
    0.4: (1.5646041249031584, 1.5646041249031586),
}


def in_cone(x, escape):
    """Whether the states ``x`` (K, 2) lie in the exit cone of ``escape``."""
    x = np.atleast_2d(x)
    alpha = escape[5] * (x[:, 0] - escape[0]) + escape[7] * x[:, 1]
    phi = model_zoo._cone_excess(x, np.tile(escape, (len(x), 1)))
    return (alpha <= escape[9]) & (phi >= 0.0)


@pytest.mark.parametrize("step", sorted(BOUNDARY))
def test_cone_ends_continue_into_the_energy_set(step):
    """Runs 1e-15 to 1e-3 above p*: every run that ends in its exit cone,
    continued with ``step_trapezoidal`` for the rest of its budget, reaches
    its energy set and, from its first state past its saddle on, never
    returns to t <= t_u, nor near its SEP.  Runs as far below p* recover
    and never enter their cones."""
    cfg = config(step)
    lo, hi = BOUNDARY[step]
    budget = int(np.floor(cfg.max_time / step + 1e-9))
    cone_ends = 0
    for gap in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3):
        below = lo * (1.0 - gap)
        sep = find_sep(SYS, [below])
        traj = simulate(SYS, [below], cfg, sep)
        assert traj.termination is Termination.CONVERGED_TO_SEP
        assert not in_cone(traj.states, escape_row(SYS, [below], cfg, sep)).any()
        above = hi * (1.0 + gap)
        sep = find_sep(SYS, [above])
        traj = simulate(SYS, [above], cfg, sep)
        escape = escape_row(SYS, [above], cfg, sep)
        saddle, speed, level = escape[:3]
        assert traj.termination is Termination.DIVERGED
        if not in_cone(traj.states[-1], escape)[0]:
            continue
        cone_ends += 1
        y, past, reached = traj.states[-1], traj.states[-1][0] > saddle, False
        for _ in range(budget - (len(traj) - 1)):
            y = step_trapezoidal(SYS, y, np.array([above]), cfg)
            assert not past or y[0] > saddle
            assert np.linalg.norm(y - sep) > 0.1
            past |= y[0] > saddle
            reached |= y[0] > saddle and abs(y[1]) <= speed and energy(y, above) < level
        assert reached
    # the runs that linger longest end in their cones
    assert cone_ends >= 3


@pytest.mark.parametrize("step", sorted(BOUNDARY))
def test_well_ends_continue_in_the_well(step):
    """Runs at p*, p* - 1e-9 and p* - 1e-3 and from the benchmark's starts
    1.45 to 1.5199, which all end in their wells: each run, continued with
    ``step_trapezoidal`` over the rest of its budget, stays in its well
    (t < edge and E < floor), flags no state and never enters its escape
    set."""
    cfg = config(step)
    lo = BOUNDARY[step][0]
    budget = int(np.floor(cfg.max_time / step + 1e-9))
    for torque in (lo, lo - 1e-9, lo - 1e-3, 1.45, 1.4734, 1.50, 1.5199):
        p = np.array([torque])
        sep = find_sep(SYS, p)
        traj = simulate(SYS, p, cfg, sep)
        escape = escape_row(SYS, p, cfg, sep)
        edge, floor = escape[12:]
        assert traj.termination is Termination.CONVERGED_TO_SEP
        y = traj.states[-1]
        assert y[0] < edge and energy(y, torque) < floor
        states = [y]
        for _ in range(budget - (len(traj) - 1)):
            y = step_trapezoidal(SYS, y, p, cfg)
            states.append(y)
        states = np.array(states)
        assert (states[:, 0] < edge).all() and (energy(states, torque) < floor).all()
        flags = _eigvals(SYS.jacobian(states, np.tile(p, (len(states), 1)))).real.max(axis=-1)
        assert (flags <= cfg.stability_tol).all()
        entered = model_ends(SYS, p, cfg, sep, states)[0]
        assert entered is None or not np.isfinite(entered).any()


def without_well(sys_):
    """``sys_`` with its escape sets and no energy well: its runs recover
    by the certified set."""
    rows, ends = sys_.end_sets

    def no_well(p, sep, cfg, radius):
        escape, _ = rows(p, sep, cfg, radius)
        escape[:, 12:] = -np.inf
        return escape, np.zeros(len(p), dtype=bool)

    return replace(sys_, end_sets=(no_well, ends))


@pytest.mark.parametrize(
    "params, torque, settings_",
    [(PendulumParams(disturbance_duration=0.0), 1.99999, {}),
     (PARAMS, 1.4, {"newton_tol": 1e-6, "max_time": 400.0})],
    ids=["at-its-sep-near-c1", "large-budget-rise"],
)
def test_a_run_whose_well_would_miss_its_sep_has_none_and_recovers(params, torque, settings_):
    """Where the well's floor would lie below its SEP's energy (a well a
    few 1e-8 deep at 1.99999 against delta about 2e-4; N e about 0.41
    against a depth of 0.31 at 1.4), the run has no well and still ends
    ``CONVERGED_TO_SEP``, exactly as with its wells taken away."""
    sys_ = pendulum_system(params)
    cfg = config(0.02, **settings_)
    p = np.array([torque])
    sep = find_sep(sys_, p)
    assert not has_well(sys_, p, cfg, sep)
    traj = simulate(sys_, p, cfg, sep)
    bare = simulate(without_well(sys_), p, cfg, sep)
    assert traj.termination is bare.termination is Termination.CONVERGED_TO_SEP
    assert np.array_equal(traj.states, bare.states)


@pytest.mark.parametrize("step", [0.02, 0.4])
@pytest.mark.parametrize("duration", [0.8, 0.0])
def test_a_run_with_a_well_ends_no_later_than_its_certified_set_or_dwell(step, duration):
    """A run with a well, up to the torque where the well stops holding
    the certified set (about 1.9643), ends ``CONVERGED_TO_SEP`` in it no
    later than the same run without its wells ends by its certified set
    or the dwell rule, on the same states; a run started at its SEP ends
    in its well at its first step."""
    params = PendulumParams(disturbance_duration=duration)
    sys_ = pendulum_system(params)
    cfg = config(step)
    for torque in (0.5, 1.0, 1.45, 1.5, 1.9, 1.964):
        p = np.array([torque])
        sep = find_sep(sys_, p)
        traj = simulate(sys_, p, cfg, sep)
        bare = simulate(without_well(sys_), p, cfg, sep)
        if bare.termination is not Termination.CONVERGED_TO_SEP:
            continue
        assert has_well(sys_, p, cfg, sep)
        assert traj.termination is Termination.CONVERGED_TO_SEP
        assert len(traj) <= len(bare)
        assert np.array_equal(traj.states, bare.states[: len(traj)])
        if duration == 0.0:
            assert len(traj) == 2


def test_averaging_at_p_star_is_that_of_the_run_to_its_certified_end(pendulum, pend_cfg):
    """At the boundary p* (h 0.02) the run that ends in its well and the
    same run continued to its certified end have the same last unstable
    index j = 2176 and, bit for bit, the same Jacobian sum; the run ends
    after 2,216 steps, not 2,502."""
    p = np.array([1.5686593295631313])
    sep = find_sep(pendulum, p)
    short = average_jacobian(pendulum, p, pend_cfg, sep)
    long = average_jacobian(without_well(pendulum), p, pend_cfg, sep)
    assert short.last_unstable_index == long.last_unstable_index == 2176
    assert np.array_equal(short.jacobian_sum, long.jacobian_sum)
    assert np.array_equal(short.matrix, long.matrix)
    assert (short.samples_total, long.samples_total) == (2217, 2503)


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
    gate that holds for any set, and no made-up row has an exit cone."""
    cfg = config(0.2)
    x, e, m = escaping_run(1.7, cfg)
    saddle = (x[m - 1, 0] + x[m, 0]) / 2.0
    crossing = energy_only(saddle, np.inf, (e[m - 1] + e[m]) / 2.0, saddle)

    def rows(p, sep, cfg_, radius):
        return (np.where(p == 1.7, crossing, energy_only(-1e300, np.inf, -np.inf, -1e300)),
                np.zeros(len(p), dtype=bool))

    made_up = replace(SYS, end_sets=(rows, SYS.end_sets[1]))
    (alone,) = lockstep_ends(made_up, [1.7], cfg)
    batch = lockstep_ends(made_up, [1.7, 1.75], cfg)
    for run in (alone, batch[0]):
        assert run.termination is Termination.DIVERGED
        assert run.elapsed == m * cfg.step and run.tau == m
    # the first step is not timed: a run in its set one step on, from an
    # initial state past its saddle above the level, ends at tau = 1
    first = energy_only(-1e300, np.inf, (e[0] + e[1]) / 2.0, -1e300)
    assert e[1] < e[0]
    from_start = replace(SYS, end_sets=(rows_of(first), SYS.end_sets[1]))
    (run,) = lockstep_ends(from_start, [1.7], cfg)
    assert run.elapsed == cfg.step and run.tau == 1.0


def test_norm_end_is_timed_on_the_secant_of_the_last_two_norms():
    """A run that passes the divergence norm R in its step m, in which it
    also enters its escape set from a state past its saddle above the
    level, ends by the norm at tau = m - 1 + (R - |x_(m-1)|) / (|x_m| -
    |x_(m-1)|), exactly: the norm, not the energy, ends it, where the
    secant between the last two norms crosses R.  The escape row is made
    up for the test, with the level between the energies of states m - 1
    and m and no exit cone, and R lies between their norms; its gate
    equals its saddle."""
    x, e, m = escaping_run(1.7, config(0.2))
    norms = np.sqrt(x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1])
    reach = (norms[m - 1] + norms[m]) / 2.0
    cfg = IntegratorConfig(step=0.2, divergence_norm=reach)
    made_up = replace(
        SYS,
        end_sets=(rows_of(energy_only(-1e300, np.inf, (e[m - 1] + e[m]) / 2.0, -1e300)),
                SYS.end_sets[1]),
    )
    (run,) = lockstep_ends(made_up, [1.7], cfg)
    (batch, _) = lockstep_ends(made_up, [1.7, 1.75], cfg)
    secant = m - 1 + (reach - norms[m - 1]) / (norms[m] - norms[m - 1])
    for end in (run, batch):
        assert end.termination is Termination.DIVERGED and end.rule == "norm"
        assert end.elapsed == m * cfg.step and end.tau == secant
    assert m - 1 < secant < m
    # the same run with the norm out of reach is timed by its energy
    (timed,) = lockstep_ends(made_up, [1.7], config(0.2))
    assert timed.rule == "escape" and m - 1 < timed.tau < m and timed.tau != secant


def drift_toy() -> ParameterizedSystem:
    """x' = (v, 0) at p = (v, f), from x0 = 0: each step moves the
    first coordinate by v h.  Its escape set is x[0] >= 1, and its own
    ``ends`` says a run entered it at the fraction f of the step, the
    run's escape row; no run has a well."""

    def field(x, p):
        out = np.zeros(x.shape)
        out[..., 0] = p[..., 0]
        return out

    def ends(x_prev, x, p, rows):
        inside = x[:, 0] >= 1.0
        if not inside.any():
            return None, None
        return np.where(inside, rows[:, 0], np.nan), None

    return ParameterizedSystem(
        state_dim=2,
        param_dim=2,
        field=field,
        jacobian=lambda x, p: np.zeros(x.shape + (2,)),
        initial_condition=lambda p: np.zeros(np.shape(p)),
        name="drift",
        end_sets=(lambda p, sep, cfg, radius: (p[:, 1:].copy(), np.zeros(len(p), dtype=bool)),
                  ends),
    )


def toy_ends(toy, points, cfg, later=()):
    """Run ends, in order, of the system ``toy`` at ``points`` started
    together and of ``later`` started two steps after them, all at the
    SEP 0."""
    lock = Lockstep(toy, cfg)
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
    alone = [toy_ends(drift_toy(), [q], cfg)[0] for q in points]
    together = toy_ends(drift_toy(), points, cfg)
    groups = toy_ends(drift_toy(), points[:3], cfg, later=points[3:])
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


def well_toy() -> ParameterizedSystem:
    """x' = (v, 0) at p = (v, w), from x0 = 0, its SEP: a run with w > 0
    has a well, x[0] >= 1 and the ball of the radius the integrator asks
    for around its SEP, and no escape set; one with w = 0 has neither.
    Its rows hold w and that radius."""

    def field(x, p):
        out = np.zeros(x.shape)
        out[..., 0] = p[..., 0]
        return out

    def rows(p, sep, cfg, radius):
        return np.stack([p[:, 1], radius], axis=-1), p[:, 1] > 0.0

    def ends(x_prev, x, p, rows):
        inside = (x[:, 0] >= 1.0) | (np.linalg.norm(x, axis=1) <= rows[:, 1])
        return None, inside & (rows[:, 0] > 0.0)

    return ParameterizedSystem(
        state_dim=2,
        param_dim=2,
        field=field,
        jacobian=lambda x, p: np.zeros(x.shape + (2,)),
        initial_condition=lambda p: np.zeros(np.shape(p)),
        name="well",
        end_sets=(rows, ends),
    )


def test_engine_ends_a_run_in_its_well_alike_in_any_batch():
    """A run whose system puts it in its well ends ``certified``
    (``CONVERGED_TO_SEP``) there.  A system without a certificate is asked
    for wells that hold the ball of radius ``SEP_TOL`` around the SEP, so a
    run with a well at its SEP ends in it at its first step, before the
    dwell rule would end it, while a run without one dwells: bitwise alike
    alone, in one batch and started in two groups."""
    cfg = IntegratorConfig(step=0.1, max_time=2.0)
    assert _recovery_sets(well_toy(), np.array([[0.0, 1.0]]), np.zeros((1, 2)), cfg)[3][0, 1] \
        == SEP_TOL
    # (v, w): at its SEP with a well, at its SEP without, into its well
    # after 4 steps, and away from its SEP without a well
    points = [(0.0, 1.0), (0.0, 0.0), (3.0, 1.0), (3.0, 0.0)]
    expected = [("certified", 1), ("dwell", 10), ("certified", 4), ("budget", 20)]
    alone = [toy_ends(well_toy(), [q], cfg)[0] for q in points]
    together = toy_ends(well_toy(), points, cfg)
    groups = toy_ends(well_toy(), points[:1], cfg, later=points[1:])
    assert [(run.rule, round(run.elapsed / cfg.step)) for run in alone] == expected
    for run, member, grouped in zip(alone, together, groups):
        for other in (member, grouped):
            assert (other.rule, other.termination) == (run.rule, run.termination)
            assert other.tau == run.tau and other.elapsed == run.elapsed
            assert np.array_equal(other.final_state, run.final_state)

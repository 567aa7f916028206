"""Lockstep batches against the single-state path, and the pipelined
multisection search that runs on them."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moi.recovery_boundary
from moi import (
    BoundarySearchResult,
    DimensionMismatch,
    IntegratorConfig,
    MULTIMACHINE_DIVERGENCE_NORM,
    MoiError,
    NewtonDivergence,
    NonFiniteOutput,
    NotStable,
    ParamOutOfRange,
    ParameterizedSystem,
    Termination,
    UndeterminedAtBisection,
    Verdict,
    classify_recovery,
    find_sep,
    initial_state,
    multimachine_system,
    ray_boundary_search,
    simulate,
    step_trapezoidal,
)
from moi.integrator import (
    NEWTON_MAX_ITER,
    SEP_DWELL,
    SEP_TOL,
    Lockstep,
    RunEnd,
    step_trapezoidal_batch,
)
from moi.recovery_boundary import (
    GUIDE_MIN_ULPS,
    SECTIONS,
    _fit_crossing,
    _guided_fractions,
    _hold_end,
    _next_points,
    _points_at,
    _round_points,
    _ulps,
)

from test_recovery_boundary import gated_decay_system

#: adjacent doubles bracketing the pendulum boundary at h = 0.02
PEND_P_STAR = 1.5686593295631313


def single_steps(sys_, x, p, cfg, n_steps):
    """States of ``n_steps`` single steps, or None once a step raises."""
    out = []
    for _ in range(n_steps):
        try:
            x = step_trapezoidal(sys_, x, p, cfg)
        except (NewtonDivergence, NonFiniteOutput):
            out.append(None)
            break
        out.append(x)
    return out


def assert_batch_steps_match(sys_, x, p, cfg, n_steps):
    """Every batch member's trajectory equals the single-state one bitwise,
    and a member fails exactly where the single step raises.  Each step
    takes the field that the one before returned."""
    reference = [single_steps(sys_, xk, pk, cfg, n_steps) for xk, pk in zip(x, p)]
    alive = np.ones(len(x), dtype=bool)
    f = None
    for n in range(n_steps):
        x, failed, f = step_trapezoidal_batch(sys_, x, p, cfg, f)
        for k in np.flatnonzero(alive):
            expected = reference[k][n]
            if expected is None:
                assert failed[k]
                alive[k] = False
            else:
                assert not failed[k]
                assert np.array_equal(x[k], expected)
        if not alive.any():
            break


@settings(max_examples=15, deadline=None)
@given(
    angles=st.lists(st.floats(-3.0, 6.0), min_size=1, max_size=7),
    velocity=st.floats(-5.0, 5.0),
    torque=st.floats(1.0, 1.9),
    h=st.sampled_from([0.02, 0.1, 0.4]),
)
def test_batched_step_matches_single_step_on_pendulum(
    pendulum, angles, velocity, torque, h
):
    k = len(angles)
    x = np.column_stack([angles, np.linspace(velocity, -velocity, k)])
    p = np.full((k, 1), torque) + np.linspace(0.0, 0.05, k)[:, None]
    assert_batch_steps_match(pendulum, x, p, IntegratorConfig(step=h), 40)


@settings(max_examples=8, deadline=None)
@given(
    scale=st.floats(0.3, 1.5),
    spread=st.floats(0.0, 1.0),
    members=st.integers(1, 5),
)
def test_batched_step_matches_single_step_on_nine_bus(nine_bus, scale, spread, members):
    grid = multimachine_system(nine_bus)
    rng = np.random.default_rng(int(1e6 * scale))
    x = rng.uniform(-spread, spread, (members, grid.state_dim))
    p = np.full((members, 1), scale) + np.linspace(0.0, 0.2, members)[:, None]
    assert_batch_steps_match(grid, x, p, IntegratorConfig(step=1.0 / 60.0), 20)


def linear_system():
    """x' = r x from x0 = 1, with the rate r as the parameter."""

    def rates(p):
        return p[..., :1]

    return ParameterizedSystem(
        state_dim=1,
        param_dim=1,
        field=lambda x, p: rates(p) * x,
        jacobian=lambda x, p: rates(p)[..., None] * np.ones(x.shape + (1,)),
        initial_condition=lambda p: np.ones(p.shape[:-1] + (1,)),
    )


def test_singular_member_fails_alone():
    """x' = r x with r = 100 makes I - (h/2) r singular at h = 0.02; that
    member fails at its first Newton update, whose nan it does not iterate
    on, and the others step on as the single step would."""
    sys_ = linear_system()
    cfg = IntegratorConfig(step=0.02)
    x = np.array([[1.0], [1.0], [2.0]])
    p = np.array([[-1.0], [100.0], [3.0]])
    jacobians = []

    def spy(y, q):
        jacobians.append(y.copy())
        return sys_.jacobian(y, q)

    y, failed, _ = step_trapezoidal_batch(replace(sys_, jacobian=spy), x, p, cfg)
    assert failed.tolist() == [False, True, False]
    # one update solves a linear member
    assert len(jacobians) == 1
    for k in (0, 2):
        assert np.array_equal(y[k], step_trapezoidal(sys_, x[k], p[k], cfg))
    with pytest.raises(NewtonDivergence):
        step_trapezoidal(sys_, x[1], p[1], cfg)


def test_misshaped_batched_jacobian_raises():
    """A batched Jacobian that is not (K, n, n) raises, where a (1, 1)
    one would broadcast over the members' Newton matrices."""
    sys_ = replace(linear_system(), jacobian=lambda x, p: np.ones((1, 1)))
    with pytest.raises(DimensionMismatch, match=r"batched jacobian returned shape \(1, 1\)"):
        step_trapezoidal_batch(sys_, np.ones((3, 1)), np.full((3, 1), -1.0),
                               IntegratorConfig(step=0.02))


#: member kinds of ``mixed_system``, picked by p[0]
ORDINARY, NAN_JACOBIAN, STALLS, STILL, CURVED = range(5)


def mixed_system():
    """Batched x' = f(x) whose form each member picks with p[0]: -x
    (ordinary), -x with a NaN Jacobian, the stiff -100 x^3 (from x = 1e3
    at h = 0.1 its Newton iteration takes about 45 updates to reach the
    rounding floor of its residual, near 2e-7, and stalls there), no field
    at all (the step converges on the predictor), and -sin(x)."""

    def kind(p):
        return p[..., :1]

    def field(x, p):
        k = kind(p)
        return np.where(
            k == STALLS, -100.0 * x**3,
            np.where(k == STILL, 0.0, np.where(k == CURVED, -np.sin(x), -x)),
        )

    def jacobian(x, p):
        k = kind(p)
        d = np.where(
            k == NAN_JACOBIAN, np.nan,
            np.where(
                k == STALLS, -300.0 * x**2,
                np.where(k == STILL, 0.0, np.where(k == CURVED, -np.cos(x), -1.0)),
            ),
        )
        return d[..., None]

    return ParameterizedSystem(
        state_dim=1, param_dim=1, field=field, jacobian=jacobian
    )


def test_failing_members_fail_alone_and_converged_members_stay_frozen():
    """Members that fail do so where the single step raises, and only
    they; the others equal the single step bitwise, and a member that has
    converged is not moved while the others iterate on."""
    kinds = [ORDINARY, NAN_JACOBIAN, STALLS, STILL, CURVED, ORDINARY]
    p = np.array(kinds, dtype=float)[:, None]
    x = np.array([[1.0], [1.0], [1e3], [0.7], [1.0], [-2.5]])
    cfg = IntegratorConfig(step=0.1)
    seen = []

    def spy(y, q):
        seen.append(y.copy())
        return mixed_system().jacobian(y, q)

    y, failed, _ = step_trapezoidal_batch(replace(mixed_system(), jacobian=spy), x, p, cfg)
    assert failed.tolist() == [False, True, True, False, False, False]
    with pytest.raises(NonFiniteOutput):
        step_trapezoidal(mixed_system(), x[1], p[1], cfg)
    with pytest.raises(NewtonDivergence, match="stalled"):
        step_trapezoidal(mixed_system(), x[2], p[2], cfg)
    for k in np.flatnonzero(~failed):
        assert np.array_equal(y[k], step_trapezoidal(mixed_system(), x[k], p[k], cfg))
    # one Jacobian per Newton update: the stalling member ran them all
    assert len(seen) == NEWTON_MAX_ITER
    # the still member converged on its predictor x, the linear ones after
    # one update, and the member with the NaN Jacobian failed before its
    # first update; none of them moved while the others went on
    assert np.array_equal(y[3], x[3])
    for y_seen in seen:
        assert np.array_equal(y_seen[[1, 3]], seen[0][[1, 3]])
        assert np.array_equal(y_seen[3], x[3])
    for y_seen in seen[1:]:
        assert np.array_equal(y_seen[[0, 5]], y[[0, 5]])


def damped_oscillator():
    """x'' = -x / 4 - c x' with the damping c as the parameter, from
    (1e-5, 0).  Its distance to the origin swings between the amplitude and
    half of it, so the run enters a ball about the origin, leaves it and
    comes back several times before it stays."""

    def field(x, p):
        xt, out = x.T, np.empty(x.shape)
        out.T[0] = xt[1]
        out.T[1] = -0.25 * xt[0] - p.T[0] * xt[1]
        return out

    def jacobian(x, p):
        jac = np.zeros(x.shape + (2,))
        jac[..., 0, 1] = 1.0
        jac[..., 1, 0] = -0.25
        jac[..., 1, 1] = -p[..., 0]
        return jac

    return ParameterizedSystem(
        state_dim=2,
        param_dim=1,
        field=field,
        jacobian=jacobian,
        initial_condition=lambda p: np.stack(
            [np.full(p.shape[:-1], 1e-5), np.zeros(p.shape[:-1])], axis=-1
        ),
    )


def test_dwell_restarts_when_a_member_leaves_the_sep_ball():
    sys_ = damped_oscillator()
    # the model is linear: the SEP_TOL ball is a tenth of the initial amplitude
    cfg = IntegratorConfig(step=0.1, max_time=300.0)
    points = np.array([[0.05], [0.08]])
    sep = np.zeros(2)
    runs = run_lockstep(sys_, points, cfg, np.zeros((2, 2)))
    for p, run in zip(points, runs):
        traj = simulate(sys_, p, cfg, sep)
        assert traj.termination is Termination.CONVERGED_TO_SEP
        # a dwell count that did not restart when the run left the ball
        # would have reached SEP_DWELL, and ended the run, earlier
        inside = np.linalg.norm(traj.states, axis=1) <= SEP_TOL
        assert np.flatnonzero(np.cumsum(inside) >= SEP_DWELL)[0] < len(traj) - 1
        assert run.termination is traj.termination and run.rule == "dwell"
        assert np.array_equal(run.final_state, traj.states[-1])
        assert run.elapsed == traj.elapsed


def scalar_verdicts(sys_, points, cfg):
    return [
        classify_recovery(sys_, p, cfg, find_sep(sys_, p)) for p in points
    ]


def run_lockstep(sys_, points, cfg, seps):
    """Run ends of the members started together in one Lockstep, in order."""
    lock = Lockstep(sys_, cfg)
    ids = lock.add(points, seps)
    ends = {}
    while len(lock):
        ends.update(lock.step())
    return [ends[k] for k in ids.tolist()]


def batch_verdicts(sys_, points, cfg):
    seps = np.array([find_sep(sys_, p) for p in points])
    runs = run_lockstep(sys_, points, cfg, seps)
    return [
        classify_recovery(sys_, p, cfg, sep, run)
        for p, sep, run in zip(points, seps, runs)
    ]


@settings(max_examples=6, deadline=None)
@given(torques=st.lists(st.floats(1.50, 1.62), min_size=1, max_size=6))
@example(torques=[PEND_P_STAR, float(np.nextafter(PEND_P_STAR, np.inf)), 1.5])
def test_batched_verdicts_match_classify_recovery(pendulum, pend_cfg, torques):
    points = np.array(torques)[:, None]
    expected = scalar_verdicts(pendulum, points, pend_cfg)
    assert batch_verdicts(pendulum, points, pend_cfg) == expected


def test_straddling_set_splits_at_the_boundary(pendulum, pend_cfg):
    points = np.array([[PEND_P_STAR], [np.nextafter(PEND_P_STAR, np.inf)]])
    assert [v.verdict for v in batch_verdicts(pendulum, points, pend_cfg)] == [
        Verdict.RECOVERS,
        Verdict.FAILS_TO_RECOVER,
    ]


def test_batched_runs_end_as_simulate_ends_them():
    """One member per termination: decay converges, r = 100 is singular at
    h = 0.02, r = 3 diverges and slow decay runs out of time."""
    cfg = IntegratorConfig(step=0.02, max_time=20.0, divergence_norm=100.0)
    points = np.array([[-1.0], [100.0], [3.0], [-1e-3]])
    sep = np.zeros(1)
    sys_ = linear_system()
    runs = run_lockstep(sys_, points, cfg, np.zeros((len(points), 1)))
    assert [run.termination for run in runs] == [
        Termination.CONVERGED_TO_SEP,
        Termination.SOLVER_FAILURE,
        Termination.DIVERGED,
        Termination.MAX_TIME_REACHED,
    ]
    assert [run.rule for run in runs] == ["dwell", "solver", "norm", "budget"]
    for p, run in zip(points, runs):
        traj = simulate(sys_, p, cfg, sep)
        assert np.array_equal(run.final_state, traj.states[-1])
        assert run.elapsed == traj.elapsed
        assert classify_recovery(sys_, p, cfg, sep, run) == classify_recovery(
            sys_, p, cfg, sep
        )


def test_member_added_later_ends_as_simulate_ends_it_alone(pendulum):
    cfg = IntegratorConfig(step=0.05, divergence_norm=50.0)
    first, later = np.array([1.5]), np.array([1.7])
    lock = Lockstep(pendulum, cfg)
    ends = {}
    (a,) = lock.add(first[None], find_sep(pendulum, first)[None]).tolist()
    for _ in range(37):
        ends.update(lock.step())
    (b,) = lock.add(later[None], find_sep(pendulum, later)[None]).tolist()
    while len(lock):
        ends.update(lock.step())
    for k, p in ((a, first), (b, later)):
        traj = simulate(pendulum, p, cfg, find_sep(pendulum, p))
        assert ends[k].termination is traj.termination
        assert np.array_equal(ends[k].final_state, traj.states[-1])
        assert ends[k].elapsed == traj.elapsed


@pytest.mark.parametrize(
    "model, h, norm, first, later",
    [("pendulum", 0.05, 50.0, [1.0, 1.2, 1.5, 1.8], [1.1, 1.7]),
     ("nine_bus", 1.0 / 60.0, MULTIMACHINE_DIVERGENCE_NORM, [0.3, 0.5, 0.9], [0.6, 1.2])],
)
def test_carried_field_is_the_field_of_the_live_members(
    request, model, h, norm, first, later
):
    """After every step the field that a Lockstep carries into its next
    batched step is, where it has one, ``sys.field`` of its live members,
    bitwise, while members are added, dropped, end and step alone."""
    sys_ = request.getfixturevalue(model)
    if model == "nine_bus":
        sys_ = multimachine_system(sys_)
    cfg = IntegratorConfig(step=h, divergence_norm=norm)
    lock = Lockstep(sys_, cfg)

    def start(values):
        points = np.array(values)[:, None]
        ids = lock.add(points, np.array([find_sep(sys_, q) for q in points]))
        assert lock._f is None
        return ids.tolist()

    ids = start(first)
    carried = lone = 0
    while len(lock):
        lone += len(lock) == 1
        lock.step()
        if lock.steps == 3:
            ids += start(later)
        if lock.steps == 6:
            lock.drop([ids[1]])
        if lock._f is None:
            continue
        carried += 1
        assert np.array_equal(lock._f, sys_.field(lock._x, lock._p))
    assert carried > 0 and lone > 0


def test_member_left_alone_switches_to_the_single_step(pendulum, monkeypatch):
    """A member that outlives its round-mates takes the batched step while
    they live and the single-state step after; its states equal those of a
    simulate of its parameter, state for state, and it ends as that run."""
    cfg = IntegratorConfig(step=0.05, divergence_norm=50.0)
    points = np.array([[1.0], [1.2], [1.5]])
    seps = np.array([find_sep(pendulum, p) for p in points])
    steppers = []
    batch, single = step_trapezoidal_batch, step_trapezoidal

    def spy_batch(sys_, x, p, cfg_, fx):
        steppers.append(len(x))
        return batch(sys_, x, p, cfg_, fx)

    def spy_single(*args):
        steppers.append(1)
        return single(*args)

    monkeypatch.setattr(moi.integrator, "step_trapezoidal_batch", spy_batch)
    monkeypatch.setattr(moi.integrator, "step_trapezoidal", spy_single)
    lock = Lockstep(pendulum, cfg)
    *_, last = lock.add(points, seps).tolist()
    states, ends = [lock._x[-1].copy()], {}
    while last not in ends:
        ends.update(lock.step())
        if last not in ends:
            states.append(lock._x[lock._ids == last][0].copy())
    assert len(ends) == len(points)
    # batched steps at widths 3 and 2, then single steps alone
    lone = steppers.index(1)
    assert {2, 3} <= set(steppers[:lone]) and set(steppers[lone:]) == {1}
    monkeypatch.undo()
    traj = simulate(pendulum, points[-1], cfg, seps[-1])
    assert ends[last].termination is traj.termination is Termination.CONVERGED_TO_SEP
    assert np.array_equal(ends[last].final_state, traj.states[-1])
    assert ends[last].elapsed == traj.elapsed
    assert np.array_equal(np.array(states + [ends[last].final_state]), traj.states)


def test_dropped_members_are_never_reported():
    sys_ = linear_system()
    cfg = IntegratorConfig(step=0.02, max_time=20.0, divergence_norm=100.0)
    lock = Lockstep(sys_, cfg)
    ids = lock.add(np.array([[-1.0], [3.0], [-2.0]]), np.zeros((3, 1))).tolist()
    ends = {}
    for _ in range(5):
        ends.update(lock.step())
    lock.drop([ids[1]])
    assert len(lock) == 2
    while len(lock):
        ends.update(lock.step())
    assert sorted(ends) == [ids[0], ids[2]]


def test_an_add_that_raises_starts_no_member():
    """An add whose initial conditions raise for one member starts none of
    them, in an empty Lockstep and in one with live members; those step on
    and end as simulate ends them."""
    cfg = IntegratorConfig(step=0.02, max_time=20.0, divergence_norm=100.0)
    sys_ = replace(
        linear_system(), initial_condition=lambda p: np.where(p > 50.0, np.nan, 1.0)
    )
    lock = Lockstep(sys_, cfg)
    with pytest.raises(NonFiniteOutput):
        lock.add(np.array([[-1.0], [100.0]]), np.zeros((2, 1)))
    assert not len(lock) and lock.step() == {} and lock.steps == 0
    points = np.array([[-1.0], [-2.0]])
    ids = lock.add(points, np.zeros((2, 1))).tolist()
    assert ids == [0, 1]
    ends = lock.step()
    with pytest.raises(NonFiniteOutput):
        lock.add(np.array([[-3.0], [100.0]]), np.zeros((2, 1)))
    assert len(lock) == 2 and lock._f is not None
    while len(lock):
        ends.update(lock.step())
    assert sorted(ends) == ids
    for k, p in zip(ids, points):
        traj = simulate(sys_, p, cfg, np.zeros(1))
        assert ends[k].termination is traj.termination is Termination.CONVERGED_TO_SEP
        assert np.array_equal(ends[k].final_state, traj.states[-1])
        assert ends[k].elapsed == traj.elapsed
    assert lock.step() == {}


def test_empty_add_calls_no_initial_condition():
    def no_call(p):
        raise AssertionError("the initial condition was called")

    lock = Lockstep(replace(linear_system(), initial_condition=no_call),
                    IntegratorConfig(step=0.02))
    assert lock.add(np.zeros((0, 1)), np.zeros((0, 1))).tolist() == []
    assert not len(lock) and lock.step() == {}


def test_zero_budget_ends_every_member_without_a_step():
    """max_time < step leaves a budget of no steps: each member ends where
    it starts, after no time, as simulate ends it."""
    sys_ = linear_system()
    cfg = IntegratorConfig(step=0.5, max_time=0.3)
    points = np.array([[-1.0], [3.0]])
    lock = Lockstep(sys_, cfg)
    ids = lock.add(points, np.zeros((2, 1))).tolist()
    ends = lock.step()
    assert lock.steps == 0 and not len(lock)
    for k, p in zip(ids, points):
        traj = simulate(sys_, p, cfg, np.zeros(1))
        assert traj.termination is Termination.MAX_TIME_REACHED and len(traj) == 1
        assert ends[k].termination is Termination.MAX_TIME_REACHED
        assert ends[k].rule == "budget"
        assert np.array_equal(ends[k].final_state, traj.states[-1])
        assert ends[k].elapsed == traj.elapsed == 0.0


def test_batched_verdicts_match_on_nine_bus(nine_bus):
    grid = multimachine_system(nine_bus)
    cfg = IntegratorConfig(
        step=1.0 / 60.0, divergence_norm=MULTIMACHINE_DIVERGENCE_NORM
    )
    # recovers, fails (0.2-0.4 band), straddles the crossing near 0.4797
    points = np.array([[1.0], [0.3], [0.4797], [0.4798]])
    expected = scalar_verdicts(grid, points, cfg)
    assert {v.verdict for v in expected} == {Verdict.RECOVERS, Verdict.FAILS_TO_RECOVER}
    assert batch_verdicts(grid, points, cfg) == expected


@settings(max_examples=6, deadline=None)
@given(
    threshold=st.floats(0.05, 2.0),
    param_tol=st.sampled_from([0.0, 1e-9, 1e-4]),
)
@example(threshold=0.3, param_tol=0.0)
def test_gated_decay_search_matches_round_by_round_search(threshold, param_tol):
    """On a toy whose verdict is known in closed form (it recovers iff
    p <= threshold) the search equals the round-by-round one probe for
    probe, and every verdict is the closed-form one."""
    sys_ = gated_decay_system(threshold)
    cfg = IntegratorConfig(step=0.05, max_time=60.0, divergence_norm=10.0)
    res = ray_boundary_search(sys_, [0.0], [1.0], cfg, param_tol=param_tol)
    assert_same_search(res, reference_search(sys_, [0.0], [1.0], cfg, param_tol))
    assert res.p_star[0] <= threshold < res.p_fail[0]
    for p, verdict in res.history:
        assert verdict is (
            Verdict.RECOVERS if p[0] <= threshold else Verdict.FAILS_TO_RECOVER
        )


@settings(max_examples=3, deadline=None)
@given(start=st.floats(1.45, 1.53))
def test_pendulum_multisection_ends_on_adjacent_doubles(pendulum, start):
    cfg = IntegratorConfig(step=0.2, divergence_norm=50.0)
    res = ray_boundary_search(pendulum, [start], [1.0], cfg, param_tol=0.0)
    assert np.nextafter(res.p_star[0], np.inf) == res.p_fail[0]
    verdicts = dict((float(p[0]), v) for p, v in res.history)
    assert verdicts[float(res.p_star[0])] is Verdict.RECOVERS
    assert verdicts[float(res.p_fail[0])] is Verdict.FAILS_TO_RECOVER


#: (target, rate) of x' = -rate (x - target) per band kind, from x0 = 1
BAND_KINDS = {
    "recover": (0.0, 1.0),
    # escapes the divergence norm of 10 on its way to 100 within 2 steps
    "fail": (100.0, 1.0),
    # times out
    "slow": (0.0, 1e-3),
    # escapes like "fail", but only after about 95 steps
    "late": (100.0, 0.02),
    # escapes like "fail", but only after about 10 steps
    "quick": (100.0, 0.2),
    # its equilibrium is a source: find_sep raises NotStable
    "unstable": (0.0, -1.0),
}


def banded_system(bands):
    """Batched 1-D system whose behaviour depends on the band p[0] falls in.

    ``bands`` is a list of (upper_edge, kind) in increasing order, kind a
    key of ``BAND_KINDS``.
    """
    edges = np.array([edge for edge, _ in bands])
    target = np.array([BAND_KINDS[kind][0] for _, kind in bands])
    rate = np.array([BAND_KINDS[kind][1] for _, kind in bands])

    def band(p):
        return np.searchsorted(edges, p[..., 0])

    return ParameterizedSystem(
        state_dim=1,
        param_dim=1,
        field=lambda x, p: -rate[band(p)][..., None] * (x - target[band(p)][..., None]),
        jacobian=lambda x, p: -rate[band(p)][..., None, None] * np.ones(x.shape + (1,)),
        initial_condition=lambda p: np.ones(p.shape[:-1] + (1,)),
    )


BAND_CFG = IntegratorConfig(step=0.05, max_time=30.0, divergence_norm=10.0)


def test_round_moves_bracket_only_up_to_the_first_failure():
    # a recovering band past the first failing one is probed but ignored
    sys_ = banded_system(
        [(0.29, "recover"), (0.31, "fail"), (0.34, "recover"), (np.inf, "fail")]
    )
    # the first expansion probe lies at 0.1 times the direction: 0.4
    res = ray_boundary_search(
        sys_, [0.0], [4.0], BAND_CFG, param_tol=1e-6
    )
    assert res.p_star[0] <= 0.29 < res.p_fail[0]
    assert res.bracket_width <= 1e-6
    # history: origin, the failing expansion probe at 0.4, then round one
    first_round = res.history[2 : 2 + SECTIONS - 1]
    assert [float(p[0]) for p, _ in first_round] == [
        0.4 * (i / SECTIONS) for i in range(1, SECTIONS)
    ]
    verdicts = [v for _, v in first_round]
    # 0.275 recovers, 0.3 fails, 0.325 recovers again, the rest fail
    assert verdicts[10:13] == [
        Verdict.RECOVERS,
        Verdict.FAILS_TO_RECOVER,
        Verdict.RECOVERS,
    ]
    assert res.iterations == len(res.history) - 2


def test_undetermined_past_the_first_failure_is_recorded_not_raised():
    sys_ = banded_system(
        [(0.29, "recover"), (0.31, "fail"), (0.39, "slow"), (np.inf, "fail")]
    )
    res = ray_boundary_search(
        sys_, [0.0], [4.0], BAND_CFG, param_tol=1e-3
    )
    assert res.p_star[0] <= 0.29 < res.p_fail[0]
    assert any(v is Verdict.UNDETERMINED for _, v in res.history)


def test_undetermined_first_failure_raises_and_names_it():
    sys_ = banded_system([(0.29, "recover"), (0.39, "slow"), (np.inf, "fail")])
    # the round's first non-recovering point is 0.4 * 12/16, in the slow band
    with pytest.raises(UndeterminedAtBisection, match=r"probe at p=\[0\.3"):
        ray_boundary_search(
            sys_, [0.0], [4.0], BAND_CFG, param_tol=1e-3
        )


def saddle_law_tail(p_lo, p_hi, t, c, b, step=0.02):
    """Tail members at bracket positions ``t`` whose end steps follow the
    saddle law n = round(3000 - b ln(t - c)), with their run ends."""
    n = np.round(3000.0 - b * np.log(np.asarray(t) - c))
    points = [p_lo + (p_hi - p_lo) * t_i for t_i in t]
    ends = [RunEnd(Termination.DIVERGED, np.zeros(1), n_i * step, n_i, "escape") for n_i in n]
    return points, ends


@pytest.mark.parametrize("b", [20.0, 56.0, 400.0])
@pytest.mark.parametrize("c", [0.01, 0.3, 0.9, 0.999, 1.0 - 1e-6])
@pytest.mark.parametrize(
    "t", [np.arange(1.0, 16.0), 1.0 + np.array([0.0, 2.0, 8.0, 26.0, 80.0, 242.0])],
    ids=["uniform-round", "guided-round"],
)
def test_fit_recovers_the_crossing_from_quantised_escape_steps(t, c, b):
    """Whole steps quantise ln(t - c) to 1/b, so the offset 1 - c is
    recovered to within a factor e^(3/b)."""
    n = np.round(3000.0 - b * np.log(t - c))
    fit = _fit_crossing(t, n)
    assert fit is not None
    assert abs(np.log((1.0 - fit) / (1.0 - c))) <= 3.0 / b


def test_fit_rejects_too_few_members_a_wrong_slope_and_noise():
    t = np.arange(1.0, 16.0)
    law = np.round(3000.0 - 56.0 * np.log(t - 0.5))
    assert _fit_crossing(t[:3], law[:3]) is None
    assert _fit_crossing(t[:4], law[:4]) is not None
    # ends that grow away from the bracket: slope b < 0
    assert _fit_crossing(t, 3000.0 + 56.0 * np.log(t + 0.5)) is None
    # ends that zigzag by 6 steps about the law: RMS residual above a step
    assert _fit_crossing(t, law + 6.0 * (-1.0) ** np.arange(15)) is None


def test_degenerate_tails_place_the_round_uniformly():
    p_lo, p_hi = np.array([0.25]), np.array([0.3])
    uniform = _round_points(p_lo, p_hi)

    def placed(points, ends):
        return _next_points(p_lo, p_hi, points, ends)

    # flat: members of one band escape after the same number of steps
    for kind in ("fail", "late"):
        sys_ = banded_system([(0.28, "recover"), (np.inf, kind)])
        points = np.linspace(0.3, 0.4, 8)[:, None]
        runs = run_lockstep(sys_, points, BAND_CFG, np.zeros((8, 1)))
        assert {run.termination for run in runs} == {Termination.DIVERGED}
        assert len({run.elapsed for run in runs}) == 1
        assert np.array_equal(placed(list(points), runs), uniform)
    points, ends = saddle_law_tail(p_lo, p_hi, np.arange(1.0, 16.0), 0.5, 56.0)
    assert not np.array_equal(placed(points, ends), uniform)
    # fewer than 4 diverged members: three, or four with one timed out
    assert np.array_equal(placed(points[:3], ends[:3]), uniform)
    timed_out = replace(ends[2], termination=Termination.MAX_TIME_REACHED)
    assert np.array_equal(placed(points[:4], ends[:2] + [timed_out] + ends[3:4]), uniform)
    # ends that grow away from the bracket
    assert np.array_equal(placed(points, ends[::-1]), uniform)


def test_guided_round_surrounds_the_predicted_crossing():
    p_lo, p_hi = np.array([1.0]), np.array([1.5])
    points, ends = saddle_law_tail(p_lo, p_hi, np.arange(1.0, 16.0), 0.6, 56.0)
    placed = np.array(_next_points(p_lo, p_hi, points, ends))[:, 0]
    assert len(placed) == 15 and 1.25 in placed
    crossing = 1.0 + 0.5 * 0.6
    below, above = placed[placed < crossing], placed[placed > crossing]
    # the points next to the crossing are a tenth of a uniform section apart
    assert above.min() - below.max() < 0.5 / SECTIONS / 10.0


def consecutive(points) -> bool:
    return all(np.nextafter(a, b) == b for a, b in zip(points, points[1:]))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_round_within_seven_ulps_of_the_crossing_takes_consecutive_doubles(sign):
    """A fitted round whose first rung, 1e-3 (1 - c) of the bracket, is at
    most 7 units in the last place probes the 15 consecutive doubles
    centred on the predicted crossing, those inside the bracket; a wider
    rung keeps the ladder."""
    p_lo, ulp = np.array([1.5]), sign * np.spacing(1.5)
    t = np.arange(1.0, 16.0)

    def placed(ulps, c):
        p_hi = p_lo + ulps * ulp
        points, ends = saddle_law_tail(p_lo, p_hi, t, c, 56.0)
        fit = _fit_crossing(t, [end.tau for end in ends])
        assert 1e-3 * (1.0 - fit) * ulps == pytest.approx(1e-3 * (1.0 - c) * ulps, rel=0.06)
        return p_hi, _next_points(p_lo, p_hi, points, ends), fit

    # rung about 5 ulps: p_lo + (i + j) ulp, j = -7..7, i the nearest to c
    p_hi, points, fit = placed(10_000, 0.5)
    along = [float(p[0]) for p in points]
    assert len(along) == SECTIONS - 1 and consecutive(along)
    assert along[7] == 1.5 + round(fit * 10_000) * ulp
    # rung about 10 ulps: the ladder around the crossing
    p_hi, points, fit = placed(20_000, 0.5)
    assert np.array_equal(points, _points_at(p_lo, p_hi, _guided_fractions(fit)))
    assert not consecutive([float(p[0]) for p in points])
    # a crossing 3 ulps from p_hi: the doubles from 7 below it to p_hi's neighbour
    p_hi, points, fit = placed(1_000, 1.0 - 3e-3)
    along = [float(p[0]) for p in points]
    assert consecutive(along + [float(p_hi[0])])
    assert along[0] == 1.5 + (round(fit * 1_000) - 7) * ulp


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(-4.0, 4.0).filter(lambda v: abs(v) > 1e-3),
    ulps=st.integers(1, 40) | st.integers(1, 2**50),
    sign=st.sampled_from([1.0, -1.0]),
    c=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    b=st.floats(5.0, 500.0),
    members=st.integers(0, 15),
    stride=st.floats(1e-6, 1.0),
)
@example(lo=1.5, ulps=16, sign=1.0, c=0.5, b=56.0, members=15, stride=1.0)
@example(lo=1.5, ulps=17, sign=-1.0, c=0.5, b=56.0, members=15, stride=1.0)
def test_round_points_are_ordered_inside_the_bracket(
    lo, ulps, sign, c, b, members, stride
):
    p_lo = np.array([lo])
    p_hi = p_lo + sign * ulps * np.spacing(abs(p_lo))
    t = 1.0 + stride * np.arange(members)
    points, ends = saddle_law_tail(p_lo, p_hi, t, c, b)
    placed = _next_points(p_lo, p_hi, points, ends)
    along = [sign * float(p[0]) for p in [p_lo] + placed + [p_hi]]
    assert len(placed) <= SECTIONS - 1
    assert all(u < v for u, v in zip(along, along[1:]))
    if _ulps(p_lo, p_hi) <= GUIDE_MIN_ULPS:
        assert np.array_equal(placed, _round_points(p_lo, p_hi))


def uniform_points(p_lo, p_hi, tail_points, tail_ends):
    """Round placement without the escape-time guide: always uniform."""
    return _round_points(p_lo, p_hi)


def reference_search(
    sys_, p0, direction, cfg, param_tol, initial_step=0.1, place=_next_points
):
    """The search of a batched system as it ran before pipelining: a serial
    expansion, then one lockstep batch per refinement round, each round
    started once the one before it had ended and placed by ``place`` from
    the members of that round from its key on."""
    p0, direction = np.array(p0, dtype=float), np.array(direction, dtype=float)
    history = []

    def probe(p, sep):
        v = classify_recovery(sys_, p, cfg, sep).verdict
        history.append((p, v))
        return v

    sep = find_sep(sys_, p0)
    assert probe(p0, sep) is Verdict.RECOVERS
    p_lo, p_hi, sep_lo, s = p0, None, sep, initial_step
    while p_hi is None:
        p = p0 + s * direction
        sep = find_sep(sys_, p, sep)
        v = probe(p, sep)
        if v is Verdict.RECOVERS:
            p_lo, sep_lo = p, sep
        elif v is Verdict.FAILS_TO_RECOVER:
            p_hi = p
        else:
            raise UndeterminedAtBisection(f"expansion probe at p={p}")
        s *= 2.0
    iterations = 0
    tail_points, tail_runs = [], []
    while float(np.linalg.norm(p_hi - p_lo)) > param_tol:
        points = place(p_lo, p_hi, tail_points, tail_runs)
        if not points:
            break
        seps = []
        for p_i in points:
            sep = find_sep(sys_, p_i, sep)
            seps.append(sep)
        runs = run_lockstep(sys_, np.array(points), cfg, np.array(seps))
        verdicts = [
            classify_recovery(sys_, p_i, cfg, sep_i, run).verdict
            for p_i, sep_i, run in zip(points, seps, runs)
        ]
        history.extend(zip(points, verdicts))
        iterations += len(points)
        key = len(points)
        for i, (p_i, sep_i, v) in enumerate(zip(points, seps, verdicts)):
            if v is Verdict.RECOVERS:
                p_lo, sep_lo = p_i, sep_i
            elif v is Verdict.FAILS_TO_RECOVER:
                p_hi, key = p_i, i
                break
            else:
                raise UndeterminedAtBisection(f"refinement probe at p={p_i}")
        tail_points, tail_runs = points[key:], runs[key:]
    return BoundarySearchResult(
        p_star=p_lo,
        p_fail=p_hi,
        bracket_width=float(np.linalg.norm(p_hi - p_lo)),
        iterations=iterations,
        history=tuple(history),
        sep_star=sep_lo,
    )


def assert_same_search(res, ref):
    for name in ("p_star", "p_fail", "sep_star"):
        assert np.array_equal(getattr(res, name), getattr(ref, name)), name
    assert res.iterations == ref.iterations
    assert len(res.history) == len(ref.history)
    for (p, v), (q, w) in zip(res.history, ref.history):
        assert np.array_equal(p, q) and v is w


@settings(max_examples=6, deadline=None)
@given(start=st.floats(1.45, 1.53), param_tol=st.sampled_from([0.0, 1e-4]))
def test_pipelined_search_matches_round_by_round_search_on_pendulum(
    pendulum, start, param_tol
):
    cfg = IntegratorConfig(step=0.2, divergence_norm=50.0)
    res = ray_boundary_search(pendulum, [start], [1.0], cfg, param_tol=param_tol)
    assert_same_search(res, reference_search(pendulum, [start], [1.0], cfg, param_tol))


@pytest.mark.parametrize("start", [1.0, 1.15])
def test_pipelined_search_matches_round_by_round_search_on_nine_bus(nine_bus, start):
    grid = multimachine_system(nine_bus)
    cfg = IntegratorConfig(
        step=1.0 / 60.0, divergence_norm=MULTIMACHINE_DIVERGENCE_NORM
    )
    res = ray_boundary_search(grid, [start], [-1.0], cfg, param_tol=1e-3)
    assert_same_search(res, reference_search(grid, [start], [-1.0], cfg, 1e-3))
    if start == 1.0:
        # the network's escape steps do not follow the saddle law closely
        # enough to fit, so every round keeps the uniform placement
        uniform = reference_search(grid, [start], [-1.0], cfg, 1e-3, place=uniform_points)
        assert_same_search(res, uniform)


def test_pipelined_search_matches_on_the_consecutive_doubles_round(pendulum, monkeypatch):
    """From 1.5 at h = 0.2 and tol 0 a round on consecutive doubles is
    committed, and the pipelined search still matches the round-by-round
    one.  Both fit the same sub-step escape times: every member end that
    either passes to the placement has bitwise the same tau in both."""
    cfg = IntegratorConfig(step=0.2, divergence_norm=50.0)
    taus = {"pipelined": {}, "reference": {}}

    def recorder(side):
        def place(p_lo, p_hi, tail_points, tail_ends):
            for p, end in zip(tail_points, tail_ends):
                taus[side][float(p[0])] = end.tau
            return _next_points(p_lo, p_hi, tail_points, tail_ends)
        return place

    placed = []

    def reference_place(*args):
        placed.append(recorder("reference")(*args))
        return placed[-1]

    monkeypatch.setattr(moi.recovery_boundary, "_next_points", recorder("pipelined"))
    res = ray_boundary_search(pendulum, [1.5], [1.0], cfg, param_tol=0.0)
    ref = reference_search(pendulum, [1.5], [1.0], cfg, 0.0, place=reference_place)
    assert_same_search(res, ref)
    assert any(len(points) == SECTIONS - 1 and consecutive([float(p[0]) for p in points])
               for points in placed)
    shared = taus["pipelined"].keys() & taus["reference"].keys()
    assert [taus["pipelined"][p] for p in shared] == [taus["reference"][p] for p in shared]
    assert any(tau != round(tau) for tau in (taus["reference"][p] for p in shared))


def test_wrong_provisional_bracket_is_discarded(monkeypatch):
    """0.3 sits in a band that fails only after about 95 steps while 0.325
    and beyond fail within 2: round one's provisional bracket
    (0.3, 0.325) is wrong, and the work started on it is thrown away."""
    sys_ = banded_system([(0.29, "recover"), (0.31, "late"), (np.inf, "fail")])
    started = []

    class Spy(Lockstep):
        def add(self, p, sep):
            started.extend(float(q[0]) for q in p)
            return super().add(p, sep)

    monkeypatch.setattr(moi.recovery_boundary, "Lockstep", Spy)
    res = ray_boundary_search(
        sys_, [0.0], [4.0], BAND_CFG, param_tol=1e-6
    )
    ref = reference_search(sys_, [0.0], [1.0], BAND_CFG, 1e-6, initial_step=0.4)
    assert_same_search(res, ref)
    probed = {float(p[0]) for p, _ in res.history}
    discarded = [q for q in started if 0.0 < q < 0.4 and q not in probed]
    # round two on (0.3, 0.325) started and was dropped unclassified
    assert any(0.3 < q < 0.325 for q in discarded)


def test_provisional_key_replaced_within_the_hold_floor_starts_nothing(monkeypatch):
    """0.3 sits in a band that fails after about 10 steps while 0.325 and
    beyond fail within 2: round one's provisional key 0.325 gives way to
    0.3 before it has held for ``SECTIONS`` steps, so nothing is started
    on the bracket (0.3, 0.325) and no refinement member goes
    unclassified."""
    sys_ = banded_system([(0.29, "recover"), (0.31, "quick"), (np.inf, "fail")])
    groups = []

    class Spy(Lockstep):
        def add(self, p, sep):
            groups.append([float(q[0]) for q in p])
            return super().add(p, sep)

    monkeypatch.setattr(moi.recovery_boundary, "Lockstep", Spy)
    res = ray_boundary_search(
        sys_, [0.0], [4.0], BAND_CFG, param_tol=1e-6
    )
    ref = reference_search(sys_, [0.0], [1.0], BAND_CFG, 1e-6, initial_step=0.4)
    assert_same_search(res, ref)
    # the expansion group, round one, then rounds below its key 0.4 * 12/16
    key = groups[1][11]
    assert all(max(group) < key for group in groups[2:])
    probed = {float(p[0]) for p, _ in res.history}
    started = [q for group in groups[1:] for q in group]
    assert [q for q in started if q not in probed] == []


def test_hold_is_the_shortest_that_meets_the_fraction_and_the_floor():
    for since in range(600):
        end = _hold_end(since)
        assert end - since >= max(end // SECTIONS, SECTIONS)
        held = end - 1 - since
        assert held < SECTIONS or held < (end - 1) // SECTIONS


@pytest.mark.parametrize(
    "since, end",
    [(0, 16), (3, 19), (240, 256), (241, 257), (1000, 1066)],
)
def test_hold_floor_applies_to_short_holds_only(since, end):
    # the floor binds up to since 240
    assert _hold_end(since) == end


def test_successor_on_a_final_key_waits_for_the_members_past_it(monkeypatch):
    """Round one's key, 0.3, fails at once and is final when the recovering
    members before it end, after about 280 steps; the slow members past it
    time out only after the whole budget of 600.  The next round is placed
    from their ends, so it starts after them."""
    sys_ = banded_system(
        [(0.29, "recover"), (0.31, "fail"), (0.39, "slow"), (np.inf, "fail")]
    )
    adds = []

    class Spy(Lockstep):
        def add(self, p, sep):
            adds.append(self.steps)
            return super().add(p, sep)

    monkeypatch.setattr(moi.recovery_boundary, "Lockstep", Spy)
    res = ray_boundary_search(
        sys_, [0.0], [4.0], BAND_CFG, param_tol=1e-3
    )
    ref = reference_search(sys_, [0.0], [1.0], BAND_CFG, 1e-3, initial_step=0.4)
    assert_same_search(res, ref)
    # the expansion group, round one, then round two
    budget = int(BAND_CFG.max_time / BAND_CFG.step + 1e-9)
    assert adds[2] >= adds[1] + budget


def test_each_round_launches_once_per_key(pendulum, pend_cfg, monkeypatch):
    """A round's successor is launched once for each key its walk stops
    at, also where the launch starts nothing: from 1.5 at tol 0 (the
    search of pendulum ``mode`` from 1.5) provisional keys whose bracket
    holds no interior double are launched once, not at every review."""
    launches = []
    launch = moi.recovery_boundary._PipelinedSearch._launch

    def spy(search, r, key):
        launches.append((r, key))  # keeps the round, and its id, alive
        return launch(search, r, key)

    monkeypatch.setattr(moi.recovery_boundary._PipelinedSearch, "_launch", spy)
    res = ray_boundary_search(pendulum, [1.5], [1.0], pend_cfg, param_tol=0.0)
    assert np.nextafter(res.p_star[0], np.inf) == res.p_fail[0]
    pairs = [(id(r), key) for r, key in launches]
    assert len(set(pairs)) == len(pairs)


def test_doublings_past_the_first_failure_raise_nothing(pendulum):
    """From 1.45 the group's doublings reach torque 2.25 >= c1 = 2, where
    no equilibrium exists; the probe at 1.65 fails first, so the search
    goes on as the serial expansion does."""
    cfg = IntegratorConfig(step=0.2, divergence_norm=50.0)
    with pytest.raises(MoiError):
        find_sep(pendulum, [2.25])
    res = ray_boundary_search(pendulum, [1.45], [1.0], cfg, param_tol=1e-4)
    assert_same_search(res, reference_search(pendulum, [1.45], [1.0], cfg, 1e-4))
    assert max(float(p[0]) for p, _ in res.history) == 1.65


def test_initial_condition_failure_past_the_first_failure_raises_nothing(pendulum):
    """From 1.2 the group's doublings end at torque 2.0 = c1, where find_sep
    still converges on the pull-out edge but the initial condition has no
    equilibrium to start from; 1.6 fails first, so the search brackets the
    crossing as the serial expansion does."""
    cfg = IntegratorConfig(step=0.2, divergence_norm=50.0)
    find_sep(pendulum, [2.0])
    with pytest.raises(ParamOutOfRange):
        initial_state(pendulum, [2.0])
    res = ray_boundary_search(pendulum, [1.2], [1.0], cfg, param_tol=1e-3)
    assert_same_search(res, reference_search(pendulum, [1.2], [1.0], cfg, 1e-3))
    assert max(float(p[0]) for p, _ in res.history) == 1.6


def test_sep_failure_before_any_failing_point_is_raised():
    sys_ = banded_system([(0.25, "recover"), (np.inf, "unstable")])
    with pytest.raises(NotStable) as expected:
        reference_search(sys_, [0.0], [1.0], BAND_CFG, 1e-3)
    with pytest.raises(NotStable) as raised:
        ray_boundary_search(sys_, [0.0], [1.0], BAND_CFG, param_tol=1e-3)
    assert str(raised.value) == str(expected.value)


def test_sep_failure_inside_a_round_is_raised_where_the_round_starts():
    # 0.3, in round one, has no stable equilibrium
    sys_ = banded_system([(0.29, "recover"), (0.31, "unstable"), (np.inf, "fail")])
    with pytest.raises(NotStable) as expected:
        reference_search(sys_, [0.0], [1.0], BAND_CFG, 1e-3, initial_step=0.4)
    with pytest.raises(NotStable) as raised:
        ray_boundary_search(
            sys_, [0.0], [4.0], BAND_CFG, param_tol=1e-3
        )
    assert str(raised.value) == str(expected.value)


def test_sep_failure_in_a_discarded_round_is_not_raised():
    """As in the discard test, round two is first started on the wrong
    bracket (0.3, 0.325); only that round meets the unstable band."""
    sys_ = banded_system(
        [(0.29, "recover"), (0.305, "late"), (0.31, "fail"), (0.32, "unstable"),
         (np.inf, "fail")]
    )
    with pytest.raises(NotStable):
        find_sep(sys_, [0.315])
    res = ray_boundary_search(
        sys_, [0.0], [4.0], BAND_CFG, param_tol=1e-6
    )
    ref = reference_search(sys_, [0.0], [1.0], BAND_CFG, 1e-6, initial_step=0.4)
    assert_same_search(res, ref)

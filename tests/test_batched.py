"""Lockstep batches against the single-state path, and the multisection
search that runs on them."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moi import (
    IntegratorConfig,
    MULTIMACHINE_DIVERGENCE_NORM,
    NewtonDivergence,
    NonFiniteOutput,
    ParameterizedSystem,
    Termination,
    UndeterminedAtBisection,
    Verdict,
    classify_recovery,
    find_sep,
    multimachine_system,
    ray_boundary_search,
    simulate,
    step_trapezoidal,
)
from moi.integrator import simulate_batch, step_trapezoidal_batch
from moi.recovery_boundary import SECTIONS

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
    and a member fails exactly where the single step raises."""
    reference = [single_steps(sys_, xk, pk, cfg, n_steps) for xk, pk in zip(x, p)]
    alive = np.ones(len(x), dtype=bool)
    for n in range(n_steps):
        x, failed = step_trapezoidal_batch(sys_, x, p, cfg)
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
        batched=True,
    )


def test_singular_member_fails_alone():
    """x' = r x with r = 100 makes I - (h/2) r singular at h = 0.02; that
    member fails, the others step on as the single step would."""
    sys_ = linear_system()
    cfg = IntegratorConfig(step=0.02)
    x = np.array([[1.0], [1.0], [2.0]])
    p = np.array([[-1.0], [100.0], [3.0]])
    y, failed = step_trapezoidal_batch(sys_, x, p, cfg)
    assert failed.tolist() == [False, True, False]
    for k in (0, 2):
        assert np.array_equal(y[k], step_trapezoidal(sys_, x[k], p[k], cfg))
    with pytest.raises(NewtonDivergence):
        step_trapezoidal(sys_, x[1], p[1], cfg)


def scalar_verdicts(sys_, points, cfg):
    return [
        classify_recovery(sys_, p, cfg, find_sep(sys_, p)) for p in points
    ]


def batch_verdicts(sys_, points, cfg):
    seps = np.array([find_sep(sys_, p) for p in points])
    runs = simulate_batch(sys_, points, cfg, seps)
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
    sys_ = linear_system()
    cfg = IntegratorConfig(step=0.02, max_time=20.0, divergence_norm=100.0)
    points = np.array([[-1.0], [100.0], [3.0], [-1e-3]])
    sep = np.zeros(1)
    runs = simulate_batch(sys_, points, cfg, np.zeros((len(points), 1)))
    assert [run.termination for run in runs] == [
        Termination.CONVERGED_TO_SEP,
        Termination.SOLVER_FAILURE,
        Termination.DIVERGED,
        Termination.MAX_TIME_REACHED,
    ]
    for p, run in zip(points, runs):
        traj = simulate(sys_, p, cfg, sep)
        assert np.array_equal(run.final_state, traj.states[-1])
        assert run.elapsed == traj.elapsed
        assert classify_recovery(sys_, p, cfg, sep, run) == classify_recovery(
            sys_, p, cfg, sep
        )


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


def reference_bisection(threshold, param_tol, initial_step=0.1):
    """Parameters probed by plain bisection on the gated decay system,
    whose verdict is known in closed form (recovers iff p <= threshold),
    and how many of them the bisection phase probed."""
    p0 = np.array([0.0])
    direction = np.array([1.0])
    probed = [p0]
    p_lo, s = p0, initial_step
    while True:
        p = p0 + s * direction
        probed.append(p)
        if p[0] > threshold:
            p_hi = p
            break
        p_lo, s = p, 2.0 * s
    expansion = len(probed)
    while float(np.linalg.norm(p_hi - p_lo)) > param_tol:
        p_mid = p_lo + (p_hi - p_lo) / 2.0
        if np.array_equal(p_mid, p_lo) or np.array_equal(p_mid, p_hi):
            break
        probed.append(p_mid)
        if p_mid[0] <= threshold:
            p_lo = p_mid
        else:
            p_hi = p_mid
    return probed, len(probed) - expansion


@settings(max_examples=6, deadline=None)
@given(
    threshold=st.floats(0.05, 2.0),
    param_tol=st.sampled_from([0.0, 1e-9, 1e-4]),
)
def test_unbatched_search_reproduces_bisection(threshold, param_tol):
    sys_ = gated_decay_system(threshold)
    cfg = IntegratorConfig(step=0.05, max_time=60.0, divergence_norm=10.0)
    res = ray_boundary_search(sys_, [0.0], [1.0], cfg, param_tol=param_tol)
    expected, bisection_probes = reference_bisection(threshold, param_tol)
    assert res.iterations == bisection_probes
    assert len(res.history) == len(expected)
    for (p, verdict), q in zip(res.history, expected):
        assert np.array_equal(p, q)
        assert verdict is (
            Verdict.RECOVERS if q[0] <= threshold else Verdict.FAILS_TO_RECOVER
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


def banded_system(bands):
    """Batched 1-D decay whose behaviour depends on the band p[0] falls in.

    ``bands`` is a list of (upper_edge, kind) in increasing order, kind one
    of "recover" (x' = -x), "fail" (x' = -(x - 100), escaping the
    divergence norm of 10) or "slow" (x' = -1e-3 x, timing out).
    """
    edges = np.array([edge for edge, _ in bands])
    kinds = [kind for _, kind in bands]
    target = np.array([100.0 if k == "fail" else 0.0 for k in kinds])
    rate = np.array([1e-3 if k == "slow" else 1.0 for k in kinds])

    def band(p):
        return np.searchsorted(edges, p[..., 0])

    return ParameterizedSystem(
        state_dim=1,
        param_dim=1,
        field=lambda x, p: -rate[band(p)][..., None] * (x - target[band(p)][..., None]),
        jacobian=lambda x, p: -rate[band(p)][..., None, None] * np.ones(x.shape + (1,)),
        initial_condition=lambda p: np.ones(p.shape[:-1] + (1,)),
        batched=True,
    )


BAND_CFG = IntegratorConfig(step=0.05, max_time=30.0, divergence_norm=10.0)


def test_round_moves_bracket_only_up_to_the_first_failure():
    # a recovering band past the first failing one is probed but ignored
    sys_ = banded_system(
        [(0.29, "recover"), (0.31, "fail"), (0.34, "recover"), (np.inf, "fail")]
    )
    res = ray_boundary_search(
        sys_, [0.0], [1.0], BAND_CFG, param_tol=1e-6, initial_step=0.4
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
        sys_, [0.0], [1.0], BAND_CFG, param_tol=1e-3, initial_step=0.4
    )
    assert res.p_star[0] <= 0.29 < res.p_fail[0]
    assert any(v is Verdict.UNDETERMINED for _, v in res.history)


def test_undetermined_first_failure_raises_and_names_it():
    sys_ = banded_system([(0.29, "recover"), (0.39, "slow"), (np.inf, "fail")])
    # the round's first non-recovering point is 0.4 * 12/16, in the slow band
    with pytest.raises(UndeterminedAtBisection, match=r"probe at p=\[0\.3"):
        ray_boundary_search(
            sys_, [0.0], [1.0], BAND_CFG, param_tol=1e-3, initial_step=0.4
        )

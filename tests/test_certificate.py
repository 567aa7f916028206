"""Certified early recovery: the Lyapunov level set that ends a recovering
trajectory, checked against the Jacobians and the trapezoidal map it
certifies, against the dwell rule it replaces, and across the lockstep
batch."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moi import (
    IntegratorConfig,
    MULTIMACHINE_DIVERGENCE_NORM,
    Termination,
    classify_recovery,
    eval_jacobian,
    find_sep,
    multimachine_system,
    sep_distance,
    simulate,
    spectral_abscissa,
    step_trapezoidal,
)
from moi.integrator import Lockstep, _offset, _quadratic, _wrap_index, recovery_certificate
from moi.spectral import DEFAULT_STABILITY_TOL

from conftest import assert_recovery_end, certificate_of, make_tent_toy

#: adjacent doubles bracketing the pendulum boundary at h = 0.02, and the
#: 9-bus boundary found by ``moi mode`` from 1.0 at h = 1/60, tol 1e-6
PEND_P_STAR = 1.5686593295631313
NINE_BUS_P_STAR = 0.47971420288085936
NINE_BUS_H = 1.0 / 60.0


@pytest.fixture(scope="module")
def grid(nine_bus):
    return multimachine_system(nine_bus)


@pytest.fixture(scope="module")
def grid_cfg():
    return IntegratorConfig(step=NINE_BUS_H, divergence_norm=MULTIMACHINE_DIVERGENCE_NORM)


def boundary_offset(form: np.ndarray, level: float, direction: np.ndarray) -> np.ndarray:
    """The offset along ``direction`` on the level set's boundary."""
    u = direction / np.linalg.norm(direction)
    return u * np.sqrt(level / _quadratic(form, u))


def assert_boundary_is_certified(sys_, p, sep, cfg, direction):
    """At the boundary state along ``direction``: a Jacobian with spectral
    abscissa below -stability_tol, and one trapezoidal step lowers V."""
    p = np.asarray(p, dtype=float)
    form, level = certificate_of(sys_, p, cfg, sep)
    assert level > 0.0
    d = boundary_offset(form, level, direction)
    x = sep + d
    assert spectral_abscissa(eval_jacobian(sys_, x, p)) < -DEFAULT_STABILITY_TOL
    y = step_trapezoidal(sys_, x, p, cfg)
    assert _quadratic(form, y - sep) < _quadratic(form, d)


def directions(n: int):
    return st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).filter(
        lambda v: np.linalg.norm(v) > 1e-3
    )


@settings(max_examples=40, deadline=None)
@given(
    torque=st.floats(0.2, 1.9),
    step=st.sampled_from([0.02, 0.08, 0.4, 0.8]),
    direction=directions(2),
)
def test_pendulum_level_set_boundary_is_stable_and_contracting(
    pendulum, torque, step, direction
):
    cfg = IntegratorConfig(step=step, divergence_norm=50.0)
    sep = find_sep(pendulum, [torque])
    assert_boundary_is_certified(pendulum, [torque], sep, cfg, np.array(direction))


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(0.45, 1.3), direction=directions(6))
def test_nine_bus_level_set_boundary_is_stable_and_contracting(
    grid, grid_cfg, scale, direction
):
    sep = find_sep(grid, [scale])
    assert_boundary_is_certified(grid, [scale], sep, grid_cfg, np.array(direction))


@settings(max_examples=60, deadline=None)
@given(
    which=st.sampled_from(["pendulum", "grid"]),
    p=st.floats(0.3, 1.9),
    states=st.lists(st.floats(-4.0, 4.0), min_size=12, max_size=12),
)
def test_jacobian_bound_holds_between_states(pendulum, grid, which, p, states):
    """||W (J(x) - J(y)) W^-1|| <= L ||W (x - y)|| for the weights and bound
    the model supplies (both models are 2 pi periodic in their angles, so
    states within a few radians cover them)."""
    sys_ = pendulum if which == "pendulum" else grid
    n, p = sys_.state_dim, np.array([p])
    x, y = np.array(states[:n]), np.array(states[6 : 6 + n])
    w, L = sys_.jacobian_lipschitz(p)
    change = w[:, None] * (sys_.jacobian(x, p) - sys_.jacobian(y, p)) / w
    # the slack covers the rounding of the two Jacobians' entries
    assert np.linalg.norm(change, 2) <= L * np.linalg.norm(w * (x - y)) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    which=st.sampled_from(["pendulum", "grid"]),
    p=st.floats(0.3, 1.9),
    states=st.lists(st.floats(-4.0, 4.0), min_size=12, max_size=12),
)
def test_jacobian_varies_only_in_the_speed_rows_at_the_angle_columns(
    pendulum, grid, which, p, states
):
    """W (J(x) - J(y)) W^-1 is zero outside rows m:, columns :m (m = n / 2)
    and its norm is at most L ||(W (x - y))[:m]||: the structured bound
    under which recovery_certificate may scale the last m weights by any
    s > 0 and the bound by s."""
    sys_ = pendulum if which == "pendulum" else grid
    n, p = sys_.state_dim, np.array([p])
    m = n // 2
    x, y = np.array(states[:n]), np.array(states[6 : 6 + n])
    w, L = sys_.jacobian_lipschitz(p)
    change = w[:, None] * (sys_.jacobian(x, p) - sys_.jacobian(y, p)) / w
    block = change[m:, :m].copy()
    change[m:, :m] = 0.0
    assert not change.any()
    # the slack covers the rounding of the two Jacobians' entries
    assert np.linalg.norm(block, 2) <= L * np.linalg.norm((w * (x - y))[:m]) + 1e-12


def test_certificate_uses_the_balanced_weights_and_the_bound_scaled_with_them(
    pendulum, pend_cfg, grid, grid_cfg
):
    """With s^2 = ||A_w[:m, m:]|| / (2 ||A_w[m:, :m]||) for the model's
    weighted Jacobian A_w at the SEP, the certificate is the one certified
    directly with the weights (w[:m], s w[m:]) and the bound s L, whose
    own balancing factor is 1 up to rounding."""
    for sys_, cfg, values in (
        (pendulum, pend_cfg, [0.5, 1.5, PEND_P_STAR]),
        (grid, grid_cfg, [0.45, NINE_BUS_P_STAR, 1.0]),
    ):
        m = sys_.state_dim // 2
        for value in values:
            p = np.array([value])
            sep = find_sep(sys_, p)
            jac, residual = sys_.jacobian(sep, p), sys_.field(sep, p)
            w, L = sys_.jacobian_lipschitz(p)
            a_w = w[:, None] * jac / w
            s = np.sqrt(np.linalg.norm(a_w[:m, m:], 2) / (2.0 * np.linalg.norm(a_w[m:, :m], 2)))
            assert not np.isclose(s, 1.0, rtol=0.1)
            form, level = recovery_certificate(jac, residual, w, L, cfg)
            balanced = np.concatenate([w[:m], s * w[m:]])
            form_s, level_s = recovery_certificate(jac, residual, balanced, s * L, cfg)
            assert level > 0.0
            np.testing.assert_allclose(level_s, level, rtol=1e-9)
            np.testing.assert_allclose(form_s, form, rtol=1e-9)


def test_certificates_of_a_stack_equal_the_single_ones(grid, grid_cfg):
    scales = np.array([[0.45], [0.8], [1.2]])
    seps = np.array([find_sep(grid, p) for p in scales])
    bounds = [grid.jacobian_lipschitz(p) for p in scales]
    forms, levels = recovery_certificate(
        grid.jacobian(seps, scales), grid.field(seps, scales),
        [w for w, _ in bounds], [L for _, L in bounds], grid_cfg,
    )
    for k, (p, sep) in enumerate(zip(scales, seps)):
        form, level = certificate_of(grid, p, grid_cfg, sep)
        assert level > 0.0 and level == levels[k]
        assert np.array_equal(form, forms[k])


def test_no_certificate_without_a_stable_finite_linearisation():
    cfg = IntegratorConfig(step=0.02)
    stable = np.array([[0.0, 1.0], [-1.0, -0.5]])
    cases = [
        (np.array([[0.0, 1.0], [1.0, -0.5]]), np.zeros(2), 2.0),  # saddle
        (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros(2), 2.0),  # centre
        (stable, np.array([np.nan, 0.0]), 2.0),
        (stable, np.zeros(2), 0.0),
        (stable, np.zeros(2), np.inf),
        (stable, np.zeros(2), 2.0),
    ]
    forms, levels = recovery_certificate(
        np.array([c[0] for c in cases]), np.array([c[1] for c in cases]),
        np.ones((len(cases), 2)), [c[2] for c in cases], cfg,
    )
    assert np.all(levels[:-1] == -1.0) and not forms[:-1].any()
    # the others leave the stable member's certificate as it is alone
    form, level = recovery_certificate(stable, np.zeros(2), np.ones(2), 2.0, cfg)
    assert level > 0.0 and levels[-1] == level and np.array_equal(forms[-1], form)
    # a stability margin no linearisation meets leaves nothing to certify
    margin = replace(cfg, stability_tol=1.0)
    _, level = recovery_certificate(stable, np.zeros(2), np.ones(2), 2.0, margin)
    assert level == -1.0


@pytest.mark.parametrize("which", ["pendulum-1.5", "pendulum-star", "nine-bus-star"])
def test_certified_end_continued_by_the_dwell_rule_converges_unflagged(
    which, pendulum, pend_cfg, grid, grid_cfg
):
    """The trajectory the dwell rule alone would give (no certificate)
    starts with the certified one, state for state and flag for flag,
    converges, and flags no state past the certified end: j is unchanged."""
    sys_, p, cfg = {
        "pendulum-1.5": (pendulum, np.array([1.5]), pend_cfg),
        "pendulum-star": (pendulum, np.array([PEND_P_STAR]), pend_cfg),
        "nine-bus-star": (grid, np.array([NINE_BUS_P_STAR]), grid_cfg),
    }[which]
    sep = find_sep(sys_, p)
    short = simulate(sys_, p, cfg, sep, record_flags=True)
    long = simulate(replace(sys_, jacobian_lipschitz=None), p, cfg, sep, record_flags=True)
    assert short.termination is long.termination is Termination.CONVERGED_TO_SEP
    n = len(short)
    assert n < len(long)
    assert np.array_equal(short.states, long.states[:n])
    assert np.array_equal(short.instability_flags, long.instability_flags[:n])
    assert short.instability_flags.any()
    assert not long.instability_flags[n - 1 :].any()
    assert_recovery_end(sys_, p, cfg, sep, short.states)


def test_lockstep_members_end_as_simulate_ends_them(pendulum, pend_cfg, grid, grid_cfg):
    """Members that end on their certificate, fail or run out of time end
    bitwise as simulate ends them, in pendulum and 9-bus batches."""
    for sys_, cfg, values in (
        (pendulum, pend_cfg, [1.2, 1.5, PEND_P_STAR, 1.6, 1.7]),
        (grid, grid_cfg, [0.3, NINE_BUS_P_STAR, 0.7, 1.0]),
        (pendulum, replace(pend_cfg, max_time=8.0), [0.2, 1.5, 1.56]),
    ):
        points = np.array(values)[:, None]
        seps = np.array([find_sep(sys_, p) for p in points])
        lock = Lockstep(sys_, cfg)
        ids = lock.add(points, seps).tolist()
        ends = {}
        while len(lock):
            ends.update(lock.step())
        certified = 0
        for k, p, sep in zip(ids, points, seps):
            traj = simulate(sys_, p, cfg, sep)
            assert ends[k].termination is traj.termination
            assert np.array_equal(ends[k].final_state, traj.states[-1])
            assert ends[k].elapsed == traj.elapsed
            if traj.termination is Termination.CONVERGED_TO_SEP:
                form, level = certificate_of(sys_, p, cfg, sep)
                d = _offset(traj.states[-1], sep, _wrap_index(sys_))
                certified += _quadratic(form, d) <= level
        assert certified >= 1


def test_one_config_gives_one_end(pendulum, pend_cfg):
    """A stability margin of 0.1 in the config shrinks the pendulum's
    certified set, so the run ends later; simulate, a Lockstep member and
    classify_recovery without a run all end it at the same state and time."""
    p = np.array([1.5])
    sep = find_sep(pendulum, p)
    cfg = replace(pend_cfg, stability_tol=0.1)
    _, level = certificate_of(pendulum, p, cfg, sep)
    assert 0.0 < level < certificate_of(pendulum, p, pend_cfg, sep)[1]
    traj = simulate(pendulum, p, cfg, sep)
    assert traj.termination is Termination.CONVERGED_TO_SEP
    assert len(traj) > len(simulate(pendulum, p, pend_cfg, sep))
    assert_recovery_end(pendulum, p, cfg, sep, traj.states)
    lock = Lockstep(pendulum, cfg)
    (k,) = lock.add(p[None], sep[None]).tolist()
    ends = {}
    while len(lock):
        ends.update(lock.step())
    assert ends[k].termination is traj.termination
    assert np.array_equal(ends[k].final_state, traj.states[-1])
    verdict = classify_recovery(pendulum, p, cfg, sep)
    assert verdict.termination is traj.termination
    assert ends[k].elapsed == verdict.elapsed_time == traj.elapsed
    assert verdict.final_distance == sep_distance(pendulum, traj.states[-1], sep)


@pytest.mark.parametrize(
    "p, termination, steps",
    [(0.2, "ConvergedToSEP", 2496), (0.5, "ConvergedToSEP", 2667),
     (0.9, "ConvergedToSEP", 2822), (0.99, "Diverged", 537)],
)
def test_system_without_a_bound_keeps_the_dwell_rule(toy_cfg, p, termination, steps):
    """The tent toy supplies no Jacobian bound: its runs end where they
    ended before certificates existed, in simulate and in a Lockstep."""
    toy = make_tent_toy()
    assert toy.jacobian_lipschitz is None
    sep = np.zeros(2)
    traj = simulate(toy, [p], toy_cfg, sep)
    assert (traj.termination.value, len(traj) - 1) == (termination, steps)
    lock = Lockstep(toy, toy_cfg)
    lock.add(np.array([[p]]), sep[None])
    ends = {}
    while not ends:
        ends = lock.step()
    (end,) = ends.values()
    assert lock.steps == steps and not len(lock)
    assert end.elapsed == traj.elapsed and end.termination is traj.termination
    assert np.array_equal(end.final_state, traj.states[-1])
    if traj.termination is Termination.CONVERGED_TO_SEP:
        assert_recovery_end(toy, [p], toy_cfg, sep, traj.states)

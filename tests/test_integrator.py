"""Implicit trapezoidal stepping and the simulation driver."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from moi import (
    MULTIMACHINE_DIVERGENCE_NORM,
    DimensionMismatch,
    IntegratorConfig,
    NewtonDivergence,
    ParameterizedSystem,
    Termination,
    eval_jacobian,
    find_sep,
    is_unstable,
    multimachine_system,
    sep_distance,
    simulate,
    step_trapezoidal,
)
from moi.integrator import _norm, _offset, _solve, _wrap_index
from moi.spectral import DEFAULT_STABILITY_TOL

from conftest import affine_system, assert_escape_end, assert_recovery_end

P0 = np.array([0.0])


def square_system(x0=None):
    """x' = x^2, from x0 (no initial condition when None)."""
    return ParameterizedSystem(
        state_dim=1,
        param_dim=1,
        field=lambda x, p: x**2,
        jacobian=lambda x, p: 2.0 * x[..., None],
        initial_condition=None if x0 is None else lambda p: np.full(p.shape[:-1] + (1,), x0),
    )


class TestConfigValidation:
    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(step=-0.1)
        with pytest.raises(ValueError):
            IntegratorConfig(step=np.inf)

    def test_rejects_bad_newton(self):
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.1, newton_tol=0.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError):
                IntegratorConfig(step=0.1, newton_tol=bad)

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.1, max_time=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.1, max_time=np.inf)
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.1, divergence_norm=-1.0)
        # the step budget max_time / step overflows
        for step, max_time in ((1e-320, 200.0), (1e-10, 1e308)):
            with pytest.raises(ValueError, match="max_time / step"):
                IntegratorConfig(step=step, max_time=max_time)

    def test_stability_tol_is_non_negative_and_finite(self):
        assert IntegratorConfig(step=0.1).stability_tol == DEFAULT_STABILITY_TOL
        assert IntegratorConfig(step=0.1, stability_tol=0.0).stability_tol == 0.0
        for bad in (-1e-9, np.inf, np.nan):
            with pytest.raises(ValueError):
                IntegratorConfig(step=0.1, stability_tol=bad)


def test_zero_field_is_identity():
    sys_ = affine_system([[0.0]])
    cfg = IntegratorConfig(step=0.5)
    x = np.array([1.25])
    y = step_trapezoidal(sys_, x, P0, cfg)
    assert np.array_equal(y, x)


def test_linear_decay_closed_form():
    """For x' = -x the trapezoidal update is x * (1 - h/2) / (1 + h/2)."""
    sys_ = affine_system([[-1.0]])
    for h in (0.01, 0.1, 0.5, 1.0):
        cfg = IntegratorConfig(step=h)
        y = step_trapezoidal(sys_, np.array([2.0]), P0, cfg)
        expected = 2.0 * (1.0 - h / 2.0) / (1.0 + h / 2.0)
        assert y[0] == pytest.approx(expected, rel=1e-13)


def test_equilibrium_is_fixed_point(pendulum, pend_cfg):
    sep = find_sep(pendulum, [1.5])
    y = step_trapezoidal(pendulum, sep, np.array([1.5]), pend_cfg)
    assert np.linalg.norm(y - sep) < 1e-12


def test_a_stability_on_stiff_decay():
    """Step size 100x past the explicit stability limit must still decay.

    The one-step amplification for x' = lam*x is (1 + h*lam/2)/(1 - h*lam/2),
    here -49/51: bounded below 1 in magnitude for any step (A-stable), though
    the decay is slow because the method is not L-stable.
    """
    sys_ = affine_system([[-1000.0]])
    cfg = IntegratorConfig(step=0.1)
    amp = (1.0 - 50.0) / (1.0 + 50.0)
    x = np.array([1.0])
    for n in range(100):
        x = step_trapezoidal(sys_, x, P0, cfg)
        assert abs(x[0]) <= abs(amp) ** n
    assert x[0] == pytest.approx(amp ** 100, rel=1e-9)


def test_local_error_third_order(pendulum):
    """Halving h shrinks the one-step error by ~8x (>= 3.7x required)."""

    def reference(x, H):
        cfg = IntegratorConfig(step=H / 512.0)
        y = x
        for _ in range(512):
            y = step_trapezoidal(pendulum, y, np.array([1.5]), cfg)
        return y

    rng = np.random.default_rng(42)
    for _ in range(5):
        x = rng.uniform([-1.0, -2.0], [3.0, 2.0])
        h = 0.2
        err_h = np.linalg.norm(
            step_trapezoidal(pendulum, x, np.array([1.5]), IntegratorConfig(step=h))
            - reference(x, h)
        )
        err_h2 = np.linalg.norm(
            step_trapezoidal(pendulum, x, np.array([1.5]), IntegratorConfig(step=h / 2))
            - reference(x, h / 2)
        )
        assert err_h / err_h2 >= 3.7


def test_newton_divergence_when_no_real_solution():
    # x' = x^2 from x = 3 with h = 1: the implicit equation has no real root
    sys_ = square_system()
    with pytest.raises(NewtonDivergence):
        step_trapezoidal(sys_, np.array([3.0]), P0, IntegratorConfig(step=1.0))


def test_singular_newton_matrix_is_newton_divergence():
    # x' = 100 x at h = 0.02: the Newton matrix 1 - (h/2) 100 is exactly 0
    sys_ = affine_system([[100.0]], x0=[1.0])
    cfg = IntegratorConfig(step=0.02, max_time=1.0)
    with pytest.raises(NewtonDivergence, match="singular"):
        step_trapezoidal(sys_, np.array([1.0]), P0, cfg)
    traj = simulate(sys_, P0, cfg, np.array([0.0]))
    assert traj.termination is Termination.SOLVER_FAILURE
    assert np.array_equal(traj.states, [[1.0]])


def test_sep_distance_wraps_angles():
    wrapped = affine_system(np.eye(2), wrap_indices=(0,))
    sep = np.array([0.5, 0.0])
    x = np.array([0.5 + 2.0 * np.pi, 0.0])
    assert sep_distance(wrapped, x, sep) < 1e-12
    flat = replace(wrapped, wrap_indices=None)
    assert sep_distance(flat, x, sep) == pytest.approx(2.0 * np.pi)


def test_pendulum_distance_does_not_wrap(pendulum):
    """A full revolution away from the equilibrium is NOT `at` it: settling
    one turn over counts as failure to recover for this model."""
    sep = np.array([0.5, 0.0])
    x = np.array([0.5 + 2.0 * np.pi, 0.0])
    assert sep_distance(pendulum, x, sep) == pytest.approx(2.0 * np.pi)


class TestSimulate:
    def test_recovers_at_moderate_forcing(self, pendulum, pend_cfg):
        sep = find_sep(pendulum, [1.5])
        traj = simulate(pendulum, [1.5], pend_cfg, sep)
        assert traj.termination is Termination.CONVERGED_TO_SEP
        # the run ends on its first state inside the certified set of sep
        assert_recovery_end(pendulum, [1.5], pend_cfg, sep, traj.states)
        assert traj.instability_flags is None

    def test_diverges_past_boundary(self, pendulum, pend_cfg):
        """The run ends at its first state in the escape set or beyond the
        norm, and is, state for state, the start of the run without the
        escape certificate, which ends beyond the norm."""
        sep = find_sep(pendulum, [1.7])
        traj = simulate(pendulum, [1.7], pend_cfg, sep)
        bare = replace(pendulum, escape=None)
        plain = simulate(bare, [1.7], pend_cfg, sep)
        assert traj.termination is plain.termination is Termination.DIVERGED
        assert_escape_end(pendulum, [1.7], pend_cfg, sep, traj.states)
        assert len(traj) < len(plain)
        assert np.array_equal(traj.states, plain.states[: len(traj)])
        assert np.linalg.norm(plain.states[-1]) > pend_cfg.divergence_norm
        assert_escape_end(bare, [1.7], pend_cfg, sep, plain.states)

    def test_max_time_reached_counts_steps(self):
        # pure rotation never settles and never diverges
        rot = affine_system([[0.0, 1.0], [-1.0, 0.0]], x0=[1.0, 0.0])
        cfg = IntegratorConfig(step=0.1, max_time=1.0)
        traj = simulate(rot, P0, cfg, np.array([10.0, 10.0]))
        assert traj.termination is Termination.MAX_TIME_REACHED
        assert len(traj) == 11
        assert traj.elapsed == pytest.approx(1.0)

    def test_flags_cover_every_state(self, pendulum, pend_cfg):
        sep = find_sep(pendulum, [1.5])
        traj = simulate(pendulum, [1.5], pend_cfg, sep, record_flags=True)
        assert traj.instability_flags is not None
        assert len(traj.instability_flags) == len(traj.states)
        assert traj.instability_flags.dtype == np.bool_
        # the trajectory passes the saddle region, so some flag must be set
        assert traj.instability_flags.any()
        assert not traj.instability_flags[0]

    def test_solver_failure_keeps_partial_trajectory(self):
        sys_ = square_system(x0=3.0)
        cfg = IntegratorConfig(step=1.0, max_time=5.0)
        traj = simulate(sys_, P0, cfg, np.array([0.0]))
        assert traj.termination is Termination.SOLVER_FAILURE
        assert len(traj) >= 1
        assert np.all(np.isfinite(traj.states))

    def test_divergence_checked_before_proximity(self):
        # a state far past the divergence norm that happens to lie at the
        # target must still classify as diverged: the first step lands on
        # the SEP given, 10, past the norm 5
        sys_ = affine_system([[0.0]], b=[10.0], x0=[0.0])
        cfg = IntegratorConfig(step=1.0, max_time=10.0, divergence_norm=5.0)
        traj = simulate(sys_, P0, cfg, np.array([10.0]))
        assert traj.termination is Termination.DIVERGED

    @pytest.mark.parametrize(
        "p, sep",
        [
            ([1.5], np.zeros(3)),
            ([1.5], np.zeros(1)),
            ([1.5], np.zeros((1, 2))),
            (np.full((1, 1), 1.5), np.zeros(2)),
        ],
        ids=["sep-3", "sep-1", "sep-1x2", "p-1x1"],
    )
    def test_misshaped_vectors_raise_dimension_mismatch(self, pendulum, pend_cfg, p, sep):
        with pytest.raises(DimensionMismatch):
            simulate(pendulum, p, pend_cfg, sep)

    def test_deterministic_repeat(self, pendulum, pend_cfg):
        sep = find_sep(pendulum, [1.5])
        a = simulate(pendulum, [1.5], pend_cfg, sep)
        b = simulate(pendulum, [1.5], pend_cfg, sep)
        assert np.array_equal(a.states, b.states)
        assert a.termination is b.termination


@pytest.mark.parametrize("n", [2, 6])
@pytest.mark.parametrize("k", [1, 16])
def test_newton_solve_equals_numpy_solve_bitwise(n, k):
    """The LAPACK call of the Newton steps equals ``np.linalg.solve``
    bitwise; a singular member gives a non-finite row of its own and
    leaves the other rows alone."""
    rng = np.random.default_rng(100 * n + k)
    a = np.eye(n) - 0.01 * rng.standard_normal((k, n, n))
    b = rng.standard_normal((k, n))
    expected = np.linalg.solve(a, b[..., None])[..., 0]
    assert np.array_equal(_solve(a, b), expected)
    for j in range(k):
        assert np.array_equal(_solve(a[j], b[j]), np.linalg.solve(a[j], b[j]))
    singular = a.copy()
    singular[k // 2, :, 0] = 0.0  # an exactly zero pivot
    with np.errstate(invalid="ignore"):
        rows = _solve(singular, b)
    assert not np.isfinite(rows[k // 2]).any()
    others = np.arange(k) != k // 2
    assert np.array_equal(rows[others], expected[others])


def loop_norm(v):
    """The norm as a left-to-right loop over the coordinates."""
    squares = (v * v).T
    total = squares[0]
    for k in range(1, len(squares)):
        total = total + squares[k]
    return np.sqrt(total)


@pytest.mark.parametrize("n", [2, 6, 12])
@pytest.mark.parametrize("k", [1, 16])
def test_norm_equals_the_left_to_right_loop_bitwise(n, k):
    """One running sum gives the loop's norm, for a stack, a single state
    (a numpy scalar, as the loop gives) and non-finite entries."""
    rng = np.random.default_rng(10 * n + k)
    v = rng.standard_normal((k, n)) * rng.choice([1e-8, 1.0, 1e8], (k, n))
    assert np.array_equal(_norm(v), loop_norm(v))
    single = _norm(v[0])
    assert type(single) is np.float64 and single == loop_norm(v[0])
    v[0, -1], v[-1, 0] = np.inf, np.nan
    if k > 2:
        v[1, n // 2] = -np.inf
    assert np.array_equal(_norm(v), loop_norm(v), equal_nan=True)


def test_offset_through_a_slice_equals_the_index_array_bitwise(nine_bus):
    """Contiguous wrap coordinates are reduced through a view, as they are
    through an index array; other wraps keep the index array."""
    grid = multimachine_system(nine_bus)
    assert _wrap_index(grid) == slice(0, 3)
    rng = np.random.default_rng(3)
    x = rng.uniform(-40.0, 40.0, (16, 6))
    sep = rng.uniform(-1.0, 1.0, 6)
    for states in (x, x[0]):
        assert np.array_equal(_offset(states, sep, slice(0, 3)),
                              _offset(states, sep, np.arange(3)))
    for wrap in ((0, 2), (-1,), (1, 0)):
        index = _wrap_index(replace(grid, wrap_indices=wrap))
        assert np.array_equal(index, np.array(wrap))


def test_flags_taken_together_equal_each_states_is_unstable(
    pendulum, pend_cfg, nine_bus
):
    """The flags of one eigen call at the end equal ``is_unstable`` at each
    stored state, on the averaging runs at the recovering ends of the
    pendulum's and the 9-bus network's boundary brackets, which linger by
    the saddle."""
    grid = multimachine_system(nine_bus)
    grid_cfg = IntegratorConfig(step=1.0 / 60.0, divergence_norm=MULTIMACHINE_DIVERGENCE_NORM)
    for sys_, p, cfg in ((pendulum, 1.5686593295631313, pend_cfg),
                         (grid, 0.47971420288085936, grid_cfg)):
        traj = simulate(sys_, [p], cfg, find_sep(sys_, [p]), record_flags=True)
        expected = [is_unstable(eval_jacobian(sys_, x, np.array([p])), cfg.stability_tol)
                    for x in traj.states]
        assert np.array_equal(traj.instability_flags, expected)
        assert 0 < traj.instability_flags.sum() < len(traj)

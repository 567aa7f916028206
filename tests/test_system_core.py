"""System container: field/jacobian evaluation, shape checks, trajectories."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moi import (
    DimensionMismatch,
    NonFiniteOutput,
    ParameterizedSystem,
    Termination,
    Trajectory,
    eval_field,
    eval_jacobian,
    initial_state,
)


def linear_system(A: np.ndarray) -> ParameterizedSystem:
    A = np.asarray(A, dtype=float)
    return ParameterizedSystem(
        state_dim=A.shape[0],
        param_dim=1,
        field=lambda x, p: A @ x,
        jacobian=lambda x, p: A,
    )


def test_pendulum_field_value(pendulum):
    # directly substituted reference point: sin(0) kills the stiffness term,
    # leaving -c2*v + p = -0.5 + 1.5
    out = eval_field(pendulum, np.array([0.0, 1.0]), np.array([1.5]))
    assert out[0] == 1.0
    assert out[1] == 1.0


def test_field_wrong_state_dim(pendulum):
    with pytest.raises(DimensionMismatch):
        eval_field(pendulum, np.array([0.0, 1.0, 2.0]), np.array([1.5]))


def test_field_wrong_param_dim(pendulum):
    with pytest.raises(DimensionMismatch):
        eval_field(pendulum, np.array([0.0, 1.0]), np.array([1.5, 2.0]))


@pytest.mark.parametrize(
    "out, error",
    [(np.zeros(3), DimensionMismatch), (np.array([0.0, np.inf]), NonFiniteOutput)],
    ids=["shape", "non-finite"],
)
def test_field_output_is_checked(out, error):
    sys_ = ParameterizedSystem(state_dim=2, param_dim=1, field=lambda x, p: out)
    with pytest.raises(error):
        eval_field(sys_, np.zeros(2), np.zeros(1))


def test_jacobian_wrong_dims(pendulum):
    with pytest.raises(DimensionMismatch):
        eval_jacobian(pendulum, np.array([1.0]), np.array([1.5]))


def test_analytic_jacobian_shape_is_checked():
    bad = ParameterizedSystem(
        state_dim=2,
        param_dim=1,
        field=lambda x, p: x,
        jacobian=lambda x, p: np.zeros((2, 3)),
    )
    with pytest.raises(DimensionMismatch, match=r"jacobian returned shape \(2, 3\)"):
        eval_jacobian(bad, np.zeros(2), np.zeros(1))


def test_analytic_jacobian_values(pendulum):
    x = np.array([0.3, -0.2])
    J = eval_jacobian(pendulum, x, np.array([1.5]))
    assert J[0, 0] == 0.0 and J[0, 1] == 1.0
    assert J[1, 0] == pytest.approx(-2.0 * np.cos(0.3), abs=0.0)
    assert J[1, 1] == -0.5


def test_finite_difference_fallback_matches_analytic(pendulum):
    """Dropping the analytic jacobian falls back to central differences."""
    from dataclasses import replace

    fd_sys = replace(pendulum, jacobian=None)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0, size=2)
        p = np.array([rng.uniform(0.0, 1.9)])
        J_an = eval_jacobian(pendulum, x, p)
        J_fd = eval_jacobian(fd_sys, x, p)
        assert np.max(np.abs(J_an - J_fd)) < 1e-5


@settings(max_examples=25, deadline=None)
@given(
    x1=st.floats(-3.0, 3.0),
    x2=st.floats(-3.0, 3.0),
    torque=st.floats(0.0, 1.9),
)
def test_finite_difference_accuracy_property(x1, x2, torque):
    from dataclasses import replace
    from moi import pendulum_system

    sys_ = pendulum_system()
    fd_sys = replace(sys_, jacobian=None)
    x = np.array([x1, x2])
    p = np.array([torque])
    assert np.max(np.abs(eval_jacobian(sys_, x, p) - eval_jacobian(fd_sys, x, p))) < 1e-5


def test_initial_state_checks_shape():
    bad = ParameterizedSystem(
        state_dim=2,
        param_dim=1,
        field=lambda x, p: x,
        initial_condition=lambda p: np.array([1.0]),
    )
    with pytest.raises(DimensionMismatch):
        initial_state(bad, np.array([0.0]))


def test_initial_state_checks_parameter_shape():
    """A parameter of the wrong shape raises before the initial condition
    sees it, which here would return a state of the right shape."""
    sys_ = ParameterizedSystem(
        state_dim=2,
        param_dim=1,
        field=lambda x, p: x,
        initial_condition=lambda p: np.zeros(2),
    )
    with pytest.raises(DimensionMismatch, match=r"parameter has shape \(3,\)"):
        initial_state(sys_, np.zeros(3))


def test_initial_state_rejects_non_finite():
    bad = ParameterizedSystem(
        state_dim=1,
        param_dim=1,
        field=lambda x, p: x,
        initial_condition=lambda p: np.array([np.inf]),
    )
    with pytest.raises(NonFiniteOutput):
        initial_state(bad, np.array([0.0]))


def test_initial_state_requires_callback():
    sys_ = linear_system(np.eye(2))
    with pytest.raises(ValueError):
        initial_state(sys_, np.array([0.0]))


def test_trajectory_len_and_elapsed():
    states = np.zeros((11, 2))
    traj = Trajectory(
        states=states,
        step=0.1,
        parameter=np.array([0.0]),
        termination=Termination.MAX_TIME_REACHED,
    )
    assert len(traj) == 11
    assert traj.elapsed == pytest.approx(1.0)


def test_state_names_default_none():
    sys_ = linear_system(np.eye(2))
    assert sys_.state_names is None
    assert sys_.wrap_indices is None


def test_pendulum_metadata(pendulum):
    assert pendulum.state_names == ("angle", "velocity")
    assert pendulum.param_dim == 1
    assert pendulum.state_dim == 2

"""System container: field/jacobian evaluation, shape checks, trajectories."""

from __future__ import annotations

import re
from dataclasses import replace

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
    pendulum_system,
)

from conftest import affine_system, central_differences


def test_a_system_without_a_jacobian_is_not_built():
    with pytest.raises(TypeError, match="jacobian"):
        ParameterizedSystem(state_dim=1, param_dim=1, field=lambda x, p: x)


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
    sys_ = replace(affine_system(np.eye(2)), field=lambda x, p: out)
    with pytest.raises(error):
        eval_field(sys_, np.zeros(2), np.zeros(1))


def test_jacobian_wrong_dims(pendulum):
    with pytest.raises(DimensionMismatch):
        eval_jacobian(pendulum, np.array([1.0]), np.array([1.5]))


def test_analytic_jacobian_shape_is_checked():
    bad = replace(affine_system(np.eye(2)), jacobian=lambda x, p: np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch, match=r"jacobian returned shape \(2, 3\)"):
        eval_jacobian(bad, np.zeros(2), np.zeros(1))


def test_analytic_jacobian_values(pendulum):
    x = np.array([0.3, -0.2])
    J = eval_jacobian(pendulum, x, np.array([1.5]))
    assert J[0, 0] == 0.0 and J[0, 1] == 1.0
    assert J[1, 0] == pytest.approx(-2.0 * np.cos(0.3), abs=0.0)
    assert J[1, 1] == -0.5


@settings(max_examples=25, deadline=None)
@given(
    x1=st.floats(-3.0, 3.0),
    x2=st.floats(-3.0, 3.0),
    torque=st.floats(0.0, 1.9),
)
def test_pendulum_jacobian_matches_central_differences(x1, x2, torque):
    sys_ = pendulum_system()
    x, p = np.array([x1, x2]), np.array([torque])
    assert np.max(np.abs(eval_jacobian(sys_, x, p) - central_differences(sys_, x, p))) < 1e-5


@pytest.mark.parametrize("p", [np.array([0.0]), np.zeros((3, 1))], ids=["single", "stack"])
def test_initial_state_checks_shape(p):
    # one component short of the state
    bad = replace(
        affine_system(np.eye(2)), initial_condition=lambda p: np.ones(p.shape[:-1] + (1,))
    )
    with pytest.raises(DimensionMismatch):
        initial_state(bad, p)


@pytest.mark.parametrize("shape", [(3,), (2, 2), (1, 1, 1)])
def test_initial_state_checks_parameter_shape(shape):
    """A parameter of the wrong shape raises before the initial condition
    sees it, which here would return a state of the right shape."""
    sys_ = affine_system(np.eye(2), x0=np.zeros(2))
    message = re.escape(f"parameter has shape {shape}")
    with pytest.raises(DimensionMismatch, match=message):
        initial_state(sys_, np.zeros(shape))


def test_initial_state_rejects_non_finite():
    bad = affine_system(-np.eye(1), x0=[np.inf])
    with pytest.raises(NonFiniteOutput):
        initial_state(bad, np.array([0.0]))


def test_initial_state_requires_callback():
    sys_ = affine_system(np.eye(2))
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
    sys_ = affine_system(np.eye(2))
    assert sys_.state_names is None
    assert sys_.wrap_indices is None


def test_pendulum_metadata(pendulum):
    assert pendulum.state_names == ("angle", "velocity")
    assert pendulum.param_dim == 1
    assert pendulum.state_dim == 2

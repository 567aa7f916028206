"""Shared fixtures: bundled models, a toy with a closed-form saddle, caches.

The expensive session fixtures (the pendulum step-size sweep, the grid
model) are computed once and shared across test modules.
"""

from __future__ import annotations

import numpy as np
import pytest

from moi import (
    IntegratorConfig,
    MultiMachineParams,
    ParameterizedSystem,
    PendulumParams,
    PENDULUM_DIVERGENCE_NORM,
    bundled_network_path,
    canonical_sign,
    h_sweep,
    load_network,
    pendulum_system,
)
from moi.integrator import (
    SEP_DWELL,
    SEP_TOL,
    _norm,
    _offset,
    _quadratic,
    _recovery_sets,
    _wrap_index,
)


def certificate_of(sys_, p, cfg, sep):
    """The (form, level) certificate ``simulate`` uses for ``sys_`` at
    parameter ``p`` and equilibrium ``sep``."""
    p, sep = np.asarray(p, dtype=float), np.asarray(sep, dtype=float)
    form, level, _, _ = _recovery_sets(sys_, p[None], sep[None], cfg)
    return form[0], level[0]


def escape_row(sys_, p, cfg, sep):
    """The escape row ``simulate`` uses for ``sys_`` at parameter ``p`` and
    equilibrium ``sep``: for the pendulum (saddle, speed, level, gate)."""
    p, sep = np.asarray(p, dtype=float), np.asarray(sep, dtype=float)
    return _recovery_sets(sys_, p[None], sep[None], cfg)[3][0]


def assert_escape_end(sys_, p, cfg, sep, states):
    """``states`` (initial state first) end where the divergence rule ends
    them: at the first later state that the system's ``crossing`` puts in
    the escape set of ``sep``, or beyond ``cfg.divergence_norm``, whichever
    comes first."""
    x = np.asarray(states, dtype=float)
    ends = _norm(x[1:]) > cfg.divergence_norm
    if sys_.escape is not None:
        k = len(x) - 1
        rows = np.tile(escape_row(sys_, p, cfg, sep), (k, 1))
        entered = sys_.escape[1](x[:-1], x[1:], np.tile(p, (k, 1)), rows)
        if entered is not None:
            ends |= np.isfinite(entered)
    assert np.flatnonzero(ends).tolist()[:1] == [len(x) - 2]


def assert_recovery_end(sys_, p, cfg, sep, states):
    """``states`` (initial state first) end where the recovery rule ends
    them: at the first later state inside the certified set of ``sep``, or
    at the first one that completes ``SEP_DWELL`` consecutive states
    within ``SEP_TOL`` of it, whichever comes first."""
    d = _offset(np.asarray(states[1:], dtype=float), sep, _wrap_index(sys_))
    ends = np.zeros(len(d), dtype=bool)
    if sys_.jacobian_lipschitz is not None:
        form, level = certificate_of(sys_, p, cfg, sep)
        ends |= _quadratic(form, d) <= level
    run = 0
    for k, near in enumerate(_norm(d) <= SEP_TOL):
        run = run + 1 if near else 0
        ends[k] |= run >= SEP_DWELL
    assert np.flatnonzero(ends).tolist()[:1] == [len(d) - 1]


# step size used throughout as the "fine" pendulum resolution
PEND_H = 0.02

# the seven step sizes exercised by the convergence sweep, coarse to fine
SWEEP_H = (0.8, 0.4, 0.2, 0.1, 0.08, 0.04, 0.02)

TOY_DIVERGENCE_NORM = 100.0


@pytest.fixture(scope="session")
def pendulum_params() -> PendulumParams:
    """Pendulum model settings used for boundary work.

    The disturbance initial condition is produced by actually integrating
    the disturbed dynamics (at the model's own fixed internal step) so it is
    identical across every recovery step size.
    """
    return PendulumParams(ic_method="integrated", ic_step=0.02)


@pytest.fixture(scope="session")
def pendulum(pendulum_params) -> ParameterizedSystem:
    return pendulum_system(pendulum_params)


@pytest.fixture(scope="session")
def pend_cfg() -> IntegratorConfig:
    return IntegratorConfig(step=PEND_H, divergence_norm=PENDULUM_DIVERGENCE_NORM)


def make_tent_toy(seed_velocity: float = 0.05) -> ParameterizedSystem:
    """A damped particle in a tent-shaped potential with a known saddle.

    The potential gradient is ``V'(t) = t - 2*softplus(200*(t-0.5))/200``:
    a unit-stiffness well that bends into a constant downhill slope past
    t = 0.5.  In double precision the saddle sits exactly at (1, 0) and the
    Jacobian there is exactly [[0, 1], [1, -0.5]], so the escape direction
    has a closed form.  The ray of initial conditions ``x0(p) = (p,
    seed_velocity)`` carries a small velocity so that no probed initial
    state is itself an equilibrium.
    """

    def vprime(t):
        return t - 2.0 * np.logaddexp(0.0, 200.0 * (t - 0.5)) / 200.0

    def field(x, p):
        return np.array([x[1], -vprime(x[0]) - 0.5 * x[1]])

    def jac(x, p):
        return np.array([[0.0, 1.0], [np.tanh(100.0 * (x[0] - 0.5)), -0.5]])

    return ParameterizedSystem(
        state_dim=2,
        param_dim=1,
        field=field,
        jacobian=jac,
        initial_condition=lambda p: np.array([p[0], seed_velocity]),
        name="tent-toy",
        state_names=("position", "velocity"),
    )


@pytest.fixture(scope="session")
def tent_toy() -> ParameterizedSystem:
    return make_tent_toy()


@pytest.fixture(scope="session")
def toy_cfg() -> IntegratorConfig:
    return IntegratorConfig(step=0.02, divergence_norm=TOY_DIVERGENCE_NORM)


@pytest.fixture(scope="session")
def toy_saddle_eigenpair() -> tuple[float, np.ndarray]:
    """Closed-form unstable eigenpair of [[0, 1], [1, -0.5]]."""
    lam = (-0.5 + np.sqrt(4.25)) / 2.0
    v = np.array([1.0, lam])
    v = canonical_sign(v / np.linalg.norm(v))
    return float(lam), v


@pytest.fixture(scope="session")
def nine_bus() -> MultiMachineParams:
    return load_network(bundled_network_path())


@pytest.fixture(scope="session")
def pendulum_sweep(pendulum, pend_cfg):
    """The seven-step-size boundary/mode sweep (computed once, ~15 s)."""
    return h_sweep(pendulum, [1.5], [1.0], list(SWEEP_H), pend_cfg)


@pytest.fixture(scope="session")
def eigen_log() -> list:
    """Accumulates (matrix, eigenvalue, eigenvector) triples produced by the
    acceptance runs so the residual bound can be checked over all of them."""
    return []

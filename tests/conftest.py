"""Shared fixtures: bundled models, toys with a closed-form saddle or an
affine field, caches.

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
    eval_field,
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


def central_differences(sys_, x, p, step=1e-6):
    """The Jacobian of the field at (x, p) by central differences, with
    per-coordinate step max(step, step |x_i|)."""
    n = len(x)
    jac = np.empty((n, n))
    for i in range(n):
        delta = max(step, step * abs(x[i]))
        up, down = x.copy(), x.copy()
        up[i] += delta
        down[i] -= delta
        jac[:, i] = (eval_field(sys_, up, p) - eval_field(sys_, down, p)) / (2.0 * delta)
    return jac


def certificate_of(sys_, p, cfg, sep):
    """The (form, level) certificate ``simulate`` uses for ``sys_`` at
    parameter ``p`` and equilibrium ``sep`` (where the run has an energy
    well, the well holds its set)."""
    p, sep = np.asarray(p, dtype=float), np.asarray(sep, dtype=float)
    form, level = _recovery_sets(sys_, p[None], sep[None], cfg)[:2]
    return form[0], level[0]


def escape_row(sys_, p, cfg, sep):
    """The escape row ``simulate`` uses for ``sys_`` at parameter ``p`` and
    equilibrium ``sep``: for the pendulum (saddle, speed, level, gate),
    the exit cone's eight columns and the well's (edge, floor)."""
    p, sep = np.asarray(p, dtype=float), np.asarray(sep, dtype=float)
    return _recovery_sets(sys_, p[None], sep[None], cfg)[3][0]


def has_well(sys_, p, cfg, sep) -> bool:
    """Whether a run of ``sys_`` at ``p`` around ``sep`` has an energy well."""
    p, sep = np.asarray(p, dtype=float), np.asarray(sep, dtype=float)
    return bool(_recovery_sets(sys_, p[None], sep[None], cfg)[4][0])


def well_radius(sys_, p, cfg, sep) -> float:
    """The radius of the ball around ``sep`` that the well of a run of
    ``sys_`` at ``p`` must hold: the larger of its certified set's reach
    and ``SEP_TOL``."""
    p, sep = np.asarray(p, dtype=float), np.asarray(sep, dtype=float)
    return max(float(_recovery_sets(sys_, p[None], sep[None], cfg)[2][0]), SEP_TOL)


def model_ends(sys_, p, cfg, sep, states):
    """The system's ``ends`` (escape fractions, recovered mask) of the
    steps between consecutive ``states`` of a run at ``p`` around ``sep``."""
    x = np.asarray(states, dtype=float)
    k = len(x) - 1
    rows = np.tile(escape_row(sys_, p, cfg, sep), (k, 1))
    return sys_.end_sets[1](x[:-1], x[1:], np.tile(p, (k, 1)), rows)


def assert_escape_end(sys_, p, cfg, sep, states):
    """``states`` (initial state first) end where the divergence rule ends
    them: at the first later state that the system's ``ends`` puts in
    the escape set of ``sep``, or beyond ``cfg.divergence_norm``, whichever
    comes first."""
    x = np.asarray(states, dtype=float)
    ends = _norm(x[1:]) > cfg.divergence_norm
    if sys_.end_sets is not None:
        entered = model_ends(sys_, p, cfg, sep, x)[0]
        if entered is not None:
            ends |= np.isfinite(entered)
    assert np.flatnonzero(ends).tolist()[:1] == [len(x) - 2]


def assert_recovery_end(sys_, p, cfg, sep, states):
    """``states`` (initial state first) end where the recovery rule ends
    them: for a run with an energy well, at the first later state that the
    system's ``ends`` puts in it; otherwise at the first later state inside
    the certified set of ``sep``, or at the first one that completes
    ``SEP_DWELL`` consecutive states within ``SEP_TOL`` of it, whichever
    comes first."""
    x = np.asarray(states, dtype=float)
    if has_well(sys_, p, cfg, sep):
        recovered = model_ends(sys_, p, cfg, sep, x)[1]
        assert np.flatnonzero(recovered).tolist()[:1] == [len(x) - 2]
        return
    d = _offset(x[1:], sep, _wrap_index(sys_))
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


def affine_system(A, b=None, x0=None, **kwargs) -> ParameterizedSystem:
    """x' = A x + b over a scalar parameter, from x0 (no initial condition
    when None), batched: each row of A x is a sum over the last axis of a
    fresh C-ordered array, so a batch member and a single state round
    alike.  ``kwargs`` are further ``ParameterizedSystem`` fields."""
    A = np.asarray(A, dtype=float)
    n = len(A)
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    initial_condition = None
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)

        def initial_condition(p):
            return np.broadcast_to(x0, p.shape[:-1] + (n,))

    return ParameterizedSystem(
        state_dim=n,
        param_dim=1,
        field=lambda x, p: np.add.reduce(A * x[..., None, :], axis=-1) + b,
        jacobian=lambda x, p: np.broadcast_to(A, x.shape + (n,)),
        initial_condition=initial_condition,
        **kwargs,
    )


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
        xt, out = x.T, np.empty(x.shape)
        out.T[0] = xt[1]
        out.T[1] = -vprime(xt[0]) - 0.5 * xt[1]
        return out

    def jac(x, p):
        out = np.empty(x.shape + (2,))
        out[...] = [[0.0, 1.0], [0.0, -0.5]]
        out[..., 1, 0] = np.tanh(100.0 * (x.T[0] - 0.5))
        return out

    def initial_condition(p):
        x0 = np.empty(p.shape[:-1] + (2,))
        x0.T[0], x0.T[1] = p.T[0], seed_velocity
        return x0

    return ParameterizedSystem(
        state_dim=2,
        param_dim=1,
        field=field,
        jacobian=jac,
        initial_condition=initial_condition,
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

"""The certificates' proofs, checked term by term: each checker works out
again, from the inputs of ``integrator.recovery_certificate`` or
``model_zoo._pendulum_escape`` (with its exit cone, ``_pendulum_cone``),
every term that its docstring proof uses, and asserts each of the proof's
inequalities for the level or escape row that it returned.

The boundary tests elsewhere check single states and single steps, which
a set with the right margins passes even where a term of its proof is
wrong; these checks do not sample states at all.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moi import (
    IntegratorConfig,
    MULTIMACHINE_DIVERGENCE_NORM,
    PENDULUM_DIVERGENCE_NORM,
    PendulumParams,
    find_sep,
    multimachine_system,
    pendulum_sep,
    pendulum_system,
)
from moi.integrator import recovery_certificate

from conftest import escape_row

EPS = np.finfo(float).eps
PARAMS = PendulumParams()
SYS = pendulum_system(PARAMS)
C1, C2 = PARAMS.c1, PARAMS.c2
#: the pendulum boundary at h = 0.02, as in tests/test_escape.py
PEND_P_STAR = 1.5686593295631313


def lyapunov(a: np.ndarray) -> np.ndarray:
    """P with a^T P + P a = -I for a diagonalisable Hurwitz ``a``, from its
    eigenvectors: with a = V D V^-1 and P = V^-T X V^-1, D X + X D = -V^T V
    holds entry by entry."""
    lam, v = np.linalg.eig(a)
    inv = np.linalg.inv(v)
    x = -(v.T @ v) / (lam[:, None] + lam[None, :])
    return (inv.T @ x @ inv).real


def check_recovery_proof(jac, residual, w0, lipschitz, cfg, form, level) -> None:
    """Every inequality of ``recovery_certificate``'s proof for the level
    set {d : d^T form d <= level} that it built from ``jac``, ``residual``,
    the weights ``w0`` and the bound ``lipschitz``."""
    n = len(w0)
    m = n // 2
    # the balancing factor s, and the weights and bound it scales
    a0 = w0[:, None] * jac / w0
    s = np.sqrt(np.linalg.norm(a0[:m, m:], 2) / (2.0 * np.linalg.norm(a0[m:, :m], 2)))
    assert 0.0 < s < np.inf
    w = np.concatenate([w0[:m], s * w0[m:]])
    bound = s * lipschitz
    a_w = w[:, None] * jac / w
    assert (np.linalg.eigvals(a_w).real < 0.0).all()
    # P, solved here by another route, and the form that was returned
    p = lyapunov(a_w)
    np.testing.assert_allclose(a_w.T @ p + p @ a_w, -np.eye(n), atol=1e-9)
    np.testing.assert_allclose(form, w[:, None] * p * w, rtol=1e-7, atol=1e-12)
    mu, lam = np.linalg.eigvalsh(p)[[0, -1]]
    assert mu > 0.0
    decay = -(a_w.T @ p + p @ a_w)
    q = np.linalg.eigvalsh(0.5 * (decay + decay.T))[0]
    a = np.linalg.norm(a_w, 2)
    h, tol = cfg.step, cfg.stability_tol
    nu = np.sqrt(lam) * (
        w.max() * (2.0 * cfg.newton_tol + 1e-12) + h * np.linalg.norm(w * residual)
    )
    # the radius of the ball that holds the set: sqrt(c) = sqrt(mu) r - nu
    assert level > 0.0
    root_c = np.sqrt(level)
    r = (root_c + nu) / np.sqrt(mu)
    # J_w^T P + P J_w <= -(q - 2 lam L r) I <= -2 lam tol I on the ball
    assert q - 2.0 * lam * bound * r >= 2.0 * lam * tol
    assert h * bound * r < 4.0
    beta = h * (a + bound * r / 2.0) / (2.0 - h * bound * r / 2.0)
    kappa = q - lam * bound * r * (1.0 + beta)
    assert kappa > 0.0
    theta = min(1.0, h * kappa / (lam * (1.0 + beta) ** 2))
    # the slack covers the rounding of these terms, worked out again here
    assert nu <= (1.0 - np.sqrt(1.0 - theta)) * root_c * (1.0 + 1e-9)


def check_escape_proof(c1, c2, torque, sep, cfg, row) -> None:
    """Every inequality of ``_pendulum_escape``'s proof for the energy set
    (saddle, speed, level, gate) of the escape row it built for a run at
    ``torque`` around ``sep``."""
    saddle, speed, level, gate = row[:4]
    theta_s = sep[0]
    h, reach = cfg.step, cfg.divergence_norm
    budget = np.floor(cfg.max_time / h + 1e-9)
    # the saddle: the maximum of U right of the SEP, t = pi - asin(p/c1)
    # up to whole turns, to within the SEP's own error
    exact = np.pi - np.arcsin(torque / c1)
    exact += 2.0 * np.pi * np.round((saddle - exact) / (2.0 * np.pi))
    assert theta_s < saddle < theta_s + 2.0 * np.pi
    assert abs(saddle - exact) < 1e-3
    # rho bounds the residual of every computed step within the norm
    rho = 2.0 * cfg.newton_tol + 1e-12 + 8.0 * EPS * reach
    # speed: |w| <= B is kept by every step while h c2 < 2
    big_b = (c1 + abs(torque) + rho / h) / c2
    assert h * c2 < 2.0
    assert speed <= big_b * (1.0 + 4.0 * EPS)
    # energy: the rise per step is at most e while k < c
    c, k = c2 / h, c1 * (h * big_b + rho) / 12.0
    assert k < c
    rise = rho * (c1 + abs(torque) + big_b + rho * c * k / (c - k))
    # no jump over the saddle while h sqrt(c1) < 2
    gap = 2.0 - h * np.sqrt(c1)
    assert gap > 0.0
    jump = c1 * rho**2 / gap**2
    margin = budget * rise + jump
    # offset: the computed saddle's distance from the exact one
    off = abs(saddle - exact) + 8.0 * EPS * (abs(saddle) + 4.0)
    offset = c1 * off**2 / 2.0
    magnitude = reach**2 + 2.0 * c1 + abs(torque) * (reach + abs(saddle))
    energy_u = -c1 * np.cos(saddle) - torque * saddle
    delta = energy_u - level
    # less the rounding of the subtraction that recovers delta
    assert delta >= (margin + offset + 16.0 * EPS * magnitude
                     - 2.0 * np.spacing(abs(energy_u)))
    # the gate: a state of the set lies more than sqrt(2 m / c1) from the
    # exact saddle, so more than that less off from the computed one; the
    # gate's distance from the saddle, widened by off, stays within it
    assert gate >= saddle
    if gate > saddle:
        assert c1 * (gate - saddle + off) ** 2 / 2.0 <= margin


def check_exit_cone_proof(c1, c2, torque, sep, cfg, row) -> bool:
    """Every inequality of ``_pendulum_cone``'s proof for the exit cone
    (low, ka, kb, ia, P, top, mp, m) of the escape row built for a run at
    ``torque`` around ``sep``, whose energy set ``check_escape_proof``
    checks.  Returns whether the row has a cone; a row without one has
    top = -inf and mp = m = inf."""
    saddle, speed, level, gate, low, ka, kb, ia, wide, top, margin, m = row
    if not np.isfinite(m):
        assert top == -np.inf and margin == np.inf and low == gate
        return False
    h, reach = cfg.step, cfg.divergence_norm
    # the exact saddle, and the eigenpairs of the Jacobian there
    exact = np.pi - np.arcsin(torque / c1)
    exact += 2.0 * np.pi * np.round((saddle - exact) / (2.0 * np.pi))
    a = -c1 * np.cos(exact)
    values = np.linalg.eigvals(np.array([[0.0, 1.0], [a, -c2]]))
    lam, kap = values.real.max(), -values.real.min()
    s_ = lam + kap
    # the test's coordinates are those of (1, lam) and (1, -kap)
    np.testing.assert_allclose([ka, kb, ia], [kap / s_, lam / s_, 1.0 / s_], rtol=1e-12)
    # w^2 - a d^2 in the eigen-coordinates, at a few points
    for alpha, beta in ((1.0, 0.0), (0.3, -0.7), (-2.0, 0.5)):
        d, w = alpha + beta, lam * alpha - kap * beta
        np.testing.assert_allclose(
            w * w - a * d * d,
            -c2 * lam * alpha**2 - 4.0 * a * alpha * beta + c2 * kap * beta**2,
            rtol=1e-12, atol=1e-12,
        )
    rho = 2.0 * cfg.newton_tol + 1e-12 + 8.0 * EPS * reach
    off = abs(saddle - exact) + 8.0 * EPS * (abs(saddle) + 4.0)
    # the exact set C that holds every state the test passes: m* <= alpha
    # <= a1 and Pe beta^2 <= alpha, with Pe = P / (1 + theta)
    assert 0.0 < top
    err = off + 32.0 * EPS * (1.0 + kap) * (1.0 + 2.0 * top)
    a1 = top * (1.0 + 4.0 * EPS) + err
    assert a1 <= 2.0 * top
    m_star = m * (1.0 - 4.0 * EPS) - err
    assert 0.0 < m_star < a1
    theta = 1.0 / 64.0
    pe = wide / (1.0 + theta)
    # mp covers the shift of Pe beta^2 and the rounding of phi (twice over)
    assert margin >= err + wide * err * err / theta + 8.0 * EPS * a1
    # one step: alpha' = G alpha + u, beta' = T beta + v, |v| <= nu U
    assert h * lam < 2.0
    grow = (1.0 + h * lam / 2.0) / (1.0 - h * lam / 2.0)
    shrink = (1.0 - h * kap / 2.0) / (1.0 + h * kap / 2.0)
    nu = (1.0 - h * lam / 2.0) / (1.0 + h * kap / 2.0)
    eta = 1.0 + h * c2 / 2.0
    sig = h * h * c1 / (4.0 * eta)
    assert sig < 1.0
    # U <= e1 alpha + u0 in C, from |N(d)| <= c1 d^2 / 2 and the bound on |d'|
    c = h * c1 / (4.0 * s_ * (1.0 - h * lam / 2.0))
    ca, cb = 1.0 + sig + h * lam, 1.0 + sig + h * kap
    u2 = c * (2.0 + 3.0 * ca**2 / (1.0 - sig) ** 2)
    u1 = c * (2.0 + 3.0 * cb**2 / (1.0 - sig) ** 2) / pe
    rho_d = rho * (1.0 + h / (2.0 * eta))
    u0 = 3.0 * c * rho_d**2 / (1.0 - sig) ** 2 + rho * (1.0 + kap) / (s_ * (1.0 - h * lam / 2.0))
    e1 = u2 * a1 + u1
    # the cone holds, and alpha grows by G - p_bar > 1 per step
    per = e1 + u0 / m_star
    c_p = pe * nu**2 / (1.0 - shrink**2)
    assert grow - 1.0 >= per + c_p * (e1 * e1 * a1 + 2.0 * e1 * u0 + u0 * u0 / m_star)
    # the exit: a1 < alpha' <= a_top and |beta'| <= gamma alpha'
    gamma = 1.0 / np.sqrt(pe * a1)
    a_top = (grow + per) * a1
    c_neg = (c2 * lam - 4.0 * a * gamma - c2 * kap * gamma**2
             - c1 * (1.0 + gamma) ** 3 * a_top / 3.0)
    assert c_neg > 0.0
    # the drop below the exact saddle's energy that puts E under the level
    magnitude = reach**2 + 2.0 * c1 + abs(torque) * (reach + abs(saddle))
    energy_u = -c1 * np.cos(saddle) - torque * saddle
    drop = (energy_u - level) + c1 * off**2 / 2.0 + 16.0 * EPS * magnitude
    drop += 2.0 * np.spacing(abs(energy_u))  # the subtraction that recovers delta
    assert c_neg * a1 * a1 / 2.0 >= drop
    assert (1.0 - gamma) * a1 > off
    assert (lam + kap * gamma) * a_top <= speed
    # every state of C has t - t* >= -1 / (4 Pe): it lies past low, at most the gate
    assert low <= saddle - off - 0.25 / pe and low <= gate
    return True


@pytest.fixture(scope="module")
def grid(nine_bus):
    return multimachine_system(nine_bus)


def certificate_inputs(sys_, value, step, norm):
    cfg = IntegratorConfig(step=step, divergence_norm=norm)
    p = np.array([value])
    sep = find_sep(sys_, p)
    w0, lipschitz = sys_.jacobian_lipschitz(p)
    jac, residual = sys_.jacobian(sep, p), sys_.field(sep, p)
    return jac, residual, np.asarray(w0, dtype=float), lipschitz, cfg


@settings(max_examples=30, deadline=None)
@given(torque=st.floats(0.2, 1.9), step=st.sampled_from([0.02, 0.08, 0.4, 0.8]))
def test_pendulum_recovery_set_meets_its_proof(pendulum, torque, step):
    jac, residual, w0, lipschitz, cfg = certificate_inputs(
        pendulum, torque, step, PENDULUM_DIVERGENCE_NORM
    )
    forms, levels = recovery_certificate(jac[None], residual[None], w0[None], [lipschitz], cfg)
    check_recovery_proof(jac, residual, w0, lipschitz, cfg, forms[0], levels[0])


@pytest.mark.parametrize("scale", [0.45, 0.47971420288085936, 0.8, 1.0, 1.3])
@pytest.mark.parametrize("step", [1.0 / 120.0, 1.0 / 60.0, 1.0 / 30.0])
def test_nine_bus_recovery_set_meets_its_proof(grid, scale, step):
    """The network's balancing factor is about 3.5, so a bound left
    unscaled would understate its variation there."""
    jac, residual, w0, lipschitz, cfg = certificate_inputs(
        grid, scale, step, MULTIMACHINE_DIVERGENCE_NORM
    )
    forms, levels = recovery_certificate(jac[None], residual[None], w0[None], [lipschitz], cfg)
    check_recovery_proof(jac, residual, w0, lipschitz, cfg, forms[0], levels[0])


def test_a_stack_of_recovery_sets_meets_its_proof(grid):
    """Each member of a stack meets the proof with its own terms."""
    inputs = [certificate_inputs(grid, v, 1.0 / 60.0, MULTIMACHINE_DIVERGENCE_NORM)
              for v in (0.5, 0.9, 1.2)]
    cfg = inputs[0][-1]
    forms, levels = recovery_certificate(
        np.array([i[0] for i in inputs]), np.array([i[1] for i in inputs]),
        np.array([i[2] for i in inputs]), [i[3] for i in inputs], cfg,
    )
    for (jac, residual, w0, lipschitz, _), form, level in zip(inputs, forms, levels):
        check_recovery_proof(jac, residual, w0, lipschitz, cfg, form, level)


@settings(max_examples=80, deadline=None)
@given(
    torque=st.floats(0.05, 1.95),
    turns=st.integers(-2, 2),
    sep_error=st.sampled_from([0.0, 1e-9, -1e-6, 1e-4]),
    step=st.sampled_from([0.02, 0.08, 0.2, 0.4]),
    newton_tol=st.sampled_from([1e-12, 1e-10, 1e-8]),
    max_time=st.sampled_from([20.0, 200.0, 800.0]),
)
# the rounding of a saddle t_u > |t_s| once fell short of its term
@example(torque=0.671875, turns=0, sep_error=1e-4, step=0.02, newton_tol=1e-12,
         max_time=20.0)
def test_pendulum_escape_row_meets_its_proof(
    torque, turns, sep_error, step, newton_tol, max_time
):
    """Also where the SEP is off the exact one, which the offset term of
    delta must cover."""
    cfg = IntegratorConfig(step=step, newton_tol=newton_tol, max_time=max_time,
                           divergence_norm=PENDULUM_DIVERGENCE_NORM)
    sep = pendulum_sep(PARAMS, torque) + [2.0 * np.pi * turns + sep_error, 0.0]
    row = escape_row(SYS, [torque], cfg, sep)
    assert np.isfinite(row[:4]).all()
    check_escape_proof(C1, C2, torque, sep, cfg, row)
    check_exit_cone_proof(C1, C2, torque, sep, cfg, row)


@pytest.mark.parametrize(
    "params, torque, step",
    [(PendulumParams(c1=4.0, c2=1.5), 0.1, 0.99), (PendulumParams(c1=0.5, c2=4.0), 0.2, 0.49),
     (PARAMS, 1.5686593295631313, 0.4)],
    ids=["jump", "speed", "trapezoid-error"],
)
def test_escape_row_at_the_edge_of_each_condition_meets_its_proof(params, torque, step):
    """Steps just inside each of the three conditions of the proof."""
    cfg = IntegratorConfig(step=step, divergence_norm=PENDULUM_DIVERGENCE_NORM)
    sep = pendulum_sep(params, torque)
    row = escape_row(pendulum_system(params), [torque], cfg, sep)
    assert np.isfinite(row[:4]).all()
    check_escape_proof(params.c1, params.c2, torque, sep, cfg, row)
    check_exit_cone_proof(params.c1, params.c2, torque, sep, cfg, row)


@settings(max_examples=80, deadline=None)
@given(
    torque=st.floats(0.05, 1.9),
    turns=st.integers(-2, 2),
    sep_error=st.sampled_from([0.0, 1e-9, -1e-9]),
    step=st.sampled_from([0.02, 0.08, 0.2, 0.4]),
    max_time=st.sampled_from([20.0, 200.0]),
)
def test_exit_cone_meets_its_proof(torque, turns, sep_error, step, max_time):
    """Where the cone exists: the benchmark's Newton tolerance and budgets
    up to its own, at the steps of the sweep inside the energy set's
    conditions, with SEPs off the exact one."""
    cfg = IntegratorConfig(step=step, max_time=max_time,
                           divergence_norm=PENDULUM_DIVERGENCE_NORM)
    sep = pendulum_sep(PARAMS, torque) + [2.0 * np.pi * turns + sep_error, 0.0]
    row = escape_row(SYS, [torque], cfg, sep)
    check_escape_proof(C1, C2, torque, sep, cfg, row)
    assert check_exit_cone_proof(C1, C2, torque, sep, cfg, row)


@pytest.mark.parametrize(
    "inside, outside",
    [({"torque": 1.9992546980815906}, {"torque": 1.9992546980815908}),
     ({"newton_tol": 1.219991868251833e-09}, {"newton_tol": 1.2199918682518333e-09}),
     ({"max_time": 158068.0}, {"max_time": 158069.0})],
    ids=["floor-torque", "floor-newton", "holds-budget"],
)
def test_exit_cone_at_the_edge_of_each_condition_meets_its_proof(inside, outside):
    """Just inside the conditions that bind at h = 0.02: the floor m* lies
    below the reach a1 (at the largest torque, and at the largest Newton
    tolerance), and a floor meets the cone's condition (at the largest
    budget); just outside, no cone, while the energy set stays."""
    def cone_row(torque=PEND_P_STAR, max_time=200.0, newton_tol=1e-12):
        cfg = IntegratorConfig(step=0.02, max_time=max_time, newton_tol=newton_tol,
                               divergence_norm=PENDULUM_DIVERGENCE_NORM)
        sep = pendulum_sep(PARAMS, torque)
        return torque, cfg, sep, escape_row(SYS, [torque], cfg, sep)

    torque, cfg, sep, row = cone_row(**inside)
    check_escape_proof(C1, C2, torque, sep, cfg, row)
    assert check_exit_cone_proof(C1, C2, torque, sep, cfg, row)
    torque, cfg, sep, row = cone_row(**outside)
    assert np.isfinite(row[:4]).all()
    assert not check_exit_cone_proof(C1, C2, torque, sep, cfg, row)

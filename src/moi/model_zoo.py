"""Benchmark systems: a damped driven pendulum and a classical swing network.

Both models come with a finite-time disturbance whose end state is the
system's initial condition x0(p): the pendulum loses its restoring torque
for a fixed interval, the network suffers a bolted short circuit at a
generator terminal.  The shared parameterizations make the recovery
boundary interesting — driving torque for the pendulum, machine inertia for
the network.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataFormatError, NewtonDivergence, ParamOutOfRange
# step_trapezoidal is no longer called here, but perfbench/bench_tracer.py
# patches moi.model_zoo.step_trapezoidal, so the name stays importable.
from .integrator import (  # noqa: F401
    _NEWTON_MARGIN,
    _RESIDUAL_ROUNDING,
    IntegratorConfig,
    _step_budget,
    step_trapezoidal,
    step_trapezoidal_batch,
)
from .recovery_boundary import find_equilibrium
from .system_core import ParameterizedSystem, _count_nonzero

#: divergence-norm settings that reliably separate escape from recovery for
#: the bundled models (the library-wide default of 1e6 is far too lax: the
#: pendulum's velocity saturates near 6 on recovering runs and the network
#: angles stay below ~20, so these catch escape orders of magnitude sooner).
PENDULUM_DIVERGENCE_NORM = 50.0
MULTIMACHINE_DIVERGENCE_NORM = 200.0


# ---------------------------------------------------------------------------
# pendulum


@dataclass(frozen=True)
class PendulumParams:
    """Damped driven pendulum constants and disturbance settings.

    The driving torque is the run-time parameter p.  ``ic_method`` selects
    how the post-disturbance state is produced: ``"closed"`` evaluates the
    exact solution of the linear disturbance dynamics, ``"integrated"``
    replays them with the fixed-step trapezoidal integrator at ``ic_step``
    (the two agree to ~1e-4; the integrated path is what a simulation-only
    workflow would see).
    """

    c1: float = 2.0
    c2: float = 0.5
    disturbance_duration: float = 0.8
    ic_method: str = "closed"
    ic_step: float = 0.02

    def __post_init__(self) -> None:
        _require_finite(self, ("c1", "c2", "disturbance_duration", "ic_step"))
        if min(self.c1, self.c2) <= 0.0:
            raise ValueError(f"c1, c2 must be positive, got ({self.c1}, {self.c2})")
        if self.disturbance_duration < 0.0:
            raise ValueError("disturbance_duration must be non-negative")
        if self.ic_method not in ("closed", "integrated"):
            raise ValueError(
                f"ic_method must be 'closed' or 'integrated', "
                f"got {self.ic_method!r}"
            )
        if self.ic_step <= 0.0:
            raise ValueError("ic_step must be positive")


def _require_finite(params, names) -> None:
    """Raise ValueError naming the first of the fields ``names`` of
    ``params`` that holds a non-finite number (a field set to None is
    absent, not checked)."""
    for name in names:
        value = getattr(params, name)
        if value is not None and not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")


def _sep_angle(c1: float, torque):
    ratio = torque / c1
    if not np.all((-1.0 < ratio) & (ratio < 1.0)):
        raise ParamOutOfRange(
            f"driving torque {torque} is at or beyond the maximum restoring "
            f"torque {c1}; no equilibrium exists"
        )
    return np.arcsin(ratio)


def pendulum_sep(params: PendulumParams, torque: float) -> np.ndarray:
    """Stable equilibrium (asin(torque/c1), 0) at the given torque."""
    return np.array([_sep_angle(params.c1, torque), 0.0])


def pendulum_uep(params: PendulumParams, torque: float) -> np.ndarray:
    """Saddle (pi - asin(torque/c1), 0) on the basin boundary."""
    return np.array([np.pi - _sep_angle(params.c1, torque), 0.0])


def pendulum_disturbance_ic(params: PendulumParams, p) -> np.ndarray:
    """State at the end of the disturbance started from the equilibrium.

    During the disturbance the restoring torque is absent and the angle
    accelerates under the drive alone: z1' = z2, z2' = -c2 z2 + torque,
    for ``disturbance_duration`` seconds from the pre-disturbance SEP.
    ``p`` may be one parameter vector or a (K, 1) stack, giving (2,) or
    (K, 2).
    """
    p = np.asarray(p, dtype=float)
    torque = p[..., 0]
    c2 = params.c2
    t = params.disturbance_duration
    start = np.stack([_sep_angle(params.c1, torque), np.zeros_like(torque)], axis=-1)
    if params.ic_method == "closed":
        e = np.exp(-c2 * t)
        return np.stack(
            [
                start[..., 0] + (torque / c2) * t - (torque / c2**2) * (1 - e),
                (torque / c2) * (1 - e),
            ],
            axis=-1,
        )
    x = _replay(
        _disturbance_system(c2), np.atleast_2d(start), np.atleast_2d(p), t,
        IntegratorConfig(step=params.ic_step),
    )
    return x.reshape(start.shape)


def _replay(
    sys: ParameterizedSystem, x, q, duration: float, cfg: IntegratorConfig
) -> np.ndarray:
    """The states (K, n) that ``sys`` reaches from ``x`` (K, n) at
    parameters ``q`` (K, m) after ``duration``, rounded to whole steps of
    ``cfg.step``."""
    f = None
    for _ in range(int(round(duration / cfg.step))):
        x, failed, f = step_trapezoidal_batch(sys, x, q, cfg, f)
        if failed.any():
            raise NewtonDivergence(f"{sys.name} replay failed for p = {q[failed]}")
    return x


def _disturbance_system(c2: float) -> ParameterizedSystem:
    """The pendulum without its restoring torque."""

    def field(x, q):
        xt, out = x.T, np.empty(x.shape)
        out.T[0] = xt[1]
        out.T[1] = -c2 * xt[1] + q.T[0]
        return out

    jac = np.array([[0.0, 1.0], [0.0, -c2]])
    return ParameterizedSystem(
        state_dim=2,
        param_dim=1,
        field=field,
        jacobian=lambda x, q: np.broadcast_to(jac, x.shape + (2,)),
        name="pendulum-disturbance",
    )


def pendulum_system(params: Optional[PendulumParams] = None) -> ParameterizedSystem:
    """Pendulum as a parameterized system over the scalar driving torque.

    Dynamics: x1' = x2, x2' = -c1 sin(x1) - c2 x2 + p.  The angle is left
    unwrapped — recovery means returning to the same equilibrium
    representative the disturbance started from, not to a shifted copy.
    Its Jacobian bound (``jacobian_lipschitz``) is w = 1, L = c1: only the
    entry -c1 cos(x1), the velocity row at the angle column, varies, and
    by at most c1 |x1 - y1|, as the structured bound requires.
    """
    if params is None:
        params = PendulumParams()
    c1, c2 = params.c1, params.c2
    constant_part = np.array([[0.0, 1.0], [0.0, -c2]])

    # Both callables index the transposed state, whose rows are numpy
    # scalars for a single state (cheap scalar arithmetic) and component
    # views for a batch; the field fills a C-ordered array, which the
    # integrator's array arithmetic runs through fastest.
    def field(x, p):
        xt, out = x.T, np.empty(x.shape)
        out.T[0] = xt[1]
        out.T[1] = -c1 * np.sin(xt[0]) - c2 * xt[1] + p.T[0]
        return out

    def jacobian(x, p):
        jac = np.empty(x.shape + (2,))
        jac[...] = constant_part
        jac[..., 1, 0] = -c1 * np.cos(x.T[0])
        return jac

    unit_weights = np.ones(2)

    return ParameterizedSystem(
        state_dim=2,
        param_dim=1,
        field=field,
        jacobian=jacobian,
        initial_condition=lambda p: pendulum_disturbance_ic(params, p),
        name="pendulum",
        state_names=("angle", "velocity"),
        jacobian_lipschitz=lambda p: (unit_weights, c1),
        escape=(
            lambda p, sep, cfg: _pendulum_escape(c1, c2, p, sep, cfg),
            functools.partial(_pendulum_crossing, c1),
        ),
    )


_EPS = np.finfo(float).eps
#: the exit cone's reach a1 over the least one whose exit clears the level
_CONE_REACH = 1.25
#: the cone's floor m* over the least one its proof allows
_CONE_ROOM = 1.25
#: theta: the test's parabola is 1 + theta times the proof's
_CONE_SLACK = 1.0 / 64.0


def _pendulum_escape(c1: float, c2: float, p, sep, cfg: IntegratorConfig) -> np.ndarray:
    """Escape rows (saddle, speed, level, gate, low, ka, kb, ia, P, top, mp,
    m) (K, 12) of pendulum runs at the torques in ``p`` (K, 1) around
    the SEPs in ``sep`` (K, 2).  A state is in the escape set when it is in
    the energy set of the first four columns or in the exit cone of the
    others (:func:`_pendulum_cone`); no state at or before ``low`` is in
    either.

    With E = w^2/2 + U(t), U(t) = -c1 cos t - p t, the saddle of the SEP
    representative t_s is t_u = t_s + pi - 2 asin(p/c1), a local maximum of
    U, and E_u = U(t_u).  Take h the step, R the divergence norm, N the
    step budget and rho = 2 newton_tol + 1e-12 + 8 eps R, which bounds the
    residual g = y - x - (h/2)(f(x) + f(y)) of every computed step x -> y
    of norm at most R (a state beyond R ends the run ``DIVERGED`` anyway).
    Then, with w_bar = (w + w')/2, t' - t = h w_bar + g1 and
    (1 + a) w' = (1 - a) w + h (p - c1 s_bar) + g2, a = h c2 / 2:

    - speed: |w| <= B = (c1 + |p| + rho/h) / c2 implies |w'| <= B while
      h c2 < 2, so every later state keeps |w| <= B;
    - energy: E' - E = -c2 h w_bar^2 - c1 (T - I) + g1 (c1 s_bar - p)
      + w_bar g2, with T - I the trapezoid error of the integral of sin
      over [t, t'], |T - I| <= |t' - t|^3 / 12.  So, with u = h |w_bar|,
      c = c2 / h and k = c1 (h B + rho) / 12, E' - E <= -c u^2 + k (u + rho)^2
      + rho (c1 + |p| + B), and while k < c (i.e. c1 h (h B + rho) < 12 c2)
      that is at most e = rho (c1 + |p| + B + rho c k / (c - k));
    - no jump: two states on either side of t_u, both with E below
      E_u - d, satisfy |w| < sqrt(c1) (distance to t_u), since U'' >= -c1,
      and lie at least sqrt(2 d / c1) from it.  A step between them would
      cover their distance D with D <= h sqrt(c1) D / 2 + rho, which fails
      while h sqrt(c1) < 2 and d >= c1 rho^2 / (2 - h sqrt(c1))^2.

    The level is E_u - delta with delta = m + c1 s^2 / 2 + 16 eps M, where
    m = N e + c1 rho^2 / (2 - h sqrt(c1))^2.  The s term covers the
    distance s of the computed t_u from the exact saddle t* (the SEP's own
    error included, and the rounding of t_u, 8 eps (max(|t_s|, |t_u|) + 4)),
    the M term the rounding of E and E_u at magnitude M = R^2 + 2 c1 +
    |p| (R + |t_u|).  So a state with t > t_u, |w| <= B and E < level has
    an exact energy below that of the exact saddle by more than N e plus
    the jump margin; its energy rises by at most e per step over the at
    most N steps left, and no step jumps back over the saddle: the run
    never returns to t <= t_u, nor to its SEP.

    The gate bounds how close to t_u such a state can lie.  Since
    U'(t*) = 0 and -c1 <= U'' <= c1, U(t) >= U(t*) - c1 (t - t*)^2 / 2
    and U(t*) >= U(t_u) - c1 s^2 / 2.  A state of the set has exact
    energy below U(t_u) - m - c1 s^2 / 2, and E >= U(t), so
    c1 (t - t*)^2 / 2 > m and |t - t_u| > sqrt(2 m / c1) - s.  The gate is
    t_u plus that width, rounded down: the square root is shrunk by
    16 eps of itself and the width by 4 eps (|t_u| + sqrt(2 m / c1)) more,
    which covers the rounding of m, of the root and of the sum t_u + width;
    where the width is not positive, the gate is t_u.  No state with
    t <= gate lies in the set.

    A run at a torque p <= 0 or with no SEP (p >= c1), a step outside the
    three conditions above, or a non-finite input gets all twelve columns
    inf: no state passes them.  A run outside the conditions of the cone
    alone gets low = gate and no cone.
    """
    torque, theta_s = p[:, 0], sep[:, 0]
    h, reach, budget = cfg.step, cfg.divergence_norm, _step_budget(cfg)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        half_gap = np.arcsin(torque / c1)
        saddle = theta_s + np.pi - 2.0 * half_gap
        energy_u = -c1 * np.cos(saddle) - torque * saddle
        rho = _NEWTON_MARGIN * cfg.newton_tol + _RESIDUAL_ROUNDING + 8.0 * _EPS * reach
        speed = (c1 + torque + rho / h) / c2
        c, k = c2 / h, c1 * (h * speed + rho) / 12.0
        rise = rho * (c1 + torque + speed + rho * c * k / (c - k))
        jump = 2.0 - h * np.sqrt(c1)
        off = np.abs(np.remainder(theta_s - half_gap + np.pi, 2.0 * np.pi) - np.pi)
        # the rounding of t_u itself, at the larger of |t_s| and |t_u|
        off += 8.0 * _EPS * (np.maximum(np.abs(theta_s), np.abs(saddle)) + 4.0)
        magnitude = reach**2 + 2.0 * c1 + torque * (reach + np.abs(saddle))
        margin = budget * rise + c1 * rho**2 / jump**2
        delta = margin + c1 * off**2 / 2.0 + 16.0 * _EPS * magnitude
        root = np.sqrt(2.0 * margin / c1)
        width = root * (1.0 - 16.0 * _EPS) - off - 4.0 * _EPS * (np.abs(saddle) + root)
        gate = saddle + np.maximum(width, 0.0)
        ok = (torque > 0.0) & (torque < c1) & (h * c2 < 2.0) & (k < c) & (jump > 0.0)
        ok &= np.isfinite(delta) & np.isfinite(energy_u)
        cone = _pendulum_cone(
            c1, c2, torque, h, rho, speed, saddle, off,
            delta + c1 * off**2 / 2.0 + 16.0 * _EPS * magnitude,
        )
    cone[:, 0] = np.minimum(cone[:, 0], gate)
    energy = np.stack([saddle, speed, energy_u - delta, gate], axis=-1)
    return np.where(ok[:, None], np.concatenate([energy, cone], axis=1), np.inf)


def _pendulum_cone(c1, c2, torque, h, rho, speed, saddle, off, drop) -> np.ndarray:
    """Exit-cone columns (low, ka, kb, ia, P, top, mp, m) (K, 8) of the
    escape rows of :func:`_pendulum_escape`, for runs whose energy sets
    hold below the level at least ``drop`` under the exact saddle's energy
    (delta + c1 s^2 / 2 + 16 eps M, which also covers the rounding of E).

    Eigen-coordinates.  With the exact saddle t* (|t_u - t*| <= s), a =
    sqrt(c1^2 - p^2) = -c1 cos t*, S = sqrt(c2^2 + 4 a), lambda = (S - c2)/2
    and kappa = (S + c2)/2, the Jacobian at (t*, 0) has the eigenvalues
    lambda and -kappa, eigenvectors (1, lambda) and (1, -kappa).  A state
    (t* + d, w) has alpha = (kappa d + w)/S along the unstable one and
    beta = (lambda d - w)/S along the stable one (d = alpha + beta,
    w = lambda alpha - kappa beta).  The test takes d = t - t_u,
    alpha = ka d + ia w, beta = kb d - ia w (ka = kappa/S, kb = lambda/S,
    ia = 1/S) and puts a state in the cone when alpha <= top and
    phi = min(alpha - P beta^2 - mp, alpha - m) >= 0: inside the parabola
    around the unstable eigenvector, past its floor m, short of its reach.

    - Rounding and offset.  The computed alpha and beta lie within
      eps_c = s + 32 eps (1 + kappa)(1 + 2 a1) of the exact ones: the offset
      moves d by at most s, which kappa/S, lambda/S < 1 do not enlarge,
      and each of the few roundings of the test is relative to |d| + |w|
      <= (1 + kappa)(|alpha| + |beta|) or to alpha and P beta^2 <= a1.  So
      a state that passes has exact m* <= alpha <= a1, with
      m* = m (1 - 4 eps) - eps_c and a1 = top (1 + 4 eps) + eps_c.  The
      test's parabola is (1 + theta) Pe: as 2 |b| eps_c <= theta b^2 +
      eps_c^2 / theta, the exact Pe beta^2 is at most its computed
      P beta^2 + P eps_c^2 / theta, and mp = 2 (eps_c + P eps_c^2 / theta
      + 8 eps a1) covers that and the rounding of phi: the exact
      Pe beta^2 <= alpha.  So the state lies in C = {m* <= alpha <= a1,
      Pe beta^2 <= alpha}.
    - One step.  The field is A z + (0, N(d)), A the Jacobian at the
      saddle, N(d) = p - c1 sin(t* + d) - a d, |N(d)| <= c1 d^2 / 2.  A
      computed step z -> z2 meets (I - hA/2) z2 = (I + hA/2) z +
      (h/2)(0, N(d) + N(d2)) + g, |g| <= rho, that is alpha2 = G alpha + u
      and beta2 = T beta + v with G = (1 + h lambda/2)/(1 - h lambda/2)
      (h lambda < 2), T = (1 - h kappa/2)/(1 + h kappa/2), |u| <= U and
      |v| <= nu U, nu = (1 - h lambda/2)/(1 + h kappa/2), where
      U = (h c1 (d^2 + d2^2) / 4 + rho (1 + kappa)) / (S (1 - h lambda/2)).
      From t2 - t = h w_bar + g1, the speed equation and
      |p - c1 sin t| <= c1 |t - t*|, |d2| <= ((1 + sig) |d| + h |w|
      + rho (1 + h / (2 eta))) / (1 - sig), eta = 1 + h c2 / 2,
      sig = h^2 c1 / (4 eta) < 1.  In C, beta^2 <= alpha / Pe and
      alpha^2 <= a1 alpha, so U <= e1 alpha + u0, with e1 = u2 a1 + u1
      and u2 = c (2 + 3 ca^2 / (1 - sig)^2), u1 = c (2 + 3 cb^2 /
      (1 - sig)^2) / Pe, u0 = 3 c rho_d^2 / (1 - sig)^2 + rho (1 + kappa) /
      (S (1 - h lambda/2)), c = h c1 / (4 S (1 - h lambda/2)),
      ca = 1 + sig + h lambda, cb = 1 + sig + h kappa,
      rho_d = rho (1 + h / (2 eta)).
    - The cone holds.  With 2 |T beta| |v| <= (1 - T^2) beta^2 +
      T^2 v^2 / (1 - T^2), Pe beta2^2 <= Pe beta^2 + cP U^2, cP =
      Pe nu^2 / (1 - T^2); with Pe beta^2 <= alpha, alpha2 - Pe beta2^2 >=
      (G - 1) alpha - U - cP U^2.  As U / alpha <= p_bar = e1 + u0 / m*
      and U^2 / alpha <= e1^2 a1 + 2 e1 u0 + u0^2 / m* for alpha >= m*, it
      is not negative while G - 1 >= p_bar + cP (e1^2 a1 + 2 e1 u0
      + u0^2 / m*), and then alpha2 >= (G - p_bar) alpha with G - p_bar
      > 1.  So the run stays in C, alpha growing by G - p_bar per step,
      until it leaves alpha <= a1 with Pe beta2^2 <= alpha2; it leaves
      within log(a1 / m*) / log(G - p_bar) steps.
    - The exit.  The state z2 that left has a1 < alpha2 <= a_top =
      (G + p_bar) a1 and |beta2| <= sqrt(alpha2 / Pe) <= gamma alpha2,
      gamma = 1 / sqrt(Pe a1).
      With U''(t*) = -a and |U'''| <= c1, 2 (E - E(t*)) <= w^2 - a d^2
      + c1 |d|^3 / 3 = -c2 lambda alpha^2 - 4 a alpha beta
      + c2 kappa beta^2 + c1 |d|^3 / 3, so E(z2) - E(t*) <=
      -c_neg alpha2^2 / 2 with c_neg = c2 lambda - 4 a gamma
      - c2 kappa gamma^2 - c1 (1 + gamma)^3 a_top / 3.  While c_neg > 0
      and c_neg a1^2 / 2 >= drop, E(z2) lies below the level; and
      t2 - t_u >= (1 - gamma) a1 - s > 0 and |w2| <= (lambda + kappa
      gamma) a_top <= B, so z2 meets the premises of the energy set's
      proof, which covers the rest of the budget.  The run never returns
      to its SEP.

    The columns are sized so that every condition holds with room: gamma
    solves 4 a gamma + c2 kappa gamma^2 = c2 lambda / 2; a1 is
    _CONE_REACH times the least reach with (c2 lambda / 2) a1^2 / 2 >=
    drop, Pe = 1 / (a1 gamma^2) and P = (1 + theta) Pe, theta =
    _CONE_SLACK; m* is _CONE_ROOM times the least floor that meets the
    cone's condition, top = (a1 - eps_c) (1 - 4 eps) and m = (m* + eps_c) /
    (1 - 4 eps).  The conditions are then checked with
    these a1 and m*; h lambda < 2 and sig < 1 follow from the energy set's
    h sqrt(c1) < 2, as lambda < sqrt(a) <= sqrt(c1).  A run that fails a
    condition gets no cone: low = inf (its escape row takes the gate),
    top = -inf, mp = m = inf and the other columns 0.  Otherwise low =
    t_u - 1.001 (1 / (4 Pe) + eps_c) - 4 eps |t_u| (the row takes it if
    below the gate): every state of C has d = alpha + beta >= alpha -
    sqrt(alpha / Pe) >= -1 / (4 Pe), so t >= t_u - s - 1 / (4 Pe).
    """
    a = np.sqrt((c1 - torque) * (c1 + torque))
    s_ = np.sqrt(c2 * c2 + 4.0 * a)
    lam, kap = 2.0 * a / (s_ + c2), 0.5 * (s_ + c2)
    fall = 1.0 - 0.5 * h * lam
    grow = (1.0 + 0.5 * h * lam) / fall
    shrink = (1.0 - 0.5 * h * kap) / (1.0 + 0.5 * h * kap)
    eta = 1.0 + 0.5 * h * c2
    sig = h * h * c1 / (4.0 * eta)
    gamma = c2 * lam / (4.0 * a + np.sqrt(16.0 * a * a + 2.0 * c2 * c2 * kap * lam))
    reach = _CONE_REACH * np.sqrt(4.0 * drop / (c2 * lam))
    wide = 1.0 / (reach * gamma * gamma)
    err = off + 32.0 * _EPS * (1.0 + kap) * (1.0 + 2.0 * reach)
    scale = h * c1 / (4.0 * s_ * fall)
    u2 = scale * (2.0 + 3.0 * (1.0 + sig + h * lam) ** 2 / (1.0 - sig) ** 2)
    u1 = scale * (2.0 + 3.0 * (1.0 + sig + h * kap) ** 2 / (1.0 - sig) ** 2) / wide
    u0 = (3.0 * scale * (rho * (1.0 + h / (2.0 * eta))) ** 2 / (1.0 - sig) ** 2
          + rho * (1.0 + kap) / (s_ * fall))
    e1 = u2 * reach + u1
    c_p = wide * (fall / (1.0 + 0.5 * h * kap)) ** 2 / (1.0 - shrink**2)
    # the least floor m* with G - 1 >= p_bar + cP (e1^2 a1 + 2 e1 u0 + u0^2 / m*)
    room = grow - 1.0 - e1 - c_p * e1 * (e1 * reach + 2.0 * u0)
    floor = _CONE_ROOM * u0 * (1.0 + c_p * u0) / room
    per = e1 + u0 / floor
    a_top = (grow + per) * reach
    c_neg = (c2 * lam - 4.0 * a * gamma - c2 * kap * gamma**2
             - c1 * (1.0 + gamma) ** 3 * a_top / 3.0)
    ok = (room > 0.0) & (floor < reach)
    ok &= grow - 1.0 >= per + c_p * (e1 * e1 * reach + 2.0 * e1 * u0 + u0 * u0 / floor)
    ok &= (c_neg > 0.0) & (c_neg * reach * reach / 2.0 >= drop)
    ok &= ((1.0 - gamma) * reach > off) & ((lam + kap * gamma) * a_top <= speed)
    margin = 2.0 * (err + (1.0 + _CONE_SLACK) * wide * err * err / _CONE_SLACK
                    + 8.0 * _EPS * reach)
    low = saddle - 1.001 * (0.25 / wide + err) - 4.0 * _EPS * np.abs(saddle)
    columns = np.stack([
        low, kap / s_, lam / s_, 1.0 / s_, (1.0 + _CONE_SLACK) * wide,
        (reach - err) * (1.0 - 4.0 * _EPS),
        margin, (floor + err) / (1.0 - 4.0 * _EPS),
    ], axis=-1)
    off_cone = np.array([np.inf, 0.0, 0.0, 0.0, 0.0, -np.inf, np.inf, np.inf])
    return np.where(ok[:, None], columns, off_cone)


def _pendulum_energy(c1: float, x, p):
    """E = w^2/2 - c1 cos t - p t at states ``x`` (K, 2), torques ``p`` (K, 1)."""
    return 0.5 * x.T[1] * x.T[1] - c1 * np.cos(x.T[0]) - p.T[0] * x.T[0]


def _cone_excess(x, rows):
    """phi = min(alpha - P beta^2 - mp, alpha - m) of :func:`_pendulum_cone`
    at the states ``x`` (K, 2) for the escape ``rows`` (K, 12)."""
    d = x[:, 0] - rows[:, 0]
    alpha = rows[:, 5] * d + rows[:, 7] * x[:, 1]
    beta = rows[:, 6] * d - rows[:, 7] * x[:, 1]
    return np.minimum(alpha - rows[:, 8] * (beta * beta) - rows[:, 10], alpha - rows[:, 11])


def _pendulum_crossing(c1: float, x_prev, x, p, rows):
    """The ``crossing`` of ``ParameterizedSystem.escape`` for K pendulum
    runs with the escape ``rows`` of :func:`_pendulum_escape`, in the step
    from ``x_prev`` to ``x`` (both (K, 2)).

    A state is in its set when it is in the energy set (t > saddle,
    |w| <= speed and E < level) or in the exit cone (0 < alpha <= top and
    phi = min(alpha - P beta^2 - mp, alpha - m) >= 0).  No state at or
    before its low end is in either, so nothing is evaluated for a step
    with every state there.  alpha is evaluated at the states past their
    low end, phi at those with 0 < alpha <= top (a recovering run that
    lingers by its saddle mostly has alpha < 0), and phi once more at the
    previous state of a run that entered the cone: if it was negative,
    f = phi_- / (phi_- - phi_n) places the entry by linear interpolation.
    No state at or before its gate is in the energy set (the gate's proof),
    so E is evaluated only at the states past their gate, and at the
    previous state of a run that entered the energy set from a state past
    its saddle: if that energy E_- lay above the level,
    f = (E_- - level) / (E_- - E_n).  Otherwise f = 1, and a run that
    entered both sets takes the earlier entry.
    """
    near = x[:, 0] > rows[:, 4]
    if not _count_nonzero(near):
        return None
    at = np.flatnonzero(near)
    y, r = x[at], rows[at]
    alpha = r[:, 5] * (y[:, 0] - r[:, 0]) + r[:, 7] * y[:, 1]
    fraction = None
    reached = (alpha > 0.0) & (alpha <= r[:, 9])
    if _count_nonzero(reached):
        cone = at[reached]
        phi = _cone_excess(x[cone], rows[cone])
        inside = phi >= 0.0
        if _count_nonzero(inside):
            cone, phi = cone[inside], phi[inside]
            before = _cone_excess(x_prev[cone], rows[cone])
            f = np.ones(len(cone))
            np.divide(before, before - phi, out=f, where=before < 0.0)
            fraction = np.full(len(x), np.nan)
            fraction[cone] = f
    past = y[:, 0] > r[:, 3]
    if _count_nonzero(past):
        past = at[past]
        y, r = x[past], rows[past]
        energy = _pendulum_energy(c1, y, p[past])
        inside = (np.abs(y[:, 1]) <= r[:, 1]) & (energy < r[:, 2])
        if _count_nonzero(inside):
            entered = past[inside]
            energy, (saddle, _, level) = energy[inside], r[inside, :3].T
            timed = x_prev[entered, 0] > saddle
            previous = np.full(len(entered), np.nan)
            previous[timed] = _pendulum_energy(c1, x_prev[entered[timed]], p[entered[timed]])
            f = np.ones(len(entered))
            np.divide(previous - level, previous - energy, out=f, where=previous > level)
            if fraction is None:
                fraction = np.full(len(x), np.nan)
            fraction[entered] = np.fmin(fraction[entered], f)
    return fraction


# ---------------------------------------------------------------------------
# multi-machine swing network


@dataclass(frozen=True)
class MultiMachineParams:
    """Classical swing network reduced to machine internal nodes.

    Node 0 is a phase-anchoring source at angle 0 with EMF ``slack_emf``
    (set 0 to disable); nodes 1..n are the machines.  ``conductance`` and
    ``susceptance`` are the (n+1)x(n+1) reduced admittance matrices;
    ``fault_*`` are their fault-on counterparts (None when the dataset has
    no fault block).  ``inertia`` holds the per-machine coefficients on
    domega/dt with omega in rad/s; the run-time parameter p is a scalar
    multiplier on all of them.
    """

    inertia: np.ndarray
    damping: np.ndarray
    mech_power: np.ndarray
    emf: np.ndarray
    slack_emf: float
    conductance: np.ndarray
    susceptance: np.ndarray
    fault_conductance: Optional[np.ndarray] = None
    fault_susceptance: Optional[np.ndarray] = None
    fault_duration: float = 0.2
    fault_step: float = 1.0 / 60.0

    def __post_init__(self) -> None:
        n = np.size(self.inertia)
        vector, matrix = (n,), (n + 1, n + 1)
        for name, shape in zip(
            ("inertia", "damping", "mech_power", "emf",
             "conductance", "susceptance", "fault_conductance", "fault_susceptance"),
            (vector,) * 4 + (matrix,) * 4,
        ):
            value = getattr(self, name)
            if value is None and name.startswith("fault_"):
                continue
            value = np.asarray(value, dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape} for {n} machines, "
                                 f"got {value.shape}")
            object.__setattr__(self, name, value)
        if (self.fault_conductance is None) != (self.fault_susceptance is None):
            raise ValueError(
                "fault_conductance and fault_susceptance must be supplied "
                "together"
            )
        _require_finite(self, ("inertia", "damping", "mech_power", "emf", "slack_emf",
                               "conductance", "susceptance", "fault_conductance",
                               "fault_susceptance", "fault_duration", "fault_step"))
        if not np.all(self.inertia > 0.0):
            raise ValueError(f"inertia must be positive, got {self.inertia}")
        if self.fault_duration < 0.0:
            raise ValueError("fault_duration must be non-negative")
        if self.fault_step <= 0.0:
            raise ValueError("fault_step must be positive")

    @property
    def n_machines(self) -> int:
        return self.inertia.shape[0]


def bundled_network_path() -> Path:
    """Path of the packaged 9-bus classical swing dataset."""
    return Path(str(resources.files(__package__) / "data" / "ieee9_classical.dat"))


#: directive -> (fields, their kinds, lowest node index).  Kinds: "n" a count
#: (>= 1), "i" a node index, "x" a finite number, "+" a positive one.
_DIRECTIVES = {
    "GEN": ("<count>", "n", None),
    "G": ("<i> <inertia> <damping> <mech_power> <emf>", "i+xxx", 1),
    "SLACK": ("<emf>", "x", None),
    "Y": ("<i> <j> <conductance> <susceptance>", "iixx", 0),
    "YFAULT": ("<i> <j> <conductance> <susceptance>", "iixx", 0),
}


def load_network(path) -> MultiMachineParams:
    """Parse a plain-text network description (UTF-8).

    Directives (whitespace-delimited, any letter case, ``#`` comments,
    blank lines ignored):

    - ``GEN <count>`` — number of machines, before any node is named;
    - ``G <i> <inertia> <damping> <mech_power> <emf>`` — one per machine,
      i in 1..count, with a positive inertia;
    - ``SLACK <emf>`` — optional anchor-node EMF (node 0; absent = no
      anchor, its row/column stay zero);
    - ``Y <i> <j> <conductance> <susceptance>`` — entries of the symmetric
      reduced admittance matrix over nodes 0..count, either triangle;
    - ``YFAULT <i> <j> <conductance> <susceptance>`` — same for the
      fault-on matrix (optional block).

    Every number must be finite; GEN and SLACK may appear once, the other
    directives once per node set.  A bad file raises ``DataFormatError``
    naming the file and line.
    """
    path = Path(path)

    def fail(lineno: int, msg: str) -> DataFormatError:
        return DataFormatError(f"{path}:{lineno}: {msg}")

    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read network file: {exc}") from exc
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise fail(lineno, f"not UTF-8 ({exc.reason})") from exc

    count: Optional[int] = None
    # directive -> node set -> the line's other fields
    entries: dict = {key: {} for key in _DIRECTIVES}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        key = tok[0].upper()
        if key not in _DIRECTIVES:
            raise fail(lineno, f"unknown directive {tok[0]!r}")
        fields, kinds, lowest = _DIRECTIVES[key]
        if len(tok) != len(kinds) + 1:
            raise fail(lineno, f"expected `{key} {fields}`")
        if lowest is not None and count is None:
            raise fail(lineno, f"{key} line before GEN header")
        try:
            values = [float(t) if k in "x+" else int(t) for k, t in zip(kinds, tok[1:])]
        except ValueError:
            raise fail(lineno, f"non-numeric field in {' '.join(tok)!r}") from None
        for name, kind, value in zip(fields.split(), kinds, values):
            if kind in "x+" and not math.isfinite(value):
                raise fail(lineno, f"{name} must be finite, got {value}")
            if kind == "i" and not lowest <= value <= count:
                raise fail(lineno, f"node index {value} outside {lowest}..{count}")
            if kind == "n" and value < 1 or kind == "+" and value <= 0.0:
                bound = ">= 1" if kind == "n" else "positive"
                raise fail(lineno, f"{name} must be {bound}, got {value}")
        nodes = kinds.count("i")
        node_set = tuple(sorted(values[:nodes]))
        if node_set in entries[key]:
            raise fail(lineno, f"duplicate {' '.join([key, *tok[1:nodes + 1]])} line")
        entries[key][node_set] = values[nodes:]
        if key == "GEN":
            count = values[0]

    if count is None:
        raise DataFormatError(f"{path}: missing GEN header")
    gens = entries["G"]
    if len(gens) < count:
        # indices lie in 1..count, so the first 3 gaps lie in 1..len(gens) + 3
        gaps = [i for i in range(1, min(count, len(gens) + 3) + 1) if (i,) not in gens]
        raise DataFormatError(f"{path}: missing G lines for {count - len(gens)} "
                              f"of {count} machines, first {gaps[:3]}")

    def build(block: dict) -> np.ndarray:  # symmetric conductance, susceptance
        matrices = np.zeros((2, count + 1, count + 1))
        for (i, j), (g, b) in block.items():
            matrices[0, i, j] = matrices[0, j, i] = g
            matrices[1, i, j] = matrices[1, j, i] = b
        return matrices

    fault = build(entries["YFAULT"]) if entries["YFAULT"] else (None, None)
    # the dataclass's fields in order: a row per G field, SLACK, the matrices
    rows = np.array(list(zip(*(gens[(i,)] for i in range(1, count + 1)))))
    slack = entries["SLACK"].get((), [0.0])[0]
    return MultiMachineParams(*rows, slack, *build(entries["Y"]), *fault)


def _swing_system(
    params: MultiMachineParams,
    conductance: np.ndarray,
    susceptance: np.ndarray,
    name: str,
) -> ParameterizedSystem:
    """Swing dynamics over given admittance matrices, without an IC hook.

    Field and Jacobian are batched, and vectorised over machines.  Every
    sum reduces one row of a freshly built array, or runs over the nodes in
    index order, so a batch member and a single state round alike.
    """
    n = params.n_machines
    emf_nodes = np.concatenate([[params.slack_emf], params.emf])
    emf_machines = emf_nodes[1:]
    damping = params.damping
    mech = params.mech_power
    base_inertia = params.inertia
    # rows: machines 1..n; columns: nodes 0..n (node 0 is the anchor)
    g_rows, b_rows = conductance[1:], susceptance[1:]
    minus_g_rows = -g_rows
    emf_pairs = emf_machines[:, None] * emf_nodes
    lipschitz = _swing_lipschitz(params, conductance, susceptance)

    def inertias(p: np.ndarray) -> np.ndarray:
        m = p[..., :1] * base_inertia
        if not np.logical_and.reduce(m > 0.0, axis=None):
            raise ParamOutOfRange(
                f"inertia scale {p[..., 0]} makes some inertia non-positive"
            )
        return m

    def angle_gaps(x):
        """theta_i - theta_j for machines i (rows) and nodes j (columns)."""
        th = x[..., :n]
        nodes = np.zeros(th.shape[:-1] + (n + 1,))
        nodes[..., 1:] = th
        return th[..., :, None] - nodes[..., None, :]

    # the last state's terms: every Jacobian of a Newton iterate follows a
    # field at the same state
    memo = [None]

    def terms(x, p):
        """cos and sin of the angle gaps at ``x`` and the inertias at ``p``,
        read-only; the key holds the shapes, dtypes and bytes of both, so a
        state updated in place, or one state against a stack of one, is a
        miss."""
        key = (x.shape, p.shape, x.dtype, p.dtype, x.tobytes(), p.tobytes())
        last = memo[0]
        if last is not None and last[0] == key:
            return last[1]
        d = angle_gaps(x)
        out = (np.cos(d), np.sin(d), inertias(p))
        for a in out:
            a.flags.writeable = False
        memo[0] = (key, out)
        return out

    def field(x, p):
        cos_d, sin_d, m = terms(x, p)
        flows = emf_nodes * (g_rows * cos_d + b_rows * sin_d)
        pe = emf_machines * np.add.reduce(flows, axis=-1)
        w = x[..., n:]
        return np.concatenate([w, (mech - pe - damping * w) / m], axis=-1)

    def jacobian(x, p):
        cos_d, sin_d, m = terms(x, p)
        # t[i, j] = d(pe_i)/d(theta_i) contribution of node j
        t = emf_pairs * (minus_g_rows * sin_d + b_rows * cos_d)
        # each machine's own column is left out of its coupling sum: entry
        # (i, i + 1) of the flattened n by n + 1 rows, a stride of n + 2
        t.reshape(t.shape[:-2] + (n * (n + 1),), copy=False)[..., 1::n + 2] = 0.0
        # the coupling sum, node by node in index order
        diag = np.add.accumulate(t, axis=-1)[..., -1]
        # -d(pe)/d(theta) divided by the inertias: off-diagonal t, diagonal
        # minus the coupling sum
        jac = np.zeros(x.shape[:-1] + (2 * n, 2 * n))
        np.divide(t[..., 1:], m[..., :, None], out=jac[..., n:, :n])
        # the diagonals of the blocks (0, 1), (1, 0) and (1, 1): n entries
        # each, a stride of 2n + 1 apart in the flattened matrix, from
        # entries (0, n), (n, 0) and (n, n)
        flat = jac.reshape(x.shape[:-1] + (4 * n * n,), copy=False)
        stride = 2 * n + 1
        flat[..., n:2 * n * n:stride] = 1.0
        flat[..., 2 * n * n::stride] = -diag / m
        flat[..., 2 * n * n + n::stride] = -(damping / m)
        return jac

    return ParameterizedSystem(
        state_dim=2 * n,
        param_dim=1,
        field=field,
        jacobian=jacobian,
        name=name,
        state_names=tuple(f"theta_{i}" for i in range(1, n + 1))
        + tuple(f"omega_{i}" for i in range(1, n + 1)),
        wrap_indices=tuple(range(n)),
        jacobian_lipschitz=lambda p: (
            np.concatenate([np.ones(n), inertias(p)]),
            lipschitz,
        ),
    )


def _swing_lipschitz(
    params: MultiMachineParams, conductance: np.ndarray, susceptance: np.ndarray
) -> float:
    """Bound L on the swing Jacobian's variation in the weights (1, M).

    With z = (theta, M omega) the weighted Jacobian is
    [[0, M^-1], [-K(theta), -D M^-1]], K = d(pe)/d(theta), so only K, the
    speed rows at the angle columns, varies, and with the angles alone:
    the structured bound of ``jacobian_lipschitz``, with |d theta| the
    norm of the weighted angle offset.  Its entry for machines i != j
    changes by at most
    E_i E_j |Y_ij| |d(theta_i - theta_j)| <= sqrt(2) E_i E_j |Y_ij| |d theta|,
    and its diagonal by the sum of those over the machines plus
    E_i E_0 |Y_i0| |d theta| for the anchor node; L bounds the Frobenius
    norm of K(theta) - K(theta') by these entry bounds.
    """
    n = params.n_machines
    emf_nodes = np.concatenate([[params.slack_emf], params.emf])
    # rows: machines 1..n; columns: nodes 0..n
    coupling = (params.emf[:, None] * emf_nodes) * np.hypot(
        conductance[1:], susceptance[1:]
    )
    coupling[np.arange(n), np.arange(n) + 1] = 0.0
    pairs = np.sqrt(2.0) * coupling[:, 1:]
    diagonal = pairs.sum(axis=1) + coupling[:, 0]
    return float(np.sqrt((pairs**2).sum() + (diagonal**2).sum()))


def multimachine_system(params: MultiMachineParams) -> ParameterizedSystem:
    """Swing network as a parameterized system over a scale on its inertias.

    Dynamics per machine i (angles rad, speeds rad/s, node 0 anchored at
    angle 0):

        theta_i' = omega_i
        M_i omega_i' = Pm_i - sum_j E_i E_j (G_ij cos(theta_i - theta_j)
                       + B_ij sin(theta_i - theta_j)) - D_i omega_i

    with M_i = p ``inertia[i]``.  The initial condition x0(p) is the state
    at fault clearing: the pre-fault equilibrium, solved from a flat start,
    is replayed on the fault-on admittance matrices for
    ``params.fault_duration`` (rounded to whole steps of
    ``params.fault_step``).  The inertia scale applies during the fault as
    well — it is a machine property, not a network one.  ``p`` may be one parameter vector or a (K, 1) stack; the K fault
    replays then run as one batch.  Without a fault-on block, asking for
    x0 raises ``DataFormatError``.  Angle states are flagged for wrap-aware
    distance: a machine one revolution ahead is electrically back at the
    equilibrium.
    """
    base = _swing_system(
        params, params.conductance, params.susceptance, "multimachine"
    )
    if params.fault_conductance is None:

        def initial_condition(p):
            raise DataFormatError(
                "network data has no fault-on admittance block (YFAULT)"
            )

    else:
        fault = _swing_system(
            params,
            params.fault_conductance,
            params.fault_susceptance,
            "multimachine-fault",
        )
        cfg = IntegratorConfig(step=params.fault_step)

        def initial_condition(p) -> np.ndarray:
            p = np.asarray(p, dtype=float)
            q = np.atleast_2d(p)
            # One solve per member on the pre-fault network: the field
            # divides by the inertia, so the equilibria of different
            # members differ in the last bits.
            x = np.array([find_equilibrium(base, member) for member in q])
            x = _replay(fault, x, q, params.fault_duration, cfg)
            return x.reshape(p.shape[:-1] + (fault.state_dim,))

    return replace(base, initial_condition=initial_condition)

"""Implicit trapezoidal integration and trajectory classification.

The stepper is A-stable, which matters here: trajectories of interest pass
near saddle points and through strongly contracting regions where explicit
schemes at practical step sizes either blow up or demand tiny steps. Each
step solves the trapezoidal fixed-point equation with a Newton iteration
seeded at the forward-Euler predictor.

:class:`Lockstep` is the one place where runs advance and end: it runs
many trajectories of one system, started and dropped between steps, and
keeps only how each one ended.  :func:`simulate` records the states of a
Lockstep's lone member.  On a batched system with an analytic Jacobian
several members advance together, one batched step for all; a lone member,
or a member of any other system, takes the single-state step.  Both
steppers go through the same floating-point operations, so a run ends
bitwise alike however it is batched.

A recovering trajectory ends as soon as it is known to recover.  For a
system that bounds the variation of its Jacobian
(``ParameterizedSystem.jacobian_lipschitz``), :func:`recovery_certificate`
turns a quadratic Lyapunov function at the stable equilibrium into a level
set that the iterated trapezoidal map never leaves, that it contracts to the
equilibrium, and on which every Jacobian is stable; entering it ends the
trajectory.  Other systems wait until the state has stayed near the
equilibrium for a while.  Likewise a failing trajectory ends as soon as it
is known to fail: past the norm ``divergence_norm`` or, for a system with
an energy function (``ParameterizedSystem.escape_energy``), in a set from
which the energy proves it never returns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NewtonDivergence, NonFiniteOutput
from .spectral import DEFAULT_STABILITY_TOL, is_unstable
from .system_core import (
    ParameterizedSystem,
    Termination,
    Trajectory,
    _all_finite,
    _check_vector,
    eval_jacobian,
    initial_state,
)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    ``step`` is the only field without a default; everything else carries a
    conservative default suitable for the bundled models.  A recovering
    trajectory ends once it enters its certified level set (see
    :func:`recovery_certificate`, which allows for ``newton_tol`` and
    ``step``), or, for a system without a certificate or a trajectory that
    reaches the equilibrium without entering the set, after ``SEP_DWELL``
    consecutive states within ``SEP_TOL`` of it.  ``stability_tol`` is the
    margin by which a Jacobian counts as unstable (spectral abscissa above
    it): it flags the states of the averaging window and sizes the
    certified set.
    """

    step: float
    newton_tol: float = 1e-12
    max_time: float = 200.0
    divergence_norm: float = 1e6
    stability_tol: float = DEFAULT_STABILITY_TOL

    def __post_init__(self) -> None:
        if not 0.0 < self.step < np.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if not 0.0 < self.newton_tol < np.inf:
            raise ValueError(
                f"newton_tol must be positive and finite, got {self.newton_tol}"
            )
        # the step budget max_time / step must be a finite count
        if not 0.0 < self.max_time / self.step < np.inf:
            raise ValueError(
                f"max_time must be positive and max_time / step finite, "
                f"got {self.max_time} / {self.step}"
            )
        if not self.divergence_norm > 0.0:
            raise ValueError(
                f"divergence_norm must be positive, got {self.divergence_norm}"
            )
        if not 0.0 <= self.stability_tol < np.inf:
            raise ValueError(
                f"stability_tol must be >= 0 and finite, got {self.stability_tol}"
            )


def _norm(v: np.ndarray):
    """Euclidean norm over the last axis, squares summed in index order.

    Single states and batches share this one reduction, so a batch member's
    norm rounds exactly as the single-state norm does (a BLAS dot product
    may fuse or reorder the additions).
    """
    squares = (v * v).T
    total = squares[0]
    for k in range(1, len(squares)):
        total = total + squares[k]
    return np.sqrt(total)


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The n-by-n identity, made once and shared read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _quadratic(form: np.ndarray, d: np.ndarray):
    """d^T form d over the last axis of ``d``.

    Both sums reduce the last axis of a fresh C-ordered array, so a batch
    member and a single state round alike.
    """
    return np.add.reduce(np.add.reduce(form * d[..., None, :], axis=-1) * d, axis=-1)


#: the Newton residual allowed for in a certificate, in units of
#: ``newton_tol``, plus an absolute floor for the rounding of the residual
#: itself
_NEWTON_MARGIN, _RESIDUAL_ROUNDING = 2.0, 1e-12
#: Newton updates a trapezoidal step may take before it fails
NEWTON_MAX_ITER = 50
#: the fallback recovery rule: a run ends after ``SEP_DWELL`` consecutive
#: states within ``SEP_TOL`` of its stable equilibrium
SEP_TOL, SEP_DWELL = 1e-6, 10


def recovery_certificate(
    jac,
    residual,
    weights,
    lipschitz,
    cfg: IntegratorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Level sets {d : d^T P d <= c} of offsets d from stable equilibria x*
    that the iterated trapezoidal map never leaves, as (P, c).

    ``jac`` is the field Jacobian A at x* and ``residual`` the field f(x*)
    (x* is a Newton solution, not an exact zero); ``weights`` w_0 and
    ``lipschitz`` L_0 come from ``ParameterizedSystem.jacobian_lipschitz``.
    All four may carry a leading axis of K equilibria, certified one by
    one with the same floating-point operations.

    The weights are balanced per equilibrium.  With W_0 = diag(w_0),
    A_0 = W_0 A W_0^-1 and m = n // 2, take
    s^2 = ||A_0[:m, m:]|| / (2 ||A_0[m:, :m]||) (s = 1 where that is not a
    positive finite number), w = (w_0[:m], s w_0[m:]) and L = s L_0.  By
    the contract of ``jacobian_lipschitz``, W_0 (J(x) - J(y)) W_0^-1 is a
    block B in rows m:, columns :m with ||B|| <= L_0 ||(W_0 (x - y))[:m]||.
    For W = S W_0, S = diag(I, s I), the change W (J(x) - J(y)) W^-1 is
    S B S^-1 = s B, so ||W (J(x) - J(y)) W^-1|| <= s L_0 ||(W (x - y))[:m]||
    <= L ||W (x - y)||: (w, L) bound the variation as (w_0, L_0) do,
    whatever s is, and everything below holds for them.  The rule balances
    the two off-diagonal blocks of A_w at x*, which widens the set.

    In the weighted offsets z = W d, W = diag(w), the Lyapunov equation
    A_w^T P + P A_w = -I for A_w = W A W^-1 is solved on its Kronecker form,
    and V(z) = z^T P z.  With mu, lam the extreme eigenvalues of P, q the
    smallest of -(A_w^T P + P A_w) as computed, a = ||A_w||, h the step and
    tol = ``cfg.stability_tol``, a radius r is halved from 99% of
    (q - 2 lam tol) / (2 lam L) until, with beta = h (a + L r / 2) / (2 - h L r / 2):

    - h L r < 4 and kappa = q - lam L r (1 + beta) > 0;
    - nu <= (1 - sqrt(1 - theta)) sqrt(c), with sqrt(c) = sqrt(mu) r - nu,
      theta = min(1, h kappa / (lam (1 + beta)^2)) and
      nu = sqrt(lam) (max(w) (2 newton_tol + 1e-12) + h ||W f(x*)||).

    Every state of the set then lies in the ball ||z|| <= r, where
    (Khalil, *Nonlinear Systems*, 3rd ed., section 8.2, with
    ||J_w(z) - A_w|| <= L ||z||):

    - J_w^T P + P J_w <= -2 lam tol I, so every Jacobian has spectral
      abscissa below -tol and V decreases along the flow
      (outside a ball of the size of f(x*));
    - one exact trapezoidal step from z to u satisfies
      V(u) - V(z) <= -h kappa ||(z + u) / 2||^2 <= -theta V(z), on the
      branch of solutions that starts at u = z for h = 0;
    - a Newton solution within 2 newton_tol of the residual, and the shift
      to the exact equilibrium, move sqrt(V) by at most nu, since
      I - (h/2) J_w is contractive in the P-norm on the ball.

    So a state in the set stays in it, no later state is flagged unstable,
    and sqrt(V) contracts by sqrt(1 - theta) per step down to
    nu / (1 - sqrt(1 - theta)).  Returns P in the unweighted offsets
    (W P W) and c.  Where A_w is not stable, an input is not finite or no
    radius passes, c is -1: no offset enters that set.
    """
    jac = np.asarray(jac, dtype=float)
    single = jac.ndim == 2
    jac = jac.reshape((-1,) + jac.shape[-2:])
    k, n = jac.shape[:2]
    weights = np.asarray(weights, dtype=float).reshape(k, n)
    residual = np.asarray(residual, dtype=float).reshape(k, n)
    lipschitz = np.broadcast_to(np.asarray(lipschitz, dtype=float), (k,))
    valid = (
        np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(residual).all(axis=1)
        & np.isfinite(weights).all(axis=1) & (weights > 0.0).all(axis=1)
        & (lipschitz > 0.0) & (lipschitz < np.inf)
    )
    eye = _identity(n)
    # an uncertifiable member solves a harmless system instead
    w = np.where(valid[:, None], weights, 1.0)
    # balance the off-diagonal blocks: scale the last n - m weights by s
    m = n // 2
    a_w = np.where(valid[:, None, None], w[:, :, None] * jac / w[:, None, :], -eye)
    upper = np.linalg.norm(a_w[:, :m, m:], 2, axis=(1, 2))
    lower = np.linalg.norm(a_w[:, m:, :m], 2, axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(upper / (2.0 * lower))
    s = np.where(valid & (s > 0.0) & (s < np.inf), s, 1.0)
    w[:, m:] *= s[:, None]
    bound = lipschitz * s
    a_w = np.where(valid[:, None, None], w[:, :, None] * jac / w[:, None, :], -eye)
    a_t = a_w.transpose(0, 2, 1)
    # row-major vec(A^T P + P A) = (A^T kron I + I kron A^T) vec(P)
    lyap = a_t[:, :, None, :, None] * eye[:, None, :]
    lyap = lyap + eye[:, None, :, None] * a_t[:, None, :, None, :]
    rhs = np.broadcast_to(-eye.reshape(n * n, 1), (k, n * n, 1))
    try:
        p_w = np.linalg.solve(lyap.reshape(k, n * n, n * n), rhs).reshape(k, n, n)
    except np.linalg.LinAlgError:
        if k > 1:
            # some member's Lyapunov operator is singular: one by one
            parts = [
                recovery_certificate(jac[i], residual[i], weights[i], lipschitz[i], cfg)
                for i in range(k)
            ]
            return np.array([f for f, _ in parts]), np.array([c for _, c in parts])
        valid[:], p_w = False, np.zeros((1, n, n))
    p_w = 0.5 * (p_w + p_w.transpose(0, 2, 1))
    valid &= np.isfinite(p_w).all(axis=(1, 2))
    p_w[~valid] = eye
    decay = -(a_t @ p_w + p_w @ a_w)
    spectrum = np.linalg.eigvalsh(p_w)
    q_all = np.linalg.eigvalsh(0.5 * (decay + decay.transpose(0, 2, 1)))[:, 0]
    norm_all = np.linalg.norm(a_w, 2, axis=(1, 2))
    nu_all = np.sqrt(spectrum[:, -1]) * (
        w.max(axis=1) * (_NEWTON_MARGIN * cfg.newton_tol + _RESIDUAL_ROUNDING)
        + cfg.step * _norm(w * residual)
    )
    levels = np.full(k, -1.0)
    for i in np.flatnonzero(valid).tolist():
        levels[i] = _certified_level(
            float(spectrum[i, 0]), float(spectrum[i, -1]), float(q_all[i]),
            float(norm_all[i]), float(nu_all[i]), float(bound[i]), cfg,
        )
    forms = w[:, :, None] * p_w * w[:, None, :]
    forms[levels < 0.0] = 0.0
    if single:
        return forms[0], levels[0]
    return forms, levels


def _certified_level(mu, lam, q, a, nu, L, cfg: IntegratorConfig) -> float:
    """The level c of :func:`recovery_certificate` for one equilibrium, or
    -1 if no radius passes."""
    if not (mu > 0.0 and q > 0.0):
        return -1.0
    h = cfg.step
    r = 0.99 * (q - 2.0 * lam * cfg.stability_tol) / (2.0 * lam * L)
    for _ in range(64):
        if not r > 0.0:
            break
        if h * L * r < 4.0:
            beta = h * (a + L * r / 2.0) / (2.0 - h * L * r / 2.0)
            kappa = q - lam * L * r * (1.0 + beta)
            root_c = np.sqrt(mu) * r - nu
            if kappa > 0.0 and root_c > 0.0:
                theta = min(1.0, h * kappa / (lam * (1.0 + beta) ** 2))
                if nu <= (1.0 - np.sqrt(1.0 - theta)) * root_c:
                    return float(root_c**2)
        r *= 0.5
    return -1.0


def step_trapezoidal(
    sys: ParameterizedSystem,
    x: np.ndarray,
    p: np.ndarray,
    cfg: IntegratorConfig,
) -> np.ndarray:
    """Advance one fixed step of the implicit trapezoidal rule.

    Solves  y = x + (h/2) * (f(x) + f(y))  for y by Newton iteration seeded
    at the forward-Euler predictor. Raises ``NewtonDivergence`` if the
    residual fails to reach ``cfg.newton_tol`` within ``NEWTON_MAX_ITER``
    iterations or the Newton matrix is singular.
    """
    h = cfg.step
    half_h = 0.5 * h
    eye = _identity(sys.state_dim)
    fx = sys.field(x, p)
    y = x + h * fx
    for it in range(NEWTON_MAX_ITER + 1):
        g = y - x - half_h * (fx + sys.field(y, p))
        residual = _norm(g)
        if residual <= cfg.newton_tol:
            if not _all_finite(y):
                raise NonFiniteOutput("trapezoidal step produced non-finite state")
            return y
        if it == NEWTON_MAX_ITER:
            raise NewtonDivergence(
                f"Newton iteration stalled at residual {residual:.3e} "
                f"after {it} iterations (tol {cfg.newton_tol:.1e})"
            )
        jac = eval_jacobian(sys, y, p)
        try:
            y = y - np.linalg.solve(eye - half_h * jac, g)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergence(f"singular Newton matrix at y={y}: {exc}") from exc


def step_trapezoidal_batch(
    sys: ParameterizedSystem,
    x: np.ndarray,
    p: np.ndarray,
    cfg: IntegratorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One trapezoidal step for each row of ``x`` (K, n) at the rows of ``p``.

    ``sys`` must be batched, with an analytic Jacobian.  Each member goes
    through the floating-point operations of :func:`step_trapezoidal`; a
    member whose residual has met the tolerance is frozen (the Newton
    update skips its row) while the others iterate on.  Returns the new
    states and a boolean mask of the members whose step failed where the
    single step would raise (Newton stalled, singular Newton matrix,
    non-finite Jacobian or state); their rows are meaningless, and they do
    not hold up the other members.
    """
    h = cfg.step
    half_h = 0.5 * h
    k, n = x.shape
    eye = _identity(n)
    fx = sys.field(x, p)
    y = x + h * fx
    failed = np.zeros(k, dtype=bool)
    pending = ~failed
    for it in range(NEWTON_MAX_ITER + 1):
        g = y - x - half_h * (fx + sys.field(y, p))
        pending &= ~(_norm(g) <= cfg.newton_tol)
        if not np.count_nonzero(pending):
            break
        if it == NEWTON_MAX_ITER:
            failed |= pending
            break
        jac = np.asarray(sys.jacobian(y, p), dtype=float)
        if jac.shape != (k, n, n):
            raise DimensionMismatch(
                f"batched jacobian returned shape {jac.shape}, expected {(k, n, n)}"
            )
        if not _all_finite(jac):
            failed |= pending & ~np.isfinite(jac).all(axis=(1, 2))
            pending &= ~failed
        matrices = eye - half_h * jac
        try:
            delta = np.linalg.solve(matrices, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # some matrix of the stack is singular: solve member by member
            delta = np.zeros_like(g)
            for j in np.flatnonzero(pending):
                try:
                    delta[j] = np.linalg.solve(matrices[j], g[j])
                except np.linalg.LinAlgError:
                    failed[j] = True
            pending &= ~failed
        np.subtract(y, delta, out=y, where=pending[:, None])
    if not _all_finite(y):
        failed |= ~np.isfinite(y).all(axis=1)
    return y, failed


def _wrap_index(sys: ParameterizedSystem):
    """``sys.wrap_indices`` as an index array, or None."""
    wrap = sys.wrap_indices
    return None if wrap is None else np.array(wrap, dtype=np.intp)


def _offset(x: np.ndarray, sep: np.ndarray, wrap) -> np.ndarray:
    """``x - sep`` over the last axis, the coordinates ``wrap`` (an index
    array from :func:`_wrap_index`, or None) reduced to (-pi, pi]."""
    d = x - sep
    if wrap is not None:
        d[..., wrap] = (d[..., wrap] + np.pi) % (2.0 * np.pi) - np.pi
    return d


def sep_distance(
    sys: ParameterizedSystem, x: np.ndarray, sep: np.ndarray
) -> float:
    """Euclidean distance from ``x`` to ``sep``, angle-aware.

    Coordinates listed in ``sys.wrap_indices`` are treated as angles: their
    difference is reduced to (-pi, pi] before taking the norm, so a state one
    full revolution away from the equilibrium counts as being at it.
    """
    x, sep = np.asarray(x, dtype=float), np.asarray(sep, dtype=float)
    return float(_norm(_offset(x, sep, _wrap_index(sys))))


def _recovery_sets(sys: ParameterizedSystem, p, sep, cfg: IntegratorConfig) -> tuple:
    """The certified sets of K runs of ``sys``, at the rows of ``p`` (K, m)
    around the stable equilibria in the rows of ``sep`` (K, n).

    Returns forms (K, n, n), levels (K,), reaches (K,) and escapes (K, 3).
    The set {d : d^T form d <= level} of offsets from the equilibrium
    (:func:`recovery_certificate`) lies in the ball ||d|| <= reach.  A run
    without a certificate (the system has no ``jacobian_lipschitz``, or no
    radius passes) has level and reach -1, which no offset meets.  An
    escape row (saddle, speed, level) is the system's
    ``escape_energy`` bound; without one the saddle is inf, which no state
    passes.  A system whose runs step in lockstep has its Jacobians and
    fields at the equilibria evaluated as one batch.
    """
    k, n = len(p), sys.state_dim
    escape = np.full((k, 3), np.inf)
    if sys.escape_energy is not None and k:
        escape = sys.escape_energy[1](p, sep, cfg)
    if sys.jacobian_lipschitz is None or not k:
        return np.zeros((k, n, n)), np.full(k, -1.0), np.full(k, -1.0), escape
    if sys.batched and sys.jacobian is not None:
        jac, residual = sys.jacobian(sep, p), sys.field(sep, p)
    else:
        jac = [eval_jacobian(sys, s, q) for s, q in zip(sep, p)]
        residual = [sys.field(s, q) for s, q in zip(sep, p)]
    bounds = [sys.jacobian_lipschitz(q) for q in p]
    form, level = recovery_certificate(
        jac, residual, [w for w, _ in bounds], [L for _, L in bounds], cfg
    )
    # V(d) >= lowest ||d||^2, so the set lies in the ball of radius
    # sqrt(level / lowest); 1% wider, rounding cannot put a certified
    # offset outside it
    reach, lowest = np.full(k, -1.0), np.linalg.eigvalsh(form)[:, 0]
    ok = level > 0.0
    reach[ok] = np.where(
        lowest[ok] > 0.0, 1.01 * np.sqrt(level[ok] / np.abs(lowest[ok])), np.inf
    )
    return form, level, reach, escape


def _end_test(x, p, sep, wrap, sets, energy, cfg: IntegratorConfig) -> tuple:
    """Whether K runs' new states ``x`` (K, n) at the parameters ``p``
    (K, m) have diverged, lie in their certified sets and lie near their
    equilibria, as three (K,) masks.

    ``sep`` holds the equilibria and ``sets`` the forms, levels, reaches and
    escape rows of :func:`_recovery_sets`; ``energy`` is the system's
    escape energy, or None.  Offsets are angle-aware (``wrap`` from
    :func:`_wrap_index`).  A state diverged when its norm exceeds
    ``cfg.divergence_norm`` or it lies in its escape set, and is near when
    its offset is at most ``SEP_TOL``.  V is evaluated only when some
    state lies within its set's reach, and E only when some state is past
    its saddle.
    """
    form, level, reach, escape = sets
    d = _offset(x, sep, wrap)
    distance = _norm(d)
    certified = np.count_nonzero(distance <= reach) > 0 and _quadratic(form, d) <= level
    diverged = _norm(x) > cfg.divergence_norm
    past = x[:, 0] > escape[:, 0]
    if np.count_nonzero(past):
        with np.errstate(invalid="ignore"):  # the rows of failed steps
            escaped = (np.abs(x[:, 1]) <= escape[:, 1]) & (energy(x, p) < escape[:, 2])
        diverged = diverged | past & escaped
    return diverged, certified, distance <= SEP_TOL


def _step_budget(cfg: IntegratorConfig) -> int:
    return int(np.floor(cfg.max_time / cfg.step + 1e-9))


@dataclass(frozen=True)
class RunEnd:
    """How one simulation ended, without its states.

    ``final_state`` and ``elapsed`` are those of the last stored state, i.e.
    ``traj.states[-1]`` and ``traj.elapsed`` of the matching
    :func:`simulate` trajectory.
    """

    termination: Termination
    final_state: np.ndarray
    elapsed: float


class Lockstep:
    """Simulations of one system, started between steps and reported as
    they end: the one place where runs advance and end.

    :meth:`add` starts members, :meth:`step` advances every live member by
    one trapezoidal step and reports the members that ended, and
    :meth:`drop` removes members.  Each member counts its own steps
    against the budget ``floor(max_time / step)`` and is tested against
    its own certified and escape sets (:func:`_recovery_sets`).  No states
    are kept, so memory is O(K n^2) for K live members (a certificate's
    form is n by n); :func:`simulate` records a one-member Lockstep.

    While more than one member is involved on a system that steps in
    lockstep (``lockstep``), initial conditions and steps are computed as
    one batch (:func:`step_trapezoidal_batch`); otherwise each member takes
    the single-state :func:`initial_state` and :func:`step_trapezoidal`.
    Both round alike, so a member ends bitwise the same in any batch.
    """

    #: the member columns, one row per live member
    _COLUMNS = ("_ids", "_x", "_p", "_sep", "_consec", "_start",
                "_form", "_level", "_reach", "_escape")

    def __init__(self, sys: ParameterizedSystem, cfg: IntegratorConfig) -> None:
        self.sys, self.cfg = sys, cfg
        #: whether members may advance together, one batched step for all;
        #: the batched Newton step needs the batched analytic Jacobian
        self.lockstep = sys.batched and sys.jacobian is not None
        self.budget = _step_budget(cfg)
        self._wrap = _wrap_index(sys)
        self._energy = sys.escape_energy and sys.escape_energy[0]
        #: steps the batch has taken since it was made
        self.steps = 0
        self._next_id = 0
        n = sys.state_dim
        self._ids = np.zeros(0, dtype=int)
        self._x = np.zeros((0, n))
        self._p = np.zeros((0, sys.param_dim))
        self._sep = np.zeros((0, n))
        self._consec = np.zeros(0, dtype=int)
        self._start = np.zeros(0, dtype=int)
        #: each member's certified set {d : d^T form d <= level}, inside the
        #: ball ||d|| <= reach; a member without a certificate has level and
        #: reach -1, which no offset meets; and its escape row (saddle,
        #: speed, level), saddle inf without one
        self._form = np.zeros((0, n, n))
        self._level = np.zeros(0)
        self._reach = np.zeros(0)
        self._escape = np.zeros((0, 3))
        self._deadline = np.inf

    def __len__(self) -> int:
        """Members started and not reported or dropped yet."""
        return len(self._ids)

    def add(self, p, sep) -> np.ndarray:
        """Start one member per row of ``p`` (K, m); ``sep`` (K, n) holds
        each member's stable equilibrium.  On a system that steps in
        lockstep the Jacobians and fields at the equilibria for the
        certificates are evaluated as one batch.  Either every member
        starts or, if that raises, none does.  Returns the members' ids."""
        p = np.asarray(p, dtype=float)
        k = len(p)
        if self.lockstep and k > 1:
            x = initial_state(self.sys, p)
        else:
            x = np.array([initial_state(self.sys, q) for q in p])
            x = x.reshape(k, self.sys.state_dim)
        sep = np.asarray(sep, dtype=float)
        sets = _recovery_sets(self.sys, p, sep, self.cfg)
        ids = np.arange(self._next_id, self._next_id + k)
        rows = (ids, x, p, sep, np.zeros(k, dtype=int), np.full(k, self.steps)) + sets
        for name, new in zip(self._COLUMNS, rows):
            setattr(self, name, np.concatenate([getattr(self, name), new]))
        self._next_id += k
        self._deadline = min(self._deadline, self.steps + self.budget)
        return ids

    def drop(self, ids) -> None:
        """Remove the given members; they are never reported."""
        self._keep(~np.isin(self._ids, ids))

    def _keep(self, keep: np.ndarray) -> None:
        for name in self._COLUMNS:
            setattr(self, name, getattr(self, name)[keep])
        self._deadline = self._start.min() + self.budget if len(self._start) else np.inf

    def _step_each(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:func:`step_trapezoidal` member by member, as
        :func:`step_trapezoidal_batch` returns its results: a member whose
        step raises keeps its state and is marked failed."""
        rows, failed = [], np.zeros(len(x), dtype=bool)
        for k, (x_k, p_k) in enumerate(zip(x, self._p)):
            try:
                x_k = step_trapezoidal(self.sys, x_k, p_k, self.cfg)
            except (NewtonDivergence, NonFiniteOutput):
                failed[k] = True
            rows.append(x_k)
        return np.array(rows), failed

    def step(self) -> dict[int, RunEnd]:
        """Advance the live members one step; return the ends of those that
        ended, by id.

        A member ends on the first of these, tested by :func:`_end_test`:

        - its step budget is spent: ``MAX_TIME_REACHED``, without a step;
        - its step failed where :func:`step_trapezoidal` raises
          ``NewtonDivergence`` (a singular Newton matrix included) or
          ``NonFiniteOutput``: ``SOLVER_FAILURE``, on its last good state;
        - its new state's norm exceeds ``cfg.divergence_norm`` or it lies
          in its escape set, from which it provably never returns:
          ``DIVERGED``, tested first so that a divergent state is never
          taken for a converged one;
        - it entered its certified set, or had ``SEP_DWELL`` consecutive
          states within ``SEP_TOL`` of its equilibrium:
          ``CONVERGED_TO_SEP``.
        """
        cfg = self.cfg
        ends = {}
        if self.steps >= self._deadline:
            spent = self.steps - self._start >= self.budget
            for k, state in zip(self._ids[spent].tolist(), self._x[spent]):
                ends[k] = RunEnd(
                    Termination.MAX_TIME_REACHED, state, self.budget * cfg.step
                )
            self._keep(~spent)
        if not len(self._ids):
            return ends
        x_prev = self._x
        if self.lockstep and len(x_prev) > 1:
            x, failed = step_trapezoidal_batch(self.sys, x_prev, self._p, cfg)
        else:
            x, failed = self._step_each(x_prev)
        self.steps += 1
        self._x = x
        sets = (self._form, self._level, self._reach, self._escape)
        beyond, certified, near = _end_test(
            x, self._p, self._sep, self._wrap, sets, self._energy, cfg
        )
        # the dwell counts consecutive states near the SEP and restarts at 0;
        # far from every SEP, as runs mostly are, there is nothing to count
        dwelt = False
        if np.count_nonzero(near) or np.count_nonzero(self._consec):
            self._consec += 1
            self._consec *= near
            dwelt = self._consec >= SEP_DWELL
        done = failed | beyond | certified | dwelt
        if not np.count_nonzero(done):
            return ends
        steps = self.steps - self._start
        diverged = beyond & ~failed
        for mask, end in (
            (failed, Termination.SOLVER_FAILURE),
            (diverged, Termination.DIVERGED),
            (done & ~failed & ~diverged, Termination.CONVERGED_TO_SEP),
        ):
            # a failed step stores nothing: the member ends on its last state
            states, n = (x_prev, steps - 1) if end is Termination.SOLVER_FAILURE else (x, steps)
            for k, state, n_k in zip(self._ids[mask].tolist(), states[mask], n[mask]):
                ends[k] = RunEnd(end, state, float(n_k * cfg.step))
        self._keep(~done)
        return ends


def simulate(
    sys: ParameterizedSystem,
    p: np.ndarray,
    cfg: IntegratorConfig,
    sep: np.ndarray,
    record_flags: bool = False,
) -> Trajectory:
    """Integrate from the system's initial condition and classify the outcome.

    Runs ``p`` as the one member of a :class:`Lockstep` around ``sep`` and
    records each state it stores, so the run ends as :meth:`Lockstep.step`
    ends it: ``SOLVER_FAILURE`` (the partial trajectory up to the last good
    state is returned), ``DIVERGED``, ``CONVERGED_TO_SEP`` or
    ``MAX_TIME_REACHED``.  A run that converged entered the level set of
    :func:`recovery_certificate` at ``sep``, from which it provably
    converges to ``sep`` and no later state would be flagged unstable, or,
    without a certificate, stayed within ``SEP_TOL`` of ``sep`` for
    ``SEP_DWELL`` consecutive states.

    With ``record_flags=True`` every stored state (including the initial one)
    gets a boolean marking whether the Jacobian there has an eigenvalue with
    real part above ``cfg.stability_tol``.  A ``p`` or ``sep`` of the wrong
    shape raises ``DimensionMismatch``.
    """
    p = _check_vector(p, sys.param_dim, "parameter")
    sep = _check_vector(sep, sys.state_dim, "sep")
    lock = Lockstep(sys, cfg)
    lock.add(p[None], sep[None])
    states, flags = [], []

    def store(x):
        states.append(x)
        if record_flags:
            flags.append(is_unstable(eval_jacobian(sys, x, p), cfg.stability_tol))

    store(lock._x[0].copy())
    ends = lock.step()
    while not ends:
        store(lock._x[0].copy())
        ends = lock.step()
    (end,) = ends.values()
    if end.termination in (Termination.DIVERGED, Termination.CONVERGED_TO_SEP):
        store(end.final_state.copy())
    return Trajectory(
        states=np.asarray(states),
        step=cfg.step,
        parameter=p,
        termination=end.termination,
        instability_flags=np.asarray(flags, dtype=bool) if record_flags else None,
    )

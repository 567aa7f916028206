"""Implicit trapezoidal integration and trajectory classification.

The stepper is A-stable, which matters here: trajectories of interest pass
near saddle points and through strongly contracting regions where explicit
schemes at practical step sizes either blow up or demand tiny steps. Each
step solves the trapezoidal fixed-point equation with a Newton iteration
seeded at the forward-Euler predictor.

:func:`simulate` integrates one trajectory and keeps its states.
:class:`Lockstep` runs many trajectories of one system and keeps only how
each one ended.  On a batched system with an analytic Jacobian it advances
them together, one batched step for all live members; members join and
leave between steps, so a caller can start new probes while older ones are
still running, and each member still ends exactly as :func:`simulate` would
end it.  On any other system each member runs to its end with
:func:`simulate` when it joins.

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
    ``step``); ``sep_tol`` and ``sep_dwell`` set the fallback rule for a
    system without a certificate, or a trajectory that reaches the
    equilibrium without entering the set.  ``stability_tol`` is the margin
    by which a Jacobian counts as unstable (spectral abscissa above it): it
    flags the states of the averaging window and sizes the certified set.
    """

    step: float
    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    max_time: float = 200.0
    sep_tol: float = 1e-6
    sep_dwell: int = 10
    divergence_norm: float = 1e6
    stability_tol: float = DEFAULT_STABILITY_TOL

    def __post_init__(self) -> None:
        if not 0.0 < self.step < np.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if not 0.0 < self.newton_tol < np.inf:
            raise ValueError(
                f"newton_tol must be positive and finite, got {self.newton_tol}"
            )
        if self.newton_max_iter < 1:
            raise ValueError(
                f"newton_max_iter must be at least 1, got {self.newton_max_iter}"
            )
        if not 0.0 < self.max_time < np.inf:
            raise ValueError(
                f"max_time must be positive and finite, got {self.max_time}"
            )
        if not 0.0 < self.sep_tol < np.inf:
            raise ValueError(f"sep_tol must be positive and finite, got {self.sep_tol}")
        if self.sep_dwell < 1:
            raise ValueError(f"sep_dwell must be at least 1, got {self.sep_dwell}")
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
    (x* is a Newton solution, not an exact zero); ``weights`` w and
    ``lipschitz`` L come from ``ParameterizedSystem.jacobian_lipschitz``.
    All four may carry a leading axis of K equilibria, certified one by
    one with the same floating-point operations.

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
            float(norm_all[i]), float(nu_all[i]), float(lipschitz[i]), cfg,
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
    residual fails to reach ``cfg.newton_tol`` within ``cfg.newton_max_iter``
    iterations or the Newton matrix is singular.
    """
    h = cfg.step
    half_h = 0.5 * h
    eye = _identity(sys.state_dim)
    fx = sys.field(x, p)
    y = x + h * fx
    for it in range(cfg.newton_max_iter + 1):
        g = y - x - half_h * (fx + sys.field(y, p))
        residual = _norm(g)
        if residual <= cfg.newton_tol:
            if not _all_finite(y):
                raise NonFiniteOutput("trapezoidal step produced non-finite state")
            return y
        if it == cfg.newton_max_iter:
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
    for it in range(cfg.newton_max_iter + 1):
        g = y - x - half_h * (fx + sys.field(y, p))
        pending &= ~(_norm(g) <= cfg.newton_tol)
        if not np.count_nonzero(pending):
            break
        if it == cfg.newton_max_iter:
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
    """Whether a run's new state ``x`` (n,), or K runs' states (K, n) at the
    parameters ``p``, has diverged, lies in its certified set and lies near
    its equilibrium.

    ``sep`` holds the equilibria and ``sets`` the forms, levels, reaches and
    escape rows of :func:`_recovery_sets`; ``energy`` is the system's
    escape energy, or None.  Offsets are angle-aware (``wrap`` from
    :func:`_wrap_index`).  A state diverged when its norm exceeds
    ``cfg.divergence_norm`` or it lies in its escape set, and is near when
    its offset is at most ``cfg.sep_tol``.  V is evaluated only when some
    state lies within its set's reach, and E only when some state is past
    its saddle.

    A run ends on the first of these, in this order: a failed step
    (``SOLVER_FAILURE``, on the last good state), divergence (``DIVERGED``),
    then entry into the certified set or ``cfg.sep_dwell`` consecutive near
    states (``CONVERGED_TO_SEP``).
    """
    form, level, reach, escape = sets
    d = _offset(x, sep, wrap)
    distance = _norm(d)
    certified = np.count_nonzero(distance <= reach) > 0 and _quadratic(form, d) <= level
    diverged = _norm(x) > cfg.divergence_norm
    past = x[..., 0] > escape[..., 0]
    if np.count_nonzero(past):
        with np.errstate(invalid="ignore"):  # the rows of failed steps
            escaped = (np.abs(x[..., 1]) <= escape[..., 1]) & (energy(x, p) < escape[..., 2])
        diverged = diverged | past & escaped
    return diverged, certified, distance <= cfg.sep_tol


def simulate(
    sys: ParameterizedSystem,
    p: np.ndarray,
    cfg: IntegratorConfig,
    sep: np.ndarray,
    record_flags: bool = False,
) -> Trajectory:
    """Integrate from the system's initial condition and classify the outcome.

    The trajectory terminates (in the order of :func:`_end_test`) with:

    - ``SOLVER_FAILURE`` if a step raises ``NewtonDivergence`` or
      ``NonFiniteOutput`` — the partial trajectory up to the last good state
      is returned (a singular Newton matrix counts as ``NewtonDivergence``);
    - ``DIVERGED`` as soon as the state norm exceeds ``cfg.divergence_norm``
      or, for a system with ``escape_energy``, the state enters its escape
      set, computed once here at ``sep`` with ``cfg``: from there the
      trajectory provably never returns to ``sep`` (checked before the
      proximity tests, so a divergent state can never be mistaken for a
      converged one);
    - ``CONVERGED_TO_SEP`` as soon as the offset from ``sep`` (angle-aware)
      enters the level set of :func:`recovery_certificate`, computed once
      here at ``sep`` with ``cfg``: from there the trajectory provably
      converges to ``sep`` and no later state would be flagged unstable.
      Without a certificate (the system has no ``jacobian_lipschitz``, or
      no radius passes), and as a fallback, once the state has stayed
      within ``cfg.sep_tol`` of ``sep`` for ``cfg.sep_dwell`` consecutive
      stored states;
    - ``MAX_TIME_REACHED`` after ``floor(max_time / step)`` steps without
      any of the above.

    With ``record_flags=True`` every stored state (including the initial one)
    gets a boolean marking whether the Jacobian there has an eigenvalue with
    real part above ``cfg.stability_tol``.
    """
    p = np.asarray(p, dtype=float)
    sep, wrap = np.asarray(sep, dtype=float), _wrap_index(sys)
    x = initial_state(sys, p)
    sets = tuple(a[0] for a in _recovery_sets(sys, p[None], sep[None], cfg))
    energy = sys.escape_energy and sys.escape_energy[0]

    states = [x]
    tol = cfg.stability_tol
    flags = [is_unstable(eval_jacobian(sys, x, p), tol)] if record_flags else None

    nmax = _step_budget(cfg)
    termination = Termination.MAX_TIME_REACHED
    consec = 0
    for _ in range(nmax):
        try:
            x = step_trapezoidal(sys, x, p, cfg)
        except (NewtonDivergence, NonFiniteOutput):
            termination = Termination.SOLVER_FAILURE
            break
        states.append(x)
        if record_flags:
            flags.append(is_unstable(eval_jacobian(sys, x, p), tol))
        diverged, certified, near = _end_test(x, p, sep, wrap, sets, energy, cfg)
        consec = consec + 1 if near else 0
        if diverged:
            termination = Termination.DIVERGED
            break
        if certified or consec >= cfg.sep_dwell:
            termination = Termination.CONVERGED_TO_SEP
            break

    return Trajectory(
        states=np.asarray(states),
        step=cfg.step,
        parameter=p,
        termination=termination,
        instability_flags=np.asarray(flags, dtype=bool) if record_flags else None,
    )


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
    they end.

    :meth:`add` starts members, :meth:`step` advances every live member by
    one trapezoidal step and reports the members that ended, and
    :meth:`drop` removes members.  Each member ends exactly as
    :func:`simulate` would end it, by the same test (:func:`_end_test`)
    against the same certified and escape sets (:func:`_recovery_sets`,
    computed once per member by :meth:`add`).

    Members step in lockstep (``lockstep`` true) on a batched system with
    an analytic Jacobian: each counts its own steps against the budget
    ``floor(max_time / step)``, and no states are kept, so memory is
    O(K n^2) for K live members (a certificate's form is n by n).  On any
    other system :meth:`add` runs each member to its end with
    :func:`simulate`, and the next :meth:`step` reports those ends without
    stepping.
    """

    def __init__(self, sys: ParameterizedSystem, cfg: IntegratorConfig) -> None:
        self.sys, self.cfg = sys, cfg
        #: whether members advance together, one batched step for all; the
        #: batched Newton step needs the batched analytic Jacobian
        self.lockstep = sys.batched and sys.jacobian is not None
        self.budget = _step_budget(cfg)
        self._wrap = _wrap_index(sys)
        self._energy = sys.escape_energy and sys.escape_energy[0]
        #: ends of members run to their end by add, not reported yet
        self._ended: dict[int, RunEnd] = {}
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
        return len(self._ids) + len(self._ended)

    def add(self, p, sep) -> np.ndarray:
        """Start one member per row of ``p`` (K, m); ``sep`` (K, n) holds
        each member's stable equilibrium.  In lockstep the initial
        conditions, the Jacobians and fields at the equilibria for the
        certificates, and the escape rows are computed as one batch.
        Either every member starts or, if that raises, none does.  Returns
        the members' ids."""
        p = np.asarray(p, dtype=float)
        ids = np.arange(self._next_id, self._next_id + len(p))
        if not self.lockstep:
            ended = {}
            for k, p_k, sep_k in zip(ids.tolist(), p, sep):
                traj = simulate(self.sys, p_k, self.cfg, sep_k)
                ended[k] = RunEnd(traj.termination, traj.states[-1], traj.elapsed)
            self._ended.update(ended)
            self._next_id += len(p)
            return ids
        x = initial_state(self.sys, p)
        sep = np.asarray(sep, dtype=float)
        form, level, reach, escape = _recovery_sets(self.sys, p, sep, self.cfg)
        self._next_id += len(p)
        self._ids = np.concatenate([self._ids, ids])
        self._x = np.concatenate([self._x, x])
        self._p = np.concatenate([self._p, p])
        self._sep = np.concatenate([self._sep, sep])
        self._consec = np.concatenate([self._consec, np.zeros(len(p), dtype=int)])
        self._start = np.concatenate([self._start, np.full(len(p), self.steps)])
        self._form = np.concatenate([self._form, form])
        self._level = np.concatenate([self._level, level])
        self._reach = np.concatenate([self._reach, reach])
        self._escape = np.concatenate([self._escape, escape])
        self._deadline = min(self._deadline, self.steps + self.budget)
        return ids

    def drop(self, ids) -> None:
        """Remove the given members; they are never reported."""
        for k in ids:
            self._ended.pop(k, None)
        self._keep(~np.isin(self._ids, ids))

    def _keep(self, keep: np.ndarray) -> None:
        self._ids, self._x, self._p = self._ids[keep], self._x[keep], self._p[keep]
        self._sep, self._consec = self._sep[keep], self._consec[keep]
        self._start = self._start[keep]
        self._form, self._level = self._form[keep], self._level[keep]
        self._reach, self._escape = self._reach[keep], self._escape[keep]
        self._deadline = self._start.min() + self.budget if len(self._start) else np.inf

    def step(self) -> dict[int, RunEnd]:
        """Advance the live members one step; return the ends of those that
        ended, by id.  Members whose step budget is spent end first, with
        ``MAX_TIME_REACHED`` and without a step."""
        cfg = self.cfg
        ends, self._ended = self._ended, {}
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
        x, failed = step_trapezoidal_batch(self.sys, x_prev, self._p, cfg)
        self.steps += 1
        self._x = x
        sets = (self._form, self._level, self._reach, self._escape)
        beyond, certified, near = _end_test(
            x, self._p, self._sep, self._wrap, sets, self._energy, cfg
        )
        # the dwell counts consecutive states near the SEP and restarts at 0
        self._consec += 1
        self._consec *= near
        done = failed | beyond | certified | (self._consec >= cfg.sep_dwell)
        if not np.count_nonzero(done):
            return ends
        steps = self.steps - self._start
        # the order of _end_test
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

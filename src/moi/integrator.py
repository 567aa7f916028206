"""Implicit trapezoidal integration and trajectory classification.

The stepper is A-stable, which matters here: trajectories of interest pass
near saddle points and through strongly contracting regions where explicit
schemes at practical step sizes either blow up or demand tiny steps. Each
step solves the trapezoidal fixed-point equation with a Newton iteration
seeded at the forward-Euler predictor.

:class:`Lockstep` is the one place where runs advance and end: it runs
many trajectories of one system, started and dropped between steps, and
keeps only how each one ended.  :func:`simulate` records the states of a
Lockstep's lone member.  Several members advance together, one batched
step for all; a lone member takes the single-state step.  Both steppers go
through the same floating-point operations, so a run ends bitwise alike
however it is batched.  A Newton update that is not finite (a singular
Newton matrix gives a nan one) fails the step; in a batch it fails that
member alone.  A batched step returns the field at its new states,
which the Lockstep carries into its next batched step instead of
evaluating it again.

A recovering trajectory ends as soon as it is known to recover.  For a
system that bounds the variation of its Jacobian
(``ParameterizedSystem.jacobian_lipschitz``), :func:`recovery_certificate`
turns a quadratic Lyapunov function at the stable equilibrium into a level
set that the iterated trapezoidal map never leaves, that it contracts to the
equilibrium, and on which every Jacobian is stable; entering it ends the
trajectory.  Other systems wait until the state has stayed near the
equilibrium for a while.  Likewise a failing trajectory ends as soon as it
is known to fail: past the norm ``divergence_norm`` or, for a system that
describes an escape set (``ParameterizedSystem.escape``), in a set from
which the system proves it never returns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
# The LAPACK gufunc behind np.linalg.solve, called without the wrapper's
# argument checks and error-state context, which cost more than the solve on
# the small stacks stepped here.  The module is private to numpy; this
# package is tested with numpy 2.4.6, where solve1 has the signature
# (m,m),(m)->(m) and returns a nan row for a singular matrix.
from numpy.linalg._umath_linalg import solve1 as _solve

from .errors import DimensionMismatch, NewtonDivergence, NonFiniteOutput
# is_unstable is not called here, but perfbench/bench_tracer.py patches
# moi.integrator.is_unstable, so the name stays importable.
from .spectral import DEFAULT_STABILITY_TOL, _eigvals, is_unstable  # noqa: F401
from .system_core import (
    ParameterizedSystem,
    Termination,
    Trajectory,
    _all_finite,
    _check_vector,
    _count_nonzero,
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
    may fuse or reorder the additions, and ``np.add.reduce`` sums pairwise).
    A running sum is sequential by construction, so its last entry adds the
    squares left to right.  A single state gives a numpy scalar.
    """
    return np.sqrt(np.add.accumulate(v * v, axis=-1)[..., -1])


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
    All four are stacks over K equilibria: (K, n, n), (K, n), (K, n) and
    (K,), certified one by one with the same floating-point operations.

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
    nu / (1 - sqrt(1 - theta)).  Returns the stacks of P in the unweighted
    offsets (W P W) and of c.  Where A_w is not Hurwitz, an input is not
    finite or no radius passes, c is -1 and the form 0: no offset enters
    that set.
    """
    jac = np.asarray(jac, dtype=float)
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
    # a member whose A_w is not Hurwitz solves for A_w = -I instead
    valid &= (np.linalg.eigvals(a_w).real < 0.0).all(axis=1)
    a_w[~valid] = -eye
    a_t = a_w.transpose(0, 2, 1)
    # row-major vec(A^T P + P A) = (A^T kron I + I kron A^T) vec(P)
    lyap = a_t[:, :, None, :, None] * eye[:, None, :]
    lyap = lyap + eye[:, None, :, None] * a_t[:, None, :, None, :]
    rhs = np.broadcast_to(-eye.reshape(n * n, 1), (k, n * n, 1))
    p_w = np.linalg.solve(lyap.reshape(k, n * n, n * n), rhs).reshape(k, n, n)
    p_w = 0.5 * (p_w + p_w.transpose(0, 2, 1))
    valid &= np.isfinite(p_w).all(axis=(1, 2))
    p_w[~valid] = eye
    decay = -(a_t @ p_w + p_w @ a_w)
    spectrum = np.linalg.eigvalsh(p_w)
    # a P that is not positive definite certifies nothing; its spectrum is
    # replaced so that no square root below sees a negative number
    valid &= spectrum[:, 0] > 0.0
    spectrum[~valid] = 1.0
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
    return forms, levels


def _certified_level(mu, lam, q, a, nu, L, cfg: IntegratorConfig) -> float:
    """The level c of :func:`recovery_certificate` for one equilibrium with
    a positive definite P, or -1 if no radius passes (a q <= 0 or nan
    gives a first radius r <= 0 or nan, which stops the search at once)."""
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
    iterations or a Newton update is not finite (a singular Newton matrix
    gives a nan update).
    """
    h = cfg.step
    half_h = 0.5 * h
    eye = _identity(sys.state_dim)
    fx = sys.field(x, p)
    y = x + h * fx
    # a residual whose square overflows fails the tolerance as its exact
    # value does, and a field that overflows makes the update non-finite
    with np.errstate(invalid="ignore", over="ignore"):
        for it in range(NEWTON_MAX_ITER + 1):
            g = y - x - half_h * (fx + sys.field(y, p))
            residual = _norm(g)
            # a non-finite y gives a non-finite residual, which never passes
            if residual <= cfg.newton_tol:
                return y
            if it == NEWTON_MAX_ITER:
                raise NewtonDivergence(
                    f"Newton iteration stalled at residual {residual:.3e} "
                    f"after {it} iterations (tol {cfg.newton_tol:.1e})"
                )
            delta = _solve(eye - half_h * eval_jacobian(sys, y, p), g)
            if not _all_finite(delta):
                raise NewtonDivergence(
                    f"non-finite Newton update at y={y}: the Newton matrix is "
                    f"singular or the update overflowed"
                )
            y = y - delta


def step_trapezoidal_batch(
    sys: ParameterizedSystem,
    x: np.ndarray,
    p: np.ndarray,
    cfg: IntegratorConfig,
    fx: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One trapezoidal step for each row of ``x`` (K, n) at the rows of ``p``.

    Each member goes through the floating-point operations of
    :func:`step_trapezoidal`; a member whose residual has met the tolerance
    is frozen (the Newton update skips its row) while the others iterate
    on.  A member fails where
    the single step would raise: its Newton iteration stalls, its Jacobian
    is not finite, or its Newton update is not finite (a singular Newton
    matrix gives a nan update).  A failed member keeps its state x, as a
    lone member whose step raises does in :class:`Lockstep`, and it does
    not hold up the other members.

    ``fx`` is ``sys.field(x, p)`` if the caller has it (the carried field),
    else None and it is evaluated here.  Returns the new states y, the
    boolean mask of failed members and ``sys.field(y, p)``: the last Newton
    iterate evaluates the field on exactly the y it returns (frozen rows
    included, unchanged; failed rows excepted), so a caller that steps on
    from y passes it back as the next step's ``fx``.
    """
    h = cfg.step
    half_h = 0.5 * h
    k, n = x.shape
    eye = _identity(n)
    if fx is None:
        fx = sys.field(x, p)
    y = x + h * fx
    failed = np.zeros(k, dtype=bool)
    pending = ~failed
    # an overflow decides nothing (see step_trapezoidal)
    with np.errstate(invalid="ignore", over="ignore"):
        for it in range(NEWTON_MAX_ITER + 1):
            fy = sys.field(y, p)
            g = y - x - half_h * (fx + fy)
            pending &= ~(_norm(g) <= cfg.newton_tol)
            if not _count_nonzero(pending):
                break
            if it == NEWTON_MAX_ITER:
                failed |= pending
                break
            jac = np.asarray(sys.jacobian(y, p), dtype=float)
            if jac.shape != (k, n, n):
                raise DimensionMismatch(
                    f"batched jacobian returned shape {jac.shape}, expected {(k, n, n)}"
                )
            # an infinite entry can still give a finite update
            if not _all_finite(jac):
                failed |= pending & ~np.isfinite(jac).all(axis=(1, 2))
                pending &= ~failed
            delta = _solve(eye - half_h * jac, g)
            if not _all_finite(delta):
                failed |= pending & ~np.isfinite(delta).all(axis=1)
                pending &= ~failed
            np.subtract(y, delta, out=y, where=pending[:, None])
    if _count_nonzero(failed):
        y[failed] = x[failed]
    return y, failed, fy


def _wrap_index(sys: ParameterizedSystem):
    """``sys.wrap_indices`` as a slice where they are one ascending run of
    non-negative indices (as the swing network's angles 0..n-1 are), else
    as an index array, or None."""
    wrap = sys.wrap_indices
    if wrap is None:
        return None
    start = wrap[0] if len(wrap) else -1
    if start >= 0 and tuple(wrap) == tuple(range(start, start + len(wrap))):
        return slice(start, start + len(wrap))
    return np.array(wrap, dtype=np.intp)


def _offset(x: np.ndarray, sep: np.ndarray, wrap) -> np.ndarray:
    """``x - sep`` over the last axis, the coordinates ``wrap`` (from
    :func:`_wrap_index`, or None) reduced to (-pi, pi]; a slice of them in
    place, through a view."""
    d = x - sep
    if wrap is not None:
        turns = d[..., wrap]
        turns += np.pi
        np.remainder(turns, 2.0 * np.pi, out=turns)
        turns -= np.pi
        if type(wrap) is not slice:
            d[..., wrap] = turns
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

    Returns forms (K, n, n), levels (K,), reaches (K,) and escape rows
    (K, r).  The set {d : d^T form d <= level} of offsets from the
    equilibrium (:func:`recovery_certificate`) lies in the ball
    ||d|| <= reach.  A run without a certificate (the system has no
    ``jacobian_lipschitz``, or no radius passes) has level and reach -1,
    which no offset meets.  The escape rows are those of the system's
    ``escape`` (r = 0 without one), kept for its ``crossing`` and never
    read here.  The Jacobians and fields at the equilibria are evaluated as
    one batch.
    """
    k, n = len(p), sys.state_dim
    escape = np.zeros((k, 0)) if sys.escape is None else sys.escape[0](p, sep, cfg)
    if sys.jacobian_lipschitz is None or not k:
        return np.zeros((k, n, n)), np.full(k, -1.0), np.full(k, -1.0), escape
    jac, residual = sys.jacobian(sep, p), sys.field(sep, p)
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


def _end_test(x, sep, wrap, form, level, reach, cfg: IntegratorConfig) -> tuple:
    """Whether K runs' new states ``x`` (K, n) lie beyond the divergence
    norm, lie in their certified sets and lie near their equilibria, as
    three (K,) masks.

    ``sep`` holds the equilibria and ``form``, ``level`` and ``reach`` the
    certified sets of :func:`_recovery_sets`.  Offsets are angle-aware
    (``wrap`` from :func:`_wrap_index`).  A state is beyond when its norm
    exceeds ``cfg.divergence_norm`` and near when its offset is at most
    ``SEP_TOL``.  V is evaluated only when some state lies within its
    set's reach.
    """
    d = _offset(x, sep, wrap)
    distance = _norm(d)
    certified = _count_nonzero(distance <= reach) > 0 and _quadratic(form, d) <= level
    return _norm(x) > cfg.divergence_norm, certified, distance <= SEP_TOL


def _step_budget(cfg: IntegratorConfig) -> int:
    return int(np.floor(cfg.max_time / cfg.step + 1e-9))


@dataclass(frozen=True)
class RunEnd:
    """How one simulation ended, without its states.

    ``final_state`` and ``elapsed`` are those of the last stored state, i.e.
    ``traj.states[-1]`` and ``traj.elapsed`` of the matching
    :func:`simulate` trajectory.  ``tau`` is the end time in steps: the
    step count n, except for a run that ended ``DIVERGED`` after its first
    step: tau = n - 1 + f.  In its escape set, inside the divergence norm,
    f in (0, 1] is the fraction of the last step at which the system's
    ``crossing`` places the entry (``ParameterizedSystem.escape``); beyond
    the norm R, f = (R - |x_(n-1)|) / (|x_n| - |x_(n-1)|) in [0, 1) places
    it where the secant between the last two norms crosses R.  ``rule`` names the
    test of :meth:`Lockstep.step` that ended the run: ``"budget"``,
    ``"solver"``, ``"norm"`` (beyond the divergence norm), ``"escape"`` (in
    the escape set), ``"certified"`` (in the certified set) or ``"dwell"``.
    """

    termination: Termination
    final_state: np.ndarray
    elapsed: float
    tau: float
    rule: str


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

    Initial conditions are computed as one batch, and so are the steps
    while more than one member is live (:func:`step_trapezoidal_batch`); a
    lone member takes the single-state :func:`step_trapezoidal`.  Both
    round alike, so a member ends bitwise the same in any batch.  A
    batched step hands the field at its new states to the next one, as the
    column ``_f`` (``sys.field(_x, _p)``); the column is either valid for
    every live member or None, as after an :meth:`add` or a single-state
    step, and the next batched step then evaluates the field afresh.
    """

    #: the member columns, one row per live member; the last four hold each
    #: member's certified set {d : d^T form d <= level}, inside the ball
    #: ||d|| <= reach (a member without a certificate has level and reach -1,
    #: which no offset meets), and its escape row
    _COLUMNS = ("_ids", "_x", "_p", "_sep", "_consec", "_start",
                "_form", "_level", "_reach", "_escape")

    def __init__(self, sys: ParameterizedSystem, cfg: IntegratorConfig) -> None:
        self.sys, self.cfg = sys, cfg
        self.budget = _step_budget(cfg)
        self._wrap = _wrap_index(sys)
        self._crossing = sys.escape and sys.escape[1]
        #: steps the batch has taken since it was made
        self.steps = 0
        self._next_id = 0
        empty = self._rows(np.zeros((0, sys.param_dim)), np.zeros((0, sys.state_dim)))
        for name, column in zip(self._COLUMNS, empty):
            setattr(self, name, column)
        self._deadline = np.inf
        self._f = None

    def __len__(self) -> int:
        """Members started and not reported or dropped yet."""
        return len(self._ids)

    def _rows(self, p: np.ndarray, sep: np.ndarray) -> tuple:
        """The ``_COLUMNS`` of members starting now at the rows of ``p``
        (K, m) around the equilibria in the rows of ``sep`` (K, n)."""
        k = len(p)
        x = initial_state(self.sys, p) if k else np.zeros((0, self.sys.state_dim))
        sets = _recovery_sets(self.sys, p, sep, self.cfg)
        ids = np.arange(self._next_id, self._next_id + k)
        return (ids, x, p, sep, np.zeros(k, dtype=int), np.full(k, self.steps)) + sets

    def add(self, p, sep) -> np.ndarray:
        """Start one member per row of ``p`` (K, m); ``sep`` (K, n) holds
        each member's stable equilibrium.  The initial conditions, and the
        Jacobians and fields at the equilibria for the certificates, are
        evaluated as one batch.  Either every member starts or, if that
        raises, none does.  Returns the members' ids."""
        rows = self._rows(np.asarray(p, dtype=float), np.asarray(sep, dtype=float))
        for name, new in zip(self._COLUMNS, rows):
            setattr(self, name, np.concatenate([getattr(self, name), new]))
        ids = rows[0]
        self._f = None
        self._next_id += len(ids)
        self._deadline = min(self._deadline, self.steps + self.budget)
        return ids

    def drop(self, ids) -> None:
        """Remove the given members; they are never reported."""
        self._keep(~np.isin(self._ids, ids))

    def _keep(self, keep: np.ndarray) -> None:
        for name in self._COLUMNS:
            setattr(self, name, getattr(self, name)[keep])
        if self._f is not None:
            self._f = self._f[keep]
        self._deadline = self._start.min() + self.budget if len(self._start) else np.inf

    def _step_alone(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:func:`step_trapezoidal` of the lone member in ``x`` (1, n), as
        :func:`step_trapezoidal_batch` returns its results: a member whose
        step raises keeps its state and is marked failed."""
        try:
            y = step_trapezoidal(self.sys, x[0], self._p[0], self.cfg)
        except (NewtonDivergence, NonFiniteOutput):
            return x, np.ones(1, dtype=bool)
        return y[None], np.zeros(1, dtype=bool)

    def step(self) -> dict[int, RunEnd]:
        """Advance the live members one step; return the ends of those that
        ended, by id.

        A member ends on the first of these, tested by :func:`_end_test`;
        its ``RunEnd.rule`` is the name in brackets:

        - its step budget is spent [budget]: ``MAX_TIME_REACHED``, without
          a step;
        - its step failed where :func:`step_trapezoidal` raises
          ``NewtonDivergence`` (a singular Newton matrix included) or
          ``NonFiniteOutput`` [solver]: ``SOLVER_FAILURE``, on its last good
          state;
        - its new state's norm exceeds ``cfg.divergence_norm`` [norm] or, by
          the system's ``crossing``, it lies in its escape set, from which it
          provably never returns [escape]: ``DIVERGED``, tested first so that
          a divergent state is never taken for a converged one;
        - it entered its certified set [certified], or had ``SEP_DWELL``
          consecutive states within ``SEP_TOL`` of its equilibrium [dwell]:
          ``CONVERGED_TO_SEP``.
        """
        cfg = self.cfg
        ends = {}
        if self.steps >= self._deadline:
            spent = self.steps - self._start >= self.budget
            for k, state in zip(self._ids[spent].tolist(), self._x[spent]):
                ends[k] = RunEnd(
                    Termination.MAX_TIME_REACHED, state, self.budget * cfg.step,
                    float(self.budget), "budget",
                )
            self._keep(~spent)
        if not len(self._ids):
            return ends
        x_prev = self._x
        if len(x_prev) > 1:
            x, failed, self._f = step_trapezoidal_batch(
                self.sys, x_prev, self._p, cfg, self._f
            )
        else:
            x, failed = self._step_alone(x_prev)
            self._f = None
        self.steps += 1
        self._x = x
        beyond, certified, near = _end_test(
            x, self._sep, self._wrap, self._form, self._level, self._reach, cfg
        )
        entered = self._crossing and self._crossing(x_prev, x, self._p, self._escape)
        # the dwell counts consecutive states near the SEP and restarts at 0;
        # far from every SEP, as runs mostly are, there is nothing to count
        dwelt = False
        if _count_nonzero(near) or _count_nonzero(self._consec):
            self._consec += 1
            self._consec *= near
            dwelt = self._consec >= SEP_DWELL
        diverged = beyond if entered is None else beyond | np.isfinite(entered)
        done = failed | diverged
        for mask in (certified, dwelt):
            if mask is not False:
                done |= mask
        if not _count_nonzero(done):
            return ends
        steps = self.steps - self._start
        tau = steps.astype(float)
        if _count_nonzero(beyond):
            # a norm end after the first step is timed where the secant
            # between the last two norms crosses the divergence norm
            timed = beyond & (steps > 1)
            before, after = _norm(x_prev[timed]), _norm(x[timed])
            tau[timed] = steps[timed] - 1 + (cfg.divergence_norm - before) / (after - before)
        if entered is not None:
            # an escape inside the norm after the first step, in its step
            timed = diverged & ~beyond & (steps > 1)
            tau[timed] = steps[timed] - 1 + entered[timed]
        diverged = diverged & ~failed
        # each rule overrides those set before it, which it precedes
        rule = np.full(len(done), "dwell", dtype=object)
        for mask, name in ((certified, "certified"), (diverged, "escape"), (beyond, "norm"),
                           (failed, "solver")):
            rule[mask] = name
        # a failed step stores nothing: the member ends on its last state
        for mask, end, states, n, t in (
            (failed, Termination.SOLVER_FAILURE, x_prev, steps - 1, steps - 1),
            (diverged, Termination.DIVERGED, x, steps, tau),
            (done & ~failed & ~diverged, Termination.CONVERGED_TO_SEP, x, steps, steps),
        ):
            for k, state, n_k, t_k, r in zip(
                self._ids[mask].tolist(), states[mask], n[mask], t[mask], rule[mask]
            ):
                ends[k] = RunEnd(end, state, float(n_k * cfg.step), float(t_k), r)
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
    real part above ``cfg.stability_tol``: the Jacobian is evaluated as the
    state is stored, and the eigenvalues of all of them are taken at the end
    in one call (:func:`spectral._eigvals` on the stack).  A ``p`` or
    ``sep`` of the wrong shape raises ``DimensionMismatch``.
    """
    p = _check_vector(p, sys.param_dim, "parameter")
    sep = _check_vector(sep, sys.state_dim, "sep")
    lock = Lockstep(sys, cfg)
    lock.add(p[None], sep[None])
    states, jacobians = [], []

    def store(x):
        states.append(x)
        if record_flags:
            jacobians.append(eval_jacobian(sys, x, p))

    store(lock._x[0].copy())
    ends = lock.step()
    while not ends:
        store(lock._x[0].copy())
        ends = lock.step()
    (end,) = ends.values()
    if end.termination in (Termination.DIVERGED, Termination.CONVERGED_TO_SEP):
        store(end.final_state.copy())
    flags = None
    if record_flags:
        flags = _eigvals(np.array(jacobians)).real.max(axis=-1) > cfg.stability_tol
    return Trajectory(
        states=np.asarray(states),
        step=cfg.step,
        parameter=p,
        termination=end.termination,
        instability_flags=flags,
    )

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
    conservative default suitable for the bundled models.
    """

    step: float
    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    max_time: float = 200.0
    sep_tol: float = 1e-6
    sep_dwell: int = 10
    divergence_norm: float = 1e6

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


def simulate(
    sys: ParameterizedSystem,
    p: np.ndarray,
    cfg: IntegratorConfig,
    sep: np.ndarray,
    record_flags: bool = False,
    stability_tol: float = DEFAULT_STABILITY_TOL,
) -> Trajectory:
    """Integrate from the system's initial condition and classify the outcome.

    The trajectory terminates with:

    - ``CONVERGED_TO_SEP`` once the state has stayed within ``cfg.sep_tol``
      of ``sep`` (angle-aware) for ``cfg.sep_dwell`` consecutive stored
      states;
    - ``DIVERGED`` as soon as the state norm exceeds ``cfg.divergence_norm``
      (checked before the proximity test, so a divergent state can never be
      mistaken for a converged one);
    - ``SOLVER_FAILURE`` if a step raises ``NewtonDivergence`` or
      ``NonFiniteOutput`` — the partial trajectory up to the last good state
      is returned (a singular Newton matrix counts as ``NewtonDivergence``);
    - ``MAX_TIME_REACHED`` after ``floor(max_time / step)`` steps without
      any of the above.

    With ``record_flags=True`` every stored state (including the initial one)
    gets a boolean marking whether the Jacobian there has an eigenvalue with
    real part above ``stability_tol``.
    """
    p = np.asarray(p, dtype=float)
    sep, wrap = np.asarray(sep, dtype=float), _wrap_index(sys)
    x = initial_state(sys, p)

    states = [x]
    flags = [is_unstable(eval_jacobian(sys, x, p), stability_tol)] if record_flags else None

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
            flags.append(is_unstable(eval_jacobian(sys, x, p), stability_tol))
        if _norm(x) > cfg.divergence_norm:
            termination = Termination.DIVERGED
            break
        if _norm(_offset(x, sep, wrap)) <= cfg.sep_tol:
            consec += 1
            if consec >= cfg.sep_dwell:
                termination = Termination.CONVERGED_TO_SEP
                break
        else:
            consec = 0

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
    :func:`simulate` would end it, under the same rules in the same order.

    Members step in lockstep (``lockstep`` true) on a batched system with
    an analytic Jacobian: each counts its own steps against the budget
    ``floor(max_time / step)``, and no states are kept, so memory is
    O(K n) for K live members.  On any other system :meth:`add` runs each
    member to its end with :func:`simulate`, and the next :meth:`step`
    reports those ends without stepping.
    """

    def __init__(self, sys: ParameterizedSystem, cfg: IntegratorConfig) -> None:
        self.sys, self.cfg = sys, cfg
        #: whether members advance together, one batched step for all; the
        #: batched Newton step needs the batched analytic Jacobian
        self.lockstep = sys.batched and sys.jacobian is not None
        self.budget = _step_budget(cfg)
        self._wrap = _wrap_index(sys)
        #: ends of members run to their end by add, not reported yet
        self._ended: dict[int, RunEnd] = {}
        #: steps the batch has taken since it was made
        self.steps = 0
        self._next_id = 0
        self._ids = np.zeros(0, dtype=int)
        self._x = np.zeros((0, sys.state_dim))
        self._p = np.zeros((0, sys.param_dim))
        self._sep = np.zeros((0, sys.state_dim))
        self._consec = np.zeros(0, dtype=int)
        self._start = np.zeros(0, dtype=int)
        self._deadline = np.inf

    def __len__(self) -> int:
        """Members started and not reported or dropped yet."""
        return len(self._ids) + len(self._ended)

    def add(self, p, sep) -> np.ndarray:
        """Start one member per row of ``p`` (K, m); ``sep`` (K, n) holds
        each member's stable equilibrium.  In lockstep the initial
        conditions are computed as one batch.  Either every member starts
        or, if that raises, none does.  Returns the members' ids."""
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
        self._next_id += len(p)
        self._ids = np.concatenate([self._ids, ids])
        self._x = np.concatenate([self._x, x])
        self._p = np.concatenate([self._p, p])
        self._sep = np.concatenate([self._sep, np.asarray(sep, dtype=float)])
        self._consec = np.concatenate([self._consec, np.zeros(len(p), dtype=int)])
        self._start = np.concatenate([self._start, np.full(len(p), self.steps)])
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
        beyond = _norm(x) > cfg.divergence_norm
        # the dwell counts consecutive states near the SEP and restarts at 0
        self._consec += 1
        self._consec *= _norm(_offset(x, self._sep, self._wrap)) <= cfg.sep_tol
        done = failed | beyond | (self._consec >= cfg.sep_dwell)
        if not np.count_nonzero(done):
            return ends
        steps = self.steps - self._start
        # a failed step first, then divergence, then the dwell: simulate's order
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

"""Implicit trapezoidal integration and trajectory classification.

The stepper is A-stable, which matters here: trajectories of interest pass
near saddle points and through strongly contracting regions where explicit
schemes at practical step sizes either blow up or demand tiny steps. Each
step solves the trapezoidal fixed-point equation with a Newton iteration
seeded at the forward-Euler predictor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NewtonDivergence, NonFiniteOutput
from .spectral import DEFAULT_STABILITY_TOL, is_unstable
from .system_core import (
    ParameterizedSystem,
    Termination,
    Trajectory,
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
        if not self.step > 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        if not self.newton_tol > 0.0:
            raise ValueError(f"newton_tol must be positive, got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ValueError(
                f"newton_max_iter must be at least 1, got {self.newton_max_iter}"
            )
        if not self.max_time > 0.0:
            raise ValueError(f"max_time must be positive, got {self.max_time}")
        if not self.sep_tol > 0.0:
            raise ValueError(f"sep_tol must be positive, got {self.sep_tol}")
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
    fx = sys.field(x, p)
    y = x + h * fx
    eye = np.eye(sys.state_dim)
    for _ in range(cfg.newton_max_iter):
        g = y - x - 0.5 * h * (fx + sys.field(y, p))
        if _norm(g) <= cfg.newton_tol:
            if not np.all(np.isfinite(y)):
                raise NonFiniteOutput("trapezoidal step produced non-finite state")
            return y
        jac = eval_jacobian(sys, y, p)
        try:
            y = y - np.linalg.solve(eye - 0.5 * h * jac, g)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergence(f"singular Newton matrix at y={y}: {exc}") from exc
    g = y - x - 0.5 * h * (fx + sys.field(y, p))
    if _norm(g) <= cfg.newton_tol:
        if not np.all(np.isfinite(y)):
            raise NonFiniteOutput("trapezoidal step produced non-finite state")
        return y
    raise NewtonDivergence(
        f"Newton iteration stalled at residual {_norm(g):.3e} "
        f"after {cfg.newton_max_iter} iterations (tol {cfg.newton_tol:.1e})"
    )


def step_trapezoidal_batch(
    sys: ParameterizedSystem,
    x: np.ndarray,
    p: np.ndarray,
    cfg: IntegratorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One trapezoidal step for each row of ``x`` (K, n) at the rows of ``p``.

    ``sys`` must be batched, with an analytic Jacobian.  Each member goes
    through the floating-point operations of :func:`step_trapezoidal`; a
    member whose residual has met the tolerance is frozen while the others
    iterate on.  Returns the new states and a boolean mask of the members
    whose step failed where the single step would raise (Newton stalled,
    singular Newton matrix, non-finite Jacobian or state); their rows are
    meaningless, and they do not hold up the other members.
    """
    h = cfg.step
    n = sys.state_dim
    fx = sys.field(x, p)
    y = x + h * fx
    eye = np.eye(n)
    pending = np.ones(len(x), dtype=bool)
    failed = np.zeros(len(x), dtype=bool)
    for _ in range(cfg.newton_max_iter):
        g = y - x - 0.5 * h * (fx + sys.field(y, p))
        pending &= ~(_norm(g) <= cfg.newton_tol)
        if not pending.any():
            break
        jac = np.asarray(sys.jacobian(y, p), dtype=float)
        if jac.shape != (len(x), n, n):
            raise DimensionMismatch(
                f"batched jacobian returned shape {jac.shape}, expected "
                f"{(len(x), n, n)}"
            )
        if not np.isfinite(jac).all():
            failed |= pending & ~np.isfinite(jac).all(axis=(1, 2))
            pending &= ~failed
        matrices = eye - 0.5 * h * jac
        try:
            delta = np.linalg.solve(matrices, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # some matrix of the stack is singular: solve member by member
            delta = np.zeros_like(g)
            for k in np.flatnonzero(pending):
                try:
                    delta[k] = np.linalg.solve(matrices[k], g[k])
                except np.linalg.LinAlgError:
                    failed[k] = True
            pending &= ~failed
        y = np.where(pending[:, None], y - delta, y)
    else:
        g = y - x - 0.5 * h * (fx + sys.field(y, p))
        failed |= pending & ~(_norm(g) <= cfg.newton_tol)
    if not np.isfinite(y).all():
        failed |= ~np.isfinite(y).all(axis=1)
    return y, failed


def _offset(sys: ParameterizedSystem, x, sep) -> np.ndarray:
    """``x - sep`` over the last axis, angles reduced to (-pi, pi]."""
    d = np.asarray(x, dtype=float) - np.asarray(sep, dtype=float)
    if sys.wrap_indices is not None:
        idx = list(sys.wrap_indices)
        d[..., idx] = (d[..., idx] + np.pi) % (2.0 * np.pi) - np.pi
    return d


def sep_distance(
    sys: ParameterizedSystem, x: np.ndarray, sep: np.ndarray
) -> float:
    """Euclidean distance from ``x`` to ``sep``, angle-aware.

    Coordinates listed in ``sys.wrap_indices`` are treated as angles: their
    difference is reduced to (-pi, pi] before taking the norm, so a state one
    full revolution away from the equilibrium counts as being at it.
    """
    return float(_norm(_offset(sys, x, sep)))


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
        if _norm(_offset(sys, x, sep)) <= cfg.sep_tol:
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


def simulate_batch(
    sys: ParameterizedSystem,
    p: np.ndarray,
    cfg: IntegratorConfig,
    sep: np.ndarray,
) -> list[RunEnd]:
    """Ends of one simulation per row of ``p`` (K, m), in lockstep.

    ``sys`` must be batched, with an analytic Jacobian, and ``sep`` holds
    each member's stable equilibrium (K, n).  Every member ends exactly as
    :func:`simulate` would end it, under the same rules in the same order,
    but no states are kept: memory is O(K n), and members that terminate
    leave the batch.
    """
    p = np.asarray(p, dtype=float)
    sep = np.asarray(sep, dtype=float)
    x = initial_state(sys, p)
    ends: dict[int, RunEnd] = {}
    live = np.arange(len(x))
    consec = np.zeros(len(x), dtype=int)
    n = 0
    for n in range(1, _step_budget(cfg) + 1):
        x_prev = x
        x, failed = step_trapezoidal_batch(sys, x, p, cfg)
        beyond = _norm(x) > cfg.divergence_norm
        consec = np.where(_norm(_offset(sys, x, sep)) <= cfg.sep_tol, consec + 1, 0)
        done = failed | beyond | (consec >= cfg.sep_dwell)
        if not done.any():
            continue
        # a failed step first, then divergence, then the dwell: simulate's order
        diverged = beyond & ~failed
        for mask, end in (
            (failed, Termination.SOLVER_FAILURE),
            (diverged, Termination.DIVERGED),
            (done & ~failed & ~diverged, Termination.CONVERGED_TO_SEP),
        ):
            # a failed step stores nothing: the member ends on its last state
            states, steps = (x_prev, n - 1) if end is Termination.SOLVER_FAILURE else (x, n)
            for k, state in zip(live[mask], states[mask]):
                ends[k] = RunEnd(end, state, steps * cfg.step)
        keep = ~done
        live, x, p, sep, consec = live[keep], x[keep], p[keep], sep[keep], consec[keep]
        if not len(live):
            break
    for k, state in zip(live, x):
        ends[k] = RunEnd(Termination.MAX_TIME_REACHED, state, n * cfg.step)
    return [ends[k] for k in range(len(ends))]

"""Recovery classification and boundary search along a parameter ray.

Recovery is a yes/no question per parameter value: does the post-disturbance
state settle back to the stable equilibrium?  The set of parameter values
that recover has a boundary, and :func:`ray_boundary_search` locates the
crossing of that boundary along a caller-supplied ray by an expansion phase
(doubling steps until a failing point is found) followed by multisection:
each refinement round probes the bracket at evenly spaced interior points,
as one lockstep batch when the system is batched.

The search is deliberately restricted to a one-dimensional ray.  A
closest-point search over the full parameter space is a separate
optimization problem; the ray keeps this artifact self-contained while still
exercising every downstream computation, and the interface leaves room to
plug in a smarter outer loop later.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    NewtonDivergence,
    NoBracket,
    NonFiniteOutput,
    NotRecovered,
    NotStable,
    UndeterminedAtBisection,
)
from .integrator import (
    IntegratorConfig,
    RunEnd,
    sep_distance,
    simulate,
    simulate_batch,
)
from .spectral import DEFAULT_STABILITY_TOL, spectral_abscissa
from .system_core import (
    ParameterizedSystem,
    Termination,
    _check_vector,
    eval_field,
    eval_jacobian,
)


#: sections per refinement round for batched systems: the 15 interior
#: points p_lo + (p_hi - p_lo) * (i / 16) are exact dyadic fractions of the
#: bracket and each round narrows it 16-fold.  Unbatched systems use 2
#: sections, i.e. bisection.
SECTIONS = 16


class Verdict(enum.Enum):
    """Outcome of a single recovery experiment."""

    RECOVERS = "Recovers"
    FAILS_TO_RECOVER = "FailsToRecover"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class RecoveryVerdict:
    """Verdict plus a short summary of the trajectory behind it.

    ``RECOVERS`` corresponds exactly to ``CONVERGED_TO_SEP``,
    ``FAILS_TO_RECOVER`` to ``DIVERGED``; everything else (time limit,
    solver failure) is ``UNDETERMINED`` rather than being coerced to a
    side.
    """

    verdict: Verdict
    termination: Termination
    final_distance: float
    elapsed_time: float


@dataclass(frozen=True)
class BoundarySearchResult:
    """Bracketed boundary crossing along a parameter ray.

    ``p_star`` is the last probed parameter that recovers (the endpoint just
    inside the recovery region); ``p_fail`` is the matching endpoint just
    outside.  ``bracket_width`` is ``norm(p_fail - p_star)``, ``iterations``
    counts refinement-phase probes, and ``history`` records every classified
    parameter in evaluation order (within a refinement round: ray order).
    ``sep_star`` is the stable equilibrium the search solved at ``p_star``.
    """

    p_star: np.ndarray
    p_fail: np.ndarray
    bracket_width: float
    iterations: int
    history: tuple[tuple[np.ndarray, Verdict], ...]
    sep_star: np.ndarray


def find_equilibrium(
    sys: ParameterizedSystem,
    p,
    x_guess=None,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> np.ndarray:
    """Newton-solve f(x, p) = 0 starting from ``x_guess`` (default: origin).

    The residual is checked before each update, so a guess that already
    satisfies the tolerance is returned unchanged.
    """
    p = _check_vector(p, sys.param_dim, "parameter")
    if x_guess is None:
        x = np.zeros(sys.state_dim)
    else:
        x = _check_vector(x_guess, sys.state_dim, "equilibrium guess").copy()
    try:
        for _ in range(max_iter):
            fx = eval_field(sys, x, p)
            if np.linalg.norm(fx) <= tol:
                return x
            jac = eval_jacobian(sys, x, p)
            x = x - np.linalg.solve(jac, fx)
        fx = eval_field(sys, x, p)
    except NonFiniteOutput as exc:
        raise NewtonDivergence(
            f"equilibrium iteration left the finite domain: {exc}"
        ) from exc
    except np.linalg.LinAlgError as exc:
        raise NewtonDivergence(
            f"singular Jacobian in equilibrium solve: {exc}"
        ) from exc
    if np.linalg.norm(fx) <= tol:
        return x
    raise NewtonDivergence(
        f"equilibrium solve stalled at residual {np.linalg.norm(fx):.3e} "
        f"after {max_iter} iterations (tol {tol:.1e})"
    )


def find_sep(
    sys: ParameterizedSystem,
    p,
    x_guess=None,
    tol: float = 1e-12,
    stability_tol: float = DEFAULT_STABILITY_TOL,
) -> np.ndarray:
    """Locate a stable equilibrium near ``x_guess``.

    Newton-solves the field to ``tol`` and then requires the Jacobian's
    spectral abscissa to be strictly below ``-stability_tol``; an
    equilibrium that is merely marginal (or an unstable one, e.g. a saddle
    the guess happened to fall toward) raises ``NotStable``.
    """
    x = find_equilibrium(sys, p, x_guess, tol)
    absc = spectral_abscissa(eval_jacobian(sys, x, np.asarray(p, dtype=float)))
    if not absc < -stability_tol:
        raise NotStable(
            f"equilibrium at {x} has spectral abscissa {absc:.3e} "
            f"(need < {-stability_tol:.1e})"
        )
    return x


def _verdict(termination: Termination) -> Verdict:
    if termination is Termination.CONVERGED_TO_SEP:
        return Verdict.RECOVERS
    if termination is Termination.DIVERGED:
        return Verdict.FAILS_TO_RECOVER
    return Verdict.UNDETERMINED


def classify_recovery(
    sys: ParameterizedSystem,
    p,
    cfg: IntegratorConfig,
    sep: np.ndarray,
    run: RunEnd | None = None,
) -> RecoveryVerdict:
    """Simulate from x0(p) and report whether the state returns to ``sep``.

    ``sep`` must be the stable equilibrium for this same ``p`` (it moves
    with the parameter, so re-solve per parameter value).  ``run`` is the
    end of a simulation of ``p`` already made, e.g. by
    :func:`~moi.integrator.simulate_batch`; without it ``p`` is simulated
    here.  Either way the verdict is the same.
    """
    if run is None:
        traj = simulate(sys, p, cfg, sep)
        run = RunEnd(traj.termination, traj.states[-1], traj.elapsed)
    return RecoveryVerdict(
        verdict=_verdict(run.termination),
        termination=run.termination,
        final_distance=sep_distance(sys, run.final_state, sep),
        elapsed_time=run.elapsed,
    )


def ray_boundary_search(
    sys: ParameterizedSystem,
    p0,
    direction,
    cfg: IntegratorConfig,
    param_tol: float = 1e-4,
    initial_step: float = 0.1,
    max_doublings: int = 40,
    sep_guess=None,
    stability_tol: float = DEFAULT_STABILITY_TOL,
) -> BoundarySearchResult:
    """Bracket the recovery boundary along ``p0 + s * direction``, s > 0.

    Expansion phase: probe s = initial_step, doubling until a probe fails to
    recover (raises ``NoBracket`` if the budget runs out first).

    Refinement phase (multisection): each round probes the interior points
    ``p_lo + (p_hi - p_lo) * (i / k)``, i = 1..k-1, computed directly in
    parameter space, with k = ``SECTIONS`` for a batched system with an
    analytic Jacobian (one lockstep batch per round) and k = 2 otherwise
    (bisection, one probe per round).  Walking the round's verdicts in ray
    order, the last recovering point before the first failing one becomes
    ``p_lo`` and that failing point ``p_hi``; points past it are kept in
    ``history`` but do not move the bracket.  Rounds repeat until the bracket's width in parameter norm
    is at most ``param_tol``.  Coinciding points are probed once, and
    points equal to an endpoint not at all, so with ``param_tol = 0.0`` the
    search ends when no representable parameter is left strictly between
    the endpoints, i.e. the returned endpoints are adjacent floating-point
    parameter values.

    The stable equilibrium is re-solved at every probed parameter value
    (``find_sep`` with ``stability_tol``), warm-started from the solution
    at the previously probed one.  A probe that classifies ``UNDETERMINED``
    where it would move the bracket aborts the search
    (``UndeterminedAtBisection``) rather than being coerced to either side;
    raising ``cfg.max_time`` is the honest remedy, since dwell times
    diverge near the boundary.
    """
    p0 = _check_vector(p0, sys.param_dim, "p0")
    direction = _check_vector(direction, sys.param_dim, "direction")
    if not np.any(direction != 0.0):
        raise ValueError("direction must be nonzero")
    if param_tol < 0.0:
        raise ValueError(f"param_tol must be >= 0, got {param_tol}")

    history: list[tuple[np.ndarray, Verdict]] = []

    def probe(p: np.ndarray, sep: np.ndarray) -> Verdict:
        v = classify_recovery(sys, p, cfg, sep).verdict
        history.append((p, v))
        return v

    sep = find_sep(sys, p0, sep_guess, stability_tol=stability_tol)
    if probe(p0, sep) is not Verdict.RECOVERS:
        raise NotRecovered(
            f"search origin p0={p0} does not recover; boundary search "
            "requires a recovering starting point"
        )

    p_lo, p_hi, sep_lo = p0, None, sep
    s = initial_step
    for _ in range(max_doublings):
        p_probe = p0 + s * direction
        sep = find_sep(sys, p_probe, sep, stability_tol=stability_tol)
        v = probe(p_probe, sep)
        if v is Verdict.RECOVERS:
            p_lo, sep_lo = p_probe, sep
        elif v is Verdict.FAILS_TO_RECOVER:
            p_hi = p_probe
            break
        else:
            raise UndeterminedAtBisection(
                f"expansion probe at p={p_probe} was undetermined "
                "(raise max_time to resolve)"
            )
        s *= 2.0
    if p_hi is None:
        raise NoBracket(
            f"no failing parameter within {max_doublings} doublings of "
            f"step {initial_step} along {direction} from {p0}"
        )

    # the lockstep Newton needs the batched analytic Jacobian
    batched = sys.batched and sys.jacobian is not None
    sections = SECTIONS if batched else 2
    iterations = 0
    while float(np.linalg.norm(p_hi - p_lo)) > param_tol:
        points = []
        for i in range(1, sections):
            p_i = p_lo + (p_hi - p_lo) * (i / sections)
            previous = points[-1] if points else p_lo
            if not (np.array_equal(p_i, previous) or np.array_equal(p_i, p_hi)):
                points.append(p_i)
        if not points:
            # No representable parameter strictly between the endpoints:
            # the bracket is down to adjacent doubles.
            break
        seps = []
        for p_i in points:
            sep = find_sep(sys, p_i, sep, stability_tol=stability_tol)
            seps.append(sep)
        if batched:
            runs = simulate_batch(sys, np.array(points), cfg, np.array(seps))
        else:
            runs = [None]
        verdicts = [
            classify_recovery(sys, p_i, cfg, sep_i, run).verdict
            for p_i, sep_i, run in zip(points, seps, runs)
        ]
        history.extend(zip(points, verdicts))
        iterations += len(points)
        for p_i, sep_i, v in zip(points, seps, verdicts):
            if v is Verdict.RECOVERS:
                p_lo, sep_lo = p_i, sep_i
            elif v is Verdict.FAILS_TO_RECOVER:
                p_hi = p_i
                break
            else:
                raise UndeterminedAtBisection(
                    f"refinement probe at p={p_i} was undetermined "
                    "(raise max_time to resolve)"
                )

    return BoundarySearchResult(
        p_star=p_lo,
        p_fail=p_hi,
        bracket_width=float(np.linalg.norm(p_hi - p_lo)),
        iterations=iterations,
        history=tuple(history),
        sep_star=sep_lo,
    )

"""Recovery classification and boundary search along a parameter ray.

Recovery is a yes/no question per parameter value: does the post-disturbance
state settle back to the stable equilibrium?  The set of parameter values
that recover has a boundary, and :func:`ray_boundary_search` locates the
crossing of that boundary along a caller-supplied ray by an expansion phase
(doubling steps until a failing point is found) followed by multisection:
each refinement round probes the bracket at interior points, placed around
the crossing that the escape times of the previous round's failing probes
predict (on consecutive doubles once that crossing is known to a few units
in the last place), or evenly spaced when they predict none.  The probes
run on one :class:`~moi.integrator.Lockstep`.

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
    MoiError,
    NewtonDivergence,
    NoBracket,
    NonFiniteOutput,
    NotRecovered,
    NotStable,
    ParamOutOfRange,
    UndeterminedAtBisection,
)
from .integrator import (
    IntegratorConfig,
    Lockstep,
    RunEnd,
    sep_distance,
    simulate,
)
from .spectral import DEFAULT_STABILITY_TOL, spectral_abscissa
from .system_core import (
    ParameterizedSystem,
    Termination,
    _check_vector,
    eval_field,
    eval_jacobian,
    initial_state,
)


#: sections per refinement round: the 15 uniform interior points
#: p_lo + (p_hi - p_lo) * (i / 16) are exact dyadic fractions of the
#: bracket and each round narrows it 16-fold; a guided round probes as many
SECTIONS = 16

#: the expansion probes s = INITIAL_STEP * 2^i along ``direction``,
#: i < MAX_DOUBLINGS, so the direction's length sets the first step
INITIAL_STEP, MAX_DOUBLINGS = 0.1, 40

#: residual norm at which :func:`find_equilibrium` stops, and its budget of
#: Newton updates
_EQUILIBRIUM_TOL = 1e-12
_EQUILIBRIUM_MAX_ITER = 50


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


def find_equilibrium(sys: ParameterizedSystem, p, x_guess=None) -> np.ndarray:
    """Newton-solve f(x, p) = 0 starting from ``x_guess`` (default: origin).

    The residual norm is checked against ``_EQUILIBRIUM_TOL`` before each
    update, so a guess that already satisfies it is returned unchanged;
    ``_EQUILIBRIUM_MAX_ITER`` updates that do not reach it raise
    ``NewtonDivergence``.
    """
    p = _check_vector(p, sys.param_dim, "parameter")
    if x_guess is None:
        x = np.zeros(sys.state_dim)
    else:
        x = _check_vector(x_guess, sys.state_dim, "equilibrium guess").copy()
    try:
        for it in range(_EQUILIBRIUM_MAX_ITER + 1):
            fx = eval_field(sys, x, p)
            residual = np.linalg.norm(fx)
            if residual <= _EQUILIBRIUM_TOL:
                return x
            if it == _EQUILIBRIUM_MAX_ITER:
                raise NewtonDivergence(
                    f"equilibrium solve stalled at residual {residual:.3e} "
                    f"after {it} iterations (tol {_EQUILIBRIUM_TOL:.1e})"
                )
            x = x - np.linalg.solve(eval_jacobian(sys, x, p), fx)
    except NonFiniteOutput as exc:
        raise NewtonDivergence(
            f"equilibrium iteration left the finite domain: {exc}"
        ) from exc
    except np.linalg.LinAlgError as exc:
        raise NewtonDivergence(
            f"singular Jacobian in equilibrium solve: {exc}"
        ) from exc


def find_sep(
    sys: ParameterizedSystem,
    p,
    x_guess=None,
    *,
    stability_tol: float = DEFAULT_STABILITY_TOL,
) -> np.ndarray:
    """Locate a stable equilibrium near ``x_guess``.

    Newton-solves the field (:func:`find_equilibrium`) and then requires
    the Jacobian's spectral abscissa to be strictly below
    ``-stability_tol``; an equilibrium that is merely marginal (or an
    unstable one, e.g. a saddle the guess happened to fall toward) raises
    ``NotStable``.
    """
    x = find_equilibrium(sys, p, x_guess)
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
    a :class:`~moi.integrator.Lockstep`; without it ``p`` is simulated
    here.  Either way the verdict is the same.  A ``p`` or ``sep`` of the
    wrong shape raises ``DimensionMismatch``.
    """
    p = _check_vector(p, sys.param_dim, "parameter")
    sep = _check_vector(sep, sys.state_dim, "sep")
    if run is None:
        traj = simulate(sys, p, cfg, sep)
        termination, final, elapsed = traj.termination, traj.states[-1], traj.elapsed
    else:
        termination, final, elapsed = run.termination, run.final_state, run.elapsed
    return RecoveryVerdict(
        verdict=_verdict(termination),
        termination=termination,
        final_distance=sep_distance(sys, final, sep),
        elapsed_time=elapsed,
    )


def _points_at(p_lo: np.ndarray, p_hi: np.ndarray, fractions) -> list:
    """The points p_lo + (p_hi - p_lo) * t for the increasing fractions t,
    each once, leaving out points equal to an endpoint."""
    points: list = []
    for t in fractions:
        p_t = p_lo + (p_hi - p_lo) * t
        previous = points[-1] if points else p_lo
        if not (np.array_equal(p_t, previous) or np.array_equal(p_t, p_hi)):
            points.append(p_t)
    return points


def _round_points(p_lo: np.ndarray, p_hi: np.ndarray) -> list:
    """The points p_lo + (p_hi - p_lo) * (i / SECTIONS), i = 1..SECTIONS-1,
    each once, leaving out points equal to an endpoint."""
    return _points_at(p_lo, p_hi, [i / SECTIONS for i in range(1, SECTIONS)])


#: fewest diverged members that :func:`_fit_crossing` fits
FIT_MIN_MEMBERS = 4
#: largest RMS residual, in steps, of a fit that places a round
FIT_MAX_RMS = 1.0
#: offsets 1 - c searched by :func:`_fit_crossing` first, in bracket
#: widths; a best offset at either end of the grid is no prediction
_FIT_GRID = np.logspace(-12.0, 2.0, 37)
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
#: brackets at most this many units in the last place wide are split
#: uniformly: a guided round could not place its points apart there
GUIDE_MIN_ULPS = 16


def _line_fits(s: np.ndarray, n: np.ndarray, offsets: np.ndarray) -> tuple:
    """Least-squares lines n = a - b ln(s + offset), one per offset: their
    slopes b and residual sums of squares."""
    x = np.log(s + offsets[:, None])
    x = x - x.mean(axis=1, keepdims=True)
    dn = n - n.mean()
    # positions that coincide in log leave x all zero: a flat line, b = 0
    sxx, sxn = np.maximum((x * x).sum(axis=1), np.finfo(float).tiny), x @ dn
    return -sxn / sxx, np.maximum(dn @ dn - sxn * sxn / sxx, 0.0)


def _fit_crossing(t, n):
    """The crossing c in (0, 1) that escape steps ``n`` of diverged members
    at bracket positions ``t`` >= 1 predict, or None.

    Near a saddle's stable manifold a trajectory lingers for a time that
    grows like -ln|p - p*| / lambda_u, so the steps fit n = a - b ln(t - c)
    with b > 0, t measured in bracket widths from p_lo.  For each offset
    1 - c the best a and b are closed form; the offset is searched over a
    log grid, then by golden section between the best grid point's
    neighbours.  Fewer than ``FIT_MIN_MEMBERS`` members, a slope b <= 0,
    an RMS residual above ``FIT_MAX_RMS`` steps or a crossing outside
    (0, 1) give None.
    """
    t, n = np.asarray(t, dtype=float), np.asarray(n, dtype=float)
    if len(t) < FIT_MIN_MEMBERS:
        return None
    s = t - 1.0
    _, rss = _line_fits(s, n, _FIT_GRID)
    best = int(np.argmin(rss))
    if best in (0, len(_FIT_GRID) - 1):
        return None
    lo, hi = np.log(_FIT_GRID[best - 1]), np.log(_FIT_GRID[best + 1])
    for _ in range(40):
        left, right = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        _, (rss_left, rss_right) = _line_fits(s, n, np.exp([left, right]))
        if rss_left <= rss_right:
            hi = right
        else:
            lo = left
    offset = float(np.exp((lo + hi) / 2.0))
    (slope,), (rss,) = _line_fits(s, n, np.array([offset]))
    c = 1.0 - offset
    if not (slope > 0.0 and rss <= FIT_MAX_RMS**2 * len(n) and 0.0 < c < 1.0):
        return None
    return c


def _guided_fractions(c: float) -> list:
    """Bracket fractions of a round placed around the predicted crossing
    ``c``: the midpoint and c +- eps 3^k, k = 0..6, eps = 1e-3 (1 - c),
    those strictly inside (0, 1), in increasing order."""
    eps = 1e-3 * (1.0 - c)
    around = [c + sign * eps * 3.0**k for k in range(7) for sign in (-1.0, 1.0)]
    return sorted({t for t in [0.5] + around if 0.0 < t < 1.0})


def _ulps(p_lo: np.ndarray, p_hi: np.ndarray) -> float:
    """The bracket's widest coordinate span in units in the last place of
    that coordinate's larger end."""
    span = np.abs(p_hi - p_lo) / np.spacing(np.maximum(np.abs(p_lo), np.abs(p_hi)))
    return float(span.max())


def _next_points(p_lo, p_hi, tail_points, tail_ends) -> list:
    """Interior points of the round that refines the bracket (p_lo, p_hi).

    ``tail_points`` and ``tail_ends`` are the members of the round just
    walked from its key on (the first of them is ``p_hi``), with their
    :class:`~moi.integrator.RunEnd`; after an expansion group they are
    empty.  When their diverged members' end times (``RunEnd.tau``) fit
    the saddle law (:func:`_fit_crossing`), the round is placed around the
    predicted crossing c: on the SECTIONS - 1 consecutive doubles centred
    on it (those inside the bracket) once the guided round's first rung,
    1e-3 (1 - c) of the bracket from c, is at most (SECTIONS - 2) / 2
    units in the last place, and on :func:`_guided_fractions` before.
    Otherwise, and on brackets of at most ``GUIDE_MIN_ULPS`` units in the
    last place, it takes the uniform points of :func:`_round_points`.
    """
    ulps = _ulps(p_lo, p_hi)
    if ulps > GUIDE_MIN_ULPS:
        width = float(np.linalg.norm(p_hi - p_lo))
        failing = [
            (float(np.linalg.norm(p - p_lo)) / width, end.tau)
            for p, end in zip(tail_points, tail_ends)
            if end.termination is Termination.DIVERGED
        ]
        c = _fit_crossing(*zip(*failing)) if failing else None
        if c is not None:
            half = (SECTIONS - 2) // 2
            if 1e-3 * (1.0 - c) * ulps > half:
                return _points_at(p_lo, p_hi, _guided_fractions(c))
            # unit steps of the grid of ``ulps`` steps: consecutive doubles
            centre = round(c * ulps)
            grid = range(max(centre - half, 1), min(centre + half + 1, int(np.ceil(ulps))))
            return _points_at(p_lo, p_hi, [i / ulps for i in grid])
    return _round_points(p_lo, p_hi)


def ray_boundary_search(
    sys: ParameterizedSystem,
    p0,
    direction,
    cfg: IntegratorConfig,
    param_tol: float = 1e-4,
) -> BoundarySearchResult:
    """Bracket the recovery boundary along ``p0 + s * direction``, s > 0.

    Expansion phase: probe s = ``INITIAL_STEP`` (0.1), doubling until a
    probe fails to recover.  ``NoBracket`` is raised if ``MAX_DOUBLINGS``
    (40) probes recover, or if they recover up to one whose SEP solve
    raises ``ParamOutOfRange`` (its cause; a ``p0`` there raises that).

    Refinement phase (multisection): each round probes up to k - 1 interior
    points of the bracket, computed directly in parameter space, with
    k = ``SECTIONS``.  By default a round takes the uniform points
    ``p_lo + (p_hi - p_lo) * (i / k)``, i = 1..k-1.  A refinement round
    that follows another one is guided instead when the members of that
    round from its key on (the key being the new ``p_hi``) include at
    least ``FIT_MIN_MEMBERS`` that diverged: near the boundary a failing
    trajectory lingers by the controlling saddle for a time that
    grows like -ln|p - p*| / lambda_u, so their end times n are fitted to
    n = a - b ln(t - c), t the position in the new bracket in bracket
    widths.  A member that diverged after its first step, in its escape set
    or beyond the divergence norm, is timed within its last step
    (``RunEnd.tau``), the others by their step count.  The round then
    probes the midpoint and c +- eps 3^j, j = 0..6, eps = 1e-3 (1 - c),
    those strictly inside the bracket; once eps is at most (k - 2) / 2
    units in the last place, it probes instead the k - 1 consecutive
    doubles centred on c, those strictly inside the bracket.  The
    guard falls back to the uniform points when the fit has b <= 0, an
    RMS residual above ``FIT_MAX_RMS`` steps or c outside (0, 1), and once
    the bracket is at most ``GUIDE_MIN_ULPS`` units in the last place wide,
    where one uniform round reaches adjacent doubles.  The placement is a
    function of the round's points and those members' ends alone, so a
    round's successor starts only after they have all ended.
    Walking the round's verdicts in ray order, the last recovering point
    before the first failing one becomes ``p_lo`` and that failing point
    ``p_hi``; points past it are kept in ``history`` but do not move the
    bracket.  Rounds repeat until the bracket's width in parameter norm is
    at most ``param_tol``.  Coinciding points are probed once, and points
    equal to an endpoint not at all, so with ``param_tol = 0.0`` the search
    ends when no representable parameter is left strictly between the
    endpoints, i.e. the returned endpoints are adjacent floating-point
    parameter values.

    The stable equilibrium is re-solved at every probed parameter value
    (``find_sep`` with ``cfg.stability_tol``): from the zero state at
    ``p0``, then warm-started from the solution at the previously probed
    one.  A probe that classifies ``UNDETERMINED`` where it would move the
    bracket, the origin included, aborts the search
    (``UndeterminedAtBisection``) rather than being coerced to either side;
    raising ``cfg.max_time`` is the honest remedy, since dwell times
    diverge near the boundary.

    The whole search runs on one :class:`~moi.integrator.Lockstep`.  The
    origin and up to k - 1 doublings start together as one expansion
    group, and a round's successor starts as soon as the round's bracket
    is final, or earlier on a provisional bracket: its first failing member
    in ray order has ended, so have all members after it, and that has held
    for ``elapsed // k`` of the round's steps and for at least ``SECTIONS``
    steps (members still running before it are assumed to recover).
    Verdicts are still committed in the order above, so the result,
    ``history`` included, is that of a search that starts each group only
    after committing the one before: work started on a bracket that turns
    out wrong is dropped unclassified and restarted, expansion members
    past the first failing one are dropped unclassified, and an error of
    ``find_sep`` (or of the initial conditions) in a group is raised only
    if the commit reaches it.
    """
    p0 = _check_vector(p0, sys.param_dim, "p0")
    direction = _check_vector(direction, sys.param_dim, "direction")
    if not np.any(direction != 0.0):
        raise ValueError("direction must be nonzero")
    if not param_tol >= 0.0:
        raise ValueError(f"param_tol must be >= 0, got {param_tol}")
    return _PipelinedSearch(sys, cfg, p0, direction, param_tol).run()


def _hold_end(since: int) -> int:
    """The round step e from which a provisional key first seen at round
    step ``since`` starts its successor: the smallest e with
    e - since >= e // ``SECTIONS`` and e - since >= ``SECTIONS``.  The floor
    keeps a short round, where e // SECTIONS is a few steps, from starting
    a successor that a member ending a step or two later would discard."""
    return since + max(max(since - 1, 0) // (SECTIONS - 1), SECTIONS)


class _Round:
    """One group of probes of the pipelined search, started together.

    An expansion group (``hi`` None) probes doublings along the ray, the
    first group the origin too (``lo`` None); a refinement round probes the
    interior points of the bracket (``lo``, ``hi``), ``lo`` being a
    (parameter, SEP) pair.  Its members have the Lockstep ids ``first``,
    ``first + 1``, ...  A round's walk in ray order stops at ``key``: its
    first non-recovering member, or ``len(points)`` if all recover; an
    expansion group forgets its members past a final key.  ``held`` is an
    error of find_sep or of the initial conditions met past ``points``;
    the round started at batch step ``start``.
    """

    def __init__(self, lo, hi, points, seps, held, first, start):
        self.lo, self.hi, self.points, self.seps = lo, hi, points, seps
        self.held, self.first, self.start = held, first, start
        self.ends: list = [None] * len(points)
        self.key = None
        #: provisional key, and the batch step at which its hold ends
        self.guess, self.ready = None, 0
        #: the key the successor was launched for, even if it started nothing
        self.launched = None

    def drop(self, lock: Lockstep, keep: int = 0) -> None:
        """Remove the members from index ``keep`` on from ``lock`` and forget
        them."""
        lock.drop(range(self.first + keep, self.first + len(self.ends)))
        del self.points[keep:], self.seps[keep:], self.ends[keep:]


def _own_failure(sys: ParameterizedSystem, points: list) -> tuple:
    """The index of the first of ``points`` whose own initial condition
    raises, and its error, without traceback; (0, None) if none does.
    Call it outside an exception handler: the error would keep the handled
    one, and its traceback, as its context."""
    for i, p in enumerate(points):
        try:
            initial_state(sys, p)
        except MoiError as exc:
            return i, exc.with_traceback(None)
    return 0, None


def _walk(ends: list) -> tuple:
    """(final key, provisional key) of a round from its members' ends.

    The key is final once every member up to its first non-recovering one
    has ended (or all have ended, recovering).  Until then the provisional
    key is the first ended non-recovering member, if it diverged and every
    member after it has ended; else None.
    """
    for i, end in enumerate(ends):
        if end is None:
            break
        if end.termination is not Termination.CONVERGED_TO_SEP:
            return i, None
    else:
        return len(ends), None
    for j in range(i + 1, len(ends)):
        end = ends[j]
        if end is not None and end.termination is not Termination.CONVERGED_TO_SEP:
            diverged = end.termination is Termination.DIVERGED
            return None, j if diverged and None not in ends[j + 1 :] else None
    return None, None


def _raise_held(r: _Round):
    """Raise the round's held error and keep no reference to it, which
    its traceback would tie into a cycle with the frames it passes."""
    held, r.held = r.held, None
    try:
        raise held
    finally:
        del held


class _PipelinedSearch:
    """:func:`ray_boundary_search` on one Lockstep.

    ``chain`` holds the started rounds whose verdicts are not committed
    yet, each the successor of the one before it.
    """

    def __init__(self, sys, cfg, p0, direction, param_tol):
        self.sys, self.cfg, self.p0, self.direction = sys, cfg, p0, direction
        self.param_tol = param_tol
        self.s, self.doublings_left = INITIAL_STEP, MAX_DOUBLINGS
        self.lock = Lockstep(sys, cfg)
        self.chain: list[_Round] = []
        self.history: list[tuple[np.ndarray, Verdict]] = []
        self.iterations = 0

    def run(self) -> BoundarySearchResult:
        self._expand(None, None)
        due = np.inf
        while True:
            r = self.chain[0]
            # a round commits once its walk is final and every member has
            # ended; a round left without members by a held error commits
            # at once
            if not r.ends or r.key is not None and None not in r.ends:
                result = self._commit(self.chain.pop(0))
                if result is not None:
                    return result
                continue
            ends = self.lock.step()
            for k, end in ends.items():
                for r in self.chain:
                    if 0 <= k - r.first < len(r.ends):
                        r.ends[k - r.first] = end
            if ends or self.lock.steps >= due:
                due = self._review()

    def _expand(self, lo, warm) -> None:
        """Start the next expansion group: up to SECTIONS - 1 doublings,
        after the origin if ``lo`` is None."""
        points = [] if lo is not None else [self.p0]
        for _ in range(min(SECTIONS - 1, self.doublings_left)):
            points.append(self.p0 + self.s * self.direction)
            self.s *= 2.0
            self.doublings_left -= 1
        self._start(lo, None, points, warm)

    def _start(self, lo, hi, points, warm) -> None:
        """Solve the members' SEPs in order, warm-started from ``warm``, and
        start the round.  A refinement round whose solve or initial
        conditions fail probes nothing; an expansion group stops before
        the first point whose solve, or whose own initial condition, fails,
        holding the initial condition's error where both fail, and holds a
        ``ParamOutOfRange`` met past the origin as ``NoBracket``."""
        # A held error is raised only if the commit gets to it.  Its
        # traceback would tie this frame, and the search, into a cycle.
        seps, held, first = [], None, 0
        for p in points:
            try:
                warm = find_sep(self.sys, p, warm, stability_tol=self.cfg.stability_tol)
            except MoiError as exc:
                held = exc.with_traceback(None)
                break
            seps.append(warm)
        if held is not None and hi is not None:
            seps = []  # a refinement round solves every SEP before it probes
        elif held is not None:
            own = _own_failure(self.sys, [points[len(seps)]])[1]
            held = held if own is None else own
        points = points[: len(seps)]
        while points:
            try:
                first = int(self.lock.add(np.array(points), np.array(seps))[0])
                break
            except MoiError as exc:
                held = exc.with_traceback(None)
            count, own = _own_failure(self.sys, points) if hi is None else (0, None)
            held = held if own is None else own
            points, seps = points[:count], seps[:count]
        if hi is None and isinstance(held, ParamOutOfRange) and (points or lo is not None):
            # raised only if every point before it recovers
            last = points[-1] if points else lo[0]
            edge = NoBracket(
                f"no failing parameter along {self.direction} from {self.p0} up "
                f"to p={last}, the edge of the parameter domain ({held})"
            )
            edge.__cause__, held = held, edge
        self.chain.append(_Round(lo, hi, points, seps, held, first, self.lock.steps))

    def _launch(self, r: _Round, key: int) -> None:
        """Record that ``r``'s successor is launched for a walk that stops at
        ``key``, and start it if there is anything left to probe."""
        r.launched = key
        # an undetermined member or a failing origin ends the search
        if key < len(r.ends) and (
            r.ends[key].termination is not Termination.DIVERGED or not key and r.lo is None
        ):
            return
        if r.hi is None and key == len(r.points):
            if r.held is None and self.doublings_left:
                self._expand((r.points[-1], r.seps[-1]), r.seps[-1])
            return
        lo, hi, warm = self._bracket(r, key)
        if float(np.linalg.norm(hi - lo[0])) > self.param_tol:
            # an expansion group's members past its key are dropped: it
            # leaves the next round no escape times to fit
            tail = (r.points[key:], r.ends[key:]) if r.hi is not None else ((), ())
            points = _next_points(lo[0], hi, *tail)
            if points:
                self._start(lo, hi, points, warm)

    def _bracket(self, r: _Round, key: int) -> tuple:
        """(p_lo, sep_lo), p_hi and the next warm start after ``r``'s walk."""
        lo = (r.points[key - 1], r.seps[key - 1]) if key else r.lo
        hi = r.points[key] if key < len(r.points) else r.hi
        warm = r.seps[-1] if r.hi is not None else r.seps[key]
        return lo, hi, warm

    def _review(self) -> float:
        """Walk the rounds whose key is not final, discard successors started
        for another key and start due ones.  Returns the batch step at which
        the next provisional key has held long enough."""
        due = np.inf
        lock, chain = self.lock, self.chain
        for i, r in enumerate(chain):
            if r.key is None and r.ends:
                final, guess = _walk(r.ends)
                if final is not None:
                    r.key = final
                    if r.hi is None:
                        # expansion members past the first failure go unclassified
                        r.drop(lock, final + 1)
                elif guess != r.guess:
                    r.guess = guess
                    r.ready = r.start + _hold_end(lock.steps - r.start)
            key = r.guess if r.key is None else r.key
            if r.launched is not None and r.launched != key:
                for dropped in chain[i + 1 :]:
                    dropped.drop(lock)
                del chain[i + 1 :]
                r.launched = None
            # a key launches once every member from it on has ended (its
            # successor is placed from their ends), a provisional one also
            # once its hold has passed
            if key is None or r.launched is not None or None in r.ends[key:]:
                continue
            if r.key is None and lock.steps < r.ready:
                due = min(due, r.ready)
            else:
                self._launch(r, key)
        return due

    def _commit(self, r: _Round):
        """Classify ``r``'s members in ray order and settle its walk.  Returns
        the result once the search is done."""
        if r.key is None:
            _raise_held(r)
        n = len(r.points)
        verdicts = [
            classify_recovery(self.sys, p, self.cfg, sep, run).verdict
            for p, sep, run in zip(r.points, r.seps, r.ends)
        ]
        self.history.extend(zip(r.points, verdicts))
        if r.hi is not None:
            self.iterations += n
        # an undetermined origin is reported as such, not as a failing one
        if r.key < n and verdicts[r.key] is not Verdict.FAILS_TO_RECOVER:
            phase = "expansion" if r.hi is None else "refinement"
            raise UndeterminedAtBisection(
                f"{phase} probe at p={r.points[r.key]} was undetermined "
                "(raise max_time to resolve)"
            )
        if r.lo is None and r.key == 0:
            raise NotRecovered(
                f"search origin p0={self.p0} does not recover; boundary search "
                "requires a recovering starting point"
            )
        if self.chain:
            return None
        if r.hi is None and r.key == n:
            if r.held is not None:
                _raise_held(r)
            raise NoBracket(
                f"no failing parameter within {MAX_DOUBLINGS} doublings of "
                f"step {INITIAL_STEP} along {self.direction} from {self.p0}"
            )
        (p_lo, sep_lo), p_hi, _ = self._bracket(r, r.key)
        return BoundarySearchResult(
            p_star=p_lo,
            p_fail=p_hi,
            bracket_width=float(np.linalg.norm(p_hi - p_lo)),
            iterations=self.iterations,
            history=tuple(self.history),
            sep_star=sep_lo,
        )

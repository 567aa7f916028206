"""Averaged trajectory Jacobians and the direction of instability.

Near the recovery boundary the post-disturbance trajectory lingers close to
the unstable equilibrium that organizes the escape, so the mean of the field
Jacobians along the trajectory — cut off at the last state whose Jacobian is
unstable — approaches the Jacobian at that equilibrium.  Its unique unstable
eigenvector is the direction along which the system would leave the region
of attraction.  This module computes that average, extracts the eigenvector,
and runs step-size sweeps that expose how both converge as h shrinks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import MoiError, NeverUnstable, NotRecovered
from .integrator import IntegratorConfig, simulate
# Nothing here calls find_sep any more, but perfbench/bench_tracer.py patches
# moi.instability_mode.find_sep, so the name stays importable.
from .recovery_boundary import (  # noqa: F401
    BoundarySearchResult,
    find_sep,
    ray_boundary_search,
)
from .spectral import unstable_count, unstable_eigenpair
from .system_core import (
    ParameterizedSystem,
    Termination,
    _check_vector,
    eval_jacobian,
)


class Normalization(enum.Enum):
    """How the Jacobian sum over states 0..j is turned into an average.

    ``FINAL_INDEX`` divides the (j+1)-term sum by j — the literal defining
    formula of the method.  ``SAMPLE_COUNT`` divides by j+1, a true mean
    over the sampled states.  The two differ by a factor (j+1)/j, which is
    negligible for the large j arising near the boundary but matters in
    small synthetic tests.
    """

    FINAL_INDEX = "paper"
    SAMPLE_COUNT = "samples"


@dataclass(frozen=True)
class AveragedJacobian:
    """Mean of the field Jacobians along a recovered trajectory.

    ``jacobian_sum`` is the raw (unnormalized) sum over states
    0..last_unstable_index; ``matrix`` is that sum divided by
    ``last_unstable_index`` (FINAL_INDEX) or by ``last_unstable_index + 1``
    (SAMPLE_COUNT).  Keeping the raw sum makes the normalization relation
    exactly checkable.
    """

    matrix: np.ndarray
    jacobian_sum: np.ndarray
    last_unstable_index: int
    samples_total: int
    parameter: np.ndarray
    step: float
    normalization: Normalization


@dataclass(frozen=True)
class ModeResult:
    """Unstable eigenpair of an averaged Jacobian.

    ``eigenvector`` has unit 2-norm and canonical sign (largest-magnitude
    component positive); ``residual`` is ``norm(A v - lambda v)`` for the
    averaged matrix; ``unstable_count`` counts the averaged matrix's
    eigenvalues with real part above the stability tolerance (1 when the
    parameter is close enough to the boundary).
    """

    eigenvalue: float
    eigenvector: np.ndarray
    averaged: AveragedJacobian
    residual: float
    unstable_count: int


@dataclass(frozen=True)
class BoundaryMode:
    """A boundary search together with the mode computed at its endpoint."""

    mode: ModeResult
    search: BoundarySearchResult


def last_unstable_index(flags) -> int:
    """Largest index n >= 1 at which ``flags[n]`` is true.

    Index 0 (the initial condition) is deliberately excluded as a candidate
    — the window must end strictly after the trajectory starts — though the
    initial state still contributes the n=0 term of the Jacobian sum.
    Raises ``NeverUnstable`` when no flag at index >= 1 is set: the
    trajectory never left the stable-Jacobian region, so an average aimed
    at the boundary equilibrium would be meaningless.
    """
    flags = np.asarray(flags, dtype=bool)
    if flags.ndim != 1 or flags.size == 0:
        raise ValueError("flags must be a non-empty 1-D boolean sequence")
    nz = np.flatnonzero(flags[1:])
    if nz.size == 0:
        raise NeverUnstable(
            "no trajectory state beyond the initial condition has an "
            "unstable Jacobian"
        )
    return int(nz[-1] + 1)


def average_jacobian(
    sys: ParameterizedSystem,
    p,
    cfg: IntegratorConfig,
    sep: np.ndarray,
    normalization: Normalization = Normalization.FINAL_INDEX,
) -> AveragedJacobian:
    """Simulate from x0(p) and average the Jacobians over states 0..j.

    The trajectory must converge to ``sep`` (otherwise ``NotRecovered``);
    j is the last index with a Jacobian unstable beyond
    ``cfg.stability_tol``.  Terms are accumulated in index order so
    repeated runs are bitwise identical.
    """
    p = _check_vector(p, sys.param_dim, "parameter")
    traj = simulate(sys, p, cfg, sep, record_flags=True)
    if traj.termination is not Termination.CONVERGED_TO_SEP:
        raise NotRecovered(
            f"trajectory terminated with {traj.termination.value} after "
            f"{traj.elapsed:.3g} s; the averaging window requires recovery"
        )
    j = last_unstable_index(traj.instability_flags)
    total = np.zeros((sys.state_dim, sys.state_dim))
    for k in range(j + 1):
        total += eval_jacobian(sys, traj.states[k], p)
    if normalization is Normalization.FINAL_INDEX:
        matrix = total / j
    else:
        matrix = total / (j + 1)
    return AveragedJacobian(
        matrix=matrix,
        jacobian_sum=total,
        last_unstable_index=j,
        samples_total=len(traj),
        parameter=p,
        step=cfg.step,
        normalization=normalization,
    )


def mode_of_instability(
    sys: ParameterizedSystem,
    p,
    cfg: IntegratorConfig,
    sep: np.ndarray,
) -> ModeResult:
    """Unstable eigenpair of the averaged Jacobian at the given parameter.

    The average divides by j (``Normalization.FINAL_INDEX``); the
    ``SAMPLE_COUNT`` average is that matrix times j/(j+1), with the same
    eigenvectors.  This is the literal computation at ``p``; it raises
    ``NoUnstableEigenvalue`` / ``MultipleUnstableEigenvalues`` when ``p`` is
    not close enough to the recovery boundary for the average to have a
    single unstable direction.  Use :func:`mode_at_boundary` to refine a
    starting parameter to the boundary first.
    """
    avg = average_jacobian(sys, p, cfg, sep)
    pair = unstable_eigenpair(avg.matrix, cfg.stability_tol)
    return ModeResult(
        eigenvalue=float(pair.value.real),
        eigenvector=pair.vector,
        averaged=avg,
        residual=pair.residual,
        unstable_count=unstable_count(avg.matrix, cfg.stability_tol),
    )


def mode_at_boundary(
    sys: ParameterizedSystem,
    p0,
    direction,
    cfg: IntegratorConfig,
    param_tol: float = 0.0,
) -> BoundaryMode:
    """Refine ``p0`` to the recovery boundary, then compute the mode there.

    Runs :func:`ray_boundary_search` along ``direction`` (by default all the
    way to adjacent floating-point parameter values, ``param_tol=0.0``) and
    evaluates :func:`mode_of_instability` at the returned inside endpoint,
    against the stable equilibrium the search already solved there
    (``search.sep_star``) rather than a fresh solve.
    The averaged Jacobian concentrates near the boundary equilibrium only
    for parameters close to the boundary, which is why the refinement is
    the default route to a mode rather than an extra step.
    """
    search = ray_boundary_search(sys, p0, direction, cfg, param_tol=param_tol)
    mode = mode_of_instability(sys, search.p_star, cfg, search.sep_star)
    return BoundaryMode(mode=mode, search=search)


@dataclass(frozen=True)
class SweepRow:
    """One step size's boundary/mode outcome within a sweep.

    ``status`` is ``"ok"`` or the class name of the error that stopped this
    row; error columns are None for failed rows and for every row when the
    reference (smallest successful h) itself failed.  ``p_star`` is the full
    parameter vector; ``result`` keeps the entire mode/search record for
    downstream analysis.
    """

    h: float
    p_star: Optional[np.ndarray]
    frob_err: Optional[float]
    eig_err: Optional[float]
    vec_err: Optional[float]
    status: str
    result: Optional[BoundaryMode] = None


def h_sweep(
    sys: ParameterizedSystem,
    p0,
    direction,
    h_values: Sequence[float],
    cfg: IntegratorConfig,
    param_tol: float = 0.0,
) -> list[SweepRow]:
    """Boundary + mode per step size, with errors against the smallest h.

    For each h the boundary is searched afresh from ``p0`` (cfg is reused
    with only ``step`` replaced) and the mode computed at the located
    boundary parameter.  Error columns compare each row's averaged matrix,
    eigenvalue, and eigenvector against the row with the smallest h whose
    computation succeeded; that reference row's errors are 0 by
    construction.  Rows run one after another in the input h order, each
    with the multisection search of :func:`ray_boundary_search`; a row's
    failure is recorded in its ``status`` and the sweep continues.  Every
    row's config is built before the first row runs, so a step size that
    :class:`IntegratorConfig` rejects (not positive and finite, or a step
    budget ``max_time / h`` that is not finite) raises ``ValueError`` first.
    """
    configs = [replace(cfg, step=float(h)) for h in h_values]
    rows = []
    for row_cfg in configs:
        h = row_cfg.step
        try:
            bm = mode_at_boundary(sys, p0, direction, row_cfg, param_tol=param_tol)
        except MoiError as exc:
            rows.append(SweepRow(h, None, None, None, None, type(exc).__name__))
        else:
            rows.append(SweepRow(h, bm.search.p_star, None, None, None, "ok", bm))
    ok = [r for r in rows if r.status == "ok"]
    if not ok:
        return rows
    ref = min(ok, key=lambda r: r.h).result.mode

    def with_errors(r: SweepRow) -> SweepRow:
        m = r.result.mode
        return replace(
            r,
            frob_err=float(np.linalg.norm(m.averaged.matrix - ref.averaged.matrix)),
            eig_err=abs(m.eigenvalue - ref.eigenvalue),
            vec_err=float(np.linalg.norm(m.eigenvector - ref.eigenvector)),
        )

    return [with_errors(r) if r.status == "ok" else r for r in rows]

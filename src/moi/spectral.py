"""Eigenvalue machinery: spectral abscissa, instability tests, unstable pair.

The kernel is LAPACK's dense nonsymmetric solver, via ``numpy.linalg.eig``
for eigenpairs and via the gufunc behind ``numpy.linalg.eigvals`` for the
eigenvalues of one matrix or of a stack; everything here is contract-level
plumbing around it: residual bookkeeping, stability classification against
a tolerance, and extraction of the unique unstable eigenpair with a
deterministic sign convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# The LAPACK gufunc behind np.linalg.eigvals, called on whole stacks without
# the wrapper's checks.  The module is private to numpy; this package is
# tested with numpy 2.4.6, where eigvals with the signature "d->D" maps
# (..., n, n) to (..., n) complex eigenvalues and gives nan ones where
# LAPACK does not converge.
from numpy.linalg._umath_linalg import eigvals as _gufunc_eigvals

from .errors import (
    ComplexUnstableEigenvalue,
    ConvergenceFailure,
    MultipleUnstableEigenvalues,
    NoUnstableEigenvalue,
)

#: default margin above zero for calling a real part "unstable"
DEFAULT_STABILITY_TOL = 1e-9

#: imaginary parts at or below this count as zero: two unstable eigenvalues
#: with a larger one are a complex conjugate pair
_IMAG_DROP = 1e-9


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its unit right eigenvector and residual.

    ``residual`` is ``||A v - lambda v||_2`` for the matrix the pair was
    computed from; the producing routines guarantee it is at most
    ``1e-9 * max(1, ||A||_2)``.
    """

    value: complex
    vector: np.ndarray
    residual: float


def _eig(A: np.ndarray):
    A = np.asarray(A, dtype=float)
    try:
        return np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"eigenvalue kernel failed: {exc}") from exc


def _eigvals(A) -> np.ndarray:
    """The eigenvalues, complex, of A (n, n) or of each matrix of a stack
    (..., n, n), through the LAPACK gufunc behind ``np.linalg.eigvals``
    without its wrapper.  Where LAPACK does not converge, or A is not
    finite, the gufunc returns nan eigenvalues, which raise
    ``ConvergenceFailure``."""
    A = np.asarray(A, dtype=float)
    with np.errstate(invalid="ignore"):
        w = _gufunc_eigvals(A, signature="d->D")
    bad = w.size - np.count_nonzero(np.isfinite(w))
    if bad:
        raise ConvergenceFailure(f"eigenvalue kernel failed: {bad} non-finite eigenvalues")
    return w


def spectral_abscissa(A) -> float:
    """Largest real part over the eigenvalues of A."""
    return float(np.max(_eigvals(A).real))


def is_unstable(A, stability_tol: float = DEFAULT_STABILITY_TOL) -> bool:
    """True iff the spectral abscissa exceeds ``stability_tol``.

    Real parts in ``[0, stability_tol]`` classify as stable; near a
    hyperbolic unstable equilibrium the abscissa is O(1), far above the
    margin, so the tolerance only guards against floating-point zeros.
    """
    return spectral_abscissa(A) > stability_tol


def unstable_count(A, stability_tol: float = DEFAULT_STABILITY_TOL) -> int:
    """Number of eigenvalues with real part above ``stability_tol``."""
    return int(np.sum(_eigvals(A).real > stability_tol))


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip ``v`` so its largest-magnitude component is positive."""
    k = int(np.argmax(np.abs(v)))
    if v[k] < 0:
        return -v
    return v


def unstable_eigenpair(
    A, stability_tol: float = DEFAULT_STABILITY_TOL
) -> EigenPair:
    """The unique unstable eigenpair of A, realified and sign-canonicalized.

    Requires exactly one eigenvalue with real part above ``stability_tol``;
    of a real matrix, that eigenvalue is real (complex eigenvalues come in
    conjugate pairs with one real part).  The returned vector is real with unit
    2-norm and its largest-magnitude component positive, so repeated calls
    (and the kernel's arbitrary +/- choice) give one representative.

    Raises
    ------
    NoUnstableEigenvalue
        No eigenvalue above the tolerance; the parameter is too deep inside
        the recovery region for a meaningful mode.
    MultipleUnstableEigenvalues
        Two or more (non-conjugate) unstable eigenvalues.
    ComplexUnstableEigenvalue
        The two unstable eigenvalues are a complex conjugate pair; the
        codimension-one picture does not apply.
    """
    A = np.asarray(A, dtype=float)
    values, vectors = _eig(A)
    unstable = np.flatnonzero(values.real > stability_tol)
    found = [complex(values[k]) for k in unstable]
    if not found:
        raise NoUnstableEigenvalue(
            f"spectral abscissa {values.real.max():.6g} <= tol {stability_tol:g}"
        )
    if len(found) == 2 and abs(found[0].imag) > _IMAG_DROP:
        raise ComplexUnstableEigenvalue(
            f"unstable eigenvalues form a complex pair {found[0]}, {found[1]}"
        )
    if len(found) > 1:
        raise MultipleUnstableEigenvalues(
            f"{len(found)} eigenvalues above tol {stability_tol:g}: {found}"
        )
    # the kernel's vector normalised, then its real part normalised again
    v = vectors[:, unstable[0]]
    nrm = np.linalg.norm(v)
    if nrm != 0.0:
        v = v / nrm
    lam = found[0].real
    v = np.real(v)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:  # pragma: no cover - degenerate kernel output
        raise ConvergenceFailure("unstable eigenvector has zero real part")
    v = canonical_sign(v / nrm)
    res = float(np.linalg.norm(A @ v - lam * v))
    return EigenPair(value=complex(lam), vector=v, residual=res)


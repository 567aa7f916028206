"""Exception taxonomy for the moi package.

Every structured failure mode raised by the library derives from
:class:`MoiError`, so callers (and the CLI) can distinguish analysis errors
from programming errors with one ``except`` clause.
"""

from __future__ import annotations


class MoiError(Exception):
    """Base class for all structured errors raised by this package."""


class DimensionMismatch(MoiError):
    """A state or parameter vector has the wrong length for the system."""


class NonFiniteOutput(MoiError):
    """A model evaluation produced NaN or Inf (a model error, not a solver one)."""


class NewtonDivergence(MoiError):
    """A Newton iteration failed to meet its residual tolerance."""


class ConvergenceFailure(MoiError):
    """The eigenvalue kernel failed to converge."""


class NoUnstableEigenvalue(MoiError):
    """No eigenvalue has real part above the stability tolerance."""


class MultipleUnstableEigenvalues(MoiError):
    """More than one unstable eigenvalue: the parameter is not close enough
    to the recovery boundary, or a modeling assumption is violated."""


class ComplexUnstableEigenvalue(MoiError):
    """The unstable eigenvalue is complex (codimension-one assumption fails)."""


class NeverUnstable(MoiError):
    """The trajectory never visited an unstable-Jacobian state after the
    initial condition; the averaging window is undefined."""


class NotRecovered(MoiError):
    """The simulation did not converge to the stable equilibrium, so the
    averaged Jacobian is not defined at this parameter value."""


class NotStable(MoiError):
    """An equilibrium was located but its Jacobian is not strictly stable."""


class NoBracket(MoiError):
    """The ray search never left the recovery region within its expansion
    budget or the parameter domain; no boundary crossing to refine."""


class UndeterminedAtBisection(MoiError):
    """A probe of the boundary search (expansion or refinement) came back
    Undetermined (time horizon hit or solver failure) where it would move
    the bracket; the search result would be meaningless, so we stop.
    Raising ``max_time`` is the usual fix."""


class ParamOutOfRange(MoiError):
    """A model parameter is outside the region where the model is defined."""


class DataFormatError(MoiError):
    """A network data file is malformed."""

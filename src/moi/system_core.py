"""Parameterized dynamical systems and trajectory storage.

A :class:`ParameterizedSystem` is a vector field ``f(x, p)`` on R^n with an
m-dimensional parameter, optional analytic Jacobian, and a disturbance map
``p -> x0(p)`` giving the state at the end of a finite-time disturbance.
Angles are never wrapped here: the state space is R^n and any modular
comparison is a model-level decision (see :mod:`moi.model_zoo`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
# The C function behind np.count_nonzero, called without the wrapper's
# array-function dispatch, which costs more than the count on the few-element
# masks tested every step.  The module is private to numpy; this package is
# tested with numpy 2.4.6.
from numpy._core.multiarray import count_nonzero as _count_nonzero

from .errors import DimensionMismatch, NonFiniteOutput

Array = np.ndarray

#: relative/absolute floor for finite-difference Jacobian steps
_FD_STEP = 1e-6


@dataclass(frozen=True)
class ParameterizedSystem:
    """A vector field f(x, p) with optional analytic Jacobian and
    disturbance-generated initial condition.

    Parameters
    ----------
    state_dim, param_dim
        Dimensions n and m of the state and parameter spaces.
    field
        Callable (x, p) -> dx/dt, both numpy arrays.
    jacobian
        Optional callable (x, p) -> (n, n) array of partials of ``field``
        with respect to x.  When absent, central finite differences are used.
    initial_condition
        Optional callable p -> x0(p), the post-disturbance state the
        simulation driver starts from.
    name
        Text label for reports.
    state_names
        Optional component labels (length n), carried into mode output so
        eigenvector entries are interpretable.
    wrap_indices
        Indices of angle-like coordinates that convergence tests should
        compare modulo 2*pi.  The field itself is always evaluated on the
        unwrapped state.
    batched
        True when ``field``, ``jacobian`` and ``initial_condition`` (where
        present) also accept a leading batch axis, evaluating each member
        with the same floating-point operations as a single call: x of shape
        (K, n) and p of shape (K, m) give fields (K, n), Jacobians (K, n, n)
        and initial conditions (K, n).  So a batched ``field`` gives each
        row, bitwise, the value it gives that state alone, whatever the
        other rows are: the field that a Lockstep carries from one step to
        the next stays valid when members are dropped.  Recovery probes of
        a batched system with an analytic Jacobian run in lockstep batches.
    jacobian_lipschitz
        Optional callable p -> (w, L), filled in by the model constructors:
        positive diagonal state weights w (length n) and a bound L on the
        variation of the Jacobian in one block.  With W = diag(w) and
        m = n // 2, for all states x, y, ``W (J(x) - J(y)) W^-1`` must be
        zero outside rows m:, columns :m (for both bundled models, the
        speed rows at the angle columns), and its norm at most
        ``L ||(W (x - y))[:m]||``, norms the Euclidean ones.  Scaling the
        last n - m weights by any s > 0 then scales that block, and the
        bound, by s.  With it the integrator certifies a level set around
        each stable equilibrium that lies in its basin, with weights
        balanced at that equilibrium
        (:func:`moi.integrator.recovery_certificate`), and ends a
        trajectory that enters it.
    escape
        Optional pair (rows, crossing), filled in by the model constructors
        where the model proves escape (the pendulum, from its energy; the
        swing network's transfer conductances admit no exact energy
        function).  ``rows(p, sep, cfg)`` gives one row per run (K, r) for K
        runs at the rows of p (K, m) around the stable equilibria in the
        rows of sep (K, n); the integrator keeps them and reads none of
        their columns.  ``crossing(x_prev, x, p, rows)`` takes K runs'
        states (K, n) before and after one computed trapezoidal step.  It
        returns None when no run is in its escape set, else a (K,) array:
        nan outside the set and, inside it, the fraction f in (0, 1] of
        the step at which the run entered (1 where that cannot be placed).
        A run inside never returns to its equilibrium, and the integrator
        ends it ``DIVERGED``.
    """

    state_dim: int
    param_dim: int
    field: Callable[[Array, Array], Array]
    jacobian: Optional[Callable[[Array, Array], Array]] = None
    initial_condition: Optional[Callable[[Array], Array]] = None
    name: str = ""
    state_names: Optional[tuple[str, ...]] = None
    wrap_indices: Optional[tuple[int, ...]] = None
    batched: bool = False
    jacobian_lipschitz: Optional[Callable[[Array], tuple[Array, float]]] = None
    escape: Optional[tuple[Callable[..., Array], Callable[..., Optional[Array]]]] = None


class Termination(enum.Enum):
    """How a fixed-step simulation ended."""

    CONVERGED_TO_SEP = "ConvergedToSEP"
    MAX_TIME_REACHED = "MaxTimeReached"
    DIVERGED = "Diverged"
    SOLVER_FAILURE = "SolverFailure"


@dataclass(frozen=True)
class Trajectory:
    """A fixed-step trajectory plus optional per-state instability flags.

    ``states[n]`` is the state after n steps of size ``step`` (``states[0]``
    is the initial condition).  When recorded, ``instability_flags[n]`` says
    whether the field Jacobian at ``states[n]`` is unstable; the flag
    sequence always has the same length as ``states``.
    """

    states: Array
    step: float
    parameter: Array
    termination: Termination
    instability_flags: Optional[Array] = None

    def __len__(self) -> int:
        return len(self.states)

    @property
    def elapsed(self) -> float:
        """Simulated time covered by the stored states."""
        return (len(self.states) - 1) * self.step


def _all_finite(a: Array) -> bool:
    """``np.isfinite(a).all()``, with less call overhead."""
    return _count_nonzero(np.isfinite(a)) == a.size


def _check_vector(v, dim: int, label: str) -> Array:
    # a float vector of the right shape is what np.asarray would return
    if type(v) is np.ndarray and v.dtype == np.float64 and v.shape == (dim,):
        return v
    arr = np.asarray(v, dtype=float)
    if arr.shape != (dim,):
        raise DimensionMismatch(
            f"{label} has shape {arr.shape}, expected ({dim},)"
        )
    return arr


def eval_field(sys: ParameterizedSystem, x, p) -> Array:
    """Evaluate dx/dt = f(x, p) with dimension and finiteness checks."""
    x = _check_vector(x, sys.state_dim, "state")
    p = _check_vector(p, sys.param_dim, "parameter")
    out = np.asarray(sys.field(x, p), dtype=float)
    if out.shape != (sys.state_dim,):
        raise DimensionMismatch(
            f"field returned shape {out.shape}, expected ({sys.state_dim},)"
        )
    if not np.all(np.isfinite(out)):
        raise NonFiniteOutput(f"field({x}, {p}) produced NaN/Inf: {out}")
    return out


def eval_jacobian(sys: ParameterizedSystem, x, p) -> Array:
    """Evaluate the n-by-n state Jacobian of the field at (x, p).

    Uses the analytic Jacobian when the system supplies one; otherwise
    central finite differences with per-coordinate step
    ``max(1e-6, 1e-6 * |x_i|)``.
    """
    x = _check_vector(x, sys.state_dim, "state")
    p = _check_vector(p, sys.param_dim, "parameter")
    if sys.jacobian is not None:
        J = np.asarray(sys.jacobian(x, p), dtype=float)
    else:
        n = sys.state_dim
        J = np.empty((n, n))
        for i in range(n):
            delta = max(_FD_STEP, _FD_STEP * abs(x[i]))
            xp = x.copy()
            xm = x.copy()
            xp[i] += delta
            xm[i] -= delta
            J[:, i] = (eval_field(sys, xp, p) - eval_field(sys, xm, p)) / (
                2.0 * delta
            )
    if J.shape != (sys.state_dim, sys.state_dim):
        raise DimensionMismatch(
            f"jacobian returned shape {J.shape}, expected square of dim "
            f"{sys.state_dim}"
        )
    if not _all_finite(J):
        raise NonFiniteOutput(f"jacobian at ({x}, {p}) produced NaN/Inf")
    return J


def initial_state(sys: ParameterizedSystem, p) -> Array:
    """Return x0(p), the post-disturbance initial condition.

    A batched system also takes a (K, m) stack of parameters and returns
    the (K, n) stack of initial conditions.
    """
    if sys.initial_condition is None:
        raise ValueError(f"system {sys.name!r} has no initial_condition")
    p = np.asarray(p, dtype=float)
    batch = p.shape[:-1] if sys.batched and p.ndim == 2 else ()
    if p.shape != batch + (sys.param_dim,):
        raise DimensionMismatch(
            f"parameter has shape {p.shape}, expected {batch + (sys.param_dim,)}"
        )
    x0 = np.asarray(sys.initial_condition(p), dtype=float)
    if x0.shape != batch + (sys.state_dim,):
        raise DimensionMismatch(
            f"initial condition has shape {x0.shape}, expected "
            f"{batch + (sys.state_dim,)}"
        )
    if not np.all(np.isfinite(x0)):
        raise NonFiniteOutput(f"initial_condition({p}) produced NaN/Inf")
    return x0

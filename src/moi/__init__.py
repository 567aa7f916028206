"""Mode-of-instability analysis for disturbed dynamical systems.

Given a parameterized vector field and a finite-time disturbance, this
package classifies whether the system recovers to its stable equilibrium,
brackets the recovery boundary along parameter rays, and computes the
direction of instability — the unstable eigenvector of the trajectory-
averaged Jacobian — at the boundary, together with step-size convergence
sweeps and a small zoo of benchmark models.
"""

from .errors import (
    ComplexUnstableEigenvalue,
    ConvergenceFailure,
    DataFormatError,
    DimensionMismatch,
    MoiError,
    MultipleUnstableEigenvalues,
    NeverUnstable,
    NewtonDivergence,
    NoBracket,
    NonFiniteOutput,
    NotRecovered,
    NotStable,
    NoUnstableEigenvalue,
    ParamOutOfRange,
    UndeterminedAtBisection,
)
from .instability_mode import (
    AveragedJacobian,
    BoundaryMode,
    ModeResult,
    Normalization,
    SweepRow,
    average_jacobian,
    h_sweep,
    last_unstable_index,
    mode_at_boundary,
    mode_of_instability,
)
from .integrator import IntegratorConfig, sep_distance, simulate, step_trapezoidal
from .model_zoo import (
    MULTIMACHINE_DIVERGENCE_NORM,
    PENDULUM_DIVERGENCE_NORM,
    MultiMachineParams,
    PendulumParams,
    bundled_network_path,
    load_network,
    multimachine_system,
    pendulum_disturbance_ic,
    pendulum_sep,
    pendulum_system,
    pendulum_uep,
)
from .recovery_boundary import (
    BoundarySearchResult,
    RecoveryVerdict,
    Verdict,
    classify_recovery,
    find_equilibrium,
    find_sep,
    ray_boundary_search,
)
from .spectral import (
    EigenPair,
    canonical_sign,
    is_unstable,
    spectral_abscissa,
    unstable_count,
    unstable_eigenpair,
)
from .system_core import (
    ParameterizedSystem,
    Termination,
    Trajectory,
    eval_field,
    eval_jacobian,
    initial_state,
)
from .cli_reporting import run_cli

__version__ = "0.1.0"

__all__ = [
    "AveragedJacobian",
    "BoundaryMode",
    "BoundarySearchResult",
    "ComplexUnstableEigenvalue",
    "ConvergenceFailure",
    "DataFormatError",
    "DimensionMismatch",
    "EigenPair",
    "IntegratorConfig",
    "ModeResult",
    "MoiError",
    "MultiMachineParams",
    "MultipleUnstableEigenvalues",
    "MULTIMACHINE_DIVERGENCE_NORM",
    "NeverUnstable",
    "NewtonDivergence",
    "NoBracket",
    "NonFiniteOutput",
    "Normalization",
    "NotRecovered",
    "NotStable",
    "NoUnstableEigenvalue",
    "ParamOutOfRange",
    "ParameterizedSystem",
    "PendulumParams",
    "PENDULUM_DIVERGENCE_NORM",
    "RecoveryVerdict",
    "SweepRow",
    "Termination",
    "Trajectory",
    "UndeterminedAtBisection",
    "Verdict",
    "average_jacobian",
    "bundled_network_path",
    "canonical_sign",
    "classify_recovery",
    "eval_field",
    "eval_jacobian",
    "find_equilibrium",
    "find_sep",
    "h_sweep",
    "initial_state",
    "is_unstable",
    "last_unstable_index",
    "load_network",
    "mode_at_boundary",
    "mode_of_instability",
    "multimachine_system",
    "pendulum_disturbance_ic",
    "pendulum_sep",
    "pendulum_system",
    "pendulum_uep",
    "ray_boundary_search",
    "run_cli",
    "sep_distance",
    "simulate",
    "spectral_abscissa",
    "step_trapezoidal",
    "unstable_count",
    "unstable_eigenpair",
]

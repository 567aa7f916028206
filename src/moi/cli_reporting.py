"""Command-line front end and result serialization.

Four analyses over the bundled models: ``simulate`` (one recovery
experiment), ``boundary`` (ray search for the recovery boundary), ``mode``
(refine to the boundary, then the instability direction there), and
``sweep`` (boundary + mode per step size, CSV table).  Identical invocations
produce byte-identical outputs: floats are serialized with repr (JSON) or
10 significant digits (CSV) and all computations are deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import MoiError
from .instability_mode import (
    ModeResult,
    Normalization,
    SweepRow,
    h_sweep,
    mode_at_boundary,
)
from .integrator import IntegratorConfig, sep_distance, simulate
from .model_zoo import (
    MULTIMACHINE_DIVERGENCE_NORM,
    PENDULUM_DIVERGENCE_NORM,
    PendulumParams,
    bundled_network_path,
    load_network,
    multimachine_system,
    pendulum_system,
)
from .recovery_boundary import find_sep, ray_boundary_search
from .system_core import ParameterizedSystem

#: step used to replay the pendulum disturbance when building x0(p) for CLI
#: runs; fixed so that x0 is a function of p alone, not of the analysis h.
_PENDULUM_IC_STEP = 0.02


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI invocation resolved to; the unit of reproducibility."""

    command: str
    model: str
    model_file: Optional[str]
    h_values: tuple[float, ...]
    p: Optional[tuple[float, ...]]
    p0: Optional[tuple[float, ...]]
    direction: Optional[tuple[float, ...]]
    param_tol: float
    max_time: float
    newton_tol: float
    stability_tol: float
    normalization: str
    out: Optional[str]


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one float")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moi",
        description="Recovery-boundary search and mode-of-instability "
        "analysis for disturbed dynamical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--model", choices=("pendulum", "multimachine"), required=True
        )
        sp.add_argument(
            "--model-file",
            default=None,
            help="network data file (multimachine; default: bundled 9-bus set)",
        )
        sp.add_argument(
            "--h",
            type=_csv_floats,
            required=True,
            help="integration step size(s), comma separated",
        )
        sp.add_argument("--max-time", type=float, default=200.0)
        sp.add_argument("--newton-tol", type=float, default=1e-12)
        sp.add_argument("--stability-tol", type=float, default=1e-9)
        sp.add_argument(
            "--normalization", choices=("paper", "samples"), default="paper"
        )
        sp.add_argument("--out", default=None, help="output file path")

    sp = sub.add_parser("simulate", help="classify one recovery experiment")
    common(sp)
    sp.add_argument("--p", type=_csv_floats, required=True)

    sp = sub.add_parser("boundary", help="bracket the recovery boundary")
    common(sp)
    sp.add_argument("--p0", type=_csv_floats, required=True)
    sp.add_argument("--dir", type=_csv_floats, default=None)
    sp.add_argument("--tol", type=float, default=1e-4)

    sp = sub.add_parser(
        "mode", help="instability direction at the recovery boundary"
    )
    common(sp)
    sp.add_argument(
        "--p",
        type=_csv_floats,
        required=True,
        help="starting parameter; refined to the boundary before the mode "
        "is computed",
    )
    sp.add_argument("--dir", type=_csv_floats, default=None)
    sp.add_argument(
        "--tol",
        type=float,
        default=0.0,
        help="boundary refinement tolerance (0 = to adjacent doubles)",
    )

    sp = sub.add_parser("sweep", help="boundary + mode per step size (CSV)")
    common(sp)
    sp.add_argument("--p0", type=_csv_floats, required=True)
    sp.add_argument("--dir", type=_csv_floats, default=None)
    sp.add_argument("--tol", type=float, default=0.0)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        model=args.model,
        model_file=args.model_file,
        h_values=args.h,
        p=getattr(args, "p", None),
        p0=getattr(args, "p0", None),
        direction=getattr(args, "dir", None),
        param_tol=getattr(args, "tol", 1e-4),
        max_time=args.max_time,
        newton_tol=args.newton_tol,
        stability_tol=args.stability_tol,
        normalization=args.normalization,
        out=args.out,
    )


def _build_model(
    config: RunConfig,
) -> tuple[ParameterizedSystem, float, Optional[tuple[float, ...]]]:
    """System, recommended divergence norm, and default ray direction."""
    if config.model == "pendulum":
        params = PendulumParams(ic_method="integrated", ic_step=_PENDULUM_IC_STEP)
        return pendulum_system(params), PENDULUM_DIVERGENCE_NORM, (1.0,)
    path = config.model_file if config.model_file else bundled_network_path()
    net = load_network(path)
    system = multimachine_system(net)
    default_dir = (-1.0,) if net.inertia_mode == "scale" else None
    return system, MULTIMACHINE_DIVERGENCE_NORM, default_dir


def _single_h(config: RunConfig) -> float:
    if len(config.h_values) != 1:
        raise ValueError(
            f"--h expects exactly one value for '{config.command}', "
            f"got {list(config.h_values)}"
        )
    return config.h_values[0]


def _integrator_config(config: RunConfig, h: float, divergence: float) -> IntegratorConfig:
    return IntegratorConfig(
        step=h,
        newton_tol=config.newton_tol,
        max_time=config.max_time,
        divergence_norm=divergence,
    )


def _check_param(system: ParameterizedSystem, values, label: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (system.param_dim,):
        raise ValueError(
            f"{label} must have {system.param_dim} component(s) for model "
            f"{system.name!r}, got {arr.size}"
        )
    return arr


def _resolve_direction(
    system: ParameterizedSystem,
    config: RunConfig,
    default_dir: Optional[tuple[float, ...]],
) -> np.ndarray:
    if config.direction is not None:
        return _check_param(system, config.direction, "--dir")
    if default_dir is None or len(default_dir) != system.param_dim:
        raise ValueError(
            f"model {system.name!r} has no default ray direction; pass --dir"
        )
    return np.asarray(default_dir, dtype=float)


def _fmt_vector(v: np.ndarray) -> str:
    if v.size == 1:
        return repr(float(v[0]))
    return "[" + ", ".join(repr(float(x)) for x in v) + "]"


def _write_or_print(text: str, out: Optional[str], summary: str) -> None:
    """File + summary on stdout when --out is given, else text on stdout."""
    if out is not None:
        Path(out).write_text(text)
        print(summary)
    else:
        print(summary, file=sys.stderr)
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# serialization


def mode_json_text(result: ModeResult, state_names=None) -> str:
    """Deterministic JSON for a mode result (repr-precision floats)."""
    record = {
        "eigenvalue": float(result.eigenvalue),
        "eigenvector": [float(v) for v in result.eigenvector],
        "j_index": int(result.averaged.last_unstable_index),
        "h": float(result.averaged.step),
        "p": [float(v) for v in result.averaged.parameter],
        "normalization": result.averaged.normalization.value,
        "residual": float(result.residual),
    }
    if state_names is not None:
        record["state_names"] = list(state_names)
    return json.dumps(record, indent=2) + "\n"


def write_mode_json(result: ModeResult, path, state_names=None) -> None:
    """Write :func:`mode_json_text` to ``path``."""
    try:
        Path(path).write_text(mode_json_text(result, state_names))
    except OSError as exc:
        raise OSError(f"cannot write mode JSON to {path}: {exc}") from exc


def sweep_csv_text(table: Sequence[SweepRow]) -> str:
    """CSV for a sweep table: 10-significant-digit floats, input row order.

    Failed rows leave their value columns empty and carry the error name in
    ``status``.  Multi-component boundary parameters are semicolon-joined
    inside the p_star field.
    """
    lines = ["h,p_star,frob_err,eig_err,vec_err,status"]
    for row in table:
        if row.status == "ok":
            p_star = ";".join(f"{v:.10g}" for v in row.p_star)
            cells = [
                f"{row.h:.10g}",
                p_star,
                f"{row.frob_err:.10g}",
                f"{row.eig_err:.10g}",
                f"{row.vec_err:.10g}",
                "ok",
            ]
        else:
            cells = [f"{row.h:.10g}", "", "", "", "", row.status]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_sweep_csv(table: Sequence[SweepRow], path) -> None:
    """Write :func:`sweep_csv_text` to ``path``."""
    try:
        Path(path).write_text(sweep_csv_text(table))
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand drivers


def _run_simulate(config: RunConfig) -> int:
    system, divergence, _ = _build_model(config)
    h = _single_h(config)
    cfg = _integrator_config(config, h, divergence)
    p = _check_param(system, config.p, "--p")
    sep = find_sep(system, p, stability_tol=config.stability_tol)
    traj = simulate(system, p, cfg, sep)
    final_distance = sep_distance(system, traj.states[-1], sep)
    print(
        f"simulate {config.model}: {traj.termination.value} after "
        f"{len(traj) - 1} steps ({traj.elapsed:.6g} s), final distance "
        f"{final_distance:.6g}"
    )
    if config.out is not None:
        record = {
            "termination": traj.termination.value,
            "steps": len(traj) - 1,
            "elapsed_time": traj.elapsed,
            "final_distance": final_distance,
            "h": h,
            "p": [float(v) for v in p],
        }
        Path(config.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


def _run_boundary(config: RunConfig) -> int:
    system, divergence, default_dir = _build_model(config)
    h = _single_h(config)
    cfg = _integrator_config(config, h, divergence)
    p0 = _check_param(system, config.p0, "--p0")
    direction = _resolve_direction(system, config, default_dir)
    res = ray_boundary_search(
        system,
        p0,
        direction,
        cfg,
        param_tol=config.param_tol,
        stability_tol=config.stability_tol,
    )
    print(
        f"boundary {config.model}: p_star = {_fmt_vector(res.p_star)} "
        f"bracket_width = {res.bracket_width:.6g} "
        f"iterations = {res.iterations}"
    )
    if config.out is not None:
        record = {
            "p_star": [float(v) for v in res.p_star],
            "p_fail": [float(v) for v in res.p_fail],
            "bracket_width": res.bracket_width,
            "iterations": res.iterations,
            "h": h,
            "direction": [float(v) for v in direction],
        }
        Path(config.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


def _run_mode(config: RunConfig) -> int:
    system, divergence, default_dir = _build_model(config)
    h = _single_h(config)
    cfg = _integrator_config(config, h, divergence)
    p0 = _check_param(system, config.p, "--p")
    direction = _resolve_direction(system, config, default_dir)
    bm = mode_at_boundary(
        system,
        p0,
        direction,
        cfg,
        param_tol=config.param_tol,
        normalization=Normalization(config.normalization),
        stability_tol=config.stability_tol,
    )
    text = mode_json_text(bm.mode, state_names=system.state_names)
    summary = (
        f"mode {config.model}: eigenvalue = {bm.mode.eigenvalue:.6g} at "
        f"p = {_fmt_vector(bm.search.p_star)} "
        f"(j = {bm.mode.averaged.last_unstable_index})"
    )
    _write_or_print(text, config.out, summary)
    return 0


def _run_sweep(config: RunConfig) -> int:
    system, divergence, default_dir = _build_model(config)
    cfg = _integrator_config(config, config.h_values[0], divergence)
    p0 = _check_param(system, config.p0, "--p0")
    direction = _resolve_direction(system, config, default_dir)
    rows = h_sweep(
        system,
        p0,
        direction,
        config.h_values,
        cfg,
        param_tol=config.param_tol,
        normalization=Normalization(config.normalization),
        stability_tol=config.stability_tol,
    )
    ok = sum(1 for r in rows if r.status == "ok")
    summary = f"sweep {config.model}: {ok}/{len(rows)} rows ok"
    _write_or_print(sweep_csv_text(rows), config.out, summary)
    return 0


_DRIVERS = {
    "simulate": _run_simulate,
    "boundary": _run_boundary,
    "mode": _run_mode,
    "sweep": _run_sweep,
}


def run_cli(argv: Sequence[str]) -> int:
    """Parse ``argv`` and execute; returns the process exit status.

    0 = success, 1 = analysis error (reported by name on stderr, e.g.
    NoBracket), 2 = usage or configuration error.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    config = _config_from_args(args)
    try:
        return _DRIVERS[config.command](config)
    except MoiError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))

"""Command-line front end and result serialization.

Four analyses over the bundled models: ``simulate`` (one recovery
experiment), ``boundary`` (ray search for the recovery boundary), ``mode``
(refine to the boundary, then the instability direction there), and
``sweep`` (boundary + mode per step size, CSV table).  All four are set up
by one path (``_setup``): each checks its start against the model's domain
before any solve, and only ``sweep`` takes more than one ``--h``, building
every step size's config before its first row runs.  Identical invocations
produce byte-identical outputs: floats are serialized with repr (JSON) or
10 significant digits (CSV) and all computations are deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
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
    pendulum_sep,
    pendulum_system,
)
from .recovery_boundary import find_sep, ray_boundary_search
from .system_core import ParameterizedSystem


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


def _build_model(args: argparse.Namespace) -> tuple:
    """System, recommended divergence norm, default ray direction, and a
    check of a starting parameter that raises ``ParamOutOfRange`` before
    any Newton solve where the model has no equilibrium (a pendulum torque
    at or beyond c1; the network's field checks its inertias itself).  A
    network file given for the pendulum is a configuration error."""
    if args.model == "pendulum":
        if args.model_file:
            raise ValueError("--model-file applies to --model multimachine only")
        # x0 replays the disturbance at the default ic_step, not at the
        # analysis h, so that it is a function of p alone
        params = PendulumParams(ic_method="integrated")
        check = lambda p: pendulum_sep(params, p[0])  # noqa: E731
        return pendulum_system(params), PENDULUM_DIVERGENCE_NORM, (1.0,), check
    path = args.model_file if args.model_file else bundled_network_path()
    system = multimachine_system(load_network(path))
    return system, MULTIMACHINE_DIVERGENCE_NORM, (-1.0,), lambda p: None


def _check_param(system: ParameterizedSystem, values, label: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (system.param_dim,):
        raise ValueError(
            f"{label} must have {system.param_dim} component(s) for model "
            f"{system.name!r}, got {arr.size}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{label} must be finite, got {list(values)}")
    return arr


def _setup(args: argparse.Namespace) -> tuple:
    """The system, the config at the first ``--h``, the start (checked
    against the model's domain before any solve) and the ray direction.
    Only ``sweep`` takes more than one ``--h``."""
    system, divergence, default_dir, check = _build_model(args)
    if args.command != "sweep" and len(args.h) != 1:
        raise ValueError(
            f"--h expects exactly one value for '{args.command}', "
            f"got {list(args.h)}"
        )
    cfg = IntegratorConfig(
        step=args.h[0],
        newton_tol=args.newton_tol,
        max_time=args.max_time,
        divergence_norm=divergence,
        stability_tol=args.stability_tol,
    )
    start = _check_param(system, args.start, _COMMANDS[args.command][2])
    check(start)
    if getattr(args, "dir", None) is None:
        return system, cfg, start, np.asarray(default_dir, dtype=float)
    return system, cfg, start, _check_param(system, args.dir, "--dir")


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


# ---------------------------------------------------------------------------
# subcommand drivers


def _run_simulate(args: argparse.Namespace) -> int:
    system, cfg, p, _ = _setup(args)
    sep = find_sep(system, p, stability_tol=cfg.stability_tol)
    traj = simulate(system, p, cfg, sep)
    final_distance = sep_distance(system, traj.states[-1], sep)
    print(
        f"simulate {args.model}: {traj.termination.value} after "
        f"{len(traj) - 1} steps ({traj.elapsed:.6g} s), final distance "
        f"{final_distance:.6g}"
    )
    if args.out is not None:
        record = {
            "termination": traj.termination.value,
            "steps": len(traj) - 1,
            "elapsed_time": traj.elapsed,
            "final_distance": final_distance,
            "h": cfg.step,
            "p": [float(v) for v in p],
        }
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


def _run_boundary(args: argparse.Namespace) -> int:
    system, cfg, p0, direction = _setup(args)
    res = ray_boundary_search(system, p0, direction, cfg, param_tol=args.tol)
    print(
        f"boundary {args.model}: p_star = {float(res.p_star[0])!r} "
        f"bracket_width = {res.bracket_width:.6g} "
        f"iterations = {res.iterations}"
    )
    if args.out is not None:
        record = {
            "p_star": [float(v) for v in res.p_star],
            "p_fail": [float(v) for v in res.p_fail],
            "bracket_width": res.bracket_width,
            "iterations": res.iterations,
            "h": cfg.step,
            "direction": [float(v) for v in direction],
        }
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


def _run_mode(args: argparse.Namespace) -> int:
    system, cfg, p0, direction = _setup(args)
    bm = mode_at_boundary(
        system, p0, direction, cfg, param_tol=args.tol,
        normalization=Normalization(args.normalization),
    )
    text = mode_json_text(bm.mode, state_names=system.state_names)
    summary = (
        f"mode {args.model}: eigenvalue = {bm.mode.eigenvalue:.6g} at "
        f"p = {float(bm.search.p_star[0])!r} "
        f"(j = {bm.mode.averaged.last_unstable_index})"
    )
    _write_or_print(text, args.out, summary)
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    system, cfg, p0, direction = _setup(args)
    rows = h_sweep(
        system, p0, direction, args.h, cfg, param_tol=args.tol,
        normalization=Normalization(args.normalization),
    )
    ok = sum(1 for r in rows if r.status == "ok")
    summary = f"sweep {args.model}: {ok}/{len(rows)} rows ok"
    _write_or_print(sweep_csv_text(rows), args.out, summary)
    return 0


#: per subcommand: its driver, its help, its start flag, the default of its
#: --tol (None: no ray, so neither --dir nor --tol) and whether it averages
#: Jacobians (--normalization)
_COMMANDS = {
    "simulate": (_run_simulate, "classify one recovery experiment", "--p", None, False),
    "boundary": (_run_boundary, "bracket the recovery boundary", "--p0", 1e-4, False),
    "mode": (_run_mode, "instability direction at the recovery boundary", "--p", 0.0, True),
    "sweep": (_run_sweep, "boundary + mode per step size (CSV)", "--p0", 0.0, True),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moi",
        description="Recovery-boundary search and mode-of-instability "
        "analysis for disturbed dynamical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = IntegratorConfig  # its field defaults, read as class attributes
    for name, (_, help_text, start, tol, averages) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--model", choices=("pendulum", "multimachine"), required=True)
        sp.add_argument(
            "--model-file",
            default=None,
            help="network data file (multimachine; default: bundled 9-bus set)",
        )
        sp.add_argument(
            "--h",
            type=_csv_floats,
            required=True,
            help="integration step size(s), comma separated (several for sweep only)",
        )
        sp.add_argument("--max-time", type=float, default=defaults.max_time)
        sp.add_argument("--newton-tol", type=float, default=defaults.newton_tol)
        sp.add_argument("--stability-tol", type=float, default=defaults.stability_tol)
        if averages:
            sp.add_argument(
                "--normalization", choices=("paper", "samples"), default="paper"
            )
        sp.add_argument("--out", default=None, help="output file path")
        sp.add_argument(
            start, dest="start", metavar=start[2:].upper(), type=_csv_floats, required=True,
            help="starting parameter" if tol is None
            else "starting parameter; refined to the boundary along the ray",
        )
        if tol is not None:
            sp.add_argument("--dir", type=_csv_floats, default=None)
            sp.add_argument(
                "--tol",
                type=float,
                default=tol,
                help="boundary refinement tolerance (0 = to adjacent doubles)",
            )
    return parser


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
    try:
        return _COMMANDS[args.command][0](args)
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

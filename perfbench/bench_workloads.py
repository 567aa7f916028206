"""The benchmark's three CLI workloads: inputs from a seed, answer checks.

Each workload turns a seed into a sequence of start parameters, and each
start into a ``moi`` command line; the program sees only that command line.  The answer checks use the
acceptance bounds of ``tests/test_acceptance.py`` unchanged.  Why each
workload exists, and why its seed range stops where it does, is written
down in ``README.md`` next to this file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: 9-bus crossing bracketed by ``mode`` from start 1.0 at h = 1/60, tol 1e-6
#: (the p_star of that run); every start in [1.0, 1.2] brackets it
NINEBUS_CROSSING = 0.4797142028808593
NINEBUS_TOL = 1e-6

#: criterion 1's pinned bracket and criterion 2's mode bound
PENDULUM_BRACKET = (1.5676, 1.5696)
PENDULUM_MODE_BOUND = 0.016

SWEEP_H = "0.8,0.4,0.2,0.1,0.08"


@dataclass(frozen=True)
class Workload:
    """One named CLI workload.

    ``argv(start, out)`` is the command line; ``check(text, start)`` returns
    the list of failed answer checks (empty when the answer is right) and
    the workload's ``mode_err``; ``setup`` is the Python code that builds
    the model the CLI builds, timed in a fresh interpreter as ``setup_s``;
    ``warmup`` is a short command run once, untimed, before the timed ops.
    """

    name: str
    start_range: tuple[float, float]
    argv: Callable[[str, str], list[str]]
    check: Callable[[str, float], tuple[list[str], float]]
    setup: str
    warmup: list[str]

    def start(self, seed: int, index: int = 0) -> str:
        """The ``index``-th start parameter of ``seed``, as the CLI receives it."""
        lo, hi = self.start_range
        rng = random.Random(seed)
        for _ in range(index):
            rng.random()
        return f"{lo + (hi - lo) * rng.random():.4f}"


def pendulum_mode_error(p: float, vector) -> float:
    """2-norm distance from the analytic escape direction at torque ``p``.

    The saddle of x1' = x2, x2' = -c1 sin x1 - c2 x2 + p sits at
    x1 = pi - asin(p/c1); its Jacobian [[0, 1], [a, -c2]] with
    a = c1 cos(asin(p/c1)) has the unstable eigenpair
    lambda = (-c2 + sqrt(c2^2 + 4a))/2, v ~ (1, lambda).  Both vectors are
    compared with the largest-magnitude entry made positive.
    """
    from moi import PendulumParams

    params = PendulumParams()
    c1, c2 = params.c1, params.c2
    a = c1 * math.sqrt(1.0 - (p / c1) ** 2)
    lam = (-c2 + math.sqrt(c2 * c2 + 4.0 * a)) / 2.0
    target = np.array([1.0, lam]) / math.hypot(1.0, lam)
    v = np.asarray(vector, dtype=float)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return float(np.linalg.norm(v - target))


def ninebus_mode_error(record: dict) -> float:
    """Distance from the unstable eigenvector at the controlling equilibrium.

    Re-simulates the reported parameter, takes the averaging-window state
    with the smallest field norm (the trajectory lingers near the
    controlling unstable equilibrium there), Newton-solves f = 0 from it,
    and compares the reported mode with the unstable eigenvector of the
    Jacobian at that equilibrium (controlling-UEP idea, used as a check).
    """
    from moi import (
        MULTIMACHINE_DIVERGENCE_NORM,
        IntegratorConfig,
        bundled_network_path,
        canonical_sign,
        eval_field,
        eval_jacobian,
        find_equilibrium,
        find_sep,
        load_network,
        multimachine_system,
        simulate,
        unstable_eigenpair,
    )

    system = multimachine_system(load_network(bundled_network_path()))
    p = np.asarray(record["p"], dtype=float)
    cfg = IntegratorConfig(
        step=record["h"], divergence_norm=MULTIMACHINE_DIVERGENCE_NORM
    )
    traj = simulate(system, p, cfg, find_sep(system, p))
    window = traj.states[: record["j_index"] + 1]
    norms = [np.linalg.norm(eval_field(system, x, p)) for x in window]
    uep = find_equilibrium(system, p, window[int(np.argmin(norms))])
    vector = unstable_eigenpair(eval_jacobian(system, uep, p)).vector
    reported = canonical_sign(np.asarray(record["eigenvector"], dtype=float))
    return float(np.linalg.norm(canonical_sign(vector) - reported))


def check_pendulum_mode(text: str, start: float) -> tuple[list[str], float]:
    record = json.loads(text)
    p = record["p"][0]
    err = pendulum_mode_error(p, record["eigenvector"])
    failed = []
    if not PENDULUM_BRACKET[0] <= p <= PENDULUM_BRACKET[1]:
        failed.append(f"p = {p} outside {list(PENDULUM_BRACKET)}")
    if not err < PENDULUM_MODE_BOUND:
        failed.append(f"mode_err = {err} not < {PENDULUM_MODE_BOUND}")
    return failed, err


def check_ninebus_mode(text: str, start: float) -> tuple[list[str], float]:
    record = json.loads(text)
    p = record["p"][0]
    failed = []
    if not record["eigenvalue"] > 0.0:
        failed.append(f"eigenvalue = {record['eigenvalue']} not > 0")
    order = np.argsort(-np.abs(np.asarray(record["eigenvector"])))
    top = {record["state_names"][i] for i in order[:2]}
    if top != {"omega_2", "omega_3"}:
        failed.append(f"largest entries {sorted(top)}, not omega_2 and omega_3")
    if not p < start:
        failed.append(f"p = {p} not below the start {start}")
    if not abs(p - NINEBUS_CROSSING) <= NINEBUS_TOL:
        failed.append(
            f"p = {p} farther than {NINEBUS_TOL} from the crossing "
            f"{NINEBUS_CROSSING}"
        )
    if failed:
        return failed, math.nan
    return failed, ninebus_mode_error(record)


def check_pendulum_sweep(text: str, start: float) -> tuple[list[str], float]:
    rows = list(csv.DictReader(io.StringIO(text)))
    failed = []
    if len(rows) != len(SWEEP_H.split(",")):
        return [f"{len(rows)} rows, expected {len(SWEEP_H.split(','))}"], math.nan
    bad = [r["h"] for r in rows if r["status"] != "ok"]
    if bad:
        return [f"rows not ok at h = {bad}"], math.nan
    p_star = [float(r["p_star"]) for r in rows]
    if not all(a < b for a, b in zip(p_star, p_star[1:])):
        failed.append(f"p_star does not rise as h shrinks: {p_star}")
    finest = rows[-1]
    if any(float(finest[k]) != 0.0 for k in ("frob_err", "eig_err", "vec_err")):
        failed.append(f"finest row's error columns are not 0: {finest}")
    return failed, max(float(r["vec_err"]) for r in rows)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pendulum-mode",
            start_range=(1.45, 1.52),
            argv=lambda start, out: [
                "mode", "--model", "pendulum", "--p", start, "--h", "0.02",
                "--tol", "0", "--out", out,
            ],
            check=check_pendulum_mode,
            setup="import moi\n"
            "moi.pendulum_system(moi.PendulumParams(ic_method='integrated', "
            "ic_step=0.02))\n",
            warmup=["simulate", "--model", "pendulum", "--p", "1.5",
                    "--h", "0.02"],
        ),
        Workload(
            name="ninebus-mode",
            start_range=(1.0, 1.2),
            argv=lambda start, out: [
                "mode", "--model", "multimachine", "--p", start,
                "--h", "0.016666666666666666", "--tol", "1e-6", "--out", out,
            ],
            check=check_ninebus_mode,
            setup="import moi\n"
            "moi.multimachine_system(moi.load_network("
            "moi.bundled_network_path()))\n",
            warmup=["simulate", "--model", "multimachine", "--p", "1.0",
                    "--h", "0.016666666666666666"],
        ),
        Workload(
            name="pendulum-sweep-coarse",
            start_range=(1.45, 1.52),
            argv=lambda start, out: [
                "sweep", "--model", "pendulum", "--p0", start, "--dir", "1",
                "--h", SWEEP_H, "--tol", "0", "--out", out,
            ],
            check=check_pendulum_sweep,
            setup="import moi\n"
            "moi.pendulum_system(moi.PendulumParams(ic_method='integrated', "
            "ic_step=0.02))\n",
            warmup=["simulate", "--model", "pendulum", "--p", "1.5",
                    "--h", "0.02"],
        ),
    )
}

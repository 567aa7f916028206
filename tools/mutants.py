"""Mutation checks of the escape proofs: each mutant must fail its tests.

    python tools/mutants.py
    python tools/mutants.py --only cone-floor-dropped --only escape-untimed
    python tools/mutants.py --list

Each row of ``MUTANTS`` names a module of ``src/moi``, an exact fragment
of its source, the fragment's replacement and the test node ids that must
kill it.  For each mutant the tool copies ``src/moi`` to a temporary
directory, replaces the fragment there, and runs only those tests with
``pytest`` in a subprocess that imports the copy.  A mutant is killed when
its tests fail; it survives when they pass.  The tool prints one line per
mutant and exits 1 when a mutant survives, when its fragment does not
occur exactly once in its module, or when its tests cannot run (pytest
exits with a usage error or collects no test); else 0.  It needs nothing
but ``pytest`` and this checkout.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "moi"


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str
    fragment: str
    replacement: str
    tests: tuple[str, ...]


CONE_PROOF = ("tests/test_certificate_proofs.py::test_pendulum_escape_row_meets_its_proof",)
CROSSING = ("tests/test_escape.py::test_crossing_is_the_union_of_the_energy_set_and_the_cone",)

MUTANTS = (
    # the exit cone (model_zoo._pendulum_cone and its test)
    Mutant("cone-parabola-halved", "model_zoo.py",
           "    wide = 1.0 / (reach * gamma * gamma)\n",
           "    wide = 0.5 / (reach * gamma * gamma)\n",
           CONE_PROOF),
    Mutant("cone-floor-dropped", "model_zoo.py",
           "    return np.minimum(alpha - rows[:, 8] * (beta * beta) - rows[:, 10], "
           "alpha - rows[:, 11])",
           "    return alpha - rows[:, 8] * (beta * beta) - rows[:, 10]",
           CROSSING),
    Mutant("cone-stable-eigenvector", "model_zoo.py",
           "    alpha = rows[:, 5] * d + rows[:, 7] * x[:, 1]",
           "    alpha = rows[:, 6] * d - rows[:, 7] * x[:, 1]",
           CROSSING),
    Mutant("cone-reach-unbounded", "model_zoo.py",
           "    reached = (alpha > 0.0) & (alpha <= r[:, 9])",
           "    reached = alpha > 0.0",
           CROSSING),
    Mutant("cone-entry-untimed", "model_zoo.py",
           "        np.divide(before, before - phi, out=f, where=before < 0.0)",
           "        f[:] = 1.0",
           CROSSING),
    # the energy set and the engine's timing of escapes
    Mutant("escape-no-past-saddle-mask", "model_zoo.py",
           "            timed = x_prev[entered, 0] > saddle",
           "            timed = x_prev[entered, 0] > -np.inf",
           ("tests/test_escape.py::test_saddle_crossed_in_the_last_step_keeps_the_step_count",)),
    Mutant("escape-no-norm-guard", "integrator.py",
           "            timed = diverged & ~beyond & (steps > 1)",
           "            timed = diverged & (steps > 1)",
           ("tests/test_escape.py::test_norm_end_is_timed_on_the_secant_of_the_last_two_norms",)),
    Mutant("norm-untimed", "integrator.py",
           "        if _count_nonzero(beyond):\n            # a norm end",
           "        if False:\n            # a norm end",
           ("tests/test_escape.py::test_norm_end_is_timed_on_the_secant_of_the_last_two_norms",)),
    Mutant("escape-untimed", "integrator.py",
           "            tau[timed] = steps[timed] - 1 + entered[timed]",
           "            tau[timed] = steps[timed]",
           ("tests/test_escape.py::"
            "test_engine_times_an_escape_by_the_systems_crossing_alike_in_any_batch",)),
    Mutant("escape-gate-without-width", "model_zoo.py",
           "        gate = saddle + np.maximum(width, 0.0)",
           "        gate = saddle + 0.0 * width",
           ("tests/test_escape.py::test_energy_is_evaluated_only_on_states_past_the_gate",)),
)


def apply(mutant: Mutant, package: Path) -> str | None:
    """Write ``mutant`` into the copy ``package`` of ``src/moi``; returns
    why it cannot be applied, or None."""
    path = package / mutant.module
    source = path.read_text()
    count = source.count(mutant.fragment)
    if count != 1:
        return f"fragment occurs {count} times in {mutant.module}"
    path.write_text(source.replace(mutant.fragment, mutant.replacement))
    return None


def run(mutant: Mutant) -> tuple[str, str]:
    """(outcome, detail) of one mutant: ``killed``, ``survived`` or
    ``error``."""
    with tempfile.TemporaryDirectory() as scratch:
        package = Path(scratch) / "src" / "moi"
        shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
        problem = apply(mutant, package)
        if problem is not None:
            return "error", problem
        env = dict(os.environ, PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    last = (done.stdout.strip().splitlines() or [""])[-1]
    if done.returncode == 0:
        return "survived", last
    if done.returncode == 1:
        return "killed", last
    return "error", f"pytest exit {done.returncode}: {last}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", choices=[m.name for m in MUTANTS],
                        help="run this mutant (repeatable); default: all")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    if args.list:
        for m in chosen:
            print(f"{m.name:28s} {m.module:16s} {' '.join(m.tests)}")
        return 0
    failed = 0
    for m in chosen:
        outcome, detail = run(m)
        failed += outcome != "killed"
        print(f"{m.name:28s} {outcome:9s} {detail}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

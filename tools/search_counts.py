"""Counts of the batched work behind the benchmark's three command lines,
optionally against a second copy of the package.

    PYTHONPATH=src python tools/search_counts.py
    PYTHONPATH=src python tools/search_counts.py --against OTHER/src/moi

Runs each command line through ``run_cli`` once per start: pendulum
``mode`` at h 0.02 and tol 0, 9-bus ``mode`` at h 1/60 and tol 1e-6, and
the coarse pendulum ``sweep`` (h 0.8 ... 0.08, tol 0).  Per run it counts:

- ``batch_steps``: ``Lockstep.step`` calls;
- ``member_steps``: members advanced, summed over batched trapezoidal steps;
- ``scalar_steps``: single-state trapezoidal steps (the mode's averaging
  trajectory, and probes of systems that do not step in lockstep);
- ``started``: members started by ``Lockstep.add``;
- ``dropped``: started members that no search classified;
- ``reported`` / ``dropped_live``: members whose end ``Lockstep.step``
  returned, and members that ``Lockstep.drop`` removed before they were
  reported.  Every started member is one or the other, and none is live
  when the command ends; a run where that does not hold fails;
- ``certified`` / ``dwell``: lockstep members that ended ``CONVERGED_TO_SEP``
  inside their certified level set, or by the ``sep_tol``/``sep_dwell``
  rule (a package without certificates has only dwell ends);
- ``undetermined``: classified probes whose verdict is ``UNDETERMINED``
  (they ended ``MAX_TIME_REACHED`` or ``SOLVER_FAILURE``);
- ``guided`` / ``uniform``: committed refinement rounds whose points are,
  or are not, other than the uniform ``_round_points`` of their bracket.

The counts are exact and repeat from run to run; ``cpu_s`` is the run's
CPU time, for orientation only.  With ``--against`` the other package is
imported under another name, runs the same command lines, and the output
files of the two packages are compared byte for byte, as are the verdicts
of the classified probes in order: ``now_recover`` counts the probes that
are ``UNDETERMINED`` there and ``RECOVERS`` here, ``verdicts_differ`` any
other change.  The last line of output is one JSON object with every
count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from step_timings import load_package  # noqa: E402

WORKLOADS = {
    "pendulum-mode": (
        ["1.45", "1.4734", "1.50", "1.5199"],
        lambda start: ["mode", "--model", "pendulum", "--p", start, "--h", "0.02",
                       "--tol", "0"],
    ),
    "ninebus-mode": (
        ["1.0", "1.1", "1.2"],
        lambda start: ["mode", "--model", "multimachine", "--p", start,
                       "--h", "0.016666666666666666", "--tol", "1e-6"],
    ),
    "pendulum-sweep-coarse": (
        ["1.45", "1.50"],
        lambda start: ["sweep", "--model", "pendulum", "--p0", start, "--dir", "1",
                       "--h", "0.8,0.4,0.2,0.1,0.08", "--tol", "0"],
    ),
}

COLUMNS = ("batch_steps", "member_steps", "scalar_steps", "started", "dropped",
           "reported", "dropped_live", "certified", "dwell", "undetermined",
           "guided", "uniform", "cpu_s")


@contextlib.contextmanager
def counting(moi, counts: Counter, verdicts: list):
    """Wrap the package's stepping and search entry points to add to
    ``counts``, and the verdicts of classified probes to ``verdicts``, while
    the block runs.  On leaving it, ``counts["live"]`` holds the members
    still live in the Locksteps started during the block."""
    integ, rb = moi.integrator, moi.recovery_boundary
    converged = moi.Termination.CONVERGED_TO_SEP
    lock_cls, search_cls = integ.Lockstep, rb._PipelinedSearch
    saved = [
        (integ, "step_trapezoidal_batch", integ.step_trapezoidal_batch),
        (integ, "step_trapezoidal", integ.step_trapezoidal),
        (lock_cls, "step", lock_cls.step),
        (lock_cls, "add", lock_cls.add),
        (lock_cls, "drop", lock_cls.drop),
        (search_cls, "_commit", search_cls._commit),
    ]
    batch, scalar, step, add, drop, commit = (fn for _, _, fn in saved)
    locks: dict = {}

    def counted_batch(sys_, x, p, cfg):
        counts["member_steps"] += len(x)
        return batch(sys_, x, p, cfg)

    def counted_scalar(*args):
        counts["scalar_steps"] += 1
        return scalar(*args)

    def counted_step(self):
        counts["batch_steps"] += 1
        # the member arrays are replaced, not changed, by a step
        ids, sep, form, level = (getattr(self, name, None)
                                 for name in ("_ids", "_sep", "_form", "_level"))
        ends = step(self)
        counts["reported"] += len(ends)
        for k, end in ends.items():
            at = np.flatnonzero(ids == k)
            if end.termination is not converged or not len(at):
                continue
            i = at[0]
            certified = level is not None and integ._quadratic(
                form[i], integ._offset(end.final_state, sep[i], self._wrap)
            ) <= level[i]
            counts["certified" if certified else "dwell"] += 1
        return ends

    def counted_add(self, p, sep):
        ids = add(self, p, sep)
        counts["started"] += len(ids)
        locks[id(self)] = self
        return ids

    def counted_drop(self, ids):
        before = len(self)
        drop(self, ids)
        counts["dropped_live"] += before - len(self)

    def counted_commit(self, r):
        before = len(self.history)
        if r.hi is not None and r.points:
            uniform = rb._round_points(r.lo[0], r.hi, self.sections)
            same = len(uniform) == len(r.points) and all(
                (a == b).all() for a, b in zip(uniform, r.points)
            )
            counts["uniform" if same else "guided"] += 1
        try:
            return commit(self, r)
        finally:
            new = [verdict.value for _, verdict in self.history[before:]]
            counts["classified"] += len(new)
            counts["undetermined"] += new.count("Undetermined")
            verdicts.extend(new)

    replacements = [counted_batch, counted_scalar, counted_step, counted_add,
                    counted_drop, counted_commit]
    for (owner, name, _), new in zip(saved, replacements):
        setattr(owner, name, new)
    try:
        yield
    finally:
        counts["live"] = sum(len(lock) for lock in locks.values())
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def run_once(moi, argv: list, out: Path) -> tuple[dict, bytes, list]:
    """Counts of one command line, the bytes of its output file and the
    verdicts of its classified probes."""
    counts: Counter = Counter()
    verdicts: list = []
    t0 = time.process_time()
    with counting(moi, counts, verdicts), contextlib.redirect_stdout(io.StringIO()):
        code = moi.run_cli(argv + ["--out", str(out)])
    cpu = time.process_time() - t0
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    accounted = counts["reported"] + counts["dropped_live"]
    if counts["started"] != accounted or counts["live"]:
        raise SystemExit(
            f"{' '.join(argv)}: {counts['started']} members started, "
            f"{counts['reported']} reported, {counts['dropped_live']} dropped, "
            f"{counts['live']} still live"
        )
    row = {name: counts[name] for name in COLUMNS[:-1]}
    row["dropped"] = counts["started"] - counts["classified"]
    row["cpu_s"] = round(cpu, 3)
    return row, out.read_bytes(), verdicts


def verdict_changes(this: list, against: list) -> dict:
    """``now_recover`` and ``verdicts_differ`` of two verdict sequences."""
    pairs = list(zip(this, against))
    now_recover = pairs.count(("Recovers", "Undetermined"))
    differ = sum(a != b for a, b in pairs) - now_recover + abs(len(this) - len(against))
    return {"now_recover": now_recover, "verdicts_differ": differ}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, default=None)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    import moi

    sides = {"this": moi}
    if args.against is not None:
        sides["against"] = load_package(args.against.resolve(), "moi_against")
    result: dict = {}
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload or WORKLOADS:
            starts, command = WORKLOADS[name]
            for start in starts:
                outputs, verdicts = {}, {}
                for side, package in sides.items():
                    row, outputs[side], verdicts[side] = run_once(
                        package, command(start), Path(tmp) / f"{side}.out"
                    )
                    result.setdefault(name, {}).setdefault(start, {})[side] = row
                    cells = "  ".join(f"{k} {row[k]}" for k in COLUMNS)
                    print(f"{name:22s} {start:7s} {side:8s} {cells}", flush=True)
                if len(sides) > 1:
                    changes = verdict_changes(verdicts["this"], verdicts["against"])
                    result[name][start]["changes"] = changes
                    cells = "  ".join(f"{k} {v}" for k, v in changes.items())
                    print(f"{name:22s} {start:7s} {'changes':8s} {cells}", flush=True)
                if len(set(outputs.values())) > 1:
                    differ.append(f"{name} {start}")
    for name in differ:
        print(f"outputs differ: {name}", file=sys.stderr)
    print(json.dumps({"workloads": result, "outputs_differ": differ}))
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())

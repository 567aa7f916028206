"""Counts of the batched work behind the benchmark's three command lines,
optionally against a second copy of the package.

    PYTHONPATH=src python tools/search_counts.py
    PYTHONPATH=src python tools/search_counts.py --against OTHER/src/moi

Runs each command line through ``run_cli`` once per start: pendulum
``mode`` at h 0.02 and tol 0, 9-bus ``mode`` at h 1/60 and tol 1e-6, and
the coarse pendulum ``sweep`` (h 0.8 ... 0.08, tol 0).  Per run it counts:

- ``batch_steps``: ``Lockstep.step`` calls of the searches' Locksteps;
- ``member_steps``: search members advanced, summed over both steppers
  (batched trapezoidal steps and the single-state steps of lone members);
- ``scalar_steps``: single-state trapezoidal steps, in searches and in
  recorded runs alike;
- ``recorded_steps``: single-state steps taken outside the searches'
  Locksteps, i.e. by ``simulate`` (the mode's averaging trajectory);
- ``started``: members started in the searches' Locksteps by
  ``Lockstep.add``;
- ``dropped``: started members that no search classified;
- ``groups`` / ``groups_dropped``: groups of members the searches
  started together (``Lockstep.add`` calls), and those of them none of
  whose members a search classified: rounds started on a provisional
  bracket that the final walk contradicted;
- ``reported`` / ``dropped_live``: members whose end ``Lockstep.step``
  returned, and members that ``Lockstep.drop`` removed before they were
  reported, in the searches' Locksteps.  Every started member is one or
  the other, and none is live when the command ends; a run where that does
  not hold fails;
- ``certified`` / ``dwell`` / ``escaped`` / ``beyond_norm`` / ``budget`` /
  ``solver``: reported members by the rule that ended them
  (``RunEnd.rule``): ``CONVERGED_TO_SEP`` inside their certified level set
  or by the ``SEP_TOL``/``SEP_DWELL`` rule, ``DIVERGED`` in their escape
  set or beyond the divergence norm, ``MAX_TIME_REACHED`` or
  ``SOLVER_FAILURE``.  Every reported member has one rule; a run where
  these columns do not add up to ``reported`` fails;
- ``certified_steps`` / ``diverged_steps``: the steps at which the
  ``certified`` members, and all members that ended ``DIVERGED``, ended,
  summed; over ``certified`` and over ``escaped + beyond_norm`` they give
  the mean recovering and failing end, the ends that set a round's length;
- ``timed`` / ``tau_sum``: search members that ended ``DIVERGED`` at an
  end time ``RunEnd.tau`` below their step count (timed within their last
  step), and their ``tau`` summed in the order they were reported, a float
  printed with all its digits;
- ``undetermined``: classified probes whose verdict is ``UNDETERMINED``
  (they ended ``MAX_TIME_REACHED`` or ``SOLVER_FAILURE``);
- ``guided`` / ``contiguous`` / ``uniform``: committed refinement rounds
  whose points are the uniform ``_round_points`` of their bracket
  (``uniform``), or else consecutive doubles, each the next double after
  the one before (``contiguous``), or neither (``guided``).

The counts are exact and repeat from run to run; ``cpu_s`` is the run's
CPU time, for orientation only.  After its starts, each workload prints a
``total`` row per package, the sum of its rows (and of their ``changes``),
which the JSON carries under the start ``total``.  With ``--against`` the
other package is imported under another name, runs the same command lines,
and what the two packages print on stdout and write to their output files
is compared byte for byte.  The verdicts are compared point by point: the
probes of each search (one per ``mode``, one per ``sweep`` row) that one
package classified and the other did not probe are classified with the
other package too, at the same SEP, so every point either package probed
has a verdict from both.  ``now_recover`` counts the points that are
``UNDETERMINED`` there and ``RECOVERS`` here, ``verdicts_differ`` any other
change, and ``points`` the points compared.
The last line of output is one JSON object with every count.
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

COLUMNS = ("batch_steps", "member_steps", "scalar_steps", "recorded_steps",
           "started", "dropped", "groups", "groups_dropped",
           "reported", "dropped_live", "certified", "dwell", "escaped",
           "beyond_norm", "budget", "solver", "certified_steps", "diverged_steps",
           "timed", "tau_sum", "undetermined", "guided", "contiguous", "uniform",
           "cpu_s")
#: the column that counts the ends of each rule (``RunEnd.rule``)
RULE_COLUMNS = {"certified": "certified", "dwell": "dwell", "escape": "escaped",
                "norm": "beyond_norm", "budget": "budget", "solver": "solver"}


def placement(rb, p_lo, p_hi, points: list) -> str:
    """How a refinement round of the bracket (``p_lo``, ``p_hi``) placed
    its ``points``: ``uniform``, ``contiguous`` or ``guided`` (see the
    module docstring); ``rb`` is the package's ``recovery_boundary``."""
    uniform = rb._round_points(p_lo, p_hi)
    if len(uniform) == len(points) and all((a == b).all() for a, b in zip(uniform, points)):
        return "uniform"
    if all((np.nextafter(a, b) == b).all() for a, b in zip(points, points[1:])):
        return "contiguous"
    return "guided"


@contextlib.contextmanager
def counting(moi, counts: Counter, searches: dict):
    """Wrap the package's stepping and search entry points to add to
    ``counts`` while the block runs, and record in ``searches`` each search,
    in the order of its first commit, with the points, SEPs and verdicts of
    its classified probes.  Only the Locksteps that searches make are
    counted as search work.  On leaving it, ``counts["live"]`` holds the
    members still live in them."""
    integ, rb = moi.integrator, moi.recovery_boundary
    diverged = moi.Termination.DIVERGED
    lock_cls, search_cls = integ.Lockstep, rb._PipelinedSearch
    saved = [
        (integ, "step_trapezoidal_batch", integ.step_trapezoidal_batch),
        (integ, "step_trapezoidal", integ.step_trapezoidal),
        (lock_cls, "step", lock_cls.step),
        (lock_cls, "add", lock_cls.add),
        (lock_cls, "drop", lock_cls.drop),
        (search_cls, "__init__", search_cls.__init__),
        (search_cls, "_commit", search_cls._commit),
    ]
    batch, scalar, step, add, drop, init, commit = (fn for _, _, fn in saved)
    #: the searches' Locksteps by id, and whether one of them is stepping
    locks: dict = {}
    stepping = [False]

    def counted_batch(sys_, x, p, cfg, fx=None):
        if stepping[0]:
            counts["member_steps"] += len(x)
        return batch(sys_, x, p, cfg, fx)

    def counted_scalar(*args):
        counts["scalar_steps"] += 1
        counts["member_steps" if stepping[0] else "recorded_steps"] += 1
        return scalar(*args)

    def counted_step(self):
        if id(self) not in locks:
            return step(self)
        counts["batch_steps"] += 1
        stepping[0] = True
        try:
            ends = step(self)
        finally:
            stepping[0] = False
        counts["reported"] += len(ends)
        for end in ends.values():
            counts["rule", end.rule] += 1
            steps = round(end.elapsed / self.cfg.step)
            if end.termination is diverged:
                counts["diverged_steps"] += steps
                if end.tau < steps:
                    counts["timed"] += 1
                    counts["tau_sum"] += end.tau
            elif end.rule == "certified":
                counts["certified_steps"] += steps
        return ends

    def counted_add(self, p, sep):
        ids = add(self, p, sep)
        if id(self) in locks:
            counts["started"] += len(ids)
            counts["groups"] += 1
        return ids

    def counted_drop(self, ids):
        before = len(self)
        drop(self, ids)
        if id(self) in locks:
            counts["dropped_live"] += before - len(self)

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        locks[id(self.lock)] = self.lock

    def counted_commit(self, r):
        before = len(self.history)
        if r.hi is not None and r.points:
            counts[placement(rb, r.lo[0], r.hi, r.points)] += 1
        try:
            return commit(self, r)
        finally:
            new = [verdict.value for _, verdict in self.history[before:]]
            counts["classified"] += len(new)
            counts["groups_classified"] += bool(new)
            counts["undetermined"] += new.count("Undetermined")
            probes = searches.setdefault(self, {})
            for p, sep, verdict in zip(r.points, r.seps, new):
                probes[p.tobytes()] = (p, sep, verdict)

    replacements = [counted_batch, counted_scalar, counted_step, counted_add,
                    counted_drop, counted_init, counted_commit]
    for (owner, name, _), new in zip(saved, replacements):
        setattr(owner, name, new)
    try:
        yield
    finally:
        counts["live"] = sum(len(lock) for lock in locks.values())
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def run_once(moi, argv: list, out: Path) -> tuple[dict, str, bytes, dict]:
    """Counts of one command line, what it printed on stdout, the bytes of
    its output file and its searches with their classified probes (see
    :func:`counting`)."""
    counts: Counter = Counter()
    searches: dict = {}
    stdout = io.StringIO()
    t0 = time.process_time()
    with counting(moi, counts, searches), contextlib.redirect_stdout(stdout):
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
    for rule, column in RULE_COLUMNS.items():
        row[column] = counts["rule", rule]
    if sum(row[column] for column in RULE_COLUMNS.values()) != counts["reported"]:
        raise SystemExit(
            f"{' '.join(argv)}: {counts['reported']} members reported, of which "
            + ", ".join(f"{row[column]} {column}" for column in RULE_COLUMNS.values())
        )
    row["dropped"] = counts["started"] - counts["classified"]
    row["groups_dropped"] = counts["groups"] - counts["groups_classified"]
    row["tau_sum"] = float(counts["tau_sum"])
    row["cpu_s"] = round(cpu, 3)
    return row, stdout.getvalue(), out.read_bytes(), searches


def classify(moi, search, probes: list) -> list:
    """The verdicts that package ``moi`` gives the (point, SEP) pairs of
    ``probes`` on the system and configuration of its own ``search``."""
    if not probes:
        return []
    lock = moi.integrator.Lockstep(search.sys, search.cfg)
    first = int(lock.add(np.array([p for p, _ in probes]),
                         np.array([sep for _, sep in probes]))[0])
    ends: dict = {}
    while len(lock):
        ends.update(lock.step())
    return [
        moi.recovery_boundary.classify_recovery(
            search.sys, p, search.cfg, sep, ends[first + i]
        ).verdict.value
        for i, (p, sep) in enumerate(probes)
    ]


def verdict_changes(sides: dict, searches: dict) -> dict:
    """Point-wise verdict changes between the packages ``sides["this"]``
    and ``sides["against"]``, whose runs of one command line made the
    searches ``searches["this"]`` and ``searches["against"]``."""
    if len(searches["this"]) != len(searches["against"]):
        raise SystemExit("the two packages made different numbers of searches")
    pairs: list = []
    for pair in zip(searches["this"], searches["against"]):
        found = dict(zip(("this", "against"), pair))
        probes = {side: searches[side][search] for side, search in found.items()}
        # every point either side probed, each with both packages' verdicts
        points = {key: (p, sep) for side in found for key, (p, sep, _) in probes[side].items()}
        verdicts = {side: {key: v for key, (_, _, v) in probes[side].items()}
                    for side in found}
        for side, search in found.items():
            missing = [key for key in points if key not in verdicts[side]]
            fresh = classify(sides[side], search, [points[key] for key in missing])
            verdicts[side].update(zip(missing, fresh))
        pairs += [(verdicts["this"][key], verdicts["against"][key]) for key in points]
    now_recover = pairs.count(("Recovers", "Undetermined"))
    differ = sum(a != b for a, b in pairs) - now_recover
    return {"now_recover": now_recover, "verdicts_differ": differ, "points": len(pairs)}


def totals(starts) -> dict:
    """The sums, column by column, of the rows of each package (and of
    their ``changes``) over a workload's ``starts``."""
    total: dict = {}
    for rows in starts:
        for side, row in rows.items():
            into = total.setdefault(side, dict.fromkeys(row, 0))
            for k, v in row.items():
                into[k] += v
    for row in total.values():
        if "cpu_s" in row:
            row["cpu_s"] = round(row["cpu_s"], 3)
    return total


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
                outputs, searches = {}, {}
                for side, package in sides.items():
                    row, stdout, written, searches[side] = run_once(
                        package, command(start), Path(tmp) / f"{side}.out"
                    )
                    outputs[side] = (stdout, written)
                    result.setdefault(name, {}).setdefault(start, {})[side] = row
                    cells = "  ".join(f"{k} {row[k]}" for k in COLUMNS)
                    print(f"{name:22s} {start:7s} {side:8s} {cells}", flush=True)
                if len(sides) > 1:
                    changes = verdict_changes(sides, searches)
                    result[name][start]["changes"] = changes
                    cells = "  ".join(f"{k} {v}" for k, v in changes.items())
                    print(f"{name:22s} {start:7s} {'changes':8s} {cells}", flush=True)
                if len(set(outputs.values())) > 1:
                    differ.append(f"{name} {start}")
            result[name]["total"] = total = totals(result[name].values())
            for side, row in total.items():
                cells = "  ".join(f"{k} {v}" for k, v in row.items())
                print(f"{name:22s} {'total':7s} {side:8s} {cells}", flush=True)
    for name in differ:
        print(f"outputs differ: {name}", file=sys.stderr)
    print(json.dumps({"workloads": result, "outputs_differ": differ}))
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())

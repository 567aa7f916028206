"""tools/search_counts.py against this package: its counts and the
command's captured stdout and output file repeat, it
still sees the certified and escaped ends and the steps at which they end,
every member it counts as started is accounted for, it counts only the
searches' members as search work and both steppers' member steps, it
counts rounds on consecutive doubles apart from guided and uniform ones,
counts the escapes timed within their last step with their end times,
each workload ends with a total row, its point-wise verdict comparison
sees a changed verdict, and it counts each reported end under the rule
that ended it (``RunEnd.rule``), failing a run where the rule columns do
not add up to the reported ends.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import moi

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import search_counts  # noqa: E402

ARGV = ["mode", "--model", "pendulum", "--p", "1.5", "--h", "0.05", "--tol", "1e-3"]


def test_counts_repeat_and_see_certified_ends(tmp_path):
    runs = [search_counts.run_once(moi, ARGV, tmp_path / name) for name in "ab"]
    (first, printed, out, searches), (second, reprinted, again, _) = runs
    assert out == again and printed == reprinted
    # the summary line that --against compares along with the file
    assert printed.startswith("mode pendulum: eigenvalue = ")
    del first["cpu_s"], second["cpu_s"]
    assert first == second
    assert first["certified"] > 0 and first["dwell"] == 0
    # at h = 0.05 every failing member ends in its escape set
    assert first["escaped"] > 0 and first["beyond_norm"] == 0
    [probes] = searches.values()
    assert len(probes) == first["started"] - first["dropped"]
    # every started member was reported or dropped, counted independently
    # (run_once also fails on a member left live), and the search's drops
    # take members out of the batch
    assert first["started"] == first["reported"] + first["dropped_live"]
    assert first["dropped_live"] > 0
    assert 0 < first["groups_dropped"] < first["groups"]
    # the averaging run has a column of its own, and single-state steps are
    # those of lone search members and of that run
    assert 0 < first["recorded_steps"] < first["scalar_steps"]


def test_groups_are_the_adds_and_those_none_of_whose_members_commit(tmp_path, monkeypatch):
    """groups counts the search's Lockstep.add calls; groups_dropped those
    of them that no committed round began with, matched by Lockstep and
    first member id."""
    added, committed = [], []
    add = moi.integrator.Lockstep.add
    commit = moi.recovery_boundary._PipelinedSearch._commit

    def spy_add(lock, p, sep):
        ids = add(lock, p, sep)
        added.append((id(lock), int(ids[0])))
        return ids

    def spy_commit(search, r):
        if r.points:
            committed.append((id(search.lock), r.first))
        return commit(search, r)

    monkeypatch.setattr(moi.integrator.Lockstep, "add", spy_add)
    monkeypatch.setattr(moi.recovery_boundary._PipelinedSearch, "_commit", spy_commit)
    # a boundary search records no run, so every Lockstep is the search's
    argv = ["boundary", "--model", "pendulum", "--p0", "1.5", "--h", "0.05",
            "--tol", "1e-3"]
    row, _, _, _ = search_counts.run_once(moi, argv, tmp_path / "out")
    assert row["groups"] == len(added) == len(set(added))
    assert row["groups_dropped"] == len(set(added) - set(committed)) > 0
    assert set(committed) <= set(added)


def test_recorded_runs_are_not_search_work(tmp_path):
    """simulate runs a one-member Lockstep: its steps are recorded steps,
    and nothing of it counts as a search's member, step or drop."""
    argv = ["simulate", "--model", "pendulum", "--p", "1.5", "--h", "0.2"]
    row, printed, out, searches = search_counts.run_once(moi, argv, tmp_path / "out")
    assert not searches
    assert row["recorded_steps"] == row["scalar_steps"] == json.loads(out)["steps"] > 0
    assert f"after {row['recorded_steps']} steps" in printed
    for name in ("batch_steps", "member_steps", "started", "dropped", "groups",
                 "groups_dropped", "reported", "dropped_live", "certified", "escaped"):
        assert row[name] == 0, name


def test_member_steps_count_both_steppers(tmp_path, monkeypatch):
    """Every search member advanced counts once, whether it took the
    batched step or, alone, the single-state one."""
    widths = []
    step = moi.integrator.Lockstep.step
    monkeypatch.setattr(moi.integrator.Lockstep, "step",
                        lambda lock: widths.append(len(lock)) or step(lock))
    argv = ["boundary", "--model", "pendulum", "--p0", "1.5", "--h", "0.2",
            "--tol", "1e-6"]
    row, _, _, _ = search_counts.run_once(moi, argv, tmp_path / "out")
    # no member ends by its budget, so each live member takes the step
    assert row["undetermined"] == 0
    assert row["member_steps"] == sum(widths)
    assert row["batch_steps"] == len(widths)
    assert row["recorded_steps"] == 0 and row["scalar_steps"] > 0


def test_end_steps_sum_the_certified_and_diverged_ends(tmp_path, monkeypatch):
    """certified_steps and diverged_steps are the step counts of the
    searches' certified and diverged ends, summed, as the ends' own
    elapsed times give them."""
    reported = []
    step = moi.integrator.Lockstep.step

    def keep(lock):
        ends = step(lock)
        reported.extend((end.termination, end.elapsed / lock.cfg.step) for end in ends.values())
        return ends

    monkeypatch.setattr(moi.integrator.Lockstep, "step", keep)
    # a boundary search records no run, so every Lockstep is the search's
    argv = ["boundary", "--model", "pendulum", "--p0", "1.5", "--h", "0.2",
            "--tol", "1e-6"]
    row, _, _, _ = search_counts.run_once(moi, argv, tmp_path / "out")
    # every recovering end is certified (dwell 0), so each converged end counts
    assert row["dwell"] == 0 and row["recorded_steps"] == 0
    for end, column in ((moi.Termination.CONVERGED_TO_SEP, "certified_steps"),
                        (moi.Termination.DIVERGED, "diverged_steps")):
        steps = [n for kind, n in reported if kind is end]
        assert row[column] == round(sum(steps)) > len(steps) > 0
    assert row["certified"] + row["escaped"] + row["beyond_norm"] == len(reported)


def test_timed_ends_are_counted_with_their_end_times(tmp_path, monkeypatch):
    """timed counts the searches' DIVERGED ends whose tau lies below their
    step count, and tau_sum adds up their tau in the order they were
    reported, bit for bit.  At h = 0.2 failing members end in their escape
    sets; at h = 0.8, where the pendulum has no escape set, they end by the
    norm, and those are timed within their last step too."""
    taus = []
    step = moi.integrator.Lockstep.step

    def keep(lock):
        ends = step(lock)
        for end in ends.values():
            n = round(end.elapsed / lock.cfg.step)
            if end.termination is moi.Termination.DIVERGED and end.tau < n:
                taus.append(end.tau)
        return ends

    monkeypatch.setattr(moi.integrator.Lockstep, "step", keep)
    # a boundary search records no run, so every Lockstep is the search's
    for h, rule, other in (("0.2", "escaped", "beyond_norm"), ("0.8", "beyond_norm", "escaped")):
        taus.clear()
        argv = ["boundary", "--model", "pendulum", "--p0", "1.5", "--h", h,
                "--tol", "1e-6"]
        row, _, _, _ = search_counts.run_once(moi, argv, tmp_path / "out")
        total = 0.0
        for tau in taus:
            total += tau
        assert row["timed"] == len(taus) > 0
        assert row["tau_sum"] == total != round(total)
        assert row["timed"] <= row[rule] and row[other] == 0


def test_every_reported_end_is_counted_under_its_rule(tmp_path, monkeypatch):
    """The six rule columns add up to reported, each end counted under the
    column of its RunEnd.rule; a run with an end of no known rule fails."""
    argv = ["boundary", "--model", "pendulum", "--p0", "1.5", "--h", "0.2",
            "--tol", "1e-3"]
    columns = search_counts.RULE_COLUMNS.values()
    row, _, _, _ = search_counts.run_once(moi, argv, tmp_path / "out")
    assert sum(row[c] for c in columns) == row["reported"] > row["certified"] > 0
    assert row["budget"] == row["solver"] == 0
    step = moi.integrator.Lockstep.step

    def relabel(rule):
        monkeypatch.setattr(
            moi.integrator.Lockstep, "step",
            lambda lock: {k: replace(end, rule=rule) for k, end in step(lock).items()},
        )

    relabel("budget")
    relabelled, _, _, _ = search_counts.run_once(moi, argv, tmp_path / "out")
    assert relabelled["budget"] == relabelled["reported"] == row["reported"]
    assert sum(relabelled[c] for c in columns) == row["reported"]
    relabel("unknown")
    with pytest.raises(SystemExit, match="members reported, of which 0 certified"):
        search_counts.run_once(moi, argv, tmp_path / "out")


def test_verdicts_are_compared_point_by_point(tmp_path):
    """Every point either side probed gets a verdict from both packages;
    a side whose every probe was undetermined shows as one change per
    point."""
    _, _, _, this = search_counts.run_once(moi, ARGV, tmp_path / "this")
    [search] = this
    points = len(this[search])
    # the points the other side did not probe are classified there afresh
    half = {search: dict(list(this[search].items())[::2])}
    same = search_counts.verdict_changes({"this": moi, "against": moi},
                                         {"this": this, "against": half})
    assert same == {"now_recover": 0, "verdicts_differ": 0, "points": points}
    undetermined = {key: (p, sep, "Undetermined") for key, (p, sep, _) in this[search].items()}
    changes = search_counts.verdict_changes(
        {"this": moi, "against": moi}, {"this": this, "against": {search: undetermined}}
    )
    assert changes["points"] == points
    assert changes["now_recover"] + changes["verdicts_differ"] == points


def test_rounds_on_consecutive_doubles_are_counted_apart(tmp_path, monkeypatch):
    """contiguous counts the committed refinement rounds whose points are
    consecutive doubles (each the previous one plus its spacing), other
    than the uniform points; guided the rest that are not uniform."""
    kinds = []
    rb = moi.recovery_boundary
    commit = rb._PipelinedSearch._commit

    def spy_commit(search, r):
        if r.hi is not None and r.points:
            along = np.array([float(p[0]) for p in r.points])
            uniform = rb._round_points(r.lo[0], r.hi)
            if np.array_equal(np.array(uniform)[:, 0], along):
                kinds.append("uniform")
            elif np.array_equal(np.diff(along), np.spacing(along[:-1])):
                kinds.append("contiguous")
            else:
                kinds.append("guided")
        return commit(search, r)

    monkeypatch.setattr(rb._PipelinedSearch, "_commit", spy_commit)
    # from 1.5 at h 0.2 and tol 0 the last fitted round is one on consecutive doubles
    argv = ["boundary", "--model", "pendulum", "--p0", "1.5", "--h", "0.2", "--tol", "0"]
    row, _, _, _ = search_counts.run_once(moi, argv, tmp_path / "out")
    assert row["contiguous"] == kinds.count("contiguous") > 0
    assert row["guided"] == kinds.count("guided") > 0
    assert row["uniform"] == kinds.count("uniform") > 0


def test_each_workload_ends_with_a_total_row(monkeypatch, capsys):
    """After its starts a workload prints, and the JSON carries, the sum of
    each package's rows and of the verdict changes."""
    monkeypatch.setattr(search_counts, "WORKLOADS", {"tiny": (
        ["1.5", "1.52"],
        lambda start: ["boundary", "--model", "pendulum", "--p0", start,
                       "--h", "0.2", "--tol", "1e-3"],
    )})
    package = Path(moi.__file__).resolve().parent
    assert search_counts.main(["--against", str(package)]) == 0
    lines = capsys.readouterr().out.splitlines()
    tiny = json.loads(lines[-1])["workloads"]["tiny"]
    total = tiny.pop("total")
    assert set(total) == {"this", "against", "changes"}
    for side, row in total.items():
        for column, value in row.items():
            summed = sum(start[side][column] for start in tiny.values())
            assert value == pytest.approx(summed, abs=1e-9), (side, column)
        cells = "  ".join(f"{k} {v}" for k, v in row.items())
        assert f"{'tiny':22s} {'total':7s} {side:8s} {cells}" in lines
    assert total["this"]["batch_steps"] == total["against"]["batch_steps"] > 0
    assert total["changes"]["points"] > 0 and total["changes"]["verdicts_differ"] == 0

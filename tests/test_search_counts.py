"""tools/search_counts.py against this package: its counts repeat, it
still sees the certified and escaped ends and the steps at which they end,
every member it counts as started is accounted for, it counts only the
searches' members as search work and both steppers' member steps, and its
point-wise verdict comparison sees a changed verdict.

The tool reads Lockstep's member columns by name and treats a missing one
as "no certificate", so a renamed column would turn every certified end
into a dwell end without an error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import moi

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import search_counts  # noqa: E402

ARGV = ["mode", "--model", "pendulum", "--p", "1.5", "--h", "0.2", "--tol", "1e-3"]


def test_counts_repeat_and_see_certified_ends(tmp_path):
    runs = [search_counts.run_once(moi, ARGV, tmp_path / name) for name in "ab"]
    (first, out, searches), (second, again, _) = runs
    assert out == again
    del first["cpu_s"], second["cpu_s"]
    assert first == second
    assert first["certified"] > 0 and first["dwell"] == 0
    # at h = 0.2 every failing member ends in its escape set
    assert first["escaped"] > 0 and first["beyond_norm"] == 0
    [probes] = searches.values()
    assert len(probes) == first["started"] - first["dropped"]
    # every started member was reported or dropped, counted independently
    # (run_once also fails on a member left live), and the search's drops
    # take members out of the batch
    assert first["started"] == first["reported"] + first["dropped_live"]
    assert first["dropped_live"] > 0
    # the averaging run has a column of its own, and single-state steps are
    # those of lone search members and of that run
    assert 0 < first["recorded_steps"] < first["scalar_steps"]


def test_recorded_runs_are_not_search_work(tmp_path):
    """simulate runs a one-member Lockstep: its steps are recorded steps,
    and nothing of it counts as a search's member, step or drop."""
    argv = ["simulate", "--model", "pendulum", "--p", "1.5", "--h", "0.2"]
    row, out, searches = search_counts.run_once(moi, argv, tmp_path / "out")
    assert not searches
    assert row["recorded_steps"] == row["scalar_steps"] == json.loads(out)["steps"] > 0
    for name in ("batch_steps", "member_steps", "started", "dropped", "reported",
                 "dropped_live", "certified", "escaped"):
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
    row, _, _ = search_counts.run_once(moi, argv, tmp_path / "out")
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
    row, _, _ = search_counts.run_once(moi, argv, tmp_path / "out")
    # every recovering end is certified (dwell 0), so each converged end counts
    assert row["dwell"] == 0 and row["recorded_steps"] == 0
    for end, column in ((moi.Termination.CONVERGED_TO_SEP, "certified_steps"),
                        (moi.Termination.DIVERGED, "diverged_steps")):
        steps = [n for kind, n in reported if kind is end]
        assert row[column] == round(sum(steps)) > len(steps) > 0
    assert row["certified"] + row["escaped"] + row["beyond_norm"] == len(reported)


def test_verdicts_are_compared_point_by_point(tmp_path):
    """Every point either side probed gets a verdict from both packages;
    a side whose every probe was undetermined shows as one change per
    point."""
    _, _, this = search_counts.run_once(moi, ARGV, tmp_path / "this")
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

"""tools/search_counts.py against this package: its counts repeat, it
still sees the certified and escaped ends, every member it counts as
started is accounted for, and its point-wise verdict comparison sees a
changed verdict.

The tool reads Lockstep's member columns by name and treats a missing one
as "no certificate", so a renamed column would turn every certified end
into a dwell end without an error.
"""

from __future__ import annotations

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

"""tools/search_counts.py against this package: its counts repeat, it
still sees the certified ends, and every member it counts as started is
accounted for.

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
    (first, out, verdicts), (second, again, _) = runs
    assert out == again
    del first["cpu_s"], second["cpu_s"]
    assert first == second
    assert first["certified"] > 0 and first["dwell"] == 0
    assert len(verdicts) > 0
    # every started member was reported or dropped, counted independently
    # (run_once also fails on a member left live), and the search's drops
    # take members out of the batch
    assert first["started"] == first["reported"] + first["dropped_live"]
    assert first["dropped_live"] > 0

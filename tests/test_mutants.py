"""tools/mutants.py against this package: its fragments still occur once,
two cheap mutants are killed, and a fragment that is gone is an error."""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import mutants  # noqa: E402


def test_every_fragment_occurs_once():
    for m in mutants.MUTANTS:
        assert (mutants.PACKAGE / m.module).read_text().count(m.fragment) == 1, m.name


def test_two_cheap_mutants_are_killed(capsys):
    argv = ["--only", "escape-no-norm-guard", "--only", "escape-untimed"]
    assert mutants.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:2]] == [
        ["escape-no-norm-guard", "killed"], ["escape-untimed", "killed"]]
    assert lines[-1] == "2 of 2 mutants killed"


def test_a_fragment_that_is_gone_is_an_error():
    gone = replace(mutants.MUTANTS[0], fragment="no such line\n")
    assert mutants.run(gone) == ("error", "fragment occurs 0 times in model_zoo.py")

"""tools/step_timings.py against this package.

The tool reads package internals (``Lockstep``, ``jacobian_lipschitz``),
so a change to them that breaks it fails here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import step_timings  # noqa: E402


CASES = (
    [f"batch_step.{model}.K{k}" for model in ("pendulum", "ninebus") for k in (1, 16, 64)]
    + [f"batch_step.synthetic_n{n}.K16" for n in (3, 10, 30)]
    + ["scalar_step.pendulum", "scalar_step.ninebus", "lockstep_step.pendulum.K17",
       "lockstep_step.pendulum.K17.past_saddle", "lockstep_step.ninebus.K16",
       "simulate_step.pendulum", "simulate_step.pendulum.flags"]
    + [f"recovery_sets.{model}.K{k}" for model in ("pendulum", "ninebus") for k in (1, 16)]
    + ["load_network.bundled"]
)


def test_two_rounds_time_every_case(capsys):
    assert step_timings.main(["--rounds", "2"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["rounds"] == 2
    assert sorted(result["cases"]) == sorted(CASES)
    for case in result["cases"].values():
        assert set(case) == {"this"}
        assert case["this"]["q1"] <= case["this"]["median"] <= case["this"]["q3"]


@pytest.mark.parametrize("rounds", ["1", "0", "-3"])
def test_fewer_than_two_rounds_is_a_usage_error(capsys, rounds):
    with pytest.raises(SystemExit) as exited:
        step_timings.main(["--rounds", rounds])
    assert exited.value.code == 2
    assert "at least 2 rounds" in capsys.readouterr().err

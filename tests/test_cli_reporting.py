"""CLI surface: flag grammar, serialization formats, exit codes."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moi
from moi import (
    ParameterizedSystem,
    bundled_network_path,
    find_sep,
    h_sweep,
    mode_of_instability,
    run_cli,
    sep_distance,
    simulate,
)
from moi.cli_reporting import _build_parser, mode_json_text, sweep_csv_text
from moi.instability_mode import SweepRow

from conftest import assert_recovery_end


@pytest.fixture(scope="session")
def toy_mode(tent_toy, toy_cfg):
    sep = find_sep(tent_toy, [0.95])
    return mode_of_instability(tent_toy, np.array([0.95]), toy_cfg, sep)


@pytest.fixture(scope="session")
def toy_sweep(tent_toy, toy_cfg):
    return h_sweep(tent_toy, [0.5], [1.0], [0.1, 0.05], toy_cfg, param_tol=1e-4)


class TestModeJson:
    def test_key_order_and_values(self, toy_mode):
        text = mode_json_text(toy_mode)
        record = json.loads(text)
        assert list(record) == [
            "eigenvalue",
            "eigenvector",
            "j_index",
            "h",
            "p",
            "normalization",
            "residual",
        ]
        assert record["eigenvalue"] == toy_mode.eigenvalue
        assert record["eigenvector"] == [float(v) for v in toy_mode.eigenvector]
        assert record["j_index"] == toy_mode.averaged.last_unstable_index
        assert record["h"] == 0.02
        assert record["p"] == [0.95]
        assert record["normalization"] == "paper"
        assert record["residual"] == toy_mode.residual

    def test_state_names_appended(self, toy_mode):
        record = json.loads(mode_json_text(toy_mode, state_names=("a", "b")))
        assert list(record)[-1] == "state_names"
        assert record["state_names"] == ["a", "b"]


class TestSweepCsv:
    def test_header_only_for_empty_table(self):
        assert sweep_csv_text([]) == "h,p_star,frob_err,eig_err,vec_err,status\n"

    def test_row_format(self, toy_sweep):
        lines = sweep_csv_text(toy_sweep).splitlines()
        assert lines[0] == "h,p_star,frob_err,eig_err,vec_err,status"
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert cells[0] == "0.1"
        assert cells[-1] == "ok"
        # 10 significant digits round-trip to the stored values
        assert float(cells[1]) == pytest.approx(toy_sweep[0].p_star[0], rel=1e-9)
        assert float(cells[2]) == pytest.approx(toy_sweep[0].frob_err, rel=1e-9)

    def test_reference_row_zero_errors(self, toy_sweep):
        lines = sweep_csv_text(toy_sweep).splitlines()
        assert lines[2].split(",")[2:5] == ["0", "0", "0"]

    def test_failed_row_leaves_cells_empty(self):
        rows = [
            SweepRow(
                h=0.25,
                p_star=np.array([]),
                frob_err=float("nan"),
                eig_err=float("nan"),
                vec_err=float("nan"),
                status="NoBracket",
            )
        ]
        lines = sweep_csv_text(rows).splitlines()
        assert lines[1] == "0.25,,,,,NoBracket"

    def test_vector_parameter_joined_with_semicolons(self, toy_sweep):
        row = toy_sweep[0]
        fat = SweepRow(
            h=row.h,
            p_star=np.array([1.0, 2.5]),
            frob_err=row.frob_err,
            eig_err=row.eig_err,
            vec_err=row.vec_err,
            status="ok",
        )
        line = sweep_csv_text([fat]).splitlines()[1]
        assert line.split(",")[1] == "1;2.5"


COMMON_OPTIONS = {
    "-h": (argparse.SUPPRESS, False), "--help": (argparse.SUPPRESS, False),
    "--model": (None, True), "--model-file": (None, False), "--h": (None, True),
    "--max-time": (200.0, False), "--newton-tol": (1e-12, False),
    "--stability-tol": (1e-9, False), "--out": (None, False),
}
RAY_OPTIONS = {"--dir": (None, False)}


@pytest.mark.parametrize(
    "command, options",
    [
        ("simulate", {"--p": (None, True)}),
        ("boundary", {"--p0": (None, True), "--tol": (1e-4, False), **RAY_OPTIONS}),
        ("mode", {"--p": (None, True), "--tol": (0.0, False), **RAY_OPTIONS}),
        ("sweep", {"--p0": (None, True), "--tol": (0.0, False), **RAY_OPTIONS}),
    ],
)
def test_each_subcommand_keeps_its_options_and_defaults(command, options):
    """Every option string of a subcommand, with its default and whether it
    is required: no subcommand gains or loses a flag."""
    [commands] = [a for a in _build_parser()._actions if a.dest == "command"]
    found = {
        flag: (action.default, action.required)
        for action in commands.choices[command]._actions
        for flag in action.option_strings
    }
    assert found == {**COMMON_OPTIONS, **options}


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run_cli([]) == 2
        assert run_cli(["bogus"]) == 2
        assert run_cli(["mode", "--model", "pendulum"]) == 2  # missing --p/--h
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["simulate", "boundary", "mode", "sweep"])
    def test_no_subcommand_takes_a_normalization(self, capsys, command):
        """Modes divide by the final index j alone (``"paper"``)."""
        flag = "--p0" if command in ("boundary", "sweep") else "--p"
        assert run_cli([command, "--model", "pendulum", flag, "1.5", "--h", "0.2",
                        "--normalization", "paper"]) == 2
        assert "unrecognized arguments: --normalization" in capsys.readouterr().err

    def test_model_file_with_the_pendulum_is_a_config_error(self, capsys, tmp_path):
        net = tmp_path / "net.dat"
        net.write_text("GEN 1\n")
        code = run_cli(["simulate", "--model", "pendulum", "--model-file", str(net),
                        "--p", "1.5", "--h", "0.2"])
        assert code == 2
        assert "config error: --model-file" in capsys.readouterr().err

    def test_bad_float_list(self, capsys):
        assert run_cli(["simulate", "--model", "pendulum", "--p", "abc", "--h", "0.02"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--p", "1.5", "--h", ","], "expected at least one float"),
            (["mode", "--p", "1.5", "--h", "0.02,0.01"], "--h expects exactly one value"),
            (["simulate", "--p", "1.5,1.6", "--h", "0.02"], "--p must have 1 component(s)"),
        ],
        ids=["no-float", "two-h", "two-components"],
    )
    def test_value_list_of_the_wrong_length_exits_two(self, capsys, argv, message):
        assert run_cli(argv + ["--model", "pendulum"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["boundary", "--p0", "1.5", "--h", "0.1", "--tol", "nan"],
            ["sweep", "--p0", "1.5", "--h", "0.4,0.2", "--tol", "nan"],
            ["sweep", "--p0", "1.5", "--dir", "1", "--h", "0.1,nan", "--tol", "0"],
            ["mode", "--p", "1.5", "--h", "0.02", "--stability-tol", "nan"],
            ["mode", "--p", "1.5", "--h", "0.02", "--stability-tol", "-0.5"],
            ["mode", "--p", "1.5", "--h", "0.02", "--stability-tol", "inf"],
            ["mode", "--p", "nan", "--h", "0.02"],
            ["boundary", "--p0", "1.5", "--dir", "inf", "--h", "0.02"],
            ["simulate", "--p", "1.5", "--h", "inf"],
            ["simulate", "--p", "1.5", "--h", "0.02", "--max-time", "inf"],
            ["simulate", "--p", "1.5", "--h", "0.02", "--newton-tol", "inf"],
            ["simulate", "--p", "1.5", "--h", "0.02", "--newton-tol", "nan"],
            ["simulate", "--p", "1.5", "--h", "1e-320"],
            ["simulate", "--p", "1.5", "--h", "1e-10", "--max-time", "1e308"],
        ],
        ids=["tol", "sweep-tol", "sweep-h", "stability-tol-nan", "stability-tol-negative",
             "stability-tol-inf", "p", "dir", "h", "max-time", "newton-tol-inf", "newton-tol-nan",
             "budget-tiny-h", "budget-huge-max-time"],
    )
    def test_non_finite_or_negative_value_is_a_config_error(self, capsys, argv):
        assert run_cli(argv + ["--model", "pendulum"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_analysis_error_exits_one(self, capsys):
        code = run_cli(
            ["boundary", "--model", "pendulum", "--p0", "1.7", "--dir", "1",
             "--h", "0.02", "--tol", "1e-2"]
        )
        assert code == 1
        assert "NotRecovered" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "mode", "boundary", "sweep"])
    @pytest.mark.parametrize("torque", ["2.5", "-2.0"])
    def test_torque_beyond_pullout_exits_one_before_any_solve(
        self, capsys, monkeypatch, command, torque
    ):
        """No equilibrium exists at |p| >= c1 = 2: ParamOutOfRange, not a
        stalled Newton solve."""
        import moi.recovery_boundary as rb

        def no_solve(*args, **kwargs):
            raise AssertionError("find_equilibrium called")

        monkeypatch.setattr(rb, "find_equilibrium", no_solve)
        flag = "--p0" if command in ("boundary", "sweep") else "--p"
        code = run_cli([command, "--model", "pendulum", flag, torque, "--h", "0.02"])
        assert code == 1
        assert "ParamOutOfRange" in capsys.readouterr().err

    def test_undetermined_origin_exits_one(self, capsys):
        """At h 0.2 the origin 1.5 has not settled after one second."""
        code = run_cli(
            ["mode", "--model", "pendulum", "--p", "1.5", "--h", "0.2",
             "--max-time", "1"]
        )
        assert code == 1
        assert "UndeterminedAtBisection" in capsys.readouterr().err

    def test_expansion_into_negative_inertia_exits_one(self, capsys):
        """From 0.95 the doublings recover down to 0.15 and the next one
        steps over the failing 0.2-0.4 band to inertia -0.65, outside the
        model's domain: no bracket."""
        code = run_cli(
            ["mode", "--model", "multimachine", "--p", "0.95",
             "--h", "0.016666666666666666", "--tol", "1e-6"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "NoBracket" in err and "edge of the parameter domain" in err

    def test_io_error_exits_two(self, capsys, tmp_path):
        code = run_cli(
            ["simulate", "--model", "pendulum", "--p", "1.5", "--h", "0.02",
             "--out", str(tmp_path / "missing" / "out.json")]
        )
        assert code == 2
        assert "io error" in capsys.readouterr().err

    def test_bad_model_file_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "net.dat"
        bad.write_text("GEN zero\n")
        code = run_cli(
            ["simulate", "--model", "multimachine", "--model-file", str(bad),
             "--p", "1.0", "--h", "0.02"]
        )
        assert code == 1
        assert "DataFormatError" in capsys.readouterr().err

    def test_non_utf8_model_file_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "net.dat"
        bad.write_bytes(b"GEN 1\n\xff\xfe\n")
        code = run_cli(
            ["mode", "--model", "multimachine", "--model-file", str(bad),
             "--p", "1.0", "--h", "0.02"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "DataFormatError" in err and "net.dat:2: not UTF-8" in err

    def test_negative_inertia_in_model_file_exits_one(self, capsys, tmp_path):
        text = bundled_network_path().read_text()
        bad = tmp_path / "net.dat"
        bad.write_text(text.replace("\nG 1 0.125", "\nG 1 -0.125"))
        assert "\nG 1 -0.125" in bad.read_text()
        code = run_cli(
            ["simulate", "--model", "multimachine", "--model-file", str(bad),
             "--p", "1.0", "--h", "0.02"]
        )
        assert code == 1
        assert "DataFormatError" in capsys.readouterr().err


class TestSimulateCommand:
    def test_writes_summary_json(self, capsys, tmp_path, pendulum, pend_cfg):
        out = tmp_path / "run.json"
        code = run_cli(
            ["simulate", "--model", "pendulum", "--p", "1.5", "--h", "0.02",
             "--out", str(out)]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["termination"] == "ConvergedToSEP"
        assert record["h"] == 0.02
        assert record["p"] == [1.5]
        # the CLI's pendulum and settings are the pendulum and pend_cfg
        # fixtures; the run ends on the recovery rule
        sep = find_sep(pendulum, [1.5])
        traj = simulate(pendulum, [1.5], pend_cfg, sep)
        assert_recovery_end(pendulum, [1.5], pend_cfg, sep, traj.states)
        assert record["steps"] == len(traj) - 1
        assert record["final_distance"] == sep_distance(pendulum, traj.states[-1], sep)
        captured = capsys.readouterr()
        assert captured.out.startswith("simulate pendulum: ConvergedToSEP after ")
        assert captured.err == ""

    def test_divergent_run_still_exits_zero(self, capsys):
        code = run_cli(["simulate", "--model", "pendulum", "--p", "1.7", "--h", "0.02"])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["termination"] == "Diverged"
        assert captured.err.startswith("simulate pendulum: Diverged after ")

    def test_singular_newton_matrix_is_a_solver_failure(self, capsys, monkeypatch):
        import moi.cli_reporting as cli

        # x' = 100 x: the Newton matrix is singular at h = 0.02
        linear = ParameterizedSystem(
            state_dim=1,
            param_dim=1,
            field=lambda x, p: np.where(x > 0.5, 100.0 * x, -x),
            jacobian=lambda x, p: np.where(x > 0.5, 100.0, -1.0)[..., None],
            initial_condition=lambda p: np.array(p[..., :1]),
        )
        monkeypatch.setattr(
            cli, "_build_model", lambda config: (linear, 10.0, (1.0,), lambda p: None)
        )
        code = run_cli(["simulate", "--model", "pendulum", "--p", "1.0", "--h", "0.02"])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["termination"] == "SolverFailure"
        assert captured.err.startswith("simulate pendulum: SolverFailure after ")

    def test_stability_tol_reaches_find_sep(self, capsys, monkeypatch):
        import moi.cli_reporting as cli
        import moi.recovery_boundary as rb

        seen = []

        def spy(real):
            def find_sep(*args, **kwargs):
                seen.append(kwargs.get("stability_tol"))
                return real(*args, **kwargs)

            return find_sep

        monkeypatch.setattr(cli, "find_sep", spy(cli.find_sep))
        monkeypatch.setattr(rb, "find_sep", spy(rb.find_sep))
        tail = ["--model", "pendulum", "--h", "0.2", "--stability-tol", "1e-7"]
        assert run_cli(["simulate", "--p", "1.5"] + tail) == 0
        assert run_cli(["boundary", "--p0", "1.5", "--tol", "1e-2"] + tail) == 0
        assert run_cli(["mode", "--p", "1.5", "--tol", "1e-2"] + tail) == 0
        capsys.readouterr()
        assert len(seen) > 3
        assert set(seen) == {1e-7}


class TestBoundaryCommand:
    def test_reports_bracket(self, capsys, tmp_path):
        out = tmp_path / "boundary.json"
        code = run_cli(
            ["boundary", "--model", "pendulum", "--p0", "1.5", "--dir", "1",
             "--h", "0.02", "--tol", "1e-3", "--out", str(out)]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert 1.56 < record["p_star"][0] < 1.58
        assert record["bracket_width"] <= 1e-3
        assert record["p_fail"][0] > record["p_star"][0]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        argv = ["boundary", "--model", "pendulum", "--p0", "1.5", "--dir", "1",
                "--h", "0.05", "--tol", "1e-3"]
        a = out_path = tmp_path / "a.json"
        assert run_cli(argv + ["--out", str(out_path)]) == 0
        b = out_path = tmp_path / "b.json"
        assert run_cli(argv + ["--out", str(out_path)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()


class TestModeCommand:
    def test_mode_json_contract(self, capsys, tmp_path):
        out = tmp_path / "mode.json"
        code = run_cli(
            ["mode", "--model", "pendulum", "--p", "1.5686", "--h", "0.02",
             "--out", str(out)]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["state_names"] == ["angle", "velocity"]
        assert record["normalization"] == "paper"
        assert record["j_index"] > 0
        v = np.asarray(record["eigenvector"])
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        capsys.readouterr()


class TestSweepCommand:
    def test_csv_written(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep", "--model", "pendulum", "--p0", "1.5", "--dir", "1",
             "--h", "0.2,0.1", "--tol", "1e-3", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "h,p_star,frob_err,eig_err,vec_err,status"
        assert len(lines) == 3
        assert lines[1].startswith("0.2,")
        assert lines[2].endswith(",ok")
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--p", "1.5", "--h", "0.2"],
        ["boundary", "--p0", "1.5", "--dir", "1", "--h", "0.2", "--tol", "1e-2"],
        ["mode", "--p", "1.5", "--h", "0.2", "--tol", "1e-2"],
        ["sweep", "--p0", "1.5", "--dir", "1", "--h", "0.4,0.2", "--tol", "1e-2"],
    ],
    ids=lambda argv: argv[0],
)
def test_record_goes_to_stdout_without_out(capsys, tmp_path, argv):
    """Every subcommand writes one way: with --out the record goes to the
    file and the summary to stdout; without it the same record goes to
    stdout and the same summary to stderr."""
    argv = argv + ["--model", "pendulum"]
    out = tmp_path / "record"
    assert run_cli(argv + ["--out", str(out)]) == 0
    written = capsys.readouterr()
    assert written.err == ""
    assert run_cli(argv) == 0
    printed = capsys.readouterr()
    assert printed.out == out.read_text()
    assert printed.err == written.out
    assert printed.err.startswith(f"{argv[0]} pendulum: ")
    assert printed.err.count("\n") == 1


@pytest.mark.parametrize("torque, code", [("1.5", 0), ("2.5", 1)])
def test_python_m_moi_runs_the_cli(torque, code):
    """``python -m moi`` runs the CLI and exits with its status."""
    path = [str(Path(moi.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-m", "moi", "simulate", "--model", "pendulum", "--p", torque,
         "--h", "0.2"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert done.returncode == code
    assert ("ParamOutOfRange" in done.stderr) == (code == 1)

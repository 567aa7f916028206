"""CLI surface: flag grammar, serialization formats, exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from moi import (
    ParameterizedSystem,
    find_sep,
    h_sweep,
    mode_of_instability,
    run_cli,
    sep_distance,
    simulate,
)
from moi.cli_reporting import mode_json_text, sweep_csv_text
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


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run_cli([]) == 2
        assert run_cli(["bogus"]) == 2
        assert run_cli(["mode", "--model", "pendulum"]) == 2  # missing --p/--h
        assert run_cli(
            ["mode", "--model", "pendulum", "--p", "1.5", "--h", "0.02",
             "--normalization", "mean"]
        ) == 2
        capsys.readouterr()

    def test_bad_float_list(self, capsys):
        assert run_cli(["simulate", "--model", "pendulum", "--p", "abc", "--h", "0.02"]) == 2
        capsys.readouterr()

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
        ],
        ids=["tol", "sweep-tol", "sweep-h", "stability-tol-nan", "stability-tol-negative",
             "stability-tol-inf", "p", "dir", "h", "max-time", "newton-tol-inf", "newton-tol-nan"],
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

    @pytest.mark.parametrize("command", ["simulate", "mode", "boundary"])
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
        flag = "--p0" if command == "boundary" else "--p"
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
        steps over the failing 0.2-0.4 band to inertia -0.65; the batched
        expansion raises that SEP error where the serial one did."""
        code = run_cli(
            ["mode", "--model", "multimachine", "--p", "0.95",
             "--h", "0.016666666666666666", "--tol", "1e-6"]
        )
        assert code == 1
        assert "ParamOutOfRange" in capsys.readouterr().err

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
        assert "ConvergedToSEP" in captured.out

    def test_divergent_run_still_exits_zero(self, capsys):
        code = run_cli(["simulate", "--model", "pendulum", "--p", "1.7", "--h", "0.02"])
        assert code == 0
        assert "Diverged" in capsys.readouterr().out


    def test_singular_newton_matrix_is_a_solver_failure(self, capsys, monkeypatch):
        import moi.cli_reporting as cli

        # x' = 100 x: the Newton matrix is singular at h = 0.02
        linear = ParameterizedSystem(
            state_dim=1,
            param_dim=1,
            field=lambda x, p: 100.0 * x if x[0] > 0.5 else -x,
            jacobian=lambda x, p: np.array([[100.0 if x[0] > 0.5 else -1.0]]),
            initial_condition=lambda p: np.array([p[0]]),
        )
        monkeypatch.setattr(
            cli, "_build_model", lambda config: (linear, 10.0, (1.0,), lambda p: None)
        )
        code = run_cli(["simulate", "--model", "pendulum", "--p", "1.0", "--h", "0.02"])
        assert code == 0
        assert "SolverFailure" in capsys.readouterr().out

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

    def test_sample_count_normalization_flag(self, capsys, tmp_path):
        # start further inside: the h=0.1 boundary sits below 1.5686
        out = tmp_path / "mode.json"
        code = run_cli(
            ["mode", "--model", "pendulum", "--p", "1.56", "--h", "0.1",
             "--normalization", "samples", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["normalization"] == "samples"
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

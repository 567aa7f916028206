"""Bundled models: forced pendulum and the reduced multi-machine grid."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moi import (
    DataFormatError,
    IntegratorConfig,
    MultiMachineParams,
    NewtonDivergence,
    ParamOutOfRange,
    ParameterizedSystem,
    PendulumParams,
    Termination,
    bundled_network_path,
    classify_recovery,
    eval_field,
    eval_jacobian,
    find_equilibrium,
    find_sep,
    initial_state,
    load_network,
    multimachine_system,
    pendulum_disturbance_ic,
    pendulum_sep,
    pendulum_system,
    pendulum_uep,
    simulate,
    Verdict,
)
from moi.model_zoo import _replay


class TestPendulumEquilibria:
    def test_stable_point(self):
        params = PendulumParams()
        sep = pendulum_sep(params, 1.5)
        assert sep[0] == np.arcsin(0.75)
        assert sep[1] == 0.0

    def test_unstable_point(self):
        params = PendulumParams()
        uep = pendulum_uep(params, 1.5)
        assert uep[0] == pytest.approx(np.pi - np.arcsin(0.75), abs=1e-15)
        assert uep[1] == 0.0

    def test_both_are_field_zeros(self, pendulum):
        params = PendulumParams()
        for x in (pendulum_sep(params, 1.5), pendulum_uep(params, 1.5)):
            f = eval_field(pendulum, x, np.array([1.5]))
            assert np.linalg.norm(f) < 1e-14

    def test_torque_beyond_pullout_rejected(self):
        params = PendulumParams()
        with pytest.raises(ParamOutOfRange):
            pendulum_sep(params, 2.0)
        with pytest.raises(ParamOutOfRange):
            pendulum_sep(params, -2.5)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PendulumParams(c1=-1.0)
        with pytest.raises(ValueError):
            PendulumParams(ic_method="guess")
        with pytest.raises(ValueError, match="disturbance_duration"):
            PendulumParams(disturbance_duration=-0.1)
        with pytest.raises(ValueError, match="ic_step"):
            PendulumParams(ic_step=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("c1", np.inf), ("c2", np.nan), ("disturbance_duration", np.inf),
         ("ic_step", np.nan)],
    )
    def test_non_finite_constant_rejected(self, field, value):
        """A non-finite constant fails where it is set, naming its field,
        not later as a NewtonDivergence or NonFiniteOutput."""
        with pytest.raises(ValueError, match=field):
            PendulumParams(**{field: value})

    def test_torque_beyond_pullout_has_no_equilibrium(self):
        """The torque is the run-time parameter, so its bound c1 is checked
        where a torque is used: the disturbance replay starts from
        asin(torque / c1), and the equilibrium solve finds no zero."""
        sys_ = pendulum_system(PendulumParams(ic_method="integrated"))
        with pytest.raises(ParamOutOfRange):
            initial_state(sys_, np.array([2.5]))
        with pytest.raises(NewtonDivergence, match="equilibrium solve stalled"):
            find_sep(sys_, [2.5])


class TestPendulumDisturbanceIC:
    def test_closed_form_value(self):
        """Hand-derived response of the torque-only linear dynamics."""
        params = PendulumParams()  # closed-form variant
        p = 1.5
        x0 = pendulum_disturbance_ic(params, np.array([p]))
        t, c2 = params.disturbance_duration, params.c2
        decay = 1.0 - np.exp(-c2 * t)
        z2 = (p / c2) * decay
        z1 = np.arcsin(p / params.c1) + (p / c2) * t - (p / c2**2) * decay
        assert x0[0] == pytest.approx(z1, rel=1e-14)
        assert x0[1] == pytest.approx(z2, rel=1e-14)
        assert np.allclose(x0, [1.2699, 0.9890], atol=1e-4)

    def test_integrated_matches_closed_form(self):
        closed = pendulum_disturbance_ic(PendulumParams(), np.array([1.5]))
        integrated = pendulum_disturbance_ic(
            PendulumParams(ic_method="integrated", ic_step=0.02), np.array([1.5])
        )
        assert np.linalg.norm(closed - integrated) < 1e-4

    def test_zero_duration_is_rest_state(self):
        for method in ("closed", "integrated"):
            params = PendulumParams(disturbance_duration=0.0, ic_method=method)
            x0 = pendulum_disturbance_ic(params, np.array([1.5]))
            assert np.array_equal(x0, pendulum_sep(params, 1.5))

    def test_system_initial_condition_wired(self, pendulum, pendulum_params):
        x0 = initial_state(pendulum, np.array([1.5]))
        assert np.array_equal(
            x0, pendulum_disturbance_ic(pendulum_params, np.array([1.5]))
        )

    def test_integrated_step_independent_of_recovery_step(self, pendulum_params):
        a = pendulum_disturbance_ic(pendulum_params, np.array([1.5]))
        b = pendulum_disturbance_ic(pendulum_params, np.array([1.5]))
        assert np.array_equal(a, b)


def write_network(tmp_path, text, name="net.dat"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL_NET = """\
GEN 2
G 1 1.0 0.1 0.5 1.0
G 2 2.0 0.2 -0.5 1.1
Y 1 1 0.0 -2.0
Y 1 2 0.0 1.0
Y 2 2 0.0 -2.0
"""


class TestNetworkParser:
    def test_minimal_roundtrip(self, tmp_path):
        params = load_network(write_network(tmp_path, MINIMAL_NET))
        assert params.n_machines == 2
        assert np.array_equal(params.inertia, [1.0, 2.0])
        assert np.array_equal(params.damping, [0.1, 0.2])
        assert np.array_equal(params.mech_power, [0.5, -0.5])
        assert np.array_equal(params.emf, [1.0, 1.1])
        assert params.susceptance[1, 2] == 1.0
        assert params.susceptance[2, 1] == 1.0  # symmetrized
        assert params.fault_conductance is None

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "# header\n\n" + MINIMAL_NET.replace("GEN 2", "GEN 2  # trailing")
        params = load_network(write_network(tmp_path, text))
        assert params.n_machines == 2

    def test_unknown_directive(self, tmp_path):
        path = write_network(tmp_path, MINIMAL_NET + "BOGUS 1 2\n")
        with pytest.raises(DataFormatError, match=r"net\.dat:7"):
            load_network(path)

    def test_bad_field_count(self, tmp_path):
        bad = MINIMAL_NET.replace("G 1 1.0 0.1 0.5 1.0", "G 1 1.0 0.1 0.5")
        with pytest.raises(DataFormatError, match=":2:"):
            load_network(write_network(tmp_path, bad))

    def test_non_numeric_value(self, tmp_path):
        bad = MINIMAL_NET.replace("0.5 1.0", "half 1.0")
        with pytest.raises(DataFormatError, match=":2:"):
            load_network(write_network(tmp_path, bad))

    def test_duplicate_machine_line(self, tmp_path):
        bad = MINIMAL_NET + "G 2 2.0 0.2 -0.5 1.1\n"
        with pytest.raises(DataFormatError, match="duplicate"):
            load_network(write_network(tmp_path, bad))

    def test_missing_machine_line(self, tmp_path):
        bad = MINIMAL_NET.replace("G 2 2.0 0.2 -0.5 1.1\n", "")
        with pytest.raises(DataFormatError):
            load_network(write_network(tmp_path, bad))

    def test_missing_machine_lines_are_reported_in_bounded_space(self, tmp_path):
        """A large GEN count with few G lines is reported by count and first
        gaps, not by listing every missing index."""
        text = "GEN 100000\nG 1 1.0 0.1 0.5 1.0\nG 3 2.0 0.2 -0.5 1.1\n"
        with pytest.raises(DataFormatError) as raised:
            load_network(write_network(tmp_path, text))
        message = str(raised.value)
        assert "missing G lines for 99998 of 100000 machines, first [2, 4, 5]" in message
        assert len(message) < 200

    def test_machine_index_out_of_range(self, tmp_path):
        bad = MINIMAL_NET.replace("G 2", "G 3")
        with pytest.raises(DataFormatError):
            load_network(write_network(tmp_path, bad))

    @pytest.mark.parametrize(
        "text, lineno",
        [
            (MINIMAL_NET.replace("G 1 1.0", "G 1 -0.125"), 2),
            (MINIMAL_NET.replace("-0.5 1.1", "-0.5 inf"), 3),
            (MINIMAL_NET.replace("Y 1 2 0.0", "Y 1 2 nan"), 5),
            (MINIMAL_NET + "SLACK nan\n", 7),
            (MINIMAL_NET + "YFAULT 1 1 0.0 -inf\n", 7),
        ],
        ids=["inertia", "machine", "admittance", "slack", "fault-admittance"],
    )
    def test_bad_number(self, tmp_path, text, lineno):
        with pytest.raises(DataFormatError, match=rf"net\.dat:{lineno}: "):
            load_network(write_network(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_network(tmp_path / "nope.dat")

    def test_non_utf8_file_names_its_line(self, tmp_path):
        path = tmp_path / "net.dat"
        path.write_bytes(b"GEN 1\n\xff\xfe\n")
        with pytest.raises(DataFormatError, match=r"net\.dat:2: not UTF-8"):
            load_network(path)


#: keyword -> the number of fields it takes
ARITY = {"GEN": 1, "G": 5, "SLACK": 1, "Y": 4, "YFAULT": 4}

SMALL = st.integers(-1, 2).map(str)
TOKENS = st.one_of(
    SMALL,
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "9" * 5000, "half", "0x1", "+2"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3),
)


@st.composite
def network_files(draw) -> bytes:
    """A network file of up to 9 lines: maybe a GEN header, then the five
    keywords in any letter case, unknown words, blank and comment lines,
    with right or wrong arities of small, huge, non-finite and non-numeric
    tokens; maybe a byte that is not UTF-8."""
    lines = [draw(st.sampled_from(["", "GEN 1", "GEN 2"]))]
    for _ in range(draw(st.integers(0, 8))):
        word = draw(st.sampled_from([*ARITY, "BOGUS", "", "#"]))
        word = draw(st.sampled_from([word, word.lower(), word.title()]))
        arity = draw(st.one_of(st.just(ARITY.get(word.upper(), 0)), st.integers(0, 6)))
        tokens = draw(st.sampled_from([TOKENS, SMALL]))
        line = " ".join([word, *draw(st.lists(tokens, min_size=arity, max_size=arity))])
        lines.append(line + draw(st.sampled_from(["", "  # note"])))
    data = "\n".join(lines).encode()
    if draw(st.sampled_from([False, False, False, True])):
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xfe\xff", b"\xc3", b"\xed\xa0\x80"]))
        data = data[:at] + bad + data[at:]
    return data


@settings(max_examples=200, deadline=None)
@given(data=network_files())
@example(data=b"GEN 1\n\xff\xfe\n")
@example(data=b"gen 1\ng 1 1 0 0 1\nSlack 1 # anchor\n\ny 0 1 0 1\nYfault 1 1 0 -5\n")
def test_reader_gives_params_or_an_error_naming_the_file(tmp_path_factory, data):
    """Whatever the bytes, the reader returns parameters or raises a
    ``DataFormatError`` whose message starts with the file's path."""
    path = tmp_path_factory.mktemp("net") / "net.dat"
    path.write_bytes(data)
    try:
        params = load_network(path)
    except DataFormatError as exc:
        assert str(exc).startswith(str(path))
    else:
        assert isinstance(params, MultiMachineParams)


class TestMultiMachineParams:
    def test_fault_block_must_be_paired(self, nine_bus):
        with pytest.raises(ValueError):
            replace(nine_bus, fault_susceptance=None)

    def test_positivity_checks(self, nine_bus):
        with pytest.raises(ValueError):
            replace(nine_bus, inertia=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError, match="fault_duration"):
            replace(nine_bus, fault_duration=-0.1)
        with pytest.raises(ValueError, match="fault_step"):
            replace(nine_bus, fault_step=0.0)

    def test_shape_checks(self, nine_bus):
        with pytest.raises(ValueError):
            replace(nine_bus, susceptance=np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "field, entry",
        [("inertia", np.inf), ("damping", np.nan), ("mech_power", np.nan),
         ("emf", np.nan), ("slack_emf", np.nan), ("conductance", np.nan),
         ("susceptance", np.inf), ("fault_conductance", np.nan),
         ("fault_susceptance", -np.inf), ("fault_duration", np.inf),
         ("fault_step", np.nan)],
    )
    def test_non_finite_constant_rejected(self, nine_bus, field, entry):
        """One non-finite entry of a field fails where it is set, naming
        the field, not later as a NewtonDivergence or NonFiniteOutput."""
        value = np.array(getattr(nine_bus, field), dtype=float)
        value.flat[-1] = entry
        with pytest.raises(ValueError, match=field):
            replace(nine_bus, **{field: value if value.ndim else float(value)})


class TestBundledNetwork:
    def test_loads_and_has_fault_scenario(self, nine_bus):
        assert nine_bus.n_machines == 3
        assert nine_bus.fault_conductance is not None
        assert nine_bus.slack_emf > 0.0

    def test_deterministic_load(self, nine_bus):
        again = load_network(bundled_network_path())
        assert np.array_equal(again.susceptance, nine_bus.susceptance)
        assert np.array_equal(again.inertia, nine_bus.inertia)

    def test_copy_under_another_name_reads_its_own_file(self, tmp_path):
        """A copy of the package imported under another name, with no
        ``moi`` importable, finds the data file inside the copy."""
        copy = tmp_path / "copy"
        shutil.copytree(bundled_network_path().parents[1], copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        tools = Path(__file__).resolve().parents[1] / "tools"
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "sys.modules['moi'] = None\n"
            f"sys.path.insert(0, {str(tools)!r})\n"
            "from step_timings import load_package\n"
            "other = load_package(Path(sys.argv[1]), 'moi_copy')\n"
            "path = other.bundled_network_path()\n"
            "print(path)\n"
            "print(other.load_network(path).n_machines)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run([sys.executable, "-c", script, str(copy)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        path, machines = done.stdout.split()
        assert Path(path) == copy / "data" / "ieee9_classical.dat"
        assert machines == "3"

    def test_equilibrium_is_strictly_stable(self, nine_bus):
        sys_ = multimachine_system(nine_bus)
        sep = find_sep(sys_, [1.0])
        J = eval_jacobian(sys_, sep, np.array([1.0]))
        assert np.max(np.linalg.eigvals(J).real) < -1e-3

    def test_state_labels_and_wrapping(self, nine_bus):
        sys_ = multimachine_system(nine_bus)
        assert sys_.state_names == (
            "theta_1",
            "theta_2",
            "theta_3",
            "omega_1",
            "omega_2",
            "omega_3",
        )
        assert sys_.wrap_indices == (0, 1, 2)

    def test_scale_mode_rejects_nonpositive(self, nine_bus):
        sys_ = multimachine_system(nine_bus)
        with pytest.raises(ParamOutOfRange):
            eval_field(sys_, np.zeros(6), np.array([-0.5]))

    def test_trig_terms_are_shared_at_one_state_only(self, nine_bus, monkeypatch):
        """A Jacobian after a field at the same state computes no cosine
        of its own.  A changed p, one state after a stack of that one
        state, and a state updated in place since the field each compute
        them afresh, and every value is that of a fresh system."""
        x = find_sep(multimachine_system(nine_bus), [1.0]) + 0.1
        moved = x.copy()
        moved[0] += 0.05
        p, q = np.array([1.0]), np.array([0.7])

        def fresh(name, y, r):
            return getattr(multimachine_system(nine_bus), name)(y, r)

        expected = [fresh("jacobian", x, p), fresh("jacobian", x, q),
                    fresh("field", x[None], q[None]), fresh("jacobian", x, q),
                    fresh("jacobian", moved, p)]
        sys_ = multimachine_system(nine_bus)
        cosines = []
        cos = np.cos

        def counted(*args, **kwargs):
            cosines.append(args[0].shape)
            return cos(*args, **kwargs)

        monkeypatch.setattr(np, "cos", counted)
        sys_.field(x, p)
        got = [sys_.jacobian(x, p)]
        assert len(cosines) == 1
        got += [sys_.jacobian(x, q), sys_.field(x[None], q[None]), sys_.jacobian(x, q)]
        y = x.copy()
        sys_.field(y, p)
        y[0] += 0.05
        got.append(sys_.jacobian(y, p))
        assert cosines == [(3, 4), (3, 4), (1, 3, 4), (3, 4), (3, 4), (3, 4)]
        for a, b in zip(got, expected):
            assert a.shape == b.shape and np.array_equal(a, b)


class TestFaultScenario:
    def test_zero_duration_returns_pre_fault_equilibrium(self, nine_bus):
        params = replace(nine_bus, fault_duration=0.0)
        ic = multimachine_system(params).initial_condition(np.array([1.0]))
        # both solve the pre-fault field from the origin
        sep = find_sep(multimachine_system(nine_bus), [1.0])
        assert np.array_equal(ic, sep)

    def test_faulted_machine_most_perturbed(self, nine_bus):
        sys_ = multimachine_system(nine_bus)
        sep = find_sep(sys_, [1.0])
        ic = sys_.initial_condition(np.array([1.0]))
        dth = np.abs(ic[:3] - sep[:3])
        dom = np.abs(ic[3:] - sep[3:])
        assert np.argmax(dth) == 2
        assert np.argmax(dom) == 2

    def test_requires_fault_block(self, nine_bus):
        no_fault = replace(
            nine_bus, fault_conductance=None, fault_susceptance=None
        )
        sys_ = multimachine_system(no_fault)
        with pytest.raises(DataFormatError):
            sys_.initial_condition(np.array([1.0]))

    def test_recovers_at_nominal_inertia(self, nine_bus):
        sys_ = multimachine_system(nine_bus)
        cfg = IntegratorConfig(step=1 / 60, divergence_norm=200.0)
        sep = find_sep(sys_, [1.0])
        rv = classify_recovery(sys_, [1.0], cfg, sep)
        assert rv.verdict is Verdict.RECOVERS

    def test_fails_at_low_inertia(self, nine_bus):
        sys_ = multimachine_system(nine_bus)
        cfg = IntegratorConfig(step=1 / 60, divergence_norm=200.0)
        sep = find_sep(sys_, [0.3])
        rv = classify_recovery(sys_, [0.3], cfg, sep)
        assert rv.verdict is Verdict.FAILS_TO_RECOVER

    def test_deterministic_ic(self, nine_bus):
        a = multimachine_system(nine_bus).initial_condition(np.array([1.0]))
        b = multimachine_system(nine_bus).initial_condition(np.array([1.0]))
        assert np.array_equal(a, b)


def swing_energy(params: MultiMachineParams, state: np.ndarray) -> float:
    """Kinetic plus coupling/forcing potential for the lossless model."""
    n = params.n_machines
    th = np.concatenate([[0.0], state[:n]])
    w = state[n:]
    emf = np.concatenate([[params.slack_emf], params.emf])
    total = 0.5 * np.sum(params.inertia * w**2) - np.sum(
        params.mech_power * state[:n]
    )
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            total -= (
                params.susceptance[i, j]
                * emf[i]
                * emf[j]
                * np.cos(th[i] - th[j])
            )
    return float(total)


def test_lossless_energy_conserved(nine_bus):
    """With damping and conductance removed the swing dynamics preserve the
    standard energy function along trajectories."""
    lossless = replace(
        nine_bus,
        damping=np.zeros(3),
        conductance=np.zeros((4, 4)),
        fault_conductance=None,
        fault_susceptance=None,
    )
    sys_ = multimachine_system(lossless)
    eq = find_equilibrium(sys_, [1.0], x_guess=np.zeros(6))
    start = eq.copy()
    start[0] += 0.3
    start[4] += 0.2
    sys_ = replace(sys_, initial_condition=lambda p: start)
    cfg = IntegratorConfig(step=0.002, max_time=3.0, divergence_norm=200.0)
    traj = simulate(sys_, [1.0], cfg, eq)
    assert traj.termination is Termination.MAX_TIME_REACHED
    energies = [swing_energy(lossless, s) for s in traj.states]
    assert max(energies) - min(energies) < 1e-4


def test_zero_coupling_grid_has_marginal_equilibrium():
    """With no electrical coupling and no forcing, any angle set is an
    equilibrium — and none of them is strictly stable."""
    from moi import NotStable

    params = MultiMachineParams(
        inertia=np.ones(2),
        damping=np.full(2, 0.1),
        mech_power=np.zeros(2),
        emf=np.ones(2),
        slack_emf=1.0,
        conductance=np.zeros((3, 3)),
        susceptance=np.zeros((3, 3)),
    )
    sys_ = multimachine_system(params)
    eq = find_equilibrium(sys_, [1.0], x_guess=np.array([0.4, -0.2, 0.0, 0.0]))
    assert np.allclose(eq[2:], 0.0, atol=1e-12)
    with pytest.raises(NotStable):
        find_sep(sys_, [1.0], x_guess=np.array([0.4, -0.2, 0.0, 0.0]))


def loop_swing_field_and_jacobian(params: MultiMachineParams, x, p):
    """Reference: the swing field and Jacobian as per-machine Python loops
    over the nodes, in the arithmetic order the vectorised model keeps."""
    n = params.n_machines
    emf = np.concatenate([[params.slack_emf], params.emf])
    g, b = params.conductance, params.susceptance
    m = p[0] * params.inertia
    th = np.concatenate([[0.0], x[:n]])
    w = x[n:]
    pe = np.empty(n)
    coupling = np.zeros((n, n))
    for i in range(1, n + 1):
        d = th[i] - th
        pe[i - 1] = emf[i] * np.sum(emf * (g[i] * np.cos(d) + b[i] * np.sin(d)))
        for j in range(n + 1):
            if j == i:
                continue
            t = emf[i] * emf[j] * (-g[i, j] * np.sin(d[j]) + b[i, j] * np.cos(d[j]))
            coupling[i - 1, i - 1] += t
            if j >= 1:
                coupling[i - 1, j - 1] -= t
    field = np.concatenate([w, (params.mech_power - pe - params.damping * w) / m])
    jac = np.zeros((2 * n, 2 * n))
    jac[:n, n:] = np.eye(n)
    jac[n:, :n] = -coupling / m[:, None]
    jac[n:, n:] = -np.diag(params.damping / m)
    return field, jac


def reference_swing_jacobian(params: MultiMachineParams):
    """Reference: the vectorised swing Jacobian with its diagonals and each
    machine's own coupling column written through index arrays."""
    n = params.n_machines
    emf_nodes = np.concatenate([[params.slack_emf], params.emf])
    g_rows, b_rows = params.conductance[1:], params.susceptance[1:]
    emf_pairs = emf_nodes[1:, None] * emf_nodes
    own = np.arange(n)
    own_node, speed = own + 1, n + own

    def jacobian(x, p):
        th = x[..., :n]
        nodes = np.zeros(th.shape[:-1] + (n + 1,))
        nodes[..., 1:] = th
        d, m = th[..., :, None] - nodes[..., None, :], p[..., :1] * params.inertia
        t = emf_pairs * (-g_rows * np.sin(d) + b_rows * np.cos(d))
        t[..., own, own_node] = 0.0
        diag = np.add.accumulate(t, axis=-1)[..., -1]
        jac = np.zeros(x.shape[:-1] + (2 * n, 2 * n))
        jac[..., own, speed] = 1.0
        np.divide(t[..., 1:], m[..., :, None], out=jac[..., n:, :n])
        jac[..., speed, own] = -diag / m
        jac[..., speed, speed] = -(params.damping / m)
        return jac

    return jacobian


def synthetic_network(n: int, seed: int) -> MultiMachineParams:
    """Seeded n-machine network with a dense reduced admittance matrix."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.2, 1.2, (n + 1, n + 1))
    g = rng.uniform(0.05, 0.25, (n + 1, n + 1))
    b, g = (b + b.T) / 2.0, (g + g.T) / 2.0
    np.fill_diagonal(b, -b.sum(axis=1))
    inertia = rng.uniform(0.02, 0.13, n)
    return MultiMachineParams(
        inertia=inertia, damping=inertia, mech_power=rng.uniform(-1.0, 1.0, n),
        emf=rng.uniform(1.0, 1.06, n), slack_emf=1.02, conductance=g, susceptance=b,
    )


@pytest.mark.parametrize("network", ["bundled", 3, 10])
@pytest.mark.parametrize("k", [1, 16])
def test_swing_jacobian_equals_its_index_array_construction_bitwise(nine_bus, network, k):
    """The strided writes of the diagonals give the index-array Jacobian, for
    a stack, a single state and a stack of one."""
    params = nine_bus if network == "bundled" else synthetic_network(network, network)
    sys_ = multimachine_system(params)
    jacobian = reference_swing_jacobian(params)
    rng = np.random.default_rng(k)
    x = rng.uniform(-3.0, 3.0, (k, sys_.state_dim))
    p = rng.uniform(0.3, 1.5, (k, 1))
    assert np.array_equal(sys_.jacobian(x, p), jacobian(x, p))
    assert np.array_equal(sys_.jacobian(x[0], p[0]), jacobian(x[0], p[0]))
    assert np.array_equal(sys_.jacobian(x[:1], p[:1])[0], sys_.jacobian(x[0], p[0]))


class TestBatchedModels:
    def test_swing_model_matches_loop_reference(self, nine_bus):
        sys_ = multimachine_system(nine_bus)
        rng = np.random.default_rng(7)
        x = rng.uniform(-3.0, 3.0, (20, sys_.state_dim))
        p = rng.uniform(0.3, 1.5, (20, 1))
        fields, jacs = sys_.field(x, p), sys_.jacobian(x, p)
        for k in range(len(x)):
            field, jac = loop_swing_field_and_jacobian(nine_bus, x[k], p[k])
            assert np.array_equal(sys_.field(x[k], p[k]), field)
            assert np.array_equal(sys_.jacobian(x[k], p[k]), jac)
            assert np.array_equal(fields[k], field)
            assert np.array_equal(jacs[k], jac)

    @pytest.mark.parametrize("ic_method", ["closed", "integrated"])
    def test_pendulum_initial_conditions_batch(self, ic_method):
        sys_ = pendulum_system(PendulumParams(ic_method=ic_method))
        p = np.array([[1.45], [1.5], [1.6], [1.9]])
        batch = initial_state(sys_, p)
        assert batch.shape == (4, 2)
        for k in range(len(p)):
            assert np.array_equal(batch[k], initial_state(sys_, p[k]))

    def test_fault_replays_batch(self, nine_bus):
        sys_ = multimachine_system(nine_bus)
        p = np.array([[0.3], [0.48], [1.0]])
        batch = initial_state(sys_, p)
        for k in range(len(p)):
            assert np.array_equal(batch[k], initial_state(sys_, p[k]))

    def test_failed_replay_names_its_parameters(self):
        """A replay whose batched step fails for a member raises, naming
        that member's parameters: x' = r x at r = 100 makes the Newton
        matrix of a 0.02 step singular."""
        rate = ParameterizedSystem(
            state_dim=1, param_dim=1, name="rate",
            field=lambda x, p: p * x, jacobian=lambda x, p: p[..., None] * np.ones(x.shape + (1,)),
            batched=True,
        )
        x, q = np.ones((3, 1)), np.array([[-1.0], [100.0], [3.0]])
        with pytest.raises(NewtonDivergence, match=r"rate replay failed for p = \[\[100\.\]\]"):
            _replay(rate, x, q, 0.1, IntegratorConfig(step=0.02))

    def test_batch_rejects_any_non_positive_inertia(self, nine_bus):
        sys_ = multimachine_system(nine_bus)
        with pytest.raises(ParamOutOfRange):
            initial_state(sys_, np.array([[1.0], [-0.1]]))

"""Tests of the benchmark's own logic: self time, answer checks, counts."""

from __future__ import annotations

import contextlib
import io
import json
import signal
import threading
import time

import pytest

import bench_speed
from bench_speed import SpeedSampler, scale_of
from bench_tracer import Instrumentation, Tracer, count_mismatches, layer_metrics
from bench_workloads import (
    NINEBUS_CROSSING,
    WORKLOADS,
    check_ninebus_mode,
    check_pendulum_mode,
    check_pendulum_sweep,
)
from run import judge, median_over_starts, start_index

# mode JSON of ninebus-mode from start 1.0 (h = 1/60, tol 1e-6)
NINEBUS_RECORD = {
    "eigenvalue": 8.36849700850999,
    "eigenvector": [-0.00718035217736735, 0.08942757192589187,
                    0.07911814553024824, -0.059596224931786644,
                    0.7422401520078417, 0.6566729153019477],
    "j_index": 121,
    "h": 0.016666666666666666,
    "p": [NINEBUS_CROSSING],
    "normalization": "paper",
    "residual": 6.441207436029955e-15,
    "state_names": ["theta_1", "theta_2", "theta_3",
                    "omega_1", "omega_2", "omega_3"],
}

PENDULUM_RECORD = {
    "eigenvalue": 0.864,
    "eigenvector": [0.7464, 0.6655],
    "j_index": 2176,
    "h": 0.02,
    "p": [1.5686593295631313],
    "normalization": "paper",
    "residual": 1e-16,
    "state_names": ["angle", "velocity"],
}

SWEEP_CSV = (
    "h,p_star,frob_err,eig_err,vec_err,status\n"
    "0.8,1.553,0.2,0.1,0.05,ok\n"
    "0.4,1.562,0.1,0.05,0.02,ok\n"
    "0.2,1.566,0.05,0.02,0.01,ok\n"
    "0.1,1.568,0.01,0.005,0.002,ok\n"
    "0.08,1.5683,0,0,0,ok\n"
)


def test_scale_weights_samples_by_speed():
    ref = bench_speed.REF_KERNEL_S
    assert scale_of([ref, ref]) == pytest.approx(1.0)
    # half the op at the reference speed, half at half of it
    assert scale_of([ref, 2 * ref]) == pytest.approx(0.75)


def test_sampler_samples_while_entered_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as speed:
        end = time.perf_counter() + 6 * bench_speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 2
    assert 0.0 < speed.spent_s < 6 * bench_speed.INTERVAL_S
    assert speed.scale > 0.0


def test_unsampled_block_still_gets_a_scale():
    with SpeedSampler() as speed:
        pass
    assert len(speed.samples) == 1


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_hand_built_span_tree():
    clock = ManualClock()
    tracer = Tracer(clock=clock)

    def advance(dt):
        clock.now += dt

    leaf = tracer.counter("leaf", lambda: advance(2.0))

    def child_body():
        advance(1.0)
        leaf()
        advance(0.5)

    child = tracer.span("child", child_body)

    def root_body():
        advance(3.0)
        child()
        child()
        advance(1.0)

    tracer.span("root", root_body)()

    stats = tracer.take()
    assert stats["leaf"] == (2, 4.0, 4.0)
    assert stats["child"] == (2, 7.0, 3.0)
    assert stats["root"] == (1, 11.0, 4.0)
    root = next(s for s in tracer.spans if s.name == "root")
    children = [s for s in tracer.spans if s.name == "child"]
    assert root.parent is None and root.self_s == 4.0
    assert [c.parent for c in children] == [root.id, root.id]
    assert [c.self_s for c in children] == [1.5, 1.5]
    assert tracer.take() == {}


def test_other_thread_spans_adopt_parent_without_reducing_self_time():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    row = tracer.span("row", lambda: None)

    def sweep_body():
        worker = threading.Thread(target=row)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        clock.now += 5.0

    tracer.span("sweep", sweep_body, adopt=True)()
    sweep = next(s for s in tracer.spans if s.name == "sweep")
    row_span = next(s for s in tracer.spans if s.name == "row")
    assert row_span.parent == sweep.id
    assert sweep.self_s == 5.0


def test_pendulum_check_accepts_right_and_rejects_wrong_records():
    failed, err = check_pendulum_mode(json.dumps(PENDULUM_RECORD), 1.5)
    assert failed == [] and 0.0 < err < 0.016
    outside = dict(PENDULUM_RECORD, p=[1.60])
    assert check_pendulum_mode(json.dumps(outside), 1.5)[0]
    wrong_vector = dict(PENDULUM_RECORD, eigenvector=[0.6655, 0.7464])
    failed, err = check_pendulum_mode(json.dumps(wrong_vector), 1.5)
    assert failed and err >= 0.016


def test_ninebus_check_accepts_right_and_rejects_wrong_records():
    failed, err = check_ninebus_mode(json.dumps(NINEBUS_RECORD), 1.0)
    assert failed == [] and 0.0 < err < 0.2
    wrong = [
        dict(NINEBUS_RECORD, eigenvalue=-1.0),
        dict(NINEBUS_RECORD, state_names=["omega_2", "omega_3", "theta_3",
                                          "omega_1", "theta_1", "theta_2"]),
        dict(NINEBUS_RECORD, p=[NINEBUS_CROSSING + 2e-6]),
    ]
    for record in wrong:
        assert check_ninebus_mode(json.dumps(record), 1.0)[0]
    assert check_ninebus_mode(json.dumps(NINEBUS_RECORD), 0.4)[0]


def test_sweep_check_accepts_right_and_rejects_wrong_tables():
    failed, err = check_pendulum_sweep(SWEEP_CSV, 1.5)
    assert failed == [] and err == 0.05
    not_ok = SWEEP_CSV.replace("0.4,1.562,0.1,0.05,0.02,ok",
                               "0.4,,,,,UndeterminedAtBisection")
    falling = SWEEP_CSV.replace("0.2,1.566", "0.2,1.561")
    finest_nonzero = SWEEP_CSV.replace("0.08,1.5683,0,0,0", "0.08,1.5683,0,0,1e-9")
    short = "\n".join(SWEEP_CSV.splitlines()[:-1]) + "\n"
    for text in (not_ok, falling, finest_nonzero, short):
        assert check_pendulum_sweep(text, 1.5)[0]


def test_judge_fails_exits_and_outputs_that_differ_from_the_first_at_a_start():
    good = json.dumps(PENDULUM_RECORD).encode()
    other = json.dumps(dict(PENDULUM_RECORD, residual=2e-16)).encode()
    ops = [
        {"exit": 0, "output": good, "start": "1.5000", "chatter": ""},
        {"exit": 0, "output": good, "start": "1.5000", "chatter": ""},
        {"exit": 0, "output": other, "start": "1.5000", "chatter": ""},
        {"exit": 0, "output": other, "start": "1.4600", "chatter": ""},
        {"exit": 1, "output": None, "start": "1.4700", "chatter": "error: NoBracket"},
    ]
    err = judge(ops, check_pendulum_mode)
    assert 0.0 < err < 0.016
    assert [bool(op["failed"]) for op in ops] == [False, False, True, False, True]


def test_seed_fixes_the_starts_within_the_documented_range():
    for workload in WORKLOADS.values():
        lo, hi = workload.start_range
        starts = [workload.start(seed, i) for seed in range(5) for i in range(4)]
        assert starts == [workload.start(seed, i) for seed in range(5) for i in range(4)]
        assert all(lo <= float(s) <= hi for s in starts)
        assert len(set(starts)) == len(starts)
        assert workload.start(3) == workload.start(3, 0)


def test_median_over_starts_weighs_each_start_once():
    ops = [{"start": "1.0", "op_s": 7.0}, {"start": "1.0", "op_s": 7.2},
           {"start": "1.1", "op_s": 6.0}, {"start": "1.2", "op_s": 6.4}]
    assert median_over_starts(ops, "op_s") == pytest.approx(6.4)


def test_untraced_runs_take_a_new_start_per_op_after_one_repeat():
    assert [start_index(op, False) for op in range(5)] == [0, 0, 1, 2, 3]
    assert [start_index(op, True) for op in range(5)] == [0] * 5


@pytest.mark.parametrize("argv", [
    ["mode", "--model", "pendulum", "--p", "1.5", "--h", "0.2", "--tol", "1e-3"],
    ["sweep", "--model", "pendulum", "--p0", "1.5", "--dir", "1",
     "--h", "0.8,0.4", "--tol", "1e-3"],
])
def test_counts_repeat_exactly_across_two_traced_ops(argv, tmp_path):
    from moi.cli_reporting import run_cli

    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    out = tmp_path / "out"
    per_op = []
    for op in range(2):
        tracer.op = op
        with instrumentation, contextlib.redirect_stdout(io.StringIO()):
            code = tracer.span("op", run_cli, adopt=True)(argv + ["--out", str(out)])
        assert code == 0
        spans = [s for s in tracer.spans if s.op == op]
        per_op.append(layer_metrics(tracer.take(), spans, len(out.read_bytes())))
    assert count_mismatches(per_op) == []
    counts = per_op[0]
    assert counts["integrator.steps"][0] > 0
    assert counts["integrator.newton_iters"][0] > 0
    assert counts["recovery_boundary.probes"][0] == counts[
        "recovery_boundary.search_rounds"][0]
    assert counts["instability_mode.jacobian_evals_per_window_state"][0] == 2.0
    assert counts["instability_mode.sweep_rows"][0] == (2 if argv[0] == "sweep" else 0)
    per_op[1]["integrator.steps"] = (counts["integrator.steps"][0] + 1, "count")
    assert count_mismatches(per_op) == ["integrator.steps"]

"""Benchmark for the moi CLI: one seeded workload per invocation.

    python3 perfbench/run.py --workload pendulum-mode --seed 1 --seconds 40 --trace 0

Runs the workload's ``moi`` command lines in-process through
``moi.cli_reporting.run_cli``, back to back in one closed loop with one
client, for about ``--seconds`` seconds (at least three ops), and checks
every answer.  The seed gives the start parameters; ``start_index`` says
which op uses which.  Op and set-up times are scaled to one reference host
speed (``bench_speed``).  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates traced and untraced ops and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object; the full record (environment header, every op,
and with tracing the spans) goes to ``perfbench/results/``.

The package is imported from ``src/`` of the checkout this file sits in,
never from anywhere else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

from bench_speed import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: fewest fresh-interpreter set-ups timed per run; ``setup_s`` is their
#: median
SETUP_STARTS = 7
MIN_OPS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_moi():
    """Import ``moi`` from this checkout's ``src/``, or raise RuntimeError."""
    if not (SRC / "moi" / "__init__.py").is_file():
        raise RuntimeError(f"no moi package under {SRC}")
    sys.path.insert(0, str(SRC))
    import moi

    if Path(moi.__file__).resolve().parent != (SRC / "moi").resolve():
        raise RuntimeError(f"moi imported from {moi.__file__}, not from {SRC}")


def environment(seed: int) -> dict:
    """Machine and environment header written into every result."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    thread_vars = ("MOI_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "seed": seed,
    }


def time_setup(code: str) -> float:
    """Seconds a fresh interpreter takes to build the model, scaled.

    The child times itself from just after it imports ``bench_speed`` (and
    with it numpy) to the model built: ``import moi`` plus the model build.
    The interpreter's start and the numpy import are left out, because they
    are not the package's work and they drift with the host's process and
    file costs: between two sets of ten runs they moved the median by 27%
    while op times held within 3%.  The child samples its own speed while
    it builds and prints the samples' CPU time and scale factor (see
    ``bench_speed``).  It imports ``moi`` from this checkout's ``src/``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    sample = ("import time\n"
              "import bench_speed\n"
              "speed = bench_speed.SpeedSampler(bench_speed.SETUP_INTERVAL_S)\n"
              "t0 = time.perf_counter()\n"
              "speed.__enter__()\n")
    ready = ("elapsed = time.perf_counter() - t0\n"
             "spent = speed.spent_s\n"
             "speed.__exit__()\n"
             "print(elapsed, spent, speed.scale)\n")
    child = subprocess.run([sys.executable, "-c", sample + code + ready], env=env,
                           check=True, timeout=60, capture_output=True, text=True)
    elapsed, spent, scale = map(float, child.stdout.split()[-3:])
    return (elapsed - spent) * scale


def run_op(run_cli, argv, out: Path) -> dict:
    """One CLI op, timed and scaled; CLI chatter is captured, not printed.

    ``op_s`` and ``op_cpu_s`` are the op's wall and CPU seconds without the
    speed samples' CPU time, scaled to the reference speed; ``wall_s`` and
    ``cpu_s`` are the raw times, samples included.
    """
    chatter = io.StringIO()
    out.unlink(missing_ok=True)
    with SpeedSampler() as speed:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(chatter), contextlib.redirect_stderr(chatter):
                code = run_cli(argv)
        except Exception:  # a raw exception out of the CLI is a failed op
            code, chatter = None, io.StringIO(traceback.format_exc())
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        spent = speed.spent_s
    data = out.read_bytes() if code == 0 and out.is_file() else None
    return {"exit": code, "op_s": (wall - spent) * speed.scale,
            "op_cpu_s": (cpu - spent) * speed.scale, "wall_s": wall,
            "cpu_s": cpu, "speed_scale": speed.scale,
            "speed_samples": len(speed.samples), "output": data,
            "chatter": chatter.getvalue()[-2000:]}


def judge(ops: list[dict], check) -> float:
    """Mark each op ``failed`` with reasons; return the first op's mode_err.

    An op fails on a non-zero exit, a failed answer check, or output bytes
    that differ from those of the first op with the same start.  The (possibly
    costly) check runs once per distinct output and start.
    """
    verdicts: dict = {}
    first: dict = {}
    for op in ops:
        reasons = []
        if op["exit"] != 0 or op["output"] is None:
            reasons.append(f"exit {op['exit']}: {op['chatter'].strip()[-300:]}")
        else:
            key = (op["output"], op["start"])
            if key not in verdicts:
                try:
                    verdicts[key] = check(op["output"].decode(), float(op["start"]))
                except Exception as exc:  # a malformed answer is a failed op
                    verdicts[key] = ([f"check raised {exc!r}"], float("nan"))
            reasons += verdicts[key][0]
            if first.setdefault(op["start"], op["output"]) != op["output"]:
                reasons.append("output differs from the first op's at this start")
        op["failed"] = reasons
    op0 = ops[0]
    if op0["output"] is None:
        return float("nan")
    return verdicts[(op0["output"], op0["start"])][1]


def start_index(op: int, trace: bool) -> int:
    """Which of the seed's starts op number ``op`` uses.

    Ops 0 and 1 share the first start, so a repeat of the output is checked.
    Untraced runs then take a new start per op, so one run covers several
    starts and its median leans less on the work of one start (the steps of
    an op vary by about 10% across a workload's start range).  Traced runs
    keep the first start, so their counts can be compared between ops.
    """
    return 0 if trace else max(0, op - 1)


def median_over_starts(ops: list[dict], key: str) -> float:
    """Median over the run's starts of the median ``key`` at each start.

    The first start runs twice; this way it weighs as much as the others.
    """
    by_start: dict = {}
    for op in ops:
        by_start.setdefault(op["start"], []).append(op[key])
    return statistics.median(statistics.median(v) for v in by_start.values())


def run_workload(args, workload) -> tuple[dict, dict]:
    """Run the ops; return the printed result and the full record."""
    from moi.cli_reporting import run_cli

    header = environment(args.seed)
    header.update(workload=workload.name, seconds=args.seconds, trace=args.trace)
    # one untimed start first, so every timed start finds a warm file cache
    time_setup(workload.setup)
    setup = []

    scratch = RESULTS / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    out = scratch / "out"
    try:
        run_op(run_cli, workload.warmup, scratch / "warmup")

        instr = tracer = None
        if args.trace:
            from bench_tracer import Instrumentation, Tracer, layer_metrics

            tracer = Tracer()
            instr = Instrumentation(tracer)
        ops, per_layer = [], []
        t_begin = time.perf_counter()
        while True:
            # set-up starts spread over the run, so one slow moment of the
            # host does not set the whole run's setup_s
            setup.append(time_setup(workload.setup))
            traced = bool(args.trace) and len(ops) % 2 == 0
            start = workload.start(args.seed, start_index(len(ops), bool(args.trace)))
            argv = workload.argv(start, str(out))
            if traced:
                tracer.op = len(ops)
                with instr:
                    op = run_op(tracer.span("op", run_cli, adopt=True), argv, out)
                stats = tracer.take()
                op_spans = [s for s in tracer.spans if s.op == tracer.op]
                size = len(op["output"]) if op["output"] is not None else 0
                per_layer.append(layer_metrics(stats, op_spans, size))
            else:
                op = run_op(run_cli, argv, out)
            op.update(traced=traced, start=start, argv=argv)
            ops.append(op)
            elapsed = time.perf_counter() - t_begin
            typical = statistics.median(o["wall_s"] for o in ops)
            if len(ops) >= MIN_OPS and elapsed + typical > args.seconds:
                break
        while len(setup) < SETUP_STARTS:
            setup.append(time_setup(workload.setup))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    mode_err = judge(ops, workload.check)
    if args.trace:
        from bench_tracer import COUNT_METRICS, count_mismatches

        mismatched = count_mismatches(per_layer)
        if mismatched:
            last_traced = next(o for o in reversed(ops) if o["traced"])
            last_traced["failed"].append(
                f"counts differ between traced ops: {mismatched}")
    failed = sum(1 for op in ops if op["failed"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics = {
            name: {"value": per_layer[0][name][0] if name in COUNT_METRICS
                   else statistics.median(op[name][0] for op in per_layer),
                   "unit": unit}
            for name, (_, unit) in per_layer[0].items()
        }
        traced_s = statistics.median(o["op_s"] for o in ops if o["traced"])
        plain_s = statistics.median(o["op_s"] for o in ops if not o["traced"])
        metrics["trace.op_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.untraced_op_s"] = {"value": plain_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    else:
        metrics = {
            "op_s": {"value": median_over_starts(ops, "op_s"), "unit": "s"},
            "op_cpu_s": {"value": median_over_starts(ops, "op_cpu_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            # null when the answer failed its check (the run is not correct)
            "mode_err": {"value": mode_err if mode_err == mode_err else None,
                         "unit": "1"},
        }
    result = {
        "correct": failed == 0 and mode_err == mode_err,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "environment": header,
        "setup_s": setup,
        "error_rate": failed / len(ops),
        "ops": [
            {k: v for k, v in op.items() if k not in ("output", "chatter")}
            for op in ops
        ],
        "result": result,
    }
    if args.trace:
        record["per_layer_per_op"] = per_layer
        record["spans"] = [asdict(s) for s in tracer.spans]
    return result, record


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _import_moi()
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: cannot import moi from this checkout: {exc}",
              file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result, record = run_workload(args, WORKLOADS[args.workload])

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    env = record["environment"]
    starts = sorted({op["start"] for op in record["ops"]})
    print(f"# {env['workload']} seed {env['seed']} starts {', '.join(starts)}: "
          f"{env['cpu_model']}, nproc {env['nproc']}, Python {env['python']}, "
          f"numpy {env['numpy']}, threads {env['thread_env']}")
    print(f"# attempted {result['attempted']} failed {result['failed']} "
          f"error_rate {record['error_rate']:.4g} ratio")
    for op in record["ops"]:
        for reason in op["failed"]:
            print(f"# FAILED: {reason}")
    for name, m in result["metrics"].items():
        print(f"# {name} {m['value']} {m['unit']}")
    raw = {k: statistics.median(op[k] for op in record["ops"])
           for k in ("wall_s", "cpu_s", "speed_scale")}
    print(f"# unscaled medians: wall {raw['wall_s']:.4f} s, cpu {raw['cpu_s']:.4f} s; "
          f"speed scale {raw['speed_scale']:.4f}")
    print(f"# full record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

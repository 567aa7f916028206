"""Spans and counters for the moi benchmark, patched in from outside.

The benchmark never edits the package.  It replaces names in the module
namespaces where callers look them up (``moi.recovery_boundary.simulate``,
``moi.integrator.is_unstable``, ...) and wraps the model callables of the
system the CLI builds.  Coarse boundaries (op, search, probe, simulate, SEP
solve, disturbance replay, averaging) become spans kept in memory; hot
boundaries (trapezoidal step, model field/Jacobian, ``eval_jacobian``,
eigen calls) only add to per-name counters with summed time, because one
pendulum ``mode`` op makes about 190k Jacobian evaluations.

Self time is a call's duration minus the time covered by the traced calls
it made on the same thread.  Calls on one thread are sequential, so that
covered time is the sum of the children's durations.  Sweep rows run on
``h_sweep``'s worker threads: their spans name the ``h_sweep`` span as
parent, but do not reduce its self time.
"""

from __future__ import annotations

import itertools
import math
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Span:
    """One traced call at a coarse layer boundary; times in seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    thread: int
    self_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _close(stack: list, stats: dict, frame: list, dur: float) -> float:
    """Pop ``frame`` (``[child_s, name, span_id]``), book ``dur`` to its
    name and to its parent's child time; return the frame's self time."""
    stack.pop()
    if stack:
        stack[-1][0] += dur
    self_s = dur - frame[0]
    st = stats.get(frame[1])
    if st is None:
        st = stats[frame[1]] = [0, 0.0, 0.0]
    st[0] += 1
    st[1] += dur
    st[2] += self_s
    return self_s


class Tracer:
    """Per-thread call stacks feeding per-name ``[calls, total_s, self_s]``.

    ``clock`` is injectable so tests can drive the arithmetic by hand.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = 0
        # span that frames opened on an empty stack (a new thread) adopt as
        # their parent; set by spans entered with ``adopt=True``
        self.root: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_stats: list[dict] = []

    # -- per-thread state --------------------------------------------------

    def _thread(self):
        local = self._local
        try:
            return local.stack, local.stats
        except AttributeError:
            local.stack = []
            local.stats = {}
            local.window = None
            with self._lock:
                self._thread_stats.append(local.stats)
            return local.stack, local.stats

    def add(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the event count ``name`` (no timing)."""
        _, stats = self._thread()
        st = stats.get(name)
        if st is None:
            st = stats[name] = [0, 0.0, 0.0]
        st[0] += n

    def take(self) -> dict[str, tuple[float, float, float]]:
        """Merge every thread's counters, then reset them for the next op."""
        merged: dict[str, list] = {}
        with self._lock:
            for stats in self._thread_stats:
                for name, (calls, total, self_s) in stats.items():
                    m = merged.setdefault(name, [0, 0.0, 0.0])
                    m[0] += calls
                    m[1] += total
                    m[2] += self_s
                stats.clear()
        return {k: tuple(v) for k, v in merged.items()}

    # -- wrappers ----------------------------------------------------------

    def counter(self, name: str, fn: Callable, note: Optional[Callable] = None):
        """Wrap ``fn`` to count calls and time under ``name``.

        ``note(args, parent_name)`` runs after each call, outside the timed
        interval, with the name of the enclosing traced call (or None).
        """
        clock = self.clock
        thread = self._thread

        def wrapper(*args, **kwargs):
            stack, stats = thread()
            frame = [0.0, name, None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                _close(stack, stats, frame, clock() - t0)
                if note is not None:
                    note(args, stack[-1][1] if stack else None)

        return wrapper

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None,
             adopt: bool = False):
        """Wrap ``fn`` to record a :class:`Span` per call, and count it.

        ``after(args, result)`` runs after a call that returned.  With
        ``adopt``, calls that start on other threads' empty stacks while
        this span is open take it as their parent.
        """
        clock = self.clock
        thread = self._thread

        def wrapper(*args, **kwargs):
            stack, stats = thread()
            parent = next(
                (f[2] for f in reversed(stack) if f[2] is not None), self.root
            )
            sid = next(self._ids)
            frame = [0.0, name, sid]
            stack.append(frame)
            if adopt:
                saved, self.root = self.root, sid
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if adopt:
                    self.root = saved
                self_s = _close(stack, stats, frame, t1 - t0)
                self.spans.append(
                    Span(sid, name, t0, t1, parent, self.op,
                         threading.get_ident(), self_s)
                )
            if after is not None:
                after(args, result)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# instrumentation of the moi package

#: wrapped spectral entry points; each call is one eigen decomposition
EIG_NAMES = ("is_unstable", "spectral_abscissa", "unstable_eigenpair",
             "unstable_count")


class Instrumentation:
    """Context manager that installs tracing wrappers into ``moi``.

    Also derives the per-op events that need a look at arguments or
    results: Newton iterations, flagged states, solver failures, repeat
    trajectories, bisection bits and Jacobian evaluations per averaging
    window state.
    """

    def __init__(self, tracer: Tracer):
        import moi.cli_reporting as cli
        import moi.instability_mode as im
        import moi.integrator as integ
        import moi.model_zoo as mz
        import moi.recovery_boundary as rb

        self.tracer = tracer
        self._seen: set = set()
        t = tracer
        simulate = t.span("simulate", integ.simulate, after=self._after_simulate)
        find_sep = t.span("find_sep", rb.find_sep)
        step = t.counter("step_trapezoidal", integ.step_trapezoidal)
        eval_jac = t.counter("eval_jacobian", integ.eval_jacobian,
                             note=self._note_eval_jacobian)
        mode = t.span("mode_at_boundary", im.mode_at_boundary)
        self._targets = [
            (cli, "mode_at_boundary", mode),
            (cli, "h_sweep", t.span("h_sweep", cli.h_sweep, adopt=True)),
            (cli, "load_network", t.counter("load_network", cli.load_network)),
            (cli, "pendulum_system", self._system_factory(cli.pendulum_system)),
            (cli, "multimachine_system",
             self._system_factory(cli.multimachine_system)),
            (cli, "mode_json_text", t.counter("serialize", cli.mode_json_text)),
            (cli, "sweep_csv_text", t.counter("serialize", cli.sweep_csv_text)),
            (im, "mode_at_boundary", mode),
            (im, "ray_boundary_search",
             t.span("ray_boundary_search", im.ray_boundary_search,
                    after=self._after_search)),
            (im, "find_sep", find_sep),
            (im, "simulate", simulate),
            (im, "average_jacobian", self._average_jacobian(im.average_jacobian)),
            (im, "eval_jacobian", eval_jac),
            (im, "unstable_eigenpair",
             t.counter("unstable_eigenpair", im.unstable_eigenpair)),
            (im, "unstable_count", t.counter("unstable_count", im.unstable_count)),
            (rb, "classify_recovery",
             t.span("classify_recovery", rb.classify_recovery,
                    after=self._after_probe)),
            (rb, "find_sep", find_sep),
            (rb, "simulate", simulate),
            (rb, "eval_jacobian", eval_jac),
            (rb, "spectral_abscissa",
             t.counter("spectral_abscissa", rb.spectral_abscissa)),
            (integ, "initial_state", t.span("initial_state", integ.initial_state)),
            (integ, "step_trapezoidal", step),
            (integ, "eval_jacobian", eval_jac),
            (integ, "is_unstable", t.counter("is_unstable", integ.is_unstable)),
            (mz, "step_trapezoidal", step),
        ]
        self._saved: list = []

    def __enter__(self):
        self._seen.clear()
        for module, name, wrapper in self._targets:
            self._saved.append((module, name, getattr(module, name)))
            setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)
        return False

    # -- wrappers and hooks ------------------------------------------------

    def _system_factory(self, factory):
        t = self.tracer

        def build(*args, **kwargs):
            system = factory(*args, **kwargs)
            return replace(
                system,
                field=t.counter("model.field", system.field),
                jacobian=t.counter("model.jacobian", system.jacobian),
                initial_condition=t.counter(
                    "model.initial_condition", system.initial_condition
                ),
            )

        return build

    def _note_eval_jacobian(self, args, parent):
        if parent == "step_trapezoidal":
            self.tracer.add("newton_iters")
            return
        window = self.tracer._local.window
        if window is not None:
            window[np.asarray(args[1], dtype=float).tobytes()] += 1

    def _after_simulate(self, args, traj):
        t = self.tracer
        system, p, cfg = args[0], args[1], args[2]
        # sweep rows run on threads but differ in h, so they share no key
        key = (system.name, np.asarray(p, dtype=float).tobytes(), cfg.step)
        if key in self._seen:
            t.add("repeat_trajectories")
        self._seen.add(key)
        if traj.termination.value == "SolverFailure":
            t.add("solver_failures")
        if traj.instability_flags is not None:
            t.add("flagged_states", int(traj.instability_flags.sum()))
            if t._local.window is not None:
                t._local.window_states = traj.states

    def _after_probe(self, args, verdict):
        if verdict.verdict.value == "Undetermined":
            self.tracer.add("undetermined")

    def _after_search(self, args, result):
        t = self.tracer
        t.add("probes", len(result.history))
        bis = result.iterations
        t.add("bisection_probes", bis)
        if bis:
            n_exp = len(result.history) - bis
            p_hi = result.history[n_exp - 1][0]
            p_lo = result.history[n_exp - 2][0]
            width0 = float(np.linalg.norm(p_hi - p_lo))
            t.add("bisection_bits", math.log2(width0 / result.bracket_width))

    def _average_jacobian(self, fn):
        t = self.tracer
        inner = t.span("average_jacobian", fn)

        def wrapper(*args, **kwargs):
            t._thread()
            local = t._local
            local.window = Counter()
            try:
                avg = inner(*args, **kwargs)
            finally:
                window, local.window = local.window, None
            j = avg.last_unstable_index
            states = local.window_states[: j + 1]
            t.add("window_j", j)
            t.add("window_states", j + 1)
            t.add("window_jacobian_evals",
                  sum(window[s.tobytes()] for s in states))
            return avg

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics of one op


def layer_metrics(stats: dict, spans: list[Span], report_bytes: int) -> dict:
    """Per-layer metrics of one op from its counters and spans.

    Returns ``{name: (value, unit)}``.  Counts are exact; times are sums
    over the op, except ``recovery_boundary.probe_s`` (median probe).
    """

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    probe_durations = [s.duration for s in spans if s.name == "classify_recovery"]
    sweeps = [s for s in spans if s.name == "h_sweep"]
    sweep_ids = {s.id for s in sweeps}
    rows = [s for s in spans if s.name == "mode_at_boundary" and s.parent in sweep_ids]
    sweep_wall = sum(s.duration for s in sweeps)
    window_states = calls("window_states")
    bis = calls("bisection_probes")
    count, sec, ratio = "count", "s", "ratio"
    return {
        "model_zoo.field_calls": (calls("model.field"), count),
        "model_zoo.field_s": (total("model.field"), sec),
        "model_zoo.jacobian_calls": (calls("model.jacobian"), count),
        "model_zoo.jacobian_s": (total("model.jacobian"), sec),
        "model_zoo.ic_calls": (calls("model.initial_condition"), count),
        "model_zoo.ic_s": (total("model.initial_condition"), sec),
        "model_zoo.load_network_s": (total("load_network"), sec),
        "system_core.eval_jacobian_calls": (calls("eval_jacobian"), count),
        "system_core.eval_jacobian_self_s": (self_s("eval_jacobian"), sec),
        "integrator.simulate_calls": (calls("simulate"), count),
        "integrator.simulate_self_s": (self_s("simulate"), sec),
        "integrator.steps": (calls("step_trapezoidal"), count),
        "integrator.step_self_s": (self_s("step_trapezoidal"), sec),
        "integrator.newton_iters": (calls("newton_iters"), count),
        "integrator.flagged_states": (calls("flagged_states"), count),
        "integrator.solver_failures": (calls("solver_failures"), count),
        "spectral.eig_calls": (sum(calls(n) for n in EIG_NAMES), count),
        "spectral.eig_s": (sum(total(n) for n in EIG_NAMES), sec),
        "recovery_boundary.probes": (calls("probes"), count),
        "recovery_boundary.probe_s": (
            statistics.median(probe_durations) if probe_durations else 0.0, sec),
        "recovery_boundary.search_rounds": (calls("classify_recovery"), count),
        "recovery_boundary.bits_per_probe": (
            calls("bisection_bits") / bis if bis else 0.0, ratio),
        "recovery_boundary.sep_solves": (calls("find_sep"), count),
        "recovery_boundary.sep_s": (total("find_sep"), sec),
        "recovery_boundary.search_s": (total("ray_boundary_search"), sec),
        "recovery_boundary.undetermined": (calls("undetermined"), count),
        "instability_mode.average_s": (total("average_jacobian"), sec),
        "instability_mode.window_j": (calls("window_j"), count),
        "instability_mode.jacobian_evals_per_window_state": (
            calls("window_jacobian_evals") / window_states if window_states else 0.0,
            ratio),
        "instability_mode.repeat_trajectories": (calls("repeat_trajectories"), count),
        "instability_mode.eigenpair_s": (total("unstable_eigenpair"), sec),
        "instability_mode.sweep_rows": (len(rows), count),
        "instability_mode.sweep_concurrency": (
            sum(s.duration for s in rows) / sweep_wall if sweep_wall else 0.0, ratio),
        "cli_reporting.serialize_s": (total("serialize"), sec),
        "cli_reporting.report_bytes": (report_bytes, "bytes"),
    }


#: per-layer metrics that must repeat exactly between ops of one seed
COUNT_METRICS = (
    "model_zoo.field_calls", "model_zoo.jacobian_calls", "model_zoo.ic_calls",
    "system_core.eval_jacobian_calls", "integrator.simulate_calls",
    "integrator.steps", "integrator.newton_iters", "integrator.flagged_states",
    "integrator.solver_failures", "spectral.eig_calls",
    "recovery_boundary.probes", "recovery_boundary.search_rounds",
    "recovery_boundary.bits_per_probe", "recovery_boundary.sep_solves",
    "recovery_boundary.undetermined", "instability_mode.window_j",
    "instability_mode.jacobian_evals_per_window_state",
    "instability_mode.repeat_trajectories", "instability_mode.sweep_rows",
    "cli_reporting.report_bytes",
)


def count_mismatches(per_op: list[dict]) -> list[str]:
    """Names of count metrics that differ between any two ops."""
    return [
        name for name in COUNT_METRICS
        if len({op[name][0] for op in per_op}) > 1
    ]

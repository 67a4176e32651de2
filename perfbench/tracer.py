"""Per-layer tracing from outside the package.

Each layer function is replaced, for the length of a traced pass, by a
wrapper installed under the name its caller looks up (for example
``locsim.simulator.generate_trace``, which both ``run`` and ``sweep``
call). Wrappers record spans: name, start, end, parent span and op id,
where one op is one ``locsim.cli.main`` call. The strategy functions run
about a million times per ensemble pass, so they are rolled up into call
counts and busy time on the innermost open span instead of getting spans
of their own.

A target that no longer exists is reported as absent, never an error, so
the traced run keeps working while the package is refactored.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

perf_counter = time.perf_counter


def _draws(args, _result) -> dict[str, int]:
    """Acceleration draws of ``generate_trace``: one per event at t1, 2*t1, ... < n."""
    p = args[0]
    return {"mobility.accel_draws": len(range(p.t1_s, max(1, p.duration_s), p.t1_s))}


def _fix_spans(args, _result) -> dict[str, int]:
    return {"simulator.satisfaction.spans": len(args[0])}


# (module, attribute, span name, counts hook)
SPAN_TARGETS = (
    ("locsim.cli", "load_config_file", "config", None),
    ("locsim.cli", "resolve_config", "config", None),
    ("locsim.cli", "format_config", "config", None),
    ("locsim.cli", "build_simulation_config", "config", None),
    ("locsim.cli", "sweep", "simulator.sweep", None),
    ("locsim.cli", "run", "simulator.run", None),
    ("locsim.simulator", "run", "simulator.run", None),
    ("locsim.simulator", "generate_trace", "mobility.generate_trace", _draws),
    ("locsim.simulator", "_satisfaction_exact", "simulator.satisfaction", _fix_spans),
    ("locsim.cli", "summary_to_csv", "simulator.csv", None),
    ("locsim.simulator", "summary_to_csv", "simulator.csv", None),
    ("locsim.simulator", "means_to_csv", "simulator.csv", None),
    ("locsim.simulator", "events_to_csv", "simulator.csv", None),
)
# (module, attribute, roll-up name, timed, counts hook). Untimed roll-ups
# only count calls: select_method runs inside begin_epoch, whose time
# already covers it.
ROLLUP_TARGETS = (
    ("locsim.simulator", "on_velocity_sample", "strategy.on_velocity_sample", True, None),
    ("locsim.simulator", "begin_epoch", "strategy.begin_epoch", True, None),
    ("locsim.simulator", "on_requirement_change", "strategy.on_requirement_change", True, None),
    ("locsim.strategy", "select_method", "strategy.select_method", False, None),
)


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "child_s", "roll", "counts")

    def __init__(self, span_id, name, parent, op, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start
        self.child_s = 0.0  # time covered by child spans and timed roll-ups
        self.roll: dict[str, list] = {}  # name -> [calls, busy_s]
        self.counts: dict[str, int] = {}

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s

    def as_json(self, t0: float) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "op": self.op,
            "start": self.start - t0, "end": self.end - t0, "self_s": self.self_s,
            "roll": self.roll, "counts": self.counts,
        }


class Tracer:
    """Span recorder; spans stay in memory until :meth:`write`."""

    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ops = 0
        self.absent: list[str] = sorted(
            {t[2] for t in SPAN_TARGETS + ROLLUP_TARGETS if _lookup(t[0], t[1])[1] is None}
        )

    def _open(self, name: str) -> Span:
        stack = self._stack
        parent = stack[-1] if stack else None
        span = Span(len(self.spans), name, parent.id if parent else None,
                    parent.op if parent else self._ops, perf_counter())
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.dur

    def op(self, main, argv):
        """Run one top-level ``cli.main`` call as its own op."""
        self._ops += 1
        span = self._open("cli.main")
        try:
            return main(argv)
        finally:
            self._close(span)

    def _span_wrapper(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                _add(span.counts, hook(args, result))
            return result

        return wrapper

    def _rollup_wrapper(self, fn, name, timed, hook):
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            span = stack[-1]
            acc = span.roll.get(name)
            if acc is None:
                acc = span.roll[name] = [0, 0.0]
            acc[0] += 1
            if timed:
                acc[1] += dt
                span.child_s += dt
            if hook is not None:
                _add(span.counts, hook(args, result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every present target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, hook in SPAN_TARGETS:
                module, fn = _lookup(module_name, attr)
                if fn is not None:
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._span_wrapper(fn, name, hook))
            for module_name, attr, name, timed, hook in ROLLUP_TARGETS:
                module, fn = _lookup(module_name, attr)
                if fn is not None:
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._rollup_wrapper(fn, name, timed, hook))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_json(self.t0)) + "\n")


def _lookup(module_name: str, attr: str):
    """(module, function), with None for whichever of them no longer exists."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    return module, getattr(module, attr, None)


def _add(into: dict[str, int], counts: dict[str, int]) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


def check_self_times(spans: list[Span], tol: float = 1e-9) -> list[tuple[int, str]]:
    """(op, problem) pairs: no self time may be negative, and per op they
    must add up to no more than the op's wall time."""
    problems = []
    per_op: dict[int, float] = {}
    op_wall: dict[int, float] = {}
    for span in spans:
        if span.self_s < -tol:
            problems.append(
                (span.op, f"span {span.id} ({span.name}) has negative self time {span.self_s}")
            )
        per_op[span.op] = per_op.get(span.op, 0.0) + span.self_s
        if span.parent is None:
            op_wall[span.op] = span.dur
    for op, total in per_op.items():
        if total > op_wall.get(op, 0.0) + tol:
            problems.append(
                (op, f"op {op}: self times add up to {total} s, more than its {op_wall.get(op)} s")
            )
    return problems


def layer_metrics(spans: list[Span], fixes: int, samples: int, changes: int,
                  csv_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Work counts that the outputs fix (fixes, samples, schedule changes,
    CSV bytes) come from the checked outputs, so ratios keep their meaning
    when the package stops calling a wrapped function.
    """
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + span.dur
        self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
        for name, (n, dt) in span.roll.items():
            calls[name] = calls.get(name, 0) + n
            busy[name] = busy.get(name, 0.0) + dt
        _add(counts, span.counts)

    def ratio(num, den):
        return num / den if den else 0.0

    runs = calls.get("simulator.run", 0)
    gen_busy = busy.get("mobility.generate_trace", 0.0)
    run_busy = busy.get("simulator.run", 0.0)
    csv_busy = busy.get("simulator.csv", 0.0)
    draws = counts.get("mobility.accel_draws", 0)
    return {
        "cli.main.calls": calls.get("cli.main", 0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "config.busy_s": busy.get("config", 0.0),
        "mobility.generate_trace.calls": calls.get("mobility.generate_trace", 0),
        "mobility.generate_trace.busy_s": gen_busy,
        "mobility.accel_draws": draws,
        "mobility.accel_draws_per_s": ratio(draws, gen_busy),
        "mobility.traces_per_run": ratio(calls.get("mobility.generate_trace", 0), runs),
        "strategy.on_velocity_sample.calls": calls.get("strategy.on_velocity_sample", 0),
        "strategy.on_velocity_sample.busy_s": busy.get("strategy.on_velocity_sample", 0.0),
        "strategy.begin_epoch.calls": calls.get("strategy.begin_epoch", 0),
        "strategy.begin_epoch.busy_s": busy.get("strategy.begin_epoch", 0.0),
        "strategy.select_method.calls_per_fix": ratio(calls.get("strategy.select_method", 0), fixes),
        "simulator.run.calls": runs,
        "simulator.run.busy_s": run_busy,
        "simulator.run.self_s": self_s.get("simulator.run", 0.0),
        "simulator.run.events_per_s": ratio(fixes + samples + changes, run_busy),
        "simulator.satisfaction.busy_s": busy.get("simulator.satisfaction", 0.0),
        "simulator.satisfaction.spans": counts.get("simulator.satisfaction.spans", 0),
        "simulator.sweep.self_s": self_s.get("simulator.sweep", 0.0),
        "simulator.csv.busy_s": csv_busy,
        "simulator.csv.bytes_per_s": ratio(csv_bytes, csv_busy),
    }

"""Span recorder for the traced benchmark run, and the per-layer analysis.

The benchmark never edits ``src/``: :meth:`Tracer.install` wraps the
public entry point of each layer from the outside, records one span per
call (name, layer, start, end, parent span, thread, work count) in
memory, and :meth:`Tracer.write` saves the spans as JSONL when the
process under test exits.  :func:`self_times`, :func:`layer_table` and
:func:`by_name` turn a span file into per-layer self time, counts and
waits.  Self time is a span's duration minus the part of it that its
child spans on the same thread cover.

Clock: ``time.monotonic`` (CLOCK_MONOTONIC on Linux), so span times and
the phase marks taken in the benchmark process share one time base.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

#: The layer entry points the traced run wraps: (module, attribute,
#: layer, work-count function).  The count function gets
#: ``(args, result)`` and returns the unit of work the call did (rows
#: evaluated, lane-ticks stepped, items dequeued) or ``None``.
#: Module-level functions are listed once per module that binds them,
#: because a ``from x import f`` copy is a separate name.
TARGETS = (
    # simulator: the physics kernel, its lane I/O, and set-up runs
    ("repro.simulator.system", "Server.run_ticks", "simulator",
     lambda args, result: int(args[1])),
    ("repro.simulator.fleet", "FleetServer.run_ticks", "simulator",
     lambda args, result: int(args[1]) * int((result != 0.0).sum())),
    ("repro.simulator.fleet", "FleetServer.read_and_clear_lanes",
     "simulator", None),
    ("repro.simulator.fleet", "FleetServer.set_lane_pstates", "simulator",
     None),
    ("repro.simulator.fleet", "FleetServer.set_lane_threads", "simulator",
     None),
    ("repro.simulator.fleet", "FleetServer.run", "simulator", None),
    ("repro.simulator.system", "simulate_workload", "simulator", None),
    ("repro.simulator", "simulate_workload", "simulator", None),
    # dc: the control loop, its policies and the zone-bank calibration
    ("repro.dc.datacenter", "Datacenter.run", "dc", None),
    ("repro.dc.policies", "SubsystemManager.request_w", "dc", None),
    ("repro.dc.policies", "SubsystemManager.place", "dc", None),
    ("repro.dc.policies", "SubsystemManager.note_sensed", "dc", None),
    ("repro.dc.policies", "BudgetAllocator.allocate", "dc", None),
    ("repro.dc.datacenter", "train_zone_bank", "dc", None),
    ("repro.dc", "train_zone_bank", "dc", None),
    # core: estimation and training
    ("repro.core.suite", "TrickleDownSuite.evaluate", "core",
     lambda args, result: int(args[1].n_samples)),
    ("repro.core.dvfs", "DvfsSuiteBank.predict_total", "core", None),
    ("repro.core.training", "ModelTrainer.train", "core", None),
    # obs.*: drift, fleet monitor, windows, alerts, store, http
    ("repro.obs.drift", "DriftMonitor.observe", "obs.drift", None),
    ("repro.obs.fleet", "FleetDriftMonitor.observe", "obs.drift", None),
    ("repro.obs.fleet", "FleetMonitor.on_pulse", "obs.fleet", None),
    ("repro.obs.fleet", "FleetMonitor.flush", "obs.fleet", None),
    ("repro.obs.live", "WindowedRegistry.ingest", "obs.live", None),
    ("repro.obs.live", "WindowedRegistry.sink_closed", "obs.live", None),
    ("repro.obs.alertmgr", "AlertManager.evaluate", "obs.alerts", None),
    ("repro.obs.tsdb", "TSDB.flush", "obs.tsdb", None),
    ("repro.obs.tsdb", "TSDB.query_range", "obs.tsdb", None),
    ("repro.obs.tsdb", "TSDB.query", "obs.tsdb", None),
    ("repro.obs.http", "ObservabilityServer.payload", "obs.http", None),
    # serve: decode, ingest, housekeeping and the shard queues
    ("repro.serve.service", "decode_lines", "serve",
     lambda args, result: len(result[0])),
    ("repro.serve.service", "EstimationService.ingest", "serve", None),
    ("repro.serve.service", "EstimationService.tick", "serve", None),
    ("repro.serve.queues", "BoundedQueue.put", "serve", None),
    ("repro.serve.queues", "BoundedQueue.get", "serve",
     lambda args, result: 0 if result is None else 1),
    ("repro.serve.queues", "BoundedQueue.drain", "serve",
     lambda args, result: len(result)),
)

#: Calls counted but not spanned (too frequent to span cheaply).
COUNTED = (
    ("repro.obs.metrics", "MetricsRegistry.gauge", "obs.registry.writes"),
    ("repro.obs.metrics", "MetricsRegistry.inc", "obs.registry.writes"),
    ("repro.obs.metrics", "MetricsRegistry.observe", "obs.registry.writes"),
)

#: Spans whose time is spent waiting, not working: excluded from self
#: time and reported as waits.
WAITS = frozenset({"BoundedQueue.get"})


def patch(module: str, attr: str, make_wrapper) -> None:
    """Replace ``module.attr`` (``attr`` may be ``Class.method``) with
    ``make_wrapper(original)``."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, name)
    wrapper = make_wrapper(original)
    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", name)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    setattr(owner, name, wrapper)


class Tracer:
    """In-memory span and counter recorder (thread-safe appends)."""

    def __init__(self) -> None:
        self.spans: "list[tuple]" = []
        self.queue_waits: "list[tuple[float, float]]" = []
        self._ids = itertools.count(1)
        self._counters: "dict[str, itertools.count]" = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span_wrapper(self, name: str, layer: str, count_fn):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.monotonic, threading.get_ident
        queue_waits = self.queue_waits
        is_queue_read = name in ("BoundedQueue.get", "BoundedQueue.drain")

        def make(original):
            def wrapper(*args, **kwargs):
                stack = stack_of()
                parent = stack[-1] if stack else 0
                sid = next(ids)
                stack.append(sid)
                t0 = clock()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    t1 = clock()
                    stack.pop()
                    n = None
                    if count_fn is not None and result is not None:
                        n = count_fn(args, result)
                    spans.append((sid, parent, name, layer, t0, t1, ident(), n))
                    if is_queue_read and result is not None:
                        items = result if isinstance(result, list) else [result]
                        for item in items:
                            stamp = getattr(item, "enqueued_monotonic", None)
                            if stamp:
                                queue_waits.append((t1, t1 - stamp))
            return wrapper

        return make

    def count_wrapper(self, counter: str):
        tally = self._counters.setdefault(counter, itertools.count())

        def make(original):
            def wrapper(*args, **kwargs):
                next(tally)
                return original(*args, **kwargs)
            return wrapper

        return make

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS` and :data:`COUNTED`."""
        for module, attr, layer, count_fn in TARGETS:
            patch(module, attr, self.span_wrapper(attr, layer, count_fn))
        for module, attr, counter in COUNTED:
            patch(module, attr, self.count_wrapper(counter))

    def counts(self) -> "dict[str, int]":
        # itertools.count has no read accessor; its repr carries the
        # next value, which equals the number of calls so far.
        return {
            name: int(repr(tally)[len("count("):-1])
            for name, tally in self._counters.items()
        }

    def write(self, path: str) -> None:
        """Spans as JSONL, then one trailer line with counters and waits."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, layer, t0, t1, tid, n in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "layer": layer, "start": t0, "end": t1,
                    "thread": tid, "n": n,
                }) + "\n")
            handle.write(json.dumps({
                "counters": self.counts(),
                "queue_waits": self.queue_waits,
            }) + "\n")


def load(path: str) -> "tuple[list[dict], dict]":
    """Read a span file: ``(spans, trailer)``."""
    spans, trailer = [], {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "id" in record:
                spans.append(record)
            else:
                trailer = record
    return spans, trailer


def self_times(spans: "list[dict]") -> "dict[int, float]":
    """Span id -> duration minus the time its same-thread children cover."""
    child_time: "dict[int, float]" = defaultdict(float)
    for span in spans:
        if span["parent"]:
            child_time[span["parent"]] += span["end"] - span["start"]
    return {
        span["id"]: (span["end"] - span["start"]) - child_time[span["id"]]
        for span in spans
    }


def in_window(span: dict, start: float, end: float) -> bool:
    """Whether the span's midpoint lies inside ``[start, end)``.

    The midpoint, not the start: the span around the call that marks
    the timed phase (``Datacenter.run``) opens a moment before the mark.
    """
    return start <= (span["start"] + span["end"]) / 2.0 < end


def layer_table(
    spans: "list[dict]", start: float, end: float
) -> "dict[str, float]":
    """Busy self seconds per layer for spans started in the window.

    Waits (see :data:`WAITS`) are left out: a shard blocked on an empty
    queue is idle, not busy.
    """
    own = self_times(spans)
    table: "dict[str, float]" = defaultdict(float)
    for span in spans:
        if span["name"] in WAITS or not in_window(span, start, end):
            continue
        table[span["layer"]] += own[span["id"]]
    return dict(table)


def by_name(
    spans: "list[dict]", start: float, end: float
) -> "dict[str, dict[str, float]]":
    """Per span name: calls, total seconds, self seconds, summed count."""
    own = self_times(spans)
    out: "dict[str, dict[str, float]]" = {}
    for span in spans:
        if not in_window(span, start, end):
            continue
        row = out.setdefault(
            span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0}
        )
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own[span["id"]]
        row["n"] += span["n"] or 0
    return out

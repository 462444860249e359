"""Per-layer metrics of a traced run.

Turns the span file of the traced run plus the untraced run's outcome
into the per-layer table README.md describes: each layer's self time,
counts and waits in the timed phase, set-up costs, the layer with the
most self time, and the tracing overhead.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import tracer
from workloads import quantile

KERNELS = ("Server.run_ticks", "FleetServer.run_ticks")
LANE_IO = ("FleetServer.read_and_clear_lanes", "FleetServer.set_lane_pstates",
           "FleetServer.set_lane_threads")
EVALUATE = ("TrickleDownSuite.evaluate", "DvfsSuiteBank.predict_total")
DRIFT = ("DriftMonitor.observe", "FleetDriftMonitor.observe")
POLICY = ("SubsystemManager.request_w", "SubsystemManager.place",
          "SubsystemManager.note_sensed", "BudgetAllocator.allocate")


def _sum(table: dict, names, key: str) -> float:
    return float(sum(table.get(name, {}).get(key, 0) for name in names))


def report(traced, untraced) -> dict:
    """Per-layer metrics: ``{"named": {...}, "json": {...}, "top": ...}``.

    ``named`` holds every per-layer metric of a layer that ran (layer
    names, timed phase unless the name says set-up); ``json`` holds the
    BENCHMARK.json ``per_layer`` metrics, which are defined on every
    workload.
    """
    spans, trailer = tracer.load(traced.spans)
    start, end = traced.window
    timed = tracer.by_name(spans, start, end)
    setup = tracer.by_name(spans, traced.launched, start)
    whole = tracer.by_name(spans, 0.0, float("inf"))
    counters = trailer.get("counters", {})
    named: "dict[str, tuple[float | None, str]]" = {}

    def put(name: str, value, unit: str) -> None:
        named[name] = (None if value is None else float(value), unit)

    # simulator
    busy = _sum(timed, KERNELS, "self_s")
    ticks = _sum(timed, KERNELS, "n")
    if ticks:
        put("simulator.busy_s", busy, "s")
        put("simulator.lane_ticks", ticks, "count")
        put("simulator.us_per_lane_tick", busy / ticks * 1e6, "us")
    if _sum(timed, LANE_IO, "calls"):
        put("simulator.lane_io_s", _sum(timed, LANE_IO, "total_s"), "s")
    put("simulator.setup_s",
        _sum(setup, ("simulate_workload", "FleetServer.run"), "total_s"), "s")
    # dc
    if "Datacenter.run" in timed:
        put("dc.policy_s", _sum(timed, POLICY, "total_s"), "s")
        put("dc.loop_s", _sum(timed, ("Datacenter.run",), "self_s"), "s")
        put("dc.calibrate_s", _sum(setup, ("train_zone_bank",), "total_s"), "s")
    # core
    rows = _sum(timed, ("TrickleDownSuite.evaluate",), "n")
    calls = _sum(timed, ("TrickleDownSuite.evaluate",), "calls")
    put("core.evaluate_s", _sum(timed, EVALUATE, "self_s"), "s")
    put("core.rows", rows, "count")
    put("core.rows_per_call", rows / calls if calls else 0.0, "count")
    put("core.train_s", _sum(setup, ("ModelTrainer.train",), "total_s"), "s")
    # obs.drift and the registry
    put("obs.drift.observe_s", _sum(timed, DRIFT, "self_s"), "s")
    put("obs.drift.calls", _sum(timed, DRIFT, "calls"), "count")
    samples = traced.extra.get("samples")
    if samples:
        put("obs.drift.calls_per_sample",
            _sum(timed, DRIFT, "calls") / samples, "count")
        put("obs.registry.writes_per_sample",
            counters.get("obs.registry.writes", 0) / samples, "count")
    # obs.fleet, obs.live, obs.alerts
    if "FleetMonitor.on_pulse" in timed:
        put("obs.fleet.pulse_s",
            _sum(timed, ("FleetMonitor.on_pulse",), "total_s"), "s")
        put("obs.fleet.flush_s",
            _sum(timed, ("FleetMonitor.flush",), "self_s"), "s")
    live = ("WindowedRegistry.ingest", "WindowedRegistry.sink_closed")
    if _sum(timed, live, "calls"):
        put("obs.live.windows_s", _sum(timed, live, "total_s"), "s")
    if "AlertManager.evaluate" in timed:
        put("obs.alerts.evaluate_s",
            _sum(timed, ("AlertManager.evaluate",), "total_s"), "s")
    # obs.tsdb
    if "TSDB.flush" in whole:
        put("obs.tsdb.flush_s", _sum(timed, ("TSDB.flush",), "total_s"), "s")
        put("obs.tsdb.flushes", _sum(whole, ("TSDB.flush",), "calls"), "count")
        document = traced.extra.get("store_document") or {}
        put("obs.tsdb.appended", sum(
            shard.get("appended", 0)
            for shard in document.get("shards", {}).values()), "count")
        put("obs.tsdb.disk_bytes", traced.extra.get("store_bytes", 0), "bytes")
        put("obs.tsdb.query_s",
            _sum(timed, ("TSDB.query_range", "TSDB.query"), "total_s"), "s")
    # serve and obs.http
    layer_extra: "dict[str, float]" = {}
    if "EstimationService.ingest" in timed:
        _serve(spans, trailer, timed, traced, start, end, put, layer_extra)

    # Which layer holds the most busy self time in the timed phase.
    table = defaultdict(float, tracer.layer_table(spans, start, end))
    for layer, seconds in layer_extra.items():
        table[layer] += seconds
    total = sum(table.values())
    top = max(table, key=table.get) if table else "none"
    shares = {layer: seconds / total * 100.0 for layer, seconds in table.items()}

    overhead = (untraced.end_to_end["throughput"]
                / traced.end_to_end["throughput"] - 1.0) * 100.0
    put("trace.overhead_pct", overhead, "%")
    put("trace.top_layer_pct", shares.get(top, 0.0), "%")
    put("trace.spans", len(spans), "count")

    kernel = _sum(whole, KERNELS, "self_s")
    kernel_ticks = _sum(whole, KERNELS, "n")
    json_metrics = {
        "simulator.kernel_s": (kernel, "s"),
        "simulator.kernel_lane_ticks": (kernel_ticks, "count"),
        "simulator.us_per_lane_tick_all": (
            kernel / kernel_ticks * 1e6 if kernel_ticks else 0.0, "us"),
        "simulator.setup_s": named["simulator.setup_s"],
        "core.evaluate_s": named["core.evaluate_s"],
        "core.rows": named["core.rows"],
        "core.rows_per_call": named["core.rows_per_call"],
        "core.train_s": named["core.train_s"],
        "obs.drift.observe_s": named["obs.drift.observe_s"],
        "obs.drift.calls": named["obs.drift.calls"],
        "trace.top_layer_pct": named["trace.top_layer_pct"],
        "trace.overhead_pct": named["trace.overhead_pct"],
        "trace.spans": named["trace.spans"],
    }
    return {"named": named, "json": json_metrics, "top": top, "shares": shares}


def _serve(spans, trailer, timed, traced, start, end, put, layer_extra) -> None:
    """Shard-queue waits, worker busy share, publish time, HTTP cost."""
    waits = [wait * 1e3 for t, wait in trailer.get("queue_waits", [])
             if start <= t < end]
    put("serve.decode_s", _sum(timed, ("decode_lines",), "total_s"), "s")
    put("serve.ingest_s", _sum(timed, ("EstimationService.ingest",), "self_s"), "s")
    put("serve.queue_wait_p50_ms", quantile(waits, 0.50), "ms")
    put("serve.queue_wait_p99_ms", quantile(waits, 0.99), "ms")
    put("serve.queue_waits", len(waits), "count")
    passes = _sum(timed, ("BoundedQueue.get",), "n")
    drained = _sum(timed, ("BoundedQueue.drain",), "n")
    put("serve.coalesce", (passes + drained) / passes if passes else 0.0, "count")

    # Worker threads are the ones that block in BoundedQueue.get.
    own = tracer.self_times(spans)
    window = end - start
    blocked: "dict[int, float]" = defaultdict(float)
    work: "dict[int, float]" = defaultdict(float)
    for span in spans:
        if not tracer.in_window(span, start, end):
            continue
        if span["name"] == "BoundedQueue.get":
            blocked[span["thread"]] += span["end"] - span["start"]
        elif span["name"] in EVALUATE + DRIFT:
            work[span["thread"]] += own[span["id"]]
    workers = sorted(blocked)
    busy = [window - blocked[thread] for thread in workers]
    put("serve.worker_busy_frac",
        statistics.fmean(b / window for b in busy) if busy else 0.0, "ratio")
    publish = sum(busy) - sum(work[thread] for thread in workers)
    put("serve.publish_s", publish, "s")
    layer_extra["serve"] = max(0.0, publish)
    put("serve.tick_s", _sum(timed, ("EstimationService.tick",), "total_s"), "s")
    service = traced.extra.get("service") or {}
    put("serve.queue_high_water",
        max((s.get("high_water", 0) for s in service.get("shards", [])),
            default=0), "count")
    put("obs.http.get_s",
        _sum(timed, ("ObservabilityServer.payload",), "total_s"), "s")
    ingest = [(s["end"] - s["start"]) * 1e3 for s in spans
              if s["name"] == "EstimationService.ingest"
              and tracer.in_window(s, start, end)]
    post = traced.extra.get("post_ms") or []
    if ingest and post:
        put("obs.http.post_overhead_ms",
            statistics.median(post) - statistics.median(ingest), "ms")

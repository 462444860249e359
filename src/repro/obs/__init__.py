"""``repro.obs`` — telemetry for the reproduction itself.

The paper's method is measurement; this package makes the *simulation
of that measurement* measurable too.  Three dependency-free pieces:

* :mod:`repro.obs.metrics` — a process-local :class:`MetricsRegistry`
  of counters, gauges and fixed-bucket histograms with Prometheus-text
  and JSON exposition;
* :mod:`repro.obs.tracing` — ``span()`` context-manager tracing
  (monotonic clock, parent/child nesting) emitting a JSONL event log;
* :mod:`repro.obs.log` — stdlib ``logging`` wiring with a
  ``REPRO_LOG_LEVEL`` environment switch.

On top of those, the **live layer** (imported on first attribute
access, so the batch paths pay nothing for it):

* :mod:`repro.obs.live` — :class:`~repro.obs.live.WindowedRegistry`
  sliding-window aggregation and the :class:`~repro.obs.live.LiveMonitor`
  / :class:`~repro.obs.live.ClusterObserver` streaming hooks;
* :mod:`repro.obs.drift` — the EWMA residual drift monitor with the
  paper's 9 % average-error bound as its default SLO;
* :mod:`repro.obs.fleet` — the vectorized fleet plane:
  :class:`~repro.obs.fleet.FleetMonitor` watches every lane of a
  ``FleetServer`` in batched numpy passes, with per-lane drift EWMAs
  proven equivalent to the scalar monitor;
* :mod:`repro.obs.http` — a background-thread HTTP exposition server
  (``/metrics``, ``/metrics.json``, ``/alerts``, ``/healthz``,
  ``/attribution``, ``/flightrecorder``, ``/fleet*``);
* :mod:`repro.obs.attribution` — per-term watt decomposition of every
  estimate (which counter term carries the watts);
* :mod:`repro.obs.flight` — a bounded flight recorder dumping
  post-mortem bundles on drift alerts, sweep failures and crashes.

Telemetry is **opt-in and off by default**.  Instrumented call sites
guard on :func:`enabled` (or call the no-op-when-disabled helpers
below), so the disabled path costs one module-level bool read — the
``scripts/obs_overhead.py`` gate holds the *enabled* tick-loop overhead
under 5% and ``scripts/bench_compare.py`` holds the disabled path
within the usual 20% regression gate.

Typical use::

    from repro import obs

    obs.enable()
    ... run a sweep ...
    obs.dump("out/")        # metrics.prom, metrics.json, trace.jsonl

Worker processes snapshot their registry + trace with
:func:`snapshot` and the parent folds them back with
:func:`merge_snapshot`; merging is associative, so a parallel sweep's
aggregated view equals the serial run's (tested in
``tests/test_obs.py``).
"""

from __future__ import annotations

import json
import os
import subprocess
from contextlib import contextmanager

from repro.obs import log
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry, metric_key
from repro.obs.tracing import Tracer, read_jsonl

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "alertmgr",
    "attribution",
    "counter",
    "disable",
    "drift",
    "dump",
    "flight",
    "enable",
    "enabled",
    "event",
    "fleet",
    "gauge",
    "gauge_value",
    "http",
    "inc",
    "live",
    "log",
    "merge_snapshot",
    "metric_key",
    "observe",
    "provenance",
    "read_jsonl",
    "registry",
    "reset",
    "snapshot",
    "span",
    "tracer",
    "tsdb",
]

#: Filenames :func:`dump` writes into its target directory.
METRICS_PROM = "metrics.prom"
METRICS_JSON = "metrics.json"
TRACE_JSONL = "trace.jsonl"

_enabled = False
_registry = MetricsRegistry()
_tracer = Tracer()


def enabled() -> bool:
    """Whether telemetry collection is on in this process."""
    return _enabled


def enable() -> None:
    """Turn telemetry collection on (idempotent; state is kept)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn telemetry collection off (collected data is kept)."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Drop every collected metric and trace event."""
    _registry.reset()
    _tracer.reset()


def registry() -> MetricsRegistry:
    """This process's metrics registry (collects only while enabled)."""
    return _registry


def tracer() -> Tracer:
    """This process's tracer (collects only while enabled)."""
    return _tracer


# -- no-op-when-disabled recording helpers -----------------------------


@contextmanager
def _null_span():
    yield None


def span(name: str, **attrs):
    """A tracing span, or a free no-op when telemetry is disabled."""
    if not _enabled:
        return _null_span()
    return _tracer.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """A zero-duration trace event, or a no-op when disabled."""
    if _enabled:
        _tracer.event(name, **attrs)


def inc(name: str, value: float = 1.0, labels: "dict | None" = None) -> None:
    if _enabled:
        _registry.inc(name, value, labels)


def gauge(name: str, value: float, labels: "dict | None" = None) -> None:
    if _enabled:
        _registry.gauge(name, value, labels)


def observe(
    name: str,
    value: float,
    labels: "dict | None" = None,
    buckets: "tuple[float, ...]" = DEFAULT_BUCKETS,
) -> None:
    if _enabled:
        _registry.observe(name, value, labels, buckets)


def counter(name: str, labels: "dict | None" = None) -> float:
    """Current value of a counter (0.0 when it never incremented).

    A read-side convenience for call sites that report on their own
    telemetry — e.g. the sweep CLI printing ``sweep_retries_total``
    after a fault-disturbed run.
    """
    return _registry.counters.get(metric_key(name, labels), 0.0)


def gauge_value(name: str, labels: "dict | None" = None) -> float:
    """Current value of a gauge (NaN when it was never set).

    The read-side complement of :func:`counter` — the monitor CLI used
    to re-parse the Prometheus text exposition to show its own gauges;
    this reads them straight from the registry instead.
    """
    return _registry.gauges.get(metric_key(name, labels), float("nan"))


# -- cross-process aggregation -----------------------------------------


def snapshot() -> dict:
    """Picklable copy of this process's metrics and trace events."""
    return {"metrics": _registry.snapshot(), "trace": _tracer.events_copy()}


def merge_snapshot(snap: dict) -> None:
    """Fold a worker's :func:`snapshot` into this process's telemetry."""
    _registry.merge_snapshot(snap.get("metrics", {}))
    _tracer.extend(snap.get("trace", []))


# -- exposition --------------------------------------------------------


def provenance() -> dict:
    """Where/when this telemetry (or benchmark baseline) was recorded."""
    import datetime
    import platform
    import sys

    try:
        sha = (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "host": platform.node() or "unknown",
        "python": sys.version.split()[0],
    }


def dump(directory: str) -> "dict[str, str]":
    """Write ``metrics.prom``, ``metrics.json`` and ``trace.jsonl``.

    Returns the mapping of artifact name to written path.  The JSON
    exposition carries a ``provenance`` stanza (git sha, date, host) so
    a dumped directory is self-describing.
    """
    os.makedirs(directory, exist_ok=True)
    paths = {
        METRICS_PROM: os.path.join(directory, METRICS_PROM),
        METRICS_JSON: os.path.join(directory, METRICS_JSON),
        TRACE_JSONL: os.path.join(directory, TRACE_JSONL),
    }
    with open(paths[METRICS_PROM], "w", encoding="utf-8") as handle:
        handle.write(_registry.to_prometheus())
    with open(paths[METRICS_JSON], "w", encoding="utf-8") as handle:
        json.dump(
            {"provenance": provenance(), **_registry.to_json()},
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    _tracer.write_jsonl(paths[TRACE_JSONL])
    return paths


def __getattr__(name: str):
    # The live layer (windowed aggregation, drift monitoring, the HTTP
    # exposition server) loads lazily so importing ``repro.obs`` stays
    # as cheap as the batch telemetry alone.
    if name in (
        "live", "drift", "fleet", "http", "attribution", "flight",
        "tsdb", "alertmgr",
    ):
        import importlib

        module = importlib.import_module(f"repro.obs.{name}")
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

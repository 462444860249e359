"""Streaming observability: sliding windows and live run monitors.

The PR-2 telemetry is batch-shaped — one registry accumulated over a
run, dumped at the end.  A long-running service built on the estimator
needs the *live* view: what is the power, the model error, the
throughput **right now**?  This module provides the three pieces:

* :class:`WindowedRegistry` — folds successive
  :class:`~repro.obs.metrics.MetricsRegistry` snapshots into
  fixed-width time windows for ``/windows``, the flight recorder and
  the TSDB sink (counters and histogram cells are differenced between
  snapshots, gauges keep their last value per window).  A process has
  one, owned by its endpoint; whoever owns the clock folds into it
  (the ``monitor`` loop once per simulated second, the ``serve``
  service's housekeeping tick), never the monitors below;
* :class:`LiveMonitor` — attaches to a
  :class:`~repro.simulator.system.Server` and, at every counter-sampler
  window boundary inside ``run_ticks``, compares the trickle-down
  estimate against the simulator's ground-truth power, publishes
  ``live_*`` gauges, and feeds the per-subsystem residuals to a
  :class:`~repro.obs.drift.DriftMonitor`;
* :class:`ClusterObserver` — the same loop for
  :class:`~repro.cluster.Cluster` runs: once per second one batched
  counter read of the available nodes (the control-loop-owns-the-
  counters pattern the sampler's ``disable()`` exists for) and one
  batched estimate, summed over nodes.

Fleet lanes are watched by :class:`~repro.obs.fleet.FleetMonitor`.

Everything here is stdlib-only and clocked by the caller (simulation
time), so a fixed-seed run produces identical windows, residuals and
alerts.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass

from repro import obs
from repro.obs.drift import DriftMonitor
from repro.obs.metrics import Histogram, MetricsRegistry, metric_key

#: Default aggregation window width (seconds of the caller's clock).
DEFAULT_WINDOW_S = 5.0

#: Default number of windows retained (with 5 s windows: 10 minutes).
DEFAULT_MAX_WINDOWS = 120

#: Bucket edges for live total-power histograms (Watts).
POWER_BUCKETS = (50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 400.0)


class _Window:
    """One fixed-width window of metric deltas and last gauge values."""

    __slots__ = ("start_s", "end_s", "counters", "gauges", "histograms")

    def __init__(self, start_s: float, end_s: float) -> None:
        self.start_s = start_s
        self.end_s = end_s
        self.counters: "dict[tuple, float]" = {}
        self.gauges: "dict[tuple, float]" = {}
        self.histograms: "dict[tuple, Histogram]" = {}

    def to_dict(self) -> dict:
        def label_str(key) -> str:
            if not key[1]:
                return key[0]
            inner = ",".join(f"{k}={v}" for k, v in key[1])
            return f"{key[0]}{{{inner}}}"

        return {
            "start_s": self.start_s,
            "end_s": self.end_s,
            "counters": {label_str(k): v for k, v in sorted(self.counters.items())},
            "gauges": {label_str(k): v for k, v in sorted(self.gauges.items())},
            "histograms": {
                label_str(k): h.to_dict() for k, h in sorted(self.histograms.items())
            },
        }


class WindowedRegistry:
    """Folds registry snapshots into fixed-width time windows.

    Successive :meth:`ingest` calls difference the cumulative metrics
    (counters, histogram cells) against the previous snapshot and add
    the delta to the window containing ``now_s``; gauges record their
    last value per window.  Windows are aligned to multiples of
    ``window_s`` and at most ``max_windows`` are retained (older ones
    fall off the sliding edge).

    The clock is the **caller's**: the live monitors pass simulation
    time, so windows are deterministic for a fixed seed.  All methods
    are thread-safe — the HTTP exposition thread may read while the
    simulation thread ingests.  Queries over time are the TSDB's job.

    ``on_evict`` is the durable-telemetry hook: when a window falls off
    the sliding edge (a newer one pushed it past ``max_windows``) it is
    handed — whole, exactly as :meth:`to_json` reported it — to the
    callback before being dropped, e.g. a
    :class:`~repro.obs.tsdb.WindowSink` persisting it into a store.
    Short runs may finish before anything evicts; :meth:`drain` hands
    over the remaining windows at end of run.
    """

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        max_windows: int = DEFAULT_MAX_WINDOWS,
        on_evict=None,
    ) -> None:
        if not (window_s > 0 and math.isfinite(window_s)):
            raise ValueError("window_s must be positive and finite")
        if max_windows < 1:
            raise ValueError("max_windows must be >= 1")
        self.window_s = float(window_s)
        self.max_windows = int(max_windows)
        self.on_evict = on_evict
        self._windows: "deque[_Window]" = deque(maxlen=max_windows)
        self._prev_counters: "dict[tuple, float]" = {}
        self._prev_hist: "dict[tuple, tuple]" = {}
        self._lock = threading.RLock()

    # -- ingestion -----------------------------------------------------

    def _window_for(self, now_s: float) -> _Window:
        start = math.floor(now_s / self.window_s) * self.window_s
        if self._windows:
            last = self._windows[-1]
            if start <= last.start_s:
                return last  # same window (or a non-monotonic clock)
        # The deque would drop the oldest window silently; evict it by
        # hand first so the persistence hook sees every window, oldest
        # first, exactly as ``to_json`` reported it.
        if self.on_evict is not None and len(self._windows) == self.max_windows:
            self.on_evict(self._windows.popleft())
        window = _Window(start, start + self.window_s)
        self._windows.append(window)
        return window

    def sink_closed(self, now_s: float) -> int:
        """Hand windows that closed before ``now_s`` to ``on_evict``.

        Unlike eviction/:meth:`drain` the windows stay in the registry
        for ``/windows``, so the hook sees each closed window on **every**
        call — it must be idempotent per window (the TSDB
        :class:`~repro.obs.tsdb.WindowSink` is).  This is the eager
        per-tick persistence path: without it, a window would only
        reach the store once it fell off the sliding edge, up to
        ``max_windows * window_s`` seconds after it closed.
        """
        if self.on_evict is None:
            return 0
        with self._lock:
            closed = [w for w in self._windows if w.end_s <= now_s]
        for window in closed:
            self.on_evict(window)
        return len(closed)

    def drain(self) -> int:
        """Hand every retained window to ``on_evict``, oldest first.

        The end-of-run flush for runs too short to evict naturally
        (returns the number of windows handed over; 0 without a hook).
        Drained windows leave the registry, so calling it twice cannot
        double-persist.
        """
        if self.on_evict is None:
            return 0
        with self._lock:
            drained = list(self._windows)
            self._windows.clear()
        for window in drained:
            self.on_evict(window)
        return len(drained)

    def ingest(self, now_s: float, registry: "MetricsRegistry | dict") -> None:
        """Fold one registry snapshot into the window containing ``now_s``.

        ``registry`` may be a live :class:`MetricsRegistry` (a
        consistent snapshot is taken under its lock) or an
        already-taken :meth:`MetricsRegistry.snapshot` dict.  A metric
        whose cumulative value went *down* since the previous ingest is
        treated as reset and its full current value becomes the delta.
        """
        snap = registry.snapshot() if isinstance(registry, MetricsRegistry) else registry
        with self._lock:
            window = self._window_for(float(now_s))
            for entry in snap.get("counters", ()):
                key = metric_key(entry["name"], entry.get("labels"))
                value = float(entry["value"])
                previous = self._prev_counters.get(key, 0.0)
                if value < previous:
                    previous = 0.0
                self._prev_counters[key] = value
                delta = value - previous
                if delta:
                    window.counters[key] = window.counters.get(key, 0.0) + delta
            for entry in snap.get("gauges", ()):
                key = metric_key(entry["name"], entry.get("labels"))
                window.gauges[key] = float(entry["value"])
            for entry in snap.get("histograms", ()):
                key = metric_key(entry["name"], entry.get("labels"))
                self._ingest_histogram(window, key, entry)

    def _ingest_histogram(self, window: _Window, key: tuple, entry: dict) -> None:
        counts = [int(c) for c in entry["counts"]]
        total = int(entry["count"])
        value_sum = float(entry["sum"])
        buckets = tuple(float(b) for b in entry["buckets"])
        prev = self._prev_hist.get(key)
        if prev is not None and prev[0] == buckets and prev[2] <= total:
            prev_counts, prev_sum, prev_count = prev[1], prev[3], prev[2]
        else:  # first sight, reset, or re-bucketed: whole value is new
            prev_counts, prev_sum, prev_count = [0] * len(counts), 0.0, 0
        self._prev_hist[key] = (buckets, counts, total, value_sum)
        if total == prev_count:
            return
        delta = Histogram(buckets)
        delta.counts = [c - p for c, p in zip(counts, prev_counts)]
        delta.sum = value_sum - prev_sum
        delta.count = total - prev_count
        mine = window.histograms.get(key)
        if mine is None:
            window.histograms[key] = delta
        else:
            mine.merge(delta)

    # -- views ---------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._windows)

    def to_json(self, last: "int | None" = 12) -> dict:
        """JSON-ready view of the last ``last`` windows (newest last)."""
        with self._lock:
            windows = list(self._windows)
            if last is not None:
                windows = windows[-last:]
            return {
                "window_s": self.window_s,
                "max_windows": self.max_windows,
                "n_windows": len(self._windows),
                "windows": [w.to_dict() for w in windows],
            }


# -- live run monitoring ----------------------------------------------


@dataclass(frozen=True)
class LiveSample:
    """One sampler window's live comparison, as rendered by the CLI."""

    timestamp_s: float
    duration_s: float
    true_w: "dict[str, float]"
    estimated_w: "dict[str, float]"
    error_pct: "dict[str, float]"

    @property
    def total_true_w(self) -> float:
        return sum(self.true_w.values())

    @property
    def total_estimated_w(self) -> float:
        return sum(self.estimated_w.values())

    @property
    def total_error_pct(self) -> float:
        true = self.total_true_w
        if true == 0.0:
            return float("nan")
        return abs(self.total_estimated_w - true) / abs(true) * 100.0


class LiveMonitor:
    """Streams estimator-vs-ground-truth residuals out of a Server run.

    Attach to a :class:`~repro.simulator.system.Server` via
    :meth:`~repro.simulator.system.Server.attach_monitor`; every time
    the counter sampler closes a window inside ``run_ticks`` the
    monitor:

    1. estimates per-subsystem power from the window's counter sample
       (through the supplied :class:`SystemPowerEstimator`),
    2. derives the window's true mean power from the energy account,
    3. publishes ``live_power_watts`` / ``live_error_pct`` gauges, and
    4. feeds the residuals to the :class:`DriftMonitor`.

    The monitor only reads simulator state — it never touches RNG
    streams or counters — so an attached run stays bit-identical to an
    unmonitored one.
    """

    def __init__(
        self,
        estimator,
        drift: "DriftMonitor | None" = None,
        flight=None,
    ) -> None:
        self.estimator = estimator
        self.drift = drift if drift is not None else DriftMonitor()
        #: Optional :class:`~repro.obs.flight.FlightRecorder`; when set
        #: every window is recorded as a frame and a *firing* drift
        #: transition dumps a post-mortem bundle.
        self.flight = flight
        self.n_windows = 0
        self.last: "LiveSample | None" = None
        self._last_energy: "dict | None" = None

    def set_suite(self, suite) -> None:
        """Swap the estimator's model suite (e.g. after recalibration)."""
        self.estimator.suite = suite

    def on_attach(self, server) -> None:
        """Prime the energy baseline when the server adopts the monitor."""
        self._last_energy = dict(server.energy._energy_j)

    def on_window(self, server, pulse_s: float) -> "list":
        """Sampler-window callback from ``Server.run_ticks``.

        Returns the drift transitions (usually empty) this window
        produced.
        """
        window = server.sampler.last_window()
        if window is None:
            return []
        _, duration_s, counts = window
        if duration_s <= 0:
            return []
        energy = server.energy._energy_j
        previous = self._last_energy or {s: 0.0 for s in energy}
        true_w = {
            s.value: (energy[s] - previous.get(s, 0.0)) / duration_s for s in energy
        }
        self._last_energy = dict(energy)

        estimate = self.estimator.estimate(
            counts, duration_s=duration_s, timestamp_s=pulse_s
        )
        estimated_w = {s.value: w for s, w in estimate.subsystem_w.items()}
        error_pct = {
            name: abs(estimated_w[name] - true) / max(abs(true), 1.0e-9) * 100.0
            for name, true in true_w.items()
            if name in estimated_w
        }
        sample = LiveSample(
            timestamp_s=float(pulse_s),
            duration_s=float(duration_s),
            true_w=true_w,
            estimated_w=estimated_w,
            error_pct=error_pct,
        )
        self._publish(sample)
        attribution = estimate.attribution
        if attribution is not None:
            # Residual vs. truth (estimated - true): negative is the
            # paper's mcf case — watts the counters cannot see.
            attribution.residual_w = {
                name: estimated_w[name] - true
                for name, true in true_w.items()
                if name in estimated_w
            }
        transitions = self.drift.observe(
            pulse_s, estimated_w, true_w, attribution=attribution
        )
        if self.flight is not None:
            self.flight.record(
                pulse_s,
                attribution=attribution,
                true_w=sample.total_true_w,
                estimated_w=sample.total_estimated_w,
                error_pct=sample.total_error_pct,
            )
            for transition in transitions:
                if transition.state == "firing":
                    self.flight.trigger("drift.alert", detail=transition.to_dict())
        self.n_windows += 1
        self.last = sample
        return transitions

    @staticmethod
    def _publish(sample: LiveSample) -> None:
        for name, watts in sample.true_w.items():
            obs.gauge(
                "live_power_watts", watts, {"subsystem": name, "source": "true"}
            )
        for name, watts in sample.estimated_w.items():
            obs.gauge(
                "live_power_watts", watts, {"subsystem": name, "source": "estimated"}
            )
        for name, pct in sample.error_pct.items():
            obs.gauge("live_error_pct", pct, {"subsystem": name})
        obs.gauge(
            "live_power_watts",
            sample.total_true_w,
            {"subsystem": "total", "source": "true"},
        )
        obs.gauge(
            "live_power_watts",
            sample.total_estimated_w,
            {"subsystem": "total", "source": "estimated"},
        )
        obs.gauge("live_error_pct", sample.total_error_pct, {"subsystem": "total"})
        obs.observe(
            "live_total_power_watts", sample.total_true_w, buckets=POWER_BUCKETS
        )
        obs.inc("live_windows_total")


class ClusterObserver:
    """Per-second live telemetry for a :class:`repro.cluster.Cluster`
    run one second at a time, :meth:`on_second` called after each.

    With a fitted ``suite``, every second reads (and clears) the
    counters of all available nodes in one
    :meth:`~repro.simulator.fleet.FleetServer.read_and_clear_lanes`
    call — the external-control-loop pattern the sampler's
    ``disable()`` exists for.  Nodes that were also available at the
    previous read are compared: one batched
    :meth:`TrickleDownSuite.evaluate` pass (with the per-term
    attribution when ``attribute=True``) estimates them, their true
    per-subsystem watts come from the fleet's energy array, and both
    are summed over nodes in node order into the cluster residuals the
    :class:`DriftMonitor` watches.  A node's first available second
    only primes its energy baseline.  Without a suite the observer
    only counts seconds; the cluster still publishes its own gauges.
    """

    def __init__(
        self,
        suite=None,
        drift: "DriftMonitor | None" = None,
        attribute: bool = False,
        flight=None,
    ) -> None:
        self.suite = suite
        self.attribute = bool(attribute)
        self.flight = flight
        self.drift = drift if drift is not None else DriftMonitor()
        self.n_seconds = 0
        self.last: "LiveSample | None" = None
        #: Per-node energy at its last read, ``(5, n_nodes)``, and which
        #: nodes were read then (available) and so can be compared now.
        self._last_energy = None
        self._was_read = None

    def set_suite(self, suite) -> None:
        """Swap the model suite (e.g. after recalibration)."""
        self.suite = suite

    def on_second(self, cluster, t_s: float) -> "list":
        """Watch the second that ended at ``t_s``; returns transitions."""
        transitions: "list" = []
        if self.suite is not None:
            transitions = self._compare(cluster, t_s)
        self.n_seconds += 1
        return transitions

    def _compare(self, cluster, t_s: float) -> "list":
        """Read, estimate and compare one second of the available nodes."""
        import numpy as np

        from repro.core.events import SUBSYSTEMS
        from repro.core.traces import CounterTrace

        fleet = cluster._fleet
        width = len(cluster.nodes)
        if self._was_read is None or self._was_read.shape != (width,):
            self._last_energy = np.zeros((len(SUBSYSTEMS), width))
            self._was_read = np.zeros(width, dtype=bool)
        available = np.fromiter(
            (node.available for node in cluster.nodes), dtype=bool, count=width
        )
        lanes = np.nonzero(available)[0]
        keep = self._was_read[lanes]  # also read last second: comparable
        self._was_read = available
        if not lanes.size:
            return []
        counts = fleet.read_and_clear_lanes(lanes)
        energy = fleet._energy5[:, lanes]
        previous = self._last_energy[:, lanes[keep]]
        self._last_energy[:, lanes] = energy
        n = int(keep.sum())
        if not n:
            return []
        # Sums over nodes run in node order, each node's truth added as
        # ``(sum + joules) - previous``: a node-by-node loop's rounding.
        true5 = np.zeros(len(SUBSYSTEMS))
        for now_j, prev_j in zip(energy[:, keep].T, previous.T):
            true5 = true5 + now_j - prev_j
        true_w = {s.value: w for s, w in zip(SUBSYSTEMS, true5.tolist())}
        trace = CounterTrace(
            timestamps=np.full(n, float(t_s)),
            durations=np.ones(n),
            counts={event: rows[keep] for event, rows in counts.items()},
        )
        predictions, terms = self.suite.evaluate(trace, attribute=self.attribute)
        estimated_w = {s.value: _node_sum(w) for s, w in predictions.items()}
        sample = LiveSample(
            timestamp_s=float(t_s),
            duration_s=1.0,
            true_w=true_w,
            estimated_w=estimated_w,
            error_pct={
                name: abs(estimated_w[name] - true) / max(abs(true), 1.0e-9) * 100.0
                for name, true in true_w.items()
                if name in estimated_w
            },
        )
        self.last = sample
        obs.gauge("cluster_estimated_power_watts", sample.total_estimated_w)
        obs.gauge("cluster_estimation_error_pct", sample.total_error_pct)
        attribution = None
        if terms is not None:
            from repro.obs.attribution import Attribution

            # Term watts add across nodes: they share one fitted suite.
            attribution = Attribution(
                terms_w={
                    s.value: {name: _node_sum(w) for name, w in sub_terms.items()}
                    for s, sub_terms in terms.items()
                },
                residual_w={
                    name: estimated_w[name] - true
                    for name, true in true_w.items()
                    if name in estimated_w
                },
            )
        transitions = self.drift.observe(
            t_s, estimated_w, true_w, attribution=attribution
        )
        if self.flight is not None:
            self.flight.record(
                t_s,
                attribution=attribution,
                true_w=sample.total_true_w,
                estimated_w=sample.total_estimated_w,
                error_pct=sample.total_error_pct,
                nodes_compared=n,
            )
            for transition in transitions:
                if transition.state == "firing":
                    self.flight.trigger("drift.alert", detail=transition.to_dict())
        return transitions


def _node_sum(column) -> float:
    """Sum of a per-node column, added one node at a time in order."""
    total = 0.0
    for watts in column.tolist():
        total += watts
    return total

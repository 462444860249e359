"""Tests for the live observability layer (PR: streaming drift monitor).

Covers the four tentpole pieces and their satellites: histogram
quantiles (vs numpy), thread-safe metrics/tracing under concurrent
recording and scraping, the windowed delta aggregator, the EWMA drift
monitor's fire/resolve hysteresis and determinism, the
``LiveMonitor``/``ClusterObserver`` integration with the simulator
(including bit-identity of monitored runs), the HTTP exposition server
scraped mid-run, the estimator's bounded history, and the
``repro-power monitor`` CLI end to end.
"""

from __future__ import annotations

import json
import math
import os
import threading
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.estimator import SystemPowerEstimator
from repro.core.events import Subsystem
from repro.obs.drift import DEFAULT_SLO_PCT, DriftMonitor
from repro.obs.fleet import FleetDriftMonitor
from repro.obs.http import ObservabilityServer
from repro.obs.live import LiveMonitor, WindowedRegistry
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracing import Tracer
from repro.simulator.config import fast_config
from repro.simulator.system import Server
from repro.workloads.registry import get_workload
from tests.conftest import TEST_SEED


@pytest.fixture(autouse=True)
def clean_obs():
    """Telemetry is process-global; every test starts and ends clean."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestHistogramQuantile:
    def test_matches_numpy_within_one_bucket_width(self, rng):
        edges = tuple(float(e) for e in range(1, 11))  # width-1 buckets
        values = rng.uniform(0.0, 10.0, size=500)
        hist = Histogram(edges)
        for value in values:
            hist.observe(value)
        for q in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            estimate = hist.quantile(q)
            exact = float(np.percentile(values, q * 100.0))
            assert abs(estimate - exact) <= 1.0 + 1e-9, (q, estimate, exact)

    def test_exact_at_bucket_edges(self):
        hist = Histogram((1.0, 2.0, 3.0, 4.0))
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        # With one observation per bucket, the q = k/4 quantile
        # interpolates exactly onto the k-th edge.
        for k, edge in enumerate((1.0, 2.0, 3.0, 4.0), start=1):
            assert hist.quantile(k / 4.0) == pytest.approx(edge)

    def test_overflow_bucket_clamps_to_last_edge(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(100.0)
        assert hist.quantile(1.0) == 2.0

    def test_empty_is_nan_and_bad_q_rejected(self):
        hist = Histogram((1.0,))
        assert math.isnan(hist.quantile(0.5))
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)


class TestThreadSafety:
    N_THREADS = 8
    N_OPS = 2000

    def test_registry_concurrent_recording_is_lossless(self):
        reg = MetricsRegistry()
        stop_scraping = threading.Event()

        def record():
            for i in range(self.N_OPS):
                reg.inc("hammer_total")
                reg.gauge("hammer_gauge", float(i))
                reg.observe("hammer_seconds", 0.01, buckets=(0.1, 1.0))

        def scrape():
            while not stop_scraping.is_set():
                reg.to_prometheus()
                reg.snapshot()

        scraper = threading.Thread(target=scrape)
        scraper.start()
        workers = [threading.Thread(target=record) for _ in range(self.N_THREADS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stop_scraping.set()
        scraper.join()

        expected = float(self.N_THREADS * self.N_OPS)
        assert reg.counters[("hammer_total", ())] == expected
        assert reg.histograms[("hammer_seconds", ())].count == expected

    def test_registry_survives_pickle(self):
        import pickle

        reg = MetricsRegistry()
        reg.inc("c_total", 2.0)
        reg.observe("h_seconds", 0.5, buckets=(1.0,))
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.snapshot() == reg.snapshot()
        clone.inc("c_total")  # the revived lock still works

    def test_tracer_concurrent_spans_keep_per_thread_nesting(self):
        tracer = Tracer()
        tracer.enabled = True
        n_spans = 50

        def trace(thread_id: int):
            for _ in range(n_spans):
                with tracer.span(f"outer-{thread_id}"):
                    with tracer.span(f"inner-{thread_id}"):
                        pass

        workers = [
            threading.Thread(target=trace, args=(i,)) for i in range(self.N_THREADS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        events = tracer.events_copy()
        assert len(events) == self.N_THREADS * n_spans * 2
        ids = {e["id"] for e in events}
        assert len(ids) == len(events)  # no id ever handed out twice
        for i in range(self.N_THREADS):
            outer_ids = {e["id"] for e in events if e["name"] == f"outer-{i}"}
            inners = [e for e in events if e["name"] == f"inner-{i}"]
            assert len(inners) == n_spans
            # Nesting never crosses threads: every inner span's parent
            # is an outer span of the *same* thread.
            assert all(e["parent"] in outer_ids for e in inners)


class TestEstimatorHistoryBound:
    def _sample(self, run, index=0):
        return {
            event: run.counters.per_cpu(event)[index]
            for event in run.counters.events
        }

    def test_history_is_bounded(self, paper_suite, idle_run):
        estimator = SystemPowerEstimator(paper_suite, max_history=16)
        sample = self._sample(idle_run)
        for _ in range(50):
            estimator.estimate(sample)
        assert estimator.max_history == 16
        assert len(estimator.history) == 16
        # The *newest* estimates are the retained ones.
        times = [e.timestamp_s for e in estimator.history]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(50.0)

    def test_unbounded_opt_in(self, paper_suite, idle_run):
        estimator = SystemPowerEstimator(paper_suite, max_history=None)
        assert estimator.max_history is None
        sample = self._sample(idle_run)
        n = 2 * 4096 // 16  # cheap but > any accidental default bound
        for _ in range(n):
            estimator.estimate(sample)
        assert len(estimator.history) == n

    def test_invalid_bound_rejected(self, paper_suite):
        with pytest.raises(ValueError):
            SystemPowerEstimator(paper_suite, max_history=0)


class TestSuiteScaled:
    def test_predictions_scale_uniformly(self, paper_suite, idle_run):
        scaled = paper_suite.scaled(1.5)
        base = paper_suite.predict_total(idle_run.counters)
        assert np.allclose(scaled.predict_total(idle_run.counters), base * 1.5)
        assert scaled.recipe_name.endswith("*1.5")

    def test_subset_scaling_leaves_others_alone(self, paper_suite, idle_run):
        scaled = paper_suite.scaled(2.0, subsystems=(Subsystem.CPU,))
        assert np.allclose(
            scaled.predict(Subsystem.CPU, idle_run.counters),
            paper_suite.predict(Subsystem.CPU, idle_run.counters) * 2.0,
        )
        assert np.allclose(
            scaled.predict(Subsystem.DISK, idle_run.counters),
            paper_suite.predict(Subsystem.DISK, idle_run.counters),
        )

    def test_non_finite_factor_rejected(self, paper_suite):
        with pytest.raises(ValueError):
            paper_suite.scaled(float("nan"))


def _per_window(windows, kind: str, name: str) -> list:
    """``(start_s, value)`` for each window holding the metric, where
    ``kind`` is "counters", "gauges" or "histograms"."""
    return [
        (window["start_s"], window[kind][name])
        for window in windows.to_json(last=None)["windows"]
        if name in window[kind]
    ]


def _merged(windows, name: str) -> Histogram:
    """One histogram of every window's delta of ``name``."""
    merged = None
    for _, cells in _per_window(windows, "histograms", name):
        delta = Histogram.from_dict(cells)
        if merged is None:
            merged = delta
        else:
            merged.merge(delta)
    return merged


class TestWindowedRegistry:
    def _registry_at(self, counter: float, gauge: float) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.inc("ticks_total", counter)
        reg.gauge("power_watts", gauge)
        return reg

    def test_counter_deltas(self):
        windows = WindowedRegistry(window_s=5.0)
        reg = MetricsRegistry()
        for t, total in ((1.0, 10.0), (6.0, 30.0), (11.0, 60.0)):
            reg.reset()
            reg.inc("ticks_total", total)
            windows.ingest(t, reg)
        assert len(windows) == 3
        assert _per_window(windows, "counters", "ticks_total") == [
            (0.0, 10.0), (5.0, 20.0), (10.0, 30.0),
        ]

    def test_counter_reset_counts_full_value(self):
        windows = WindowedRegistry(window_s=1.0)
        windows.ingest(0.5, self._registry_at(100.0, 0.0))
        # The process restarted: the cumulative value went *down*.
        windows.ingest(1.5, self._registry_at(40.0, 0.0))
        assert _per_window(windows, "counters", "ticks_total") == [
            (0.0, 100.0), (1.0, 40.0),
        ]

    def test_gauges_last_write_and_latest(self):
        windows = WindowedRegistry(window_s=10.0)
        windows.ingest(1.0, self._registry_at(0.0, 100.0))
        windows.ingest(2.0, self._registry_at(0.0, 150.0))  # same window
        windows.ingest(12.0, self._registry_at(0.0, 120.0))
        # Each window keeps its last write; the newest holds the latest.
        assert _per_window(windows, "gauges", "power_watts") == [
            (0.0, 150.0), (10.0, 120.0),
        ]

    def test_histogram_deltas_merge_and_quantile(self):
        windows = WindowedRegistry(window_s=5.0)
        reg = MetricsRegistry()
        reg.observe("latency", 0.5, buckets=(1.0, 2.0))
        windows.ingest(1.0, reg)
        reg.observe("latency", 1.5, buckets=(1.0, 2.0))
        reg.observe("latency", 1.5, buckets=(1.0, 2.0))
        windows.ingest(6.0, reg)
        # First window got 1 observation, second the 2 new ones only.
        (first_start, first), (second_start, second) = _per_window(
            windows, "histograms", "latency"
        )
        assert (first_start, first["count"], first["sum"]) == (0.0, 1, 0.5)
        assert (second_start, second["count"], second["sum"]) == (5.0, 2, 3.0)
        assert first["counts"] == [1, 0, 0] and second["counts"] == [0, 2, 0]
        assert 1.0 <= _merged(windows, "latency").quantile(0.9) <= 2.0

    def test_sliding_edge_drops_oldest(self):
        windows = WindowedRegistry(window_s=1.0, max_windows=3)
        reg = MetricsRegistry()
        for t in range(6):
            reg.reset()
            reg.gauge("power_watts", float(t))
            windows.ingest(float(t) + 0.5, reg)
        assert len(windows) == 3
        assert [
            start for start, _ in _per_window(windows, "gauges", "power_watts")
        ] == [3.0, 4.0, 5.0]

    def test_to_json_shape(self):
        windows = WindowedRegistry(window_s=2.0)
        windows.ingest(1.0, self._registry_at(5.0, 42.0))
        document = windows.to_json()
        json.dumps(document)  # must be serialisable as-is
        assert document["window_s"] == 2.0
        assert document["n_windows"] == 1
        window = document["windows"][0]
        assert window["counters"] == {"ticks_total": 5.0}
        assert window["gauges"] == {"power_watts": 42.0}

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            WindowedRegistry(window_s=0.0)
        with pytest.raises(ValueError):
            WindowedRegistry(max_windows=0)

    @pytest.mark.parametrize("window_s", [math.nan, math.inf])
    def test_non_finite_window_rejected(self, window_s):
        """NaN passed the old ``window_s <= 0`` check and every window
        then started at NaN; an infinite width does the same."""
        with pytest.raises(ValueError):
            WindowedRegistry(window_s=window_s)


class TestWindowedRegistryEdgeCases:
    """Corner cases of windowed aggregation."""

    def test_single_sample_window(self):
        windows = WindowedRegistry(window_s=1.0)
        reg = MetricsRegistry()
        reg.observe("latency", 1.5, buckets=(1.0, 2.0))
        windows.ingest(0.5, reg)
        ((start, cells),) = _per_window(windows, "histograms", "latency")
        assert start == 0.0
        assert cells == {
            "buckets": [1.0, 2.0], "counts": [0, 1, 0], "sum": 1.5, "count": 1,
        }

    def test_counter_reset_mid_window(self):
        windows = WindowedRegistry(window_s=10.0)
        reg = MetricsRegistry()
        reg.inc("ticks_total", 100.0)
        windows.ingest(1.0, reg)
        # The process restarted *inside* the same window: cumulative
        # went down, so the full restarted value joins the earlier
        # delta instead of producing a negative one.
        reg.reset()
        reg.inc("ticks_total", 40.0)
        windows.ingest(2.0, reg)
        assert _per_window(windows, "counters", "ticks_total") == [(0.0, 140.0)]

    def test_histogram_reset_mid_window_counts_new_observations(self):
        windows = WindowedRegistry(window_s=10.0)
        reg = MetricsRegistry()
        reg.observe("latency", 0.5, buckets=(1.0, 2.0))
        reg.observe("latency", 0.5, buckets=(1.0, 2.0))
        windows.ingest(1.0, reg)
        # Restarted mid-window: the cumulative count went 2 -> 1, so
        # the whole restarted histogram is new data.
        reg.reset()
        reg.observe("latency", 1.5, buckets=(1.0, 2.0))
        windows.ingest(2.0, reg)
        ((_, cells),) = _per_window(windows, "histograms", "latency")
        assert (cells["count"], cells["sum"]) == (3, 0.5 + 0.5 + 1.5)
        assert cells["counts"] == [2, 1, 0]

    def test_quantile_at_edges_under_merged_registries(self):
        # One observation per bucket, split across two worker
        # registries whose snapshots land in different windows; the
        # cross-window merged quantile must interpolate exactly onto
        # the bucket edges, same as one histogram holding all four.
        edges = (1.0, 2.0, 3.0, 4.0)
        windows = WindowedRegistry(window_s=5.0)
        worker_a = MetricsRegistry()
        worker_a.observe("latency", 1.0, buckets=edges)
        worker_a.observe("latency", 2.0, buckets=edges)
        windows.ingest(1.0, worker_a)
        worker_b = MetricsRegistry()
        worker_b.observe("latency", 3.0, buckets=edges)
        worker_b.observe("latency", 4.0, buckets=edges)
        # The second snapshot arrives merged on top of the first
        # worker's counts (the parent folds snapshots cumulatively).
        worker_a.merge(worker_b)
        windows.ingest(6.0, worker_a)
        reference = Histogram(edges)
        for value in (1.0, 2.0, 3.0, 4.0):
            reference.observe(value)
        merged = _merged(windows, "latency")
        assert merged.to_dict() == reference.to_dict()
        for k, edge in enumerate(edges, start=1):
            assert merged.quantile(k / 4.0) == pytest.approx(edge)


class TestWindowEviction:
    """The on_evict persistence hook (feeds the durable TSDB sink)."""

    def test_evicted_window_identical_to_pre_eviction_series(self):
        evicted = []
        windows = WindowedRegistry(
            window_s=1.0, max_windows=2, on_evict=evicted.append
        )
        reg = MetricsRegistry()
        for t in range(2):
            reg.reset()
            reg.inc("ticks_total", 10.0 * (t + 1))
            reg.gauge("power_watts", 100.0 + t)
            windows.ingest(float(t) + 0.5, reg)
        # What to_json() reports for the window about to fall off.
        before = {
            "counters": _per_window(windows, "counters", "ticks_total")[0],
            "gauges": _per_window(windows, "gauges", "power_watts")[0],
        }
        reg.reset()
        reg.inc("ticks_total", 30.0)
        reg.gauge("power_watts", 102.0)
        windows.ingest(2.5, reg)  # forces the first window out
        assert len(evicted) == 1
        window = evicted[0]
        assert (window.start_s, next(iter(window.counters.values()))) == (
            before["counters"][0],
            before["counters"][1],
        )
        assert (window.start_s, next(iter(window.gauges.values()))) == (
            before["gauges"][0],
            before["gauges"][1],
        )
        # The hook saw the dropped window; the registry kept the rest.
        assert [
            s for s, _ in _per_window(windows, "gauges", "power_watts")
        ] == [1.0, 2.0]

    def test_max_windows_one_with_backwards_clock_evicts_in_order(self):
        evicted = []
        windows = WindowedRegistry(
            window_s=1.0, max_windows=1, on_evict=evicted.append
        )
        reg = MetricsRegistry()
        # Timestamps jitter backwards mid-stream; the registry folds
        # non-monotonic ticks into the current window rather than
        # resurrecting an evicted one, so eviction stays ordered.
        for t, gauge in ((0.5, 1.0), (1.5, 2.0), (1.2, 3.0), (2.5, 4.0)):
            reg.reset()
            reg.gauge("power_watts", gauge)
            windows.ingest(t, reg)
        drained = windows.drain()
        assert drained == 1
        starts = [window.start_s for window in evicted]
        assert starts == sorted(starts) == [0.0, 1.0, 2.0]
        # The backwards tick (1.2) landed in the 1s window, last write
        # wins for gauges.
        assert next(iter(evicted[1].gauges.values())) == 3.0

    def test_drain_is_idempotent(self):
        evicted = []
        windows = WindowedRegistry(window_s=1.0, on_evict=evicted.append)
        reg = MetricsRegistry()
        reg.gauge("power_watts", 1.0)
        windows.ingest(0.5, reg)
        assert windows.drain() == 1
        assert windows.drain() == 0
        assert len(evicted) == 1
        assert len(windows) == 0


class TestDriftMonitor:
    WATTS = {"cpu": 100.0}

    def _feed(self, monitor, error_pct, n, t0=0.0):
        """n windows with a constant relative error; returns transitions."""
        out = []
        estimated = {"cpu": 100.0 * (1.0 + error_pct / 100.0)}
        for i in range(n):
            out += monitor.observe(t0 + i + 1.0, estimated, self.WATTS)
        return out

    def test_healthy_stream_never_fires(self):
        monitor = DriftMonitor()
        assert self._feed(monitor, 4.0, 20) == []
        assert monitor.firing == ()
        assert monitor.error_pct("cpu") == pytest.approx(4.0)

    def test_fires_only_after_min_windows(self):
        monitor = DriftMonitor(min_windows=3)
        transitions = self._feed(monitor, 50.0, 3)
        assert [t.state for t in transitions] == ["firing", "firing"]
        assert {t.subsystem for t in transitions} == {"cpu", "total"}
        assert transitions[0].timestamp_s == 3.0
        assert transitions[0].threshold_pct == DEFAULT_SLO_PCT

    def test_resolves_with_hysteresis(self):
        monitor = DriftMonitor(slo_pct=10.0, alpha=1.0, resolve_ratio=0.8)
        self._feed(monitor, 50.0, 3)
        assert "cpu" in monitor.firing
        # Above resolve threshold (8 %) but below the SLO: still firing.
        assert self._feed(monitor, 9.0, 5, t0=10.0) == []
        assert "cpu" in monitor.firing
        transitions = self._feed(monitor, 1.0, 1, t0=20.0)
        assert {t.subsystem for t in transitions} == {"cpu", "total"}
        assert all(t.state == "resolved" for t in transitions)
        assert monitor.firing == ()

    def test_deterministic_replay(self, rng):
        errors = rng.uniform(0.0, 30.0, size=60)

        def run():
            monitor = DriftMonitor()
            history = []
            for i, err in enumerate(errors):
                est = {"cpu": 100.0 + err, "disk": 20.0}
                true = {"cpu": 100.0, "disk": 20.0}
                monitor.observe(float(i), est, true)
            return [a.to_dict() for a in monitor.history()]

        assert run() == run()

    def test_enum_keys_normalised(self):
        monitor = DriftMonitor()
        monitor.observe(1.0, {Subsystem.CPU: 110.0}, {"cpu": 100.0})
        assert monitor.error_pct(Subsystem.CPU) == pytest.approx(10.0)
        assert monitor.error_pct("total") == pytest.approx(10.0)

    def test_alert_events_and_metrics_emitted(self):
        obs.enable()
        monitor = DriftMonitor(min_windows=1)
        monitor.observe(1.0, {"cpu": 200.0}, {"cpu": 100.0})
        events = [e for e in obs.tracer().events if e["name"] == "drift.alert"]
        assert len(events) == 2  # cpu + total
        attrs = events[0]["attrs"]
        assert attrs["state"] == "firing"
        assert attrs["sim_time_s"] == 1.0
        counters = obs.registry().counters
        assert (
            counters[("drift_alerts_total", (("state", "firing"), ("subsystem", "cpu")))]
            == 1.0
        )

    def test_to_json_document(self):
        monitor = DriftMonitor(min_windows=1)
        self._feed(monitor, 50.0, 2)
        document = monitor.to_json()
        json.dumps(document)
        assert document["slo_pct"] == DEFAULT_SLO_PCT
        assert set(document["firing"]) == {"cpu", "total"}
        assert document["streams"]["cpu"]["firing"] is True
        assert document["history"][0]["state"] == "firing"

    def test_invalid_parameters_rejected(self):
        for kwargs in (
            {"slo_pct": 0.0},
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"min_windows": 0},
            {"resolve_ratio": 0.0},
        ):
            with pytest.raises(ValueError):
                DriftMonitor(**kwargs)

    @pytest.mark.parametrize("slo_pct", [math.nan, math.inf])
    def test_non_finite_slo_rejected(self, slo_pct):
        """A NaN SLO passed the old ``slo_pct <= 0`` check, and no
        error compares above NaN or inf, so alerting was silently off."""
        with pytest.raises(ValueError):
            DriftMonitor(slo_pct=slo_pct)


def _drift_telemetry() -> dict:
    """The drift gauges, counters and trace events recorded so far."""
    registry = obs.registry()
    return {
        "gauges": {
            k: v for k, v in registry.gauges.items() if k[0].startswith("drift_")
        },
        "counters": {
            k: v for k, v in registry.counters.items() if k[0].startswith("drift_")
        },
        "events": [
            (e["name"], e["attrs"])
            for e in obs.tracer().events
            if e["name"] == "drift.alert"
        ],
    }


@st.composite
def _drift_streams(draw):
    """Monitor settings, a run of windows and a split of it into frames."""
    names = draw(
        st.lists(
            st.sampled_from(["cpu", "chipset", "memory", "io", "disk"]),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    n = draw(st.integers(1, 48))
    true_w = {
        name: draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.1, 500.0)),
                min_size=n,
                max_size=n,
            )
        )
        for name in names
    }
    # Runs of small and large relative errors, so streams fire and
    # resolve inside one frame.
    ratios = st.sampled_from([1.0, 1.01, 1.05, 0.97, 1.2, 1.6, 0.5])
    estimated_w = {
        name: [w * draw(ratios) for w in column]
        for name, column in true_w.items()
    }
    # A subsystem only one side reports is ignored by both forms.
    estimated_w["fan"] = [1.0] * n
    steps = draw(st.lists(st.floats(0.01, 5.0), min_size=n, max_size=n))
    times = np.cumsum(steps).tolist()
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4))) if n > 1 else []
    settings_ = {
        "alpha": draw(st.sampled_from([0.25, 0.5, 1.0, 0.1])),
        "min_windows": draw(st.integers(1, 4)),
        "resolve_ratio": draw(st.sampled_from([0.8, 0.5, 1.0])),
        "slo_pct": draw(st.sampled_from([9.0, 15.0, 30.0])),
    }
    return settings_, times, estimated_w, true_w, [0, *cuts, n]


class TestDriftMonitorFrames:
    """One column-form ``observe`` over n windows is n single-window
    calls: the same state, transitions, history and final gauges."""

    @given(case=_drift_streams())
    @settings(max_examples=80, deadline=None)
    def test_frame_equals_single_windows(self, case):
        config, times, estimated_w, true_w, bounds = case
        obs.enable()

        obs.reset()
        single = DriftMonitor(**config)
        single_out = []
        for lo, hi in zip(bounds, bounds[1:]):
            frame_out = []
            for i in range(lo, hi):
                frame_out += single.observe(
                    times[i],
                    {k: v[i] for k, v in estimated_w.items()},
                    {k: v[i] for k, v in true_w.items()},
                )
            single_out.append(frame_out)
        single_telemetry = _drift_telemetry()

        obs.reset()
        framed = DriftMonitor(**config)
        framed_out = [
            framed.observe(
                times[lo:hi],
                # estimates as numpy columns, truth as lists: both forms
                # the service passes
                {k: np.asarray(v[lo:hi]) for k, v in estimated_w.items()},
                {k: v[lo:hi] for k, v in true_w.items()},
            )
            for lo, hi in zip(bounds, bounds[1:])
        ]

        assert framed_out == single_out
        assert framed.history() == single.history()
        assert framed.to_json() == single.to_json()
        assert _drift_telemetry() == single_telemetry

        # Both forms share one code path; the lane engine is a separate
        # implementation of the same arithmetic and must agree too.
        lane = FleetDriftMonitor(1, **config)
        for i, t in enumerate(times):
            lane.observe(
                t,
                {k: [v[i]] for k, v in estimated_w.items()},
                {k: [v[i]] for k, v in true_w.items()},
            )
        assert lane.lane_state(0) == framed.to_json()["streams"]

    def test_one_frame_fires_and_resolves(self):
        true_w = {"cpu": [100.0] * 12}
        estimated_w = {"cpu": [100.0] * 3 + [150.0] * 4 + [100.0] * 5}
        times = [float(i) for i in range(12)]
        framed = DriftMonitor(alpha=1.0, min_windows=1)
        transitions = framed.observe(times, estimated_w, true_w)
        single = DriftMonitor(alpha=1.0, min_windows=1)
        expected = []
        for i, t in enumerate(times):
            expected += single.observe(
                t, {"cpu": estimated_w["cpu"][i]}, {"cpu": true_w["cpu"][i]}
            )
        assert [(a.subsystem, a.state, a.timestamp_s) for a in transitions] == [
            ("cpu", "firing", 3.0),
            ("total", "firing", 3.0),
            ("cpu", "resolved", 7.0),
            ("total", "resolved", 7.0),
        ]
        assert transitions == expected
        assert framed.to_json() == single.to_json()

    def test_frame_shape_errors(self):
        monitor = DriftMonitor()
        with pytest.raises(ValueError, match="shape"):
            monitor.observe([1.0, 2.0], {"cpu": [1.0]}, {"cpu": [1.0, 1.0]})
        with pytest.raises(ValueError, match="1-d"):
            monitor.observe([[1.0]], {"cpu": [[1.0]]}, {"cpu": [[1.0]]})
        with pytest.raises(ValueError, match="one window"):
            monitor.observe(
                [1.0], {"cpu": [1.0]}, {"cpu": [1.0]}, attribution=object()
            )
        assert monitor.observe([], {"cpu": []}, {"cpu": []}) == []
        assert monitor.to_json()["streams"] == {}


DURATION_TICKS = 2000  # 20 s at the fast config's 10 ms tick


def _monitored_server(suite, workload="gcc", **monitor_kwargs):
    server = Server(fast_config(), get_workload(workload), seed=TEST_SEED)
    monitor = LiveMonitor(SystemPowerEstimator(suite), **monitor_kwargs)
    server.attach_monitor(monitor)
    return server, monitor


def _run_folding(server, ticks: int, windows) -> None:
    """Run ``ticks`` one simulated second at a time and fold the process
    registry into ``windows`` after each, as ``repro-power monitor``'s
    loop folds its endpoint's windows."""
    per_s = int(round(1.0 / server.config.tick_s))
    for _ in range(ticks // per_s):
        server.run_ticks(per_s)
        windows.ingest(server.now_s, obs.registry())


class TestLiveMonitorIntegration:
    def test_monitored_run_is_bit_identical(self, paper_suite):
        plain = Server(fast_config(), get_workload("gcc"), seed=TEST_SEED)
        plain.run_ticks(DURATION_TICKS)
        monitored, monitor = _monitored_server(paper_suite)
        monitored.run_ticks(DURATION_TICKS)
        assert monitor.n_windows > 10  # the monitor actually ran
        assert monitored.now_s == plain.now_s
        assert monitored.energy._energy_j == plain.energy._energy_j
        assert monitored.sampler.n_samples == plain.sampler.n_samples

    def test_live_samples_track_ground_truth(self, paper_suite):
        obs.enable()
        server, monitor = _monitored_server(paper_suite)
        endpoint = ObservabilityServer(
            drift=monitor.drift, windows=WindowedRegistry()
        )
        _run_folding(server, DURATION_TICKS, endpoint.windows)
        sample = monitor.last
        assert sample is not None
        assert set(sample.true_w) == {s.value for s in Subsystem}
        # Estimating the machine the suite was fitted on: errors stay
        # well inside the paper's 9 % bound, so nothing fires.
        assert sample.total_error_pct < DEFAULT_SLO_PCT
        assert monitor.drift.firing == ()
        gauges = obs.registry().gauges
        key = ("live_power_watts", (("source", "true"), ("subsystem", "total")))
        assert gauges[key] == pytest.approx(sample.total_true_w)
        totals = _per_window(
            endpoint.windows, "gauges",
            "live_power_watts{source=true,subsystem=total}",
        )
        assert len(totals) == 5  # 20 s in 5 s windows, the last one open
        assert totals[-1][1] == gauges[key]

    def test_miscalibration_fires_then_restore_resolves(self, paper_suite):
        obs.enable()
        server, monitor = _monitored_server(paper_suite.scaled(1.5))
        server.run_ticks(DURATION_TICKS // 2)
        assert "total" in monitor.drift.firing
        monitor.set_suite(paper_suite)
        server.run_ticks(2 * DURATION_TICKS)
        assert monitor.drift.firing == ()
        states = [a.state for a in monitor.drift.history()]
        assert "firing" in states and "resolved" in states
        trace_states = [
            e["attrs"]["state"]
            for e in obs.tracer().events
            if e["name"] == "drift.alert"
        ]
        assert trace_states.count("firing") == trace_states.count("resolved")


def _fetch(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.read().decode("utf-8")


class TestObservabilityHTTP:
    def test_routes_and_lifecycle(self):
        drift = DriftMonitor(min_windows=1)
        drift.observe(1.0, {"cpu": 200.0}, {"cpu": 100.0})
        windows = WindowedRegistry(window_s=1.0)
        registry = MetricsRegistry()
        registry.inc("requests_total", 3.0)
        with ObservabilityServer(
            registry=registry, drift=drift, windows=windows
        ) as endpoint:
            assert endpoint.running and endpoint.port != 0
            assert "requests_total 3" in _fetch(endpoint.url("/metrics"))
            metrics = json.loads(_fetch(endpoint.url("/metrics.json")))
            assert metrics["counters"][0]["name"] == "requests_total"
            alerts = json.loads(_fetch(endpoint.url("/alerts")))
            # /alerts carries the drift monitor's state and the alert
            # manager's view of it, with or without a store.
            assert set(alerts["drift"]["firing"]) == {"cpu", "total"}
            assert set(alerts) == {"drift", "alerts"}
            firing = alerts["alerts"]["firing"]
            assert firing == [
                "drift:drift_slo_breach{subsystem=cpu}",
                "drift:drift_slo_breach{subsystem=total}",
            ]
            # The attached drift monitor is firing, so health is a 503
            # naming the same alerts, each with its firing transition.
            with pytest.raises(urllib.error.HTTPError) as err:
                _fetch(endpoint.url("/healthz"))
            assert err.value.code == 503
            health = json.loads(err.value.read().decode("utf-8"))
            assert health["status"] == "drifting"
            assert health["firing"] == firing
            assert [a["detail"]["subsystem"] for a in health["alerts"]] == [
                "cpu", "total"
            ]
            assert all(a["detail"]["state"] == "firing" for a in health["alerts"])
            assert "windows" in json.loads(_fetch(endpoint.url("/windows")))
            with pytest.raises(urllib.error.HTTPError) as err:
                _fetch(endpoint.url("/no-such-route"))
            assert err.value.code == 404
        assert not endpoint.running
        endpoint.stop()  # idempotent

    def test_healthz_ok_while_drift_is_healthy(self):
        drift = DriftMonitor(min_windows=1)
        drift.observe(1.0, {"cpu": 104.0}, {"cpu": 100.0})  # 4 % < SLO
        with ObservabilityServer(drift=drift) as endpoint:
            health = json.loads(_fetch(endpoint.url("/healthz")))
            assert health["status"] == "ok"
            assert set(health["routes"]) == set(ObservabilityServer.ROUTES)
            assert health["firing"] == [] and health["alerts"] == []

    def test_attribution_and_flightrecorder_routes(self, tmp_path):
        from repro.obs.attribution import Attribution
        from repro.obs.flight import BUNDLE_JSON, FlightRecorder

        recorder = FlightRecorder(out_dir=str(tmp_path))
        recorder.record(
            1.0,
            attribution=Attribution(
                terms_w={"cpu": {"intercept": 35.0, "fetched_uops_per_cycle": 6.0}}
            ),
            true_w=45.0,
        )
        with ObservabilityServer(flight=recorder) as endpoint:
            doc = json.loads(_fetch(endpoint.url("/attribution")))
            assert doc["attribution"]["terms_w"]["cpu"]["intercept"] == 35.0
            status = json.loads(_fetch(endpoint.url("/flightrecorder")))
            assert status["enabled"] is True
            assert status["n_frames"] == 1 and status["bundles"] == []
            dumped = json.loads(_fetch(endpoint.url("/flightrecorder?dump=1")))
            assert dumped["dumped"] is not None
            assert os.path.isfile(os.path.join(dumped["dumped"], BUNDLE_JSON))

    def test_attribution_and_flightrecorder_routes_without_recorder(self):
        with ObservabilityServer() as endpoint:
            doc = json.loads(_fetch(endpoint.url("/flightrecorder")))
            assert doc == {"enabled": False, "bundles": []}
            assert json.loads(_fetch(endpoint.url("/attribution"))) == {
                "attribution": None
            }

    def test_scrape_while_run_progresses(self, paper_suite):
        obs.enable()
        server, monitor = _monitored_server(paper_suite)
        with ObservabilityServer(
            drift=monitor.drift, windows=WindowedRegistry(window_s=1.0)
        ) as endpoint:
            _run_folding(server, DURATION_TICKS // 4, endpoint.windows)
            first = _fetch(endpoint.url("/metrics"))
            assert 'live_power_watts{source="true",subsystem="total"}' in first
            before = json.loads(_fetch(endpoint.url("/windows")))["n_windows"]
            assert before > 0
            _run_folding(server, DURATION_TICKS // 4, endpoint.windows)
            second = _fetch(endpoint.url("/metrics"))
            assert "live_power_watts" in second
            after = json.loads(_fetch(endpoint.url("/windows")))["n_windows"]
            assert after > before
            ticks = json.loads(_fetch(endpoint.url("/metrics.json")))
            names = {entry["name"] for entry in ticks["counters"]}
            assert "live_windows_total" in names


def _run_observed(cluster, demand, manager, observer, start_s=0.0, windows=None):
    """Run ``demand`` one second at a time and call the observer after
    each second, then fold the registry into ``windows`` if given, as
    ``repro-power monitor --nodes`` does."""
    for t, threads in enumerate(demand):
        cluster.run([threads], manager)
        observer.on_second(cluster, start_s + float(t + 1))
        if windows is not None:
            windows.ingest(start_s + float(t + 1), obs.registry())


class TestClusterTelemetry:
    def _cluster(self, n_nodes=2):
        from repro.cluster import Cluster

        return Cluster(n_nodes=n_nodes, config=fast_config(), seed=TEST_SEED)

    def test_manager_decisions_land_in_trace(self):
        from repro.cluster import PowerAwareManager

        obs.enable()
        cluster = self._cluster(3)
        manager = PowerAwareManager(headroom_threads=2)
        demand = [2] * 5 + [20] * 5
        cluster.run(demand, manager)
        names = [e["name"] for e in obs.tracer().events]
        assert "cluster.placement" in names
        assert "cluster.power_down" in names
        assert "cluster.power_up" in names
        placements = [
            e["attrs"]
            for e in obs.tracer().events
            if e["name"] == "cluster.placement"
        ]
        assert placements[0]["previous"] is None
        assert placements[-1]["nodes_needed"] > placements[0]["nodes_needed"]

    def test_node_power_gauges_match_cluster_trace(self):
        from repro.cluster import StaticManager

        obs.enable()
        cluster = self._cluster(2)
        trace = cluster.run([4] * 10, StaticManager())
        gauges = obs.registry().gauges
        for node_id in range(2):
            labels = (("node", str(node_id)),)
            assert gauges[("cluster_node_power_watts", labels)] == pytest.approx(
                trace.node_power_w[node_id][-1]
            )
            assert gauges[("cluster_node_energy_joules", labels)] == pytest.approx(
                trace.node_energy_j(node_id), rel=1e-9
            )
        assert gauges[("cluster_power_watts", ())] == pytest.approx(
            trace.power_w[-1]
        )

    def test_node_energy_gauge_spans_sliced_runs(self):
        """A run fed one second per call (as ``monitor --nodes`` does)
        publishes the same node energy as one call over the whole
        trace; the per-call accumulator used to reset, so the sliced
        "energy" was the last second's power."""
        from repro.cluster import Cluster, StaticManager

        def node_energy(slices):
            obs.reset()
            obs.enable()
            cluster = Cluster(n_nodes=2, config=fast_config(), seed=11)
            for demand in slices:
                cluster.run(demand, StaticManager())
            gauges = obs.registry().gauges
            return [
                gauges[("cluster_node_energy_joules", (("node", str(node)),))]
                for node in range(2)
            ]

        whole = node_energy([[4] * 6])
        assert node_energy([[4]] * 6) == whole
        assert whole[0] > 1000.0

    def test_observer_drift_fires_then_resolves(self, paper_suite):
        from repro.cluster import StaticManager
        from repro.obs.live import ClusterObserver

        cluster = self._cluster(2)
        manager = StaticManager()
        observer = ClusterObserver(suite=paper_suite.scaled(1.5))
        _run_observed(cluster, [6] * 8, manager, observer)
        assert "total" in observer.drift.firing
        observer.set_suite(paper_suite)
        _run_observed(cluster, [6] * 22, manager, observer, start_s=8.0)
        assert observer.drift.firing == ()
        history = observer.drift.history()
        fired = [a for a in history if a.state == "firing"]
        resolved = [a for a in history if a.state == "resolved"]
        assert fired and resolved
        # start_s keeps the observer's clock monotonic across slices.
        assert all(a.timestamp_s > 8.0 for a in resolved)
        assert observer.n_seconds == 30

    def test_observer_without_suite_still_windows(self):
        from repro.cluster import StaticManager
        from repro.obs.live import ClusterObserver

        obs.enable()
        cluster = self._cluster(2)
        observer = ClusterObserver()
        endpoint = ObservabilityServer(windows=WindowedRegistry(window_s=2.0))
        _run_observed(
            cluster, [4] * 6, StaticManager(), observer, windows=endpoint.windows
        )
        assert observer.suite is None
        assert observer.n_seconds == 6
        document = json.loads(endpoint.payload("/windows")[2])
        assert document["n_windows"] == 4  # t = 1..6 s in 2 s windows
        gauges = _per_window(endpoint.windows, "gauges", "cluster_power_watts")
        assert len(gauges) == 4 and gauges[-1][1] > 0.0


class _RecordingDrift(DriftMonitor):
    """A drift monitor that also keeps every window it was fed."""

    def __init__(self) -> None:
        super().__init__()
        self.fed: "list[tuple]" = []

    def observe(self, timestamp_s, estimated_w, true_w, attribution=None):
        self.fed.append(
            (timestamp_s, dict(estimated_w), dict(true_w), attribution)
        )
        return super().observe(
            timestamp_s, estimated_w, true_w, attribution=attribution
        )


class _PerNodeReference:
    """Reference cluster observer: one estimator call per node.

    Each second, every available node's counters are read on their own
    and estimated by a ``SystemPowerEstimator(attribute=True)``; a
    node's first available second only primes its energy baseline.
    Watts and attribution terms add over the compared nodes in node
    order, truth as ``(sum + joules) - previous`` per node.
    """

    def __init__(self, suite) -> None:
        self.estimator = SystemPowerEstimator(suite, attribute=True)
        self.previous: "dict[int, dict]" = {}
        self.seconds: "list[tuple]" = []

    def set_suite(self, suite) -> None:
        self.estimator.suite = suite

    def on_second(self, cluster, t_s):
        fleet = cluster._fleet
        true_w: "dict[str, float]" = {}
        estimated_w: "dict[str, float]" = {}
        terms_w: "dict[str, dict[str, float]]" = {}
        for lane, node in enumerate(cluster.nodes):
            if not node.available:
                self.previous.pop(lane, None)
                continue
            energy = fleet.lane(lane).energy._energy_j
            counts = {
                event: values[0]
                for event, values in fleet.read_and_clear_lanes([lane]).items()
            }
            previous = self.previous.get(lane)
            self.previous[lane] = energy
            if previous is None:
                continue
            estimate = self.estimator.estimate(
                counts, duration_s=1.0, timestamp_s=t_s
            )
            for subsystem, watts in estimate.subsystem_w.items():
                name = subsystem.value
                estimated_w[name] = estimated_w.get(name, 0.0) + watts
            for subsystem, joules in energy.items():
                name = subsystem.value
                true_w[name] = true_w.get(name, 0.0) + joules - previous[subsystem]
            for name, terms in estimate.attribution.terms_w.items():
                acc = terms_w.setdefault(name, {})
                for term, watts in terms.items():
                    acc[term] = acc.get(term, 0.0) + watts
        if true_w:
            self.seconds.append((t_s, true_w, estimated_w, terms_w))


class TestClusterObserverReference:
    """``ClusterObserver`` against a per-node estimator, bit for bit."""

    DEMAND = [2] * 4 + [14] * 8 + [3] * 8 + [12] * 6

    def _run(self, observer, suite):
        """Half the demand under ``observer``'s suite, half under ``suite``."""
        from repro.cluster import Cluster, PowerAwareManager

        cluster = Cluster(n_nodes=3, config=fast_config(), seed=TEST_SEED)
        manager = PowerAwareManager(headroom_threads=2)
        half = len(self.DEMAND) // 2
        _run_observed(cluster, self.DEMAND[:half], manager, observer)
        observer.set_suite(suite)
        _run_observed(
            cluster, self.DEMAND[half:], manager, observer, start_s=float(half)
        )

    def test_matches_per_node_estimator_reference(self, paper_suite):
        from repro.obs.live import ClusterObserver

        drift = _RecordingDrift()
        observer = ClusterObserver(
            suite=paper_suite.scaled(1.3), drift=drift, attribute=True
        )
        self._run(observer, paper_suite)
        reference = _PerNodeReference(paper_suite.scaled(1.3))
        self._run(reference, paper_suite)
        assert len(drift.fed) == len(reference.seconds) > 10
        for (t, est, true, attribution), (t_ref, true_ref, est_ref, terms_ref) in (
            zip(drift.fed, reference.seconds)
        ):
            assert t == t_ref
            assert true == true_ref
            assert est == est_ref
            assert attribution.terms_w == terms_ref
            assert attribution.residual_w == {
                name: est[name] - watts for name, watts in true.items()
            }

    def test_attribution_on_and_off_give_same_drift_history(self, paper_suite):
        from repro.obs.live import ClusterObserver

        histories = []
        for attribute in (True, False):
            observer = ClusterObserver(
                suite=paper_suite.scaled(1.4), attribute=attribute
            )
            self._run(observer, paper_suite)
            histories.append(
                [
                    (a.subsystem, a.state, a.error_pct, a.timestamp_s, a.window)
                    for a in observer.drift.history()
                ]
            )
            assert observer.last is not None
        on, off = histories
        assert {state for _, state, *_ in on} == {"firing", "resolved"}
        assert on == off


class TestMonitorCli:
    COMMON = ["--duration", "20", "--tick-ms", "50", "--refresh", "5", "--seed", "7"]

    def test_monitor_runs_and_summarises(self, capsys):
        from repro.cli import main

        assert main(["monitor", "--workload", "idle", *self.COMMON]) == 0
        out = capsys.readouterr().out
        assert "endpoint at http://127.0.0.1:" in out
        assert "true" in out and "ticks/s" in out
        assert "done —" in out

    def test_monitor_perturbation_raises_and_resolves_alerts(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        telemetry = str(tmp_path / "tel")
        code = main(
            [
                "monitor",
                "gcc",
                *self.COMMON,
                "--duration",
                "30",
                "--perturb",
                "1.5",
                "--restore-at",
                "12",
                "--telemetry",
                telemetry,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ALERT   firing" in out
        assert "calibrated suite restored" in out
        assert "ALERT resolved" in out
        with open(os.path.join(telemetry, "alerts.json"), encoding="utf-8") as fh:
            alerts = json.load(fh)
        assert alerts["firing"] == []
        states = [a["state"] for a in alerts["history"]]
        assert "firing" in states and "resolved" in states
        trace_path = os.path.join(telemetry, obs.TRACE_JSONL)
        drift_events = [
            json.loads(line)
            for line in open(trace_path, encoding="utf-8")
            if '"drift.alert"' in line
        ]
        assert drift_events and all(
            e["name"] == "drift.alert" for e in drift_events
        )
        prom = open(
            os.path.join(telemetry, obs.METRICS_PROM), encoding="utf-8"
        ).read()
        assert "live_power_watts" in prom

    def test_monitor_cluster_mode(self, tmp_path, capsys):
        from repro.cli import main

        telemetry = str(tmp_path / "tel")
        restore_at = 10.0
        code = main(
            [
                "monitor",
                "--nodes",
                "2",
                *self.COMMON,
                "--perturb",
                "1.5",
                "--restore-at",
                str(restore_at),
                "--telemetry",
                telemetry,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster of 2 node(s)" in out
        assert "nodes on" in out
        with open(os.path.join(telemetry, "alerts.json"), encoding="utf-8") as fh:
            history = json.load(fh)["history"]
        # The cluster path estimates with attribution, so a firing
        # alert names its offending terms.
        assert any(a["state"] == "firing" and a["top_terms"] for a in history)
        # Restoring the calibrated suite resolves at least one stream.
        # Some may still fire at the end: short training runs fit CPU
        # power poorly.
        assert any(
            a["state"] == "resolved" and a["timestamp_s"] > restore_at
            for a in history
        )

    def test_monitor_requires_workload_or_nodes(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["monitor", *self.COMMON])

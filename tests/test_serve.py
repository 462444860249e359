"""Tests for the streaming estimation service (PR: repro.serve).

Covers the tentpole end to end: the wire protocol's bit-exact
round-trip, the bounded shard queues' shedding policy, staleness and
SLO burn tracking with injected clocks, the service's streamed-equals-
batch bit-identity guarantee (inline and threaded), the chaos
``kill_shard`` hook's degraded-but-serving semantics, the HTTP POST
``/ingest`` + ``/nodes`` + ``/service`` + ``/slo`` routes, the socket
line protocol, and the ``repro-power serve`` CLI — plus the satellites:
the clear address-in-use error, ``--port 0`` printing the bound
ephemeral port, the windowed registry under wall-clock misbehaviour,
and the ``obs`` pretty-printer's histogram quantile columns.
"""

from __future__ import annotations

import glob
import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import warnings
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.estimator import SystemPowerEstimator
from repro.core.events import Event, Subsystem
from repro.core.features import FeatureSet
from repro.core.models import ConstantModel, PolynomialModel
from repro.core.suite import TrickleDownSuite
from repro.core.traces import CounterTrace
from repro.obs.alertmgr import AlertManager, health_status
from repro.obs.drift import DriftMonitor
from repro.obs.flight import FlightRecorder, load_bundle
from repro.obs.http import ObservabilityServer
from repro.obs.live import WindowedRegistry
from repro.serve import (
    BoundedQueue,
    EstimationService,
    LineSocketServer,
    ProtocolError,
    SampleBatch,
    SLOEngine,
    StalenessTracker,
    decode_line,
    decode_lines,
    encode_frame,
    encode_sample,
    frames_from_run,
    required_events,
)


@pytest.fixture(autouse=True)
def clean_obs():
    """Telemetry is process-global; every test starts and ends clean."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _toy_suite() -> TrickleDownSuite:
    """A hand-built paper-shaped suite (bit-identity and the ops plane
    depend on the evaluate mechanics, not on fitted coefficients)."""
    return TrickleDownSuite(
        {
            Subsystem.CPU: PolynomialModel(
                FeatureSet.of("active_fraction", "fetched_uops_per_cycle"),
                degree=1,
                coefficients=[35.0, 20.0, 5.0],
            ),
            Subsystem.MEMORY: PolynomialModel(
                FeatureSet.of("bus_transactions_per_mcycle"),
                degree=2,
                coefficients=[18.0, 0.5, 0.01],
            ),
            Subsystem.IO: PolynomialModel(
                FeatureSet.of("interrupts_per_mcycle"),
                degree=1,
                coefficients=[2.0, 0.1],
            ),
            Subsystem.DISK: PolynomialModel(
                FeatureSet.of("disk_interrupts_per_mcycle"),
                degree=1,
                coefficients=[10.0, 0.2],
            ),
            Subsystem.CHIPSET: ConstantModel(19.9),
        },
        recipe_name="serve-test-toy",
    )


@pytest.fixture(scope="module")
def suite() -> TrickleDownSuite:
    return _toy_suite()


def _wait_for(predicate, timeout_s: float = 10.0, interval_s: float = 0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


def _get(url: str):
    """(status, document) for a GET, errors included."""
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def _post(url: str, body: str):
    request = urllib.request.Request(
        url, data=body.encode("utf-8"), headers={"Content-Type": "text/plain"}
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def _labels(document: dict, name: str) -> "list[dict]":
    """The labels of every ``name`` alert in a ``/healthz`` body."""
    return [a["labels"] for a in document["alerts"] if a["name"] == name]


def _scaled_truth_frames(
    suite, run, factors, subsystems=None, node="n0", frame_samples=32
):
    """Frames of ``run``'s counters whose truth watts are the offline
    estimates divided by ``factors`` — sample i is off by exactly
    ``factors[i] - 1`` — for ``subsystems`` (default: all).  Returns
    ``(lines, truth)``."""
    trace = run.counters
    estimates = SystemPowerEstimator(suite).estimate_trace(trace)
    truth = {
        s.value: [e.subsystem_w[s] / f for e, f in zip(estimates, factors)]
        for s in (subsystems or suite.subsystems)
    }
    events = required_events(suite)
    counts = {e: trace.counts[e].tolist() for e in events}
    timestamps = trace.timestamps.tolist()
    durations = trace.durations.tolist()
    lines = []
    for lo in range(0, len(timestamps), frame_samples):
        hi = lo + frame_samples
        lines.append(
            encode_frame(
                node,
                timestamps[lo:hi],
                durations[lo:hi],
                {e: rows[lo:hi] for e, rows in counts.items()},
                true_w={k: v[lo:hi] for k, v in truth.items()},
            )
        )
    return lines, truth


def _per_sample_scoring(suite, run, truth, bound_pct):
    """The per-sample reference of the service's truth scoring: one
    single-window drift call per sample, and the SLO verdict on the
    summed estimate and truth of the shipped subsystems."""
    drift = DriftMonitor()
    good = bad = 0
    last_error = None
    estimates = SystemPowerEstimator(suite).estimate_trace(run.counters)
    for i, estimate in enumerate(estimates):
        estimated = {s.value: w for s, w in estimate.subsystem_w.items()}
        actual = {name: series[i] for name, series in truth.items()}
        drift.observe(estimate.timestamp_s, estimated, actual)
        est_total = sum(estimated[name] for name in actual)
        true_total = sum(actual.values())
        if true_total > 0:
            last_error = abs(est_total - true_total) / true_total * 100.0
            if last_error <= bound_pct:
                good += 1
            else:
                bad += 1
    return drift, good, bad, last_error


# -- wire protocol -----------------------------------------------------

#: A valid JSON integer that no float can hold.
_BIG = "9" * 400

#: Arbitrary JSON values, with the numbers decode must think about
#: (zero, negatives, denormals, float-overflowing integers) weighted in.
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from([0, -1, 0.0, -0.0, 5e-324, 1.0e308, 10**400]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _json_paths(value, prefix=()):
    """Every key/index path into a JSON document, the root excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def wire_payloads(suite, gcc_run):
    """One valid single-sample payload and one valid two-sample frame."""
    frame = frames_from_run(
        gcc_run, "n0", frame_samples=2, events=required_events(suite)
    )[0]
    doc = json.loads(frame)
    sample = {
        "node": doc["node"],
        "t": doc["t"][0],
        "dur": doc["dur"][0],
        "counts": {name: rows[0] for name, rows in doc["counts"].items()},
        "true_w": {name: col[0] for name, col in doc["true_w"].items()},
        "trace": "req-1",
    }
    return json.dumps(sample), frame


class TestProtocol:
    def test_single_sample_round_trip_is_exact(self, rng):
        counts = {
            Event.CYCLES: list(rng.uniform(1e8, 2e9, size=4)),
            Event.FETCHED_UOPS: list(rng.uniform(1e7, 1e9, size=4)),
        }
        line = encode_sample(
            "n1", 12.5, 1.0, counts, true_w={"cpu": 40.25}, trace_id="req-1"
        )
        batch = decode_line(line)
        assert batch.node == "n1"
        assert batch.n_samples == 1
        assert batch.timestamps == [12.5]
        assert batch.durations == [1.0]
        assert batch.counts[Event.CYCLES].tolist() == [counts[Event.CYCLES]]
        assert batch.true_w == {"cpu": [40.25]}
        assert batch.trace_id == "req-1"

    def test_frame_round_trip_is_bit_exact(self, rng):
        rows = rng.uniform(0.0, 3e9, size=(5, 2)).tolist()
        line = encode_frame(
            "n2",
            list(rng.uniform(0.0, 100.0, size=5)),
            [1.0] * 5,
            {Event.CYCLES: rows},
        )
        batch = decode_line(line)
        # JSON float repr round-trips exactly: the decoded floats are
        # the same bits, not approximations.
        assert batch.counts[Event.CYCLES].tolist() == rows

    def test_frames_from_run_reconstruct_the_trace_exactly(self, suite, gcc_run):
        events = required_events(suite)
        lines = frames_from_run(gcc_run, "n0", frame_samples=16, events=events)
        batches = [decode_line(line) for line in lines]
        trace = gcc_run.counters
        timestamps = [t for b in batches for t in b.timestamps]
        assert timestamps == trace.timestamps.tolist()
        for event in events:
            rows = [row for b in batches for row in b.counts[event]]
            assert np.array_equal(np.asarray(rows), trace.counts[event])
        # Truth watts ride along, split the same way.
        cpu = [v for b in batches for v in b.true_w["cpu"]]
        assert cpu == gcc_run.power.watts[Subsystem.CPU].tolist()

    def test_required_events_is_the_lean_set(self, suite, gcc_run):
        events = required_events(suite)
        assert events  # the toy suite consumes counters
        assert events < set(gcc_run.counters.counts)  # strictly leaner

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("{not json", "not valid JSON"),
            ("[1, 2]", "JSON object"),
            ('{"node": "n", "t": 1.0, "dur": 1.0}', "missing key"),
            (
                '{"node": "", "t": 1.0, "dur": 1.0, "counts": {"cycles": [1.0]}}',
                "non-empty string",
            ),
            (
                '{"node": "n", "t": [1.0, 2.0], "dur": [1.0],'
                ' "counts": {"cycles": [[1.0], [1.0]]}}',
                "same length",
            ),
            (
                '{"node": "n", "t": [1.0, 2.0], "dur": [1.0, 1.0],'
                ' "counts": {"cycles": [[1.0]]}}',
                "rows",
            ),
            (
                '{"node": "n", "t": [1.0], "dur": [1.0],'
                ' "counts": {"cycles": [[1.0, 2.0]],'
                ' "fetched_uops": [[1.0]]}}',
                "same cpu count",
            ),
            (
                '{"node": "n", "t": [1.0], "dur": [1.0],'
                ' "counts": {"cycles": [[1.0, 2.0], [3.0]]}}',
                "rows",
            ),
            (
                '{"node": "n", "t": 1.0, "dur": 1.0,'
                ' "counts": {"never_heard_of_it": [1.0]}}',
                "no known events",
            ),
            (
                '{"node": "n", "t": [1.0], "dur": [1.0],'
                ' "counts": {"cycles": [[1.0]]},'
                ' "true_w": {"cpu": [1.0, 2.0]}}',
                "true_w",
            ),
            # Element-type validation: nothing that passes decode may
            # blow up np.asarray inside a shard worker.
            (
                '{"node": "n", "t": 1.0, "dur": 1.0,'
                ' "counts": {"cycles": ["oops", "bad"]}}',
                "numbers",
            ),
            (
                '{"node": "n", "t": [1.0], "dur": [1.0],'
                ' "counts": {"cycles": [[1.0, null]]}}',
                "finite",
            ),
            (
                '{"node": "n", "t": [1.0], "dur": [1.0],'
                ' "counts": {"cycles": [[1.0, Infinity]]}}',
                "finite",
            ),
            (
                '{"node": "n", "t": "noon", "dur": 1.0,'
                ' "counts": {"cycles": [1.0]}}',
                "t must be a finite number",
            ),
            (
                '{"node": "n", "t": [1.0, "noon"], "dur": [1.0, 1.0],'
                ' "counts": {"cycles": [[1.0], [1.0]]}}',
                "t must contain only finite numbers",
            ),
            (
                '{"node": "n", "t": 1.0, "dur": NaN,'
                ' "counts": {"cycles": [1.0]}}',
                "dur must be a finite number",
            ),
            (
                '{"node": "n", "t": 1.0, "dur": 1.0,'
                ' "counts": {"cycles": [1.0]},'
                ' "true_w": {"cpu": "lots"}}',
                "finite numbers",
            ),
            # CounterTrace rejects a window of no length, so decode
            # must: past the door it poisons a whole shard group.
            pytest.param(
                '{"node": "n", "t": 1.0, "dur": 0,'
                ' "counts": {"cycles": [1.0]}}',
                "dur must be positive",
                id="zero-dur-scalar",
            ),
            pytest.param(
                '{"node": "n", "t": 1.0, "dur": -1.0,'
                ' "counts": {"cycles": [1.0]}}',
                "dur must be positive",
                id="negative-dur-scalar",
            ),
            pytest.param(
                '{"node": "n", "t": [1.0, 2.0], "dur": [1.0, 0.0],'
                ' "counts": {"cycles": [[1.0], [1.0]]}}',
                "dur must be positive",
                id="zero-dur-column",
            ),
            # Valid JSON integers too large for a float: float() and
            # np.asarray raise OverflowError on them.
            pytest.param(
                '{"node": "n", "t": [' + _BIG + '], "dur": [1.0],'
                ' "counts": {"cycles": [[1.0]]}}',
                "t must contain only finite numbers",
                id="overflow-t-column",
            ),
            pytest.param(
                '{"node": "n", "t": ' + _BIG + ', "dur": 1.0,'
                ' "counts": {"cycles": [1.0]}}',
                "t must be a finite number",
                id="overflow-t-scalar",
            ),
            pytest.param(
                '{"node": "n", "t": [1.0], "dur": [' + _BIG + '],'
                ' "counts": {"cycles": [[1.0]]}}',
                "dur must contain only finite numbers",
                id="overflow-dur-column",
            ),
            pytest.param(
                '{"node": "n", "t": 1.0, "dur": ' + _BIG + ','
                ' "counts": {"cycles": [1.0]}}',
                "dur must be a finite number",
                id="overflow-dur-scalar",
            ),
            pytest.param(
                '{"node": "n", "t": [1.0], "dur": [1.0],'
                ' "counts": {"cycles": [[1.0, ' + _BIG + ']]}}',
                "values must be finite numbers",
                id="overflow-count",
            ),
            pytest.param(
                '{"node": "n", "t": [1.0], "dur": [1.0],'
                ' "counts": {"cycles": [[1.0]]},'
                ' "true_w": {"cpu": [' + _BIG + ']}}',
                "true_w['cpu'] must contain only finite numbers",
                id="overflow-true_w-column",
            ),
            pytest.param(
                '{"node": "n", "t": 1.0, "dur": 1.0,'
                ' "counts": {"cycles": [1.0]},'
                ' "true_w": {"cpu": ' + _BIG + '}}',
                "true_w['cpu'] must contain only finite numbers",
                id="overflow-true_w-scalar",
            ),
            # Past the int-to-str digit limit json.loads raises a plain
            # ValueError, and past its nesting limit RecursionError.
            pytest.param(
                '{"node": "n", "t": [' + "9" * 5000 + "]}",
                "not valid JSON",
                id="integer-digit-limit",
            ),
            pytest.param(
                "[" * 100_000 + "]" * 100_000,
                "not valid JSON",
                id="nesting-limit",
            ),
        ],
    )
    def test_malformed_payloads_raise_protocol_error(self, line, fragment):
        with pytest.raises(ProtocolError, match=re.escape(fragment)):
            decode_line(line)

    def test_keep_events_rejects_payloads_missing_required_events(self):
        line = encode_sample("n", 1.0, 1.0, {Event.CYCLES: [1.0]})
        keep = frozenset({Event.CYCLES, Event.FETCHED_UOPS})
        with pytest.raises(ProtocolError, match="fetched_uops"):
            decode_line(line, keep)

    def test_keep_events_drops_extra_events(self):
        line = encode_sample(
            "n", 1.0, 1.0, {Event.CYCLES: [1.0], Event.FETCHED_UOPS: [2.0]}
        )
        batch = decode_line(line, frozenset({Event.CYCLES}))
        assert set(batch.counts) == {Event.CYCLES}

    @given(data=st.data())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_fuzzed_payload_is_rejected_or_evaluates(
        self, suite, wire_payloads, data
    ):
        """Swap one value of a valid payload for arbitrary JSON: decode
        either raises ProtocolError or hands back a batch that
        CounterTrace and evaluate accept, as a shard worker would."""
        doc = json.loads(data.draw(st.sampled_from(wire_payloads)))
        # Field first, then a path inside it, so the short fields (t,
        # dur, node) are hit as often as the many counter values.
        field = data.draw(st.sampled_from(sorted(doc)))
        path = data.draw(
            st.sampled_from([(field,), *_json_paths(doc[field], (field,))])
        )
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(_JSON_VALUES)
        keep = required_events(suite)
        try:
            batch = decode_line(json.dumps(doc), keep)
        except ProtocolError:
            return
        trace = CounterTrace(
            timestamps=np.asarray(batch.timestamps, dtype=float),
            durations=np.asarray(batch.durations, dtype=float),
            counts=batch.counts,
        )
        suite.evaluate(trace)

    def test_decode_lines_isolates_bad_lines(self):
        good = encode_sample("n", 1.0, 1.0, {Event.CYCLES: [1.0]})
        body = "\n".join([good, "", "{broken", good, "   "])
        batches, errors = decode_lines(body)
        assert len(batches) == 2
        assert len(errors) == 1
        assert "JSON" in errors[0]


# -- bounded queues ----------------------------------------------------


class TestBoundedQueue:
    def test_fifo_and_depth_tracking(self):
        queue = BoundedQueue(depth=4)
        for i in range(3):
            assert queue.put(i)
        assert queue.depth == 3
        assert queue.high_water == 3
        assert [queue.get(timeout=0.0) for _ in range(3)] == [0, 1, 2]
        assert queue.depth == 0
        assert queue.high_water == 3  # high water is sticky

    def test_overflow_sheds_instead_of_blocking(self):
        queue = BoundedQueue(depth=2)
        assert queue.put("a") and queue.put("b")
        assert not queue.put("c")
        assert queue.shed_total == 1
        assert queue.stats()["shed_total"] == 1
        assert queue.stats()["put_total"] == 2

    def test_closed_queue_rejects_puts(self):
        queue = BoundedQueue(depth=2)
        queue.close()
        assert queue.closed
        assert not queue.put("a")
        assert queue.shed_total == 1

    def test_get_times_out_with_none(self):
        assert BoundedQueue(depth=1).get(timeout=0.01) is None

    def test_drain_pops_up_to_limit(self):
        queue = BoundedQueue(depth=8)
        for i in range(5):
            queue.put(i)
        assert queue.drain(3) == [0, 1, 2]
        assert queue.drain(10) == [3, 4]
        assert queue.drain(1) == []

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError):
            BoundedQueue(depth=0)


# -- staleness ---------------------------------------------------------


class TestStalenessTracker:
    def test_fresh_then_stale_with_injected_clock(self):
        clock = [100.0]
        tracker = StalenessTracker(stale_after_s=5.0, clock=lambda: clock[0])
        tracker.touch("a")
        tracker.touch("b")
        assert tracker.sweep() == (["a", "b"], [])
        clock[0] = 104.0
        assert not tracker.is_stale("a")
        clock[0] = 106.0
        tracker.touch("b")
        fresh, stale = tracker.sweep()
        assert fresh == ["b"] and stale == ["a"]
        assert tracker.age_s("a") == pytest.approx(6.0)
        document = tracker.to_json()
        assert document["stale"] == ["a"]
        assert document["age_s"]["b"] == pytest.approx(0.0)

    def test_forget_removes_the_node(self):
        tracker = StalenessTracker(stale_after_s=1.0, clock=lambda: 0.0)
        tracker.touch("a")
        tracker.forget("a")
        assert tracker.age_s("a") is None
        assert tracker.sweep() == ([], [])

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            StalenessTracker(stale_after_s=0.0)


# -- SLO burn ----------------------------------------------------------


class TestSLOEngine:
    def _engine(self, clock, **kwargs):
        return SLOEngine(
            short_window_s=30.0,
            long_window_s=120.0,
            clock=lambda: clock[0],
            **kwargs,
        )

    def test_all_good_burns_nothing(self):
        clock = [0.0]
        engine = self._engine(clock)
        engine.record_error_batch(500, 0, now=10.0)
        state = engine.check(20.0)["slos"]["error"]
        assert state["burn_short"] == 0.0
        assert not state["fast_burn"]
        assert state["budget_remaining"] == 1.0
        assert engine.fast_burning == ()

    def test_fast_burn_fires_once_and_dumps_a_flight_bundle(self, tmp_path):
        obs.enable()
        clock = [0.0]
        recorder = FlightRecorder(out_dir=str(tmp_path))
        engine = self._engine(clock, flight=recorder)
        engine.record_error_batch(0, 100, now=10.0)
        state = engine.check(15.0)["slos"]["error"]
        assert state["fast_burn"] and state["fast_burn_count"] == 1
        assert "error" in engine.fast_burning
        bundles = list(tmp_path.glob("flight-*-slo-fast-burn-error"))
        assert len(bundles) == 1
        assert obs.counter("slo_fast_burn_total", {"slo": "error"}) == 1.0
        # Still burning is not a new edge: no second bundle, no recount.
        state = engine.check(16.0)["slos"]["error"]
        assert state["fast_burn_count"] == 1
        assert len(list(tmp_path.glob("flight-*"))) == 1

    def test_fast_burn_recovers_when_bad_events_age_out(self):
        clock = [0.0]
        engine = self._engine(clock)
        engine.record_error_batch(0, 100, now=10.0)
        assert engine.check(15.0)["slos"]["error"]["fast_burn"]
        engine.record_error_batch(1000, 0, now=130.0)
        state = engine.check(140.0)["slos"]["error"]
        assert not state["fast_burn"]
        assert engine.fast_burning == ()

    def test_freshness_slo_burns_on_stale_sweeps(self):
        clock = [0.0]
        engine = self._engine(clock)
        for t in (1.0, 2.0, 3.0):
            engine.record_freshness(0, 4, now=t)
        assert engine.check(4.0)["slos"]["freshness"]["fast_burn"]

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            SLOEngine(short_window_s=60.0, long_window_s=30.0)
        with pytest.raises(ValueError):
            SLOEngine(fast_burn_rate=0.0)
        with pytest.raises(ValueError):
            SLOEngine(error_objective=1.0)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, 0.0])
    def test_rejects_non_finite_or_non_positive_error_bound(self, bound):
        """No error compares above a NaN bound, so every sample was
        scored bad and the error budget burned on healthy input."""
        with pytest.raises(ValueError):
            SLOEngine(error_bound_pct=bound)


# -- bit identity: streamed == batch -----------------------------------


class TestBitIdentity:
    """The tentpole acceptance: streamed estimates are bit-identical to
    the offline batch path on the same samples, however framed."""

    def _batch_reference(self, suite, run):
        estimates = SystemPowerEstimator(suite).estimate_trace(run.counters)
        return [
            (
                {s.value: w for s, w in e.subsystem_w.items()},
                e.total_w,
            )
            for e in estimates
        ]

    @pytest.mark.parametrize("frame_samples", [1, 7, 64])
    def test_inline_ingest_matches_estimate_trace(
        self, suite, gcc_run, frame_samples
    ):
        reference = self._batch_reference(suite, gcc_run)
        service = EstimationService(
            suite,
            shards=1,
            ops=False,
            keep_estimates=True,
            node_history=len(reference) + 1,
        )
        for line in frames_from_run(
            gcc_run,
            "n0",
            frame_samples=frame_samples,
            events=required_events(suite),
            include_truth=False,
        ):
            receipt = service.ingest_inline(line)
            assert receipt["shed"] == 0 and not receipt["errors"]
        streamed = list(service._nodes["n0"].estimates)
        assert len(streamed) == len(reference)
        for got, (want, want_total) in zip(streamed, reference):
            assert got == want  # exact float equality, not approx
        history = list(service._nodes["n0"].history)
        assert [w for _, w in history] == [t for _, t in reference]

    def test_threaded_ingest_matches_estimate_trace(self, suite, gcc_run):
        reference = self._batch_reference(suite, gcc_run)
        lines = {
            node: frames_from_run(
                gcc_run,
                node,
                frame_samples=16,
                events=required_events(suite),
                include_truth=False,
            )
            for node in ("alpha", "beta", "gamma")
        }
        with EstimationService(
            suite,
            shards=3,
            ops=False,
            keep_estimates=True,
            node_history=len(reference) + 1,
        ) as service:
            # Interleave nodes so coalescing mixes signatures mid-queue.
            for group in zip(*lines.values()):
                for line in group:
                    receipt = service.ingest(line)
                    assert receipt["shed"] == 0
            expected = 3 * len(reference)
            assert _wait_for(lambda: service.samples_total >= expected)
            for node in lines:
                streamed = list(service._nodes[node].estimates)
                assert len(streamed) == len(reference)
                for got, (want, _) in zip(streamed, reference):
                    assert got == want


# -- service mechanics -------------------------------------------------


class TestEstimationService:
    def test_shard_routing_is_stable_and_in_range(self, suite):
        service = EstimationService(suite, shards=3)
        for i in range(32):
            node = f"node-{i}"
            shard = service.shard_for(node)
            assert 0 <= shard < 3
            assert shard == service.shard_for(node)

    def test_full_queue_sheds_with_receipt_and_counter(self, suite, gcc_run):
        obs.enable()
        service = EstimationService(suite, shards=1, queue_depth=2)
        lines = frames_from_run(
            gcc_run, "n0", frame_samples=8, events=required_events(suite)
        )
        assert len(lines) > 3
        # Workers never started: the queue fills at depth 2, the rest
        # sheds visibly instead of growing without bound.
        shed = sum(service.ingest(line)["shed"] for line in lines)
        assert shed > 0
        assert service.shed_samples_total == shed
        assert obs.counter("serve_shed_samples_total", {"shard": "0"}) == shed

    def test_decode_errors_are_counted_not_fatal(self, suite):
        service = EstimationService(suite, shards=1)
        receipt = service.ingest("{broken\n")
        assert receipt["accepted"] == 0
        assert len(receipt["errors"]) == 1
        assert service.decode_errors_total == 1

    def test_truth_scoring_sets_error_and_attaches_drift(self, suite, gcc_run):
        """Frame-at-a-time scoring equals scoring every sample alone: the
        node's drift state (EWMAs compared with ==, transitions, history)
        and the SLO tally match a per-sample reference on a stream that
        fires and resolves."""
        n = gcc_run.counters.n_samples
        # 2 % error for 40 samples, then 30 % for 40, and so on.
        factors = np.where((np.arange(n) // 40) % 2 == 0, 1.02, 1.30)
        lines, truth = _scaled_truth_frames(suite, gcc_run, factors)
        service = EstimationService(suite, shards=1)
        for line in lines:
            service.ingest_inline(line)
        document = service.node_document("n0")
        drift, good, bad, last_error = _per_sample_scoring(
            suite, gcc_run, truth, service.slo.error_bound_pct
        )
        assert {a["state"] for a in drift.to_json()["history"]} == {
            "firing", "resolved"
        }
        assert good and bad
        assert document["drift"] == drift.to_json()
        assert document["error_pct"] == last_error
        assert document["n_samples"] == n
        error_slo = service.slo.check()["slos"]["error"]
        assert (error_slo["good_total"], error_slo["bad_total"]) == (good, bad)

    def test_partial_truth_is_scored_on_the_shipped_subsystems(
        self, suite, gcc_run
    ):
        """A node shipping only CPU truth is scored on CPU alone; the
        sum of every predicted subsystem used to be compared with the
        CPU truth and counted every sample against the error SLO."""
        n = gcc_run.counters.n_samples
        lines, truth = _scaled_truth_frames(
            suite, gcc_run, np.full(n, 1.02), subsystems=[Subsystem.CPU]
        )
        service = EstimationService(suite, shards=1)
        for line in lines:
            service.ingest_inline(line)
        document = service.node_document("n0")
        drift, good, bad, last_error = _per_sample_scoring(
            suite, gcc_run, truth, service.slo.error_bound_pct
        )
        assert (good, bad) == (n, 0)
        assert last_error == pytest.approx(2.0)
        assert document["error_pct"] == last_error
        assert document["drift"] == drift.to_json()
        assert set(document["drift"]["streams"]) == {"cpu", "total"}
        error_slo = service.slo.check()["slos"]["error"]
        assert (error_slo["good_total"], error_slo["bad_total"]) == (n, 0)

    def test_attribution_rides_along_when_enabled(self, suite, gcc_run):
        service = EstimationService(suite, shards=1, ops=False, attribute=True)
        line = frames_from_run(
            gcc_run, "n0", frame_samples=16, events=required_events(suite)
        )[0]
        service.ingest_inline(line)
        attribution = service.node_document("n0")["attribution"]
        assert attribution is not None
        assert Subsystem.CPU.value in attribution

    def test_stale_node_flips_health_and_burns_freshness(self, suite, gcc_run):
        clock = [1000.0]
        service = EstimationService(
            suite,
            shards=1,
            stale_after_s=5.0,
            clock=lambda: clock[0],
            slo=SLOEngine(
                short_window_s=30.0,
                long_window_s=120.0,
                clock=lambda: clock[0],
            ),
        )
        alerts = AlertManager()
        alerts.attach_service(service)
        line = frames_from_run(
            gcc_run, "n0", frame_samples=16, events=required_events(suite)
        )[0]
        service.ingest_inline(line)
        assert not [a for a in alerts.poll() if a.name == "node_stale"]
        clock[0] += 10.0
        for _ in range(3):
            service.tick()
            clock[0] += 1.0
        firing = alerts.poll()
        assert health_status(firing) == (503, "stale")
        stale = [a.labels for a in firing if a.name == "node_stale"]
        assert stale == [{"node": "n0"}]
        assert {"slo": "freshness"} in [
            a.labels for a in firing if a.name == "fast_burn"
        ]
        nodes = service.nodes_document()
        assert nodes["nodes"][0]["stale"]
        assert nodes["fleet"]["stale"] == 1

    def test_kill_shard_is_degraded_but_serving(self, suite, gcc_run):
        events = required_events(suite)
        with EstimationService(suite, shards=2, ops=False) as service:
            dead_node = next(
                f"node-{i}" for i in range(64) if service.shard_for(f"node-{i}") == 0
            )
            live_node = next(
                f"node-{i}" for i in range(64) if service.shard_for(f"node-{i}") == 1
            )
            result = service.kill_shard(0)
            assert result["killed"] and not result["alive"]
            assert service.dead_shards() == [0]
            alerts = AlertManager()
            alerts.attach_service(service)
            firing = alerts.poll()
            assert [a.key for a in firing] == ["serve:shard_dead{shard=0}"]
            # Degraded but serving: still 200.
            assert health_status(firing) == (200, "degraded")
            line = frames_from_run(
                gcc_run, dead_node, frame_samples=8, events=events
            )[0]
            dead_line = line
            assert service.ingest(dead_line)["shed"] > 0
            live_line = frames_from_run(
                gcc_run, live_node, frame_samples=8, events=events
            )[0]
            receipt = service.ingest(live_line)
            assert receipt["accepted"] > 0 and receipt["shed"] == 0
            assert _wait_for(
                lambda: service.samples_total >= receipt["accepted"]
            )

    def test_stop_publishes_every_accepted_sample(self, suite, gcc_run):
        """A backlog queued before the worker starts is published by the
        time ``stop()`` returns: a live worker leaves only once its
        queue is closed and empty (it used to leave as soon as the stop
        flag was set, dropping what was still queued)."""
        lines = frames_from_run(
            gcc_run, "n0", frame_samples=1, events=required_events(suite)
        )
        service = EstimationService(suite, shards=1, coalesce=1, ops=False)
        accepted = sum(service.ingest(line)["accepted"] for line in lines)
        assert accepted == len(lines) == gcc_run.counters.n_samples > 100
        service.start()
        service.stop()
        assert service.samples_total == accepted
        assert service.shards[0].queue.depth == 0

    def test_poison_batch_drops_but_worker_survives(
        self, suite, gcc_run, monkeypatch
    ):
        """An exception inside evaluate must not kill the shard thread:
        the group is logged, counted and dropped, and the next batch
        from the same shard still processes."""
        events = required_events(suite)
        lines = frames_from_run(gcc_run, "n0", frame_samples=8, events=events)[:2]
        real_evaluate = suite.evaluate
        calls = {"n": 0}

        def flaky_evaluate(trace, attribute=False):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected estimator bug")
            return real_evaluate(trace, attribute=attribute)

        monkeypatch.setattr(suite, "evaluate", flaky_evaluate)
        with EstimationService(suite, shards=1, ops=False, coalesce=1) as service:
            assert service.ingest(lines[0])["accepted"] == 8
            assert _wait_for(lambda: service.poison_samples_total == 8)
            assert service.shards[0].alive
            assert service.dead_shards() == []
            assert service.ingest(lines[1])["accepted"] == 8
            assert _wait_for(lambda: service.samples_total >= 8)
            counters = service.service_document()["counters"]
            assert counters["poison_samples_total"] == 8

    def test_overflowing_batch_is_poison_not_published(self, suite):
        """Counts that overflow the models (an infinite estimate) drop
        their batch before /nodes, drift or the SLO see it; the batch
        counts as poison and the rest of its coalesced group publishes."""
        events = required_events(suite)

        def frame(node, bus):
            counts = {event: [[0.0] * 4, [0.0] * 4] for event in events}
            counts[Event.CYCLES] = [[1e6] * 4, [1e6] * 4]
            counts[Event.BUS_TRANSACTIONS] = [[0.0] * 4, [bus] * 4]
            true_w = {"cpu": [60.0, 60.0], "memory": [20.0, 20.0]}
            return encode_frame(node, [0.5, 1.0], [0.5, 0.5], counts, true_w)

        obs.enable()
        service = EstimationService(suite, shards=2, attribute=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            receipt = service.ingest_inline(
                frame("bad", 1e300) + "\n" + frame("good", 1e3)
            )
        assert receipt == {"accepted": 4, "shed": 0, "errors": []}
        assert service.poison_samples_total == 2
        assert service.samples_total == 2
        bad_shard = {"shard": str(service.shard_for("bad"))}
        assert obs.counter("serve_poison_samples_total", bad_shard) == 2
        nodes = service.nodes_document()["nodes"]
        assert [node["node"] for node in nodes] == ["good"]
        good = service._nodes["good"]
        assert [t for t, _ in good.history] == [0.5, 1.0]
        assert all(np.isfinite(w) for _, w in good.history)
        assert good.drift is not None
        # Attribution is filtered with the estimates: the good node's
        # terms come from its own last row.
        assert sum(good.attribution["memory"].values()) == pytest.approx(
            good.last_estimate["memory"]
        )
        assert service.service_document()["counters"]["poison_samples_total"] == 2
        # A group with nothing left to publish publishes nothing.
        service.ingest_inline(frame("bad", 1e300))
        assert service.poison_samples_total == 4
        assert service.samples_total == 2
        assert "bad" not in service._nodes

    def test_stage_document_has_quantiles_and_exemplars(self, suite, gcc_run):
        obs.enable()
        service = EstimationService(suite, shards=1, span_sample=1)
        for line in frames_from_run(
            gcc_run, "n0", frame_samples=16, events=required_events(suite)
        ):
            service.ingest_inline(line)
        stages = service.stage_document()
        for stage in ("decode", "evaluate", "publish"):
            assert stage in stages
            entry = stages[stage]
            assert entry["count"] > 0
            assert entry["p50_us"] <= entry["p95_us"] <= entry["p99_us"]
            assert entry["exemplar_trace"].startswith("ingest-")

    def test_tick_publishes_backpressure_and_fleet_gauges(self, suite, gcc_run):
        obs.enable()
        service = EstimationService(suite, shards=2)
        line = frames_from_run(
            gcc_run, "n0", frame_samples=16, events=required_events(suite)
        )[0]
        service.ingest_inline(line)
        service.tick()
        assert obs.gauge_value("serve_nodes_fresh") == 1.0
        assert obs.gauge_value("serve_queue_depth", {"shard": "0"}) == 0.0
        total = obs.gauge_value("serve_fleet_power_watts", {"agg": "sum"})
        assert total == pytest.approx(
            service.nodes_document()["fleet"]["power_w"]["sum"]
        )

    def test_service_document_shape(self, suite):
        service = EstimationService(suite, shards=2)
        document = service.service_document()
        assert len(document["shards"]) == 2
        assert document["counters"]["samples_total"] == 0
        assert document["required_events"] == sorted(
            e.value for e in required_events(suite)
        )
        assert "slos" in document["slo"]
        assert "health" not in document

    def test_span_sampling_traces_one_in_n(self, suite):
        obs.enable()
        service = EstimationService(suite, shards=1, span_sample=4)
        ids = [service._next_trace_id() for _ in range(8)]
        assert ids[0] is not None and ids[4] is not None
        assert ids[1] is None and ids[2] is None and ids[3] is None

    def test_rejects_zero_shards(self, suite):
        with pytest.raises(ValueError):
            EstimationService(suite, shards=0)


# -- HTTP routes -------------------------------------------------------


class TestHttpRoutes:
    @pytest.fixture()
    def served(self, suite):
        clock = [500.0]
        service = EstimationService(
            suite,
            shards=2,
            stale_after_s=5.0,
            clock=lambda: clock[0],
            slo=SLOEngine(clock=lambda: clock[0]),
        )
        endpoint = ObservabilityServer(service=service, port=0)
        with service, endpoint:
            yield service, endpoint, clock

    def test_post_ingest_then_scrape_nodes(self, served, suite, gcc_run):
        service, endpoint, _ = served
        line = frames_from_run(
            gcc_run, "n0", frame_samples=16, events=required_events(suite)
        )[0]
        status, receipt = _post(endpoint.url("/ingest"), line + "\n")
        assert status == 200
        assert receipt["accepted"] == 16 and receipt["shed"] == 0
        assert _wait_for(lambda: service.samples_total >= 16)
        status, document = _get(endpoint.url("/nodes"))
        assert status == 200
        assert [n["node"] for n in document["nodes"]] == ["n0"]
        assert document["fleet"]["power_w"]["sum"] > 0.0
        status, drill = _get(endpoint.url("/nodes/n0"))
        assert status == 200
        assert drill["n_samples"] == 16
        assert len(drill["history"]) == 16

    def test_unknown_node_and_route_404(self, served):
        _, endpoint, _ = served
        assert _get(endpoint.url("/nodes/ghost"))[0] == 404
        assert _get(endpoint.url("/no-such-route"))[0] == 404

    def test_bad_payload_400(self, served):
        _, endpoint, _ = served
        status, receipt = _post(endpoint.url("/ingest"), "{broken\n")
        assert status == 400
        assert receipt["errors"]

    def test_post_to_other_route_404(self, served):
        _, endpoint, _ = served
        assert _post(endpoint.url("/nodes"), "x")[0] == 404

    def test_shed_returns_429(self, suite, gcc_run):
        service = EstimationService(suite, shards=1, queue_depth=1)
        lines = frames_from_run(
            gcc_run, "n0", frame_samples=8, events=required_events(suite)
        )
        with ObservabilityServer(service=service, port=0) as endpoint:
            # Workers intentionally not started: the depth-1 queue fills
            # after one frame and the next POST must see backpressure.
            assert _post(endpoint.url("/ingest"), lines[0])[0] == 200
            status, receipt = _post(endpoint.url("/ingest"), lines[1])
            assert status == 429
            assert receipt["shed"] == 8

    def test_healthz_degrades_to_503_when_stale(self, served, suite, gcc_run):
        service, endpoint, clock = served
        # No truth on the wire: the toy suite is untrained, so truth
        # scoring would (correctly) flip health to "drifting" first.
        line = frames_from_run(
            gcc_run,
            "n0",
            frame_samples=16,
            events=required_events(suite),
            include_truth=False,
        )[0]
        service.ingest_inline(line)
        status, document = _get(endpoint.url("/healthz"))
        assert (status, document["firing"]) == (200, [])
        clock[0] += 60.0
        status, document = _get(endpoint.url("/healthz"))
        assert status == 503
        assert document["status"] == "stale"
        assert _labels(document, "node_stale") == [{"node": "n0"}]

    def test_service_route_and_kill_shard_chaos_hook(self, suite):
        service = EstimationService(suite, shards=2)
        endpoint = ObservabilityServer(service=service, chaos=True, port=0)
        with service, endpoint:
            status, document = _get(endpoint.url("/service"))
            assert status == 200
            assert all(shard["alive"] for shard in document["shards"])
            # The retired GET query is inert: a scrape can't kill anything.
            status, document = _get(endpoint.url("/service?kill_shard=1"))
            assert status == 200
            assert all(shard["alive"] for shard in document["shards"])
            status, document = _post(
                endpoint.url("/service/kill_shard?shard=1"), ""
            )
            assert status == 200
            assert document["kill_shard"] == {
                "shard": 1,
                "killed": True,
                "alive": False,
            }
            assert service.dead_shards() == [1]
            # /healthz stays 200: degraded but serving.
            status, document = _get(endpoint.url("/healthz"))
            assert status == 200
            assert document["status"] == "degraded"
            assert _post(endpoint.url("/service/kill_shard?shard=99"), "")[0] == 400
            assert _post(endpoint.url("/service/kill_shard"), "")[0] == 400

    def test_kill_shard_requires_chaos_opt_in(self, served):
        service, endpoint, _ = served
        status, document = _post(endpoint.url("/service/kill_shard?shard=0"), "")
        assert status == 403
        assert "chaos" in document["error"]
        assert service.dead_shards() == []
        assert all(shard.alive for shard in service.shards)

    def test_partial_success_returns_200_with_receipt(
        self, served, suite, gcc_run
    ):
        """Accepted lines are already enqueued: a non-2xx would invite a
        whole-body retry that duplicates them, so anything-accepted is
        200 and clients resend from the receipt's counts."""
        service, endpoint, _ = served
        good = frames_from_run(
            gcc_run, "n0", frame_samples=8, events=required_events(suite)
        )[0]
        status, receipt = _post(endpoint.url("/ingest"), good + "\n{broken\n")
        assert status == 200
        assert receipt["accepted"] == 8
        assert len(receipt["errors"]) == 1
        assert _wait_for(lambda: service.samples_total >= 8)

    @pytest.mark.parametrize("field", ["t", "dur", "counts", "true_w"])
    def test_oversized_integer_line_is_a_counted_decode_error(
        self, served, suite, gcc_run, field
    ):
        """An integer too large for a float is a bad line like any
        other: 200 for the good frame beside it, one receipt error, one
        counted decode error (it used to answer 500 and drop both)."""
        service, endpoint, _ = served
        good = frames_from_run(
            gcc_run, "n0", frame_samples=8, events=required_events(suite)
        )[0]
        doc = json.loads(good)
        doc["node"] = "n1"
        big = 10 ** 400
        if field == "counts":
            doc["counts"][next(iter(doc["counts"]))][0][0] = big
        elif field == "true_w":
            doc["true_w"]["cpu"][0] = big
        else:
            doc[field][0] = big
        bad = json.dumps(doc)
        status, receipt = _post(endpoint.url("/ingest"), good + "\n" + bad + "\n")
        assert status == 200
        assert receipt["accepted"] == 8
        assert len(receipt["errors"]) == 1
        assert service.decode_errors_total == 1
        assert _wait_for(lambda: service.samples_total >= 8)
        assert _get(endpoint.url("/nodes/n0"))[1]["n_samples"] == 8
        assert _get(endpoint.url("/nodes/n1"))[0] == 404

    def test_non_positive_dur_is_a_decode_error_not_poison(
        self, served, suite, gcc_run
    ):
        """A frame with a zero ``dur`` is refused at the door and the
        good frames beside it publish.  It used to be accepted, then
        fail inside the shard worker and drop every node's samples in
        its coalesced group."""
        service, endpoint, _ = served
        lines = []
        for node in ("a", "b", "c"):
            doc = json.loads(
                frames_from_run(
                    gcc_run, node, frame_samples=8, events=required_events(suite)
                )[0]
            )
            if node == "b":
                doc["dur"][3] = 0.0
            lines.append(json.dumps(doc))
        status, receipt = _post(endpoint.url("/ingest"), "\n".join(lines) + "\n")
        assert status == 200
        assert receipt["accepted"] == 16
        assert len(receipt["errors"]) == 1
        assert "dur must be positive" in receipt["errors"][0]
        assert service.decode_errors_total == 1
        assert _wait_for(lambda: service.samples_total >= 16)
        assert service.poison_samples_total == 0
        assert _get(endpoint.url("/nodes/a"))[1]["n_samples"] == 8
        assert _get(endpoint.url("/nodes/c"))[1]["n_samples"] == 8
        assert _get(endpoint.url("/nodes/b"))[0] == 404

    def test_slo_route_serves_burn_state(self, served):
        _, endpoint, _ = served
        status, document = _get(endpoint.url("/slo"))
        assert status == 200
        assert set(document["slos"]) == {"error", "freshness"}

    def test_routes_answer_empty_without_a_service(self):
        with ObservabilityServer(port=0) as endpoint:
            assert _get(endpoint.url("/nodes"))[1] == {"nodes": None}
            assert _get(endpoint.url("/service"))[1] == {"service": None}
            assert _get(endpoint.url("/slo"))[1] == {"slo": None}
            assert _post(endpoint.url("/ingest"), "x")[0] == 404
            assert _post(endpoint.url("/service/kill_shard?shard=0"), "")[0] == 404

    def test_address_in_use_raises_actionable_error(self):
        with ObservabilityServer(port=0) as first:
            second = ObservabilityServer(port=first.port)
            with pytest.raises(OSError) as excinfo:
                second.start()
            message = str(excinfo.value)
            assert f"cannot bind observability endpoint to 127.0.0.1:{first.port}" in message
            assert "--port 0" in message


# -- socket transport --------------------------------------------------


class TestOneAlertView:
    """``/healthz``, ``/alerts`` and the store's ``alerts_firing`` series
    read one alert manager, wired as ``repro-power serve --store`` wires
    it, and no GET fires anything."""

    @staticmethod
    def _endpoint(tmp_path, service):
        """``_start_endpoint`` and the service hook-up of ``_cmd_serve``."""
        from argparse import Namespace

        from repro import cli

        args = Namespace(
            flight_dir=None, port=0, store=str(tmp_path / "store"), window=5.0
        )
        endpoint = cli._start_endpoint(args, "serve")
        endpoint.service = service
        endpoint.alerts.attach_service(service)
        service.windows = endpoint.windows
        return endpoint

    @staticmethod
    def _view(endpoint) -> "tuple[int, dict]":
        """``/healthz``, checked against ``/alerts`` scraped right after."""
        status, health = _get(endpoint.url("/healthz"))
        alerts = _get(endpoint.url("/alerts"))[1]
        assert set(alerts) == {"drift", "alerts"}
        assert alerts["alerts"]["firing"] == health["firing"]
        return status, health

    def test_every_source_reaches_healthz_alerts_and_the_store(
        self, tmp_path, suite, gcc_run
    ):
        clock = [1000.0]
        service = EstimationService(
            suite, shards=2, stale_after_s=5.0, clock=lambda: clock[0]
        )
        n = gcc_run.counters.n_samples
        bad, _ = _scaled_truth_frames(
            suite, gcc_run, np.full(n, 1.30), node="d", frame_samples=n
        )
        good, _ = _scaled_truth_frames(
            suite, gcc_run, np.ones(n), node="d", frame_samples=n
        )
        endpoint = self._endpoint(tmp_path, service)
        try:
            assert self._view(endpoint)[0] == 200
            # A drifting served node: 503 drifting, each firing stream an
            # alert carrying its firing transition.
            service.ingest_inline(bad[0])
            status, health = self._view(endpoint)
            assert (status, health["status"]) == (503, "drifting")
            drift = [a for a in health["alerts"] if a["name"] == "drift_slo_breach"]
            assert {a["labels"]["subsystem"] for a in drift} >= {"cpu", "total"}
            assert all(a["labels"]["node"] == "d" for a in drift)
            for alert in drift:
                detail = alert["detail"]
                assert detail["state"] == "firing"
                assert detail["error_pct"] > detail["threshold_pct"]
                assert "top_terms" in detail
            # The bad samples fast-burn the error SLO at the next tick.
            service.tick()
            status, health = self._view(endpoint)
            assert (status, health["status"]) == (503, "burning")
            assert _labels(health, "fast_burn") == [{"slo": "error"}]
            # The node goes silent: stale.
            clock[0] += 60.0
            status, health = self._view(endpoint)
            assert (status, health["status"]) == (503, "stale")
            assert _labels(health, "node_stale") == [{"node": "d"}]
            service.kill_shard(1)
            assert {"shard": "1"} in _labels(self._view(endpoint)[1], "shard_dead")
            fired = endpoint.alerts.evaluate(clock[0])
            assert {t["key"] for t in fired} == set(self._view(endpoint)[1]["firing"])

            # Calibrated samples resolve the drift and freshen the node;
            # the bad samples age out of both SLO windows.
            clock[0] += 200.0
            service.ingest_inline(good[0])
            service.tick()
            status, health = self._view(endpoint)
            assert (status, health["status"]) == (200, "degraded")
            assert health["firing"] == ["serve:shard_dead{shard=1}"]
            resolved = endpoint.alerts.evaluate(clock[0])
            assert {t["state"] for t in resolved} == {"resolved"}
            assert {t["key"] for t in resolved} == {
                t["key"] for t in fired
            } - {"serve:shard_dead{shard=1}"}

            values = {}
            for series in endpoint.store.select("alerts_firing"):
                labels = dict(series["labels"])
                key = (labels.pop("alert"), tuple(sorted(labels.items())))
                values[key] = [v for _, v in series["points"]]
            assert values[("fast_burn", (("slo", "error"), ("source", "slo")))] == [
                1.0, 0.0
            ]
            assert values[("node_stale", (("node", "d"), ("source", "serve")))] == [
                1.0, 0.0
            ]
            assert values[("drift_slo_breach", (
                ("node", "d"), ("source", "drift"), ("subsystem", "total"),
            ))] == [1.0, 0.0]
            assert values[("shard_dead", (("shard", "1"), ("source", "serve")))] == [
                1.0
            ]
            assert len(values) == len(fired)
        finally:
            endpoint.stop()

    def test_polls_while_shards_publish(self, suite, gcc_run):
        """The alert view reads served nodes' drift state while shard
        workers write it; every poll must succeed."""
        import sys
        import threading

        n = gcc_run.counters.n_samples
        # 100 % then 0 % error, 16 samples each: every stream fires and
        # resolves over and over.
        factors = np.where((np.arange(n) // 16) % 2 == 0, 2.0, 1.0)
        lines = []
        for i in range(8):
            lines += _scaled_truth_frames(
                suite, gcc_run, factors, node=f"n{i}", frame_samples=4
            )[0]
        # More shard workers than cores.
        service = EstimationService(suite, shards=4, coalesce=1)
        alerts = AlertManager()
        alerts.attach_service(service)
        stop, polls, errors = threading.Event(), [0], []

        def poll():
            while not stop.is_set():
                try:
                    alerts.poll()
                except Exception as error:
                    errors.append(error)
                polls[0] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        poller = threading.Thread(target=poll, daemon=True)
        try:
            with service:
                poller.start()
                for _ in range(5):
                    for line in lines:
                        while not service.ingest(line)["accepted"]:
                            time.sleep(0.001)
                assert _wait_for(
                    lambda: service.samples_total == 5 * 8 * n, timeout_s=60
                )
        finally:
            stop.set()
            poller.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not poller.is_alive()
        assert not errors, errors[:3]
        assert polls[0] > 0

    def test_datacenter_counts_like_any_source(self):
        from types import SimpleNamespace

        report = SimpleNamespace(
            policy="subsystem", cap_violations=0, drift_fallback_seconds=4
        )
        endpoint = ObservabilityServer(dc=SimpleNamespace(last_report=report))
        status, _, body = endpoint.payload("/healthz")
        assert (status, json.loads(body)["status"]) == (200, "degraded")
        report.cap_violations = 2
        status, _, body = endpoint.payload("/healthz")
        document = json.loads(body)
        assert (status, document["status"]) == (503, "over_cap")
        assert document["firing"] == [
            "dc:cap_violation{policy=subsystem}",
            "dc:drift_fallback{policy=subsystem}",
        ]

    def test_no_get_fires_anything(self, tmp_path, suite):
        obs.enable()
        clock = [1000.0]
        flight = tmp_path / "flight"
        recorder = FlightRecorder(out_dir=str(flight))
        service = EstimationService(
            suite, shards=1, clock=lambda: clock[0], flight=recorder
        )
        endpoint = self._endpoint(tmp_path, service)
        # Both budgets burn; no housekeeping tick has run yet.
        service.slo.record_error_batch(0, 100)
        service.slo.record_freshness(0, 4)
        try:
            for path in ("/healthz", "/alerts", "/slo", "/service"):
                assert _get(endpoint.url(path))[0] == 200, path
            slos = _get(endpoint.url("/slo"))[1]["slos"]
            assert slos["error"]["burn_short"] >= 14.4
            assert not slos["error"]["fast_burn"]
        finally:
            endpoint.stop()
        assert not flight.exists() or not list(flight.iterdir())
        for name in ("error", "freshness"):
            assert obs.counter("slo_fast_burn_total", {"slo": name}) == 0.0
        # The next tick fires both, as it always has.
        service.tick()
        assert len(list(flight.glob("flight-*-slo-fast-burn-*"))) == 2
        for name in ("error", "freshness"):
            assert obs.counter("slo_fast_burn_total", {"slo": name}) == 1.0


class TestSocketTransport:
    def test_line_protocol_with_acks(self, suite, gcc_run):
        lines = frames_from_run(
            gcc_run, "n0", frame_samples=16, events=required_events(suite)
        )[:2]
        with EstimationService(suite, shards=1, ops=False) as service:
            transport = LineSocketServer(service, port=0)
            port = transport.start()
            assert port != 0
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
                    stream = conn.makefile("rwb")
                    stream.write(b"?ack\n")
                    for line in lines:
                        stream.write(line.encode("utf-8") + b"\n")
                    stream.flush()
                    receipts = [json.loads(stream.readline()) for _ in lines]
                assert all(r["accepted"] == 16 for r in receipts)
                assert _wait_for(lambda: service.samples_total >= 32)
                assert service.node_document("n0")["n_samples"] == 32
            finally:
                transport.stop()

    def test_fire_and_forget_without_handshake(self, suite, gcc_run):
        line = frames_from_run(
            gcc_run, "n0", frame_samples=16, events=required_events(suite)
        )[0]
        with EstimationService(suite, shards=1, ops=False) as service:
            transport = LineSocketServer(service, port=0)
            port = transport.start()
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
                    conn.sendall(line.encode("utf-8") + b"\n")
                assert _wait_for(lambda: service.samples_total >= 16)
            finally:
                transport.stop()

    def test_oversize_line_rejected_and_connection_survives(self, suite, gcc_run):
        line = frames_from_run(
            gcc_run, "n0", frame_samples=4, events=required_events(suite)
        )[0]
        limit = 16384
        assert len(line) < limit
        with EstimationService(suite, shards=1, ops=False) as service:
            transport = LineSocketServer(service, port=0, max_line_bytes=limit)
            port = transport.start()
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
                    stream = conn.makefile("rwb")
                    stream.write(b"?ack\n")
                    # One huge junk line, then a valid frame: the junk
                    # must be drained and rejected without being
                    # buffered whole, and the frame must still land.
                    stream.write(b"x" * (3 * limit) + b"\n")
                    stream.write(line.encode("utf-8") + b"\n")
                    stream.flush()
                    first = json.loads(stream.readline())
                    second = json.loads(stream.readline())
                assert first["accepted"] == 0
                assert "exceeds" in first["errors"][0]
                assert second["accepted"] == 4
                assert _wait_for(lambda: service.samples_total >= 4)
            finally:
                transport.stop()

    def test_ingest_crash_answers_error_receipt_and_continues(
        self, suite, gcc_run, monkeypatch
    ):
        line = frames_from_run(
            gcc_run, "n0", frame_samples=4, events=required_events(suite)
        )[0]
        with EstimationService(suite, shards=1, ops=False) as service:
            real_ingest = service.ingest
            calls = {"n": 0}

            def flaky_ingest(data, transport="http"):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("injected ingest bug")
                return real_ingest(data, transport=transport)

            monkeypatch.setattr(service, "ingest", flaky_ingest)
            transport = LineSocketServer(service, port=0)
            port = transport.start()
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
                    stream = conn.makefile("rwb")
                    stream.write(b"?ack\n")
                    stream.write(line.encode("utf-8") + b"\n")
                    stream.write(line.encode("utf-8") + b"\n")
                    stream.flush()
                    first = json.loads(stream.readline())
                    second = json.loads(stream.readline())
                # The handler thread survived the first line's failure.
                assert first == {
                    "accepted": 0, "shed": 0, "errors": ["internal error"]
                }
                assert second["accepted"] == 4
            finally:
                transport.stop()


# -- windowed registry under wall-clock misbehaviour (satellite) -------


class TestWindowedRegistryWallClock:
    @staticmethod
    def _snap(value: float) -> dict:
        return {
            "counters": [{"name": "c", "labels": {}, "value": value}],
            "gauges": [],
            "histograms": [],
        }

    def test_out_of_order_timestamps_fold_into_newest_window(self):
        windows = WindowedRegistry(window_s=1.0)
        windows.ingest(0.2, self._snap(1.0))
        windows.ingest(1.2, self._snap(3.0))
        # The clock ran backwards: the delta must not open a window in
        # the past (or resurrect an old one) — it folds into the newest.
        windows.ingest(0.7, self._snap(6.0))
        document = windows.to_json(last=None)
        assert document["n_windows"] == 2
        first, second = document["windows"]
        assert first["counters"]["c"] == 1.0
        assert second["counters"]["c"] == 5.0

    def test_duplicate_timestamps_accumulate_in_one_window(self):
        windows = WindowedRegistry(window_s=2.0)
        windows.ingest(4.5, self._snap(2.0))
        windows.ingest(4.5, self._snap(7.0))
        document = windows.to_json(last=None)
        assert document["n_windows"] == 1
        assert document["windows"][0]["counters"]["c"] == 7.0

    def test_sample_exactly_on_boundary_opens_the_next_window(self):
        windows = WindowedRegistry(window_s=1.0)
        windows.ingest(1.9, self._snap(1.0))
        windows.ingest(2.0, self._snap(2.0))  # boundary belongs to [2, 3)
        document = windows.to_json(last=None)
        assert [w["start_s"] for w in document["windows"]] == [1.0, 2.0]
        assert document["windows"][1]["end_s"] == 3.0
        assert document["windows"][1]["counters"]["c"] == 1.0

    def test_clock_stall_then_jump_creates_no_gap_windows(self):
        windows = WindowedRegistry(window_s=1.0, max_windows=100)
        for t, v in ((5.0, 1.0), (5.3, 2.0), (5.9, 3.0)):  # stalled clock
            windows.ingest(t, self._snap(v))
        windows.ingest(42.7, self._snap(10.0))  # multi-window jump
        document = windows.to_json(last=None)
        # Two real windows — the 36 empty windows in between are never
        # materialised, so a stalled scraper cannot flood the ring.
        assert document["n_windows"] == 2
        assert [w["start_s"] for w in document["windows"]] == [5.0, 42.0]
        assert document["windows"][0]["counters"]["c"] == 3.0
        assert document["windows"][1]["counters"]["c"] == 7.0


# -- CLI (serve + satellites) ------------------------------------------


class TestServeCli:
    COMMON = ["--duration", "20", "--tick-ms", "50", "--seed", "7"]

    def test_taken_port_fails_fast_with_clear_error(self, capsys, tmp_path):
        from repro.cli import main

        # Squat on a port, then ask serve to bind it: the failure must
        # arrive before training starts and before the store opens, as
        # exit 2 with the fix spelled out — not a traceback.
        store = tmp_path / "store"
        with socket.socket() as squatter:
            squatter.bind(("127.0.0.1", 0))
            squatter.listen(1)
            port = squatter.getsockname()[1]
            code = main([
                "serve", "--port", str(port), "--store", str(store),
                *self.COMMON,
            ])
        assert code == 2
        out, err = capsys.readouterr()
        assert f"cannot bind observability endpoint to 127.0.0.1:{port}" in err
        assert "--port 0" in err
        assert "Traceback" not in err
        assert "persisting" not in out
        assert not store.exists()

    def test_port_zero_prints_bound_ephemeral_port(self, capsys):
        from repro.cli import main

        code = main(
            [
                "serve",
                "--replay",
                "gcc",
                "--nodes",
                "1",
                "--shards",
                "1",
                "--port",
                "0",
                "--refresh",
                "30",
                *self.COMMON,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        match = re.search(r"endpoint at http://127\.0\.0\.1:(\d+)", out)
        assert match, out
        assert int(match.group(1)) != 0  # the *bound* port, not the request
        assert "replay offered" in out
        assert "status=" in out

    def test_reports_every_sample_after_the_shards_drain(
        self, tmp_path, capsys, monkeypatch
    ):
        """The last status line and ``--telemetry``'s ``service.json``
        count every accepted sample.  The shard publishes nothing until
        the service stops, so a report made before ``stop()`` drained
        the queues would say 0."""
        from repro.cli import main
        from repro.serve import EstimationService

        process = EstimationService._process

        def held_until_stop(self, shard, batches):
            self._stop.wait(timeout=60)
            process(self, shard, batches)

        monkeypatch.setattr(EstimationService, "_process", held_until_stop)
        telemetry = tmp_path / "telemetry"
        code = main([
            "serve", "--replay", "gcc", "--nodes", "2", "--shards", "1",
            "--port", "0", "--telemetry", str(telemetry), *self.COMMON,
        ])
        assert code == 0
        out = capsys.readouterr().out
        accepted = int(re.search(r"replay offered .*accepted (\d+)", out)[1])
        reported = int(re.findall(r"status=.* samples=(\d+)", out)[-1])
        document = json.loads((telemetry / "service.json").read_text())
        assert accepted > 0
        assert reported == document["counters"]["samples_total"] == accepted
        assert document["running"] is False

    def test_a_tiny_rate_sleeps_a_second_at_a_time_until_sigterm(
        self, capsys, monkeypatch
    ):
        """``--rate 1e-300`` puts the end of the replay's schedule
        ~2e301 s out.  The replay sleeps toward it at most a second at a
        time, so SIGTERM ends the run cleanly; one sleep that long
        overflowed ``time_t`` and ended in a traceback."""
        import threading

        from repro.cli import main

        naps = []
        real_sleep = time.sleep
        outside = signal.getsignal(signal.SIGTERM)

        def sleep(seconds):
            # Only the main thread's sleeps while serve's SIGTERM handler
            # is in place, so the signal cannot reach the test runner.
            if (
                threading.current_thread() is threading.main_thread()
                and signal.getsignal(signal.SIGTERM) is not outside
            ):
                naps.append(seconds)
                if len(naps) == 3:
                    os.kill(os.getpid(), signal.SIGTERM)
                seconds = min(seconds, 0.01)
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", sleep)
        code = main([
            "serve", "--replay", "gcc", "--rate", "1e-300", "--nodes", "1",
            "--shards", "1", "--port", "0", *self.COMMON,
        ])
        assert max(naps) <= 1.0, naps
        assert code == 0 and len(naps) == 3
        assert "serve: interrupted, shutting down" in capsys.readouterr().out

    def test_endpoint_windows_back_routes_bundles_and_store(
        self, tmp_path, monkeypatch
    ):
        """The service's housekeeping tick folds the endpoint's windows:
        ``/windows`` answers with them, a ``?dump=1`` bundle carries
        them, and each closed one is what ``--store`` persisted."""
        from repro import cli
        from repro.obs.tsdb import TSDB

        store, flight = str(tmp_path / "store"), str(tmp_path / "flight")
        scraped = {}
        store_tick = cli._store_tick

        def scraping_tick(endpoint, now_s):
            if endpoint.phase == "running" and not scraped:
                url = endpoint.url("/windows")
                # Two 1 s windows: the first has closed.
                _wait_for(lambda: len(_get(url)[1]["windows"]) >= 2, 30.0, 0.1)
                scraped["/windows"] = _get(url)
                scraped["dump"] = _get(endpoint.url("/flightrecorder?dump=1"))
            store_tick(endpoint, now_s)

        monkeypatch.setattr(cli, "_store_tick", scraping_tick)
        code = cli.main([
            "serve", "--replay", "gcc", "--nodes", "1", "--shards", "1",
            "--port", "0", "--refresh", "0.5", "--serve-for", "1",
            "--window", "1", "--store", store, "--flight-dir", flight,
            *self.COMMON,
        ])
        assert code == 0
        status, document = scraped["/windows"]
        assert status == 200
        windows = document["windows"]
        assert len(windows) >= 2, document
        status, dumped = scraped["dump"]
        assert status == 200
        bundle = load_bundle(dumped["dumped"])
        assert bundle["windows"]["windows"]
        assert bundle["windows"]["window_s"] == 1.0
        (series,) = TSDB(store).select("serve_nodes_fresh")
        persisted = dict(series["points"])
        for window in windows[:-1]:
            assert persisted[window["start_s"]] == (
                window["gauges"]["serve_nodes_fresh"]
            )


class TestChaosScenario:
    """``repro-power serve --chaos`` as a separate process under load
    from ``scripts/load_ingest.py``: a shard kill sheds and stales only
    the dead shard's nodes, the freshness SLO fast-burns, ``/healthz``
    answers 503, a flight bundle lands, and SIGTERM writes
    ``service.json``."""

    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    #: --slo 30 keeps the short-trained suite's error SLO quiet, so the
    #: freshness burn is the only one.
    SERVE = [
        "serve", "--port", "0", "--shards", "2", "--duration", "20",
        "--tick-ms", "50", "--seed", "7", "--stale-after", "5", "--slo",
        "30", "--refresh", "20", "--chaos",
    ]
    #: crc32 routing sends load-4..7 to shard 0 and load-0..3 to shard 1.
    DEAD_NODES = ["load-4", "load-5", "load-6", "load-7"]

    def _load_argv(self, base: str, rates: str, seconds: str) -> list:
        return [
            sys.executable, os.path.join(self.ROOT, "scripts", "load_ingest.py"),
            "--url", base + "/ingest", "--workload", "gcc", "--duration", "20",
            "--nodes", "8", "--rates", rates, "--seconds", seconds, "--json",
        ]

    def _load(self, base: str, rates: str, seconds: str) -> list:
        """One ``load_ingest.py`` run to completion; its per-rate steps."""
        done = subprocess.run(
            self._load_argv(base, rates, seconds),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)["steps"]

    @staticmethod
    def _poll(url: str, done, timeout_s: float) -> dict:
        """GET ``url`` until ``done(document)`` or the timeout; returns
        the last document."""
        deadline = time.monotonic() + timeout_s
        while True:
            document = _get(url)[1]
            if done(document) or time.monotonic() >= deadline:
                return document
            time.sleep(0.2)

    def test_shard_kill_degrades_burns_and_shuts_down(self, tmp_path):
        log = tmp_path / "serve.log"
        flight = str(tmp_path / "flight")
        telemetry = str(tmp_path / "telemetry")
        env = {
            **os.environ,
            "PYTHONPATH": os.path.join(self.ROOT, "src")
            + os.pathsep + os.environ.get("PYTHONPATH", ""),
        }
        argv = [
            sys.executable, "-u", "-m", "repro.cli", *self.SERVE,
            "--flight-dir", flight, "--telemetry", telemetry,
        ]
        trickle = None
        with open(log, "w") as out:
            child = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.STDOUT, env=env
            )
        try:
            def endpoint():
                match = re.search(r"endpoint at (http://\S+:\d+)", log.read_text())
                return match.group(1) if match else None

            assert _wait_for(
                lambda: endpoint() or child.poll() is not None, timeout_s=60
            )
            base = endpoint()
            assert base, log.read_text()
            # The endpoint answers before the suite has trained.
            assert _get(base + "/healthz")[0] == 200
            service = self._poll(
                base + "/service", lambda doc: doc.get("running"), 120
            )
            assert service.get("running"), log.read_text()
            assert len(service["shards"]) == 2
            assert service["required_events"]

            for step in self._load(base, "2000,8000", "2"):
                assert step["accepted"] > 0 and step["errors"] == 0, step
            status, nodes = _get(base + "/nodes")
            assert nodes["fleet"]["count"] == 8
            assert nodes["fleet"]["power_w"]["sum"] > 0
            status, health = _get(base + "/healthz")
            assert (status, health["status"]) == (200, "ok"), health
            service = _get(base + "/service")[1]
            assert service["counters"]["samples_total"] > 0
            evaluate = service["stages"]["evaluate"]
            assert evaluate["p99_us"] > 0 and evaluate["exemplar_trace"]
            assert not _get(base + "/slo")[1]["slos"]["freshness"]["fast_burn"]

            status, killed = _post(base + "/service/kill_shard?shard=0", "")
            assert status == 200
            assert killed["kill_shard"]["killed"]
            assert not killed["kill_shard"]["alive"]
            (step,) = self._load(base, "4000", "2")
            assert step["accepted"] > 0, step  # the live shard still serves
            assert step["shed"] > 0, step  # the dead shard sheds visibly
            # A trickle keeps the live shard's nodes fresh while the dead
            # shard's go stale and the freshness budget burns.
            trickle = subprocess.Popen(
                self._load_argv(base, "2000", "120"),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            slo = self._poll(
                base + "/slo", lambda doc: doc["slos"]["freshness"]["fast_burn"], 60
            )
            freshness = slo["slos"]["freshness"]
            assert freshness["fast_burn"], slo
            assert freshness["burn_short"] >= slo["fast_burn_rate"]
            status, health = _get(base + "/healthz")
            assert status == 503
            assert _labels(health, "shard_dead") == [{"shard": "0"}]
            assert {"slo": "freshness"} in _labels(health, "fast_burn")
            assert len(_labels(health, "node_stale")) >= 4
            nodes = _get(base + "/nodes")[1]["nodes"]
            assert sorted(n["node"] for n in nodes if n["stale"]) == self.DEAD_NODES
            # The burn's flight bundle is written just after the burn
            # state flips.
            pattern = os.path.join(flight, "flight-*-slo-fast-burn-freshness")
            assert _wait_for(lambda: glob.glob(pattern), timeout_s=30)
            bundle = load_bundle(sorted(glob.glob(pattern))[0])
            assert bundle["reason"] == "slo-fast-burn-freshness"
            assert bundle["detail"]["fast_burn"]

            trickle.kill()
            child.send_signal(signal.SIGTERM)
            assert child.wait(timeout=60) == 0
        finally:
            for process in (trickle, child):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait(timeout=30)
        printed = log.read_text()
        assert "serve: interrupted, shutting down" in printed
        assert "serve: status=" in printed
        with open(os.path.join(telemetry, "service.json")) as handle:
            document = json.load(handle)
        assert document["counters"]["samples_total"] > 0
        assert document["shards"][0]["killed"]
        assert document["shards"][1]["samples"] > 0


class TestObsCliQuantiles:
    def test_histogram_table_has_quantile_columns(self, tmp_path, capsys):
        """Satellite: ``repro-power obs`` renders p50/p95/p99 straight
        from the dumped bucket cells."""
        from repro.cli import main

        obs.enable()
        buckets = tuple(float(b) for b in range(1, 11))
        for value in (1.5, 2.5, 2.5, 3.5, 9.5):
            obs.observe("stage_demo_seconds", value, {"stage": "x"}, buckets)
        out = str(tmp_path / "tel")
        obs.dump(out)
        obs.disable()
        capsys.readouterr()
        assert main(["obs", out]) == 0
        printed = capsys.readouterr().out
        assert "stage_demo_seconds" in printed
        for column in ("p50", "p95", "p99"):
            assert column in printed

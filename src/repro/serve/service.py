"""The streaming estimation service: sharded, batched, observable.

:class:`EstimationService` inverts the repo's batch pipeline into a
long-lived ingest loop.  Counter samples arrive as newline-JSON
payloads (HTTP POST ``/ingest``, the socket line protocol, or replay),
are decoded into :class:`~repro.serve.protocol.SampleBatch` items,
routed to a shard by a stable hash of the node name (per-node order is
preserved — one node always lands on one shard), and evaluated by the
shard worker in coalesced batched
:meth:`~repro.core.suite.TrickleDownSuite.evaluate` passes.  Because
the compiled suite's design-matrix rows are independent, the streamed
estimates are **bit-identical** to the offline
:meth:`~repro.core.estimator.SystemPowerEstimator.estimate_trace` path
on the same samples, no matter how the stream is framed or coalesced
(proved in ``tests/test_serve.py``).

The ops plane rides :mod:`repro.obs` and is the headline feature:

* **stage spans** ``serve.ingest`` / ``serve.evaluate`` /
  ``serve.publish`` with per-stage latency histograms
  (``serve_stage_seconds{stage=decode|queue|evaluate|publish}``) and
  exemplar trace IDs flowing from the wire through every stage;
* **backpressure telemetry** — bounded shard queues
  (:class:`~repro.serve.queues.BoundedQueue`) with depth/high-water
  gauges and shed counters; overload sheds visibly instead of OOMing;
* **staleness** — :class:`~repro.serve.staleness.StalenessTracker`
  feeds ``/healthz`` (stale estimates are unhealthy estimates);
* **SLO burn** — :class:`~repro.serve.slo.SLOEngine` tracks error and
  freshness budgets and fires the flight recorder on fast burn.

Telemetry stays opt-in: with ``obs`` disabled and ``ops=False`` the
ingest path is the bare decode→evaluate→publish pipeline the
``ingest_samples_per_s`` benchmark measures; ``scripts/obs_overhead.py``
holds the full ops plane under 5 % on top of it.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
import zlib
from collections import deque
from contextlib import nullcontext

import numpy as np

from repro import obs
from repro.core.traces import CounterTrace
from repro.obs.drift import DEFAULT_SLO_PCT, DriftMonitor
from repro.serve.protocol import SampleBatch, decode_lines, required_events
from repro.serve.queues import BoundedQueue
from repro.serve.slo import SLOEngine
from repro.serve.staleness import StalenessTracker

logger = logging.getLogger(__name__)

__all__ = ["EstimationService", "NodeState", "STAGE_BUCKETS"]

#: Stage latencies are micro- to milli-second scale; the default
#: metric buckets (1 ms .. 60 s) are far too coarse for them.
STAGE_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3,
    2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
)

_STAGES = ("decode", "queue", "evaluate", "publish")


class NodeState:
    """Live estimate state of one ingesting node (guarded by the
    service's node lock; readers get copies via the document methods).
    """

    __slots__ = (
        "node", "shard", "n_samples", "last_t", "last_estimate",
        "last_total_w", "last_error_pct", "last_trace_id", "history",
        "estimates", "attribution", "drift",
    )

    def __init__(self, node: str, shard: int, history: int, keep_estimates: bool):
        self.node = node
        self.shard = shard
        self.n_samples = 0
        self.last_t = float("nan")
        self.last_estimate: "dict[str, float]" = {}
        self.last_total_w = float("nan")
        self.last_error_pct: "float | None" = None
        self.last_trace_id: "str | None" = None
        #: (timestamp, total watts) ring for the ``/nodes/<id>`` tail.
        self.history: "deque[tuple[float, float]]" = deque(maxlen=history)
        #: Full per-subsystem estimate ring (opt-in: the bit-identity
        #: tests need every streamed estimate, the service default
        #: keeps only totals to stay on budget).
        self.estimates: "deque[dict[str, float]] | None" = (
            deque(maxlen=history) if keep_estimates else None
        )
        self.attribution: "dict | None" = None
        self.drift: "DriftMonitor | None" = None


class _Shard:
    def __init__(self, index: int, depth: int) -> None:
        self.index = index
        self.queue = BoundedQueue(depth)
        self.thread: "threading.Thread | None" = None
        self.killed = False
        self.batches_total = 0
        self.samples_total = 0

    @property
    def alive(self) -> bool:
        return self.thread is not None and self.thread.is_alive()


class EstimationService:
    """Sharded streaming estimator with a first-class ops plane.

    Args:
        suite: fitted :class:`~repro.core.suite.TrickleDownSuite`.
        shards: estimator worker count (stable-hash node routing).
        queue_depth: per-shard queue bound, in batches.
        coalesce: max queued batches a worker folds into one evaluate.
        stale_after_s: node staleness horizon for ``/healthz``.
        drift_slo_pct: per-node drift bound (paper default 9 %).
        attribute: also publish per-term watt attribution per node.
        node_history: per-node estimate ring length.
        keep_estimates: retain full per-subsystem estimates per sample
            (tests); default keeps only ``(t, total)`` pairs.
        ops: master switch for the ops plane (staleness + SLO + stage
            telemetry).  ``ops=False`` with telemetry disabled is the
            bare pipeline the benchmark measures.
        span_sample: record stage spans (and exemplar trace IDs) for
            one in every N ingest payloads; stage *histograms* observe
            every batch regardless.  Spans cost tens of microseconds
            each, so tracing every 64-sample frame would blow the <5 %
            ops budget — sampling keeps exemplars flowing at ~2 % cost.
            1 traces everything (tests).
        slo: a pre-built :class:`~repro.serve.slo.SLOEngine` (optional).
        flight: :class:`~repro.obs.flight.FlightRecorder` for fast-burn
            bundles (optional; handed to a default-built SLO engine).
        clock: monotonic clock override for deterministic tests.
        housekeeping_interval_s: cadence of the liveness/SLO sweep
            thread started by :meth:`start`.
    """

    def __init__(
        self,
        suite,
        shards: int = 2,
        queue_depth: int = 256,
        coalesce: int = 32,
        stale_after_s: float = 10.0,
        drift_slo_pct: float = DEFAULT_SLO_PCT,
        attribute: bool = False,
        node_history: int = 240,
        keep_estimates: bool = False,
        ops: bool = True,
        span_sample: int = 16,
        slo: "SLOEngine | None" = None,
        flight=None,
        clock=None,
        housekeeping_interval_s: float = 0.5,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.suite = suite
        self.required_events = required_events(suite)
        self.attribute = bool(attribute)
        self.drift_slo_pct = float(drift_slo_pct)
        self.node_history = int(node_history)
        self.keep_estimates = bool(keep_estimates)
        self.ops = bool(ops)
        self.span_sample = max(1, int(span_sample))
        self.coalesce = max(1, int(coalesce))
        self.flight = flight
        self._clock = clock if clock is not None else time.monotonic
        self.staleness = StalenessTracker(stale_after_s, clock=self._clock)
        self.slo = slo if slo is not None else SLOEngine(
            error_bound_pct=drift_slo_pct, clock=self._clock, flight=flight
        )
        self.shards = tuple(_Shard(i, queue_depth) for i in range(shards))
        self.housekeeping_interval_s = float(housekeeping_interval_s)
        self._nodes: "dict[str, NodeState]" = {}
        self._nodes_lock = threading.Lock()
        self._stop = threading.Event()
        self._housekeeper: "threading.Thread | None" = None
        self._started_monotonic: "float | None" = None
        self._ingest_seq = itertools.count()
        self._stage_exemplar: "dict[str, str]" = {}
        # Lifetime tallies kept outside the obs registry so the ingest
        # response and /service stay accurate with telemetry disabled.
        # '+=' is not atomic and these run on HTTP handler, socket
        # handler and shard worker threads alike, so they share a lock.
        self._tally_lock = threading.Lock()
        self.samples_total = 0
        self.shed_samples_total = 0
        self.decode_errors_total = 0
        self.poison_samples_total = 0
        self.store = None
        self._store_windows = None

    def attach_store(self, db, window_s: float = 5.0) -> None:
        """Persist this service's telemetry into a TSDB.

        Every housekeeping :meth:`tick` folds the process registry into
        a :class:`~repro.obs.live.WindowedRegistry` whose evicted
        windows land in ``db`` (one sample per metric at the window's
        start); :meth:`stop` drains the remainder and flushes the
        store, so short runs persist too.
        """
        from repro.obs.live import WindowedRegistry
        from repro.obs.tsdb import WindowSink

        self.store = db
        self._store_windows = WindowedRegistry(
            window_s=window_s, on_evict=WindowSink(db)
        )

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._started_monotonic is not None

    def start(self) -> None:
        """Spawn shard workers and the housekeeping sweep (idempotent)."""
        if self.running:
            return
        self._stop.clear()
        self._started_monotonic = self._clock()
        for shard in self.shards:
            shard.thread = threading.Thread(
                target=self._worker,
                args=(shard,),
                name=f"repro-serve-shard-{shard.index}",
                daemon=True,
            )
            shard.thread.start()
        self._housekeeper = threading.Thread(
            target=self._housekeeping,
            name="repro-serve-housekeeping",
            daemon=True,
        )
        self._housekeeper.start()

    def stop(self) -> None:
        """Stop workers and housekeeping; drains nothing (idempotent)."""
        self._stop.set()
        for shard in self.shards:
            shard.queue.close()
        for shard in self.shards:
            if shard.thread is not None:
                shard.thread.join(timeout=5.0)
                shard.thread = None
        if self._housekeeper is not None:
            self._housekeeper.join(timeout=5.0)
            self._housekeeper = None
        self._started_monotonic = None
        if self._store_windows is not None:
            self._store_windows.drain()
            self.store.flush()

    def __enter__(self) -> "EstimationService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def kill_shard(self, index: int) -> dict:
        """Chaos hook: stop one shard worker, leave the service up.

        Its queue closes (new batches for its nodes shed), its nodes go
        stale, the freshness SLO starts burning — exactly the
        degraded-but-serving path the ingest-smoke CI job asserts.
        There is no restart, so the HTTP exposure of this hook is a
        ``POST`` gated behind ``ObservabilityServer(chaos=True)``.
        """
        shard = self.shards[index]
        shard.killed = True
        shard.queue.close()
        if shard.thread is not None:
            shard.thread.join(timeout=5.0)
        obs.event("serve.shard_killed", shard=index)
        return {"shard": index, "killed": True, "alive": shard.alive}

    # -- ingest --------------------------------------------------------

    def shard_for(self, node: str) -> int:
        """Stable node→shard routing (crc32, process-independent)."""
        return zlib.crc32(node.encode("utf-8")) % len(self.shards)

    def ingest(self, data: str, transport: str = "http") -> dict:
        """Decode a newline-JSON body and enqueue to shard workers.

        Returns the backpressure-visible receipt:
        ``{"accepted": n, "shed": n, "errors": [...]}`` (sample
        counts).  Shed batches were rejected by a full or killed shard
        queue — the client is expected to slow down.
        """
        trace_id = self._next_trace_id()
        with self._span("serve.ingest", trace_id, transport=transport):
            t0 = time.monotonic()
            batches, errors = decode_lines(data, self.required_events)
            self._observe_stage("decode", time.monotonic() - t0, trace_id)
            accepted = shed = 0
            now = time.monotonic()
            for batch in batches:
                if batch.trace_id is None:
                    batch.trace_id = trace_id
                batch.enqueued_monotonic = now
                shard = self.shards[self.shard_for(batch.node)]
                if shard.queue.put(batch):
                    accepted += batch.n_samples
                else:
                    shed += batch.n_samples
                    obs.inc(
                        "serve_shed_samples_total",
                        batch.n_samples,
                        {"shard": str(shard.index)},
                    )
        with self._tally_lock:
            self.shed_samples_total += shed
            self.decode_errors_total += len(errors)
        if errors:
            obs.inc("serve_decode_errors_total", len(errors))
        obs.inc("serve_ingest_bytes_total", len(data), {"transport": transport})
        if accepted:
            obs.inc(
                "serve_samples_total", accepted, {"transport": transport}
            )
        return {"accepted": accepted, "shed": shed, "errors": errors}

    def ingest_inline(self, data: str, transport: str = "inline") -> dict:
        """Decode **and evaluate synchronously** (no queues, no threads).

        The benchmark and the bit-identity tests use this path; it runs
        the exact same processing code the shard workers run, minus the
        queue hop.
        """
        trace_id = self._next_trace_id()
        t0 = time.monotonic()
        batches, errors = decode_lines(data, self.required_events)
        self._observe_stage("decode", time.monotonic() - t0, trace_id)
        accepted = 0
        for batch in batches:
            if batch.trace_id is None:
                batch.trace_id = trace_id
            accepted += batch.n_samples
        if batches:
            self._process(None, batches)
        with self._tally_lock:
            self.decode_errors_total += len(errors)
        if accepted:
            obs.inc(
                "serve_samples_total", accepted, {"transport": transport}
            )
        return {"accepted": accepted, "shed": 0, "errors": errors}

    def _next_trace_id(self) -> "str | None":
        """A trace id for this payload, or ``None`` when unsampled."""
        if not (self.ops and obs.enabled()):
            return None
        # itertools.count is atomic under the GIL, so concurrent ingest
        # threads can never mint duplicate trace ids.
        seq = next(self._ingest_seq)
        if seq % self.span_sample:
            return None
        return f"ingest-{seq + 1}"

    # -- workers -------------------------------------------------------

    def _worker(self, shard: _Shard) -> None:
        while not (self._stop.is_set() or shard.killed):
            item = shard.queue.get(timeout=0.2)
            if item is None:
                continue
            items = [item] + shard.queue.drain(self.coalesce - 1)
            if self.ops and obs.enabled():
                now = time.monotonic()
                for batch in items:
                    self._observe_stage(
                        "queue", now - batch.enqueued_monotonic, batch.trace_id
                    )
            # The worker thread must outlive any poison batch: protocol
            # validation should make this unreachable, but an estimator
            # bug (or a future wire shape) killing the shard would
            # silently strand every node routed to it.
            try:
                self._process(shard, items)
            except Exception:
                dropped = sum(batch.n_samples for batch in items)
                logger.exception(
                    "shard %d dropped a poison batch group "
                    "(%d batches, %d samples)",
                    shard.index, len(items), dropped,
                )
                self._count_poison(shard.index, dropped)

    def _count_poison(self, shard_index: int, dropped: int) -> None:
        with self._tally_lock:
            self.poison_samples_total += dropped
        obs.inc(
            "serve_poison_samples_total", dropped, {"shard": str(shard_index)}
        )

    def _housekeeping(self) -> None:
        while not self._stop.wait(self.housekeeping_interval_s):
            try:
                self.tick()
            except Exception:  # pragma: no cover - defensive
                logger.exception("serve housekeeping tick failed")

    def tick(self, now: "float | None" = None) -> dict:
        """One liveness/SLO sweep (housekeeping cadence; callable
        directly from tests with an injected clock)."""
        if not self.ops:
            return {}
        moment = self._clock() if now is None else now
        fresh, stale = self.staleness.sweep(moment)
        self.slo.record_freshness(len(fresh), len(stale), moment)
        state = self.slo.check(moment)
        obs.gauge("serve_nodes_fresh", len(fresh))
        obs.gauge("serve_nodes_stale", len(stale))
        for shard in self.shards:
            stats = shard.queue.stats()
            labels = {"shard": str(shard.index)}
            obs.gauge("serve_queue_depth", stats["depth"], labels)
            obs.gauge("serve_queue_high_water", stats["high_water"], labels)
        totals = [
            state_.last_total_w
            for state_ in self._node_states()
            if state_.node not in stale and state_.last_total_w == state_.last_total_w
        ]
        if totals:
            arr = np.asarray(totals)
            for agg, value in (
                ("sum", arr.sum()), ("mean", arr.mean()),
                ("min", arr.min()), ("max", arr.max()),
            ):
                obs.gauge("serve_fleet_power_watts", float(value), {"agg": agg})
        if self._store_windows is not None:
            self._store_windows.ingest(moment, obs.registry())
            # Closed windows persist eagerly (the sink is idempotent);
            # eviction and the stop() drain then skip them.
            self._store_windows.sink_closed(moment)
        return state

    # -- the shared processing pipeline --------------------------------

    def _process(self, shard: "_Shard | None", batches: "list[SampleBatch]") -> None:
        """Evaluate queued batches and publish per-node state.

        Consecutive batches with the same event signature coalesce into
        a single design-matrix pass; row independence of the compiled
        suite keeps the per-sample results bit-identical to evaluating
        each sample alone (or the whole trace at once).
        """
        group: "list[SampleBatch]" = []
        signature = None
        for batch in batches:
            key = (
                frozenset(batch.counts),
                batch.counts[next(iter(batch.counts))].shape[1],
            )
            if signature is not None and key != signature:
                self._evaluate_group(shard, group)
                group = []
            signature = key
            group.append(batch)
        if group:
            self._evaluate_group(shard, group)

    def _evaluate_group(self, shard, group: "list[SampleBatch]") -> None:
        trace_id = group[0].trace_id
        t0 = time.monotonic()
        with self._span(
            "serve.evaluate",
            trace_id,
            batches=len(group),
            shard=None if shard is None else shard.index,
        ):
            if len(group) == 1:
                only = group[0]
                timestamps = only.timestamps
                durations = only.durations
                counts = dict(only.counts)
            else:
                timestamps = [t for b in group for t in b.timestamps]
                durations = [d for b in group for d in b.durations]
                counts = {
                    e: np.concatenate([b.counts[e] for b in group])
                    for e in group[0].counts
                }
            trace = CounterTrace(
                timestamps=np.asarray(timestamps, dtype=float),
                durations=np.asarray(durations, dtype=float),
                counts=counts,
            )
            # Counts that overflow the models are dropped just below;
            # the warnings numpy would print for them are noise.
            with np.errstate(over="ignore", invalid="ignore"):
                predictions, terms = self.suite.evaluate(
                    trace, attribute=self.attribute
                )
        self._observe_stage("evaluate", time.monotonic() - t0, trace_id)
        group, predictions, terms = self._drop_non_finite(
            shard, group, predictions, terms
        )
        if not group:
            return

        t0 = time.monotonic()
        with self._span("serve.publish", trace_id):
            self._publish(shard, group, predictions, terms)
        self._observe_stage("publish", time.monotonic() - t0, trace_id)

    def _drop_non_finite(self, shard, group, predictions, terms):
        """Drop every batch with a non-finite subsystem estimate.

        Counts the model overflows on (or NaN) must not reach
        ``/nodes``, drift, the SLO or the store: such a batch is counted
        as poison samples instead, and the rest of the group publishes.
        Returns the kept ``(group, predictions, terms)``.
        """
        finite = np.logical_and.reduce(
            [np.isfinite(arr) for arr in predictions.values()]
        )
        if finite.all():
            return group, predictions, terms
        kept: "list[SampleBatch]" = []
        keep = np.ones(finite.shape, dtype=bool)
        lo = 0
        for batch in group:
            hi = lo + batch.n_samples
            if finite[lo:hi].all():
                kept.append(batch)
            else:
                keep[lo:hi] = False
                logger.warning(
                    "dropped %d samples of node %s: non-finite estimate",
                    batch.n_samples, batch.node,
                )
                self._count_poison(
                    self.shard_for(batch.node) if shard is None else shard.index,
                    batch.n_samples,
                )
            lo = hi
        predictions = {s: arr[keep] for s, arr in predictions.items()}
        if terms is not None:
            terms = {
                s: {term: arr[keep] for term, arr in by_term.items()}
                for s, by_term in terms.items()
            }
        return kept, predictions, terms

    def _publish(self, shard, group, predictions, terms) -> None:
        subsystems = list(predictions)
        totals_arr = None
        for arr in predictions.values():
            totals_arr = arr if totals_arr is None else totals_arr + arr
        totals = totals_arr.tolist()
        n_total = len(totals)
        # Full per-sample columns are only needed for the keep-estimates
        # ring; the hot path indexes the last row of the numpy arrays
        # directly.
        columns = (
            {s: arr.tolist() for s, arr in predictions.items()}
            if self.keep_estimates
            else None
        )
        error_good = error_bad = 0
        row = 0
        now = self.staleness.now() if self.ops else 0.0
        for batch in group:
            n = batch.n_samples
            lo, hi = row, row + n
            row = hi
            with self._nodes_lock:
                state = self._nodes.get(batch.node)
                if state is None:
                    state = NodeState(
                        batch.node,
                        self.shard_for(batch.node),
                        self.node_history,
                        self.keep_estimates,
                    )
                    self._nodes[batch.node] = state
                state.n_samples += n
                state.last_t = batch.timestamps[-1]
                state.last_trace_id = batch.trace_id
                state.history.extend(zip(batch.timestamps, totals[lo:hi]))
                if state.estimates is not None:
                    for i in range(lo, hi):
                        state.estimates.append(
                            {s.value: columns[s][i] for s in subsystems}
                        )
                last = hi - 1
                state.last_estimate = {
                    s.value: float(predictions[s][last]) for s in subsystems
                }
                state.last_total_w = totals[last]
                if terms is not None:
                    state.attribution = {
                        s.value: {
                            term: float(arr[last])
                            for term, arr in terms[s].items()
                        }
                        for s in terms
                    }
                if batch.true_w is not None:
                    good, bad = self._score_truth(state, batch, predictions, lo)
                    error_good += good
                    error_bad += bad
            if self.ops:
                self.staleness.touch(batch.node, now)
            if shard is not None:
                shard.batches_total += 1
                shard.samples_total += n
        with self._tally_lock:
            self.samples_total += n_total
        obs.inc("serve_published_total", n_total)
        if self.ops and (error_good or error_bad):
            self.slo.record_error_batch(error_good, error_bad)
        if group and group[-1].trace_id is not None:
            for stage in ("evaluate", "publish"):
                self._stage_exemplar[stage] = group[-1].trace_id

    def _score_truth(self, state, batch, predictions, lo) -> "tuple[int, int]":
        """Score one batch against its shipped truth watts.

        Drift sees the batch as one frame.  The SLO tally and
        ``last_error_pct`` compare the summed estimate and truth over
        the subsystems present on both sides, as the drift ``total``
        stream does, so a node that ships partial truth is scored on
        what it shipped.
        """
        if state.drift is None:
            state.drift = DriftMonitor(slo_pct=self.drift_slo_pct)
        hi = lo + batch.n_samples
        estimated = {s.value: arr[lo:hi] for s, arr in predictions.items()}
        truth = {
            name: np.asarray(series, dtype=float)
            for name, series in batch.true_w.items()
        }
        state.drift.observe(batch.timestamps, estimated, truth)
        shared = [name for name in truth if name in estimated]
        if not shared:
            return 0, 0
        est_total = estimated[shared[0]]
        true_total = truth[shared[0]]
        for name in shared[1:]:
            est_total = est_total + estimated[name]
            true_total = true_total + truth[name]
        scored = true_total > 0
        true_total = true_total[scored]
        errors = np.abs(est_total[scored] - true_total) / true_total * 100.0
        if errors.size:
            state.last_error_pct = float(errors[-1])
        good = int(np.count_nonzero(errors <= self.slo.error_bound_pct))
        return good, errors.size - good

    @staticmethod
    def _span(name: str, trace_id: "str | None", **attrs):
        """A tracing span on sampled payloads, else a free no-op."""
        if trace_id is None:
            return nullcontext()
        return obs.span(name, trace=trace_id, **attrs)

    def _observe_stage(self, stage: str, seconds: float, trace_id) -> None:
        if not (self.ops and obs.enabled()):
            return
        obs.observe(
            "serve_stage_seconds", seconds, {"stage": stage}, STAGE_BUCKETS
        )
        if trace_id is not None:
            self._stage_exemplar[stage] = trace_id

    # -- published documents -------------------------------------------

    def _node_states(self) -> "list[NodeState]":
        with self._nodes_lock:
            return list(self._nodes.values())

    @property
    def uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return self._clock() - self._started_monotonic

    def dead_shards(self) -> "list[int]":
        return [
            shard.index
            for shard in self.shards
            if shard.killed or (self.running and not shard.alive)
        ]

    def health(self) -> dict:
        """Liveness verdict merged into ``/healthz``.

        ``stale`` nodes or a fast-burning SLO make the service
        unhealthy (503 — estimates must not steer anything); dead
        shards alone are *degraded but serving* (200).
        """
        fresh, stale = self.staleness.sweep()
        burning = list(self.slo.fast_burning)
        drifting = sorted(
            state.node
            for state in self._node_states()
            if state.drift is not None and state.drift.firing
        )
        dead = self.dead_shards()
        healthy = not stale and not burning and not drifting
        status = "ok"
        if dead:
            status = "degraded"
        if stale or burning or drifting:
            status = "stale" if stale else "burning" if burning else "drifting"
        return {
            "status": status,
            "healthy": healthy,
            "nodes_fresh": len(fresh),
            "nodes_stale": len(stale),
            "stale_nodes": stale,
            "dead_shards": dead,
            "slo_fast_burn": burning,
            "drifting_nodes": drifting,
        }

    def nodes_document(self) -> dict:
        """The ``/nodes`` payload: per-node summary + fleet aggregate."""
        _, stale = self.staleness.sweep()
        stale_set = set(stale)
        nodes = []
        totals = []
        for state in sorted(self._node_states(), key=lambda s: s.node):
            age = self.staleness.age_s(state.node)
            is_stale = state.node in stale_set
            entry = {
                "node": state.node,
                "shard": state.shard,
                "n_samples": state.n_samples,
                "last_t": state.last_t,
                "age_s": None if age is None else round(age, 3),
                "stale": is_stale,
                "total_w": state.last_total_w,
                "error_pct": state.last_error_pct,
                "drift_firing": (
                    list(state.drift.firing) if state.drift is not None else []
                ),
            }
            nodes.append(entry)
            if not is_stale and state.last_total_w == state.last_total_w:
                totals.append(state.last_total_w)
        fleet = {
            "count": len(nodes),
            "fresh": len(nodes) - len(stale_set),
            "stale": len(stale_set),
        }
        if totals:
            arr = np.asarray(totals)
            fleet["power_w"] = {
                "sum": float(arr.sum()),
                "mean": float(arr.mean()),
                "min": float(arr.min()),
                "max": float(arr.max()),
            }
        return {"nodes": nodes, "fleet": fleet}

    def node_document(self, node: str) -> "dict | None":
        """The ``/nodes/<id>`` drill-down, or ``None`` when unknown."""
        with self._nodes_lock:
            state = self._nodes.get(node)
            if state is None:
                return None
            history = list(state.history)
            estimate = dict(state.last_estimate)
            attribution = state.attribution
            drift = state.drift
        age = self.staleness.age_s(node)
        return {
            "node": node,
            "shard": state.shard,
            "n_samples": state.n_samples,
            "last_t": state.last_t,
            "age_s": None if age is None else round(age, 3),
            "stale": self.staleness.is_stale(node),
            "estimate_w": estimate,
            "total_w": state.last_total_w,
            "error_pct": state.last_error_pct,
            "trace": state.last_trace_id,
            "attribution": attribution,
            "drift": drift.to_json() if drift is not None else None,
            "history": [[round(t, 6), w] for t, w in history],
        }

    def service_document(self) -> dict:
        """The ``/service`` payload: shards, stages, counters, SLOs."""
        shards = []
        for shard in self.shards:
            stats = shard.queue.stats()
            shards.append({
                "shard": shard.index,
                "alive": shard.alive,
                "killed": shard.killed,
                "batches": shard.batches_total,
                "samples": shard.samples_total,
                **stats,
            })
        return {
            "running": self.running,
            "uptime_s": round(self.uptime_s, 3),
            "shards": shards,
            "stages": self.stage_document(),
            "counters": {
                "samples_total": self.samples_total,
                "shed_samples_total": self.shed_samples_total,
                "decode_errors_total": self.decode_errors_total,
                "poison_samples_total": self.poison_samples_total,
            },
            "required_events": sorted(e.value for e in self.required_events),
            "slo": self.slo.check(),
            "staleness": self.staleness.to_json(),
            "health": self.health(),
        }

    def stage_document(self) -> dict:
        """Per-stage latency quantiles + exemplar trace IDs.

        Reads the ``serve_stage_seconds`` histograms straight from the
        obs registry; empty when telemetry is off.
        """
        from repro.obs.metrics import metric_key

        registry = obs.registry()
        stages = {}
        for stage in _STAGES:
            histogram = registry.histograms.get(
                metric_key("serve_stage_seconds", {"stage": stage})
            )
            if histogram is None or histogram.count == 0:
                continue
            stages[stage] = {
                "count": histogram.count,
                "p50_us": round(histogram.quantile(0.5) * 1e6, 1),
                "p95_us": round(histogram.quantile(0.95) * 1e6, 1),
                "p99_us": round(histogram.quantile(0.99) * 1e6, 1),
                "exemplar_trace": self._stage_exemplar.get(stage),
            }
        return stages

"""``repro.serve`` — the streaming estimation service.

The ROADMAP's "estimation-as-a-service" layer: a long-lived,
stdlib-only ingest service that turns the repo's batch trickle-down
pipeline into a live one.  Counter samples from many nodes stream in
as newline-JSON through one network door, HTTP POST ``/ingest`` (in
process, ``repro-power serve --replay``), sharded estimator workers
fold them through batched ``TrickleDownSuite.evaluate`` passes, and
per-node/fleet power, attribution and drift state publish live over
the existing :mod:`repro.obs` HTTP plane — which also carries the
service's own ops surface: stage spans, backpressure gauges,
staleness-aware ``/healthz`` and SLO burn-rate alerts.

Modules:

* :mod:`repro.serve.protocol` — the newline-JSON wire (single samples
  and columnar frames), with bit-exact float round-tripping;
* :mod:`repro.serve.queues`   — bounded shard queues that shed visibly
  under overload instead of OOMing;
* :mod:`repro.serve.staleness` — per-node liveness for ``/healthz``;
* :mod:`repro.serve.slo`      — error/freshness budgets with
  multiwindow burn-rate alerts firing the flight recorder;
* :mod:`repro.serve.service`  — :class:`EstimationService` itself.

Entry point: ``repro-power serve`` (see the CLI), load generator:
``scripts/load_ingest.py``.
"""

from repro.serve.protocol import (
    ProtocolError,
    SampleBatch,
    decode_line,
    decode_lines,
    encode_frame,
    encode_sample,
    frames_from_run,
    required_events,
)
from repro.serve.queues import BoundedQueue
from repro.serve.service import STAGE_BUCKETS, EstimationService, NodeState
from repro.serve.slo import DEFAULT_FAST_BURN_RATE, SLOEngine
from repro.serve.staleness import StalenessTracker

__all__ = [
    "BoundedQueue",
    "DEFAULT_FAST_BURN_RATE",
    "EstimationService",
    "NodeState",
    "ProtocolError",
    "STAGE_BUCKETS",
    "SLOEngine",
    "SampleBatch",
    "StalenessTracker",
    "decode_line",
    "decode_lines",
    "encode_frame",
    "encode_sample",
    "frames_from_run",
    "required_events",
]

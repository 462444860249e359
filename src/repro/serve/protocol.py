"""Wire protocol of the streaming estimation service.

Samples travel as **newline-delimited JSON**, one payload per line, in
two interchangeable shapes:

*Single sample* — one counter window from one node::

    {"node": "n3", "t": 12.0, "dur": 1.0,
     "counts": {"cycles": [1.2e9, 1.1e9, ...per-cpu...], ...},
     "true_w": {"cpu": 41.2, ...},          # optional, enables drift scoring
     "trace": "req-8f2"}                     # optional trace id

*Columnar frame* — a batch of consecutive windows from one node, with
``t``/``dur`` as arrays and each event as an ``(n_samples, n_cpus)``
nested list::

    {"node": "n3", "t": [12.0, 13.0], "dur": [1.0, 1.0],
     "counts": {"cycles": [[...], [...]], ...},
     "true_w": {"cpu": [41.2, 40.8], ...}}

Frames are the fast path: one ``json.loads`` amortises over the whole
batch, which is how the ``ingest_samples_per_s`` benchmark clears the
ROADMAP's 100k samples/s target.  Counter values are floats and the
encoder emits them with ``repr`` round-trip fidelity, so a decoded
frame reconstructs the original arrays **bit-identically** — the
foundation of the streamed-equals-batch guarantee in
``tests/test_serve.py``.

Both shapes normalise into :class:`SampleBatch`; decode is strict about
structure **and element types** (missing keys, ragged arrays, unknown
shapes, non-numeric or non-finite values, and non-positive ``dur`` raise
:class:`ProtocolError` — nothing that passes decode can blow up inside
``evaluate``) but lenient about extra events — nodes may ship their
full counter set and the service keeps only what the suite's features
consume.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.events import Event

__all__ = [
    "ProtocolError",
    "SampleBatch",
    "decode_line",
    "decode_lines",
    "encode_frame",
    "encode_sample",
    "frames_from_run",
    "required_events",
]


class ProtocolError(ValueError):
    """A payload line that does not parse into a :class:`SampleBatch`."""


@dataclass
class SampleBatch:
    """One decoded payload: ``n`` consecutive windows from one node.

    ``counts`` values are ``(n, n_cpus)`` float arrays — decode pays
    the one ``np.asarray`` per event (which doubles as the numeric
    validation) so the shard workers can concatenate queued batches
    straight into an evaluate pass.
    """

    node: str
    timestamps: "list[float]"
    durations: "list[float]"
    counts: "dict[Event, np.ndarray]"
    true_w: "dict[str, list[float]] | None" = None
    trace_id: "str | None" = None
    #: Stamped by the service at enqueue time (monotonic seconds) so the
    #: shard worker can histogram queue wait.
    enqueued_monotonic: float = field(default=0.0, compare=False)

    @property
    def n_samples(self) -> int:
        return len(self.timestamps)


def required_events(suite) -> "frozenset[Event]":
    """Events the suite's features actually consume.

    The lean wire set: replayed nodes need only ship these (7 of the 24
    simulated events for the paper recipe), which roughly halves both
    payload bytes and decode time versus the full counter set.
    """
    events: "set[Event]" = set()
    for model in suite.models.values():
        for feature in getattr(model, "features", ()) or ():
            events.update(getattr(feature, "events", ()) or ())
    return frozenset(events)


def _as_float_list(value, *, what: str) -> "list[float]":
    if not isinstance(value, list) or not value:
        raise ProtocolError(f"{what} must be a non-empty array")
    # sum() is a C-speed sweep: a str/None/list element raises
    # TypeError, an integer too large for a float OverflowError, and
    # any NaN/Infinity poisons the total.
    try:
        total = sum(value, 0.0)
    except (TypeError, OverflowError):
        raise ProtocolError(f"{what} must contain only finite numbers") from None
    if not math.isfinite(total):
        raise ProtocolError(f"{what} must contain only finite numbers")
    return value


def decode_line(
    line: str,
    keep_events: "frozenset[Event] | None" = None,
) -> SampleBatch:
    """Decode one newline-JSON payload (single sample or frame).

    Args:
        line: one JSON document (no trailing newline required).
        keep_events: when given, only these events are retained and a
            payload missing any of them is rejected — the service
            passes its suite's :func:`required_events` so malformed
            input fails at the door instead of inside ``evaluate``.
    """
    # Beyond malformed JSON (JSONDecodeError, a ValueError), an integer
    # past the int-to-str digit limit raises a plain ValueError and deep
    # nesting RecursionError.
    try:
        raw = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"payload is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ProtocolError("payload must be a JSON object")
    try:
        node = raw["node"]
        t = raw["t"]
        dur = raw["dur"]
        counts_raw = raw["counts"]
    except KeyError as exc:
        raise ProtocolError(f"payload missing key {exc.args[0]!r}") from None
    if not isinstance(node, str) or not node:
        raise ProtocolError("node must be a non-empty string")
    if not isinstance(counts_raw, dict) or not counts_raw:
        raise ProtocolError("counts must be a non-empty object")

    columnar = isinstance(t, list)
    if columnar:
        timestamps = _as_float_list(t, what="t")
        durations = _as_float_list(dur, what="dur")
        if len(durations) != len(timestamps):
            raise ProtocolError("t and dur must have the same length")
    else:
        for what, value in (("t", t), ("dur", dur)):
            try:
                finite = isinstance(value, (int, float)) and math.isfinite(value)
            except OverflowError:  # an integer too large for a float
                finite = False
            if not finite:
                raise ProtocolError(f"{what} must be a finite number")
        timestamps = [t]
        durations = [dur]
    if min(durations) <= 0:
        raise ProtocolError("dur must be positive")
    n = len(timestamps)

    counts: "dict[Event, np.ndarray]" = {}
    n_cpus = -1
    for name, rows in counts_raw.items():
        try:
            event = Event(name)
        except ValueError:
            continue  # unknown event: tolerated, dropped
        if keep_events is not None and event not in keep_events:
            continue
        if not columnar:
            rows = [rows]
        if not isinstance(rows, list) or len(rows) != n:
            raise ProtocolError(
                f"counts[{name!r}] must have {n} rows to match t"
            )
        # One asarray per event both converts for evaluate *and*
        # validates: ragged rows and non-numeric elements raise here,
        # never inside a shard worker.
        try:
            array = np.asarray(rows, dtype=float)
        except (TypeError, ValueError):
            raise ProtocolError(
                f"counts[{name!r}] rows must be equal-width arrays of numbers"
            ) from None
        except OverflowError:  # an integer too large for a float
            raise ProtocolError(
                f"counts[{name!r}] values must be finite numbers"
            ) from None
        if array.ndim != 2 or array.shape[1] < 1:
            raise ProtocolError(
                f"counts[{name!r}] rows must be equal-width arrays of numbers"
            )
        if not np.isfinite(array).all():
            raise ProtocolError(f"counts[{name!r}] values must be finite numbers")
        width = array.shape[1]
        if n_cpus < 0:
            n_cpus = width
        elif width != n_cpus:
            raise ProtocolError("all events must report the same cpu count")
        counts[event] = array
    if keep_events is not None:
        missing = keep_events - counts.keys()
        if missing:
            raise ProtocolError(
                "payload missing required events: "
                + ", ".join(sorted(e.value for e in missing))
            )
    if not counts:
        raise ProtocolError("payload carried no known events")

    true_w = raw.get("true_w")
    if true_w is not None:
        if not isinstance(true_w, dict):
            raise ProtocolError("true_w must be an object")
        if not columnar:
            true_w = {k: [v] for k, v in true_w.items()}
        for key, series in true_w.items():
            if not isinstance(series, list) or len(series) != n:
                raise ProtocolError(
                    f"true_w[{key!r}] must have {n} entries to match t"
                )
            _as_float_list(series, what=f"true_w[{key!r}]")

    trace_id = raw.get("trace")
    return SampleBatch(
        node=node,
        timestamps=timestamps,
        durations=durations,
        counts=counts,
        true_w=true_w,
        trace_id=trace_id if isinstance(trace_id, str) else None,
    )


def decode_lines(
    data: str,
    keep_events: "frozenset[Event] | None" = None,
) -> "tuple[list[SampleBatch], list[str]]":
    """Decode a newline-JSON body; returns ``(batches, errors)``.

    Blank lines are skipped; each bad line contributes one error string
    and does not poison the rest of the body (per-line isolation is the
    shedding policy's decode-stage analogue).
    """
    batches: "list[SampleBatch]" = []
    errors: "list[str]" = []
    for line in data.splitlines():
        if not line.strip():
            continue
        try:
            batches.append(decode_line(line, keep_events))
        except ProtocolError as exc:
            errors.append(str(exc))
    return batches, errors


# -- encoding (replay / load generation) --------------------------------


def encode_sample(
    node: str,
    timestamp: float,
    duration: float,
    counts: "dict[Event, list[float]]",
    true_w: "dict[str, float] | None" = None,
    trace_id: "str | None" = None,
) -> str:
    """One single-sample payload line (no trailing newline)."""
    doc: dict = {
        "node": node,
        "t": timestamp,
        "dur": duration,
        "counts": {e.value: row for e, row in counts.items()},
    }
    if true_w is not None:
        doc["true_w"] = true_w
    if trace_id is not None:
        doc["trace"] = trace_id
    return json.dumps(doc, separators=(",", ":"))


def encode_frame(
    node: str,
    timestamps: "list[float]",
    durations: "list[float]",
    counts: "dict[Event, list[list[float]]]",
    true_w: "dict[str, list[float]] | None" = None,
    trace_id: "str | None" = None,
) -> str:
    """One columnar frame payload line (no trailing newline)."""
    doc: dict = {
        "node": node,
        "t": timestamps,
        "dur": durations,
        "counts": {e.value: rows for e, rows in counts.items()},
    }
    if true_w is not None:
        doc["true_w"] = true_w
    if trace_id is not None:
        doc["trace"] = trace_id
    return json.dumps(doc, separators=(",", ":"))


def frames_from_run(
    run,
    node: str,
    frame_samples: int = 64,
    events: "frozenset[Event] | None" = None,
    include_truth: bool = True,
) -> "list[str]":
    """Encode a :class:`~repro.core.traces.MeasuredRun` as frame lines.

    The replay path of ``repro-power serve`` and the load generator both
    use this: a simulated run becomes the stream a real node would emit.
    ``events`` restricts the wire to the lean set (see
    :func:`required_events`); truth watts ride along so the service can
    score drift exactly as the batch pipeline would.
    """
    trace = run.counters
    chosen = [e for e in trace.counts if events is None or e in events]
    timestamps = trace.timestamps.tolist()
    durations = trace.durations.tolist()
    columns = {e: trace.counts[e].tolist() for e in chosen}
    truth = (
        {s.value: v.tolist() for s, v in run.power.watts.items()}
        if include_truth and getattr(run, "power", None) is not None
        else None
    )
    lines = []
    for start in range(0, len(timestamps), max(1, frame_samples)):
        stop = start + max(1, frame_samples)
        lines.append(
            encode_frame(
                node,
                timestamps[start:stop],
                durations[start:stop],
                {e: rows[start:stop] for e, rows in columns.items()},
                true_w=(
                    {k: v[start:stop] for k, v in truth.items()}
                    if truth is not None
                    else None
                ),
            )
        )
    return lines

"""Alert-triggered flight recorder: post-mortem bundles for red runs.

A drift alert (or a dead sweep, or a crash) is only actionable if you
can answer "what was the system doing in the 30 s before it fired".
:class:`FlightRecorder` keeps that answer in memory the whole time — a
bounded, thread-safe ring of recent frames (per-window power samples
with their per-term :class:`~repro.obs.attribution.Attribution`
vectors) — and on a trigger writes a **self-contained bundle**:

* ``bundle.json`` — trigger reason/detail, the frame ring, the drift
  monitor's full alert state, the last N
  :class:`~repro.obs.live.WindowedRegistry` windows, the trace-event
  tail and the latest attribution, plus provenance (git sha, host);
* ``metrics.prom`` — the registry's Prometheus text at dump time.

Triggers (all funnel into :meth:`FlightRecorder.trigger`):

* the :class:`~repro.obs.live.LiveMonitor` on a firing
  :class:`~repro.obs.drift.DriftMonitor` transition;
* the sweep engine on permanent spec failures (``SweepError`` /
  partial results) via the module-global recorder;
* an unhandled exception out of a ``repro-power`` command run with
  ``--flight-dir``;
* an explicit request — ``GET /flightrecorder?dump=1`` on the
  :class:`~repro.obs.http.ObservabilityServer`, the CLI's global
  ``--flight-dir``, or CI's ``REPRO_FLIGHT_DIR`` convention
  (:func:`dump_failure_bundle`).

Bundles are plain JSON: ``repro-power explain --bundle PATH``
pretty-prints one from a fresh process (:func:`load_bundle`).
Recording is cheap (append to a deque under a lock, once per sampler
window, never per tick) and everything here is stdlib-only.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import deque
from typing import Any

__all__ = [
    "FlightRecorder",
    "load_bundle",
    "set_global",
    "get_global",
    "clear_global",
    "trigger_global",
    "dump_failure_bundle",
    "FLIGHT_DIR_ENV",
]

#: Environment variable naming a bundle directory for CI failure dumps.
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"

#: Bundle artifact filenames.
BUNDLE_JSON = "bundle.json"
BUNDLE_METRICS = "metrics.prom"

#: Default ring capacity (frames).  At one frame per 5 s live window
#: this is ~20 minutes of history.
DEFAULT_CAPACITY = 256

#: How many registry windows / trace events a bundle carries.
DEFAULT_LAST_WINDOWS = 12
DEFAULT_TRACE_TAIL = 200

#: Hard cap on bundles per recorder — a flapping alert must not fill
#: the disk with near-identical dumps.
DEFAULT_MAX_BUNDLES = 16


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", text).strip("-").lower() or "trigger"


class FlightRecorder:
    """Bounded ring of recent observability state + bundle dumps.

    ``out_dir`` is where bundles land; with ``out_dir=None`` the
    recorder still records (and serves ``/flightrecorder``) but
    :meth:`trigger` only logs the request.  ``drift``/``windows`` are
    attached by whoever owns them (the CLI's endpoint bring-up) so the
    bundle can include alert state and recent windows; both are
    optional.
    """

    def __init__(
        self,
        out_dir: "str | None" = None,
        capacity: int = DEFAULT_CAPACITY,
        drift: Any = None,
        windows: Any = None,
        registry: Any = None,
        tracer: Any = None,
        last_windows: int = DEFAULT_LAST_WINDOWS,
        trace_tail: int = DEFAULT_TRACE_TAIL,
        max_bundles: int = DEFAULT_MAX_BUNDLES,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_bundles < 1:
            raise ValueError("max_bundles must be >= 1")
        self.out_dir = out_dir
        self.drift = drift
        self.windows = windows
        self._registry = registry
        self._tracer = tracer
        self.last_windows = int(last_windows)
        self.trace_tail = int(trace_tail)
        self.max_bundles = int(max_bundles)
        self._frames: "deque[dict]" = deque(maxlen=int(capacity))
        self._lock = threading.RLock()
        self._latest_attribution = None
        self._seq = 0
        self.bundles: "list[str]" = []

    # -- recording -----------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._frames.maxlen or 0

    def record(self, now_s: float, attribution: Any = None, **attrs) -> None:
        """Append one frame (typically once per live window)."""
        frame: dict = {"t_s": float(now_s)}
        frame.update(attrs)
        if attribution is not None:
            frame["attribution"] = attribution.to_dict()
        with self._lock:
            if attribution is not None:
                self._latest_attribution = attribution
            self._frames.append(frame)

    def note(self, message: str, **attrs) -> None:
        """Append an annotation frame (wall-clocked; e.g. a failed
        test's node id from the CI hooks)."""
        self.record(time.time(), kind="note", message=message, **attrs)

    def frames(self) -> "list[dict]":
        with self._lock:
            return list(self._frames)

    @property
    def latest_attribution(self):
        with self._lock:
            return self._latest_attribution

    # -- documents -----------------------------------------------------

    def attribution_document(self) -> dict:
        """The ``/attribution`` endpoint's JSON document."""
        latest = self.latest_attribution
        return {"attribution": None if latest is None else latest.to_dict()}

    def to_json(self) -> dict:
        """Status summary (the ``/flightrecorder`` endpoint)."""
        with self._lock:
            return {
                "out_dir": self.out_dir,
                "capacity": self.capacity,
                "n_frames": len(self._frames),
                "max_bundles": self.max_bundles,
                "bundles": list(self.bundles),
                "has_attribution": self._latest_attribution is not None,
            }

    def bundle_document(self, reason: str, detail: Any = None) -> dict:
        """The full post-mortem document a trigger writes out."""
        from repro import obs

        tracer = self._tracer if self._tracer is not None else obs.tracer()
        latest = self.latest_attribution
        doc = {
            "kind": "repro-flight-bundle",
            "reason": reason,
            "detail": detail,
            "provenance": obs.provenance(),
            "frames": self.frames(),
            "trace_tail": tracer.events_tail(self.trace_tail),
            "attribution": None if latest is None else latest.to_dict(),
            "drift": None,
            "windows": None,
        }
        if self.drift is not None:
            doc["drift"] = self.drift.to_json()
        if self.windows is not None:
            doc["windows"] = self.windows.to_json(last=self.last_windows)
        return doc

    # -- dumping -------------------------------------------------------

    def trigger(self, reason: str, detail: Any = None) -> "str | None":
        """Dump a bundle; returns its directory (None when disabled,
        over the bundle cap, or the write failed)."""
        from repro import obs

        with self._lock:
            self._seq += 1
            seq = self._seq
            capped = len(self.bundles) >= self.max_bundles
        if self.out_dir is None or capped:
            obs.event(
                "flight.trigger_dropped", reason=reason, capped=capped
            )
            return None
        directory = os.path.join(
            self.out_dir, f"flight-{seq:03d}-{_slug(reason)}"
        )
        registry = self._registry if self._registry is not None else obs.registry()
        try:
            os.makedirs(directory, exist_ok=True)
            with open(
                os.path.join(directory, BUNDLE_JSON), "w", encoding="utf-8"
            ) as handle:
                json.dump(
                    self.bundle_document(reason, detail),
                    handle,
                    indent=2,
                    default=str,
                )
                handle.write("\n")
            with open(
                os.path.join(directory, BUNDLE_METRICS), "w", encoding="utf-8"
            ) as handle:
                handle.write(registry.to_prometheus())
        except OSError:
            return None
        with self._lock:
            self.bundles.append(directory)
        obs.inc("flight_bundles_total")
        obs.event("flight.dump", reason=reason, path=directory)
        return directory


# -- module-global recorder --------------------------------------------
#
# Call sites that cannot thread a recorder through their API (the
# sweep engine deep inside a retry loop, pytest hooks, smoke scripts)
# use one process-global instance, set by whoever owns the run.

_global: "FlightRecorder | None" = None
_global_lock = threading.Lock()


def set_global(recorder: "FlightRecorder | None") -> "FlightRecorder | None":
    """Install the process-global recorder; returns the previous one."""
    global _global
    with _global_lock:
        previous, _global = _global, recorder
    return previous


def get_global() -> "FlightRecorder | None":
    return _global


def clear_global() -> None:
    set_global(None)


def trigger_global(reason: str, detail: Any = None) -> "str | None":
    """Dump through the global recorder, if one is installed."""
    recorder = _global
    if recorder is None:
        return None
    return recorder.trigger(reason, detail)


def dump_failure_bundle(
    reason: str, detail: Any = None, out_dir: "str | None" = None
) -> "str | None":
    """Best-effort CI hook: dump a bundle if ``REPRO_FLIGHT_DIR`` (or
    ``out_dir``) names a directory.  Used by the smoke scripts on gate
    failures so a red job uploads its own post-mortem."""
    directory = out_dir or os.environ.get(FLIGHT_DIR_ENV)
    recorder = get_global()
    if recorder is None:
        if not directory:
            return None
        recorder = FlightRecorder(out_dir=directory)
    elif recorder.out_dir is None:
        recorder.out_dir = directory
    try:
        return recorder.trigger(reason, detail)
    except Exception:
        return None


# -- bundle loading ----------------------------------------------------


def load_bundle(path: str) -> dict:
    """Read a bundle written by :meth:`FlightRecorder.trigger`.

    Accepts the bundle directory or the ``bundle.json`` inside it;
    raises ``FileNotFoundError``/``ValueError`` on non-bundles.
    """
    if os.path.isdir(path):
        path = os.path.join(path, BUNDLE_JSON)
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("kind") != "repro-flight-bundle":
        raise ValueError(f"{path} is not a flight-recorder bundle")
    return doc

"""Online drift monitoring: EWMA residuals against the paper's SLO.

Counter-based power models are only trustworthy in production while
their residuals are watched (Mazzola et al., 2024).  The paper's own
quality bound — Tables 3-4 hold the *average* per-subsystem estimation
error under 9 % — makes a natural service-level objective for a
long-running estimator: if the smoothed |estimated − true| / true error
of any subsystem climbs past that bound, the model has drifted from the
machine it was calibrated on and its numbers should stop steering
power-down decisions.

:class:`DriftMonitor` implements that check as a streaming state
machine.  Each observed window updates one exponentially-weighted
moving average per subsystem (plus a ``total`` stream over the summed
power); a stream **fires** when its EWMA exceeds the SLO after a
minimum number of windows, and **resolves** once it falls back below
``resolve_ratio × slo`` (hysteresis, so a stream hovering at the
threshold cannot flap).  Transitions are returned to the caller and —
when telemetry is enabled — emitted as structured ``drift.alert`` trace
events and ``drift_*`` metrics, so they appear in ``trace.jsonl`` and
on the live ``/alerts`` endpoint.

The monitor is deterministic: it owns no clock and no randomness, every
timestamp comes from the caller (simulation time in practice), so a
fixed-seed run produces the identical alert sequence.  One lock guards
its state: :meth:`~DriftMonitor.observe` holds it and every read takes
it, so an HTTP thread may read while the loop observes.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import obs

#: Tables 3-4 bound: average per-subsystem error stays under 9 %.
DEFAULT_SLO_PCT = 9.0

#: Guard denominator for residuals against a near-zero true power.
_EPS_W = 1.0e-9


def locked(method):
    """Run ``method`` holding its object's ``_lock`` (an ``RLock``)."""

    @functools.wraps(method)
    def holding(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return holding


@dataclass(frozen=True)
class DriftAlert:
    """One alert-state transition of one subsystem stream."""

    subsystem: str
    state: str  #: ``"firing"`` or ``"resolved"``
    error_pct: float  #: the stream's EWMA error at the transition
    threshold_pct: float  #: the bound that was crossed
    timestamp_s: float  #: caller-supplied (simulation) time
    window: int  #: how many windows the stream had seen
    #: The top-|watts| attribution terms of the stream at transition
    #: time (``(term, watts)`` pairs) — present when the caller fed an
    #: :class:`~repro.obs.attribution.Attribution` to ``observe()``,
    #: so an alert names its likely offenders without a second query.
    top_terms: "tuple[tuple[str, float], ...]" = ()

    @property
    def stream(self) -> str:
        """The monitor's name for the stream (its ``firing`` entry)."""
        return self.subsystem

    def to_dict(self) -> dict:
        return {
            "subsystem": self.subsystem,
            "state": self.state,
            "error_pct": self.error_pct,
            "threshold_pct": self.threshold_pct,
            "timestamp_s": self.timestamp_s,
            "window": self.window,
            "top_terms": [[term, watts] for term, watts in self.top_terms],
        }


class _Stream:
    """EWMA + alert state of one subsystem."""

    __slots__ = ("ewma", "windows", "firing")

    def __init__(self) -> None:
        self.ewma = 0.0
        self.windows = 0
        self.firing = False


class DriftMonitor:
    """Streams per-subsystem residuals through EWMA + threshold alerts.

    Args:
        slo_pct: firing threshold on the EWMA percentage error
            (default: the paper's 9 % average-error bound).
        alpha: EWMA smoothing factor in (0, 1]; 1 disables smoothing.
        min_windows: windows a stream must have seen before it may fire
            (the first EWMA samples are dominated by the initialisation).
        resolve_ratio: a firing stream resolves when its EWMA drops
            below ``resolve_ratio * slo_pct`` (hysteresis; < 1).
        max_history: transitions kept for :meth:`history` / ``/alerts``.
    """

    def __init__(
        self,
        slo_pct: float = DEFAULT_SLO_PCT,
        alpha: float = 0.25,
        min_windows: int = 3,
        resolve_ratio: float = 0.8,
        max_history: int = 256,
    ) -> None:
        if not (slo_pct > 0 and math.isfinite(slo_pct)):
            raise ValueError("slo_pct must be positive and finite")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if min_windows < 1:
            raise ValueError("min_windows must be >= 1")
        if not 0.0 < resolve_ratio <= 1.0:
            raise ValueError("resolve_ratio must be in (0, 1]")
        self.slo_pct = float(slo_pct)
        self.alpha = float(alpha)
        self.min_windows = int(min_windows)
        self.resolve_ratio = float(resolve_ratio)
        self._streams: "dict[str, _Stream]" = {}
        self._history: "deque[DriftAlert]" = deque(maxlen=max_history)
        #: Every transition ever made; the history keeps the newest.
        self.n_transitions = 0
        self._lock = threading.RLock()

    # -- observation ---------------------------------------------------

    @staticmethod
    def _name(subsystem) -> str:
        return getattr(subsystem, "value", None) or str(subsystem)

    @locked
    def observe(
        self,
        timestamp_s,
        estimated_w: "dict",
        true_w: "dict",
        attribution=None,
    ) -> "list[DriftAlert]":
        """Feed one window, or a frame of consecutive windows, of
        per-subsystem power; returns the transitions.

        ``estimated_w`` and ``true_w`` map subsystems (enum members or
        plain strings) to Watts; only subsystems present in **both**
        dicts are compared.  A synthetic ``total`` stream over the
        summed power of the shared subsystems is always maintained.

        A frame passes ``timestamp_s`` as a length-n sequence and every
        watt value as a length-n column.  It is n single-window calls
        in one: the same EWMAs, transitions and history, in the same
        order, except that the ``drift_*`` gauges are written once per
        call, with their final values.

        ``attribution`` (optional) is the window's per-term watt
        decomposition; any transition it produces then carries that
        stream's top-3 offending terms (the ``total`` stream gets
        namespaced ``subsystem/term`` labels).
        """
        times = np.asarray(timestamp_s, dtype=float)
        if times.ndim > 1:
            raise ValueError("timestamp_s must be a number or a 1-d sequence")
        if times.ndim and attribution is not None:
            raise ValueError("attribution describes one window, not a frame")
        estimated = {self._name(s): w for s, w in estimated_w.items()}
        true = {self._name(s): w for s, w in true_w.items()}
        names = [name for name in true if name in estimated]
        if not names or not times.size:
            return []
        est = np.asarray([estimated[name] for name in names], dtype=float)
        act = np.asarray([true[name] for name in names], dtype=float)
        if not est.shape == act.shape == (len(names),) + times.shape:
            raise ValueError(
                "every watt value must match timestamp_s in shape "
                f"{times.shape}"
            )
        # The total stream adds the shared subsystems one by one in
        # shared order (accumulate is sequential), the float
        # association of a per-window sum() over them.
        names.append("total")
        rows = (len(names), times.size)
        est = np.concatenate([est, np.add.accumulate(est)[-1:]]).reshape(rows)
        act = np.concatenate([act, np.add.accumulate(act)[-1:]]).reshape(rows)
        errors = np.abs(est - act) / np.maximum(np.abs(act), _EPS_W) * 100.0
        top_terms: "list[tuple[tuple[str, float], ...]]" = [()] * len(names)
        if attribution is not None:
            top_terms = [
                tuple(
                    attribution.top_terms(None if name == "total" else name, n=3)
                )
                for name in names
            ]
        streams = list(zip(names, top_terms))
        transitions: "list[DriftAlert]" = []
        # Window-major: window i of every stream before window i + 1,
        # so transitions and history order exactly as n single calls.
        for t, row in zip(times.reshape(-1).tolist(), errors.T.tolist()):
            for (name, terms), error_pct in zip(streams, row):
                transition = self._update(name, error_pct, t, terms)
                if transition is not None:
                    transitions.append(transition)
        if obs.enabled():
            for name in names:
                stream = self._streams[name]
                labels = {"subsystem": name}
                obs.gauge("drift_error_pct", stream.ewma, labels)
                obs.gauge(
                    "drift_alert_active", 1.0 if stream.firing else 0.0, labels
                )
        return transitions

    def _update(
        self,
        name: str,
        error_pct: float,
        timestamp_s: float,
        top_terms: "tuple[tuple[str, float], ...]" = (),
    ) -> "DriftAlert | None":
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = _Stream()
        if stream.windows == 0:
            stream.ewma = error_pct  # seed: no decay toward a fake zero
        else:
            stream.ewma += self.alpha * (error_pct - stream.ewma)
        stream.windows += 1

        transition: "DriftAlert | None" = None
        if (
            not stream.firing
            and stream.windows >= self.min_windows
            and stream.ewma > self.slo_pct
        ):
            stream.firing = True
            transition = self._transition(
                stream, name, "firing", self.slo_pct, timestamp_s, top_terms
            )
        elif stream.firing and stream.ewma < self.slo_pct * self.resolve_ratio:
            stream.firing = False
            transition = self._transition(
                stream,
                name,
                "resolved",
                self.slo_pct * self.resolve_ratio,
                timestamp_s,
                top_terms,
            )
        return transition

    def _transition(
        self,
        stream: _Stream,
        name: str,
        state: str,
        threshold_pct: float,
        timestamp_s: float,
        top_terms: "tuple[tuple[str, float], ...]" = (),
    ) -> DriftAlert:
        alert = DriftAlert(
            subsystem=name,
            state=state,
            error_pct=stream.ewma,
            threshold_pct=threshold_pct,
            timestamp_s=timestamp_s,
            window=stream.windows,
            top_terms=top_terms,
        )
        self._history.append(alert)
        self.n_transitions += 1
        obs.inc("drift_alerts_total", 1.0, {"subsystem": name, "state": state})
        obs.event(
            "drift.alert",
            subsystem=name,
            state=state,
            error_pct=stream.ewma,
            threshold_pct=threshold_pct,
            sim_time_s=timestamp_s,
            top_terms=[[term, watts] for term, watts in top_terms],
        )
        return alert

    # -- inspection ----------------------------------------------------

    @property
    @locked
    def firing(self) -> "tuple[str, ...]":
        """Names of streams currently in the firing state."""
        return tuple(
            sorted(name for name, s in self._streams.items() if s.firing)
        )

    @locked
    def error_pct(self, subsystem) -> float:
        """Current EWMA error of one stream (NaN before any window)."""
        stream = self._streams.get(self._name(subsystem))
        if stream is None or stream.windows == 0:
            return float("nan")
        return stream.ewma

    @locked
    def history(self) -> "list[DriftAlert]":
        """Every recorded transition, oldest first."""
        return list(self._history)

    @locked
    def unresolved(self) -> "list[DriftAlert]":
        """The latest *firing* transition of each currently-firing
        stream — what a ``/healthz`` 503 body lists."""
        latest: "dict[str, DriftAlert]" = {}
        for alert in self._history:
            if alert.state == "firing":
                latest[alert.subsystem] = alert
        return [latest[name] for name in self.firing if name in latest]

    @locked
    def to_json(self) -> dict:
        """The ``/alerts`` document: configuration, state, history."""
        return {
            "slo_pct": self.slo_pct,
            "alpha": self.alpha,
            "min_windows": self.min_windows,
            "resolve_ratio": self.resolve_ratio,
            "firing": list(self.firing),
            "streams": {
                name: {
                    "error_pct": stream.ewma,
                    "windows": stream.windows,
                    "firing": stream.firing,
                }
                for name, stream in sorted(self._streams.items())
            },
            "history": [alert.to_dict() for alert in self._history],
        }

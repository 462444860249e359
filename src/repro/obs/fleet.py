"""Fleet-scale observability: every lane watched in batched passes.

PR 6's :class:`~repro.simulator.fleet.FleetServer` steps hundreds of
servers per numpy pass, but the scalar live stack
(:class:`~repro.obs.live.LiveMonitor` + one
:class:`~repro.obs.drift.DriftMonitor` per server) would undo that
batching: N monitors mean N single-sample estimator calls and N python
EWMA updates per sampling period.  This module is the vectorized
counterpart:

* :class:`FleetMonitor` — the one way fleet lanes are watched — hooks
  the fleet tick loop **once** (the disabled path stays one
  ``is not None`` check), captures each closing lane's counter snapshot
  and true energy delta per pulse, and defers the heavy work: one
  batched :meth:`TrickleDownSuite.evaluate` design-matrix pass over all
  pending windows per :meth:`FleetMonitor.flush`;
* :class:`FleetDriftMonitor` keeps per-lane, per-subsystem EWMA /
  window / firing state as ``(width,)`` arrays per stream and applies
  exactly the scalar :class:`DriftMonitor` update rule elementwise —
  same 9 % SLO, same ``min_windows`` arming, same ``resolve_ratio``
  hysteresis — so a width-W fleet produces the same alert transitions
  as W independent scalar monitors (property-tested in
  ``tests/test_fleet_obs.py``);
* :class:`LaneBoard` retains each lane's latest window comparison and a
  bounded history for the ``/fleet/lane/<i>`` drill-down;
* :func:`publish_lane_aggregates` publishes cross-lane min / mean /
  p50 / p95 / max gauges — shared by the fleet plane and the
  cluster's per-node rollup.

Everything is clocked by the caller (simulation time), so fixed seeds
give identical windows, EWMAs and alerts.  :class:`FleetDriftMonitor`
and :class:`FleetMonitor` each hold one lock while they update and take
it for every read, so the ``/fleet*`` and ``/alerts`` routes may read
while the loop flushes.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.events import SUBSYSTEMS
from repro.obs.drift import DEFAULT_SLO_PCT, DriftAlert, _EPS_W, locked

#: Cross-lane aggregate labels published by :func:`publish_lane_aggregates`.
AGGREGATES = ("min", "mean", "p50", "p95", "max")

#: Default per-lane drill-down history (windows kept per lane).
DEFAULT_LANE_HISTORY = 32

#: Default offender count for ``/fleet/lanes``.
DEFAULT_TOP_LANES = 8


def _lane_array(lanes, width: int) -> np.ndarray:
    """``lanes`` as an int64 array; a lane outside ``[0, width)`` raises
    :class:`IndexError` (unchecked, -1 would alias the last lane)."""
    lanes = np.asarray(lanes, dtype=np.int64)
    if lanes.size and (lanes.min() < 0 or lanes.max() >= width):
        raise IndexError(f"lanes must lie in [0, {width - 1}] for width {width}")
    return lanes


def _aggregates(values) -> "dict[str, float]":
    """min/mean/p50/p95/max of the non-NaN values (``{}`` if none)."""
    values = np.asarray(values, dtype=float)
    values = values[~np.isnan(values)]
    if values.size == 0:
        return {}
    return {
        "min": float(values.min()),
        "mean": float(values.mean()),
        "p50": float(np.percentile(values, 50.0)),
        "p95": float(np.percentile(values, 95.0)),
        "max": float(values.max()),
    }


@dataclass(frozen=True)
class LaneDriftAlert(DriftAlert):
    """A :class:`DriftAlert` that knows which fleet lane it belongs to."""

    lane: int = -1

    @property
    def stream(self) -> str:
        return f"{self.subsystem}[{self.lane}]"

    def to_dict(self) -> dict:
        doc = super().to_dict()
        doc["lane"] = self.lane
        return doc


class _LaneStream:
    """One subsystem's per-lane EWMA state (``(width,)`` arrays)."""

    __slots__ = ("ewma", "windows", "firing")

    def __init__(self, width: int) -> None:
        self.ewma = np.zeros(width)
        self.windows = np.zeros(width, dtype=np.int64)
        self.firing = np.zeros(width, dtype=bool)


class FleetDriftMonitor:
    """The scalar :class:`DriftMonitor` update rule, vectorized per lane.

    Per stream (subsystem plus the synthetic ``total``), the EWMA /
    window-count / firing state of every lane lives in one ``(width,)``
    array; :meth:`observe` updates a batch of lanes with the identical
    elementwise arithmetic the scalar monitor applies (seed-on-first-
    window, ``ewma += alpha * (err - ewma)``, arm after ``min_windows``,
    fire above ``slo_pct``, resolve below ``resolve_ratio * slo_pct``),
    so lane ``i``'s state is bit-identical to a scalar monitor fed lane
    ``i``'s windows in the same order.

    The inspection surface mirrors the scalar monitor's — ``firing``,
    ``unresolved()``, ``history()``, ``to_json()`` — with stream names
    qualified as ``"<subsystem>[<lane>]"`` so the alert manager reads
    both alike.
    """

    def __init__(
        self,
        width: int,
        slo_pct: float = DEFAULT_SLO_PCT,
        alpha: float = 0.25,
        min_windows: int = 3,
        resolve_ratio: float = 0.8,
        max_history: int = 1024,
    ) -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        if not (slo_pct > 0 and math.isfinite(slo_pct)):
            raise ValueError("slo_pct must be positive and finite")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if min_windows < 1:
            raise ValueError("min_windows must be >= 1")
        if not 0.0 < resolve_ratio <= 1.0:
            raise ValueError("resolve_ratio must be in (0, 1]")
        self.width = int(width)
        self.slo_pct = float(slo_pct)
        self.alpha = float(alpha)
        self.min_windows = int(min_windows)
        self.resolve_ratio = float(resolve_ratio)
        self._streams: "dict[str, _LaneStream]" = {}
        self._history: "deque[LaneDriftAlert]" = deque(maxlen=max_history)
        #: Every transition ever made, in all and by state; the history
        #: keeps the newest.
        self.n_transitions = 0
        self.n_by_state = {"firing": 0, "resolved": 0}
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
        lanes: "np.ndarray | None" = None,
    ) -> "list[LaneDriftAlert]":
        """Feed one window per lane of a lane batch; returns transitions.

        ``estimated_w`` / ``true_w`` map subsystems to ``(k,)`` watt
        arrays, one entry per lane in ``lanes`` (default: all lanes).
        ``timestamp_s`` is a scalar or a ``(k,)`` array of per-lane
        window-close times.  Each lane must appear at most once per
        call (else :class:`ValueError`); feed successive windows of a
        lane through successive calls (the update order is what the
        scalar equivalence rests on).  A lane outside ``[0, width)``
        raises :class:`IndexError`.
        """
        estimated = {
            self._name(s): np.asarray(w, dtype=float)
            for s, w in estimated_w.items()
        }
        true = {
            self._name(s): np.asarray(w, dtype=float) for s, w in true_w.items()
        }
        shared = [name for name in true if name in estimated]
        pairs = [(name, estimated[name], true[name]) for name in shared]
        if shared:
            # Sequential adds in shared order: the same float association
            # the scalar monitor's sum() over its pair list performs.
            est_total = pairs[0][1]
            act_total = pairs[0][2]
            for _, est, act in pairs[1:]:
                est_total = est_total + est
                act_total = act_total + act
            pairs.append(("total", est_total, act_total))
        if lanes is None:
            lanes = np.arange(self.width)
        else:
            lanes = _lane_array(lanes, self.width)
            if np.unique(lanes).size != lanes.size:
                raise ValueError("a lane may appear at most once per call")
        times = np.broadcast_to(
            np.asarray(timestamp_s, dtype=float), lanes.shape
        )
        transitions: "list[LaneDriftAlert]" = []
        for name, est, act in pairs:
            error_pct = (
                np.abs(est - act) / np.maximum(np.abs(act), _EPS_W) * 100.0
            )
            transitions.extend(self._update(name, error_pct, times, lanes))
        if obs.enabled():
            self._publish_gauges()
        return transitions

    def _update(
        self,
        name: str,
        error_pct: np.ndarray,
        times: np.ndarray,
        lanes: np.ndarray,
    ) -> "list[LaneDriftAlert]":
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = _LaneStream(self.width)
        ewma = stream.ewma[lanes]
        windows = stream.windows[lanes]
        firing = stream.firing[lanes]
        # First window seeds the EWMA directly (no decay toward a fake
        # zero); afterwards the scalar ewma += alpha * (err - ewma).
        updated = np.where(
            windows == 0, error_pct, ewma + self.alpha * (error_pct - ewma)
        )
        windows = windows + 1
        fires = (
            ~firing & (windows >= self.min_windows) & (updated > self.slo_pct)
        )
        resolves = firing & (updated < self.slo_pct * self.resolve_ratio)
        stream.ewma[lanes] = updated
        stream.windows[lanes] = windows
        stream.firing[lanes] = (firing | fires) & ~resolves
        transitions: "list[LaneDriftAlert]" = []
        for idx in np.nonzero(fires)[0]:
            transitions.append(
                self._transition(
                    name, "firing", self.slo_pct, updated, windows, times,
                    lanes, int(idx),
                )
            )
        for idx in np.nonzero(resolves)[0]:
            transitions.append(
                self._transition(
                    name, "resolved", self.slo_pct * self.resolve_ratio,
                    updated, windows, times, lanes, int(idx),
                )
            )
        return transitions

    def _transition(
        self, name, state, threshold_pct, updated, windows, times, lanes, idx
    ) -> LaneDriftAlert:
        alert = LaneDriftAlert(
            subsystem=name,
            state=state,
            error_pct=float(updated[idx]),
            threshold_pct=float(threshold_pct),
            timestamp_s=float(times[idx]),
            window=int(windows[idx]),
            lane=int(lanes[idx]),
        )
        self._history.append(alert)
        self.n_transitions += 1
        self.n_by_state[state] += 1
        obs.inc(
            "fleet_drift_alerts_total", 1.0, {"subsystem": name, "state": state}
        )
        obs.event(
            "drift.alert",
            subsystem=name,
            state=state,
            lane=alert.lane,
            error_pct=alert.error_pct,
            threshold_pct=alert.threshold_pct,
            sim_time_s=alert.timestamp_s,
        )
        return alert

    def _publish_gauges(self) -> None:
        for name, stream in self._streams.items():
            seen = stream.windows > 0
            if seen.any():
                ewma = stream.ewma[seen]
                obs.gauge(
                    "fleet_drift_error_pct", float(ewma.mean()),
                    {"subsystem": name, "agg": "mean"},
                )
                obs.gauge(
                    "fleet_drift_error_pct", float(ewma.max()),
                    {"subsystem": name, "agg": "max"},
                )
            obs.gauge(
                "fleet_drift_firing_lanes", float(stream.firing.sum()),
                {"subsystem": name},
            )

    # -- inspection ----------------------------------------------------

    @property
    @locked
    def firing(self) -> "tuple[str, ...]":
        """``"<subsystem>[<lane>]"`` labels of every firing cell."""
        labels = []
        for name, stream in self._streams.items():
            for lane in np.nonzero(stream.firing)[0]:
                labels.append(f"{name}[{int(lane)}]")
        return tuple(sorted(labels))

    @locked
    def firing_lanes(self) -> "tuple[int, ...]":
        """Lanes with at least one firing stream, ascending."""
        mask = np.zeros(self.width, dtype=bool)
        for stream in self._streams.values():
            mask |= stream.firing
        return tuple(int(lane) for lane in np.nonzero(mask)[0])

    @locked
    def error_pct(self, subsystem) -> np.ndarray:
        """Per-lane EWMA error of one stream (NaN before any window)."""
        stream = self._streams.get(self._name(subsystem))
        out = np.full(self.width, np.nan)
        if stream is not None:
            seen = stream.windows > 0
            out[seen] = stream.ewma[seen]
        return out

    @locked
    def lane_state(self, lane: int) -> dict:
        """One lane's per-stream state, scalar-``to_json``-shaped."""
        if not 0 <= lane < self.width:
            raise IndexError(f"lane {lane} out of range for width {self.width}")
        return {
            name: {
                "error_pct": float(stream.ewma[lane]),
                "windows": int(stream.windows[lane]),
                "firing": bool(stream.firing[lane]),
            }
            for name, stream in sorted(self._streams.items())
        }

    @locked
    def history(self) -> "list[LaneDriftAlert]":
        """Every recorded transition, oldest first."""
        return list(self._history)

    @locked
    def unresolved(self) -> "list[LaneDriftAlert]":
        """Latest firing transition of each currently-firing cell."""
        latest: "dict[tuple[str, int], LaneDriftAlert]" = {}
        for alert in self._history:
            if alert.state == "firing":
                latest[(alert.subsystem, alert.lane)] = alert
        out = []
        for name, stream in sorted(self._streams.items()):
            for lane in np.nonzero(stream.firing)[0]:
                alert = latest.get((name, int(lane)))
                if alert is not None:
                    out.append(alert)
        return out

    @locked
    def to_json(self) -> dict:
        """The ``/alerts`` document, with per-stream lane summaries."""
        return {
            "width": self.width,
            "slo_pct": self.slo_pct,
            "alpha": self.alpha,
            "min_windows": self.min_windows,
            "resolve_ratio": self.resolve_ratio,
            "firing": list(self.firing),
            "streams": {
                name: {
                    "mean_error_pct": (
                        float(stream.ewma[stream.windows > 0].mean())
                        if (stream.windows > 0).any()
                        else None
                    ),
                    "max_error_pct": (
                        float(stream.ewma[stream.windows > 0].max())
                        if (stream.windows > 0).any()
                        else None
                    ),
                    "windows": int(stream.windows.sum()),
                    "firing_lanes": [
                        int(lane) for lane in np.nonzero(stream.firing)[0]
                    ],
                }
                for name, stream in sorted(self._streams.items())
            },
            "history": [alert.to_dict() for alert in self._history],
        }


class LaneBoard:
    """Latest window comparison and bounded history of every lane."""

    def __init__(
        self,
        width: int,
        seeds: "tuple[int, ...] | None" = None,
        history: int = DEFAULT_LANE_HISTORY,
    ) -> None:
        self.width = int(width)
        self.seeds = tuple(int(s) for s in seeds) if seeds is not None else None
        self._true: "dict[str, np.ndarray]" = {}
        self._est: "dict[str, np.ndarray]" = {}
        self.true_total_w = np.full(width, np.nan)
        self.est_total_w = np.full(width, np.nan)
        self.error_pct = np.full(width, np.nan)
        self.last_t_s = np.full(width, np.nan)
        self.n_windows = np.zeros(width, dtype=np.int64)
        self._history = [deque(maxlen=history) for _ in range(width)]

    def update(
        self,
        times: np.ndarray,
        lanes: np.ndarray,
        estimated_w: "dict[str, np.ndarray]",
        true_w: "dict[str, np.ndarray]",
    ) -> None:
        """Record one window per lane of a lane batch."""
        est_tot: "np.ndarray | None" = None
        true_tot: "np.ndarray | None" = None
        for name, est in estimated_w.items():
            col = self._est.get(name)
            if col is None:
                col = self._est[name] = np.full(self.width, np.nan)
            col[lanes] = est
            est_tot = est if est_tot is None else est_tot + est
        for name, act in true_w.items():
            col = self._true.get(name)
            if col is None:
                col = self._true[name] = np.full(self.width, np.nan)
            col[lanes] = act
            true_tot = act if true_tot is None else true_tot + act
        if est_tot is None or true_tot is None:
            return
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where(
                true_tot == 0.0,
                np.nan,
                np.abs(est_tot - true_tot) / np.abs(true_tot) * 100.0,
            )
        times = np.broadcast_to(np.asarray(times, dtype=float), lanes.shape)
        self.true_total_w[lanes] = true_tot
        self.est_total_w[lanes] = est_tot
        self.error_pct[lanes] = err
        self.last_t_s[lanes] = times
        self.n_windows[lanes] += 1
        for i, lane in enumerate(lanes):
            self._history[int(lane)].append(
                (
                    float(times[i]),
                    float(true_tot[i]),
                    float(est_tot[i]),
                    float(err[i]),
                )
            )

    def lane_history(self, lane: int) -> "list[dict]":
        return [
            {
                "timestamp_s": t,
                "true_w": true,
                "estimated_w": est,
                "error_pct": err,
            }
            for t, true, est, err in self._history[lane]
        ]


def publish_lane_aggregates(
    prefix: str,
    true_w: np.ndarray,
    estimated_w: "np.ndarray | None" = None,
    error_pct: "np.ndarray | None" = None,
    labels: "dict | None" = None,
) -> "dict[str, dict[str, float]]":
    """Cross-lane min/mean/p50/p95/max gauges over per-lane values.

    Publishes ``<prefix>_power_watts{agg=...,source=...}`` (and
    ``<prefix>_error_pct{agg=...}`` when ``error_pct`` is given) to the
    process registry — no-ops while telemetry is disabled — and returns
    the computed aggregates for callers that render them directly.
    NaN lanes (never compared, powered down) are ignored.
    """
    base = dict(labels) if labels else {}
    out: "dict[str, dict[str, float]]" = {"true": _aggregates(true_w)}
    for agg, value in out["true"].items():
        obs.gauge(
            f"{prefix}_power_watts", value,
            {**base, "agg": agg, "source": "true"},
        )
    if estimated_w is not None:
        out["estimated"] = _aggregates(estimated_w)
        for agg, value in out["estimated"].items():
            obs.gauge(
                f"{prefix}_power_watts", value,
                {**base, "agg": agg, "source": "estimated"},
            )
    if error_pct is not None:
        out["error_pct"] = _aggregates(error_pct)
        for agg, value in out["error_pct"].items():
            obs.gauge(f"{prefix}_error_pct", value, {**base, "agg": agg})
    return out


@dataclass
class _PendingPulse:
    """One tick's closing lanes, captured cheaply for a later flush."""

    timestamps_s: np.ndarray  #: each lane's own window close time
    lanes: np.ndarray
    counts: "list[np.ndarray]"  #: per-lane ``(n_events, n_cpus)`` snapshots
    durations: np.ndarray
    true5_w: np.ndarray  #: ``(5, k)`` per-subsystem true mean watts


class FleetMonitor:
    """Watches every lane of a :class:`FleetServer` in batched passes.

    Attach via :meth:`FleetServer.attach_fleet_monitor`; the fleet then
    calls :meth:`on_pulse` once per tick on which sampler windows close
    (a single ``is not None`` check when unattached).  ``on_pulse`` only
    snapshots references and energy deltas; the expensive work — one
    batched :meth:`TrickleDownSuite.evaluate` over all pending windows,
    vectorized :class:`FleetDriftMonitor` updates, aggregation, flight
    frames — happens in :meth:`flush`, triggered automatically when
    every lane has a pending window (or any lane accumulates
    ``max_pending``), and callable explicitly at shutdown.

    Windows flush in per-lane chronological order with their original
    close timestamps, so deferral changes *when* the EWMAs update, not
    *what* they compute: lane ``i``'s drift state matches a scalar
    :class:`~repro.obs.live.LiveMonitor` + :class:`DriftMonitor` pair
    on lane ``i``'s windows.
    """

    def __init__(
        self,
        suite,
        drift: "FleetDriftMonitor | None" = None,
        flight=None,
        history: int = DEFAULT_LANE_HISTORY,
        flush_lanes: "int | None" = None,
        max_pending: int = 4,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.suite = suite
        self.drift = drift
        self.flight = flight
        self.history = int(history)
        self.flush_lanes = flush_lanes
        self.max_pending = int(max_pending)
        self.board: "LaneBoard | None" = None
        self.n_windows = 0
        self.n_flushes = 0
        self._fleet = None
        self._events: "tuple | None" = None
        self._last_energy: "np.ndarray | None" = None
        self._pending: "list[_PendingPulse]" = []
        self._pending_rounds: "np.ndarray | None" = None
        self._covered = 0
        self._scale: "dict[str, np.ndarray]" = {}
        self._lock = threading.RLock()

    # -- attachment ----------------------------------------------------

    @property
    def width(self) -> int:
        return 0 if self._fleet is None else self._fleet.width

    def on_attach_fleet(self, fleet) -> None:
        """Prime baselines when the fleet adopts the monitor."""
        self._fleet = fleet
        width = fleet.width
        if self.drift is None:
            self.drift = FleetDriftMonitor(width)
        elif self.drift.width != width:
            raise ValueError(
                f"drift monitor width {self.drift.width} != fleet width {width}"
            )
        self.board = LaneBoard(width, seeds=fleet.seeds, history=self.history)
        self._events = tuple(fleet.lane(0).counters.events)
        self._last_energy = fleet._energy5.copy()
        self._pending_rounds = np.zeros(width, dtype=np.int64)
        self._covered = 0
        if self.flush_lanes is None:
            self.flush_lanes = width

    def set_suite(self, suite) -> None:
        """Swap the model suite (e.g. after recalibration)."""
        self.suite = suite

    # -- seeded mis-calibration (per-lane ``suite.scaled`` analogue) ---

    def perturb_lanes(
        self, factor: float, lanes, subsystems=None
    ) -> None:
        """Scale the named lanes' predictions by ``factor``.

        Post-multiplying a lane's predictions equals evaluating
        :meth:`TrickleDownSuite.scaled`'s coefficient-scaled suite up to
        float round-off, so this seeds the same per-lane
        mis-calibration the scalar CLI injects with ``suite.scaled`` —
        without forking the design-matrix pass per lane.  A lane
        outside ``[0, width)`` raises :class:`IndexError`.
        """
        if self._fleet is None:
            raise RuntimeError("attach the monitor to a fleet first")
        names = (
            [getattr(s, "value", None) or str(s) for s in subsystems]
            if subsystems is not None
            else [s.value for s in SUBSYSTEMS]
        )
        lanes = _lane_array(list(lanes), self._fleet.width)
        for name in names:
            scale = self._scale.get(name)
            if scale is None:
                scale = self._scale[name] = np.ones(self._fleet.width)
            scale[lanes] = float(factor)

    def restore_lanes(self) -> None:
        """Drop every per-lane perturbation (back to the calibrated suite)."""
        self._scale.clear()

    # -- the hot hook --------------------------------------------------

    def on_pulse(self, fleet, lanes: np.ndarray) -> None:
        """Capture one tick's closing lanes (cheap; no estimation).

        Called from inside ``FleetServer.run_ticks`` with the indices
        of the lanes whose sampler windows just closed.  Snapshots the
        already-materialized counter arrays by reference and takes the
        per-subsystem energy delta; everything else waits for
        :meth:`flush`.  Each window is stamped with its own lane's
        close time, the one its sampler just logged: lanes frozen for
        different lengths of time do not share a clock.
        """
        lanes = np.asarray(lanes, dtype=np.int64)
        samp_ts = fleet._samp_ts
        samp_counts, samp_dur = fleet._samp_counts, fleet._samp_dur
        times = np.array([samp_ts[int(lane)][-1] for lane in lanes])
        counts = [samp_counts[int(lane)][-1] for lane in lanes]
        durations = np.array([samp_dur[int(lane)][-1] for lane in lanes])
        e_now = fleet._energy5[:, lanes].copy()
        true5 = (e_now - self._last_energy[:, lanes]) / durations
        self._last_energy[:, lanes] = e_now
        self._pending.append(
            _PendingPulse(times, lanes, counts, durations, true5)
        )
        rounds = self._pending_rounds
        self._covered += int((rounds[lanes] == 0).sum())
        rounds[lanes] += 1
        if (
            self._covered >= self.flush_lanes
            or int(rounds[lanes].max()) >= self.max_pending
        ):
            self.flush()

    # -- the batched pass ----------------------------------------------

    @locked
    def flush(self) -> "list[LaneDriftAlert]":
        """Run the deferred batched pass; returns drift transitions.

        Stacks every pending window into one
        :class:`~repro.core.traces.CounterTrace`, evaluates the suite's
        design matrix once, then partitions the rows into *rounds* (the
        r-th pending window of each lane) and feeds each round to the
        vectorized drift monitor — per-lane window order is preserved,
        so the EWMA arithmetic is unchanged by the deferral.
        """
        pending, self._pending = self._pending, []
        if not pending:
            return []
        from repro.core.traces import CounterTrace

        self._pending_rounds[:] = 0
        self._covered = 0
        lanes_all = np.concatenate([p.lanes for p in pending])
        times_all = np.concatenate([p.timestamps_s for p in pending])
        durations = np.concatenate([p.durations for p in pending])
        counts = np.stack(
            [snap for p in pending for snap in p.counts]
        )  # (n_rows, n_events, n_cpus)
        true5 = np.concatenate([p.true5_w for p in pending], axis=1)
        trace = CounterTrace(
            timestamps=times_all,
            durations=durations,
            counts={
                event: counts[:, i, :] for i, event in enumerate(self._events)
            },
        )
        predictions, _ = self.suite.evaluate(trace)
        estimated = {s.value: w for s, w in predictions.items()}
        if self._scale:
            for name, scale in self._scale.items():
                if name in estimated:
                    estimated[name] = estimated[name] * scale[lanes_all]
        true = {
            s.value: true5[i] for i, s in enumerate(SUBSYSTEMS)
        }

        # Round r = the r-th pending window of each lane: within a
        # round every lane appears once, and rounds replay each lane's
        # windows in close order.
        occurrence = np.zeros(self._fleet.width, dtype=np.int64)
        round_of = np.empty(len(lanes_all), dtype=np.int64)
        for i, lane in enumerate(lanes_all):
            round_of[i] = occurrence[lane]
            occurrence[lane] += 1
        transitions: "list[LaneDriftAlert]" = []
        for r in range(int(round_of.max()) + 1):
            sel = round_of == r
            lanes = lanes_all[sel]
            times = times_all[sel]
            est_r = {name: col[sel] for name, col in estimated.items()}
            true_r = {name: col[sel] for name, col in true.items()}
            transitions.extend(
                self.drift.observe(times, est_r, true_r, lanes=lanes)
            )
            self.board.update(times, lanes, est_r, true_r)
        self.n_windows += len(lanes_all)
        self.n_flushes += 1
        last_t = float(times_all[-1])
        if obs.enabled():
            publish_lane_aggregates(
                "fleet",
                self.board.true_total_w,
                self.board.est_total_w,
                self.board.error_pct,
            )
            obs.gauge(
                "fleet_monitor_windows_total", float(self.n_windows)
            )
        if self.flight is not None:
            self._record_flight(last_t, transitions)
        return transitions

    def _record_flight(self, last_t: float, transitions) -> None:
        summary = self.fleet_document()
        self.flight.record(
            last_t,
            true_w=summary["power_w"]["true"].get("mean"),
            estimated_w=summary["power_w"].get("estimated", {}).get("mean"),
            error_pct=summary.get("error_pct", {}).get("mean"),
            firing_lanes=list(summary["firing_lanes"]),
            n_windows=self.n_windows,
        )
        for transition in transitions:
            if transition.state == "firing":
                detail = transition.to_dict()
                detail["fleet"] = {
                    "width": self.width,
                    "firing_lanes": list(self.drift.firing_lanes()),
                    "power_w": summary["power_w"],
                }
                detail["lane_history"] = self.board.lane_history(
                    transition.lane
                )
                self.flight.trigger("drift.alert", detail=detail)

    # -- drill-down documents (the ``/fleet*`` routes) -----------------

    @locked
    def fleet_document(self) -> dict:
        """The ``/fleet`` summary: width, aggregates, alert rollups."""
        board, drift = self.board, self.drift
        return {
            "width": self.width,
            "n_windows": self.n_windows,
            "n_flushes": self.n_flushes,
            "pending_windows": int(sum(len(p.lanes) for p in self._pending)),
            "power_w": {
                "true": _aggregates(board.true_total_w),
                "estimated": _aggregates(board.est_total_w),
            },
            "error_pct": _aggregates(board.error_pct),
            "slo_pct": drift.slo_pct,
            "firing_lanes": list(drift.firing_lanes()),
            "firing": list(drift.firing),
            "alerts": {"total": drift.n_transitions, **drift.n_by_state},
        }

    @locked
    def lanes_document(self, top: "int | None" = None) -> dict:
        """``/fleet/lanes``: lanes ranked worst-first by total-stream EWMA."""
        board, drift = self.board, self.drift
        residual = drift.error_pct("total")
        order = np.argsort(np.where(np.isnan(residual), -np.inf, residual))
        order = order[::-1]
        if top is not None:
            order = order[: max(int(top), 0)]
        lanes = []
        for lane in order:
            lane = int(lane)
            lanes.append(
                {
                    "lane": lane,
                    "seed": (
                        board.seeds[lane] if board.seeds is not None else None
                    ),
                    "drift_error_pct": (
                        None
                        if np.isnan(residual[lane])
                        else float(residual[lane])
                    ),
                    "window_error_pct": (
                        None
                        if np.isnan(board.error_pct[lane])
                        else float(board.error_pct[lane])
                    ),
                    "true_w": (
                        None
                        if np.isnan(board.true_total_w[lane])
                        else float(board.true_total_w[lane])
                    ),
                    "estimated_w": (
                        None
                        if np.isnan(board.est_total_w[lane])
                        else float(board.est_total_w[lane])
                    ),
                    "n_windows": int(board.n_windows[lane]),
                    "firing": sorted(
                        name
                        for name, state in drift.lane_state(lane).items()
                        if state["firing"]
                    ),
                }
            )
        return {
            "width": self.width,
            "ranking": "drift total-stream EWMA error, worst first",
            "lanes": lanes,
        }

    @locked
    def lane_document(self, lane: int) -> dict:
        """``/fleet/lane/<i>``: one lane's full drill-down.

        Raises :class:`IndexError` for an out-of-range lane (the HTTP
        layer maps that to 404).
        """
        if not 0 <= lane < self.width:
            raise IndexError(f"lane {lane} out of range for width {self.width}")
        board = self.board
        return {
            "lane": int(lane),
            "seed": board.seeds[lane] if board.seeds is not None else None,
            "last_window_s": (
                None
                if np.isnan(board.last_t_s[lane])
                else float(board.last_t_s[lane])
            ),
            "n_windows": int(board.n_windows[lane]),
            "true_w": (
                None
                if np.isnan(board.true_total_w[lane])
                else float(board.true_total_w[lane])
            ),
            "estimated_w": (
                None
                if np.isnan(board.est_total_w[lane])
                else float(board.est_total_w[lane])
            ),
            "error_pct": (
                None
                if np.isnan(board.error_pct[lane])
                else float(board.error_pct[lane])
            ),
            "streams": self.drift.lane_state(lane),
            "history": board.lane_history(lane),
        }

"""The one alert state: what is firing, for every route that reports it.

:class:`AlertManager` polls its attached sources and folds them into
one deduplicated alert set with stable keys
(``source:name{label=value,...}``).  That one read-only :meth:`poll`
answers ``/healthz`` (:func:`health_status`), ``/alerts``' firing set
and the ``serve`` summary line, so they cannot disagree.
:meth:`evaluate` diffs the poll against the previous evaluation and is
the only thing that records firing→resolved history; with a store
attached, every transition also lands as an ``alerts_firing`` sample
(1.0 on firing, 0.0 on resolve) so "what was alerting at 14:32?" stays
answerable after the process is gone.

Sources (attach any subset):

* ``attach_drift(monitor)`` — a scalar
  :class:`~repro.obs.drift.DriftMonitor` or vectorized
  :class:`~repro.obs.fleet.FleetDriftMonitor`; every firing stream is
  one critical alert (labels ``subsystem``, and ``lane`` for a fleet)
  whose ``detail`` is the stream's latest firing transition.
* ``attach_service(service)`` — an
  :class:`~repro.serve.service.EstimationService`: fast-burning SLOs
  (label ``slo``), stale nodes (``node``) and the firing drift streams
  of served nodes (``node``, ``subsystem``) are critical; dead shards
  (``shard``) are warnings.
* ``attach_dc(datacenter)`` — a
  :class:`~repro.dc.datacenter.Datacenter`; a report with cap
  violations fires a critical ``cap_violation``, and nonzero
  drift-fallback seconds a ``drift_fallback`` warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The ``/healthz`` status each critical alert reports, most urgent first.
CRITICAL_STATUS = {
    "node_stale": "stale",
    "fast_burn": "burning",
    "drift_slo_breach": "drifting",
    "cap_violation": "over_cap",
}


def dedup_key(source: str, name: str, labels: "dict[str, str]") -> str:
    """The stable identity of one alert across polls and restarts."""
    rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{source}:{name}{{{rendered}}}"


def health_status(alerts: "list[Alert]") -> "tuple[int, str]":
    """``/healthz``'s (HTTP status, status word) for a firing set.

    Any critical alert is a 503 named after the most urgent one: the
    estimates must not steer anything.  Warnings alone are ``degraded``
    but still serving (200).
    """
    critical = {alert.name for alert in alerts if alert.severity == "critical"}
    if critical:
        return 503, next(
            status for name, status in CRITICAL_STATUS.items() if name in critical
        )
    return 200, "degraded" if alerts else "ok"


@dataclass
class Alert:
    """One deduplicated alert and its current state."""

    source: str
    name: str
    labels: "dict[str, str]"
    severity: str = "warning"
    state: str = "firing"
    #: When :meth:`AlertManager.evaluate` first saw it firing (``None``
    #: until an evaluation has).
    since_s: "float | None" = None
    detail: "dict" = field(default_factory=dict)

    @property
    def key(self) -> str:
        return dedup_key(self.source, self.name, self.labels)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "source": self.source,
            "name": self.name,
            "labels": dict(self.labels),
            "severity": self.severity,
            "state": self.state,
            "since_s": self.since_s,
            "detail": dict(self.detail),
        }


def _stream_alerts(firing, unresolved, **labels: str) -> "list[Alert]":
    """One critical alert per firing stream of one drift monitor.

    ``firing`` and ``unresolved`` are the monitor's; ``labels`` (a
    served node's name) are added to every alert.
    """
    latest = {transition.stream: transition for transition in unresolved}
    out = []
    for stream in firing:
        # FleetDriftMonitor streams read "subsystem[lane]".
        name, _, lane = str(stream).partition("[")
        alert_labels = {**labels, "subsystem": name}
        if lane:
            alert_labels["lane"] = lane.rstrip("]")
        transition = latest.get(stream)
        out.append(Alert(
            source="drift",
            name="drift_slo_breach",
            labels=alert_labels,
            severity="critical",
            detail=transition.to_dict() if transition is not None else {},
        ))
    return out


class AlertManager:
    """Polls the attached sources and folds them into one alert set."""

    def __init__(self, store=None, max_history: int = 256) -> None:
        #: Optional :class:`~repro.obs.tsdb.TSDB` receiving
        #: ``alerts_firing`` transition samples.
        self.store = store
        self.max_history = int(max_history)
        #: The alerts firing at the last :meth:`evaluate`, by key.
        self.alerts: "dict[str, Alert]" = {}
        self.history: "list[dict]" = []
        self._drift = None
        self._service = None
        self._dc = None
        self.evaluations = 0

    # -- sources -------------------------------------------------------

    def attach_drift(self, monitor) -> None:
        self._drift = monitor

    def attach_service(self, service) -> None:
        self._service = service

    def attach_dc(self, datacenter) -> None:
        self._dc = datacenter

    # -- the one view --------------------------------------------------

    def poll(self) -> "list[Alert]":
        """Every alert firing now, in key order; changes no state."""
        active: "dict[str, Alert]" = {}
        for alert in self._drift_alerts() + self._service_alerts() + self._dc_alerts():
            known = self.alerts.get(alert.key)
            if known is not None:
                alert.since_s = known.since_s
            active[alert.key] = alert
        return [active[key] for key in sorted(active)]

    def evaluate(self, now_s: float) -> "list[dict]":
        """Diff a poll against the last evaluation; returns (and records)
        this round's transitions."""
        active = {alert.key: alert for alert in self.poll()}
        transitions: "list[dict]" = []
        for key, alert in active.items():
            if key not in self.alerts:
                alert.since_s = now_s
                transitions.append(self._transition(alert, now_s))
        for key, known in self.alerts.items():
            if key not in active:
                known.state = "resolved"
                transitions.append(self._transition(known, now_s))
        self.alerts = active
        self.evaluations += 1
        return transitions

    def _transition(self, alert: Alert, now_s: float) -> dict:
        record = alert.to_dict()
        record["t_s"] = now_s
        self.history.append(record)
        del self.history[: -self.max_history]
        if self.store is not None:
            self.store.append(
                "alerts_firing",
                {"source": alert.source, "alert": alert.name, **alert.labels},
                now_s,
                1.0 if alert.state == "firing" else 0.0,
            )
        return record

    # -- source adapters -----------------------------------------------

    def _drift_alerts(self) -> "list[Alert]":
        if self._drift is None:
            return []
        firing = self._drift.firing
        return _stream_alerts(firing, self._drift.unresolved() if firing else [])

    def _service_alerts(self) -> "list[Alert]":
        service = self._service
        if service is None:
            return []
        out = [
            Alert("slo", "fast_burn", {"slo": name}, "critical")
            for name in service.slo.fast_burning
        ]
        staleness = service.staleness.to_json()
        out += [
            Alert(
                "serve", "node_stale", {"node": node}, "critical",
                detail={"age_s": staleness["age_s"][node]},
            )
            for node in staleness["stale"]
        ]
        for node, firing, unresolved in service.drifting_nodes():
            out += _stream_alerts(firing, unresolved, node=node)
        out += [
            Alert("serve", "shard_dead", {"shard": str(index)}, "warning")
            for index in service.dead_shards()
        ]
        return out

    def _dc_alerts(self) -> "list[Alert]":
        datacenter = self._dc
        if datacenter is None:
            return []
        report = getattr(datacenter, "last_report", datacenter)
        if report is None:
            return []
        out = []
        violations = getattr(report, "cap_violations", 0)
        if violations:
            out.append(Alert(
                source="dc",
                name="cap_violation",
                labels={"policy": str(getattr(report, "policy", ""))},
                severity="critical",
                detail={"cap_violations": int(violations)},
            ))
        fallback = getattr(report, "drift_fallback_seconds", 0)
        if fallback:
            out.append(Alert(
                source="dc",
                name="drift_fallback",
                labels={"policy": str(getattr(report, "policy", ""))},
                severity="warning",
                detail={"drift_fallback_seconds": int(fallback)},
            ))
        return out

    # -- exposition ----------------------------------------------------

    def document(self) -> dict:
        """The ``/alerts`` block: one poll's firing set and its alerts
        grouped by source, and the evaluated transition history."""
        firing = self.poll()
        groups: "dict[str, list]" = {}
        for alert in firing:
            groups.setdefault(alert.source, []).append(alert.to_dict())
        return {
            "firing": [alert.key for alert in firing],
            "groups": groups,
            "history": list(self.history),
            "evaluations": self.evaluations,
        }

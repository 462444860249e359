"""Recording rules: precomputed series evaluated on every store flush.

A :class:`RecordingRule` names a derived series (Prometheus-style
``source:agg_window`` naming, e.g. ``drift_error_pct:mean_5m``),
the source metric it reads, a lookback window, an aggregation and an
optional ``by`` label grouping.  A :class:`RuleEngine` is attached to
a :class:`~repro.obs.tsdb.TSDB` via ``db.attach_rules(engine)`` — every
``db.flush(now_s)`` then evaluates each of :data:`DEFAULT_RULES` over
``[now - window, now]`` on the raw tier (one
:meth:`~repro.obs.tsdb.TSDB.query_range` bucket) and appends one
sample per group at ``now`` back into the store, so dashboards and
alerts read a cheap precomputed series instead of re-aggregating raw
points.  ``/rules`` serves each rule as::

    {"record": "drift_error_pct:mean_5m",
     "source": "drift_error_pct",
     "window_s": 300.0,
     "agg": "mean",           # mean|min|max|sum|count|last
     "by": ["subsystem"]}     # grouping; empty = one series
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.tsdb import _AGGS


@dataclass(frozen=True)
class RecordingRule:
    """One derived series: ``record = agg(source[window]) by (labels)``."""

    record: str
    source: str
    window_s: float
    agg: str = "mean"
    by: "tuple[str, ...]" = ()

    def __post_init__(self) -> None:
        if not self.record or not self.source:
            raise ValueError("rule record and source names are required")
        if self.window_s <= 0:
            raise ValueError("rule window must be positive")
        if self.agg not in _AGGS:
            raise ValueError(f"agg must be one of {_AGGS}: {self.agg!r}")

    def to_dict(self) -> dict:
        return {
            "record": self.record,
            "source": self.source,
            "window_s": self.window_s,
            "agg": self.agg,
            "by": list(self.by),
        }


#: The rules every ``--store`` run records: the series the
#: drift/SLO/dc post-mortems actually read.
DEFAULT_RULES: "tuple[RecordingRule, ...]" = (
    RecordingRule(
        "drift_error_pct:mean_5m", "drift_error_pct", 300.0,
        agg="mean", by=("subsystem",),
    ),
    RecordingRule(
        "live_error_pct:max_5m", "live_error_pct", 300.0,
        agg="max", by=("subsystem",),
    ),
    RecordingRule(
        "live_power_watts:mean_5m", "live_power_watts", 300.0,
        agg="mean", by=("subsystem", "source"),
    ),
    RecordingRule(
        "serve_fleet_power_watts:mean_5m", "serve_fleet_power_watts", 300.0,
        agg="mean", by=("agg",),
    ),
)


class RuleEngine:
    """Evaluates :data:`DEFAULT_RULES` against a store at flush time.

    Evaluation is idempotent per timestamp: a flush at the same (or an
    older) ``now_s`` as the previous one skips, so repeated flushes of
    a quiet store do not stack duplicate samples.
    """

    def __init__(self) -> None:
        self.evaluations = 0
        self.samples_recorded = 0
        self._last_eval_s = float("-inf")

    def evaluate(self, db, now_s: float) -> int:
        """Append every rule's current value at ``now_s``; returns count."""
        if now_s <= self._last_eval_s:
            return 0
        self._last_eval_s = now_s
        recorded = 0
        for rule in DEFAULT_RULES:
            for entry in db.query_range(
                rule.source, None, now_s - rule.window_s, now_s,
                step_s=rule.window_s, agg=rule.agg, by=rule.by, tier="raw",
            ):
                if entry["points"]:
                    db.append(
                        rule.record, entry["labels"], now_s,
                        entry["points"][-1][1],
                    )
                    recorded += 1
        self.evaluations += 1
        self.samples_recorded += recorded
        return recorded

    def document(self) -> dict:
        """The ``/rules`` payload."""
        return {
            "rules": [rule.to_dict() for rule in DEFAULT_RULES],
            "evaluations": self.evaluations,
            "samples_recorded": self.samples_recorded,
        }

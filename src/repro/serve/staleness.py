"""Per-node liveness/staleness tracking for the streaming service.

A node is *fresh* while its last accepted sample arrived within
``stale_after_s`` (service wall clock, injectable for tests).  The
tracker feeds three consumers:

* the alert plane — each stale node is a critical
  :class:`~repro.obs.alertmgr.AlertManager` alert, so ``/healthz``
  answers 503: stale estimates must not steer anything;
* the freshness SLO — every sweep records one good/bad event per known
  node into the :class:`~repro.serve.slo.SLOEngine`;
* the gauge plane — ``serve_nodes_fresh`` / ``serve_nodes_stale``.
"""

from __future__ import annotations

import threading
import time

__all__ = ["StalenessTracker"]


class StalenessTracker:
    """Tracks last-seen times and classifies nodes fresh/stale."""

    def __init__(
        self,
        stale_after_s: float = 10.0,
        clock=None,
    ) -> None:
        if stale_after_s <= 0:
            raise ValueError("stale_after_s must be positive")
        self.stale_after_s = float(stale_after_s)
        self._clock = clock if clock is not None else time.monotonic
        self._last_seen: "dict[str, float]" = {}
        self._lock = threading.Lock()

    def now(self) -> float:
        return self._clock()

    def touch(self, node: str, now: "float | None" = None) -> None:
        """Record an accepted sample from ``node``."""
        with self._lock:
            self._last_seen[node] = self._clock() if now is None else now

    def forget(self, node: str) -> None:
        with self._lock:
            self._last_seen.pop(node, None)

    def age_s(self, node: str, now: "float | None" = None) -> "float | None":
        with self._lock:
            seen = self._last_seen.get(node)
        if seen is None:
            return None
        return (self._clock() if now is None else now) - seen

    def is_stale(self, node: str, now: "float | None" = None) -> bool:
        age = self.age_s(node, now)
        return age is not None and age > self.stale_after_s

    def sweep(self, now: "float | None" = None) -> "tuple[list[str], list[str]]":
        """``(fresh, stale)`` node lists, each sorted by name."""
        moment = self._clock() if now is None else now
        fresh, stale = [], []
        with self._lock:
            for node, seen in self._last_seen.items():
                (stale if moment - seen > self.stale_after_s else fresh).append(node)
        return sorted(fresh), sorted(stale)

    def to_json(self, now: "float | None" = None) -> dict:
        moment = self._clock() if now is None else now
        with self._lock:
            ages = {
                node: round(moment - seen, 6)
                for node, seen in sorted(self._last_seen.items())
            }
        return {
            "stale_after_s": self.stale_after_s,
            "age_s": ages,
            "stale": sorted(
                node for node, age in ages.items() if age > self.stale_after_s
            ),
        }

"""Error-budget burn-rate tracking for the streaming service.

Two SLOs, Google-SRE style multiwindow burn alerts:

* **error** — the fraction of truth-scored samples whose total-power
  error stays within the drift monitor's bound (the paper's 9 %
  average-error result, :data:`repro.obs.drift.DEFAULT_SLO_PCT`);
* **freshness** — the fraction of per-node liveness sweeps that find
  the node fresh (see :class:`~repro.serve.staleness.StalenessTracker`).

Each SLO accumulates ``(t, good, bad)`` event tallies in a pruned ring.
The *burn rate* over a window is ``bad_fraction / (1 - objective)`` —
burn 1.0 spends the error budget exactly at the sustainable rate, burn
``fast_burn_rate`` (default 14.4, the classic "2 % of a 30-day budget
in one hour" alert) is an incident.  A fast-burn fires only when
**both** the short and the long window burn past the threshold (the
short window confirms it is still happening, the long window that it
is material), emitting a ``slo.burn`` trace event, bumping
``slo_fast_burn_total`` and triggering the
:class:`~repro.obs.flight.FlightRecorder` so the post-mortem bundle is
on disk before anyone pages.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque

from repro import obs
from repro.obs.drift import DEFAULT_SLO_PCT

__all__ = ["SLOEngine", "DEFAULT_FAST_BURN_RATE"]

#: Burn-rate threshold for the fast-burn alert (SRE workbook page rate).
DEFAULT_FAST_BURN_RATE = 14.4


class _Budget:
    """One SLO's pruned event ring and fast-burn state."""

    def __init__(self, name: str, objective: float) -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError(f"{name} objective must be in (0, 1)")
        self.name = name
        self.objective = objective
        self.events: "deque[tuple[float, int, int]]" = deque()
        self.good_total = 0
        self.bad_total = 0
        self.fast_burn = False
        self.fast_burn_count = 0

    def record(self, now: float, good: int, bad: int) -> None:
        if good < 0 or bad < 0:
            raise ValueError("event tallies must be non-negative")
        if good or bad:
            self.events.append((now, good, bad))
            self.good_total += good
            self.bad_total += bad

    def prune(self, now: float, keep_s: float) -> None:
        horizon = now - keep_s
        while self.events and self.events[0][0] < horizon:
            self.events.popleft()

    def burn_rate(self, now: float, window_s: float) -> float:
        horizon = now - window_s
        good = bad = 0
        for t, g, b in reversed(self.events):
            if t < horizon:
                break
            good += g
            bad += b
        total = good + bad
        if total == 0:
            return 0.0
        return (bad / total) / (1.0 - self.objective)


class SLOEngine:
    """Tracks error + freshness budgets and fires on fast burn."""

    def __init__(
        self,
        error_bound_pct: float = DEFAULT_SLO_PCT,
        error_objective: float = 0.99,
        freshness_objective: float = 0.99,
        short_window_s: float = 30.0,
        long_window_s: float = 120.0,
        fast_burn_rate: float = DEFAULT_FAST_BURN_RATE,
        clock=None,
        flight=None,
    ) -> None:
        if not (error_bound_pct > 0 and math.isfinite(error_bound_pct)):
            raise ValueError("error_bound_pct must be positive and finite")
        if short_window_s <= 0 or long_window_s < short_window_s:
            raise ValueError("need 0 < short_window_s <= long_window_s")
        if fast_burn_rate <= 0:
            raise ValueError("fast_burn_rate must be positive")
        self.error_bound_pct = float(error_bound_pct)
        self.short_window_s = float(short_window_s)
        self.long_window_s = float(long_window_s)
        self.fast_burn_rate = float(fast_burn_rate)
        self.flight = flight
        self._clock = clock if clock is not None else time.monotonic
        self._budgets = {
            "error": _Budget("error", error_objective),
            "freshness": _Budget("freshness", freshness_objective),
        }
        self._lock = threading.Lock()

    def _now(self, now: "float | None") -> float:
        return self._clock() if now is None else now

    # -- recording -----------------------------------------------------

    def record_error_batch(
        self, good: int, bad: int, now: "float | None" = None
    ) -> None:
        """Tally truth-scored samples (within-bound vs out-of-bound)."""
        with self._lock:
            self._budgets["error"].record(self._now(now), good, bad)

    def record_freshness(
        self, fresh: int, stale: int, now: "float | None" = None
    ) -> None:
        """Tally one liveness sweep (fresh nodes good, stale nodes bad)."""
        with self._lock:
            self._budgets["freshness"].record(self._now(now), fresh, stale)

    # -- evaluation ----------------------------------------------------

    def _rates(self, budget: _Budget, moment: float) -> "tuple[float, float]":
        return (
            budget.burn_rate(moment, self.short_window_s),
            budget.burn_rate(moment, self.long_window_s),
        )

    @staticmethod
    def _entry(budget: _Budget, short: float, long: float) -> dict:
        return {
            "objective": budget.objective,
            "burn_short": round(short, 4),
            "burn_long": round(long, 4),
            # 1.0 = untouched budget, 0.0 = spent (clamped below at 0).
            "budget_remaining": round(max(0.0, 1.0 - long), 4),
            "fast_burn": budget.fast_burn,
            "fast_burn_count": budget.fast_burn_count,
            "good_total": budget.good_total,
            "bad_total": budget.bad_total,
        }

    def _document(self, state: dict) -> dict:
        return {
            "error_bound_pct": self.error_bound_pct,
            "short_window_s": self.short_window_s,
            "long_window_s": self.long_window_s,
            "fast_burn_rate": self.fast_burn_rate,
            "slos": state,
        }

    def check(self, now: "float | None" = None) -> dict:
        """Recompute burn rates, fire/clear fast burn, publish gauges.

        Only the service's housekeeping tick calls this: a fast-burn
        edge emits ``slo.burn``, bumps ``slo_fast_burn_total`` and
        triggers a flight bundle.  Returns the :meth:`document` as of
        the new state.
        """
        moment = self._now(now)
        fired: "list[str]" = []
        with self._lock:
            state = {}
            for name, budget in self._budgets.items():
                budget.prune(moment, self.long_window_s)
                short, long = self._rates(budget, moment)
                burning = (
                    short >= self.fast_burn_rate and long >= self.fast_burn_rate
                )
                if burning and not budget.fast_burn:
                    budget.fast_burn_count += 1
                    fired.append(name)
                budget.fast_burn = burning
                state[name] = self._entry(budget, short, long)
                obs.gauge("slo_burn_rate", short, {"slo": name, "window": "short"})
                obs.gauge("slo_burn_rate", long, {"slo": name, "window": "long"})
                obs.gauge(
                    "slo_error_budget_remaining",
                    state[name]["budget_remaining"],
                    {"slo": name},
                )
        # Outside the lock: trace events and the flight trigger both may
        # take other locks (tracer, registry) and do file IO.
        for name in fired:
            detail = state[name]
            obs.event(
                "slo.burn",
                slo=name,
                burn_short=detail["burn_short"],
                burn_long=detail["burn_long"],
                threshold=self.fast_burn_rate,
            )
            obs.inc("slo_fast_burn_total", labels={"slo": name})
            if self.flight is not None:
                self.flight.trigger(
                    f"slo-fast-burn-{name}",
                    detail={"slo": name, **detail},
                )
        return self._document(state)

    def document(self, now: "float | None" = None) -> dict:
        """The scrapeable burn state (``/slo``, ``/service``): burn rates
        at ``now``, fast-burn flags as of the last :meth:`check`.
        Read-only, so a scrape never fires anything."""
        moment = self._now(now)
        with self._lock:
            state = {
                name: self._entry(budget, *self._rates(budget, moment))
                for name, budget in self._budgets.items()
            }
        return self._document(state)

    @property
    def fast_burning(self) -> "tuple[str, ...]":
        """Names of SLOs currently in fast burn (most recent check)."""
        with self._lock:
            return tuple(
                name
                for name, budget in self._budgets.items()
                if budget.fast_burn
            )

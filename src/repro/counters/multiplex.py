"""Counter multiplexing: more events than hardware counter slots.

Real PMUs have a fixed number of counter registers (the Pentium 4 had
18, many cores expose 4-8 programmable slots).  When a tool wants more
events than slots, drivers time-multiplex: each rotation interval a
different event group occupies the slots, and per-window counts are
extrapolated by ``window_time / observed_time``.

The paper's model needs ~8 trickle-down events simultaneously; on a
machine with fewer slots the extrapolation adds sampling error that
propagates into power estimates.  :class:`MultiplexedCounterBank` is a
drop-in :class:`~repro.counters.perfctr.CounterBank` that emulates this
behaviour, and the extension benches quantify the accuracy cost per
slot count — the practical answer to "could this run on a smaller
PMU?".

Only trickle-down (model-visible) events are multiplexed; the
simulator's ground-truth/local events are bookkeeping, not hardware
counters.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.events import Event, TRICKLE_DOWN_EVENTS
from repro.counters.perfctr import CounterBank


class MultiplexedCounterBank(CounterBank):
    """A counter bank with ``n_slots`` hardware counters, rotated.

    Args:
        events: full event list (as for CounterBank).
        n_cpus: processor count.
        n_slots: simultaneous hardware counters available.
        rotation_s: how long each event group holds the slots.
    """

    def __init__(
        self,
        events,
        n_cpus: int,
        n_slots: int,
        rotation_s: float = 0.1,
    ) -> None:
        super().__init__(events, n_cpus)
        if n_slots < 1:
            raise ValueError("need at least one counter slot")
        if rotation_s <= 0:
            raise ValueError("rotation_s must be positive")
        self.n_slots = n_slots
        self.rotation_s = rotation_s
        self._multiplexed = [e for e in self.events if e in TRICKLE_DOWN_EVENTS]
        n_groups = max(1, math.ceil(len(self._multiplexed) / n_slots))
        self._groups = [
            frozenset(self._multiplexed[i::n_groups]) for i in range(n_groups)
        ]
        #: Per group, the live rows of the multiplexed events it leaves
        #: unwatched (the counts the gated :meth:`add` drops).
        self._unwatched_rows = [
            [self._rows[self._index[e]] for e in self._multiplexed if e not in group]
            for group in self._groups
        ]
        self._active_group = 0
        self._rotation_elapsed = 0.0
        self._window_time = 0.0
        self._observed_time = {e: 0.0 for e in self._multiplexed}

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    @property
    def active_events(self) -> frozenset:
        """Events currently occupying the hardware slots."""
        return self._groups[self._active_group]

    def advance(self, dt_s: float) -> None:
        """One tick of wall time: account observation and maybe rotate."""
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        self._window_time += dt_s
        for event in self.active_events:
            self._observed_time[event] += dt_s
        self._rotation_elapsed += dt_s
        if self._rotation_elapsed >= self.rotation_s:
            self._rotation_elapsed = 0.0
            self._active_group = (self._active_group + 1) % len(self._groups)

    def advance_and_hold(
        self, dt_s: float
    ) -> "list[tuple[list[float], list[float]]]":
        """:meth:`advance`, then save the rows the slots are not watching.

        For callers that accumulate a tick's counts straight into
        :meth:`row` storage (``Server.run_ticks``): once the tick's
        counts are in, putting each returned ``(row, saved)`` pair back
        with ``row[:] = saved`` leaves exactly what the gated
        :meth:`add` would have.
        """
        self.advance(dt_s)
        return [(row, row[:]) for row in self._unwatched_rows[self._active_group]]

    def add(self, event: Event, cpu: int, count: float) -> None:
        if event in self._observed_time and event not in self.active_events:
            return  # the hardware was not watching this event
        super().add(event, cpu, count)

    def add_all_cpus(self, event: Event, counts) -> None:
        if event in self._observed_time and event not in self.active_events:
            return
        super().add_all_cpus(event, counts)

    def read_and_clear(self):
        """Extrapolated counts: observed * (window / observed time)."""
        raw = super().read_and_clear()
        window = self._window_time
        for event in self._multiplexed:
            observed = self._observed_time[event]
            if observed > 0.0 and window > 0.0:
                raw[event] = raw[event] * (window / observed)
            elif window > 0.0:
                # Never scheduled during this window: report zero and
                # let the caller treat it as a dropped sample (real
                # drivers do the same).
                raw[event] = np.zeros_like(raw[event])
            self._observed_time[event] = 0.0
        self._window_time = 0.0
        return raw

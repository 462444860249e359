"""Per-CPU performance-counter banks.

Models the Linux ``perfctr`` usage in the paper: software accumulates
the selected events per processor, reads the totals once per second and
clears the counters.  Reading is a handful of fast register accesses —
the reason the paper prefers on-chip counters over OS counters (no
system-call overhead).

Counts are accumulated in plain Python floats (one row of ``n_cpus``
accumulators per event) rather than a numpy array: the simulator's hot
loop performs dozens of scalar accumulations per tick, and a Python
``float`` add is several times cheaper than a numpy scalar indexed add
while rounding identically (both are IEEE-754 doubles).  Rows are
cleared in place so references obtained via :meth:`row` stay valid
across sampling windows.
"""

from __future__ import annotations

import numpy as np

from repro.core.events import Event


class CounterBank:
    """Accumulators for a fixed event set across ``n_cpus`` packages."""

    def __init__(self, events: "tuple[Event, ...] | list[Event]", n_cpus: int) -> None:
        if n_cpus < 1:
            raise ValueError("n_cpus must be >= 1")
        if not events:
            raise ValueError("counter bank needs at least one event")
        self.events = tuple(events)
        self.n_cpus = n_cpus
        self._index = {event: i for i, event in enumerate(self.events)}
        self._rows: "list[list[float]]" = [
            [0.0] * n_cpus for _ in self.events
        ]

    def add(self, event: Event, cpu: int, count: float) -> None:
        """Accumulate ``count`` occurrences of ``event`` on ``cpu``."""
        if count < 0:
            raise ValueError(f"negative count for {event}: {count}")
        self._rows[self._index[event]][cpu] += count

    def add_all_cpus(self, event: Event, counts: "list[float] | np.ndarray") -> None:
        """Accumulate a per-CPU vector of counts at once."""
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (self.n_cpus,):
            raise ValueError(
                f"expected {self.n_cpus} per-CPU counts, got shape {counts.shape}"
            )
        if np.any(counts < 0):
            raise ValueError(f"negative count for {event}")
        row = self._rows[self._index[event]]
        for cpu in range(self.n_cpus):
            row[cpu] += counts[cpu]

    def row(self, event: Event) -> "list[float]":
        """The live per-CPU accumulator row for ``event``.

        The returned list is the bank's own storage: the simulator's
        tick loop accumulates into it directly (``row[cpu] += count``),
        avoiding per-event method dispatch, and so skips :meth:`add`'s
        negative-count check.  The reference stays valid across
        :meth:`read_and_clear` because clearing zeroes rows in place.
        Multiplexed banks use rows too:
        :meth:`~repro.counters.multiplex.MultiplexedCounterBank.advance_and_hold`
        saves the rows their gated ``add`` would leave alone, for the
        caller to put back once the tick's counts are in.
        """
        return self._rows[self._index[event]]

    def peek(self, event: Event) -> np.ndarray:
        """Current per-CPU totals without clearing."""
        return np.asarray(self._rows[self._index[event]], dtype=float)

    def read_and_clear(self) -> "dict[Event, np.ndarray]":
        """Counts since the last read; counters reset to zero."""
        snapshot = {}
        for event, i in self._index.items():
            row = self._rows[i]
            snapshot[event] = np.asarray(row, dtype=float)
            for cpu in range(self.n_cpus):
                row[cpu] = 0.0
        return snapshot

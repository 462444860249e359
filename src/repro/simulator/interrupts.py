"""Hardware interrupt controller.

Routes device interrupts to processor packages (round-robin,
irqbalance-style) and timer interrupts to their own package, recording
every delivery in the OS's ``/proc/interrupts`` accounting.  The
processor's raw performance event only counts *how many* interrupts a
CPU serviced; per-vector attribution is the OS's doing (paper
Section 3.3, "Interrupts") — and it becomes essential once more than
one I/O device is active (disk + NIC), because the undifferentiated
count can no longer say which subsystem's power it represents.
"""

from __future__ import annotations

from repro.osim.procfs import InterruptAccounting, Vector


class InterruptController:
    """Delivery front-end over the per-vector accounting."""

    def __init__(self, n_packages: int) -> None:
        self.accounting = InterruptAccounting(n_packages)
        self.n_packages = n_packages
        #: Deliveries since the last drain, per package (all vectors).
        self._since_sample = [0.0] * n_packages
        #: Same, split per vector (the /proc/interrupts view).
        self._vector_since_sample: "dict[Vector, list[float]]" = {
            vector: [0.0] * n_packages for vector in Vector
        }
        #: Spare buffers swapped in by :meth:`drain_tick` so the hot
        #: loop does not allocate fresh lists every tick.
        self._spare_since_sample = [0.0] * n_packages
        self._spare_vector_since_sample: "dict[Vector, list[float]]" = {
            vector: [0.0] * n_packages for vector in Vector
        }

    def deliver_timer(self, per_package: "list[int]") -> None:
        """Timer ticks land on their own package.

        Accumulates straight into the accounting rows — the explicit-cpu
        ``deliver`` path with its per-call checks hoisted out (timer
        delivery runs every tick for every package).
        """
        accounting_row = self.accounting._counts[Vector.TIMER]
        since = self._since_sample
        vector_row = self._vector_since_sample[Vector.TIMER]
        for cpu, count in enumerate(per_package):
            if count:
                accounting_row[cpu] += count
                since[cpu] += count
                vector_row[cpu] += count

    def deliver_device(self, vector: Vector, count: int) -> None:
        """Device interrupts are balanced across packages."""
        for _ in range(count):
            cpu = self.accounting.deliver(vector, 1)
            self._since_sample[cpu] += 1
            self._vector_since_sample[vector][cpu] += 1

    def drain_tick(self) -> "tuple[list[float], dict[Vector, list[float]]]":
        """(all-vector totals, per-vector counts) per package this tick.

        The returned buffers are valid until the *next* drain: the
        controller keeps two sets and swaps them, zeroing the set it
        hands out for reuse, so the per-tick path allocates nothing.
        """
        n = self.n_packages
        counts = self._since_sample
        vectors = self._vector_since_sample
        self._since_sample = spare = self._spare_since_sample
        self._vector_since_sample = self._spare_vector_since_sample
        self._spare_since_sample = counts
        self._spare_vector_since_sample = vectors
        for cpu in range(n):
            spare[cpu] = 0.0
        for vector_counts in self._vector_since_sample.values():
            for cpu in range(n):
                vector_counts[cpu] = 0.0
        return counts, vectors

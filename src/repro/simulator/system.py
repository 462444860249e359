"""The simulated server: wiring and the main tick loop.

One :class:`Server` owns four CPU packages, the shared front-side bus,
DRAM, chipset, I/O chips, the disk array, the OS layer (scheduler, page
cache, timer, interrupt accounting) and the instrumentation (counter
bank + 1 Hz sampler, power sensors + DAQ).  Each tick the trickle-down
causality of the paper's Figure 1 plays out:

    threads -> uops -> cache/TLB misses -> bus -> DRAM
    threads -> file I/O -> page cache -> disk -> DMA -> bus snoops,
                 DRAM accesses, I/O switching, interrupts -> CPUs

:func:`simulate_workload` is the main entry point: it runs a workload
spec for a given duration and returns a
:class:`~repro.core.traces.MeasuredRun` ready for model training.
"""

from __future__ import annotations

import logging
from time import monotonic as _monotonic

from repro import obs
from repro.core.events import Event, Subsystem, SUBSYSTEMS
from repro.core.traces import MeasuredRun
from repro.counters.multiplex import MultiplexedCounterBank
from repro.counters.perfctr import CounterBank
from repro.counters.sampler import CounterSampler
from repro.measurement.daq import DataAcquisition
from repro.measurement.sensors import PowerSensors
from repro.measurement.sync import align_windows
from repro.osim.pagecache import PageCache
from repro.osim.procfs import Vector
from repro.osim.process import SimThread
from repro.osim.scheduler import Scheduler
from repro.osim.timer import TimerSource
from repro.simulator.chipset import ChipsetSubsystem
from repro.simulator.config import SystemConfig
from repro.simulator.cpu import CpuPackage
from repro.simulator.disk import DiskSubsystem
from repro.simulator.dma import DmaEngine
from repro.simulator.dram import DramSubsystem
from repro.simulator.interrupts import InterruptController
from repro.simulator.io_subsys import IoSubsystem
from repro.simulator.membus import FrontSideBus
from repro.simulator.nic import NicConfig, NicDevice
from repro.simulator.power import EnergyAccount, PowerBreakdown, ProcessStats
from repro.simulator.rng import RngStreams
from repro.simulator.tlb import TlbPolicy
from repro.workloads.base import WorkloadSpec

logger = logging.getLogger(__name__)

#: Coherence traffic between processors as a fraction of a package's own
#: bus transactions (the paper notes it is very small for its workloads).
_CROSS_COHERENCE_FRACTION = 0.01

#: Bucket edges for the run_ticks batch-size histogram (ticks).
_BATCH_BUCKETS = (1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0)


class Server:
    """A configured 4-way SMP server ready to run one workload."""

    def __init__(
        self,
        config: SystemConfig,
        workload: WorkloadSpec,
        seed: int,
        counter_bank: "CounterBank | None" = None,
    ) -> None:
        """Build the machine.

        ``counter_bank`` overrides the default full counter bank — pass
        a :class:`~repro.counters.multiplex.MultiplexedCounterBank` to
        emulate a PMU with fewer slots than events.  The tick loop
        accumulates into the bank's :meth:`~CounterBank.row` storage.
        """
        self.config = config
        self.workload = workload
        self.rng = RngStreams(seed)
        self.now_s = 0.0

        cpu_cfg, cache_cfg = config.cpu, config.cache
        self.packages = [
            CpuPackage(i, cpu_cfg, cache_cfg) for i in range(config.num_packages)
        ]
        self.bus = FrontSideBus(config.bus)
        self.dram = DramSubsystem(config.dram)
        self.chipset = ChipsetSubsystem(config.chipset, self.rng.stream("chipset"))
        self.io = IoSubsystem(config.io)
        self.disk = DiskSubsystem(config.disk)
        self.dma = DmaEngine(config.io)
        self.nic = NicDevice(NicConfig(), config.io)
        self.tlb_policy = TlbPolicy()

        self.scheduler = Scheduler(config.num_packages, cpu_cfg.smt_contexts)
        self.pagecache = PageCache(config.osim)
        self.timer = TimerSource(config.osim, config.num_packages)
        self.irq = InterruptController(config.num_packages)

        self.threads = [
            SimThread(i, plan, workload.variability, self.rng.stream(f"thread-{i}"))
            for i, plan in enumerate(workload.threads)
        ]

        self.counters = counter_bank or CounterBank(tuple(Event), config.num_packages)
        if self.counters.n_cpus != config.num_packages:
            raise ValueError(
                "counter bank CPU count does not match the machine"
            )
        self.sampler = CounterSampler(
            self.counters, config.measurement, self.rng.stream("sampler")
        )
        self.sensors = PowerSensors(
            SUBSYSTEMS, config.measurement, self.rng.stream("sensors")
        )
        self.daq = DataAcquisition(
            self.sensors, config.measurement, self.rng.stream("daq")
        )
        self.energy = EnergyAccount()
        #: DRAM-side latency inflation observed last tick (see
        #: DramTick.latency_factor); combines with FSB queueing.
        self._dram_latency_factor = 1.0
        #: Per-thread cumulative activity (OS-virtualised counters, the
        #: facility perfctr offered): thread_id -> ProcessStats.
        self.process_stats: "dict[int, ProcessStats]" = {}
        #: Power breakdown of the most recent tick (None before the
        #: first tick).
        self._last_breakdown: "PowerBreakdown | None" = None
        #: Optional live monitor (see :class:`repro.obs.live.LiveMonitor`);
        #: notified once per closed sampler window, never per tick.
        self._monitor = None

    # -- live monitoring ----------------------------------------------

    def attach_monitor(self, monitor) -> None:
        """Attach a live monitor notified at sampler window boundaries.

        ``monitor`` needs an ``on_window(server, pulse_s)`` method; an
        ``on_attach(server)`` hook, when present, is called now so the
        monitor can prime its baselines (e.g. the energy account).  The
        monitor only *reads* simulator state, so an attached run stays
        bit-identical to an unmonitored one.
        """
        self._monitor = monitor
        on_attach = getattr(monitor, "on_attach", None)
        if on_attach is not None:
            on_attach(self)

    def detach_monitor(self) -> None:
        self._monitor = None

    # -- one tick ------------------------------------------------------

    def tick(self) -> PowerBreakdown:
        """Advance the machine by one tick; returns true power.

        Thin wrapper over :meth:`run_ticks` so the single-tick and
        batched paths cannot diverge.
        """
        self.run_ticks(1)
        assert self._last_breakdown is not None
        return self._last_breakdown

    def run_ticks(self, n_ticks: int) -> float:
        """Advance the machine ``n_ticks`` ticks; the batched hot path.

        Produces bit-identical state to calling :meth:`tick` in a loop
        — same model arithmetic, same RNG draw order, same counter
        accumulation order — but hoists per-tick constants out of the
        loop, fuses the per-package aggregation passes, and accumulates
        directly into the counter bank's rows.  A multiplexed bank
        rotates its slots before each tick's counts and afterwards
        puts back the rows of the events its slots were not watching.

        Returns the true energy consumed over the batch in joules
        (``sum(breakdown.total_w * tick_s)``), which is what cluster
        simulations integrate.
        """
        if n_ticks <= 0:
            return 0.0
        # Profiling hooks fire once per *batch*, never per tick, so the
        # disabled path costs a single bool read and the enabled path
        # stays inside the 5% gate scripts/obs_overhead.py enforces.
        obs_on = obs.enabled()
        obs_t0 = _monotonic() if obs_on else 0.0
        cfg = self.config
        dt = cfg.tick_s
        workload = self.workload
        smt_yield = workload.smt_yield
        base_latency = cfg.bus.base_latency_cycles
        background_dma_bytes = workload.background_dma_bps * dt
        n = cfg.num_packages
        threads = self.threads
        packages = self.packages
        # Per-package bound methods plus index-assigned scratch lists,
        # reused every tick (their contents are consumed within the
        # tick before being overwritten).
        package_tick_funcs = [p.tick for p in packages]
        package_power_funcs = [p.power for p in packages]
        package_idle_funcs = [p._finish_idle_tick for p in packages]
        # Idle-branch constants (pstate is fixed for the batch: nothing
        # calls set_pstate while run_ticks is on the stack).
        package_cycles = [p._frequency_hz * dt for p in packages]
        package_isc = [p._interrupt_service_cycles for p in packages]
        package_ticks: list = [None] * n
        raw_traffic: list = [None] * n
        own_tx = [0.0] * n
        range_n = range(n)
        scheduler = self.scheduler
        bus = self.bus
        disk = self.disk
        process_stats = self.process_stats
        write_capacity = disk.write_capacity_bps()
        # Bound methods hoisted so the loop pays no attribute lookups.
        timer_tick = self.timer.tick
        irq_deliver_timer = self.irq.deliver_timer
        irq_drain = self.irq.drain_tick
        irq_deliver_device = self.irq.deliver_device
        scheduler_tick = scheduler.tick
        tlb_read_bytes = self.tlb_policy.disk_read_bytes
        pagecache_tick = self.pagecache.tick
        pagecache_request_sync = self.pagecache.request_sync
        disk_submit = disk.submit
        disk_do_tick = disk.tick
        dma_do_tick = self.dma.tick
        nic_do_tick = self.nic.tick
        bus_do_tick = bus.tick
        dram_do_tick = self.dram.tick
        chipset_do_tick = self.chipset.tick
        io_do_tick = self.io.tick
        # Energy integration is unrolled into local accumulators seeded
        # from (and written back to) the account's dict: each subsystem
        # accumulator sees the exact same sequence of ``+= watts * dt``
        # as EnergyAccount.record_dict would apply.
        if dt <= 0:
            raise ValueError("dt_s must be positive")
        energy_account = self.energy
        energy_j = energy_account._energy_j
        sub_cpu = Subsystem.CPU
        sub_chipset = Subsystem.CHIPSET
        sub_memory = Subsystem.MEMORY
        sub_io = Subsystem.IO
        sub_disk = Subsystem.DISK
        e_cpu = energy_j[sub_cpu]
        e_chipset = energy_j[sub_chipset]
        e_memory = energy_j[sub_memory]
        e_io = energy_j[sub_io]
        e_disk = energy_j[sub_disk]
        e_time = energy_account._time_s
        daq_record = self.daq.record_tick
        daq_close = self.daq.close_window
        maybe_sample = self.sampler.maybe_sample
        live_monitor = self._monitor
        vector_disk = Vector.DISK
        vector_network = Vector.NETWORK

        counters = self.counters
        multiplexed = (
            counters if isinstance(counters, MultiplexedCounterBank) else None
        )
        row = counters.row
        r_cycles = row(Event.CYCLES)
        r_halted = row(Event.HALTED_CYCLES)
        r_fetched = row(Event.FETCHED_UOPS)
        r_l3 = row(Event.L3_MISSES)
        r_tlb = row(Event.TLB_MISSES)
        r_unc = row(Event.UNCACHEABLE_ACCESSES)
        r_dma = row(Event.DMA_ACCESSES)
        r_bus = row(Event.BUS_TRANSACTIONS)
        r_irq = row(Event.INTERRUPTS)
        r_disk_irq = row(Event.DISK_INTERRUPTS)
        r_net_irq = row(Event.NETWORK_INTERRUPTS)
        r_dram_reads = row(Event.DRAM_READS)
        r_dram_writes = row(Event.DRAM_WRITES)
        r_dram_act = row(Event.DRAM_ACTIVATIONS)
        r_dram_time = row(Event.DRAM_ACTIVE_TIME)
        r_prefetch = row(Event.PREFETCH_TRANSACTIONS)
        r_writeback = row(Event.WRITEBACK_TRANSACTIONS)
        r_io_bytes = row(Event.IO_BYTES)
        r_io_tx = row(Event.IO_TRANSACTIONS)
        r_seek = row(Event.DISK_SEEK_TIME)
        r_xfer = row(Event.DISK_TRANSFER_TIME)
        r_disk_bytes = row(Event.DISK_BYTES)
        r_sectors = row(Event.OS_DISK_SECTORS)
        r_ctx = row(Event.OS_CONTEXT_SWITCHES)

        now = self.now_s
        dram_latency_factor = self._dram_latency_factor
        total_energy_j = 0.0

        for _ in range(n_ticks):
            now += dt

            # 1. Timer interrupts land per package; device interrupts
            #    from the previous tick are drained and serviced now.
            irq_deliver_timer(timer_tick(dt))
            irq_counts, vector_irq_counts = irq_drain()

            # 2./3. Schedule threads, run the packages, and accumulate
            #    the file-I/O / TLB / network quantities in the same
            #    package-order pass; each accumulator sums in package
            #    order, exactly as the per-quantity generator
            #    expressions did.
            loads = scheduler_tick(threads, now, dt)
            latency = bus.latency_cycles * dram_latency_factor
            file_read = 0.0
            file_write = 0.0
            tlb_miss_total = 0.0
            weighted_hit = 0.0
            net_rx = 0.0
            net_tx = 0.0
            sync_requested = False
            for i in range_n:
                load = loads[i]
                if load.activities:
                    pt = package_tick_funcs[i](
                        load, smt_yield, latency, base_latency, irq_counts[i], dt
                    )
                else:
                    # Inlined CpuPackage.tick idle branch (same
                    # arithmetic; the idle-tick cache sits behind
                    # _finish_idle_tick).
                    cycles_i = package_cycles[i]
                    interrupt_busy = irq_counts[i] * package_isc[i] / cycles_i
                    if interrupt_busy > 0.5:
                        interrupt_busy = 0.5
                    pt = package_idle_funcs[i](cycles_i, interrupt_busy)
                package_ticks[i] = pt
                raw_traffic[i] = pt.traffic
                file_read += pt.file_read_bytes
                file_write += pt.file_write_bytes
                tlb_miss_total += pt.traffic.tlb_misses
                weighted_hit += pt.read_hit_ratio * pt.file_read_bytes
                net_rx += pt.net_rx_bps
                net_tx += pt.net_tx_bps
                if pt.sync_requested:
                    sync_requested = True
            fault_read = tlb_read_bytes(tlb_miss_total)
            total_read = file_read + fault_read
            if total_read > 0:
                hit_ratio = weighted_hit / total_read  # faults always miss
            else:
                hit_ratio = 1.0
            if sync_requested:
                pagecache_request_sync()
            disk_request = pagecache_tick(
                file_write / dt, total_read / dt, hit_ratio, dt, write_capacity
            )

            # 4. Disk service and the DMA it performs; the NIC moves
            #    its packets the same way (device DMA + coalesced
            #    interrupts).
            disk_submit(
                disk_request.read_bytes,
                disk_request.write_bytes,
                False,
                disk_request.write_sequential,
            )
            disk_tick = disk_do_tick(dt)
            dma_tick = dma_do_tick(
                disk_tick.served_read_bytes,
                disk_tick.served_write_bytes,
                background_dma_bytes,
            )
            if dma_tick.interrupts:
                irq_deliver_device(vector_disk, dma_tick.interrupts)
            nic_tick = nic_do_tick(net_rx, net_tx, dt)
            if nic_tick.dma.interrupts:
                irq_deliver_device(vector_network, nic_tick.dma.interrupts)

            # 5. Bus arbitration; scale package traffic by what was
            #    granted (raw_traffic was filled in the package pass).
            total_dma_snoops = dma_tick.bus_snoops + nic_tick.dma.bus_snoops
            bus_tick = bus_do_tick(raw_traffic, total_dma_snoops, dt)
            demand_ratio = bus_tick.demand_ratio
            prefetch_ratio = bus_tick.prefetch_ratio
            if demand_ratio == 1.0 and prefetch_ratio == 1.0:
                granted = raw_traffic  # scaled() is the identity
            else:
                granted = [
                    t.scaled(demand_ratio, prefetch_ratio) for t in raw_traffic
                ]

            # 6. DRAM sees granted CPU traffic plus northbridge DMA.
            #    Fused pass over granted traffic; ``own_tx`` doubles as
            #    the per-package bus-transaction shares counted below.
            #    The ground-truth CPU power pass (step 7) rides along:
            #    it has no dependency on this pass's totals, and every
            #    accumulator still sums in package order.
            cpu_reads = 0.0
            cpu_writes = 0.0
            traffic_weight = 0.0
            stream_weighted = 0.0
            uncacheable_cpu = 0.0
            prefetch_total = 0.0
            cpu_power = 0.0
            halted_total = 0.0
            cycles_total = 0.0
            for i in range_n:
                t = granted[i]
                writebacks = t.writebacks
                uncacheable = t.uncacheable_accesses
                prefetch = t.prefetch_requests
                cpu_reads += t.demand_load_misses + t.pagewalk_reads + prefetch
                cpu_writes += writebacks
                # demand_transactions inlined (same left-assoc order).
                tx = (
                    t.demand_load_misses
                    + writebacks
                    + t.pagewalk_reads
                    + uncacheable
                    + prefetch
                )
                own_tx[i] = tx
                traffic_weight += tx
                stream_weighted += t.streamability * tx
                uncacheable_cpu += uncacheable
                prefetch_total += prefetch
                pt = package_ticks[i]
                cpu_power += package_power_funcs[i](pt)
                halted_total += pt.halted_cycles
                cycles_total += pt.cycles
            if traffic_weight > 0:
                blended_stream = stream_weighted / traffic_weight
            else:
                blended_stream = 0.5
            n_running = 0
            for load in loads:
                n_running += len(load.activities)
            dma_active = dma_tick.io_bytes > 0 or nic_tick.dma.io_bytes > 0
            stream_count = n_running + (1.0 if dma_active else 0.0)
            if stream_count < 1.0:
                stream_count = 1.0
            dram_tick = dram_do_tick(
                cpu_reads,
                cpu_writes,
                blended_stream,
                dma_tick.dram_reads + nic_tick.dma.dram_reads,
                dma_tick.dram_writes + nic_tick.dma.dram_writes,
                stream_count,
                dt,
            )
            dram_latency_factor = dram_tick.latency_factor

            # 7. Ground-truth power (CPU part accumulated above).
            uncacheable_total = (
                uncacheable_cpu
                + dma_tick.uncacheable_accesses
                + nic_tick.dma.uncacheable_accesses
            )
            system_activity = 1.0 - halted_total / cycles_total
            chipset_power = chipset_do_tick(
                bus_tick.utilization, uncacheable_total / dt, system_activity, dt
            )
            io_bytes = dma_tick.io_bytes + nic_tick.dma.io_bytes
            io_transactions = dma_tick.io_transactions + nic_tick.dma.io_transactions
            io_tick = io_do_tick(io_bytes, io_transactions, uncacheable_total, dt)
            memory_power = dram_tick.power_w
            io_power = io_tick.power_w
            disk_power = disk_tick.power_w
            power_dict = {
                sub_cpu: cpu_power,
                sub_chipset: chipset_power,
                sub_memory: memory_power,
                sub_io: io_power,
                sub_disk: disk_power,
            }
            e_cpu += cpu_power * dt
            e_chipset += chipset_power * dt
            e_memory += memory_power * dt
            e_io += io_power * dt
            e_disk += disk_power * dt
            e_time += dt
            total_energy_j += (
                cpu_power + chipset_power + memory_power + io_power + disk_power
            ) * dt

            # 8. Per-process accounting (OS-virtualised counters).
            for pt in package_ticks:
                for stat in pt.thread_stats:
                    record = process_stats.setdefault(
                        stat.thread_id, ProcessStats(thread_id=stat.thread_id)
                    )
                    record.runtime_s += stat.runtime_s
                    record.executed_uops += stat.executed_uops
                    record.fetched_uops += stat.fetched_uops
                    record.bus_transactions += stat.bus_demand_tx * demand_ratio

            # 9. Counters: per-package events.  ``traffic_weight`` is
            #    the sum of ``own_tx`` in the same order, so it carries
            #    the cross-package coherence total.  A multiplexed PMU
            #    rotates first; the rows of the events its slots were
            #    not watching are put back afterwards, exactly what its
            #    gated ``add`` would have left.
            if multiplexed is not None:
                unwatched = multiplexed.advance_and_hold(dt)
            driver_uncacheable = (
                dma_tick.uncacheable_accesses + nic_tick.dma.uncacheable_accesses
            ) / n
            snoops = bus_tick.granted_dma_snoops
            disk_irqs = vector_irq_counts[vector_disk]
            net_irqs = vector_irq_counts[vector_network]
            for i in range(n):
                pt = package_ticks[i]
                t = granted[i]
                tx = own_tx[i]
                r_cycles[i] += pt.cycles
                r_halted[i] += pt.halted_cycles
                r_fetched[i] += pt.fetched_uops
                r_l3[i] += t.demand_load_misses
                r_tlb[i] += t.tlb_misses
                r_unc[i] += t.uncacheable_accesses + driver_uncacheable
                # Every package snoops the shared bus: its DMA/Other
                # event counts all DMA snoops plus coherence from other
                # packages.
                other_coherence = (traffic_weight - tx) * _CROSS_COHERENCE_FRACTION
                r_dma[i] += snoops + other_coherence
                r_bus[i] += tx + snoops + other_coherence
                r_irq[i] += irq_counts[i]
                r_disk_irq[i] += disk_irqs[i]
                r_net_irq[i] += net_irqs[i]
            # Subsystem-local events (column 0 carries system-wide totals).
            r_dram_reads[0] += dram_tick.reads
            r_dram_writes[0] += dram_tick.writes
            r_dram_act[0] += dram_tick.activations
            r_dram_time[0] += dram_tick.active_fraction * dt
            r_prefetch[0] += prefetch_total
            r_writeback[0] += cpu_writes
            r_io_bytes[0] += io_bytes
            r_io_tx[0] += io_transactions
            r_seek[0] += disk_tick.seek_time_s
            r_xfer[0] += disk_tick.transfer_time_s
            served = disk_tick.served_bytes
            r_disk_bytes[0] += served
            r_sectors[0] += served / 512.0
            r_ctx[0] += float(scheduler.context_switches)
            if multiplexed is not None:
                for held_row, saved in unwatched:
                    held_row[:] = saved

            # 10. Instrumentation: DAQ integrates power; the sampler
            #    may close a window (emitting the sync pulse to the
            #    DAQ).
            daq_record(power_dict, now, dt)
            pulse = maybe_sample(now)
            if pulse is not None:
                daq_close(pulse)
                if live_monitor is not None:
                    # Window-rate (~1 Hz), not tick-rate: the energy
                    # accumulators must be visible to the monitor, so
                    # flush the batch-local state first.
                    self.now_s = now
                    energy_j[sub_cpu] = e_cpu
                    energy_j[sub_chipset] = e_chipset
                    energy_j[sub_memory] = e_memory
                    energy_j[sub_io] = e_io
                    energy_j[sub_disk] = e_disk
                    energy_account._time_s = e_time
                    live_monitor.on_window(self, pulse)

        self.now_s = now
        self._dram_latency_factor = dram_latency_factor
        energy_j[sub_cpu] = e_cpu
        energy_j[sub_chipset] = e_chipset
        energy_j[sub_memory] = e_memory
        energy_j[sub_io] = e_io
        energy_j[sub_disk] = e_disk
        energy_account._time_s = e_time
        self._last_breakdown = PowerBreakdown(
            cpu_w=cpu_power,
            chipset_w=chipset_power,
            memory_w=memory_power,
            io_w=io_power,
            disk_w=disk_power,
        )
        if obs_on:
            self._record_telemetry(n_ticks, _monotonic() - obs_t0)
        return total_energy_j

    def _record_telemetry(self, n_ticks: int, elapsed_s: float) -> None:
        """Batch-boundary profiling hook for :meth:`run_ticks`.

        Deterministic metrics (tick counts, batch sizes, per-subsystem
        energy) are labelled by workload so a parallel sweep's merged
        registry equals the serial one; wall-clock metrics (batch
        seconds, ticks/s) are inherently machine- and load-dependent.
        """
        reg = obs.registry()
        labels = {"workload": self.workload.name}
        reg.inc("sim_ticks_total", float(n_ticks), labels)
        reg.observe("sim_batch_ticks", float(n_ticks), labels, buckets=_BATCH_BUCKETS)
        reg.observe("sim_run_ticks_seconds", elapsed_s, labels)
        if elapsed_s > 0:
            reg.gauge("sim_ticks_per_second", n_ticks / elapsed_s, labels)
        reg.gauge("sim_time_seconds", self.now_s, labels)
        for subsystem in SUBSYSTEMS:
            reg.gauge(
                "sim_energy_joules",
                self.energy._energy_j[subsystem],
                {"workload": self.workload.name, "subsystem": subsystem.value},
            )
        idle_ticks = sum(p.idle_ticks for p in self.packages)
        if idle_ticks:
            rebuilds = sum(p.idle_tick_builds for p in self.packages)
            reg.gauge(
                "sim_idle_cache_hit_ratio", 1.0 - rebuilds / idle_ticks, labels
            )

    # -- DVFS (extension) ------------------------------------------------

    def set_pstate(self, package_id: int, state_index: int) -> None:
        """Switch one package's DVFS operating point (0 = nominal)."""
        self.packages[package_id].set_pstate(state_index)

    def set_all_pstates(self, state_index: int) -> None:
        """Switch every package to the same DVFS operating point."""
        for package in self.packages:
            package.set_pstate(state_index)

    # -- full runs -----------------------------------------------------

    def run(self, duration_s: float) -> MeasuredRun:
        """Run the workload for ``duration_s`` and assemble the traces."""
        if duration_s < 2.0 * self.config.measurement.sample_period_s:
            raise ValueError(
                "duration must cover at least two sampling windows; got "
                f"{duration_s}s"
            )
        n_ticks = int(round(duration_s / self.config.tick_s))
        self.run_ticks(n_ticks)
        counters = self.sampler.finish()
        power = self.daq.finish()
        counters, power = align_windows(counters, power)
        return MeasuredRun(
            workload=self.workload.name,
            counters=counters,
            power=power,
            seed=self.rng.seed,
            metadata={
                "duration_s": duration_s,
                "tick_s": self.config.tick_s,
                "n_threads": self.workload.n_threads,
                "true_mean_power_w": {
                    s.value: self.energy.mean_power_w(s) for s in SUBSYSTEMS
                },
            },
        )


def simulate_workload(
    workload: WorkloadSpec,
    duration_s: float = 300.0,
    seed: int = 1,
    config: SystemConfig | None = None,
    pstate: int = 0,
) -> MeasuredRun:
    """Instrumented run of ``workload``: the paper's measurement setup.

    Args:
        workload: behaviour profile (see :mod:`repro.workloads`).
        duration_s: simulated wall-clock seconds.
        seed: RNG seed; same (workload, seed), same run.  The workload
            name is mixed into the seed so different workloads at the
            same base seed do not share noise streams (a shared stream
            would give every run the same sensor-chain artefacts, e.g.
            an identical chipset derivation offset).
        config: server configuration; defaults to the calibrated 4-way
            Xeon-like machine.
        pstate: DVFS operating point for every package (0 = nominal).
    """
    from repro.simulator.rng import _stable_hash

    mixed_seed = (int(seed) * 1000003 + _stable_hash(workload.name)) % (2**31)
    server = Server(config or SystemConfig(), workload, mixed_seed)
    if pstate:
        server.set_all_pstates(pstate)
    run = server.run(duration_s)
    run.metadata["base_seed"] = int(seed)
    run.metadata["pstate"] = int(pstate)
    return run

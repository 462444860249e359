"""Structure-of-arrays fleet simulator: many servers per numpy pass.

:class:`FleetServer` holds the state of ``width`` independent simulated
servers ("lanes") as numpy arrays whose **last axis is the lane axis**
and advances all of them together: one call to :meth:`run_ticks` applies
each subsystem update (scheduler, CPU packages, cache, bus, DRAM,
chipset, disk, NIC, DMA, interrupts, page cache, sensors/DAQ) across
the whole fleet per tick.  Per-lane work that cannot vectorize — RNG
buffer refills and sampling-window bookkeeping — happens on the rare
ticks where it is due, so the aggregate cost per lane-tick shrinks
roughly with the fleet width.

Per-thread work is sized by the threads that can run, not by the
workload: each batch computes only the prefix of thread rows up to the
last thread that is enabled, unfinished and started (by the batch's
end) on some active lane.  A workload whose threads start staggered
(gcc: one every 30 s) pays for one row until the second one starts.
Within that prefix every thread's RNG draws come from one
:class:`_FleetNormalStream` call and the per-package partials from one
``np.bincount`` (:func:`_package_partials`).

Equivalence with the scalar :class:`~repro.simulator.system.Server`
--------------------------------------------------------------------

Each lane consumes exactly the RNG streams a scalar ``Server`` with the
same seed would (same stream names, same draw order), and the per-tick
arithmetic mirrors the scalar code term by term in the same evaluation
order.  Lane state is therefore *bit-identical* to the scalar server
for everything on the simulation side: performance counters, sampler
windows, per-subsystem energy, and process stats.  The three
per-thread shortcuts keep this: a skipped thread row would only have
added +0.0 to sums that are never -0.0; each (thread, lane) stream
keeps its own generator, buffer and cursor; and ``np.bincount`` adds
into zeroed bins in input order, which is thread order.

One measurement-side term differs: the sensor drift factor uses
``np.sin`` where the scalar path uses ``math.sin``.  The two agree to
within ~1 ulp but are not guaranteed bit-equal, so DAQ power traces
(and anything derived from them, e.g. ``MeasuredRun.power``) are
tolerance-bounded rather than bit-exact — relative error is bounded by
a few 1e-16 per tick and stays far below the modelled acquisition
noise.  Callers that need bit-exact traces run
:func:`~repro.simulator.system.simulate_workload` once per seed.  The
drift term feeds no simulation state back, so counters and energy stay
bit-exact.

Lanes are independent: lane ``i``'s entire trace depends only on its
own seed and workload, never on the fleet width or on other lanes.

Lanes are watched in batches: :meth:`FleetServer.attach_fleet_monitor`
pulses one monitor (:class:`~repro.obs.fleet.FleetMonitor`) with every
tick's closing lanes, and an external control loop reads counters with
:meth:`FleetServer.read_and_clear_lanes`.  :meth:`FleetServer.lane`
returns a read-only ``Server``-shaped view of one lane for checks
against the scalar server.

Not supported by the fleet (use :class:`~repro.simulator.system.Server`):
custom counter banks (multiplexed PMUs), per-package DVFS differing
*within* a lane (per-lane uniform pstates are fine), and the RC thermal
model (which the scalar server also keeps outside its tick loop).
"""

from __future__ import annotations

import math
from time import monotonic as _monotonic

import numpy as np

from repro import obs
from repro.core.events import SUBSYSTEMS, Event, Subsystem
from repro.core.traces import CounterTrace, MeasuredRun, PowerTrace
from repro.measurement.sync import align_windows
from repro.osim.process import _ou_coefficients
from repro.osim.procfs import Vector
from repro.simulator.config import SystemConfig
from repro.simulator.disk import _RANDOM_REQUEST_BYTES, _SEQUENTIAL_REQUEST_BYTES
from repro.simulator.power import ProcessStats
from repro.simulator.rng import _stable_hash
from repro.simulator.system import _BATCH_BUCKETS, _CROSS_COHERENCE_FRACTION
from repro.workloads.base import ThreadPlan, WorkloadSpec

__all__ = ["FleetServer", "simulate_fleet"]

#: Event index map in counter-bank declaration order (bank rows).
_EVENTS = tuple(Event)
_EIDX = {event: i for i, event in enumerate(_EVENTS)}
_N_EVENTS = len(_EVENTS)

#: Interrupt vectors delivered through the fleet's shared round-robin
#: cursor, in scalar delivery order (procfs accounting rows).
_VECTORS = tuple(Vector)
_VIDX = {vector: i for i, vector in enumerate(_VECTORS)}


def _lane_generator(seed: int, name: str) -> np.random.Generator:
    """The generator ``RngStreams(seed).stream(name)`` would return."""
    child_seed = np.random.SeedSequence(
        entropy=int(seed), spawn_key=(_stable_hash(name),)
    )
    return np.random.default_rng(child_seed)


class _FleetNormalStream:
    """Buffered standard-normal draws for a block of streams, scalar-exact.

    Mirrors :class:`repro.simulator.rng.NormalStream` for a ``(rows,
    width)`` block of independent generators — one row per workload
    thread (or a single row for a per-lane stream), one column per
    lane.  Each (row, lane) stream has its own generator, buffer and
    cursor, so it hands out exactly the sequence the scalar stream at
    that lane's seed would, and one call draws for a whole ``(k,
    width)`` block at once.

    ``standard_normal(n)`` fills its output one value at a time, so
    refilling ``CHUNK`` values at a time yields the scalar stream's
    1024-value blocks bit for bit.  The small chunk keeps the buffer
    (``rows * width * CHUNK`` doubles) below numpy's 4 MiB huge-page
    threshold at the fleet widths the benchmarks run, so streams that
    never draw commit no memory.  A stream only refills (and its
    cursor only advances) on calls where ``mask`` is true for it —
    frozen lanes and threads that do not run consume nothing.
    """

    CHUNK = 128

    __slots__ = ("_gens", "_buf", "_flat", "_base", "_pos")

    def __init__(self, gens: "list[list[np.random.Generator]]") -> None:
        rows, width = len(gens), len(gens[0])
        chunk = self.CHUNK
        self._gens = gens
        self._buf = np.zeros((rows, width, chunk))
        self._flat = self._buf.reshape(-1)
        #: Flat offset of each stream's buffer.
        self._base = np.arange(0, rows * width * chunk, chunk).reshape(
            rows, width
        )
        #: Cursor at chunk => empty, refill before next draw.
        self._pos = np.full((rows, width), chunk, dtype=np.int64)

    def next(self, mask: np.ndarray) -> np.ndarray:
        """One draw per stream of the first ``len(mask)`` rows where
        ``mask``; other streams get garbage.

        The returned values at ``~mask`` are stale buffer contents —
        callers must gate on ``mask`` (the tick loop always does via
        ``np.copyto``).
        """
        chunk = self.CHUNK
        pos = self._pos[: mask.shape[0]]
        need = mask & (pos >= chunk)
        if need.any():
            buf, gens = self._buf, self._gens
            for row, lane in zip(*np.nonzero(need)):
                buf[row, lane] = gens[row][lane].standard_normal(chunk)
            pos[need] = 0
        # An empty stream that does not draw reads one past its buffer;
        # "clip" keeps the last stream's overrun in bounds.
        out = self._flat.take(self._base[: mask.shape[0]] + pos, mode="clip")
        pos += mask
        return out


class _PlanTable:
    """One thread's phase plan, gathered into per-phase numpy columns.

    The scalar path looks up a :class:`PhaseBehavior` per tick and
    reads ~20 attributes; here each attribute (or the exact product the
    scalar tick computes from it) becomes one ``(n_phases,)`` array, so
    a single fancy-index per tick gathers every lane's current phase
    parameters at once.  Products folded in at build time reproduce the
    scalar association order exactly (noted per field).
    """

    __slots__ = (
        "start_s",
        "cycle_s",
        "loop",
        "bounds",
        "n_phases",
        "upc",
        "sm_miss",
        "wf1",
        "fp",
        "spec",
        "l3",
        "tlbk",
        "wb",
        "cpress",
        "stream",
        "unc_dt",
        "occ0",
        "fr_dt",
        "fw_dt",
        "hw_dt",
        "net_rx",
        "net_tx",
        "sync",
        "name_ids",
        "mat",
    )

    def __init__(self, plan: ThreadPlan, pagewalk_per_tlb: float, dt: float) -> None:
        self.start_s = plan.start_time_s
        self.cycle_s = plan.cycle_duration_s
        self.loop = plan.loop
        # Accumulated in phase order so boundaries are bit-identical to
        # SimThread._phase_bounds.
        bounds: list[float] = []
        elapsed = 0.0
        for phase in plan.phases:
            elapsed += phase.duration_s
            bounds.append(elapsed)
        self.bounds = np.asarray(bounds)
        self.n_phases = len(bounds)

        def col(values: "list[float]") -> np.ndarray:
            return np.asarray(values, dtype=np.float64)

        behaviors = [phase.behavior for phase in plan.phases]
        self.upc = col([b.uops_per_cycle for b in behaviors])
        # memory_sensitivity * misses_per_uop, associated as the scalar
        # tick does: ms * ((l3 + pw*tlbk) / 1000.0).
        self.sm_miss = col(
            [
                b.memory_sensitivity
                * (
                    (
                        b.l3_load_misses_per_kuop
                        + pagewalk_per_tlb * b.tlb_misses_per_kuop
                    )
                    / 1000.0
                )
                for b in behaviors
            ]
        )
        self.wf1 = col([1.0 + b.wrongpath_fraction for b in behaviors])
        self.fp = col([b.fp_fraction for b in behaviors])
        self.spec = col([b.speculation_factor for b in behaviors])
        self.l3 = col([b.l3_load_misses_per_kuop for b in behaviors])
        self.tlbk = col([b.tlb_misses_per_kuop for b in behaviors])
        self.wb = col([b.writeback_ratio for b in behaviors])
        self.cpress = col([b.cache_pressure for b in behaviors])
        self.stream = col([b.streamability for b in behaviors])
        # uncacheable_per_s * dt (scalar: (unc * dt) * occupancy).
        self.unc_dt = col([b.uncacheable_per_s * dt for b in behaviors])
        self.occ0 = col([1.0 - b.blocking_fraction for b in behaviors])
        self.fr_dt = col([b.disk_read_bps * dt for b in behaviors])
        self.fw_dt = col([b.disk_write_bps * dt for b in behaviors])
        # (hit_ratio * read_bps) * dt, the scalar accumulation term.
        self.hw_dt = col(
            [b.page_cache_hit_ratio * b.disk_read_bps * dt for b in behaviors]
        )
        self.net_rx = col([b.net_rx_bps for b in behaviors])
        self.net_tx = col([b.net_tx_bps for b in behaviors])
        self.sync = np.asarray([bool(b.sync_file) for b in behaviors])
        # Sync-phase re-entry compares phase *names* in the scalar path,
        # so ids are assigned per distinct name within this plan.
        ids: dict[str, int] = {}
        name_ids = []
        for phase in plan.phases:
            name_ids.append(ids.setdefault(phase.name, len(ids)))
        self.name_ids = np.asarray(name_ids, dtype=np.int64)
        # Stacked (n_phases, 17) parameter matrix: one fancy-index per
        # tick gathers every column at once.  Column order = the _C_*
        # constants below.
        self.mat = np.stack(
            (
                self.upc, self.sm_miss, self.wf1, self.fp, self.spec,
                self.l3, self.tlbk, self.wb, self.cpress, self.stream,
                self.unc_dt, self.occ0, self.fr_dt, self.fw_dt,
                self.hw_dt, self.net_rx, self.net_tx,
            ),
            axis=1,
        )


#: Column indices into :attr:`_PlanTable.mat`.
(
    _C_UPC, _C_SM, _C_WF1, _C_FP, _C_SPEC, _C_L3, _C_TLBK, _C_WB,
    _C_CPRESS, _C_STREAM, _C_UNC, _C_OCC0, _C_FR, _C_FW, _C_HW,
    _C_NRX, _C_NTX,
) = range(17)


def _package_partials(
    contrib: np.ndarray, affinity: np.ndarray, running: np.ndarray, n_pkg: int
) -> np.ndarray:
    """Per-package sums of per-thread quantities, in thread order.

    ``contrib`` is ``(n_q, n_thr, width)``; each running (thread, lane)
    pair adds its column ``contrib[:, k, i]`` to package
    ``affinity[k, i]`` of lane ``i``.  Returns ``(n_q, n_pkg, width)``.

    ``np.bincount`` adds each weight into zeroed bins in input order,
    and the weights go in ``(quantity, thread, lane)`` order, so every
    bin is the thread-order sum the scalar per-package accumulators
    compute.  Pairs that do not run, or have no package yet (affinity
    -1), land in a trash package row past the last real one.
    """
    n_q, _, width = contrib.shape
    pkg = np.where(running & (affinity >= 0), affinity, n_pkg)
    cell = pkg * width + np.arange(width)
    stride = (n_pkg + 1) * width
    bins = np.arange(0, n_q * stride, stride)[:, None, None] + cell
    sums = np.bincount(
        bins.ravel(), weights=contrib.ravel(), minlength=n_q * stride
    )
    return sums.reshape(n_q, n_pkg + 1, width)[:, :n_pkg]


class FleetServer:
    """``width`` independent simulated servers stepped in lockstep.

    Args:
        config: shared :class:`SystemConfig` for every lane.
        workload: shared workload spec for every lane.
        seeds: one RNG seed per lane.  Lane ``i`` reproduces exactly
            what ``Server(config, workload, seeds[i])`` would (see the
            module docstring for the one tolerance-bounded exception).
    """

    def __init__(
        self,
        config: SystemConfig,
        workload: WorkloadSpec,
        seeds: "list[int] | tuple[int, ...]",
    ) -> None:
        seeds = tuple(int(s) for s in seeds)
        if not seeds:
            raise ValueError("a fleet needs at least one lane")
        self.config = config
        self.workload = workload
        self.seeds = seeds
        self.width = len(seeds)
        #: Optional fleet-wide monitor (see :meth:`attach_fleet_monitor`).
        self._fleet_monitor = None

        width = self.width
        n_pkg = config.num_packages
        n_thr = workload.n_threads
        dt = config.tick_s
        self._n_pkg = n_pkg
        self._n_thr = n_thr
        self._dt = dt

        # -- per-lane RNG streams, in scalar construction/draw order --
        chipset_cfg = config.chipset
        chip_gens = [_lane_generator(seed, "chipset") for seed in seeds]
        low = -chipset_cfg.derivation_offset_range_w
        high = chipset_cfg.derivation_offset_range_w / 4.0
        self._chip_mean = np.asarray(
            [float(gen.uniform(low, high)) for gen in chip_gens]
        )
        self._chip_stream = _FleetNormalStream([chip_gens])
        self._thread_stream = _FleetNormalStream(
            [
                [_lane_generator(seed, f"thread-{k}") for seed in seeds]
                for k in range(n_thr)
            ]
        )
        meas = config.measurement
        self._samp_gens = [_lane_generator(seed, "sampler") for seed in seeds]
        first_deadline = [
            0.0
            + max(
                meas.sample_period_s + float(gen.normal(0.0, meas.sample_jitter_s)),
                1.0e-3,
            )
            for gen in self._samp_gens
        ]
        sensor_gens = [_lane_generator(seed, "sensors") for seed in seeds]
        gains = np.empty((5, width))
        drift_phases = np.empty((5, width))
        for lane, gen in enumerate(sensor_gens):
            for si in range(5):  # all gains first, then all phases
                gains[si, lane] = 1.0 + float(gen.normal(0.0, meas.gain_error_rel))
            for si in range(5):
                drift_phases[si, lane] = float(gen.uniform(0.0, 2.0 * math.pi))
        self._gains = gains
        self._drift_phases = drift_phases
        self._daq_gens = [_lane_generator(seed, "daq") for seed in seeds]

        # -- phase-plan tables -----------------------------------------
        pagewalk_per_tlb = config.cache.pagewalk_reads_per_tlb_miss
        # Combined tables: every thread's phases stacked so one fancy
        # index per tick gathers all (thread, lane) phase rows at once.
        plans = [
            _PlanTable(plan, pagewalk_per_tlb, dt) for plan in workload.threads
        ]
        self._mat_all = np.concatenate([t.mat for t in plans], axis=0)
        self._name_all = np.concatenate([t.name_ids for t in plans])
        self._sync_all = np.concatenate([t.sync for t in plans])
        self._plan_offsets = np.cumsum(
            [0] + [t.n_phases for t in plans[:-1]], dtype=np.int64
        )[:, None]
        # Phase end times, one row per thread, padded with +inf so a
        # comparison count over a row is the thread's phase index.
        bounds_tab = np.full((n_thr, max(t.n_phases for t in plans)), np.inf)
        for k, t in enumerate(plans):
            bounds_tab[k, : t.n_phases] = t.bounds
        self._bounds_tab = bounds_tab
        self._start_col = np.asarray([t.start_s for t in plans])[:, None]
        self._cycle_col = np.asarray([t.cycle_s for t in plans])[:, None]
        self._loop_col = np.asarray(
            [t.loop for t in plans], dtype=bool
        )[:, None]
        self._nph_col = np.asarray(
            [t.n_phases for t in plans], dtype=np.int64
        )[:, None]
        self._has_nonloop = not all(t.loop for t in plans)

        # -- per-tick constants (python floats, scalar association) ----
        cpu = config.cpu
        self._smt = cpu.smt_contexts
        self._max_upc = cpu.max_uops_per_cycle
        self._isc = cpu.interrupt_service_cycles
        self._stall_fraction = cpu.stall_power_fraction
        self._uop_w = cpu.uop_power_w
        self._spec_w = cpu.speculation_power_w
        self._fp_premium = cpu.fp_power_premium
        self._smt_yield = workload.smt_yield
        self._variability = workload.variability
        self._ou_alpha, self._ou_noise = _ou_coefficients(dt)
        self._pw_per_tlb = pagewalk_per_tlb
        self._ppm = config.cache.prefetch_per_miss
        self._timer_per_tick = config.osim.timer_hz * dt
        bus = config.bus
        self._base_latency = bus.base_latency_cycles
        self._bus_cap_dt = bus.capacity_tx_per_s * dt
        self._bus_congestion = bus.congestion_factor
        dram = config.dram
        self._dram_cap_dt = dram.capacity_access_per_s * dt
        self._dram_read_e = dram.read_energy_j
        self._dram_write_e = dram.write_energy_j
        self._dram_act_e = dram.activation_energy_j
        self._dram_bg_dt = dram.background_power_w * dt
        self._row_rand = dram.random_row_hit_rate
        self._row_stream = dram.streaming_row_hit_rate
        self._dram_rtf = dram.random_throughput_factor
        self._dram_congestion = dram.congestion_factor
        self._dram_cong_cap = 1.0 - 1.0 / dram.max_latency_factor
        # DMA row-hit base at streamability 0.9 (scalar row_hit_rate).
        self._dma_hit_base = self._row_rand + (
            self._row_stream - self._row_rand
        ) * 0.9
        chip = config.chipset
        self._chip_nominal = chip.nominal_power_w
        self._chip_bus_w = chip.bus_sensitivity_w
        self._chip_io_w = chip.io_sensitivity_w
        chip_alpha = math.exp(-dt / 120.0)  # ChipsetSubsystem._DRIFT_TAU_S
        self._chip_alpha = chip_alpha
        self._chip_noise = (
            math.sqrt(max(0.0, 1.0 - chip_alpha * chip_alpha)) * 0.12
        )
        io_cfg = config.io
        self._io_static = io_cfg.static_power_w
        self._io_sw_e = io_cfg.switching_energy_per_byte_j
        self._io_tx_e = io_cfg.transaction_overhead_j
        self._line_bytes = float(io_cfg.line_bytes)
        self._tx_factor = 1.0 - io_cfg.write_combining_efficiency
        self._dma_bpi = io_cfg.bytes_per_interrupt
        self._nic_bpi = 32.0 * 1024.0  # NicConfig.bytes_per_interrupt
        self._nic_line = 125.0e6  # NicConfig.line_rate_bps
        self._bg_half = (workload.background_dma_bps * dt) / 2.0
        disk = config.disk
        self._num_disks = disk.num_disks
        self._disk_budget0 = dt * disk.num_disks
        seq_access = disk.avg_access_time_s * 0.08
        seq_service = seq_access + _SEQUENTIAL_REQUEST_BYTES / disk.transfer_rate_bps
        self._seq_thr = _SEQUENTIAL_REQUEST_BYTES / seq_service
        self._seq_seekf = seq_access / seq_service
        rand_service = (
            disk.avg_access_time_s + _RANDOM_REQUEST_BYTES / disk.transfer_rate_bps
        )
        self._rand_thr = _RANDOM_REQUEST_BYTES / rand_service
        self._rand_seekf = disk.avg_access_time_s / rand_service
        self._rot_n = disk.rotation_power_w * disk.num_disks
        self._seek_w = disk.seek_power_w
        self._xfer_w = disk.transfer_power_w
        self._wc_dt = disk.transfer_rate_bps * disk.num_disks * 0.9 * dt
        osim = config.osim
        self._pc_bytes = osim.page_cache_bytes
        self._pc_bg_ratio = osim.dirty_background_ratio
        self._pc_denom = max(1.0e-9, osim.dirty_ratio - osim.dirty_background_ratio)
        # TlbPolicy defaults: major faults per TLB miss, bytes per fault.
        self._tlb_fault_ratio = 5.0e-6
        self._tlb_fault_bytes = 4096.0 * 8
        self._drift_rel = meas.drift_rel
        self._sample_period = meas.sample_period_s
        self._sample_jitter = meas.sample_jitter_s
        self._daq_rate = meas.daq_rate_hz
        self._daq_noise_rel = meas.daq_noise_rel
        self._pstate_index = 0
        self._lane_pstates: "np.ndarray | None" = None
        self._refresh_pstate()

        # -- SoA state (last axis = lane); everything listed in
        # _STATE_NAMES is snapshot/restored around frozen lanes --------
        self._now = np.zeros(width)
        self._timer_residual = np.zeros(width)
        self._pend_disk = np.zeros((n_pkg, width))
        self._pend_net = np.zeros((n_pkg, width))
        self._irq_cursor = np.zeros(width, dtype=np.int64)
        self._acct = np.zeros((len(_VECTORS), n_pkg, width))
        self._runtime = np.zeros((n_thr, width))
        self._ou = np.zeros((n_thr, width))
        self._last_name_id = np.full((n_thr, width), -1, dtype=np.int64)
        self._finished = np.zeros((n_thr, width), dtype=bool)
        self._affinity = np.full((n_thr, width), -1, dtype=np.int64)
        self._bound = np.zeros((n_pkg, width), dtype=np.int64)
        self._ctx = np.zeros(width, dtype=np.int64)
        self._bus_latency = np.full(width, self._base_latency)
        self._dram_latency = np.ones(width)
        self._pc_dirty = np.zeros(width)
        self._pc_pending = np.zeros(width)
        self._pc_synced = np.zeros(width)
        self._q_seq_write = np.zeros(width)
        self._q_rand_read = np.zeros(width)
        self._q_rand_write = np.zeros(width)
        self._disk_total = np.zeros(width)
        self._dma_residual = np.zeros(width)
        self._nic_residual = np.zeros(width)
        self._nic_total = np.zeros(width)
        self._io_total = np.zeros(width)
        self._chip_offset = self._chip_mean.copy()
        self._counts3d = np.zeros((_N_EVENTS, n_pkg, width))
        self._energy5 = np.zeros((5, width))
        self._e_time = np.zeros(width)
        self._wenergy = np.zeros((5, width))
        self._proc_runtime = np.zeros((n_thr, width))
        self._proc_exec = np.zeros((n_thr, width))
        self._proc_fetch = np.zeros((n_thr, width))
        self._proc_bus = np.zeros((n_thr, width))
        self._ran_ever = np.zeros((n_thr, width), dtype=bool)
        self._samp_wstart = np.zeros(width)
        self._samp_deadline = np.asarray(first_deadline)
        self._daq_wstart = np.zeros(width)
        #: Enabled thread mask — *configuration*, not rolled back on
        #: freeze (cluster load control flips it between batches).
        self._enabled = np.ones((n_thr, width), dtype=bool)

        # Per-lane window logs (appends are masked by ``active``).
        self._samp_ts: "list[list[float]]" = [[] for _ in range(width)]
        self._samp_dur: "list[list[float]]" = [[] for _ in range(width)]
        self._samp_counts: "list[list[np.ndarray]]" = [[] for _ in range(width)]
        self._daq_ts: "list[list[float]]" = [[] for _ in range(width)]
        self._daq_means: "list[list[list[float]]]" = [
            [[] for _ in range(5)] for _ in range(width)
        ]

    #: Mutable per-lane state rolled back for frozen lanes around each
    #: batch (RNG draws and window-log appends are masked instead).
    _STATE_NAMES = (
        "_now",
        "_timer_residual",
        "_pend_disk",
        "_pend_net",
        "_irq_cursor",
        "_acct",
        "_runtime",
        "_ou",
        "_last_name_id",
        "_finished",
        "_affinity",
        "_bound",
        "_ctx",
        "_bus_latency",
        "_dram_latency",
        "_pc_dirty",
        "_pc_pending",
        "_pc_synced",
        "_q_seq_write",
        "_q_rand_read",
        "_q_rand_write",
        "_disk_total",
        "_dma_residual",
        "_nic_residual",
        "_nic_total",
        "_io_total",
        "_chip_offset",
        "_counts3d",
        "_energy5",
        "_e_time",
        "_wenergy",
        "_proc_runtime",
        "_proc_exec",
        "_proc_fetch",
        "_proc_bus",
        "_ran_ever",
        "_samp_wstart",
        "_samp_deadline",
        "_daq_wstart",
    )

    def _refresh_pstate(self) -> None:
        """Recompute frequency-derived constants (mirrors CpuPackage).

        Uniform fleets keep these as python floats (the fast path, and
        bit-identical to the pre-per-lane code); with per-lane pstates
        set they become ``(width,)`` arrays, which broadcast against
        the lane-axis-last state everywhere the hot loop uses them.
        Elementwise IEEE ops match the scalar ones, so each lane stays
        bit-identical to a scalar server pinned at that lane's pstate.
        """
        cpu = self.config.cpu
        nominal = cpu.dvfs_states[0].frequency_hz
        if self._lane_pstates is None:
            state = cpu.dvfs_states[self._pstate_index]
            vscale: "float | np.ndarray" = state.voltage_scale
            freq: "float | np.ndarray" = state.frequency_hz
        else:
            vs = np.array([s.voltage_scale for s in cpu.dvfs_states])
            fs = np.array([s.frequency_hz for s in cpu.dvfs_states])
            vscale = vs[self._lane_pstates]
            freq = fs[self._lane_pstates]
        self._voltage_sq = vscale**2
        self._power_scale = vscale**2 * (freq / nominal)
        self._cycles = freq * self._dt
        self._halted_v = cpu.halted_power_w * self._voltage_sq
        self._active_delta = cpu.active_idle_power_w - cpu.halted_power_w
        # Scalar step 6 sums pt.cycles package by package; replicate the
        # sequential adds so ties in float rounding match exactly.
        total: "float | np.ndarray" = 0.0
        for _ in range(self.config.num_packages):
            total = total + self._cycles
        self._cycles_total = total

    # -- control API ---------------------------------------------------

    @property
    def now_s(self) -> float:
        """Simulated time of lane 0 (all active lanes share a clock)."""
        return float(self._now[0])

    def set_all_pstates(self, state_index: int) -> None:
        """Switch every package of every lane to one DVFS point."""
        if not 0 <= state_index < len(self.config.cpu.dvfs_states):
            raise ValueError(
                f"pstate {state_index} out of range; package has "
                f"{len(self.config.cpu.dvfs_states)} states"
            )
        self._pstate_index = state_index
        self._lane_pstates = None
        self._refresh_pstate()

    def set_lane_pstates(self, pstates) -> None:
        """Per-lane DVFS: lane ``i`` runs at ``pstates[i]``.

        The control surface datacenter power policies coordinate
        through — each node (lane) is shifted independently along the
        ladder between batches.  Per-lane pstates are *configuration*
        like ``_enabled``: frozen lanes keep them, nothing rolls them
        back.  A uniform vector collapses to the scalar fast path.
        """
        idx = np.asarray(pstates, dtype=np.int64)
        if idx.shape != (self.width,):
            raise ValueError(
                f"pstates must have shape ({self.width},); got {idx.shape}"
            )
        n_states = len(self.config.cpu.dvfs_states)
        if idx.size and (idx.min() < 0 or idx.max() >= n_states):
            raise ValueError(
                f"pstates must lie in [0, {n_states - 1}]"
            )
        if np.all(idx == idx[0]):
            self.set_all_pstates(int(idx[0]))
            return
        self._pstate_index = int(idx[0])
        self._lane_pstates = idx.copy()
        self._refresh_pstate()

    def lane_pstates(self) -> np.ndarray:
        """Current per-lane pstate indices, shape ``(width,)``."""
        if self._lane_pstates is not None:
            return self._lane_pstates.copy()
        return np.full(self.width, self._pstate_index, dtype=np.int64)

    def read_and_clear_lanes(
        self, lanes: "np.ndarray | list[int]"
    ) -> "dict[Event, np.ndarray]":
        """Batched clear-on-read counter snapshot for many lanes.

        Returns ``{event: (n_lanes, n_cpus)}`` — the shape a batched
        :meth:`TrickleDownSuite.evaluate` design-matrix pass wants —
        and zeroes exactly those lanes' counters, in one numpy slice
        per event instead of a python loop over ``_LaneCounters``.
        Out-of-range lanes raise :class:`IndexError`.
        """
        sel = np.asarray(lanes, dtype=np.int64)
        if sel.size and (sel.min() < 0 or sel.max() >= self.width):
            raise IndexError(
                f"lanes must lie in [0, {self.width - 1}] for width {self.width}"
            )
        c3 = self._counts3d
        out = {}
        for event in _EVENTS:
            row = c3[_EIDX[event]]
            out[event] = row[:, sel].T.copy()
            row[:, sel] = 0.0
        return out

    def set_lane_threads(self, lane: int, n_threads: int) -> None:
        """Enable the first ``n_threads`` workload threads on ``lane``.

        Cluster load control: a node serving ``n`` request threads runs
        the first ``n`` plans of the shared service workload.  Disabled
        threads behave as if their plan never started.  Out-of-range
        lanes raise :class:`IndexError`.
        """
        lane = self._check_lane(lane)
        if not 0 <= n_threads <= self.workload.n_threads:
            raise ValueError(
                f"n_threads must be in [0, {self.workload.n_threads}]"
            )
        self._enabled[:, lane] = False
        self._enabled[:n_threads, lane] = True

    def disable_sampling(self) -> None:
        """Stop counter sampling on every lane (external counter reader)."""
        self._samp_deadline[:] = np.inf

    def attach_fleet_monitor(self, monitor) -> None:
        """Attach a fleet-wide monitor pulsed on every closing lane.

        ``monitor.on_pulse(fleet, lanes, now_s)`` fires once per tick
        on which any lane closes a sampling window, with the closing
        lane indices (see :class:`repro.obs.fleet.FleetMonitor`, the one
        way fleet lanes are watched).  ``on_attach_fleet``, when
        present, fires now.  Unattached, the tick loop pays one
        ``is not None`` check per closing tick.
        """
        self._fleet_monitor = monitor
        on_attach = getattr(monitor, "on_attach_fleet", None)
        if on_attach is not None:
            on_attach(self)

    def detach_fleet_monitor(self) -> None:
        self._fleet_monitor = None

    def _check_lane(self, lane: int) -> int:
        if not 0 <= lane < self.width:
            raise IndexError(
                f"lane {lane} out of range for width {self.width}"
            )
        return int(lane)

    # -- lane access / measured runs -----------------------------------

    def lane(self, lane: int):
        """A read-only ``Server``-shaped view of one lane: a
        :class:`_LaneView` facade over the lane's slice of the fleet
        arrays."""
        return _LaneView(self, self._check_lane(lane))

    def run(self, duration_s: float) -> "list[MeasuredRun]":
        """Step every lane ``duration_s`` and return one run per lane."""
        if duration_s < 2.0 * self.config.measurement.sample_period_s:
            raise ValueError(
                "duration must cover at least two sampling windows; "
                f"got {duration_s}s"
            )
        n_ticks = int(round(duration_s / self.config.tick_s))
        self.run_ticks(n_ticks)
        return [
            self._finish_lane(lane, duration_s)
            for lane in range(self.width)
        ]

    def _finish_lane(self, lane: int, duration_s: float) -> MeasuredRun:
        """Assemble one lane's run (mirrors the tail of ``Server.run``)."""
        view = _LaneView(self, lane)
        counters = view.sampler.finish()
        if not self._daq_ts[lane]:
            raise ValueError(
                "no measurement windows closed; missing sync pulses?"
            )
        power = PowerTrace(
            timestamps=np.asarray(self._daq_ts[lane]),
            watts={
                s: np.asarray(self._daq_means[lane][i])
                for i, s in enumerate(SUBSYSTEMS)
            },
        )
        counters, power = align_windows(counters, power)
        return MeasuredRun(
            workload=self.workload.name,
            counters=counters,
            power=power,
            seed=int(self.seeds[lane]),
            metadata={
                "duration_s": duration_s,
                "tick_s": self.config.tick_s,
                "n_threads": self.workload.n_threads,
                "true_mean_power_w": {
                    s.value: view.energy.mean_power_w(s) for s in SUBSYSTEMS
                },
            },
        )

    # -- the hot path --------------------------------------------------

    def run_ticks(
        self, n_ticks: int, active: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Advance every lane ``n_ticks`` ticks; returns per-lane joules.

        ``active`` (bool, shape ``(width,)``) freezes lanes: a frozen
        lane consumes no RNG draws, logs no sampling windows, and has
        all of its state rolled back at the end of the batch, so a
        freeze is indistinguishable from the lane never being stepped.
        Frozen lanes report 0.0 J.

        The scheduler, CPU-package and process-accounting stages run
        on the thread rows up to the last one that can run on an
        active lane before the batch ends (enabled, unfinished, and
        started by one tick past the batch's last), so a batch costs
        what its started threads cost; rows in that prefix that cannot
        run on a given tick are masked as before.
        """
        width = self.width
        energies = np.zeros(width)
        if n_ticks <= 0:
            return energies

        obs_on = obs.enabled()
        t0 = _monotonic() if obs_on else 0.0

        if active is None:
            act = np.ones(width, dtype=bool)
            frozen = None
        else:
            act = np.asarray(active, dtype=bool)
            if act.shape != (width,):
                raise ValueError(f"active mask must have shape ({width},)")
            if not act.any():
                return energies
            frozen = None if bool(act.all()) else np.nonzero(~act)[0]
        saved = None
        if frozen is not None:
            saved = [
                getattr(self, name)[..., frozen].copy()
                for name in self._STATE_NAMES
            ]

        # Live-thread prefix: a thread row past the last one that can
        # run on some active lane before this batch ends draws nothing
        # and adds nothing, so the thread stages below run on [:n_live]
        # views.  The horizon over-estimates the clock at the batch's
        # last tick by one tick (an extra row is harmless: runm2 masks
        # it every tick), and one row is always kept so the package
        # folds never reduce over an empty thread axis.
        dt = self._dt
        horizon = self._now + (n_ticks + 1) * dt
        live = self._enabled & act & ~self._finished
        live &= self._start_col <= horizon
        live_rows = np.flatnonzero(live.any(axis=1))
        n_live = int(live_rows[-1]) + 1 if live_rows.size else 1

        # Hoisted state and constants (attribute lookups off the loop).
        n_pkg = self._n_pkg
        cycles = self._cycles
        cycles_total = self._cycles_total
        now = self._now
        timer_res = self._timer_residual
        pend_disk, pend_net = self._pend_disk, self._pend_net
        irq_cursor = self._irq_cursor
        acct_timer = self._acct[_VIDX[Vector.TIMER]]
        acct_disk = self._acct[_VIDX[Vector.DISK]]
        acct_net = self._acct[_VIDX[Vector.NETWORK]]
        runtime, ou = self._runtime[:n_live], self._ou[:n_live]
        last_name_id = self._last_name_id[:n_live]
        finished = self._finished[:n_live]
        affinity = self._affinity[:n_live]
        enabled = self._enabled[:n_live]
        bound, ctx = self._bound, self._ctx
        bus_latency, dram_latency = self._bus_latency, self._dram_latency
        pc_dirty, pc_pending = self._pc_dirty, self._pc_pending
        pc_synced = self._pc_synced
        q_seq_write = self._q_seq_write
        q_rand_read = self._q_rand_read
        q_rand_write = self._q_rand_write
        disk_total_arr = self._disk_total
        dma_residual, nic_residual = self._dma_residual, self._nic_residual
        nic_total, io_total = self._nic_total, self._io_total
        chip_offset = self._chip_offset
        c3 = self._counts3d
        r_cycles = c3[_EIDX[Event.CYCLES]]
        r_halted = c3[_EIDX[Event.HALTED_CYCLES]]
        r_fetched = c3[_EIDX[Event.FETCHED_UOPS]]
        r_l3 = c3[_EIDX[Event.L3_MISSES]]
        r_tlb = c3[_EIDX[Event.TLB_MISSES]]
        r_dma = c3[_EIDX[Event.DMA_ACCESSES]]
        r_bus = c3[_EIDX[Event.BUS_TRANSACTIONS]]
        r_unc = c3[_EIDX[Event.UNCACHEABLE_ACCESSES]]
        r_irq = c3[_EIDX[Event.INTERRUPTS]]
        r_disk_irq = c3[_EIDX[Event.DISK_INTERRUPTS]]
        r_net_irq = c3[_EIDX[Event.NETWORK_INTERRUPTS]]
        r_dram_reads0 = c3[_EIDX[Event.DRAM_READS], 0]
        r_dram_writes0 = c3[_EIDX[Event.DRAM_WRITES], 0]
        r_dram_act0 = c3[_EIDX[Event.DRAM_ACTIVATIONS], 0]
        r_dram_time0 = c3[_EIDX[Event.DRAM_ACTIVE_TIME], 0]
        r_prefetch0 = c3[_EIDX[Event.PREFETCH_TRANSACTIONS], 0]
        r_writeback0 = c3[_EIDX[Event.WRITEBACK_TRANSACTIONS], 0]
        r_io_bytes0 = c3[_EIDX[Event.IO_BYTES], 0]
        r_io_tx0 = c3[_EIDX[Event.IO_TRANSACTIONS], 0]
        r_seek0 = c3[_EIDX[Event.DISK_SEEK_TIME], 0]
        r_xfer0 = c3[_EIDX[Event.DISK_TRANSFER_TIME], 0]
        r_disk_bytes0 = c3[_EIDX[Event.DISK_BYTES], 0]
        r_sectors0 = c3[_EIDX[Event.OS_DISK_SECTORS], 0]
        r_ctx0 = c3[_EIDX[Event.OS_CONTEXT_SWITCHES], 0]
        samp_gens, daq_gens = self._samp_gens, self._daq_gens
        samp_ts, samp_dur = self._samp_ts, self._samp_dur
        samp_counts = self._samp_counts
        daq_ts, daq_means = self._daq_ts, self._daq_means
        gains, drift_phases = self._gains, self._drift_phases
        drift_rel = self._drift_rel
        sample_period, sample_jitter = self._sample_period, self._sample_jitter
        daq_rate, daq_noise_rel = self._daq_rate, self._daq_noise_rel
        two_pi = 2.0 * math.pi
        energy5, e_time = self._energy5, self._e_time
        wenergy = self._wenergy
        proc_runtime = self._proc_runtime[:n_live]
        proc_exec = self._proc_exec[:n_live]
        proc_fetch = self._proc_fetch[:n_live]
        proc_bus = self._proc_bus[:n_live]
        ran_ever = self._ran_ever[:n_live]
        samp_wstart, samp_deadline = self._samp_wstart, self._samp_deadline
        daq_wstart = self._daq_wstart
        thread_stream = self._thread_stream
        chip_stream = self._chip_stream
        act_row = act[None]
        smt, smt_yield2 = self._smt, self._smt_yield * 2.0
        max_upc, isc = self._max_upc, self._isc
        variability = self._variability
        ou_alpha, ou_noise = self._ou_alpha, self._ou_noise
        pw_per_tlb, ppm = self._pw_per_tlb, self._ppm
        base_latency = self._base_latency
        bus_cap_dt, bus_cf = self._bus_cap_dt, self._bus_congestion
        dram_cap_dt = self._dram_cap_dt
        row_rand, row_stream = self._row_rand, self._row_stream
        dma_hit_base = self._dma_hit_base
        dram_re, dram_we = self._dram_read_e, self._dram_write_e
        dram_ae, dram_bg_dt = self._dram_act_e, self._dram_bg_dt
        dram_rtf, dram_cf = self._dram_rtf, self._dram_congestion
        dram_cong_cap = self._dram_cong_cap
        halted_v, active_delta = self._halted_v, self._active_delta
        power_scale = self._power_scale
        stall_fraction, uop_w = self._stall_fraction, self._uop_w
        spec_w, fp_premium = self._spec_w, self._fp_premium
        chip_nominal, chip_bus_w = self._chip_nominal, self._chip_bus_w
        chip_io_w = self._chip_io_w
        chip_mean = self._chip_mean
        chip_alpha, chip_noise = self._chip_alpha, self._chip_noise
        io_static, io_sw_e = self._io_static, self._io_sw_e
        io_tx_e = self._io_tx_e
        line_bytes, tx_factor = self._line_bytes, self._tx_factor
        dma_bpi, nic_bpi = self._dma_bpi, self._nic_bpi
        nic_line, bg_half = self._nic_line, self._bg_half
        disk_budget0 = self._disk_budget0
        seq_thr, seq_seekf = self._seq_thr, self._seq_seekf
        rand_thr, rand_seekf = self._rand_thr, self._rand_seekf
        rot_n, seek_w, xfer_w = self._rot_n, self._seek_w, self._xfer_w
        wc_dt = self._wc_dt
        pc_bytes, bg_ratio = self._pc_bytes, self._pc_bg_ratio
        pc_denom = self._pc_denom
        fault_ratio, fault_bytes = self._tlb_fault_ratio, self._tlb_fault_bytes
        per_tick = self._timer_per_tick
        timer_steady = float(int(per_tick)) == per_tick
        pkg_col = np.arange(n_pkg)[:, None]
        pkg_col3 = np.arange(n_pkg)[:, None, None]
        lanes = np.arange(width)
        mat_all, name_all = self._mat_all, self._name_all
        sync_all = self._sync_all
        plan_offsets = self._plan_offsets[:n_live]
        start_col = self._start_col[:n_live]
        cycle_col = self._cycle_col[:n_live]
        loop_col = self._loop_col[:n_live]
        nph_col = self._nph_col[:n_live]
        bounds_tab = self._bounds_tab[:n_live, None, :]
        has_nonloop = self._has_nonloop
        fleet_monitor = self._fleet_monitor
        batch_energy = np.zeros(width)

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(n_ticks):
                # (1) Clock; timer interrupts land now, device
                # interrupts delivered last tick are serviced now.
                now += dt
                if timer_steady:
                    timer_f: "float | np.ndarray" = per_tick
                else:
                    timer_res += per_tick
                    timer_f = np.floor(timer_res)
                    timer_res -= timer_f
                disk_irqs = pend_disk.copy()
                net_irqs = pend_net.copy()
                irq = (disk_irqs + net_irqs) + timer_f
                acct_timer += timer_f
                pend_disk[:] = 0.0
                pend_net[:] = 0.0

                # (2) Scheduler pass: phase lookup, OU modulation,
                # first-run placement, per-package runnable counts.
                # Thread state lives in (n_live, width) arrays and each
                # (thread, lane) stream keeps its own draw order, so
                # one draw over the block is bit-identical to drawing
                # thread by thread; only first-run placement, which is
                # order-sensitive across threads, loops over threads.
                latency = bus_latency * dram_latency
                lratio = np.maximum(latency / base_latency, 1.0)
                ramp = np.minimum(1.0 + 2.6 * (lratio - 1.0), 5.0)
                runm2 = enabled & act
                runm2 &= now >= start_col
                runm2 &= ~finished
                if has_nonloop:
                    newly = (~loop_col) & runm2 & (runtime >= cycle_col)
                    if newly.any():
                        finished |= newly
                        runm2 &= ~newly
                position = np.where(
                    loop_col, np.mod(runtime, cycle_col), runtime
                )
                # Phase index = phase ends at or below the position (the
                # scalar scan over sorted bounds); +inf pads never count.
                idx2 = (bounds_tab <= position[..., None]).sum(axis=2)
                np.minimum(idx2, nph_col - 1, out=idx2)
                gidx = idx2 + plan_offsets
                nid2 = name_all[gidx]
                sync2 = runm2 & sync_all[gidx] & (nid2 != last_name_id)
                np.copyto(last_name_id, nid2, where=runm2)
                draw = thread_stream.next(runm2)
                np.copyto(ou, ou_alpha * ou + ou_noise * draw, where=runm2)
                mod2 = np.maximum(1.0 + variability * ou, 0.1)
                runtime += np.where(runm2, dt, 0.0)
                unplaced2 = runm2 & (affinity < 0)
                if unplaced2.any():
                    # First run of a thread: scalar placement order —
                    # thread k sees the bounds updated by threads < k.
                    for k in range(n_live):
                        unplaced = unplaced2[k]
                        if not unplaced.any():
                            continue
                        aff = affinity[k]
                        np.copyto(
                            aff, np.argmin(bound, axis=0), where=unplaced
                        )
                        cols = np.nonzero(unplaced)[0]
                        bound[aff[cols], cols] += 1
                        ctx += unplaced
                onehot3 = (affinity[None] == pkg_col3) & runm2[None]
                cp = onehot3.sum(axis=1, dtype=np.int64)
                ctx += np.maximum(cp - smt, 0).sum(axis=0)
                share = np.where(cp > smt, smt / cp, 1.0)
                smt_scale = np.where(cp <= 1, 1.0, smt_yield2 / cp)
                active_pkg = cp > 0

                # (3) CPU packages: per-thread execution and traffic
                # computed for every (thread, lane) at once, then
                # summed into per-package partials in thread order by
                # one bincount (row layout mirrors the scalar
                # accumulators).
                aff_safe2 = np.maximum(affinity, 0)
                share_g = share[aff_safe2, lanes]
                smt_g = smt_scale[aff_safe2, lanes]
                cp_g = cp[aff_safe2, lanes]
                G = mat_all[gidx]
                occ2 = G[..., _C_OCC0] * share_g
                tgt = np.maximum(
                    np.minimum(G[..., _C_UPC] * mod2, max_upc), 1.0e-6
                )
                cpi = 1.0 / tgt
                stall = G[..., _C_SM] * latency
                tc = cycles * occ2
                texec2 = (smt_g * tc) / (cpi + stall)
                tfetch2 = texec2 * G[..., _C_WF1]
                tfp = texec2 * G[..., _C_FP]
                tspec = (G[..., _C_SPEC] * tc) * mod2
                kuops = texec2 / 1000.0
                lm = (kuops * G[..., _C_L3]) * mod2
                tlbm = (kuops * G[..., _C_TLBK]) * mod2
                pf = ((lm * ppm) * G[..., _C_STREAM]) * ramp
                sharing = np.maximum(cp_g - 1, 0)
                wb = lm * (G[..., _C_WB] * (1.0 + G[..., _C_CPRESS] * sharing))
                pw = tlbm * pw_per_tlb
                ua = G[..., _C_UNC] * occ2
                tx2 = (((lm + wb) + pw) + ua) + pf
                contrib = np.stack(
                    (
                        texec2, tfetch2, tfp, tspec, lm, wb, pw, pf, ua,
                        tlbm, G[..., _C_STREAM] * tx2, tx2,
                        G[..., _C_FR], G[..., _C_FW], G[..., _C_HW],
                        G[..., _C_NRX], G[..., _C_NTX],
                    )
                )
                acc = _package_partials(contrib, affinity, runm2, n_pkg)
                # max() is order-free, so the package occupancy fold can
                # reduce over the thread axis in one pass.
                occm = np.max(
                    np.where(onehot3, occ2[None], 0.0), axis=1
                )
                psync = (onehot3 & sync2[None]).any(axis=1)
                (
                    p_exec, p_fetch, p_fp, p_spec, p_dlm, p_wb, p_pw, p_pf,
                    p_ua, p_tlb, p_streamw, p_weight, p_fr, p_fw, p_hw,
                    p_nrx, p_ntx,
                ) = acc
                ib = np.minimum((irq * isc) / cycles, 0.5)
                occ = np.where(active_pkg, np.minimum(occm + ib, 1.0), ib)
                halted = cycles * (1.0 - occ)
                idle_uops = cycles * ib
                fetched = np.where(active_pkg, p_fetch, idle_uops * 0.4)
                executed = np.where(active_pkg, p_exec, idle_uops * 0.35)
                stream_p = np.where(
                    active_pkg & (p_weight > 0), p_streamw / p_weight, 0.5
                )
                rhr = np.where(p_fr > 0, p_hw / p_fr, 1.0)
                # Package power (CpuPackage.power, vectorized per row).
                occ_pw = 1.0 - halted / cycles
                fupc = fetched / cycles
                eupc = executed / cycles
                supc = p_spec / cycles
                fp_share = np.where(executed > 0, p_fp / executed, 0.0)
                issue = np.minimum(
                    eupc / np.where(occ_pw > 1.0e-9, occ_pw, 1.0e-9), 1.0
                )
                ascale = stall_fraction + (1.0 - stall_fraction) * issue
                dynamic = (uop_w * fupc) * (1.0 + fp_premium * fp_share) + (
                    spec_w * supc
                )
                pkg_power = (
                    halted_v
                    + ((active_delta * occ_pw) * ascale) * power_scale
                    + dynamic * power_scale
                )
                # System folds, summed in package order like the scalar
                # per-quantity accumulators (never ndarray.sum: pairwise
                # summation would reorder the adds).
                demand = np.zeros(width)
                prefetch_sum = np.zeros(width)
                file_read = np.zeros(width)
                file_write = np.zeros(width)
                tlb_total = np.zeros(width)
                weighted_hit = np.zeros(width)
                net_rx = np.zeros(width)
                net_tx = np.zeros(width)
                for p in range(n_pkg):
                    demand += ((p_dlm[p] + p_wb[p]) + p_pw[p]) + p_ua[p]
                    prefetch_sum += p_pf[p]
                    file_read += p_fr[p]
                    file_write += p_fw[p]
                    tlb_total += p_tlb[p]
                    weighted_hit += rhr[p] * p_fr[p]
                    net_rx += p_nrx[p]
                    net_tx += p_ntx[p]
                sync_req = psync.any(axis=0)

                # (4) Page cache: dirty accounting and writeback policy.
                fault_read = (tlb_total * fault_ratio) * fault_bytes
                total_read = file_read + fault_read
                hit_ratio = np.where(
                    total_read > 0, weighted_hit / total_read, 1.0
                )
                np.copyto(pc_pending, pc_dirty, where=sync_req)
                pc_dirty += (file_write / dt) * dt
                read_req = ((total_read / dt) * dt) * (1.0 - hit_ratio)
                in_sync = pc_pending > 0.0
                drained_s = np.minimum(
                    np.minimum(pc_pending, pc_dirty), wc_dt
                )
                frac = pc_dirty / pc_bytes
                in_bg = ~in_sync & (frac > bg_ratio)
                urgency = np.minimum(1.0, (frac - bg_ratio) / pc_denom)
                drained_b = np.minimum(
                    pc_dirty, wc_dt * (0.15 + 0.85 * urgency)
                )
                write_bytes = np.where(
                    in_sync, drained_s, np.where(in_bg, drained_b, 0.0)
                )
                pc_dirty -= write_bytes
                np.copyto(pc_pending, pc_pending - drained_s, where=in_sync)
                pc_synced += np.where(in_sync, drained_s, 0.0)
                np.copyto(
                    pc_pending, 0.0, where=in_sync & (pc_dirty <= 0.0)
                )
                np.maximum(pc_dirty, 0.0, out=pc_dirty)
                q_rand_read += read_req
                q_seq_write += write_bytes

                # (5) Disk service: budget shared across queues in fixed
                # order (sequential writes, random reads, random writes;
                # the sequential-read queue is structurally empty).
                budget = np.full(width, disk_budget0)
                svc = np.minimum(budget, q_seq_write / seq_thr)
                served_sw = svc * seq_thr
                q_seq_write -= served_sw
                budget -= svc
                seek_s = svc * seq_seekf
                xfer_s = svc * (1.0 - seq_seekf)
                svc = np.minimum(budget, q_rand_read / rand_thr)
                served_rr = svc * rand_thr
                q_rand_read -= served_rr
                budget -= svc
                seek_s += svc * rand_seekf
                xfer_s += svc * (1.0 - rand_seekf)
                svc = np.minimum(budget, q_rand_write / rand_thr)
                served_rw = svc * rand_thr
                q_rand_write -= served_rw
                budget -= svc
                seek_s += svc * rand_seekf
                xfer_s += svc * (1.0 - rand_seekf)
                disk_power = rot_n + (
                    seek_w * (seek_s / dt) + xfer_w * (xfer_s / dt)
                )
                read_served = served_rr
                write_served = served_sw + served_rw
                served_bytes = read_served + write_served
                disk_total_arr += served_bytes

                # (6) DMA for the disk array and the NIC's own engine;
                # coalesced completion interrupts round-robin across
                # packages through one shared cursor (disk, then NIC).
                dma_in = read_served + bg_half
                dma_out = write_served + bg_half
                dma_io = dma_in + dma_out
                dma_snoops = dma_io / line_bytes
                dma_txn = (dma_io / 512.0) * tx_factor
                dma_residual += dma_io / dma_bpi
                dma_ints = np.floor(dma_residual)
                dma_residual -= dma_ints
                dma_unc = dma_ints * 3.0
                dma_dram_r = dma_out / line_bytes
                dma_dram_w = dma_in / line_bytes
                rx = np.minimum(net_rx, nic_line) * dt
                tx_b = np.minimum(net_tx, nic_line) * dt
                nic_total += rx + tx_b
                nic_io = rx + tx_b
                nic_snoops = nic_io / line_bytes
                nic_txn = (nic_io / 512.0) * tx_factor
                nic_residual += nic_io / nic_bpi
                nic_ints = np.floor(nic_residual)
                nic_residual -= nic_ints
                nic_unc = nic_ints * 3.0
                nic_dram_r = tx_b / line_bytes
                nic_dram_w = rx / line_bytes
                ints = dma_ints.astype(np.int64)
                kk = (pkg_col - irq_cursor[None, :]) % n_pkg
                recv = (ints[None, :] - kk + (n_pkg - 1)) // n_pkg
                pend_disk += recv
                acct_disk += recv
                irq_cursor += ints
                irq_cursor %= n_pkg
                ints = nic_ints.astype(np.int64)
                kk = (pkg_col - irq_cursor[None, :]) % n_pkg
                recv = (ints[None, :] - kk + (n_pkg - 1)) // n_pkg
                pend_net += recv
                acct_net += recv
                irq_cursor += ints
                irq_cursor %= n_pkg

                # (7) Bus arbitration; grant ratios scale CPU traffic.
                # The fold over packages mirrors the scalar fused pass
                # (step 6/7 in system.py), in package order.
                total_snoops = dma_snoops + nic_snoops
                demand += total_snoops
                sat = demand >= bus_cap_dt
                dr = np.where(sat, bus_cap_dt / demand, 1.0)
                pr = np.where(
                    sat,
                    0.0,
                    np.where(
                        prefetch_sum > 0,
                        np.minimum(
                            (bus_cap_dt - demand) / prefetch_sum, 1.0
                        ),
                        1.0,
                    ),
                )
                granted_total = demand * dr + prefetch_sum * pr
                util = np.minimum(granted_total / bus_cap_dt, 1.0)
                eff = np.minimum(util * bus_cf, 0.875)
                bus_latency[:] = base_latency / (1.0 - eff)
                granted_snoops = total_snoops * dr
                g_dlm = p_dlm * dr
                g_wb = p_wb * dr
                g_pw = p_pw * dr
                g_ua = p_ua * dr
                g_pf = p_pf * pr
                own_tx = (((g_dlm + g_wb) + g_pw) + g_ua) + g_pf
                cpu_reads = np.zeros(width)
                cpu_writes = np.zeros(width)
                traffic_weight = np.zeros(width)
                stream_weighted = np.zeros(width)
                uncacheable_cpu = np.zeros(width)
                prefetch_total = np.zeros(width)
                cpu_power = np.zeros(width)
                halted_total = np.zeros(width)
                for p in range(n_pkg):
                    cpu_reads += (g_dlm[p] + g_pw[p]) + g_pf[p]
                    cpu_writes += g_wb[p]
                    traffic_weight += own_tx[p]
                    stream_weighted += stream_p[p] * own_tx[p]
                    uncacheable_cpu += g_ua[p]
                    prefetch_total += g_pf[p]
                    cpu_power += pkg_power[p]
                    halted_total += halted[p]
                blended = np.where(
                    traffic_weight > 0, stream_weighted / traffic_weight, 0.5
                )
                n_run = cp.sum(axis=0)
                dma_active = (dma_io > 0) | (nic_io > 0)
                stream_count = np.maximum(
                    n_run + np.where(dma_active, 1.0, 0.0), 1.0
                )

                # (8) DRAM: granted CPU traffic plus device DMA.
                drr = dma_dram_r + nic_dram_r
                drw = dma_dram_w + nic_dram_w
                total_acc = ((cpu_reads + cpu_writes) + drr) + drw
                over = total_acc > dram_cap_dt
                scale = dram_cap_dt / total_acc
                cr = np.where(over, cpu_reads * scale, cpu_reads)
                cw = np.where(over, cpu_writes * scale, cpu_writes)
                drr = np.where(over, drr * scale, drr)
                drw = np.where(over, drw * scale, drw)
                total_acc = np.where(over, dram_cap_dt, total_acc)
                cpu_hit = (row_rand + (row_stream - row_rand) * blended) * (
                    1.0 / (1.0 + 0.03 * np.maximum(0.0, stream_count - 1.0))
                )
                dma_streams = np.maximum(stream_count * 0.25, 1.0)
                dma_hit = dma_hit_base * (
                    1.0 / (1.0 + 0.03 * np.maximum(0.0, dma_streams - 1.0))
                )
                activations = (cr + cw) * (1.0 - cpu_hit) + (drr + drw) * (
                    1.0 - dma_hit
                )
                dram_reads = cr + drr
                dram_writes = cw + drw
                dram_energy = (
                    dram_reads * dram_re
                    + dram_writes * dram_we
                    + activations * dram_ae
                    + dram_bg_dt
                )
                row_hit = np.where(
                    total_acc > 0, 1.0 - activations / total_acc, 1.0
                )
                eff_cap = dram_cap_dt * (
                    row_hit + (1.0 - row_hit) * dram_rtf
                )
                util_d = total_acc / eff_cap
                congestion = np.minimum(util_d * dram_cf, dram_cong_cap)
                dram_latency[:] = 1.0 / (1.0 - congestion)
                active_fraction = np.minimum(1.0, util_d)
                memory_power = dram_energy / dt

                # (9) Chipset and I/O ground-truth power; energy books.
                unc_total = (uncacheable_cpu + dma_unc) + nic_unc
                sa = 1.0 - halted_total / cycles_total
                draw_c = chip_stream.next(act_row)[0]
                chip_offset[:] = (
                    chip_mean + chip_alpha * (chip_offset - chip_mean)
                ) + chip_noise * draw_c
                gate = (sa * sa) * (3.0 - 2.0 * sa)
                dynamic_c = chip_bus_w * util + chip_io_w * np.minimum(
                    1.0, (unc_total / dt) / 2.0e5
                )
                chipset_power = (
                    chip_nominal + dynamic_c * 0.35
                ) + chip_offset * gate
                io_bytes = dma_io + nic_io
                io_txn = dma_txn + nic_txn
                io_energy = (
                    io_bytes * io_sw_e
                    + io_txn * io_tx_e
                    + unc_total * 0.15e-6
                )
                io_power = io_static + io_energy / dt
                io_total += io_bytes
                energy5[0] += cpu_power * dt
                energy5[1] += chipset_power * dt
                energy5[2] += memory_power * dt
                energy5[3] += io_power * dt
                energy5[4] += disk_power * dt
                e_time += dt
                batch_energy += (
                    (((cpu_power + chipset_power) + memory_power) + io_power)
                    + disk_power
                ) * dt

                # (10) Per-process accounting (needs the bus grant).
                proc_runtime += np.where(runm2, dt * occ2, 0.0)
                proc_exec += np.where(runm2, texec2, 0.0)
                proc_fetch += np.where(runm2, tfetch2, 0.0)
                proc_bus += np.where(runm2, tx2 * dr, 0.0)
                ran_ever |= runm2

                # (11) Counters (the scalar fast path, rows as arrays).
                driver_unc = (dma_unc + nic_unc) / n_pkg
                oc = (traffic_weight - own_tx) * _CROSS_COHERENCE_FRACTION
                r_cycles += cycles
                r_halted += halted
                r_fetched += fetched
                r_l3 += g_dlm
                r_tlb += p_tlb
                r_unc += g_ua + driver_unc
                r_dma += granted_snoops + oc
                r_bus += (own_tx + granted_snoops) + oc
                r_irq += irq
                r_disk_irq += disk_irqs
                r_net_irq += net_irqs
                r_dram_reads0 += dram_reads
                r_dram_writes0 += dram_writes
                r_dram_act0 += activations
                r_dram_time0 += active_fraction * dt
                r_prefetch0 += prefetch_total
                r_writeback0 += cpu_writes
                r_io_bytes0 += io_bytes
                r_io_tx0 += io_txn
                r_seek0 += seek_s
                r_xfer0 += xfer_s
                r_disk_bytes0 += served_bytes
                r_sectors0 += served_bytes / 512.0
                r_ctx0 += ctx

                # (12) Instrumentation: the DAQ integrates power every
                # tick; a lane whose sampler deadline passed closes its
                # window (counter snapshot + DAQ means + monitor pulse).
                angle = (two_pi * now) / 900.0
                powers5 = (
                    cpu_power, chipset_power, memory_power, io_power,
                    disk_power,
                )
                for si in range(5):
                    drift = 1.0 + drift_rel * np.sin(
                        angle + drift_phases[si]
                    )
                    wenergy[si] += ((powers5[si] * gains[si]) * drift) * dt
                closing = act & (now + 1.0e-12 >= samp_deadline)
                if closing.any():
                    closed = np.nonzero(closing)[0]
                    for lane_i in closed:
                        lane = int(lane_i)
                        now_l = float(now[lane])
                        snap = c3[:, :, lane].copy()
                        c3[:, :, lane] = 0.0
                        samp_ts[lane].append(now_l)
                        samp_dur[lane].append(
                            now_l - float(samp_wstart[lane])
                        )
                        samp_counts[lane].append(snap)
                        samp_wstart[lane] = now_l
                        jitter = float(
                            samp_gens[lane].normal(0.0, sample_jitter)
                        )
                        samp_deadline[lane] = now_l + max(
                            sample_period + jitter, 1.0e-3
                        )
                        duration = now_l - float(daq_wstart[lane])
                        if duration <= 0.0:
                            raise ValueError(
                                "sync pulses must advance in time"
                            )
                        samples = max(1.0, daq_rate * duration)
                        noise = math.hypot(
                            daq_noise_rel / math.sqrt(samples), 0.0015
                        )
                        lane_means = daq_means[lane]
                        gen = daq_gens[lane]
                        for si in range(5):
                            mean = float(wenergy[si, lane]) / duration
                            mean *= 1.0 + noise * float(
                                gen.standard_normal()
                            )
                            lane_means[si].append(mean)
                            wenergy[si, lane] = 0.0
                        daq_ts[lane].append(now_l)
                        daq_wstart[lane] = now_l
                    if fleet_monitor is not None:
                        fleet_monitor.on_pulse(
                            self, closed, float(now[closed[0]])
                        )

        if saved is not None:
            for name, block in zip(self._STATE_NAMES, saved):
                getattr(self, name)[..., frozen] = block
        if obs_on:
            self._record_telemetry(n_ticks, act, _monotonic() - t0)
        return np.where(act, batch_energy, 0.0)

    def _record_telemetry(
        self, n_ticks: int, act: np.ndarray, elapsed_s: float
    ) -> None:
        """Batch-boundary profiling hook (one-bool cost when disabled).

        Mirrors ``Server._record_telemetry`` under ``fleet_``-prefixed
        names; ``fleet_lane_ticks_*`` aggregate over active lanes.
        """
        reg = obs.registry()
        labels = {"workload": self.workload.name}
        lane_ticks = float(n_ticks) * float(act.sum())
        reg.inc("fleet_lane_ticks_total", lane_ticks, labels)
        reg.observe(
            "fleet_batch_ticks", float(n_ticks), labels,
            buckets=_BATCH_BUCKETS,
        )
        reg.observe("fleet_run_ticks_seconds", elapsed_s, labels)
        if elapsed_s > 0:
            reg.gauge(
                "fleet_lane_ticks_per_second", lane_ticks / elapsed_s, labels
            )
        reg.gauge("fleet_width", float(self.width), labels)
        reg.gauge("fleet_time_seconds", self.now_s, labels)


# -- lane views --------------------------------------------------------
#
# Read-only facades exposing one lane of the SoA state through the
# attribute surface of the scalar ``Server`` that measured runs and the
# lane-vs-``Server`` checks read (``counters._rows``/``events``,
# ``sampler.n_samples``/``finish``, ``energy._energy_j``/
# ``mean_power_w``/``total_energy_j``, ``process_stats``, ``now_s``).


class _LaneCounters:
    """One lane's counter bank (``CounterBank``-shaped slice)."""

    __slots__ = ("_fleet", "_lane", "events")

    def __init__(self, fleet: "FleetServer", lane: int) -> None:
        self._fleet = fleet
        self._lane = lane
        self.events = _EVENTS

    @property
    def _rows(self) -> "list[list[float]]":
        c3 = self._fleet._counts3d
        return [c3[i, :, self._lane].tolist() for i in range(_N_EVENTS)]


class _LaneSampler:
    """One lane's counter sampler (``CounterSampler``-shaped)."""

    __slots__ = ("_fleet", "_lane")

    def __init__(self, fleet: "FleetServer", lane: int) -> None:
        self._fleet = fleet
        self._lane = lane

    @property
    def n_samples(self) -> int:
        return len(self._fleet._samp_ts[self._lane])

    def finish(self) -> CounterTrace:
        fleet, lane = self._fleet, self._lane
        if not fleet._samp_ts[lane]:
            raise ValueError(
                "no counter samples collected; run longer than one sample "
                "period"
            )
        snaps = fleet._samp_counts[lane]
        counts = {
            event: np.vstack([snap[_EIDX[event]] for snap in snaps])
            for event in _EVENTS
        }
        return CounterTrace(
            timestamps=np.asarray(fleet._samp_ts[lane]),
            durations=np.asarray(fleet._samp_dur[lane]),
            counts=counts,
        )


class _LaneEnergy:
    """One lane's energy account (``EnergyAccount``-shaped)."""

    __slots__ = ("_fleet", "_lane")

    def __init__(self, fleet: "FleetServer", lane: int) -> None:
        self._fleet = fleet
        self._lane = lane

    @property
    def _energy_j(self) -> "dict[Subsystem, float]":
        row = self._fleet._energy5
        lane = self._lane
        return {s: float(row[i, lane]) for i, s in enumerate(SUBSYSTEMS)}

    def mean_power_w(self, subsystem: Subsystem) -> float:
        fleet, lane = self._fleet, self._lane
        elapsed = float(fleet._e_time[lane])
        if elapsed == 0:
            raise ValueError("no energy recorded yet")
        return float(fleet._energy5[_SIDX[subsystem], lane]) / elapsed

    def total_energy_j(self) -> float:
        row = self._fleet._energy5
        lane = self._lane
        return float(sum(row[i, lane] for i in range(5)))


#: Subsystem -> energy row index, in ``SUBSYSTEMS`` order.
_SIDX = {s: i for i, s in enumerate(SUBSYSTEMS)}


class _LaneView:
    """Read-only ``Server`` facade over one fleet lane.

    ``now_s``, ``counters``, ``sampler``, ``energy`` and
    ``process_stats`` resolve to the lane's slice of the fleet arrays.
    It is a *view*: stepping the fleet advances what it reads.
    """

    __slots__ = ("_fleet", "_lane", "counters", "sampler", "energy")

    def __init__(self, fleet: "FleetServer", lane: int) -> None:
        self._fleet = fleet
        self._lane = lane
        self.counters = _LaneCounters(fleet, lane)
        self.sampler = _LaneSampler(fleet, lane)
        self.energy = _LaneEnergy(fleet, lane)

    @property
    def now_s(self) -> float:
        return float(self._fleet._now[self._lane])

    @property
    def process_stats(self) -> "dict[int, ProcessStats]":
        fleet, lane = self._fleet, self._lane
        stats = {}
        for k in range(fleet._n_thr):
            if fleet._ran_ever[k, lane]:
                stats[k] = ProcessStats(
                    thread_id=k,
                    runtime_s=float(fleet._proc_runtime[k, lane]),
                    executed_uops=float(fleet._proc_exec[k, lane]),
                    fetched_uops=float(fleet._proc_fetch[k, lane]),
                    bus_transactions=float(fleet._proc_bus[k, lane]),
                )
        return stats


def simulate_fleet(
    workload: WorkloadSpec,
    duration_s: float = 300.0,
    seeds: "tuple[int, ...] | list[int]" = (1,),
    config: "SystemConfig | None" = None,
    pstate: int = 0,
) -> "list[MeasuredRun]":
    """Simulate ``workload`` on ``len(seeds)`` lanes in one fleet pass.

    Lane ``i`` reproduces ``simulate_workload(workload, duration_s,
    seed=seeds[i], config, pstate)`` — same seed mixing, same metadata —
    with counters and energy bit-identical and DAQ power traces
    tolerance-bounded.
    """
    mixed = [
        (int(seed) * 1000003 + _stable_hash(workload.name)) % (2**31)
        for seed in seeds
    ]
    fleet = FleetServer(config or SystemConfig(), workload, mixed)
    if pstate:
        fleet.set_all_pstates(pstate)
    runs = fleet.run(duration_s)
    for run, base in zip(runs, seeds):
        run.metadata["base_seed"] = int(base)
        run.metadata["pstate"] = int(pstate)
    return runs

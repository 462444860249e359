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

Work is sized by the lanes and threads that run, and by what moves,
not by the fleet:

* a batch in which some lanes are frozen (a datacenter's napping,
  booting and powered-off nodes) gathers the active lanes' columns of
  the state and per-lane inputs into working arrays, steps only those,
  and scatters the state back once at its end; a batch with every lane
  active works on the state arrays in place;
* each batch computes only the prefix of thread rows up to the last
  thread that is enabled, unfinished and started (by the batch's end)
  on some active lane.  A workload whose threads start staggered (gcc:
  one every 30 s) pays for one row until the second one starts.
  Within that prefix every thread's RNG draws come from one
  :class:`_FleetNormalStream` call and the per-package partials from
  one ``np.bincount`` (:func:`_package_partials`);
* what the schedule fixes — each (thread, lane) pair's phase, the
  package placement, their products, and the per-package sums of the
  quantities that do not move — is computed by
  :func:`_schedule_terms` on a batch's first tick and again only on a
  tick where a pair starts, finishes or changes phase.  Other ticks
  compute what moves: OU draws, latency feedback, queues and noise.
  Services whose phases last tens of seconds recompute on the first
  tick of each one-second batch and nowhere else;
* the package folds are one reduction each (:func:`_fold_packages`),
  the DAQ integrates all five subsystems in one pass, and a batch in
  which no lane samples skips the DAQ altogether.

Equivalence with the scalar :class:`~repro.simulator.system.Server`
--------------------------------------------------------------------

Each lane consumes exactly the RNG streams a scalar ``Server`` with the
same seed would (same stream names, same draw order), and the per-tick
arithmetic mirrors the scalar code term by term in the same evaluation
order.  Lane state is therefore *bit-identical* to the scalar server
for everything on the simulation side: performance counters, sampler
windows, per-subsystem energy, and process stats.  The shortcuts keep
this: elementwise arithmetic does not depend on which other lanes
share the arrays, so gathering lanes changes no lane's floats; a
skipped thread row would only have added +0.0 to sums that are never
-0.0; each (thread, lane) stream keeps its own generator, buffer and
cursor; ``np.bincount`` adds into zeroed bins in input order, which is
thread order; a cached schedule term is the same expression on the
same inputs as the per-tick one it replaced; and the package folds add
in package order from +0.0, as the scalar accumulators do.

One measurement-side term differs: the sensor drift factor uses
``np.sin`` (one call over the ``(5, lanes)`` block) where the scalar
path uses ``math.sin``.  The two agree to within ~1 ulp but are not
guaranteed bit-equal, so DAQ power traces (and anything derived from
them, e.g. ``MeasuredRun.power``) are tolerance-bounded rather than
bit-exact — relative error is bounded by a few 1e-16 per tick and
stays far below the modelled acquisition noise.  Callers that need
bit-exact traces run :func:`~repro.simulator.system.simulate_workload`
once per seed.  The drift term feeds no simulation state back, so
counters and energy stay bit-exact.

Lanes are independent: lane ``i``'s entire trace depends only on its
own seed and workload, never on the fleet width or on other lanes.

Lanes are watched in batches: :meth:`FleetServer.attach_fleet_monitor`
pulses one monitor (:class:`~repro.obs.fleet.FleetMonitor`) with every
tick's closing lanes (by global id), and an external control loop
reads counters with :meth:`FleetServer.read_and_clear_lanes`.
:meth:`FleetServer.lane` returns a read-only ``Server``-shaped view of
one lane for checks against the scalar server.

Not supported by the fleet (use :class:`~repro.simulator.system.Server`):
custom counter banks (multiplexed PMUs), per-package DVFS differing
*within* a lane (per-lane uniform pstates are fine), and the RC thermal
model (which the scalar server also keeps outside its tick loop).
"""

from __future__ import annotations

import math
from time import monotonic as _monotonic
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.core.events import SUBSYSTEMS, Event, Subsystem
from repro.core.traces import CounterTrace, MeasuredRun, PowerTrace
from repro.measurement.sync import align_windows
from repro.osim.process import _ou_coefficients
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
    never draw commit no memory.

    A batch draws through :meth:`select`: the stream then works on the
    selected lanes' cursors and buffer offsets (one working column per
    selected lane), and :meth:`release` writes those cursors back.  A
    refill maps its working column to the global lane, so each stream
    keeps its own generator, buffer and draw order whichever lanes run
    beside it.  Lanes left out of a selection consume nothing, and
    within one a stream only refills (and its cursor only advances) on
    calls where ``mask`` is true for it.
    """

    CHUNK = 128

    __slots__ = (
        "_gens", "_buf", "_flat", "_base", "_pos", "_lanes", "_wbase", "_wpos"
    )

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
        self.select(None)

    def select(self, lanes: "np.ndarray | None") -> None:
        """Draw for the global lanes ``lanes`` (``None``: every lane, on
        the cursors in place) until :meth:`release`."""
        self._lanes = lanes
        if lanes is None:
            self._wbase, self._wpos = self._base, self._pos
        else:
            self._wbase, self._wpos = self._base[:, lanes], self._pos[:, lanes]

    def release(self) -> None:
        """Write the selected lanes' cursors back."""
        if self._lanes is not None:
            self._pos[:, self._lanes] = self._wpos

    def next(self, mask: "np.ndarray | None" = None) -> np.ndarray:
        """One draw per selected stream of the first ``len(mask)`` rows
        where ``mask`` (every selected stream when ``mask`` is None);
        other streams get garbage.

        The returned values at ``~mask`` are stale buffer contents —
        callers must gate on ``mask`` (the tick loop always does via
        ``np.copyto``).
        """
        chunk = self.CHUNK
        if mask is None:
            pos, base = self._wpos, self._wbase
            need = pos >= chunk
        else:
            pos, base = self._wpos[: mask.shape[0]], self._wbase[: mask.shape[0]]
            need = mask & (pos >= chunk)
        if need.any():
            buf, gens, lanes = self._buf, self._gens, self._lanes
            for row, col in zip(*np.nonzero(need)):
                lane = col if lanes is None else lanes[col]
                buf[row, lane] = gens[row][lane].standard_normal(chunk)
            pos[need] = 0
        # An empty stream that does not draw reads one past its buffer;
        # "clip" keeps the last stream's overrun in bounds.
        out = self._flat.take(base + pos, mode="clip")
        pos += 1 if mask is None else mask
        return out


class _PlanTable:
    """One thread's phase plan, gathered into per-phase numpy columns.

    The scalar path looks up a :class:`PhaseBehavior` per tick and
    reads ~20 attributes; here each attribute (or the exact product the
    scalar tick computes from it) becomes one ``(n_phases,)`` array, so
    a single fancy index gathers every lane's current phase parameters
    at once (on the ticks where the schedule changes, see
    :func:`_schedule_terms`).  Products folded in at build time
    reproduce the scalar association order exactly (noted per field).
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
        # Stacked (n_phases, 17) parameter matrix: one fancy index
        # gathers every column at once.  Column order = the _C_*
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


def _partial_bins(
    affinity: np.ndarray, running: np.ndarray, n_q: int, n_pkg: int
) -> np.ndarray:
    """Flat ``np.bincount`` bins for :func:`_sum_partials`.

    One bin per ``(quantity, package, lane)``, listed in ``(quantity,
    thread, lane)`` order for ``n_q`` quantities.  Pairs that do not
    run, or have no package yet (affinity -1), land in a trash package
    row past the last real one.
    """
    width = affinity.shape[1]
    pkg = np.where(running & (affinity >= 0), affinity, n_pkg)
    cell = pkg * width + np.arange(width)
    stride = (n_pkg + 1) * width
    bins = np.arange(0, n_q * stride, stride)[:, None, None] + cell
    return bins.ravel()


def _sum_partials(
    contrib: np.ndarray, bins: np.ndarray, n_pkg: int
) -> np.ndarray:
    """Per-package sums of ``contrib`` (``(n_q, n_thr, width)``) into the
    bins :func:`_partial_bins` made for it; ``(n_q, n_pkg, width)``."""
    n_q, _, width = contrib.shape
    sums = np.bincount(
        bins, weights=contrib.ravel(), minlength=n_q * (n_pkg + 1) * width
    )
    return sums.reshape(n_q, n_pkg + 1, width)[:, :n_pkg]


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
    compute.  The kernel makes the bins (:func:`_partial_bins`) when
    its schedule changes and sums into them (:func:`_sum_partials`)
    every tick.
    """
    bins = _partial_bins(affinity, running, contrib.shape[0], n_pkg)
    return _sum_partials(contrib, bins, n_pkg)


def _fold_packages(*rows: np.ndarray) -> np.ndarray:
    """Sum each ``(n_pkg, width)`` row over its packages, in package order.

    Returns ``(len(rows), width)`` with ``out[i] = ((0.0 + rows[i][0]) +
    rows[i][1]) + ...``: the sequential adds of the scalar per-package
    accumulators, so ``-0.0`` terms fold to ``+0.0`` as they do there.

    The rows are stacked package-major and reduced over the leading
    axis.  numpy sums pairwise only along the fast (contiguous) axis,
    and with two or more rows that axis is never the package axis.
    Reducing a quantity-major ``(q, n_pkg, width)`` block over axis 1
    instead is pairwise, and differs, when a batch has one lane and
    eight or more packages.  Callers pass at least two rows.
    """
    return np.add.reduce(np.stack(rows, axis=1), axis=0, initial=0.0)


#: Per-thread quantities that move every tick, summed per package by
#: one bincount per tick: texec, tfetch, tfp, tspec, lm, wb, pw, pf,
#: tlbm, stream-weighted traffic and traffic.
_N_MOVING = 11


class _Schedule(NamedTuple):
    """The kernel terms a schedule fixes (see :func:`_schedule_terms`).

    Per-pair fields are ``(n_live, lanes)``, per-package ones ``(n_pkg,
    lanes)`` and per-lane ones ``(lanes,)``.
    """

    runm2: np.ndarray  #: the run mask the terms were computed for
    lo: np.ndarray  #: each pair's phase holds while lo <= position < hi
    hi: np.ndarray
    # Phase parameters the tick multiplies by what moves.
    upc: np.ndarray
    sm: np.ndarray
    wf1: np.ndarray
    fp: np.ndarray
    l3: np.ndarray
    tlbk: np.ndarray
    stream: np.ndarray
    # Phase x placement products.
    smt_tc: np.ndarray  #: smt_g * tc
    spec_tc: np.ndarray  #: spec * tc
    wbf: np.ndarray  #: writeback factor wb * (1 + cpress * sharing)
    ua: np.ndarray
    bins: np.ndarray  #: bincount bins of the _N_MOVING quantities
    active_pkg: np.ndarray
    occm: np.ndarray
    n_run: np.ndarray
    ctx_inc: np.ndarray  #: context switches per tick from SMT crowding
    rt_inc: np.ndarray  #: runtime increment
    prt_inc: np.ndarray  #: process-runtime increment
    sync_req: np.ndarray  #: per-lane sync requests of this tick
    # Package partials and folds of the quantities that do not move.
    p_ua: np.ndarray
    file_read: np.ndarray
    dirty_inc: np.ndarray  #: (file_write / dt) * dt
    weighted_hit: np.ndarray
    # NIC terms (they follow from the phases' network rates alone).
    nic_io: np.ndarray
    nic_snoops: np.ndarray
    nic_txn: np.ndarray
    nic_irq: np.ndarray  #: nic_io / nic_bpi, the interrupt residual step
    nic_dram_r: np.ndarray
    nic_dram_w: np.ndarray


def _schedule_terms(
    fleet: "FleetServer",
    runm2: np.ndarray,
    position: np.ndarray,
    affinity: np.ndarray,
    bound: np.ndarray,
    ctx: np.ndarray,
    last_name_id: np.ndarray,
    cycles: "float | np.ndarray",
) -> _Schedule:
    """Every kernel term that the batch's schedule fixes, for this tick.

    Each (thread, lane) pair's phase follows from its ``position``, and
    its package from ``affinity``.  With the run mask ``runm2`` and the
    batch's P-state ``cycles``, they fix every term returned here until
    a pair starts, finishes or leaves its phase.
    :meth:`FleetServer.run_ticks` calls this on a batch's first tick,
    on a tick whose ``runm2`` differs from the cached ``.runm2``, and on
    a tick where a pair's position leaves its ``[lo, hi)``; other ticks
    reuse the result.  A new term that the schedule fixes belongs here,
    and a new input it reads needs a trigger there.

    The statements are the kernel's per-tick ones, moved: each term is
    the same expression on the same inputs, so the cache changes no
    bit.  Like them, this places running pairs that have no package yet
    (in place: ``affinity``, ``bound`` and ``ctx``) and records each
    running pair's phase name in ``last_name_id``.  A pair runs first on
    a tick where ``runm2`` changes, so placement only happens here.
    """
    n_live, n = runm2.shape
    n_pkg, smt, dt = fleet._n_pkg, fleet._smt, fleet._dt
    # Phase index = phase ends at or below the position (the scalar
    # scan over sorted bounds); +inf pads never count.
    idx2 = (fleet._bounds_tab[:n_live, None, :] <= position[..., None]).sum(
        axis=2
    )
    np.minimum(idx2, fleet._nph_col[:n_live] - 1, out=idx2)
    gidx = idx2 + fleet._plan_offsets[:n_live]
    nid2 = fleet._name_all[gidx]
    sync2 = runm2 & fleet._sync_all[gidx] & (nid2 != last_name_id)
    np.copyto(last_name_id, nid2, where=runm2)
    G = fleet._mat_t[:, gidx]

    # First-run placement, per-package runnable counts.
    unplaced2 = runm2 & (affinity < 0)
    if unplaced2.any():
        # First run of a thread: scalar placement order — thread k sees
        # the bounds updated by threads < k.
        for k in range(n_live):
            unplaced = unplaced2[k]
            if not unplaced.any():
                continue
            aff = affinity[k]
            np.copyto(aff, np.argmin(bound, axis=0), where=unplaced)
            cols = np.nonzero(unplaced)[0]
            bound[aff[cols], cols] += 1
            ctx += unplaced
    onehot3 = (affinity[None] == np.arange(n_pkg)[:, None, None]) & runm2[None]
    cp = onehot3.sum(axis=1, dtype=np.int64)
    share = np.where(cp > smt, smt / cp, 1.0)
    smt_scale = np.where(cp <= 1, 1.0, (fleet._smt_yield * 2.0) / cp)
    aff_safe2 = np.maximum(affinity, 0)
    lanes = np.arange(n)
    share_g = share[aff_safe2, lanes]
    smt_g = smt_scale[aff_safe2, lanes]
    cp_g = cp[aff_safe2, lanes]
    sharing = np.maximum(cp_g - 1, 0)

    # Phase x placement products.
    occ2 = G[_C_OCC0] * share_g
    tc = cycles * occ2
    ua = G[_C_UNC] * occ2
    # max() is order-free, so the package occupancy fold can reduce
    # over the thread axis in one pass.
    occm = np.max(np.where(onehot3, occ2[None], 0.0), axis=1)
    psync = (onehot3 & sync2[None]).any(axis=1)

    # The quantities that do not move: package partials, folds and the
    # NIC terms derived from them.
    p_ua, p_fr, p_fw, p_hw, p_nrx, p_ntx = _package_partials(
        np.stack((ua, G[_C_FR], G[_C_FW], G[_C_HW], G[_C_NRX], G[_C_NTX])),
        affinity, runm2, n_pkg,
    )
    rhr = np.where(p_fr > 0, p_hw / p_fr, 1.0)
    file_read, file_write, weighted_hit, net_rx, net_tx = _fold_packages(
        p_fr, p_fw, rhr * p_fr, p_nrx, p_ntx
    )
    line_bytes = fleet._line_bytes
    rx = np.minimum(net_rx, fleet._nic_line) * dt
    tx_b = np.minimum(net_tx, fleet._nic_line) * dt
    nic_io = rx + tx_b
    return _Schedule(
        runm2=runm2,
        lo=fleet._lo_all[gidx],
        hi=fleet._hi_all[gidx],
        upc=G[_C_UPC],
        sm=G[_C_SM],
        wf1=G[_C_WF1],
        fp=G[_C_FP],
        l3=G[_C_L3],
        tlbk=G[_C_TLBK],
        stream=G[_C_STREAM],
        smt_tc=smt_g * tc,
        spec_tc=G[_C_SPEC] * tc,
        wbf=G[_C_WB] * (1.0 + G[_C_CPRESS] * sharing),
        ua=ua,
        bins=_partial_bins(affinity, runm2, _N_MOVING, n_pkg),
        active_pkg=cp > 0,
        occm=occm,
        n_run=cp.sum(axis=0),
        ctx_inc=np.maximum(cp - smt, 0).sum(axis=0),
        rt_inc=np.where(runm2, dt, 0.0),
        prt_inc=np.where(runm2, dt * occ2, 0.0),
        sync_req=psync.any(axis=0),
        p_ua=p_ua,
        file_read=file_read,
        dirty_inc=(file_write / dt) * dt,
        weighted_hit=weighted_hit,
        nic_io=nic_io,
        nic_snoops=nic_io / line_bytes,
        nic_txn=(nic_io / 512.0) * fleet._tx_factor,
        nic_irq=nic_io / fleet._nic_bpi,
        nic_dram_r=tx_b / line_bytes,
        nic_dram_w=rx / line_bytes,
    )


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
        # index gathers all (thread, lane) phase rows at once.  The
        # parameter table is column-major, (17, n_phases), so each
        # gathered column is one contiguous (threads, lanes) block.
        plans = [
            _PlanTable(plan, pagewalk_per_tlb, dt) for plan in workload.threads
        ]
        self._mat_t = np.ascontiguousarray(
            np.concatenate([t.mat for t in plans], axis=0).T
        )
        self._name_all = np.concatenate([t.name_ids for t in plans])
        self._sync_all = np.concatenate([t.sync for t in plans])
        # Each phase's position interval [lo, hi): from the previous
        # phase's end (-inf for the first) to its own end (+inf for the
        # last, which the lookup clamps to).
        self._lo_all = np.concatenate(
            [np.concatenate(([-np.inf], t.bounds[:-1])) for t in plans]
        )
        self._hi_all = np.concatenate(
            [np.concatenate((t.bounds[:-1], [np.inf])) for t in plans]
        )
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
        # _STATE_NAMES is gathered for a batch's active lanes ---------
        self._now = np.zeros(width)
        self._timer_residual = np.zeros(width)
        self._pend_disk = np.zeros((n_pkg, width))
        self._pend_net = np.zeros((n_pkg, width))
        self._irq_cursor = np.zeros(width, dtype=np.int64)
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
        self._q_seq_write = np.zeros(width)
        self._q_rand_read = np.zeros(width)
        self._q_rand_write = np.zeros(width)
        self._dma_residual = np.zeros(width)
        self._nic_residual = np.zeros(width)
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
        #: Enabled thread mask — *configuration* the kernel reads but
        #: never writes (cluster load control flips it between batches).
        self._enabled = np.ones((n_thr, width), dtype=bool)

        # Per-lane window logs, appended to by the lanes a batch runs.
        self._samp_ts: "list[list[float]]" = [[] for _ in range(width)]
        self._samp_dur: "list[list[float]]" = [[] for _ in range(width)]
        self._samp_counts: "list[list[np.ndarray]]" = [[] for _ in range(width)]
        self._daq_ts: "list[list[float]]" = [[] for _ in range(width)]
        self._daq_means: "list[list[list[float]]]" = [
            [[] for _ in range(5)] for _ in range(width)
        ]

    #: Mutable per-lane state.  A batch with a frozen lane gathers the
    #: active lanes' columns of each array into a working copy and
    #: scatters them back at its end (an all-active batch works on the
    #: arrays in place), so the kernel never touches a frozen lane.
    #: The RNG streams select the same lanes' cursors; the generators
    #: and window logs stay indexed by global lane.
    _STATE_NAMES = (
        "_now",
        "_timer_residual",
        "_pend_disk",
        "_pend_net",
        "_irq_cursor",
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
        "_q_seq_write",
        "_q_rand_read",
        "_q_rand_write",
        "_dma_residual",
        "_nic_residual",
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
        """Simulated time of lane 0.

        Lanes frozen for different lengths of time do not share a
        clock; ``lane(i).now_s`` is lane ``i``'s own.
        """
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
        like ``_enabled``: a batch reads them on the lanes it runs.  A
        uniform vector collapses to the scalar fast path.
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

        ``monitor.on_pulse(fleet, lanes)`` fires once per tick on
        which any lane closes a sampling window, with the closing lane
        indices.  Lanes frozen for different lengths of time keep
        different clocks, so a lane's close time is the last entry of
        its own sampler log (see :class:`repro.obs.fleet.FleetMonitor`,
        the one way fleet lanes are watched).  ``on_attach_fleet``,
        when present, fires now.  Unattached, the tick loop pays one
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

        ``active`` (bool, shape ``(width,)``) freezes lanes: the batch
        runs on the active lanes only.  It gathers their columns of
        every ``_STATE_NAMES`` array and of the per-lane inputs
        (enabled threads, sensor gains and phases, chipset means,
        per-lane P-state constants) into working arrays as wide as the
        number of active lanes, steps those, and scatters the state
        back once at the end.  A frozen lane is never touched: it draws
        nothing from its RNG streams, logs no sampling windows, and its
        state stays as it was, so a freeze is indistinguishable from the
        lane never being stepped.  Frozen lanes report 0.0 J.  A batch
        with every lane active works on the state arrays in place.

        A fleet monitor's ``on_pulse`` gets global lane ids; the
        closing lanes' window logs and ``_energy5`` columns are current
        when it runs.

        The scheduler, CPU-package and process-accounting stages run
        on the thread rows up to the last one that can run on an
        active lane before the batch ends (enabled, unfinished, and
        started by one tick past the batch's last), so a batch costs
        what its active lanes' started threads cost; rows in that
        prefix that cannot run on a given tick are masked as before.

        Within the batch, every term the schedule fixes (each pair's
        phase, the placement, their products and the per-package sums
        of the quantities that do not move) is kept in batch-local
        arrays by :func:`_schedule_terms`, recomputed on the batch's
        first tick, on a tick whose run mask differs from the cached
        one, and on a tick where a pair's phase position leaves its
        phase.  Other ticks compute only what moves: OU draws, latency
        feedback, queues and noise.  A batch in which no lane samples
        (every sampler deadline infinite) skips the DAQ integration,
        whose energy only a closing window reads.
        """
        width = self.width
        energies = np.zeros(width)
        if n_ticks <= 0:
            return energies

        obs_on = obs.enabled()
        t0 = _monotonic() if obs_on else 0.0

        # sel: the active lanes' global ids when some lane is frozen,
        # None when every lane runs (the arrays are then used in place).
        sel = None
        if active is not None:
            act = np.asarray(active, dtype=bool)
            if act.shape != (width,):
                raise ValueError(f"active mask must have shape ({width},)")
            if not act.all():
                sel = np.flatnonzero(act)
                if not sel.size:
                    return energies
        n = width if sel is None else sel.size
        lane_ids = np.arange(width) if sel is None else sel

        def lanes_of(x):
            """Per-lane ``x`` on the batch's lanes; scalars pass through."""
            if sel is None or not isinstance(x, np.ndarray):
                return x
            return x[..., sel]

        work = {name: lanes_of(getattr(self, name)) for name in self._STATE_NAMES}
        thread_stream = self._thread_stream
        chip_stream = self._chip_stream
        thread_stream.select(sel)
        chip_stream.select(sel)

        # Live-thread prefix: a thread row past the last one that can
        # run on some active lane before this batch ends draws nothing
        # and adds nothing, so the thread stages below run on [:n_live]
        # views.  The horizon over-estimates the clock at the batch's
        # last tick by one tick (an extra row is harmless: runm2 masks
        # it every tick), and one row is always kept so the package
        # folds never reduce over an empty thread axis.
        dt = self._dt
        enabled = lanes_of(self._enabled)
        horizon = work["_now"] + (n_ticks + 1) * dt
        live = enabled & ~work["_finished"]
        live &= self._start_col <= horizon
        live_rows = np.flatnonzero(live.any(axis=1))
        n_live = int(live_rows[-1]) + 1 if live_rows.size else 1
        enabled = enabled[:n_live]

        # Hoisted state and constants (attribute lookups off the loop).
        n_pkg = self._n_pkg
        cycles = lanes_of(self._cycles)
        cycles_total = lanes_of(self._cycles_total)
        now = work["_now"]
        timer_res = work["_timer_residual"]
        pend_disk, pend_net = work["_pend_disk"], work["_pend_net"]
        irq_cursor = work["_irq_cursor"]
        runtime, ou = work["_runtime"][:n_live], work["_ou"][:n_live]
        last_name_id = work["_last_name_id"][:n_live]
        finished = work["_finished"][:n_live]
        affinity = work["_affinity"][:n_live]
        bound, ctx = work["_bound"], work["_ctx"]
        bus_latency = work["_bus_latency"]
        dram_latency = work["_dram_latency"]
        pc_dirty, pc_pending = work["_pc_dirty"], work["_pc_pending"]
        q_seq_write = work["_q_seq_write"]
        q_rand_read = work["_q_rand_read"]
        q_rand_write = work["_q_rand_write"]
        dma_residual = work["_dma_residual"]
        nic_residual = work["_nic_residual"]
        chip_offset = work["_chip_offset"]
        c3 = work["_counts3d"]
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
        gains = lanes_of(self._gains)
        drift_phases = lanes_of(self._drift_phases)
        drift_rel = self._drift_rel
        sample_period, sample_jitter = self._sample_period, self._sample_jitter
        daq_rate, daq_noise_rel = self._daq_rate, self._daq_noise_rel
        two_pi = 2.0 * math.pi
        energy5, e_time = work["_energy5"], work["_e_time"]
        wenergy = work["_wenergy"]
        proc_runtime = work["_proc_runtime"][:n_live]
        proc_exec = work["_proc_exec"][:n_live]
        proc_fetch = work["_proc_fetch"][:n_live]
        proc_bus = work["_proc_bus"][:n_live]
        ran_ever = work["_ran_ever"][:n_live]
        samp_wstart = work["_samp_wstart"]
        samp_deadline = work["_samp_deadline"]
        daq_wstart = work["_daq_wstart"]
        # Only a closing window reads the DAQ energy, and a lane whose
        # deadline is infinite never closes one.
        sampling = bool(np.isfinite(samp_deadline).any())
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
        halted_v, active_delta = lanes_of(self._halted_v), self._active_delta
        power_scale = lanes_of(self._power_scale)
        stall_fraction, uop_w = self._stall_fraction, self._uop_w
        spec_w, fp_premium = self._spec_w, self._fp_premium
        chip_nominal, chip_bus_w = self._chip_nominal, self._chip_bus_w
        chip_io_w = self._chip_io_w
        chip_mean = lanes_of(self._chip_mean)
        chip_alpha, chip_noise = self._chip_alpha, self._chip_noise
        io_static, io_sw_e = self._io_static, self._io_sw_e
        io_tx_e = self._io_tx_e
        line_bytes, tx_factor = self._line_bytes, self._tx_factor
        dma_bpi, bg_half = self._dma_bpi, self._bg_half
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
        start_col = self._start_col[:n_live]
        cycle_col = self._cycle_col[:n_live]
        loop_col = self._loop_col[:n_live]
        has_nonloop = self._has_nonloop
        fleet_monitor = self._fleet_monitor
        batch_energy = np.zeros(n)
        # The terms this batch's schedule fixes; batch-local, so the
        # batch's first tick always computes them.
        sched: "_Schedule | None" = None

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
                pend_disk[:] = 0.0
                pend_net[:] = 0.0

                # (2) Scheduler pass.  The run mask and each pair's
                # phase position are checked every tick; on the batch's
                # first tick, and on a tick where a pair starts,
                # finishes or leaves its phase, _schedule_terms
                # recomputes what the schedule fixes (phase lookup,
                # first-run placement, per-package runnable counts and
                # their products).  OU modulation moves every tick.
                # Thread state lives in (n_live, lanes) arrays and each
                # (thread, lane) stream keeps its own draw order, so
                # one draw over the block is bit-identical to drawing
                # thread by thread.
                latency = bus_latency * dram_latency
                lratio = np.maximum(latency / base_latency, 1.0)
                ramp = np.minimum(1.0 + 2.6 * (lratio - 1.0), 5.0)
                runm2 = enabled & (now >= start_col)
                runm2 &= ~finished
                if has_nonloop:
                    newly = (~loop_col) & runm2 & (runtime >= cycle_col)
                    if newly.any():
                        finished |= newly
                        runm2 &= ~newly
                position = np.where(
                    loop_col, np.mod(runtime, cycle_col), runtime
                )
                if (
                    sched is None
                    or (runm2 != sched.runm2).any()
                    or ((position < sched.lo) | (position >= sched.hi)).any()
                ):
                    sched = _schedule_terms(
                        self, runm2, position, affinity, bound, ctx,
                        last_name_id, cycles,
                    )
                    ran_ever |= runm2
                    # A sync phase is entered only on a recompute tick
                    # (afterwards every running pair's last name is its
                    # phase's).  The copy is the tick's first page-cache
                    # statement, so it can run here.
                    np.copyto(pc_pending, pc_dirty, where=sched.sync_req)
                draw = thread_stream.next(runm2)
                np.copyto(ou, ou_alpha * ou + ou_noise * draw, where=runm2)
                mod2 = np.maximum(1.0 + variability * ou, 0.1)
                runtime += sched.rt_inc
                ctx += sched.ctx_inc

                # (3) CPU packages: per-thread execution and traffic
                # computed for every (thread, lane) at once, then
                # summed into per-package partials in thread order by
                # one bincount (row layout mirrors the scalar
                # accumulators).
                tgt = np.maximum(
                    np.minimum(sched.upc * mod2, max_upc), 1.0e-6
                )
                cpi = 1.0 / tgt
                stall = sched.sm * latency
                texec2 = sched.smt_tc / (cpi + stall)
                tfetch2 = texec2 * sched.wf1
                tfp = texec2 * sched.fp
                tspec = sched.spec_tc * mod2
                kuops = texec2 / 1000.0
                lm = (kuops * sched.l3) * mod2
                tlbm = (kuops * sched.tlbk) * mod2
                pf = ((lm * ppm) * sched.stream) * ramp
                wb = lm * sched.wbf
                pw = tlbm * pw_per_tlb
                tx2 = (((lm + wb) + pw) + sched.ua) + pf
                (
                    p_exec, p_fetch, p_fp, p_spec, p_dlm, p_wb, p_pw, p_pf,
                    p_tlb, p_streamw, p_weight,
                ) = _sum_partials(
                    np.stack(
                        (
                            texec2, tfetch2, tfp, tspec, lm, wb, pw, pf,
                            tlbm, sched.stream * tx2, tx2,
                        )
                    ),
                    sched.bins,
                    n_pkg,
                )
                active_pkg = sched.active_pkg
                ib = np.minimum((irq * isc) / cycles, 0.5)
                occ = np.where(active_pkg, np.minimum(sched.occm + ib, 1.0), ib)
                halted = cycles * (1.0 - occ)
                idle_uops = cycles * ib
                fetched = np.where(active_pkg, p_fetch, idle_uops * 0.4)
                executed = np.where(active_pkg, p_exec, idle_uops * 0.35)
                stream_p = np.where(
                    active_pkg & (p_weight > 0), p_streamw / p_weight, 0.5
                )
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
                demand, prefetch_sum, tlb_total = _fold_packages(
                    ((p_dlm + p_wb) + p_pw) + sched.p_ua, p_pf, p_tlb
                )

                # (4) Page cache: dirty accounting and writeback policy
                # (a sync request's copy ran in stage (2)).
                fault_read = (tlb_total * fault_ratio) * fault_bytes
                total_read = sched.file_read + fault_read
                hit_ratio = np.where(
                    total_read > 0, sched.weighted_hit / total_read, 1.0
                )
                pc_dirty += sched.dirty_inc
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
                np.copyto(
                    pc_pending, 0.0, where=in_sync & (pc_dirty <= 0.0)
                )
                np.maximum(pc_dirty, 0.0, out=pc_dirty)
                q_rand_read += read_req
                q_seq_write += write_bytes

                # (5) Disk service: budget shared across queues in fixed
                # order (sequential writes, random reads, random writes;
                # the sequential-read queue is structurally empty).  A
                # queue that rounding left below zero is not served: the
                # scalar disk serves only queues above zero.
                budget = np.full(n, disk_budget0)
                svc = np.maximum(np.minimum(budget, q_seq_write / seq_thr), 0.0)
                served_sw = svc * seq_thr
                q_seq_write -= served_sw
                budget -= svc
                seek_s = svc * seq_seekf
                xfer_s = svc * (1.0 - seq_seekf)
                svc = np.maximum(np.minimum(budget, q_rand_read / rand_thr), 0.0)
                served_rr = svc * rand_thr
                q_rand_read -= served_rr
                budget -= svc
                seek_s += svc * rand_seekf
                xfer_s += svc * (1.0 - rand_seekf)
                svc = np.maximum(np.minimum(budget, q_rand_write / rand_thr), 0.0)
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
                nic_residual += sched.nic_irq
                nic_ints = np.floor(nic_residual)
                nic_residual -= nic_ints
                nic_unc = nic_ints * 3.0
                ints = dma_ints.astype(np.int64)
                kk = (pkg_col - irq_cursor[None, :]) % n_pkg
                pend_disk += (ints[None, :] - kk + (n_pkg - 1)) // n_pkg
                irq_cursor += ints
                irq_cursor %= n_pkg
                ints = nic_ints.astype(np.int64)
                kk = (pkg_col - irq_cursor[None, :]) % n_pkg
                pend_net += (ints[None, :] - kk + (n_pkg - 1)) // n_pkg
                irq_cursor += ints
                irq_cursor %= n_pkg

                # (7) Bus arbitration; grant ratios scale CPU traffic.
                # The fold over packages mirrors the scalar fused pass
                # (step 6/7 in system.py), in package order.
                total_snoops = dma_snoops + sched.nic_snoops
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
                g_ua = sched.p_ua * dr
                g_pf = p_pf * pr
                own_tx = (((g_dlm + g_wb) + g_pw) + g_ua) + g_pf
                (
                    cpu_reads, cpu_writes, traffic_weight, stream_weighted,
                    uncacheable_cpu, prefetch_total, cpu_power, halted_total,
                ) = _fold_packages(
                    (g_dlm + g_pw) + g_pf, g_wb, own_tx, stream_p * own_tx,
                    g_ua, g_pf, pkg_power, halted,
                )
                blended = np.where(
                    traffic_weight > 0, stream_weighted / traffic_weight, 0.5
                )
                dma_active = (dma_io > 0) | (sched.nic_io > 0)
                stream_count = np.maximum(
                    sched.n_run + np.where(dma_active, 1.0, 0.0), 1.0
                )

                # (8) DRAM: granted CPU traffic plus device DMA.
                drr = dma_dram_r + sched.nic_dram_r
                drw = dma_dram_w + sched.nic_dram_w
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
                draw_c = chip_stream.next()[0]
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
                io_bytes = dma_io + sched.nic_io
                io_txn = dma_txn + sched.nic_txn
                io_energy = (
                    io_bytes * io_sw_e
                    + io_txn * io_tx_e
                    + unc_total * 0.15e-6
                )
                io_power = io_static + io_energy / dt
                powers5 = np.stack(
                    (
                        cpu_power, chipset_power, memory_power, io_power,
                        disk_power,
                    )
                )
                energy5 += powers5 * dt
                e_time += dt
                batch_energy += (
                    (((cpu_power + chipset_power) + memory_power) + io_power)
                    + disk_power
                ) * dt

                # (10) Per-process accounting (needs the bus grant).
                proc_runtime += sched.prt_inc
                proc_exec += np.where(runm2, texec2, 0.0)
                proc_fetch += np.where(runm2, tfetch2, 0.0)
                proc_bus += np.where(runm2, tx2 * dr, 0.0)

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
                # tick (one pass over the five subsystems); a lane whose
                # sampler deadline passed closes its window (counter
                # snapshot + DAQ means + monitor pulse).  Working
                # columns index the arrays; the generators and window
                # logs are kept by global lane.
                if not sampling:
                    continue
                drift = 1.0 + drift_rel * np.sin(
                    (two_pi * now) / 900.0 + drift_phases
                )
                wenergy += ((powers5 * gains) * drift) * dt
                closing = now + 1.0e-12 >= samp_deadline
                if closing.any():
                    closed = np.nonzero(closing)[0]
                    closed_lanes = lane_ids[closed]
                    for col, lane in zip(closed.tolist(), closed_lanes.tolist()):
                        now_l = float(now[col])
                        snap = c3[:, :, col].copy()
                        c3[:, :, col] = 0.0
                        samp_ts[lane].append(now_l)
                        samp_dur[lane].append(
                            now_l - float(samp_wstart[col])
                        )
                        samp_counts[lane].append(snap)
                        samp_wstart[col] = now_l
                        jitter = float(
                            samp_gens[lane].normal(0.0, sample_jitter)
                        )
                        samp_deadline[col] = now_l + max(
                            sample_period + jitter, 1.0e-3
                        )
                        duration = now_l - float(daq_wstart[col])
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
                            mean = float(wenergy[si, col]) / duration
                            mean *= 1.0 + noise * float(
                                gen.standard_normal()
                            )
                            lane_means[si].append(mean)
                            wenergy[si, col] = 0.0
                        daq_ts[lane].append(now_l)
                        daq_wstart[col] = now_l
                    if fleet_monitor is not None:
                        if sel is not None:
                            # The monitor reads the closing lanes' energy.
                            self._energy5[:, closed_lanes] = energy5[:, closed]
                        fleet_monitor.on_pulse(self, closed_lanes)

        thread_stream.release()
        chip_stream.release()
        if sel is None:
            energies = batch_energy
        else:
            for name, block in work.items():
                getattr(self, name)[..., sel] = block
            energies[sel] = batch_energy
        if obs_on:
            self._record_telemetry(n_ticks, n, _monotonic() - t0)
        return energies

    def _record_telemetry(
        self, n_ticks: int, n_lanes: int, elapsed_s: float
    ) -> None:
        """Batch-boundary profiling hook (one-bool cost when disabled).

        Mirrors ``Server._record_telemetry`` under ``fleet_``-prefixed
        names; ``fleet_lane_ticks_*`` aggregate over active lanes.
        """
        reg = obs.registry()
        labels = {"workload": self.workload.name}
        lane_ticks = float(n_ticks) * float(n_lanes)
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

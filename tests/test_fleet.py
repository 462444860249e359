"""Fleet/scalar equivalence: the SoA core against the reference Server.

The vectorized :class:`FleetServer` claims lane ``i`` reproduces
``Server(config, workload, seeds[i])`` exactly for counters and energy
(elementwise ufuncs are element-independent; order-sensitive reductions
stay sequential per lane), with one tolerance-bounded exception: the
DAQ's sinusoidal gain drift uses ``np.sin`` where the scalar path uses
``math.sin``.  These tests pin both halves of that contract, plus the
integrations that ride on it: cluster lanes (frozen lanes, per-lane
P-states, thread control), replayed on scalar servers, and sweep
lane-grouping.  The kernel's per-thread shortcuts — the live-thread
prefix per batch and the bincount package partials — are pinned the
same way, the partials against the per-thread loop they replaced, and
so is lane gathering (a batch steps only its active lanes' columns),
under random active masks, thread counts and P-states.  So is the
schedule cache (what a schedule fixes is recomputed only when it
changes: every trigger inside one batch, and a count of recomputes),
and the package folds are held to the package loop they replaced.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import Phase as SearchPhase
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster import Cluster, PowerAwareManager, StaticManager, diurnal_demand
from repro.core.events import Subsystem
from repro.simulator.config import fast_config
from repro.simulator import fleet as fleet_module
from repro.simulator.fleet import (
    FleetServer,
    _fold_packages,
    _package_partials,
    simulate_fleet,
)
from repro.simulator.system import Server, simulate_workload
from repro.workloads.base import Phase, PhaseBehavior, ThreadPlan, WorkloadSpec
from repro.workloads.registry import get_workload
from tests.replay import record, replay

SEED = 11
N_TICKS = 300

#: Documented epsilon for the one reordered measurement path (DAQ
#: drift via np.sin); everything else is asserted bit-exact.
DAQ_RTOL = 1e-9
DAQ_ATOL = 1e-12


def _scalar_rows(server):
    return server.counters._rows


def _assert_lane_matches_server(view, server, exact_power=True):
    """Counters, energy account and process stats of one lane vs Server."""
    assert view.now_s == server.now_s
    assert _scalar_rows(view) == _scalar_rows(server)
    for subsystem in Subsystem:
        assert view.energy._energy_j[subsystem] == server.energy._energy_j[subsystem]
    assert set(view.process_stats) == set(server.process_stats)
    for k, stats in server.process_stats.items():
        lane_stats = view.process_stats[k]
        assert lane_stats.runtime_s == stats.runtime_s
        assert lane_stats.executed_uops == stats.executed_uops
        assert lane_stats.fetched_uops == stats.fetched_uops
        assert lane_stats.bus_transactions == stats.bus_transactions
    assert view.sampler.n_samples == server.sampler.n_samples


class TestVectorLaneEquivalence:
    def test_every_lane_matches_its_scalar_server(self):
        """Default (vector) mode: counters/energy exact per lane."""
        config = fast_config()
        workload = get_workload("SPECjbb")
        seeds = [SEED + i for i in range(4)]
        fleet = FleetServer(config, workload, seeds)
        fleet_energy = fleet.run_ticks(N_TICKS)
        for lane, seed in enumerate(seeds):
            server = Server(config, workload, seed=seed)
            assert fleet_energy[lane] == server.run_ticks(N_TICKS)
            _assert_lane_matches_server(fleet.lane(lane), server)

    @pytest.mark.parametrize("workload", ["gcc", "mcf", "DiskLoad", "idle"])
    def test_lane0_bit_identity_across_workloads(self, workload):
        """The acceptance gate: lane 0 reproduces Server.run_ticks."""
        config = fast_config()
        spec = get_workload(workload)
        fleet = FleetServer(config, spec, [SEED, SEED + 1])
        server = Server(config, spec, seed=SEED)
        assert fleet.run_ticks(N_TICKS)[0] == server.run_ticks(N_TICKS)
        _assert_lane_matches_server(fleet.lane(0), server)

    def test_measured_run_tolerance_bounded(self):
        """simulate_fleet vs simulate_workload: counters exact, DAQ
        power within the documented np.sin/math.sin epsilon."""
        seeds = (5, 9)
        runs = simulate_fleet(
            get_workload("gcc"), 40.0, seeds=seeds, config=fast_config()
        )
        for run, seed in zip(runs, seeds):
            reference = simulate_workload(
                get_workload("gcc"), 40.0, seed=seed, config=fast_config()
            )
            assert run.seed == reference.seed
            assert run.metadata["base_seed"] == seed
            for event in reference.counters.events:
                assert np.array_equal(
                    run.counters.per_cpu(event),
                    reference.counters.per_cpu(event),
                )
            for subsystem in reference.power.subsystems:
                assert np.allclose(
                    run.power.power(subsystem),
                    reference.power.power(subsystem),
                    rtol=DAQ_RTOL,
                    atol=DAQ_ATOL,
                )

    def test_lane_out_of_range(self):
        fleet = FleetServer(fast_config(), get_workload("gcc"), [1, 2])
        fleet.run_ticks(N_TICKS)
        rows = [_scalar_rows(fleet.lane(lane)) for lane in (0, 1)]
        for lane in (2, -1):
            with pytest.raises(IndexError):
                fleet.lane(lane)
            with pytest.raises(IndexError):
                fleet.set_lane_threads(lane, 0)
            with pytest.raises(IndexError):
                fleet.read_and_clear_lanes([0, lane])
        # Nothing was edited, read or zeroed on the way to the error
        # (unchecked, -1 would alias the last lane).
        assert fleet._enabled.all()
        assert [_scalar_rows(fleet.lane(lane)) for lane in (0, 1)] == rows


class TestRngStreamIndependence:
    def test_lane_trace_unchanged_by_fleet_width(self):
        """Lane i's results depend on seeds[i] only, not on the width."""
        config = fast_config()
        workload = get_workload("SPECjbb")
        narrow = FleetServer(config, workload, [SEED, SEED + 7])
        wide = FleetServer(
            config, workload, [SEED + 3, SEED + 7, SEED + 1, SEED + 4, SEED + 9]
        )
        narrow_energy = narrow.run_ticks(N_TICKS)
        wide_energy = wide.run_ticks(N_TICKS)
        # seeds[1] of the narrow fleet == seeds[1] of the wide fleet
        assert narrow_energy[1] == wide_energy[1]
        assert _scalar_rows(narrow.lane(1)) == _scalar_rows(wide.lane(1))
        for subsystem in Subsystem:
            assert (
                narrow.lane(1).energy._energy_j[subsystem]
                == wide.lane(1).energy._energy_j[subsystem]
            )


class _RecordingMonitor:
    """Minimal live monitor: records every window pulse of one lane.

    ``on_window`` is the scalar ``Server`` hook; ``on_pulse`` is the
    fleet's, which names the closing lanes, so the recorder reads its
    lane (and the close time its sampler logged) through the fleet.
    """

    def __init__(self, lane=0):
        self.lane = lane
        self.pulses = []

    def on_window(self, server, pulse_s):
        self.pulses.append(
            (pulse_s, server.sampler.n_samples, sum(server.energy._energy_j.values()))
        )

    def on_pulse(self, fleet, lanes):
        if self.lane in lanes:
            self.on_window(fleet.lane(self.lane), fleet._samp_ts[self.lane][-1])


class TestMonitoredRunIdentity:
    def test_fleet_monitor_sees_scalar_pulses(self):
        """A fleet monitor sees lane 0 close the same windows, with the
        same state, as the same recorder attached to the scalar Server."""
        config = fast_config()
        workload = get_workload("gcc")

        server = Server(config, workload, seed=SEED)
        scalar_monitor = _RecordingMonitor()
        server.attach_monitor(scalar_monitor)
        server.run_ticks(N_TICKS)

        fleet = FleetServer(config, workload, [SEED, SEED + 1])
        fleet_monitor = _RecordingMonitor(lane=0)
        fleet.attach_fleet_monitor(fleet_monitor)
        fleet.run_ticks(N_TICKS)

        assert fleet_monitor.pulses  # windows actually closed
        assert fleet_monitor.pulses == scalar_monitor.pulses

    def test_monitored_run_bit_identical_to_unmonitored(self):
        """The monitor only reads: attaching one changes nothing."""
        config = fast_config()
        workload = get_workload("gcc")
        plain = FleetServer(config, workload, [SEED, SEED + 1])
        monitored = FleetServer(config, workload, [SEED, SEED + 1])
        monitor = _RecordingMonitor(lane=0)
        monitored.attach_fleet_monitor(monitor)
        plain_energy = plain.run_ticks(N_TICKS)
        monitored_energy = monitored.run_ticks(N_TICKS)
        assert monitor.pulses
        assert np.array_equal(plain_energy, monitored_energy)
        for lane in (0, 1):
            assert _scalar_rows(plain.lane(lane)) == _scalar_rows(
                monitored.lane(lane)
            )
            assert (
                plain.lane(lane).energy._energy_j
                == monitored.lane(lane).energy._energy_j
            )


class TestClusterEngineEquivalence:
    @pytest.mark.parametrize(
        "manager_factory, min_frozen",
        [(StaticManager, 0), (lambda: PowerAwareManager(headroom_threads=6), 1)],
        ids=["static", "power-aware"],
    )
    def test_fleet_engine_bit_exact(self, manager_factory, min_frozen):
        """The cluster's fleet lanes replay bit for bit on one scalar
        Server per node (see ``tests/replay.py``); the power-aware run
        must freeze lanes, so the masked path is really covered."""
        demand = diurnal_demand(
            45, peak_threads=14, trough_threads=2, period_s=60.0, seed=5
        )
        cluster = Cluster(n_nodes=3, seed=123)
        schedule = record(cluster)
        cluster.run(demand, manager_factory())
        replay(schedule)
        assert schedule.frozen_lane_seconds >= min_frozen

    def test_monitored_cluster_replays_on_servers(self, paper_suite):
        """A ClusterObserver's per-second counter reads go through
        ``read_and_clear_lanes``, so the replay sees (and re-reads on
        each Server) every snapshot the observer estimated from."""
        from repro.obs.live import ClusterObserver

        demand = diurnal_demand(
            30, peak_threads=14, trough_threads=2, period_s=40.0, seed=5
        )
        cluster = Cluster(n_nodes=3, seed=123)
        schedule = record(cluster)
        observer = ClusterObserver(suite=paper_suite, attribute=True)
        manager = PowerAwareManager(headroom_threads=4)
        for t, threads in enumerate(demand):
            cluster.run([threads], manager)
            observer.on_second(cluster, float(t + 1))
        replay(schedule)
        assert schedule.n_reads >= 1
        assert schedule.frozen_lane_seconds >= 1
        assert observer.last is not None


def _plan(start_s, durations, loop=True):
    """A thread plan cycling through distinct phases: CPU, memory, and a
    synced file-write phase, so the kernel's phase lookup, sync and
    page-cache paths all move."""
    behaviors = (
        PhaseBehavior(uops_per_cycle=1.6, l3_load_misses_per_kuop=0.5),
        PhaseBehavior(
            uops_per_cycle=0.7, l3_load_misses_per_kuop=6.0, streamability=0.9
        ),
        PhaseBehavior(
            uops_per_cycle=0.4, disk_write_bps=4.0e6, sync_file=True,
            blocking_fraction=0.3, net_tx_bps=2.0e6,
        ),
    )
    phases = tuple(
        Phase(duration, behaviors[i % 3], name=f"p{i % 3}")
        for i, duration in enumerate(durations)
    )
    return ThreadPlan(phases, start_time_s=start_s, loop=loop)


def _spec(*plans):
    return WorkloadSpec(name="synthetic", threads=plans, variability=0.2)


def _check_against_servers(spec, seeds, batches, config=None):
    """Step a fleet through ``batches`` of ``(n_ticks, active, threads)``
    or ``(n_ticks, active, threads, pstates)`` and check each lane
    against a scalar Server stepped only on the batches where its lane
    was active, running that batch's first ``threads[lane]`` plans (as
    ``tests/replay.py`` does) at that batch's ``pstates[lane]`` (P0 when
    a batch names none).  Sampled windows must match too."""
    config = config or fast_config()
    fleet = FleetServer(config, spec, seeds)
    servers = [Server(config, spec, seed=seed) for seed in seeds]
    plans = [list(server.threads) for server in servers]
    for i, (n_ticks, active, threads, *pstates) in enumerate(batches):
        active = np.asarray(active, dtype=bool)
        pstates = pstates[0] if pstates else [0] * len(seeds)
        fleet.set_lane_pstates(pstates)
        for lane, n in enumerate(threads):
            fleet.set_lane_threads(lane, n)
        joules = fleet.run_ticks(n_ticks, active)
        for lane in np.flatnonzero(active):
            servers[lane].set_all_pstates(int(pstates[lane]))
            servers[lane].threads = plans[lane][: threads[lane]]
            assert servers[lane].run_ticks(n_ticks) == joules[lane], (
                f"batch {i} lane {lane}"
            )
        assert (joules[~active] == 0.0).all()
    for lane, server in enumerate(servers):
        view = fleet.lane(lane)
        _assert_lane_matches_server(view, server)
        if server.sampler.n_samples:
            want, got = server.sampler.finish(), view.sampler.finish()
            assert np.array_equal(got.timestamps, want.timestamps)
            assert np.array_equal(got.durations, want.durations)
            for event in want.events:
                assert np.array_equal(
                    got.per_cpu(event), want.per_cpu(event)
                ), f"lane {lane} {event}"
    return fleet


class TestLiveThreadPrefix:
    """The kernel computes only thread rows that can run on some active
    lane before the batch ends; every lane must still match Server."""

    def test_thread_starting_inside_a_batch(self):
        """Thread 1 starts at 0.255 s, inside the batch whose ticks run
        0.21..0.30 s, and thread 2 at 0.5 s, a batch boundary; a prefix
        taken at a batch's first tick would drop their first ticks."""
        spec = _spec(
            _plan(0.0, (0.3, 0.2, 0.25)),
            _plan(0.255, (0.15, 0.35, 0.2)),
            _plan(0.5, (0.2, 0.2, 0.3)),
            _plan(50.0, (0.2, 0.2, 0.3)),
        )
        _check_against_servers(
            spec, [SEED, SEED + 1, SEED + 2], [(10, [True] * 3, [4] * 3)] * 15
        )

    def test_non_looping_plans_finish_mid_batch(self):
        """``loop=False`` plans run out mid-batch (the has_nonloop path);
        once the last thread has finished, later batches skip its row."""
        spec = _spec(
            _plan(0.0, (0.2, 0.15, 0.1, 0.25)),
            _plan(0.02, (0.05, 0.08), loop=False),
            _plan(0.0, (0.12, 0.1, 0.15), loop=False),
        )
        fleet = _check_against_servers(
            spec, [SEED, SEED + 1, SEED + 2], [(10, [True] * 3, [3] * 3)] * 12
        )
        assert fleet._finished[1:].all() and not fleet._finished[0].any()

    def test_highest_thread_enabled_only_on_frozen_lanes(self):
        """Threads 2-3 are enabled only on lane 2, which is frozen, so
        the prefix stops at thread 2 until lane 2 runs again."""
        spec = _spec(*(_plan(0.0, (0.2, 0.15, 0.3)) for _ in range(4)))
        frozen_top = (10, [True, True, False], [2, 1, 4])
        all_on = (10, [True, True, True], [2, 1, 4])
        swapped = (10, [False, True, True], [4, 1, 3])
        _check_against_servers(
            spec,
            [SEED, SEED + 1, SEED + 2],
            [frozen_top] * 4 + [all_on] * 3 + [swapped] * 3 + [frozen_top] * 3,
        )

    def test_batch_where_no_thread_can_run(self):
        """A batch with every thread disabled on every lane runs the
        idle machine and leaves all thread state untouched."""
        spec = _spec(
            _plan(0.0, (0.2, 0.15, 0.3)),
            _plan(0.1, (0.25, 0.1, 0.2)),
        )
        _check_against_servers(
            spec,
            [SEED, SEED + 1],
            [(10, [True, True], [2, 2])] * 4
            + [(10, [True, True], [0, 0])] * 3
            + [(10, [True, False], [0, 0])]
            + [(10, [True, True], [2, 1])] * 4,
        )


#: A fast config whose sampler closes a window every 5 ticks, so short
#: batches exercise window closes (and their per-lane generators).
_FAST_SAMPLING = dataclasses.replace(
    fast_config(),
    measurement=dataclasses.replace(
        fast_config().measurement, sample_period_s=0.05
    ),
)

#: The live-thread-prefix plans: staggered starts (one inside a batch,
#: one far past the test's end) and non-looping plans that run out.
_STAGGERED = _spec(
    _plan(0.0, (0.3, 0.2, 0.25)),
    _plan(0.255, (0.15, 0.35, 0.2)),
    _plan(0.5, (0.2, 0.2, 0.3)),
    _plan(50.0, (0.2, 0.2, 0.3)),
)
_NON_LOOPING = _spec(
    _plan(0.0, (0.2, 0.15, 0.1, 0.25)),
    _plan(0.02, (0.05, 0.08), loop=False),
    _plan(0.0, (0.12, 0.1, 0.15), loop=False),
)
#: Phases shorter than one 10 ms tick and loops that wrap every few
#: ticks, so the kernel's cached schedule goes stale inside most
#: batches (a pair can skip a whole phase between two ticks).
_SHORT_PHASES = _spec(
    _plan(0.0, (0.004, 0.03, 0.02)),
    _plan(0.013, (0.025, 0.006, 0.011)),
    _plan(0.0, (0.007, 0.045, 0.003), loop=False),
)


def _per_lane(width, high):
    return st.lists(st.integers(0, high), min_size=width, max_size=width)


@st.composite
def _active_masks(draw, width):
    """All lanes, exactly one lane, or any subset (even none)."""
    kind = draw(st.sampled_from(("all", "one", "any")))
    if kind == "all":
        return [True] * width
    if kind == "one":
        lane = draw(st.integers(0, width - 1))
        return [lane == i for i in range(width)]
    return draw(st.lists(st.booleans(), min_size=width, max_size=width))


class TestLaneGathering:
    """A batch with a frozen lane runs on the active lanes' columns only
    and scatters them back; frozen lanes are never touched."""

    # No "explain" phase: after a failure it line-traces the kernel,
    # which takes minutes and over a gigabyte for one example.
    @settings(
        max_examples=40,
        deadline=None,
        phases=[p for p in SearchPhase if p is not SearchPhase.explain],
    )
    @given(data=st.data())
    def test_random_masks_and_pstates_match_servers(self, data):
        """Each lane equals a Server stepped only on its active batches,
        at that batch's P-state and thread count, sampler on."""
        spec = data.draw(
            st.sampled_from((_STAGGERED, _NON_LOOPING, _SHORT_PHASES))
        )
        width = data.draw(st.integers(2, 6), label="width")
        n_states = len(_FAST_SAMPLING.cpu.dvfs_states)
        batches = data.draw(
            st.lists(
                st.tuples(
                    st.integers(1, 15),
                    _active_masks(width),
                    _per_lane(width, spec.n_threads),
                    _per_lane(width, n_states - 1),
                ),
                min_size=3,
                max_size=8,
            ),
            label="batches",
        )
        seed = data.draw(st.integers(0, 10_000), label="seed")
        _check_against_servers(
            spec, [seed + i for i in range(width)], batches, _FAST_SAMPLING
        )

    def test_monitor_on_frozen_lanes_matches_fleet_of_active_lanes(
        self, paper_suite
    ):
        """A FleetMonitor on a fleet whose odd lanes stay frozen records
        what one on a fleet of only the even lanes' seeds records: the
        same per-window true watts (energy deltas read inside the pulse)
        and the same final drift and board state."""
        from repro.obs.fleet import FleetMonitor

        config = fast_config()
        workload = get_workload("SPECjbb")
        seeds = [SEED + 3 * i for i in range(6)]
        frozen = FleetServer(config, workload, seeds)
        alone = FleetServer(config, workload, seeds[::2])
        # Both monitors flush once every running lane has a window.
        watching = FleetMonitor(paper_suite, history=64, flush_lanes=3)
        reference = FleetMonitor(paper_suite, history=64)
        frozen.attach_fleet_monitor(watching)
        alone.attach_fleet_monitor(reference)
        even = np.arange(6) % 2 == 0
        for _ in range(5):
            joules = frozen.run_ticks(100, even)
            assert np.array_equal(joules[even], alone.run_ticks(100))
        watching.flush()
        reference.flush()
        assert reference.n_windows >= 12
        assert watching.n_windows == reference.n_windows
        for j, lane in enumerate(range(0, 6, 2)):
            assert watching.board.lane_history(lane) == (
                reference.board.lane_history(j)
            )
            assert watching.drift.lane_state(lane) == (
                reference.drift.lane_state(j)
            )
            assert frozen.lane(lane + 1).now_s == 0.0
            assert frozen.lane(lane + 1).sampler.n_samples == 0
        assert np.array_equal(
            watching.board.true_total_w[even], reference.board.true_total_w
        )
        assert np.isnan(watching.board.true_total_w[~even]).all()


class TestScheduleCache:
    """The kernel recomputes what the schedule fixes (phase, placement
    and their products) only on a batch's first tick and on ticks where
    a pair starts, finishes or changes phase."""

    def test_every_trigger_inside_one_batch_matches_servers(self):
        """One 100-tick batch (0.01..1.0 s) with every trigger: thread 0
        crosses phase boundaries, enters its sync phase at 0.35 s, wraps
        at 0.45 s and re-enters the sync phase at 0.8 s; thread 1 starts
        at 0.305 s; thread 2's non-looping plan runs out at 0.45 s.
        The sampler is on, so windows close inside the batch too.  A
        second batch repeats the triggers with lane 1 frozen."""
        spec = _spec(
            _plan(0.0, (0.2, 0.15, 0.1)),
            _plan(0.305, (0.1, 0.2, 0.15)),
            _plan(0.0, (0.2, 0.25), loop=False),
        )
        fleet = _check_against_servers(
            spec,
            [SEED, SEED + 1, SEED + 2],
            [(100, [True] * 3, [3] * 3), (100, [True, False, True], [3] * 3)],
            _FAST_SAMPLING,
        )
        assert fleet._finished[2].all() and not fleet._finished[:2].any()
        assert (fleet._affinity[:2] >= 0).all()

    def test_recomputes_once_per_batch_and_per_phase_change(self, monkeypatch):
        """An all-active gcc fleet (one live thread until 30 s) computes
        its schedule once per batch while nothing changes, and once more
        in the batch where thread 0 crosses from parse into optimize at
        22 s.  Bit-identity alone would pass if every tick recomputed."""
        calls = []
        real = fleet_module._schedule_terms

        def counted(fleet, *args):
            calls.append(float(fleet._now[0]))
            return real(fleet, *args)

        monkeypatch.setattr(fleet_module, "_schedule_terms", counted)
        fleet = FleetServer(fast_config(), get_workload("gcc"), [SEED, SEED + 1])
        fleet.run_ticks(100)
        assert len(calls) == 1
        fleet.run_ticks(100)
        assert len(calls) == 2
        fleet.run_ticks(1950)
        assert len(calls) == 3
        assert (fleet._last_name_id[0] == 0).all()
        fleet.run_ticks(100)
        assert len(calls) == 5
        assert 21.95 < calls[-1] < 22.05
        assert (fleet._last_name_id[0] == 1).all()


class TestDiskService:
    def test_queue_rounded_below_zero_is_not_served(self):
        """One thread's fault reads drain the random-read queue to a hair
        below zero (``q - (q / thr) * thr``), then the lane's threads
        drop to zero and nothing refills it.  The scalar disk serves
        only queues above zero, so the fleet must not serve the
        negative residue either (the sampled window's disk, DMA and
        I/O counts would differ by an ulp)."""
        fleet = _check_against_servers(
            _STAGGERED,
            [5],
            [
                (1, [True], [0], [0]),
                (5, [True], [1], [0]),
                (4, [True], [0], [0]),
            ],
            _FAST_SAMPLING,
        )
        assert fleet._q_rand_read[0] < 0.0


def _where_loop_partials(contrib, affinity, running, n_pkg):
    """The per-thread ``np.where`` accumulation the kernel used before
    ``_package_partials`` (the oracle)."""
    n_q, n_thr, width = contrib.shape
    onehot3 = (affinity[None] == np.arange(n_pkg)[:, None, None]) & running[None]
    acc = np.zeros((n_q, n_pkg, width))
    with np.errstate(over="ignore"):
        for k in range(n_thr):
            acc += np.where(onehot3[None, :, k, :], contrib[:, k, None, :], 0.0)
    return acc


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308)


class TestPackagePartials:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bincount_matches_where_loop_bit_for_bit(self, data):
        n_q = data.draw(st.integers(1, 4), label="n_q")
        n_thr = data.draw(st.integers(1, 10), label="n_thr")
        width = data.draw(st.integers(1, 6), label="width")
        # With up to 10 threads on 1-4 packages, packages often hold
        # more threads than the machine's 2 SMT contexts.
        n_pkg = data.draw(st.integers(1, 4), label="n_pkg")
        affinity = data.draw(
            arrays(np.int64, (n_thr, width), elements=st.integers(-1, n_pkg - 1)),
            label="affinity",
        )
        running = data.draw(arrays(bool, (n_thr, width)), label="running")
        values = st.one_of(
            st.sampled_from(_EDGE_FLOATS),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        contrib = data.draw(
            arrays(np.float64, (n_q, n_thr, width), elements=values),
            label="contrib",
        )
        got = _package_partials(contrib, affinity, running, n_pkg)
        want = _where_loop_partials(contrib, affinity, running, n_pkg)
        assert got.shape == want.shape
        assert np.array_equal(
            np.ascontiguousarray(got).view(np.int64), want.view(np.int64)
        )

    def test_crowded_package_sums_in_thread_order(self):
        """Five running threads on one package: the sum is taken in
        thread order, so 1e308 + 1e308 overflows before -1e308 lands,
        and -0.0 contributions sum to +0.0 as the scalar accumulator
        does."""
        contrib = np.array([[[1e308], [1e308], [-1e308], [5e-324], [-0.0]]])
        contrib = np.concatenate([contrib, np.full((1, 5, 1), -0.0)])
        affinity = np.zeros((5, 1), dtype=np.int64)
        running = np.ones((5, 1), dtype=bool)
        got = _package_partials(contrib, affinity, running, 2)
        want = _where_loop_partials(contrib, affinity, running, 2)
        assert got[0, 0, 0] == np.inf
        assert got[1, 0, 0] == 0.0 and not np.signbit(got[1, 0, 0])
        assert np.array_equal(
            np.ascontiguousarray(got).view(np.int64), want.view(np.int64)
        )


def _package_loop(rows):
    """The ``for p in range(n_pkg)`` folds the kernel used before
    ``_fold_packages`` (the oracle)."""
    out = []
    for row in rows:
        acc = np.zeros(row.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):
            for p in range(row.shape[0]):
                acc += row[p]
        out.append(acc)
    return np.stack(out)


class TestFoldPackages:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_reduce_matches_package_loop_bit_for_bit(self, data):
        n_rows = data.draw(st.integers(2, 8), label="n_rows")
        n_pkg = data.draw(st.integers(1, 12), label="n_pkg")
        width = data.draw(st.integers(1, 4), label="width")
        values = st.one_of(
            st.sampled_from(_EDGE_FLOATS),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        rows = [
            data.draw(arrays(np.float64, (n_pkg, width), elements=values))
            for _ in range(n_rows)
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            got = _fold_packages(*rows)
        want = _package_loop(rows)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_one_lane_many_packages_sums_in_package_order(self):
        """One lane, 16 packages: adding the tiny terms one by one to 1.0
        loses each of them, while a pairwise sum would keep their total.
        All -0.0 terms fold to +0.0, as the scalar accumulators do."""
        tiny = np.array([[1.0]] + [[1e-16]] * 15)
        zeros = np.full((16, 1), -0.0)
        got = _fold_packages(tiny, zeros)
        assert got[0, 0] == 1.0
        assert got[1, 0] == 0.0 and not np.signbit(got[1, 0])
        want = _package_loop([tiny, zeros])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

"""Fleet/scalar equivalence: the SoA core against the reference Server.

The vectorized :class:`FleetServer` claims lane ``i`` reproduces
``Server(config, workload, seeds[i])`` exactly for counters and energy
(elementwise ufuncs are element-independent; order-sensitive reductions
stay sequential per lane), with one tolerance-bounded exception: the
DAQ's sinusoidal gain drift uses ``np.sin`` where the scalar path uses
``math.sin``.  These tests pin both halves of that contract, plus the
integrations that ride on it: cluster lanes (frozen lanes, per-lane
P-states, thread control), replayed on scalar servers, and sweep
lane-grouping.
"""

import numpy as np
import pytest

from repro.cluster import Cluster, PowerAwareManager, StaticManager, diurnal_demand
from repro.core.events import Subsystem
from repro.exec import SweepSpec, sweep_specs
from repro.simulator.config import fast_config
from repro.simulator.fleet import FleetServer, simulate_fleet
from repro.simulator.system import Server, simulate_workload
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
    lane through the fleet's ``Server``-shaped view.
    """

    def __init__(self, lane=0):
        self.lane = lane
        self.pulses = []

    def on_window(self, server, pulse_s):
        self.pulses.append(
            (pulse_s, server.sampler.n_samples, sum(server.energy._energy_j.values()))
        )

    def on_pulse(self, fleet, lanes, now_s):
        if self.lane in lanes:
            self.on_window(fleet.lane(self.lane), now_s)


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
        cluster.run(demand, PowerAwareManager(headroom_threads=4), observer=observer)
        replay(schedule)
        assert schedule.n_reads >= 1
        assert schedule.frozen_lane_seconds >= 1
        assert observer.last is not None


class TestSweepFleetGrouping:
    def test_grouped_lanes_match_per_spec_path(self):
        specs = [
            SweepSpec(
                workload="gcc", seed=s, duration_s=20.0, config=fast_config()
            )
            for s in (3, 4, 5)
        ]
        # A singleton group: must fall through to the per-spec path.
        specs.append(
            SweepSpec(workload="idle", seed=3, duration_s=20.0, config=fast_config())
        )
        grouped = sweep_specs(specs, n_workers=1)
        # A one-spec sweep is a singleton group: the per-spec path.
        reference = [sweep_specs([spec], n_workers=1).runs[0] for spec in specs]
        assert len(grouped.runs) == len(reference)
        for fleet_run, scalar_run in zip(grouped.runs, reference):
            assert fleet_run.workload == scalar_run.workload
            assert fleet_run.seed == scalar_run.seed
            assert fleet_run.metadata == scalar_run.metadata
            for event in scalar_run.counters.events:
                assert np.array_equal(
                    fleet_run.counters.per_cpu(event),
                    scalar_run.counters.per_cpu(event),
                )
            for subsystem in scalar_run.power.subsystems:
                assert np.allclose(
                    fleet_run.power.power(subsystem),
                    scalar_run.power.power(subsystem),
                    rtol=DAQ_RTOL,
                    atol=DAQ_ATOL,
                )

    def test_warmup_windows_applied_in_fleet_path(self):
        full = sweep_specs(
            [SweepSpec(workload="gcc", seed=3, duration_s=20.0, config=fast_config())],
            n_workers=1,
        )
        trimmed = sweep_specs(
            [
                SweepSpec(
                    workload="gcc",
                    seed=s,
                    duration_s=20.0,
                    config=fast_config(),
                    warmup_windows=3,
                )
                for s in (3, 4)
            ],
            n_workers=1,
        )
        assert all(
            run.n_samples == full.runs[0].n_samples - 3 for run in trimmed.runs
        )

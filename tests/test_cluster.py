"""Tests for the ensemble power-management extension (repro/cluster.py)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import (
    BOOT_TIME_S,
    BOOT_POWER_W,
    Cluster,
    FleetNodeHandle,
    NAP_EXIT_POWER_W,
    NAP_EXIT_TIME_S,
    NAP_POWER_W,
    PowerAwareManager,
    STANDBY_POWER_W,
    StaticManager,
    diurnal_demand,
)
from repro.simulator.config import fast_config
from tests.conftest import TEST_SEED
from tests.replay import record, replay


@pytest.fixture()
def cluster():
    return Cluster(n_nodes=1, seed=TEST_SEED)


@pytest.fixture()
def node(cluster):
    return cluster.nodes[0]


def _tick(cluster) -> float:
    """Advance one simulated second; the node's power (Watts)."""
    return cluster._step_second()[0]


class TestClusterNode:
    """The per-node state machine, on a one-node cluster."""

    def test_powered_idle_node_draws_server_idle_power(self, cluster, node):
        node.set_load(0)
        power = _tick(cluster)
        assert 130.0 < power < 150.0  # the simulated server's idle

    def test_load_raises_power(self, cluster, node):
        node.set_load(0)
        idle = _tick(cluster)
        node.set_load(node.capacity)
        for _ in range(5):
            loaded = _tick(cluster)
        assert loaded > idle + 20.0

    def test_power_down_draws_standby(self, cluster, node):
        node.set_load(0)
        node.power_down()
        assert _tick(cluster) == STANDBY_POWER_W
        assert not node.available

    def test_boot_sequence(self, cluster, node):
        node.set_load(0)
        node.power_down()
        node.power_up()
        assert node.booting and not node.available
        for _ in range(int(BOOT_TIME_S)):
            assert _tick(cluster) == BOOT_POWER_W
        assert node.available

    def test_power_up_when_already_on_is_noop(self, node):
        node.set_load(0)
        node.power_up()
        assert not node.booting  # no spurious boot cycle

    def test_cannot_power_down_loaded_node(self, node):
        node.set_load(2)
        with pytest.raises(ValueError, match="still serves"):
            node.power_down()

    def test_cannot_load_unavailable_node(self, node):
        node.set_load(0)
        node.power_down()
        with pytest.raises(ValueError, match="cannot serve"):
            node.set_load(1)

    def test_load_bounds(self, node):
        with pytest.raises(ValueError):
            node.set_load(-1)
        with pytest.raises(ValueError):
            node.set_load(node.capacity + 1)

    def test_nap_draws_nap_power_and_wakes_quickly(self, cluster, node):
        node.set_load(0)
        node.nap()
        assert node.napping and not node.available
        assert _tick(cluster) == NAP_POWER_W
        node.wake()
        assert node.waking and not node.available
        for _ in range(int(NAP_EXIT_TIME_S)):
            assert _tick(cluster) == NAP_EXIT_POWER_W
        assert node.available

    def test_power_up_wakes_a_napping_node(self, node):
        node.set_load(0)
        node.nap()
        node.power_up()
        assert not node.napping and node.waking

    def test_cannot_nap_loaded_or_unavailable_node(self, node):
        node.set_load(2)
        with pytest.raises(ValueError, match="still serves"):
            node.nap()
        node.set_load(0)
        node.power_down()
        with pytest.raises(ValueError, match="cannot nap"):
            node.nap()

    def test_power_down_from_nap(self, cluster, node):
        node.set_load(0)
        node.nap()
        node.power_down()
        assert not node.powered and not node.napping
        assert _tick(cluster) == STANDBY_POWER_W

    def test_set_pstate_validates_and_applies(self, cluster, node):
        node.set_pstate(2)
        assert node.pstate == 2
        node.set_load(0)
        _tick(cluster)
        assert cluster._fleet.lane_pstates()[0] == 2
        with pytest.raises(ValueError, match="out of range"):
            node.set_pstate(99)


class TestManagers:
    def run_short(self, manager, demand=None):
        cluster = Cluster(n_nodes=3, seed=TEST_SEED)
        demand = demand or diurnal_demand(
            90, peak_threads=14, trough_threads=2, period_s=90.0, seed=5
        )
        return cluster.run(demand, manager), demand

    def test_static_serves_all_demand(self):
        trace, demand = self.run_short(StaticManager())
        assert trace.dropped_thread_seconds == 0
        assert all(on == 3 for on in trace.nodes_on)

    def test_power_aware_saves_energy(self):
        static, demand = self.run_short(StaticManager())
        aware, _ = self.run_short(PowerAwareManager(headroom_threads=6), demand)
        assert aware.energy_j < static.energy_j * 0.95
        assert min(aware.nodes_on) < 3  # it actually powered nodes down

    def test_power_aware_serves_most_demand(self):
        aware, demand = self.run_short(PowerAwareManager(headroom_threads=8))
        total_demand = sum(demand)
        assert aware.dropped_thread_seconds < total_demand * 0.05

    def test_more_headroom_fewer_drops(self):
        tight, demand = self.run_short(PowerAwareManager(headroom_threads=0))
        roomy, _ = self.run_short(PowerAwareManager(headroom_threads=10), demand)
        assert roomy.dropped_thread_seconds <= tight.dropped_thread_seconds
        assert roomy.energy_j >= tight.energy_j

    def test_invalid_headroom(self):
        with pytest.raises(ValueError):
            PowerAwareManager(headroom_threads=-1)

    def test_demand_blip_cancels_boot_immediately(self):
        """Regression: a booting surplus node must be killed, not left
        burning BOOT_POWER_W for the rest of its boot."""
        cluster = Cluster(n_nodes=2, seed=TEST_SEED, boot_time_s=10.0)
        manager = PowerAwareManager(headroom_threads=0)
        # 1-thread demand, a one-second blip to full capacity, then
        # back down: node 1 starts booting on the blip and must be
        # powered down on the very next placement.
        demand = [1, 1, 16, 1, 1, 1]
        trace = cluster.run(demand, manager)
        boost_seconds = sum(
            1 for w in trace.node_power_w[1] if w == BOOT_POWER_W
        )
        assert boost_seconds <= 1  # pre-fix: the full 10 s boot
        assert trace.node_power_w[1][-1] == STANDBY_POWER_W
        assert not cluster.nodes[1].powered

    def test_mixed_capacity_sizing(self, monkeypatch):
        """Regression: node count must come from actual capacities,
        not ``nodes[0].capacity`` assumed homogeneous."""
        nodes = _fake_nodes([2, 8, 8])
        calls: "dict[int, list[int]]" = {}
        orig = _FakeNode.set_load

        def spy(self, n_threads):
            calls.setdefault(self.node_id, []).append(n_threads)
            orig(self, n_threads)

        monkeypatch.setattr(_FakeNode, "set_load", spy)
        PowerAwareManager(headroom_threads=0).place(nodes, 9)
        # 2 + 8 >= 9: two nodes suffice; pre-fix ceil(9/2)=5 kept all 3.
        assert [n.powered for n in nodes] == [True, True, False]
        assert [n.assigned_threads for n in nodes] == [2, 7, 0]
        # Every load change went through the set_load state machine.
        for node in nodes:
            assert calls[node.node_id][-1] == node.assigned_threads

    def test_static_manager_routes_loads_through_set_load(self, monkeypatch):
        nodes = _fake_nodes([4, 4])
        calls: "dict[int, list[int]]" = {}
        orig = _FakeNode.set_load

        def spy(self, n_threads):
            calls.setdefault(self.node_id, []).append(n_threads)
            orig(self, n_threads)

        monkeypatch.setattr(_FakeNode, "set_load", spy)
        StaticManager().place(nodes, 5)
        assert [n.assigned_threads for n in nodes] == [3, 2]
        for node in nodes:
            assert calls[node.node_id][-1] == node.assigned_threads

    def test_spills_to_surplus_while_prefix_boots(self):
        nodes = _fake_nodes([8, 8])
        manager = PowerAwareManager(headroom_threads=0)
        nodes[0].power_down()
        nodes[0].power_up()  # booting for 5 s
        manager.place(nodes, 6)
        # Node 0 cannot serve yet; the surplus node keeps the demand
        # instead of dropping it while node 0 boots.
        assert nodes[0].assigned_threads == 0
        assert nodes[1].assigned_threads == 6
        assert nodes[1].powered


class _FakeNode(FleetNodeHandle):
    """Capacity-parameterized node over a stand-in fleet (no simulator)."""

    def __init__(self, node_id: int, capacity: int, boot_time_s: float = 0.0):
        fleet = SimpleNamespace(
            config=fast_config(), workload=SimpleNamespace(n_threads=capacity)
        )
        super().__init__(node_id, fleet, boot_time_s)


def _fake_nodes(capacities):
    return [
        _FakeNode(i, c, boot_time_s=5.0 if i == 0 else 0.0)
        for i, c in enumerate(capacities)
    ]


class TestDemandGenerator:
    def test_range_and_length(self):
        demand = diurnal_demand(120, peak_threads=16, trough_threads=4)
        assert len(demand) == 120
        assert min(demand) >= 0
        assert max(demand) <= 16 + 8  # noise can exceed peak a little

    def test_deterministic(self):
        a = diurnal_demand(60, 10, 2, seed=9)
        b = diurnal_demand(60, 10, 2, seed=9)
        assert a == b

    def test_shape_has_trough_and_peak(self):
        demand = diurnal_demand(
            200, peak_threads=20, trough_threads=2, period_s=200.0, noise=0.0
        )
        assert demand[0] <= 4
        assert max(demand[80:120]) >= 18

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            diurnal_demand(10, peak_threads=2, trough_threads=5)

    def test_trough_equals_peak_is_flat(self):
        demand = diurnal_demand(30, 10, 10, noise=0.0)
        assert demand == [10] * 30

    def test_zero_noise_matches_closed_form(self):
        period = 60.0
        demand = diurnal_demand(
            60, 12, 4, period_s=period, noise=0.0, seed=1
        )
        t = np.arange(60)
        base = 8.0 - 4.0 * np.cos(2.0 * np.pi * t / period)
        assert demand == [int(round(v)) for v in base]
        assert demand == diurnal_demand(
            60, 12, 4, period_s=period, noise=0.0, seed=2
        )  # seed is irrelevant without noise

    def test_noise_clipped_at_zero(self):
        demand = diurnal_demand(300, 2, 0, noise=5.0, seed=11)
        assert min(demand) == 0  # huge noise would go negative unclipped
        assert all(v >= 0 for v in demand)


class TestCluster:
    def test_capacity(self):
        cluster = Cluster(n_nodes=2, seed=TEST_SEED)
        assert cluster.capacity == 16

    def test_offered_demand_recorded_above_capacity(self):
        """Regression: the trace keeps *offered* demand; only placement
        is clamped, so flash-crowd drops are counted, not hidden."""
        cluster = Cluster(n_nodes=1, seed=TEST_SEED)
        trace = cluster.run([99, 99], StaticManager())
        assert trace.demand == [99, 99]
        assert max(trace.served) <= cluster.capacity
        assert trace.dropped_thread_seconds == 2 * (99 - cluster.capacity)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Cluster(n_nodes=0)


class _ScriptedManager:
    """Deterministic DVFS + nap + load schedule for the replay oracle."""

    def __init__(self):
        self.t = 0

    def place(self, nodes, demand):
        t = self.t
        self.t += 1
        n0, n1, n2 = nodes
        for node in nodes:
            node.power_up()
        if t == 3:
            n2.set_load(0)
            n2.nap()
        if t == 6:
            n2.wake()
        for node in nodes:
            if node.available:
                node.set_load(0)
        n0.set_pstate(min(t // 2, 3))
        n1.set_pstate(3 - min(t // 3, 3))
        loads = [5, 3, 2]
        remaining = demand
        for node, want in zip(nodes, loads):
            if node.available:
                take = min(want, remaining)
                node.set_load(take)
                remaining -= take


class TestEngineEquality:
    def test_fleet_matches_scalar_under_dvfs_and_nap(self):
        """Per-lane DVFS shifts, naps and frozen lanes: the fleet
        cluster replays bit for bit on one scalar Server per node.  The
        floors keep the case honest, so a script change that stops
        freezing lanes or shifting P-states fails here instead of
        quietly shrinking what the replay checks."""
        cluster = Cluster(n_nodes=3, seed=TEST_SEED)
        schedule = record(cluster)
        cluster.run([8, 9, 10, 7, 6, 8, 9, 10, 10, 9], _ScriptedManager())
        replay(schedule)
        assert schedule.frozen_lane_seconds >= 1
        assert len(schedule.pstates_run) >= 2

"""Datacenter-scale energy-proportional power management tests."""

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cluster import NAP_POWER_W, STANDBY_POWER_W, FleetNodeHandle
from repro.dc import (
    BudgetAllocator,
    Datacenter,
    FlashCrowd,
    NodePowerTable,
    PolicyConfig,
    SubsystemManager,
    TrafficModel,
    ZoneOutage,
    ZoneSpec,
    energy_proportionality,
    policy_regret,
    run_scenario,
    scenario_objective,
    train_zone_bank,
)
from repro.obs.tsdb import TSDB
from repro.simulator.config import fast_config
from repro.simulator.fleet import FleetServer
from tests.replay import Step, record, replay


@pytest.fixture(scope="module")
def calibration(config):
    return train_zone_bank(config, duration_s=8.0, seed=901)


# -- traffic -----------------------------------------------------------


def _zones():
    return (
        ZoneSpec("a", 4, 1.0e6),
        ZoneSpec("b", 4, 5.0e5, phase_s=60.0),
    )


class TestTraffic:
    def test_deterministic(self):
        kwargs = dict(zones=_zones(), period_s=120.0, seed=5)
        one = TrafficModel(**kwargs).demand(90)
        two = TrafficModel(**kwargs).demand(90)
        for zone in one:
            assert np.array_equal(one[zone], two[zone])

    def test_diurnal_trough_and_peak(self):
        model = TrafficModel(
            zones=(ZoneSpec("a", 4, 1.0e6),),
            period_s=100.0,
            trough_fraction=0.4,
            noise=0.0,
        )
        demand = model.demand(100)["a"]
        # Wave starts at the trough and peaks half a period in.
        assert demand[0] == round(0.4 * 1.0e6 / 25_000.0)
        assert demand[50] == round(1.0e6 / 25_000.0)

    def test_flash_crowd_multiplies_only_its_zone_and_window(self):
        base = TrafficModel(zones=_zones(), period_s=1.0e9, noise=0.0)
        crowd = TrafficModel(
            zones=_zones(),
            period_s=1.0e9,
            noise=0.0,
            flash_crowds=(
                FlashCrowd(30.0, 20.0, magnitude=2.0, zone="a", ramp_s=5.0),
            ),
        )
        quiet = base.demand(80)
        spiky = crowd.demand(80)
        assert np.array_equal(quiet["b"], spiky["b"])
        assert np.array_equal(quiet["a"][:30], spiky["a"][:30])
        # Plateau (after the 5 s ramp) doubles the demand.
        assert np.all(
            spiky["a"][36:44] > 1.9 * np.maximum(quiet["a"][36:44], 1)
        )
        assert np.array_equal(quiet["a"][55:], spiky["a"][55:])

    def test_failover_conserves_users(self):
        kwargs = dict(zones=_zones(), period_s=120.0, noise=0.0)
        normal = TrafficModel(**kwargs).demand(60)
        failed = TrafficModel(
            outages=(ZoneOutage("b", 20.0, 20.0),), **kwargs
        ).demand(60)
        assert np.all(failed["b"][20:40] == 0)
        total_normal = sum(normal.values())
        total_failed = sum(failed.values())
        # The dark zone's users land on the survivor; totals match up
        # to per-zone rounding.
        assert np.abs(total_failed - total_normal).max() <= len(_zones())
        assert np.array_equal(normal["b"][:20], failed["b"][:20])

    def test_validation(self):
        with pytest.raises(ValueError, match="unique"):
            TrafficModel(zones=(ZoneSpec("a", 1, 1.0), ZoneSpec("a", 1, 1.0)))
        with pytest.raises(ValueError, match="unknown zone"):
            TrafficModel(
                zones=(ZoneSpec("a", 1, 1.0),),
                outages=(ZoneOutage("nope", 0.0, 5.0),),
            )
        with pytest.raises(ValueError, match="unknown zone"):
            TrafficModel(
                zones=(ZoneSpec("a", 1, 1.0),),
                flash_crowds=(FlashCrowd(0.0, 5.0, zone="nope"),),
            )
        with pytest.raises(ValueError, match="positive population"):
            ZoneSpec("a", 1, 0.0)


# -- scoring -----------------------------------------------------------


class TestScoring:
    def test_perfectly_proportional_scores_one(self):
        u = np.linspace(0.0, 1.0, 50)
        metrics = energy_proportionality(u * 400.0, u, peak_power_w=400.0)
        assert metrics["ep_score"] == pytest.approx(1.0)
        assert metrics["proportionality_gap"] == pytest.approx(0.0)
        assert metrics["dynamic_range"] == pytest.approx(1.0)

    def test_flat_power_scores_low(self):
        u = np.linspace(0.0, 1.0, 50)
        power = np.full(50, 400.0)
        metrics = energy_proportionality(power, u, peak_power_w=400.0)
        assert metrics["dynamic_range"] == 0.0
        assert metrics["ep_score"] == pytest.approx(0.5, abs=0.02)
        assert metrics["proportionality_gap"] == pytest.approx(0.5, abs=0.02)

    def test_objective_and_regret(self):
        assert scenario_objective(1000.0, 10.0, drop_penalty_j=50.0) == 1500.0
        regret = policy_regret(1500.0, 1200.0)
        assert regret["regret_j"] == pytest.approx(300.0)
        assert regret["regret_pct"] == pytest.approx(25.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            energy_proportionality([1.0, 2.0], [0.5])
        with pytest.raises(ValueError, match="peak"):
            energy_proportionality([0.0, 0.0], [0.0, 0.0], peak_power_w=-1.0)


# -- budget allocation -------------------------------------------------


class TestBudgetAllocator:
    def test_requests_under_cap_get_headroom(self):
        allocator = BudgetAllocator(1000.0)
        budgets = allocator.allocate({"a": 300.0, "b": 100.0})
        assert sum(budgets.values()) == pytest.approx(1000.0)
        assert budgets["a"] >= 300.0 and budgets["b"] >= 100.0
        # Leftover splits proportionally to the requests.
        assert budgets["a"] == pytest.approx(300.0 + 600.0 * 0.75)

    def test_requests_over_cap_scale_down(self):
        allocator = BudgetAllocator(1000.0)
        budgets = allocator.allocate({"a": 1500.0, "b": 500.0})
        assert sum(budgets.values()) == pytest.approx(1000.0)
        assert budgets["a"] == pytest.approx(750.0)
        assert budgets["b"] == pytest.approx(250.0)

    def test_redistribution_counted_on_shift(self):
        allocator = BudgetAllocator(1000.0)
        allocator.allocate({"a": 400.0, "b": 400.0})
        assert allocator.redistributions == 0
        allocator.allocate({"a": 800.0, "b": 0.0})  # failover-like shift
        assert allocator.redistributions == 1


# -- subsystem manager (unit, fake nodes) ------------------------------


def _fake_nodes(n_nodes, capacity=8):
    """The real node state machine over a stand-in fleet (no simulator)."""
    fleet = SimpleNamespace(
        config=fast_config(), workload=SimpleNamespace(n_threads=capacity)
    )
    return [FleetNodeHandle(i, fleet, 0.0) for i in range(n_nodes)]


_TABLE = NodePowerTable(
    peak_w=(230.0, 190.0, 165.0, 145.0), eff_capacity=(8, 6, 4, 3)
)


class TestSubsystemManager:
    def test_consolidates_naps_and_deepens_partial_node(self):
        nodes = _fake_nodes(6)
        manager = SubsystemManager("z", _TABLE)
        stats = manager.place(nodes, demand=20, budget_w=10_000.0)
        loads = [node.assigned_threads for node in nodes]
        assert loads == [8, 8, 4, 0, 0, 0]
        assert stats["unserved"] == 0
        # Partial node runs at the deepest pstate covering 4 threads.
        assert nodes[2].pstate == 2
        assert nodes[0].pstate == 0
        # One warm nap, the rest powered off.
        assert nodes[3].napping
        assert not nodes[4].powered
        assert not nodes[5].powered
        assert manager.worst_case_w(nodes) <= 10_000.0

    def test_tight_budget_never_exceeded(self):
        nodes = _fake_nodes(5)
        manager = SubsystemManager("z", _TABLE)
        manager.place(nodes, demand=16, budget_w=300.0)
        assert manager.worst_case_w(nodes) <= 300.0
        served = sum(
            node.assigned_threads
            for node in nodes
            if node.available
        )
        assert 0 < served < 16  # budget forces shedding

    def test_zero_demand_keeps_one_deep_hot_node(self):
        nodes = _fake_nodes(4)
        manager = SubsystemManager("z", _TABLE)
        manager.place(nodes, demand=0, budget_w=5_000.0)
        hot = [node for node in nodes if node.available]
        assert len(hot) == 1
        assert hot[0].pstate == len(_TABLE.peak_w) - 1
        assert nodes[1].napping

    def test_boot_denied_under_budget_pressure(self):
        nodes = _fake_nodes(3)
        nodes[1].powered = False
        nodes[2].powered = False
        manager = SubsystemManager("z", _TABLE)
        # Two actives wanted (afford = 465 // 230 = 2), but the running
        # node's worst case plus a boot's overshoots the activation
        # budget — the boot is denied, the cap is never risked.
        manager.place(nodes, demand=16, budget_w=465.0)
        assert nodes[0].powered
        assert not nodes[1].powered
        assert manager.boots_denied >= 1
        assert manager.worst_case_w(nodes) <= 465.0

    def test_sensed_feedback_moves_ceiling(self):
        manager = SubsystemManager("z", _TABLE, PolicyConfig())
        manager.note_sensed(950.0, 1000.0)  # above emergency_frac
        assert manager.ceiling == 1
        manager.note_sensed(950.0, 1000.0)
        assert manager.ceiling == 2
        manager.note_sensed(100.0, 1000.0)  # below relax_frac
        assert manager.ceiling == 1

    def test_request_w_covers_demand_at_efficient_state(self):
        nodes = _fake_nodes(4)
        manager = SubsystemManager("z", _TABLE)
        request = manager.request_w(nodes, demand=12)
        # p0 is the most watt-efficient per thread on this table
        # (230/8 < 145/3): two active nodes, one nap, one standby.
        assert request == pytest.approx(
            2 * 230.0 + NAP_POWER_W + STANDBY_POWER_W
        )

    def test_request_w_respects_the_ceiling(self):
        nodes = _fake_nodes(4)
        manager = SubsystemManager("z", _TABLE)
        manager.ceiling = 3  # deepest only
        request = manager.request_w(nodes, demand=12)
        assert request == pytest.approx(4 * 145.0)

    def test_table_validation(self):
        with pytest.raises(ValueError, match="align"):
            NodePowerTable(peak_w=(200.0,), eff_capacity=(8, 6))
        with pytest.raises(ValueError, match="at least one thread"):
            NodePowerTable(peak_w=(200.0,), eff_capacity=(0,))


# -- calibration -------------------------------------------------------


class TestCalibration:
    def test_bank_and_table_cover_the_ladder(self, config, calibration):
        n_states = len(config.cpu.dvfs_states)
        assert calibration.bank.pstates == tuple(range(n_states))
        assert calibration.table.n_states == n_states
        # Slower states draw less at full load; capacities shrink.
        assert list(calibration.table.peak_w) == sorted(
            calibration.table.peak_w, reverse=True
        )
        assert calibration.table.eff_capacity == (8, 6, 4, 3)
        # The margined bound clears the raw reference peak.
        assert calibration.table.peak_w[0] > calibration.reference_peak_w


# -- the datacenter ----------------------------------------------------


def _small_traffic():
    zones = (
        ZoneSpec("east", 3, 4.2e5),
        ZoneSpec("west", 3, 3.6e5, phase_s=20.0),
    )
    return TrafficModel(
        zones,
        users_per_thread=25_000.0,
        period_s=40.0,
        flash_crowds=(
            FlashCrowd(10.0, 8.0, magnitude=1.8, zone="east", ramp_s=2.0),
        ),
        outages=(ZoneOutage("west", 24.0, 8.0),),
        seed=17,
    )


class TestDatacenter:
    def test_cap_held_and_estimates_track_truth(self, config, calibration):
        cap = 0.65 * calibration.reference_peak_w * 6
        dc = Datacenter(
            _small_traffic(),
            cap,
            config=config,
            calibration=calibration,
            seed=31,
        )
        report = dc.run(40)
        assert report.cap_violations == 0
        assert report.max_power_w <= cap
        estimated = np.asarray(report.estimated_power_w)
        true = np.asarray(report.power_w)
        assert np.isfinite(estimated).all()
        error = np.abs(estimated - true) / np.maximum(true, 1.0e-9)
        assert float(error.mean()) < 0.05
        doc = report.document()
        assert doc["energy_proportionality"]["ep_score"] > 0.5
        assert doc["served_thread_seconds"] > 0
        # /dc route serves the report.
        from repro.obs.http import ObservabilityServer

        server = ObservabilityServer(dc=dc)
        status, _, body = server.payload("/dc")
        assert status == 200
        import json

        assert (
            json.loads(body)["datacenter"]["cap_violations"] == 0
        )

    def test_dc_route_without_attachment_is_null(self):
        from repro.obs.http import ObservabilityServer

        status, _, body = ObservabilityServer().payload("/dc")
        import json

        assert status == 200
        assert json.loads(body)["datacenter"] is None

    def test_fleet_and_scalar_engines_agree(self, config, calibration):
        """The whole datacenter's fleet, under the capped policy's DVFS,
        naps and frozen lanes in every zone, replays bit for bit on one
        scalar Server per node, including every counter snapshot the
        sensor path read.  The floors keep the case honest: a change
        that stops mixing P-states within a step, freezing lanes or
        reading counters fails here instead of shrinking the check."""
        cap = 0.7 * calibration.reference_peak_w * 4
        zones = (ZoneSpec("a", 2, 2.8e5), ZoneSpec("b", 2, 2.4e5))
        traffic = TrafficModel(zones, period_s=24.0, seed=9)
        dc = Datacenter(
            traffic, cap, config=config, calibration=calibration, seed=77
        )
        schedule = record(dc.cluster)
        report = dc.run(24)
        replay(schedule)
        assert report.cap_violations == 0
        assert len(dc.zones) >= 2
        assert any(
            len(set(entry.pstates[entry.active])) >= 2
            for entry in schedule.entries
            if isinstance(entry, Step)
        )
        assert schedule.frozen_lane_seconds >= 1
        assert schedule.n_reads >= 1

    def test_one_fleet_per_datacenter_and_per_calibration(
        self, config, calibration, monkeypatch
    ):
        """Every zone's nodes are lanes of one fleet, and the whole
        P-state ladder calibrates on one fleet."""
        built = []
        init = FleetServer.__init__

        def counting_init(fleet, *args, **kwargs):
            built.append(fleet)
            init(fleet, *args, **kwargs)

        monkeypatch.setattr(FleetServer, "__init__", counting_init)
        train_zone_bank(config, duration_s=4.0, seed=5)
        assert len(built) == 1
        dc = Datacenter(
            _small_traffic(),
            0.65 * calibration.reference_peak_w * 6,
            config=config,
            calibration=calibration,
        )
        assert len(built) == 2
        assert built[1] is dc.cluster._fleet
        assert built[1].width == dc.n_nodes == 6

    def test_gauges_published(self, config, calibration):
        cap = 0.7 * calibration.reference_peak_w * 4
        zones = (ZoneSpec("a", 2, 2.8e5), ZoneSpec("b", 2, 2.4e5))
        traffic = TrafficModel(zones, period_s=20.0, seed=3)
        obs.enable()
        try:
            dc = Datacenter(
                traffic,
                cap,
                config=config,
                calibration=calibration,
                seed=41,
            )
            dc.run(8)
            assert obs.gauge_value("dc_power_watts") > 0
            assert obs.gauge_value("dc_estimated_power_watts") > 0
            assert obs.gauge_value("dc_cap_watts") == pytest.approx(cap)
            for zone in ("a", "b"):
                labels = {"zone": zone}
                assert obs.gauge_value("dc_budget_watts", labels) > 0
                assert obs.gauge_value("dc_nodes_active", labels) >= 0
        finally:
            obs.disable()


# -- the acceptance scenario ------------------------------------------


class TestAcceptanceScenario:
    def test_thousand_node_multizone_scenario(self, config, calibration):
        """ISSUE acceptance: >=1000 nodes, 3 zones, diurnal + flash +
        failover through the fleet engine; the cap holds, EP and
        estimated-vs-true regret are reported for both policies."""
        per_zone = 342  # 3 * 342 = 1026 nodes
        duration = 20
        zones = tuple(
            ZoneSpec(
                f"zone{i}",
                per_zone,
                0.75 * per_zone * 8 * 25_000.0,
                phase_s=i * duration / 6.0,
            )
            for i in range(3)
        )
        traffic = TrafficModel(
            zones,
            period_s=float(duration),
            flash_crowds=(
                FlashCrowd(4.0, 4.0, magnitude=1.6, zone="zone0", ramp_s=1.0),
            ),
            outages=(ZoneOutage("zone2", 11.0, 4.0),),
            seed=23,
        )
        cap = 0.6 * calibration.reference_peak_w * 3 * per_zone
        doc = run_scenario(
            traffic,
            cap,
            duration,
            config=config,
            seed=13,
            calibration=calibration,
        )
        managed = doc["subsystem_estimated"]
        assert managed["n_nodes"] == 1026
        assert managed["cap_violations"] == 0
        assert managed["max_power_w"] <= cap
        assert managed["energy_proportionality"]["ep_score"] > 0.0
        # The dark zone's budget flowed to the survivors.
        assert managed["budget_redistributions"] >= 1
        # Regret of steering on estimates instead of ground truth.
        assert "regret" in doc
        assert doc["regret"]["true_objective_j"] > 0
        # The managed policy is more energy-proportional than the
        # static all-on baseline.
        assert doc["ep_comparison"]["ep_gain"] > 0.0
        assert doc["static"]["energy_proportionality"] is not None


# -- pinned outputs ----------------------------------------------------


def _digest(values) -> str:
    """sha256 over the JSON of ``values`` at full float precision."""
    return hashlib.sha256(
        json.dumps(values, sort_keys=True).encode()
    ).hexdigest()


class TestGoldenOutputs:
    """The calibration bank and a capped scenario, pinned bit for bit.

    Any change to how the datacenter steps, reads or estimates its
    nodes, or to how the calibration fleet runs, must reproduce these
    digests exactly; they were recorded before the datacenter moved
    onto one fleet and hold on both sides of that move.
    """

    def test_calibration_bank(self, calibration):
        values = {
            "peak_w": list(calibration.table.peak_w),
            "reference_peak_w": calibration.reference_peak_w,
            "suites": {
                str(pstate): suite.to_dict()
                for pstate, suite in sorted(calibration.bank.suites.items())
            },
        }
        assert _digest(values) == (
            "e699613fb38fcc297ebc19726589bf5b005da8eca657a5483fff8fe8681ef1dd"
        )

    def test_capped_scenario(self, config, calibration, tmp_path):
        """Three unequal zones, a flash crowd and an outage under the
        estimated sensor, the true sensor and the static policy: the
        scenario document and every per-second trace it persists."""
        zones = (
            ZoneSpec("north", 1, 1.5e5),
            ZoneSpec("south", 2, 2.6e5, phase_s=5.0),
            ZoneSpec("west", 3, 3.9e5, phase_s=10.0),
        )
        traffic = TrafficModel(
            zones,
            period_s=16.0,
            flash_crowds=(
                FlashCrowd(4.0, 5.0, magnitude=1.8, zone="west", ramp_s=1.0),
            ),
            outages=(ZoneOutage("south", 9.0, 4.0),),
            seed=19,
        )
        store = TSDB(str(tmp_path / "store"))
        doc = run_scenario(
            traffic,
            0.6 * calibration.reference_peak_w * 6,
            16,
            config=config,
            seed=29,
            calibration=calibration,
            store=store,
        )
        series = {name: store.select(name) for name in store.names()}
        assert doc["subsystem_estimated"]["cap_enforcements"] > 0
        assert doc["static"]["n_nodes"] == 6
        assert _digest([doc, series]) == (
            "f7e8b1b348531748bca53a7b850d1866cf1640ad651d522c38e53c4986346029"
        )


class TestDatacenterCli:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--cap-frac", "0"], "--cap-frac must be positive"),
            (["--cap-frac", "-0.5"], "--cap-frac must be positive"),
            (["--cap-frac", "nan"], "--cap-frac must be positive"),
            (["--cap-w", "-100"], "--cap-w must not be negative"),
            (["--dc-zones", "0"], "--dc-zones must be positive"),
            (["--nodes-per-zone", "0"], "--nodes-per-zone must be positive"),
            (["--cap-w", "inf"], "--cap-w must be finite"),
            (["--cap-frac", "inf"], "--cap-frac must be finite"),
            (["--duration", "nan"], "--duration must be finite"),
            (["--duration", "inf"], "--duration must be finite"),
            (["--duration=-inf"], "--duration must be finite"),
        ],
    )
    def test_bad_arguments_exit_2_before_calibrating(
        self, monkeypatch, capsys, flags, message
    ):
        """A cap or layout that cannot run is a usage error (exit 2),
        raised before the sensor bank calibrates, not a late traceback
        whose exit code 1 reads as a cap violation."""
        from repro.cli import main as cli_main

        def calibrate(*args, **kwargs):
            raise AssertionError("calibrated before validating arguments")

        monkeypatch.setattr("repro.dc.train_zone_bank", calibrate)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["datacenter", *flags])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_overflowing_cap_frac_exits_2(self, monkeypatch, capsys):
        """A finite ``--cap-frac`` whose cap overflows to inf is a usage
        error too, caught once the calibrated peak is known."""
        from repro.cli import main as cli_main

        monkeypatch.setattr(
            "repro.dc.train_zone_bank",
            lambda *args, **kwargs: SimpleNamespace(reference_peak_w=1.0e300),
        )
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["datacenter", "--cap-frac", "1e300"])
        assert exit_info.value.code == 2
        assert "--cap-frac overflows the cap" in capsys.readouterr().err

    def test_capped_two_zone_scenario(self, capsys):
        """The capped two-zone scenario: 256 nodes under a 60 %
        cap hold the cap every second, report an energy-proportionality
        score, and move budget between zones during the outage."""
        from repro.cli import main as cli_main

        code = cli_main(
            [
                "datacenter", "--dc-zones", "2", "--nodes-per-zone", "128",
                "--duration", "60", "--cap-frac", "0.6",
                "--no-static", "--no-regret", "--json",
            ]
        )
        assert code == 0
        run = json.loads(capsys.readouterr().out)["subsystem_estimated"]
        assert run["n_nodes"] == 256
        assert run["cap_violations"] == 0
        assert run["max_power_w"] <= run["cap_w"]
        ep = run["energy_proportionality"]
        assert ep and 0.0 < ep["ep_score"] <= 1.0, ep
        assert run["budget_redistributions"] >= 1


class TestCapValidation:
    @pytest.mark.parametrize("cap_w", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_cap_rejected(self, cap_w):
        """NaN passed the old ``cap_w <= 0`` check and handed out NaN
        budgets; inf reached the placement's ``int()``."""
        with pytest.raises(ValueError, match="cap must be finite and positive"):
            BudgetAllocator(cap_w)
        traffic = TrafficModel((ZoneSpec("a", 2, 1.0e5),), seed=1)
        with pytest.raises(ValueError, match="cap must be finite and positive"):
            Datacenter(traffic, cap_w)


# -- invariants over random scenarios -----------------------------------


class TestScenarioInvariants:
    # No "explain" phase: after a failure it line-traces whole
    # datacenter runs, which takes minutes.
    @settings(
        max_examples=10,
        deadline=None,
        phases=[p for p in Phase if p is not Phase.explain],
    )
    @given(data=st.data())
    def test_cap_service_and_users_hold_every_second(
        self, config, calibration, data
    ):
        """Random zones, traffic seed, outage, flash crowd and cap: every
        second the cap holds on the estimated sensor, no zone serves
        more than was offered, each zone's power is its nodes' watts
        summed and the datacenter's its zones' powers summed in zone
        order, the energy is the nodes' energies summed, and an outage
        moves users without losing any.  The policy naps and wakes
        nodes, so which lanes the fleet steps changes from second to
        second."""
        n_zones = data.draw(st.integers(2, 3), label="zones")
        sizes = data.draw(
            st.lists(st.integers(2, 4), min_size=n_zones, max_size=n_zones),
            label="nodes per zone",
        )
        duration = data.draw(st.integers(12, 16), label="duration")
        dark = data.draw(st.integers(0, n_zones - 1), label="outage zone")
        outage_start = data.draw(st.integers(0, duration - 1), label="outage")
        outage_len = data.draw(st.integers(1, duration), label="outage length")
        crowd_zone = data.draw(st.integers(0, n_zones - 1), label="crowd zone")
        crowd_start = data.draw(st.integers(0, duration - 1), label="crowd")
        magnitude = data.draw(st.floats(1.2, 2.5), label="crowd magnitude")
        cap_frac = data.draw(st.floats(0.5, 0.9), label="cap fraction")
        seed = data.draw(st.integers(0, 2**16), label="traffic seed")
        zones = tuple(
            ZoneSpec(
                f"z{i}", n, 0.75 * n * 8 * 25_000.0,
                phase_s=i * duration / (2.0 * n_zones),
            )
            for i, n in enumerate(sizes)
        )
        kwargs = dict(
            zones=zones,
            period_s=float(duration),
            flash_crowds=(
                FlashCrowd(
                    float(crowd_start), 4.0, magnitude=magnitude,
                    zone=f"z{crowd_zone}", ramp_s=1.0,
                ),
            ),
            seed=seed,
        )
        outage = ZoneOutage(f"z{dark}", float(outage_start), float(outage_len))
        traffic = TrafficModel(outages=(outage,), **kwargs)
        cap = cap_frac * calibration.reference_peak_w * sum(sizes)
        dc = Datacenter(
            traffic, cap, config=config, calibration=calibration, seed=seed
        )
        node_w: "list[list[float]]" = []  # each second's per-node watts
        step_second = dc.cluster._step_second

        def capture():
            powers = step_second()
            node_w.append(list(powers))
            return powers

        dc.cluster._step_second = capture
        report = dc.run(duration)
        assert len(node_w) == duration
        for t in range(duration):
            assert report.power_w[t] <= cap, t
            assert report.served_threads[t] <= report.offered_threads[t], t
            total = 0.0
            for zone, span in dc.zones.items():
                assert report.zone_power_w[zone][t] == sum(node_w[t][span]), t
                total += report.zone_power_w[zone][t]
            assert report.power_w[t] == total, t
        # Energy = the nodes' energies summed (1 s steps: W == J).
        node_energy_j = [sum(column) for column in zip(*node_w)]
        assert report.energy_j == pytest.approx(sum(node_energy_j), rel=1e-12)

        # Users are conserved across the outage.  A zone's demand is its
        # users rounded to whole threads: outside the outage nothing
        # moves, and inside it the totals with and without the outage
        # each round n_zones - 1 and n_zones zones by up to half a
        # thread apiece.
        moved = traffic.demand(duration)
        unmoved = TrafficModel(**kwargs).demand(duration)
        t = np.arange(duration)
        in_outage = (t >= outage_start) & (t < outage_start + outage_len)
        diff = sum(moved.values()) - sum(unmoved.values())
        assert (diff[~in_outage] == 0).all()
        assert (np.abs(diff[in_outage]) <= (2 * n_zones - 1) / 2.0).all()

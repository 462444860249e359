"""Fleet observability: vectorized drift monitoring vs N scalar monitors.

The tentpole guarantee: a :class:`FleetMonitor` +
:class:`FleetDriftMonitor` pair watching a width-W fleet produces per
lane the same window counts, EWMA states (to float round-off — the
batched design-matrix pass reassociates the matmul) and alert
transitions as W independent scalar :class:`LiveMonitor` +
:class:`DriftMonitor` pairs fed from per-lane scalar runs.  Seeded
per-lane mis-calibration must flag the offending lanes — and only
those — in ``/fleet/lanes`` and the flight bundle.
"""

import math

import numpy as np
import pytest

from repro import obs
from repro.core.estimator import SystemPowerEstimator
from repro.obs.drift import DriftMonitor
from repro.obs.fleet import (
    FleetDriftMonitor,
    FleetMonitor,
    LaneDriftAlert,
    publish_lane_aggregates,
)
from repro.obs.flight import FlightRecorder
from repro.obs.http import ObservabilityServer
from repro.obs.live import LiveMonitor, WindowedRegistry
from repro.simulator.config import fast_config
from repro.simulator.fleet import FleetServer
from repro.simulator.system import Server
from repro.workloads.registry import get_workload
from tests.conftest import TEST_SEED, read_while_writing

WIDTH = 6
N_TICKS = 2000  # ~20 sampler windows per lane at the fast config
PERTURBED_LANES = (1, 4)
PERTURB_FACTOR = 1.5

#: EWMA tolerance between the batched design-matrix pass and per-lane
#: single-sample estimation (matmul reassociation; everything upstream
#: of the estimate is bit-identical).
EWMA_RTOL = 1e-9


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _fleet_seeds():
    return [TEST_SEED + i for i in range(WIDTH)]


def _run_fleet(suite, workload, flight=None, perturb=True, windows=None):
    """With ``windows``, run one simulated second at a time and fold the
    registry into it after each, as ``repro-power monitor --fleet``
    folds its endpoint's windows."""
    fleet = FleetServer(
        fast_config(), get_workload(workload), _fleet_seeds()
    )
    monitor = FleetMonitor(suite, flight=flight)
    fleet.attach_fleet_monitor(monitor)
    if perturb:
        monitor.perturb_lanes(PERTURB_FACTOR, PERTURBED_LANES)
    if windows is None:
        fleet.run_ticks(N_TICKS)
    else:
        per_s = int(round(1.0 / fleet.config.tick_s))
        for _ in range(N_TICKS // per_s):
            fleet.run_ticks(per_s)
            monitor.flush()
            windows.ingest(fleet.now_s, obs.registry())
    monitor.flush()
    return fleet, monitor


def _run_scalar_lane(suite, workload, seed, perturbed):
    server = Server(fast_config(), get_workload(workload), seed=seed)
    active = suite.scaled(PERTURB_FACTOR) if perturbed else suite
    monitor = LiveMonitor(
        SystemPowerEstimator(active), drift=DriftMonitor(max_history=1024)
    )
    server.attach_monitor(monitor)
    server.run_ticks(N_TICKS)
    return monitor


class TestScalarEquivalence:
    """The acceptance gate, property-tested across two workloads."""

    @pytest.mark.parametrize("workload", ["gcc", "SPECjbb"])
    def test_fleet_matches_per_lane_scalar_monitors(
        self, paper_suite, workload
    ):
        _, fleet_mon = _run_fleet(paper_suite, workload)
        drift = fleet_mon.drift
        streams = drift._streams
        assert list(streams) == [
            "cpu", "chipset", "memory", "io", "disk", "total"
        ]
        for lane, seed in enumerate(_fleet_seeds()):
            scalar = _run_scalar_lane(
                paper_suite, workload, seed, lane in PERTURBED_LANES
            )
            sdrift = scalar.drift
            # Window counts: exact.  The fleet pulses are the scalar
            # pulses, so every stream saw the same number of windows.
            assert fleet_mon.board.n_windows[lane] == scalar.n_windows
            for name, sstream in sdrift._streams.items():
                fstream = streams[name]
                assert int(fstream.windows[lane]) == sstream.windows
                # EWMA: identical to float round-off.
                assert float(fstream.ewma[lane]) == pytest.approx(
                    sstream.ewma, rel=EWMA_RTOL, abs=1e-12
                )
                # Firing state: exact.
                assert bool(fstream.firing[lane]) == sstream.firing
            # Transition sequences: same streams, states, window
            # indices and (bit-identical) simulation timestamps.
            fleet_lane_alerts = [
                a for a in drift.history() if a.lane == lane
            ]
            scalar_alerts = sdrift.history()
            assert [
                (a.subsystem, a.state, a.window) for a in fleet_lane_alerts
            ] == [
                (a.subsystem, a.state, a.window) for a in scalar_alerts
            ]
            for fa, sa in zip(fleet_lane_alerts, scalar_alerts):
                assert fa.timestamp_s == sa.timestamp_s
                assert fa.error_pct == pytest.approx(
                    sa.error_pct, rel=EWMA_RTOL, abs=1e-12
                )

    def test_only_perturbed_lanes_flagged(self, paper_suite):
        _, fleet_mon = _run_fleet(paper_suite, "gcc")
        assert fleet_mon.drift.firing_lanes() == PERTURBED_LANES
        # The worst offenders lead /fleet/lanes, and only they fire.
        doc = fleet_mon.lanes_document(top=len(PERTURBED_LANES))
        assert {entry["lane"] for entry in doc["lanes"]} == set(
            PERTURBED_LANES
        )
        for entry in doc["lanes"]:
            assert entry["firing"]
        full = fleet_mon.lanes_document()
        for entry in full["lanes"]:
            if entry["lane"] not in PERTURBED_LANES:
                assert entry["firing"] == []

    def test_unperturbed_fleet_stays_quiet(self, paper_suite):
        _, fleet_mon = _run_fleet(paper_suite, "gcc", perturb=False)
        assert fleet_mon.drift.firing == ()
        assert fleet_mon.drift.firing_lanes() == ()
        assert fleet_mon.n_windows >= WIDTH * 3

    def test_flight_bundle_names_offending_lane(self, paper_suite, tmp_path):
        flight = FlightRecorder(out_dir=str(tmp_path))
        _run_fleet(paper_suite, "gcc", flight=flight)
        firing = [
            f for f in flight.to_json()["bundles"]
        ]
        assert firing, "a perturbed lane should have dumped a bundle"
        from repro.obs.flight import load_bundle

        doc = load_bundle(firing[0])
        assert doc["reason"] == "drift.alert"
        assert doc["detail"]["lane"] in PERTURBED_LANES
        assert doc["detail"]["fleet"]["width"] == WIDTH
        assert doc["detail"]["lane_history"]
        assert set(doc["detail"]["fleet"]["firing_lanes"]) <= set(
            PERTURBED_LANES
        )


class TestFleetDriftMonitorUnit:
    """Bit-exact equivalence on synthetic feeds (no estimation noise)."""

    def test_bit_identical_to_scalar_monitors(self):
        width = 5
        rng = np.random.default_rng(TEST_SEED)
        fleet = FleetDriftMonitor(width, slo_pct=9.0)
        scalars = [DriftMonitor(slo_pct=9.0) for _ in range(width)]
        names = ["cpu", "memory", "disk"]
        for step in range(30):
            true = {n: 40.0 + 5.0 * rng.random(width) for n in names}
            # Drive lanes 1 and 3 over the SLO mid-run, then back.
            scale = np.ones(width)
            if 8 <= step < 20:
                scale[1] = 1.4
                scale[3] = 1.3
            est = {n: true[n] * scale for n in names}
            t = 1.0 + step
            fleet_alerts = fleet.observe(t, est, true)
            scalar_alerts = []
            for lane in range(width):
                got = scalars[lane].observe(
                    t,
                    {n: float(est[n][lane]) for n in names},
                    {n: float(true[n][lane]) for n in names},
                )
                scalar_alerts.extend(
                    (a.subsystem, lane, a.state, a.error_pct, a.window)
                    for a in got
                )
            assert sorted(
                (a.subsystem, a.lane, a.state, a.error_pct, a.window)
                for a in fleet_alerts
            ) == sorted(scalar_alerts)
        for lane in range(width):
            state = fleet.lane_state(lane)
            scalar = scalars[lane].to_json()["streams"]
            for name, cell in state.items():
                assert cell["error_pct"] == scalar[name]["error_pct"]
                assert cell["windows"] == scalar[name]["windows"]
                assert cell["firing"] == scalar[name]["firing"]
        # The perturbation window ended, so everything resolved — but
        # the history names exactly the lanes that were driven over.
        assert fleet.firing_lanes() == ()
        fired = {a.lane for a in fleet.history() if a.state == "firing"}
        assert fired == {1, 3}
        resolved = {a.lane for a in fleet.history() if a.state == "resolved"}
        assert resolved == {1, 3}

    def test_a_callers_total_counts_once_per_window(self):
        """A ``total`` the caller passes (as ``Datacenter.run`` does) is
        the total stream, updated once per window, so it arms after
        ``min_windows`` = 3.  Both monitors summed it into a second
        update: 2, 4, 6 windows, firing at t = 2."""
        fleet = FleetDriftMonitor(1)
        scalar = DriftMonitor()
        fired = []
        for t in (1.0, 2.0, 3.0):
            alerts = fleet.observe(t, {"total": [112.0]}, {"total": [100.0]})
            alerts += scalar.observe(t, {"total": 112.0}, {"total": 100.0})
            fired += [(a.timestamp_s, a.window) for a in alerts]
            assert fleet.lane_state(0)["total"]["windows"] == t
            assert scalar.to_json()["streams"]["total"]["windows"] == t
        assert fired == [(3.0, 3), (3.0, 3)]
        # A frame of three windows, and a total beside a subsystem: the
        # caller's total is scored as given, not summed with the rest.
        frame = DriftMonitor()
        frame.observe(
            [1.0, 2.0, 3.0], {"total": [112.0] * 3}, {"total": [100.0] * 3}
        )
        assert frame.to_json()["streams"]["total"]["windows"] == 3
        scalar = DriftMonitor()
        scalar.observe(
            1.0, {"cpu": 50.0, "total": 100.0}, {"cpu": 50.0, "total": 80.0}
        )
        fleet = FleetDriftMonitor(1)
        fleet.observe(
            1.0, {"cpu": [50.0], "total": [100.0]},
            {"cpu": [50.0], "total": [80.0]},
        )
        assert scalar.error_pct("total") == fleet.error_pct("total")[0] == 25.0

    def test_lane_subsets_update_independently(self):
        fleet = FleetDriftMonitor(4)
        scalar = DriftMonitor()
        # Lane 2 sees three windows via three separate subset calls.
        for t in (1.0, 2.0, 3.0):
            fleet.observe(
                t, {"cpu": [50.0]}, {"cpu": [40.0]}, lanes=np.array([2])
            )
            scalar.observe(t, {"cpu": 50.0}, {"cpu": 40.0})
        assert float(fleet.error_pct("cpu")[2]) == scalar.error_pct("cpu")
        # Untouched lanes have no state.
        assert np.isnan(fleet.error_pct("cpu")[0])
        assert fleet.lane_state(0)["cpu"]["windows"] == 0

    def test_param_validation(self):
        with pytest.raises(ValueError, match="width"):
            FleetDriftMonitor(0)
        with pytest.raises(ValueError, match="slo_pct"):
            FleetDriftMonitor(2, slo_pct=0.0)
        with pytest.raises(ValueError, match="alpha"):
            FleetDriftMonitor(2, alpha=1.5)
        with pytest.raises(ValueError, match="min_windows"):
            FleetDriftMonitor(2, min_windows=0)
        with pytest.raises(ValueError, match="resolve_ratio"):
            FleetDriftMonitor(2, resolve_ratio=0.0)
        with pytest.raises(IndexError):
            FleetDriftMonitor(2).lane_state(2)

    @pytest.mark.parametrize("slo_pct", [math.nan, math.inf])
    def test_non_finite_slo_rejected(self, slo_pct):
        """NaN passed the old ``slo_pct <= 0`` check and switched every
        lane's alerting off."""
        with pytest.raises(ValueError):
            FleetDriftMonitor(2, slo_pct=slo_pct)

    def test_out_of_range_lane_rejected(self):
        fleet = FleetDriftMonitor(2)
        for lanes in ([-1], [2], [0, 2]):
            with pytest.raises(IndexError):
                fleet.observe(
                    1.0,
                    {"cpu": [50.0] * len(lanes)},
                    {"cpu": [40.0] * len(lanes)},
                    lanes=np.array(lanes),
                )
        # Nothing was updated on the way to the error (unchecked, -1
        # would update the last lane).
        assert fleet.history() == []
        assert np.isnan(fleet.error_pct("cpu")).all()

    def test_lane_given_twice_rejected(self):
        fleet = FleetDriftMonitor(2)
        # 25 % then 50 % error on lane 1 in one call: rejected, not
        # one window at the last value.
        with pytest.raises(ValueError, match="once"):
            fleet.observe(
                1.0,
                {"cpu": [50.0, 60.0]},
                {"cpu": [40.0, 40.0]},
                lanes=np.array([1, 1]),
            )
        assert np.isnan(fleet.error_pct("cpu")).all()

    def test_alert_serialization_carries_lane(self):
        alert = LaneDriftAlert(
            subsystem="cpu",
            state="firing",
            error_pct=12.0,
            threshold_pct=9.0,
            timestamp_s=5.0,
            window=4,
            lane=3,
        )
        doc = alert.to_dict()
        assert doc["lane"] == 3
        assert doc["subsystem"] == "cpu"


class TestMonitoredFleetUnperturbedState:
    """The fleet monitor only reads: attaching one changes nothing."""

    def test_monitored_run_bit_identical_to_unmonitored(self, paper_suite):
        config = fast_config()
        workload = get_workload("gcc")
        plain = FleetServer(config, workload, _fleet_seeds())
        monitored = FleetServer(config, workload, _fleet_seeds())
        monitored.attach_fleet_monitor(FleetMonitor(paper_suite))
        plain_energy = plain.run_ticks(N_TICKS)
        monitored_energy = monitored.run_ticks(N_TICKS)
        assert np.array_equal(plain_energy, monitored_energy)
        for lane in range(WIDTH):
            assert (
                plain.lane(lane).counters._rows
                == monitored.lane(lane).counters._rows
            )
            assert (
                plain.lane(lane).energy._energy_j
                == monitored.lane(lane).energy._energy_j
            )


class TestFrozenLaneTimestamps:
    def test_each_window_carries_its_own_lanes_close_time(self, paper_suite):
        """Lanes frozen for different lengths of time keep different
        clocks, so one pulse can close windows at different times.  The
        board and the drift monitor must stamp each window with its own
        lane's close time (what the lane's sampler logged), not with
        the first closing lane's."""
        seeds = [11, 12, 13, 14]
        fleet = FleetServer(fast_config(), get_workload("SPECjbb"), seeds)
        monitor = FleetMonitor(paper_suite, history=64)
        fleet.attach_fleet_monitor(monitor)
        masks = np.random.default_rng(5).random((60, len(seeds))) < 0.5
        masks[:, 0] = True
        for active in masks:
            fleet.run_ticks(50, active)
        monitor.flush()
        assert len({fleet.lane(lane).now_s for lane in range(4)}) == 4
        assert monitor.n_windows == sum(len(ts) for ts in fleet._samp_ts)
        for lane in range(len(seeds)):
            stamps = [w["timestamp_s"] for w in monitor.board.lane_history(lane)]
            assert stamps == fleet._samp_ts[lane], f"lane {lane}"
            assert monitor.board.last_t_s[lane] == fleet._samp_ts[lane][-1]


class TestPerturbLanes:
    def test_out_of_range_lane_raises(self):
        fleet = FleetServer(fast_config(), get_workload("gcc"), [1, 2])
        monitor = FleetMonitor(suite=None)
        fleet.attach_fleet_monitor(monitor)
        for lanes in ([-1], [2], [0, 2]):
            with pytest.raises(IndexError):
                monitor.perturb_lanes(1.5, lanes)
        # Nothing was scaled on the way to the error (unchecked, -1
        # would scale the last lane).
        assert monitor._scale == {}
        monitor.perturb_lanes(1.5, [1], subsystems=["cpu"])
        assert monitor._scale["cpu"].tolist() == [1.0, 1.5]


class TestFleetRoutes:
    """The /fleet* routes, exercised through payload() (no sockets)."""

    def _served_monitor(self, paper_suite):
        _, monitor = _run_fleet(paper_suite, "gcc")
        return ObservabilityServer(drift=monitor.drift, fleet=monitor)

    def test_fleet_summary_route(self, paper_suite):
        import json

        endpoint = self._served_monitor(paper_suite)
        status, ctype, body = endpoint.payload("/fleet")
        assert status == 200 and ctype == "application/json"
        doc = json.loads(body)
        assert doc["width"] == WIDTH
        assert sorted(doc["firing_lanes"]) == sorted(PERTURBED_LANES)
        assert doc["power_w"]["true"]["min"] <= doc["power_w"]["true"]["max"]
        assert doc["alerts"]["firing"] >= len(PERTURBED_LANES)

    def test_lanes_route_with_top(self, paper_suite):
        import json

        endpoint = self._served_monitor(paper_suite)
        status, _, body = endpoint.payload("/fleet/lanes", "top=2")
        assert status == 200
        doc = json.loads(body)
        assert len(doc["lanes"]) == 2
        assert {e["lane"] for e in doc["lanes"]} == set(PERTURBED_LANES)
        status, _, _ = endpoint.payload("/fleet/lanes", "top=0")
        assert status == 400
        status, _, _ = endpoint.payload("/fleet/lanes", "top=junk")
        assert status == 400

    def test_lane_drilldown_route(self, paper_suite):
        import json

        endpoint = self._served_monitor(paper_suite)
        status, _, body = endpoint.payload(f"/fleet/lane/{PERTURBED_LANES[0]}")
        assert status == 200
        doc = json.loads(body)
        assert doc["lane"] == PERTURBED_LANES[0]
        assert doc["streams"]["total"]["firing"] is True
        assert doc["history"]
        assert endpoint.payload("/fleet/lane/999")[0] == 404
        assert endpoint.payload("/fleet/lane/zero")[0] == 404

    def test_routes_without_fleet_report_absence(self):
        import json

        endpoint = ObservabilityServer()
        for path in ("/fleet", "/fleet/lanes", "/fleet/lane/0"):
            status, _, body = endpoint.payload(path)
            assert status == 200
            assert json.loads(body) == {"fleet": None}

    def test_healthz_drifting_on_fleet_drift(self, paper_suite):
        import json

        endpoint = self._served_monitor(paper_suite)
        status, _, body = endpoint.payload("/healthz")
        assert status == 503
        doc = json.loads(body)
        assert doc["status"] == "drifting"
        assert any(a["labels"].get("lane") == "1" for a in doc["alerts"])

    def test_windows_last_paging(self, paper_suite):
        import json

        endpoint = ObservabilityServer(windows=WindowedRegistry())
        _run_fleet(paper_suite, "gcc", windows=endpoint.windows)
        status, _, body = endpoint.payload("/windows", "last=1")
        assert status == 200
        doc = json.loads(body)
        assert len(doc["windows"]) == 1
        assert doc["n_windows"] == 5  # 20 s in 5 s windows, the last one open
        full = json.loads(endpoint.payload("/windows")[2])
        assert len(full["windows"]) <= 12
        assert endpoint.payload("/windows", "last=0")[0] == 400
        assert endpoint.payload("/windows", "last=x")[0] == 400


class TestReadsWhileFlushing:
    """The routes read the fleet monitors while the loop writes them:
    every read must succeed."""

    def test_drift_reads_while_observing(self):
        width, names = 8, ["cpu", "memory", "disk"]
        drift = FleetDriftMonitor(width, alpha=1.0, min_windows=1, max_history=64)

        def write():
            for window in range(600):
                estimate = 200.0 if window % 2 else 100.0
                drift.observe(
                    float(window),
                    {name: np.full(width, estimate) for name in names},
                    {name: np.full(width, 100.0) for name in names},
                )

        made, errors = read_while_writing(
            write, drift.to_json, drift.unresolved, drift.firing_lanes,
            lambda: drift.lane_state(3), lambda: drift.firing,
        )
        assert not errors, errors[:3]
        assert made > 0
        assert drift.n_transitions == 599 * width * (len(names) + 1)

    def test_lane_routes_while_flushing(self, paper_suite):
        fleet = FleetServer(
            fast_config(tick_s=0.05), get_workload("gcc"), _fleet_seeds()
        )
        monitor = FleetMonitor(paper_suite)
        fleet.attach_fleet_monitor(monitor)
        monitor.perturb_lanes(PERTURB_FACTOR, PERTURBED_LANES)

        def write():
            for _ in range(60):
                fleet.run_ticks(20)  # one simulated second
                monitor.flush()

        lane = PERTURBED_LANES[0]
        made, errors = read_while_writing(
            write, lambda: monitor.lane_document(lane), monitor.fleet_document,
        )
        assert not errors, errors[:3]
        assert made > 0
        assert monitor.lanes_document(top=1)["lanes"][0]["firing"]
        assert monitor.n_windows >= 50 * WIDTH


class TestGaugeValueHelper:
    """Satellite: obs.gauge_value() complements obs.counter()."""

    def test_reads_published_gauges(self):
        obs.enable()
        obs.gauge("fleet_width", 64.0, {"workload": "gcc"})
        assert obs.gauge_value("fleet_width", {"workload": "gcc"}) == 64.0
        assert np.isnan(obs.gauge_value("fleet_width", {"workload": "mcf"}))
        assert np.isnan(obs.gauge_value("never_set"))


class TestPublishLaneAggregates:
    def test_aggregates_and_gauges(self):
        obs.enable()
        true = np.array([100.0, 200.0, np.nan, 300.0])
        est = np.array([110.0, 190.0, np.nan, 310.0])
        err = np.array([10.0, 5.0, np.nan, 3.3])
        out = publish_lane_aggregates("fleet", true, est, err)
        assert out["true"]["min"] == 100.0
        assert out["true"]["max"] == 300.0
        assert out["true"]["mean"] == pytest.approx(200.0)
        assert obs.gauge_value(
            "fleet_power_watts", {"agg": "max", "source": "true"}
        ) == 300.0
        assert obs.gauge_value(
            "fleet_error_pct", {"agg": "min"}
        ) == pytest.approx(3.3)

    def test_all_nan_publishes_nothing(self):
        out = publish_lane_aggregates("fleet", np.array([np.nan, np.nan]))
        assert out["true"] == {}

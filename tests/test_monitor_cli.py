"""End-to-end ``repro-power monitor`` runs in each mode.

Three pinned runs (one server, a 24-lane fleet, a 3-node cluster), each
with the endpoint, ``--telemetry``, ``--flight-dir`` and ``--store``
on. ``TestGoldenOutputs`` holds every mode's ``alerts.json`` and its
stdout (the ticks/s rate, the port and the temporary paths stripped)
to sha256 digests; the mode tests scrape the endpoint's routes over
HTTP from inside the run, at a fixed simulated second, and check the
alert log and flight bundles afterwards.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import urllib.error
import urllib.request
from contextlib import redirect_stdout
from io import StringIO

import pytest

from repro import obs
from repro.obs.flight import load_bundle

SERVER = [
    "monitor", "gcc", "--duration", "60", "--tick-ms", "50", "--refresh",
    "10", "--seed", "7", "--perturb", "1.5", "--restore-at", "30",
]
FLEET = [
    "monitor", "--fleet", "24", "--workload", "gcc", "--duration", "40",
    "--tick-ms", "50", "--seed", "7", "--refresh", "10", "--slo", "30",
    "--perturb", "1.6", "--perturb-lanes", "5,21", "--restore-at", "20",
]
CLUSTER = [
    "monitor", "--nodes", "3", "--duration", "60", "--tick-ms", "50",
    "--seed", "7", "--refresh", "10", "--perturb", "1.5", "--restore-at",
    "30",
]

#: sha256 of (``alerts.json``, stripped stdout), recorded before the
#: three monitor loops became one.
GOLDEN = {
    "server": (
        "6e31a8f7169cba25cc348e8d81642345ecb89658f55ae4d518c0fefcc6e7f71a",
        "702279392f4b4630af4f4cff02009bddbeb3902100a132ae27e75272b72b9813",
    ),
    "fleet": (
        "3ea65b26b8dcafcd737fe1452bd3f1dba46d2cbf17167cc86925112ee33fc4f6",
        "586aa402ac08beb4b6493b7efc7fb042b127e5313bfde5af075fe51fbc67536f",
    ),
    "cluster": (
        "3181d3f2066f189c2fc65251f6c145759f27eb83746e6013a053033dec62f9ad",
        "f073cc5fd88600d1489c2dc74846d904e0921b7a187c83d1bc73a8710b6d31e2",
    ),
}
MODES = {"server": SERVER, "fleet": FLEET, "cluster": CLUSTER}


@pytest.fixture(autouse=True)
def clean_obs():
    """Telemetry is process-global; every test starts and ends clean."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _get(url: str) -> "tuple[int, bytes]":
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _monitor(argv, root, scrape_at=None, paths=()):
    """Run ``repro-power monitor`` in-process under ``root``.

    With ``scrape_at``, each path in ``paths`` is fetched from the live
    endpoint once the run's clock reaches ``scrape_at`` simulated
    seconds (inside the per-second store tick), and the answers come
    back as ``{path: (status, body)}``.
    """
    from repro import cli

    scraped: "dict[str, tuple[int, bytes]]" = {}
    store_tick = cli._store_tick

    def scraping_tick(endpoint, now_s):
        store_tick(endpoint, now_s)
        if scrape_at is not None and abs(now_s - scrape_at) < 0.5:
            for path in paths:
                scraped[path] = _get(endpoint.url(path))

    telemetry = os.path.join(root, "telemetry")
    flight = os.path.join(root, "flight")
    store = os.path.join(root, "store")
    out = StringIO()
    cli._store_tick = scraping_tick
    try:
        with redirect_stdout(out):
            code = cli.main([
                *argv, "--port", "0", "--telemetry", telemetry,
                "--flight-dir", flight, "--store", store,
            ])
    finally:
        cli._store_tick = store_tick
    assert code == 0
    with open(os.path.join(telemetry, "alerts.json"), "rb") as handle:
        alerts = handle.read()
    return out.getvalue(), alerts, flight, scraped


def _strip(stdout: str, root: str) -> str:
    """Drop what differs between identical runs: the rate, port, paths."""
    stdout = stdout.replace(root, "<root>")
    stdout = re.sub(r"http://127\.0\.0\.1:\d+", "http://127.0.0.1:<port>", stdout)
    return re.sub(r"[\d,]+ (lane-)?ticks/s", "<rate>", stdout)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenOutputs:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_alert_log_and_stdout_are_pinned(self, mode, tmp_path):
        root = str(tmp_path)
        stdout, alerts, _, _ = _monitor(MODES[mode], root)
        alerts_sha, stdout_sha = GOLDEN[mode]
        assert _sha256(alerts) == alerts_sha
        assert _sha256(_strip(stdout, root).encode()) == stdout_sha, stdout


def _assert_folded(answer: "tuple[int, bytes]", gauge: str) -> None:
    """``/windows`` scraped at t=10 s holds the endpoint's 5 s windows,
    folded once per simulated second: [0, 5), [5, 10) and [10, 15),
    each carrying ``gauge``."""
    status, body = answer
    assert status == 200
    windows = json.loads(body)["windows"]
    assert [w["start_s"] for w in windows] == [0.0, 5.0, 10.0]
    assert all(gauge in w["gauges"] for w in windows), gauge


def _drift_bundles(flight: str) -> "list[dict]":
    paths = sorted(glob.glob(os.path.join(flight, "flight-*-drift-alert")))
    assert paths, os.listdir(flight)
    return [load_bundle(path) for path in paths]


class TestServerMode:
    SUBSYSTEMS = ("cpu", "chipset", "memory", "io", "disk", "total")

    def test_routes_alert_log_and_bundles(self, tmp_path):
        """At t=10 s the perturbed run fires: ``/healthz`` answers 503,
        ``/metrics`` carries every subsystem's true power, and the
        alert, attribution and flight-recorder routes answer."""
        paths = (
            "/metrics", "/alerts", "/attribution", "/flightrecorder",
            "/healthz", "/windows",
        )
        stdout, alerts, flight, scraped = _monitor(
            SERVER, str(tmp_path), scrape_at=10.0, paths=paths
        )
        status, metrics = scraped["/metrics"]
        assert status == 200
        for subsystem in self.SUBSYSTEMS:
            assert (
                f'live_power_watts{{source="true",subsystem="{subsystem}"}}'
                in metrics.decode()
            ), subsystem
        assert scraped["/alerts"][0] == 200
        assert json.loads(scraped["/alerts"][1])["drift"]["firing"]
        assert scraped["/attribution"][0] == 200
        assert json.loads(scraped["/attribution"][1])["attribution"]
        assert scraped["/flightrecorder"][0] == 200
        assert scraped["/healthz"][0] == 503
        _assert_folded(
            scraped["/windows"], "live_power_watts{source=true,subsystem=total}"
        )

        assert re.search(r"ALERT\s+firing", stdout)
        assert "calibrated suite restored" in stdout
        assert "ALERT resolved" in stdout
        document = json.loads(alerts)
        assert {"firing", "resolved"} <= {a["state"] for a in document["history"]}
        assert document["firing"] == []

        for bundle in _drift_bundles(flight):
            assert bundle["reason"] == "drift.alert"
            assert bundle["detail"]["top_terms"]
            assert bundle["windows"]["windows"]


class TestFleetMode:
    def test_routes_alert_log_and_bundles(self, tmp_path):
        """Lanes 5 and 21 are mis-calibrated: at t=10 s they are the
        fleet's firing lanes and rank first, and every alert and drift
        bundle names one of them."""
        paths = (
            "/fleet", "/fleet/lanes?top=8", "/fleet/lane/5", "/fleet/lane/999",
            "/windows",
        )
        stdout, alerts, flight, scraped = _monitor(
            FLEET, str(tmp_path), scrape_at=10.0, paths=paths
        )
        status, body = scraped["/fleet"]
        assert status == 200
        fleet = json.loads(body)
        assert fleet["width"] == 24
        assert fleet["firing_lanes"] == [5, 21]
        assert fleet["power_w"]["true"]["mean"] > 0
        status, body = scraped["/fleet/lanes?top=8"]
        assert status == 200
        lanes = json.loads(body)["lanes"]
        assert len(lanes) == 8
        assert sorted(lane["lane"] for lane in lanes if lane["firing"]) == [5, 21]
        assert sorted(lane["lane"] for lane in lanes[:2]) == [5, 21]
        assert scraped["/fleet/lane/5"][0] == 200
        assert scraped["/fleet/lane/999"][0] == 404
        _assert_folded(scraped["/windows"], "fleet_monitor_windows_total")

        assert re.search(r"ALERT\s+firing.*\[5\]", stdout)
        assert re.search(r"ALERT\s+firing.*\[21\]", stdout)
        assert "calibrated suite restored" in stdout
        assert "ALERT resolved" in stdout
        document = json.loads(alerts)
        assert {a["lane"] for a in document["history"]} == {5, 21}
        assert {"firing", "resolved"} <= {a["state"] for a in document["history"]}
        assert document["firing"] == []

        attributed = set()
        for bundle in _drift_bundles(flight):
            assert bundle["reason"] == "drift.alert"
            detail = bundle["detail"]
            assert detail["lane"] in (5, 21)
            assert detail["fleet"]["width"] == 24
            assert detail["lane_history"]
            assert bundle["windows"]["windows"]
            attributed.add(detail["lane"])
        assert attributed == {5, 21}


class TestWholeSecondClock:
    def test_one_second_windows_hold_one_second_of_ticks(self, tmp_path):
        """At the default 10 ms tick the engine's clock reads 2.99999…
        at t=3; the loop folds at its own whole second, so each 1 s
        window holds exactly that second's 100 ticks.  Folding at the
        engine's clock put two seconds in the 2 s window and none in
        the 17 s one."""
        from repro.obs.tsdb import TSDB

        _monitor(
            ["monitor", "gcc", "--duration", "20", "--window", "1", "--seed", "7"],
            str(tmp_path),
        )
        (series,) = TSDB(str(tmp_path / "store")).select(
            "sim_ticks_total", {"workload": "gcc"}
        )
        points = series["points"]
        assert [t for t, _ in points] == [float(s) for s in range(1, 21)]
        # The first window also holds the training run's ticks.
        assert [ticks for _, ticks in points[1:]] == [100.0] * 19


class TestLiveArguments:
    """Values that would silently switch alerting off, never end or end
    in a traceback are usage errors (exit 2), raised before the
    endpoint binds or the suite trains."""

    @pytest.fixture(autouse=True)
    def no_bind_no_training(self, monkeypatch):
        def bind(self):
            raise AssertionError("endpoint bound before validating arguments")

        def train(self):
            raise AssertionError("trained before validating arguments")

        monkeypatch.setattr("repro.obs.http.ObservabilityServer.start", bind)
        monkeypatch.setattr(
            "repro.analysis.experiments.ExperimentContext.paper_suite", train
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--duration", "nan"], "--duration must be positive and finite"),
            (["--duration", "inf"], "--duration must be positive and finite"),
            (["--duration=-5"], "--duration must be positive and finite"),
            (["--refresh", "nan"], "--refresh must be positive and finite"),
            (["--refresh", "0"], "--refresh must be positive and finite"),
            (["--window", "0"], "--window must be positive and finite"),
            (["--window", "nan"], "--window must be positive and finite"),
            (["--slo", "nan"], "--slo must be positive and finite"),
            (["--slo", "inf"], "--slo must be positive and finite"),
            (["--slo", "0"], "--slo must be positive and finite"),
            (["--perturb", "nan"], "--perturb must be finite"),
            (["--perturb", "inf"], "--perturb must be finite"),
            (["--perturb", "1.5", "--restore-at", "nan"],
             "--restore-at must be finite"),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [["monitor", "gcc"], ["serve", "--replay", "gcc", "--serve-for", "1"]],
        ids=["monitor", "serve"],
    )
    def test_exit_2_before_binding(self, capsys, command, flags, message):
        from repro.cli import main

        if command[0] == "serve" and flags[0] == "--perturb":
            # serve never perturbs: its parser has no such flag.
            message = "unrecognized arguments: --perturb"
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--tick-ms", "50", *flags])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


class _Reached(Exception):
    """A stub was called: the arguments passed every check."""


class TestRunSettings:
    """``--duration`` and ``--tick-ms`` are checked against what each
    command runs, with exit 2, before anything simulates, trains,
    calibrates or binds."""

    @pytest.fixture(autouse=True)
    def stubs(self, monkeypatch):
        def reached(*args, **kwargs):
            raise _Reached

        for target in (
            "repro.obs.http.ObservabilityServer.start",
            "repro.analysis.experiments.ExperimentContext.run",
            "repro.analysis.experiments.ExperimentContext.runs",
            "repro.analysis.experiments.ExperimentContext.paper_suite",
            "repro.exec.sweep_specs",
            "repro.dc.train_zone_bank",
        ):
            monkeypatch.setattr(target, reached)

    @pytest.mark.parametrize(
        "argv, floor",
        [
            # 3 warm-up windows, 1 to simulate and a spare one.
            (["run", "gcc"], 5),
            (["sweep", "gcc"], 5),
            (["table1"], 5),
            (["run", "gcc", "--tick-ms", "700"], 7),  # 1.4 s windows
            # 3 warm-up windows, 5 for the largest model and a spare.
            (["monitor", "gcc"], 9),
            (["serve"], 9),
            (["explain", "gcc"], 9),
            (["table3"], 9),
            (["select", "cpu"], 11),  # up to 7 parameters
        ],
    )
    def test_duration_floor(self, capsys, argv, floor):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--duration", str(floor - 0.5)])
        assert exit_info.value.code == 2
        assert f"--duration must be at least {floor} s" in capsys.readouterr().err
        with pytest.raises(_Reached):
            main([*argv, "--duration", str(floor)])

    @pytest.mark.parametrize("tick", ["700", "30", "0.3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["monitor", "gcc"], ["monitor", "--fleet", "2"],
            ["monitor", "--nodes", "2"], ["datacenter"],
        ],
        ids=["server", "fleet", "cluster", "datacenter"],
    )
    def test_a_counted_second_is_one_second(self, capsys, argv, tick):
        """These commands count a second in ticks: at 700 ms a 30 s
        monitor run used to end at t=21 s, at 30 ms at t=29.7 s."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--tick-ms", tick])
        assert exit_info.value.code == 2
        assert "--tick-ms must divide one second" in capsys.readouterr().err

    @pytest.mark.parametrize("tick", ["700", "30", "0.3", "1000"])
    def test_other_commands_take_any_tick_up_to_the_period(self, capsys, tick):
        from repro.cli import main

        with pytest.raises(_Reached):
            main(["run", "gcc", "--tick-ms", tick])
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "gcc", "--tick-ms", "1000.5"])
        assert exit_info.value.code == 2
        assert "--tick-ms must not exceed the 1000 ms sample period" in (
            capsys.readouterr().err
        )


class TestAlertLog:
    """The monitor's alert log once the drift history is full: every
    transition is printed or counted as dropped, and the done lines
    report the true count, not the history's capped length."""

    @staticmethod
    def _monitor(fleet: bool):
        from repro.obs.drift import DriftMonitor
        from repro.obs.fleet import FleetDriftMonitor

        # alpha 1 (no smoothing): each window flips every stream.
        if fleet:
            return FleetDriftMonitor(2, alpha=1.0, min_windows=1, max_history=4)
        return DriftMonitor(alpha=1.0, min_windows=1, max_history=4)

    @pytest.mark.parametrize("fleet", [False, True], ids=["scalar", "fleet"])
    def test_every_transition_is_printed_or_counted(self, fleet):
        import numpy as np

        from repro import cli

        drift = self._monitor(fleet)
        width = 2 if fleet else 1
        seen, window, out = 0, 0, StringIO()
        with redirect_stdout(out):
            # Bursts of 3 and 5 windows overflow the 4-entry history.
            for burst in (1, 1, 3, 1, 5, 3):
                for _ in range(burst):
                    window += 1
                    estimate = 200.0 if window % 2 else 100.0
                    if fleet:
                        drift.observe(
                            float(window), {"cpu": np.full(width, estimate)},
                            {"cpu": np.full(width, 100.0)},
                        )
                    else:
                        drift.observe(
                            float(window), {"cpu": estimate}, {"cpu": 100.0}
                        )
                seen = cli._report_alerts(drift, seen)
        lines = out.getvalue().splitlines()
        printed = [line for line in lines if "ALERT" in line]
        dropped = sum(
            int(match.group(1))
            for line in lines
            for match in [re.match(r"monitor: (\d+) alert transition", line)]
            if match
        )
        # cpu and total flip on each of the 14 windows, in every lane;
        # the last window resolves them.
        assert drift.n_transitions == seen == 2 * width * 14
        assert len(printed) + dropped == drift.n_transitions
        assert dropped > 0
        assert "ALERT resolved" in printed[-1]
        assert len(drift.history()) == 4

    def test_fleet_rollups_count_every_transition(self):
        """``/fleet``'s alert rollups count every transition, not the
        ones left in the bounded history."""
        import numpy as np

        from repro.obs.fleet import FleetMonitor
        from repro.simulator.config import fast_config
        from repro.simulator.fleet import FleetServer
        from repro.workloads.registry import get_workload

        drift = self._monitor(fleet=True)
        monitor = FleetMonitor(suite=None, drift=drift)
        fleet = FleetServer(fast_config(), get_workload("gcc"), [1, 2])
        fleet.attach_fleet_monitor(monitor)
        for window in range(1, 15):
            estimate = 200.0 if window % 2 else 100.0
            drift.observe(
                float(window), {"cpu": np.full(2, estimate)},
                {"cpu": np.full(2, 100.0)},
            )
        # cpu and total fire on the 7 odd windows and resolve on the 7
        # even ones, in both lanes.
        assert monitor.fleet_document()["alerts"] == {
            "total": 56, "firing": 28, "resolved": 28,
        }
        assert len(drift.history()) == 4

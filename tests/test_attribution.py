"""Tests for per-term attribution and the flight recorder.

Covers the tentpole contract from both ends: attribution is **exact**
(term watts sum to the prediction to 1e-9, for every model kind and
the fitted paper suite), opt-in on the estimator, carried through the
drift monitor's alerts, and reproduces the paper's Section 5 mcf
diagnosis; the flight recorder keeps a bounded ring of recent state
and dumps a self-contained bundle on drift alerts, failed sweeps,
unhandled exceptions and explicit requests, which ``repro-power
explain --bundle`` can pretty-print from a fresh process.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

from repro import obs
from repro.baselines.heath import HeathOsModel
from repro.baselines.janzen import JanzenMemoryModel
from repro.baselines.zedlewski import ZedlewskiDiskModel
from repro.core.estimator import SystemPowerEstimator
from repro.core.events import Subsystem
from repro.core.features import FeatureSet
from repro.core.models import ConstantModel, PolynomialModel
from repro.obs import flight as flight_mod
from repro.obs.attribution import (
    Attribution,
    attribute_run,
    attribute_sample,
    diagnose,
)
from repro.obs.drift import DriftMonitor
from repro.obs.flight import BUNDLE_JSON, BUNDLE_METRICS, FlightRecorder, load_bundle
from repro.obs.http import ObservabilityServer
from repro.obs.live import LiveMonitor, WindowedRegistry
from repro.simulator.config import fast_config
from repro.simulator.system import Server
from repro.workloads.registry import get_workload
from tests.conftest import TEST_SEED
from tests.test_live_obs import _run_folding
from tests.test_models import synthetic_trace

#: The acceptance bound: attribution must be exact to float round-off.
ATOL = 1e-9


@pytest.fixture(autouse=True)
def clean_obs_and_flight():
    """Telemetry and the global recorder are process state; stay clean."""
    previous = flight_mod.set_global(None)
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    flight_mod.set_global(previous)


def _assert_terms_sum_to(terms, expected):
    total = np.sum(list(terms.values()), axis=0)
    np.testing.assert_allclose(total, expected, atol=ATOL, rtol=0.0)


class TestAttributionExactness:
    def test_linear_model_terms_sum_exactly(self):
        trace = synthetic_trace()
        model = PolynomialModel(
            FeatureSet.of("active_fraction", "fetched_uops_per_cycle"),
            degree=1,
            coefficients=[35.0, 20.0, 5.0],
        )
        terms = model.attribute(trace)
        assert set(terms) == {
            "intercept",
            "active_fraction",
            "fetched_uops_per_cycle",
        }
        _assert_terms_sum_to(terms, model.predict(trace))
        np.testing.assert_allclose(terms["intercept"], 35.0)

    def test_quadratic_model_terms_sum_exactly(self):
        trace = synthetic_trace()
        model = PolynomialModel(
            FeatureSet.of("fetched_uops_per_cycle"),
            degree=2,
            coefficients=[28.0, 3.43, 7.66],
        )
        terms = model.attribute(trace)
        assert set(terms) == {
            "intercept",
            "fetched_uops_per_cycle",
            "fetched_uops_per_cycle^2",
        }
        _assert_terms_sum_to(terms, model.predict(trace))

    def test_constant_model_single_term(self):
        trace = synthetic_trace(n=5)
        terms = ConstantModel(19.9).attribute(trace)
        assert list(terms) == ["constant"]
        _assert_terms_sum_to(terms, np.full(5, 19.9))

    def test_paper_suite_attribution_is_exact(self, paper_suite, training_runs):
        for run in training_runs.values():
            trace = run.counters
            for subsystem, terms in paper_suite.attribute_all(trace).items():
                _assert_terms_sum_to(terms, paper_suite.predict(subsystem, trace))

    def test_janzen_baseline_attribution_is_exact(self, mcf_run):
        model = JanzenMemoryModel.fit(mcf_run)
        terms = model.attribute(mcf_run.counters)
        assert set(terms) == set(JanzenMemoryModel.TERM_NAMES)
        _assert_terms_sum_to(terms, model.predict(mcf_run.counters))

    def test_zedlewski_baseline_attribution_is_exact(self, diskload_run):
        model = ZedlewskiDiskModel.fit(diskload_run)
        terms = model.attribute(diskload_run.counters)
        assert set(terms) == set(ZedlewskiDiskModel.TERM_NAMES)
        _assert_terms_sum_to(terms, model.predict(diskload_run.counters))

    def test_heath_baseline_attribution_is_exact(self, gcc_run, diskload_run):
        model = HeathOsModel.fit(gcc_run, diskload_run)
        trace = gcc_run.counters
        terms = model.attribute(trace)
        _assert_terms_sum_to(
            terms, model.predict_cpu(trace) + model.predict_disk(trace)
        )


class TestEstimatorAttribution:
    def _sample(self, run, index=0):
        return {
            event: run.counters.per_cpu(event)[index]
            for event in run.counters.events
        }

    def test_disabled_by_default(self, paper_suite, idle_run):
        estimator = SystemPowerEstimator(paper_suite)
        estimate = estimator.estimate(self._sample(idle_run))
        assert estimator.attribute is False
        assert estimate.attribution is None
        assert "top terms" not in str(estimate)

    def test_enabled_terms_sum_to_subsystem_watts(self, paper_suite, gcc_run):
        estimator = SystemPowerEstimator(paper_suite, attribute=True)
        estimate = estimator.estimate(self._sample(gcc_run))
        attribution = estimate.attribution
        assert attribution is not None
        for subsystem, watts in estimate.subsystem_w.items():
            assert attribution.subsystem_total(subsystem) == pytest.approx(
                watts, abs=ATOL
            )
        assert attribution.total_w() == pytest.approx(estimate.total_w, abs=ATOL)

    def test_str_renders_breakdown_and_top_terms(self, paper_suite, gcc_run):
        estimator = SystemPowerEstimator(paper_suite, attribute=True)
        text = str(estimator.estimate(self._sample(gcc_run)))
        assert "total=" in text and "cpu=" in text
        assert "top terms:" in text

    def test_estimate_trace_attributes_every_sample(self, paper_suite, idle_run):
        estimator = SystemPowerEstimator(paper_suite, attribute=True)
        estimates = estimator.estimate_trace(idle_run.counters)
        assert estimates
        for estimate in estimates:
            assert estimate.attribution is not None
            assert estimate.attribution.total_w() == pytest.approx(
                estimate.total_w, abs=ATOL
            )

    def test_attribute_sample_matches_estimator(self, paper_suite, gcc_run):
        attribution = attribute_sample(paper_suite, gcc_run.counters, index=0)
        total = paper_suite.predict_total(gcc_run.counters)[0]
        assert attribution.total_w() == pytest.approx(float(total), abs=ATOL)


class TestAttributionObject:
    def _attribution(self):
        return Attribution(
            terms_w={
                "cpu": {"intercept": 35.0, "fetched_uops_per_cycle": -6.0},
                "disk": {"intercept": 10.0},
            },
            residual_w={"cpu": -4.0},
        )

    def test_top_terms_by_magnitude(self):
        attribution = self._attribution()
        assert attribution.top_terms("cpu", n=1) == [("intercept", 35.0)]
        # Ranked by |watts|, so the negative term beats the disk one.
        assert attribution.top_terms(n=3) == [
            ("cpu/intercept", 35.0),
            ("disk/intercept", 10.0),
            ("cpu/fetched_uops_per_cycle", -6.0),
        ]
        assert attribution.top_terms("nvram") == []

    def test_round_trip_and_totals(self):
        attribution = self._attribution()
        clone = Attribution.from_dict(
            json.loads(json.dumps(attribution.to_dict()))
        )
        assert clone == attribution
        assert clone.subsystem_total("cpu") == pytest.approx(29.0)
        assert clone.total_w() == pytest.approx(39.0)
        assert "W" in clone.describe()


class TestMcfDiagnosis:
    """The acceptance scenario: the paper's Section 5 analysis, computed."""

    def test_cpu_under_attribution_on_mcf(self, paper_suite, mcf_run):
        report = attribute_run(paper_suite, mcf_run, workload="mcf")
        cpu = report.subsystems["cpu"]
        assert "fetched_uops_per_cycle" in cpu.terms_w
        # Speculative execution is invisible to fetched uops: true CPU
        # power runs above the modeled watts (under-attribution).
        assert cpu.residual_w is not None and cpu.residual_w > 0
        assert cpu.error_pct is not None
        sentence = diagnose(cpu, n=1)
        assert "under-attributes" in sentence
        assert cpu.subsystem == "cpu"

    def test_report_rows_are_consistent(self, paper_suite, mcf_run):
        report = attribute_run(paper_suite, mcf_run, workload="mcf")
        assert report.workload == "mcf"
        assert report.n_samples == mcf_run.counters.n_samples
        for sub in report.subsystems.values():
            assert sum(sub.terms_w.values()) == pytest.approx(
                sub.modeled_w, abs=1e-6
            )
            shares = [sub.share_pct(term) for term in sub.terms_w]
            assert sum(shares) == pytest.approx(100.0, abs=1e-6)
        json.dumps(report.to_dict())  # serialisable as-is


class TestDriftAlertTopTerms:
    def test_firing_alert_names_offending_terms(self):
        monitor = DriftMonitor(min_windows=1)
        attribution = Attribution(
            terms_w={"cpu": {"intercept": 120.0, "fetched_uops_per_cycle": 80.0}}
        )
        transitions = monitor.observe(
            1.0, {"cpu": 200.0}, {"cpu": 100.0}, attribution=attribution
        )
        by_stream = {t.subsystem: t for t in transitions}
        assert by_stream["cpu"].top_terms[0] == ("intercept", 120.0)
        # The synthetic total stream namespaces terms across subsystems.
        assert by_stream["total"].top_terms[0] == ("cpu/intercept", 120.0)
        assert by_stream["cpu"].to_dict()["top_terms"] == [
            ["intercept", 120.0],
            ["fetched_uops_per_cycle", 80.0],
        ]

    def test_without_attribution_alerts_have_no_terms(self):
        monitor = DriftMonitor(min_windows=1)
        transitions = monitor.observe(1.0, {"cpu": 200.0}, {"cpu": 100.0})
        assert all(t.top_terms == () for t in transitions)
        assert monitor.unresolved()  # still listed for /healthz


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record(float(i), true_w=float(i))
        frames = recorder.frames()
        assert len(frames) == 4
        assert [f["t_s"] for f in frames] == [6.0, 7.0, 8.0, 9.0]

    def test_trigger_writes_loadable_bundle(self, tmp_path):
        recorder = FlightRecorder(out_dir=str(tmp_path))
        recorder.record(
            1.0,
            attribution=Attribution(terms_w={"cpu": {"intercept": 35.0}}),
            true_w=40.0,
            estimated_w=35.0,
        )
        path = recorder.trigger("unit.test", detail={"why": "testing"})
        assert path is not None
        assert os.path.isfile(os.path.join(path, BUNDLE_JSON))
        assert os.path.isfile(os.path.join(path, BUNDLE_METRICS))
        doc = load_bundle(path)
        assert doc["reason"] == "unit.test"
        assert doc["detail"] == {"why": "testing"}
        assert doc["frames"][0]["attribution"]["terms_w"]["cpu"]["intercept"] == 35.0
        assert doc["attribution"]["terms_w"]["cpu"]["intercept"] == 35.0
        # load_bundle accepts the bundle.json path too.
        assert load_bundle(os.path.join(path, BUNDLE_JSON)) == doc

    def test_trigger_without_out_dir_is_a_noop(self):
        recorder = FlightRecorder()
        assert recorder.trigger("nowhere") is None
        assert recorder.bundles == []

    def test_max_bundles_caps_flapping_alerts(self, tmp_path):
        recorder = FlightRecorder(out_dir=str(tmp_path), max_bundles=2)
        assert recorder.trigger("flap") is not None
        assert recorder.trigger("flap") is not None
        assert recorder.trigger("flap") is None
        assert len(recorder.bundles) == 2
        assert recorder.to_json()["bundles"] == recorder.bundles

    def test_load_bundle_rejects_non_bundles(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(str(tmp_path / "missing"))
        stray = tmp_path / "stray.json"
        stray.write_text('{"kind": "other"}')
        with pytest.raises(ValueError, match="not a flight-recorder bundle"):
            load_bundle(str(stray))

    def test_crashing_command_dumps_one_bundle_and_reraises(
        self, tmp_path, monkeypatch
    ):
        from repro import cli

        def crash():
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "render_propagation_diagram", crash)
        outer = FlightRecorder(out_dir=str(tmp_path / "outer"))
        flight_mod.set_global(outer)
        hook = sys.excepthook
        flight = tmp_path / "flight"
        with pytest.raises(RuntimeError, match="boom"):
            cli.main(["fig1", "--flight-dir", str(flight)])
        (bundle,) = os.listdir(flight)
        doc = load_bundle(str(flight / bundle))
        assert doc["reason"] == "unhandled_exception"
        assert doc["detail"] == {"type": "RuntimeError", "error": "boom"}
        assert sys.excepthook is hook
        assert flight_mod.get_global() is outer
        assert outer.bundles == []

    def test_global_recorder_and_env_fallback(self, tmp_path, monkeypatch):
        assert flight_mod.trigger_global("no.recorder") is None
        recorder = FlightRecorder(out_dir=str(tmp_path / "global"))
        flight_mod.set_global(recorder)
        assert flight_mod.trigger_global("via.global") is not None
        assert recorder.bundles
        flight_mod.clear_global()
        # Without a global recorder, REPRO_FLIGHT_DIR drives an ad-hoc one.
        env_dir = tmp_path / "env"
        monkeypatch.setenv(flight_mod.FLIGHT_DIR_ENV, str(env_dir))
        path = flight_mod.dump_failure_bundle("ci.gate", detail={"n": 1})
        assert path is not None and str(env_dir) in path
        monkeypatch.delenv(flight_mod.FLIGHT_DIR_ENV)
        assert flight_mod.dump_failure_bundle("no.dir") is None


DURATION_TICKS = 2000  # 20 s at the fast config's 10 ms tick


class TestDriftAlertBundle:
    """Acceptance: an injected drift alert dumps a usable bundle."""

    def test_miscalibrated_monitor_dumps_on_firing(self, paper_suite, tmp_path):
        obs.enable()
        recorder = FlightRecorder(out_dir=str(tmp_path))
        monitor = LiveMonitor(
            SystemPowerEstimator(paper_suite.scaled(1.5), attribute=True),
            flight=recorder,
        )
        endpoint = ObservabilityServer(
            drift=monitor.drift, windows=WindowedRegistry(), flight=recorder
        )
        # Wired as the CLI's endpoint bring-up wires the recorder.
        recorder.drift = monitor.drift
        recorder.windows = endpoint.windows
        server = Server(fast_config(), get_workload("gcc"), seed=TEST_SEED)
        server.attach_monitor(monitor)
        _run_folding(server, DURATION_TICKS, endpoint.windows)
        assert "total" in monitor.drift.firing
        assert recorder.bundles
        doc = load_bundle(recorder.bundles[0])
        assert doc["reason"] == "drift.alert"
        assert doc["detail"]["state"] == "firing"
        # The alert names its offenders without a second query.
        assert doc["detail"]["top_terms"]
        assert doc["drift"]["firing"]
        assert doc["windows"]["windows"]
        assert "cpu" in doc["attribution"]["terms_w"]
        frames = [f for f in doc["frames"] if "true_w" in f]
        assert frames and frames[-1]["error_pct"] > 0


class TestSweepFailureBundle:
    """Acceptance: a FaultPlan-killed sweep leaves a post-mortem."""

    def test_permanent_failure_triggers_global_recorder(self, tmp_path):
        from repro.exec import FaultPlan, RetryPolicy, SweepSpec, sweep_specs

        recorder = FlightRecorder(out_dir=str(tmp_path))
        flight_mod.set_global(recorder)
        specs = [
            SweepSpec(
                workload="idle", seed=7, duration_s=5.0, config=fast_config()
            )
        ]
        result = sweep_specs(
            specs,
            n_workers=1,
            retry=RetryPolicy(max_attempts=1, base_delay=0.01),
            faults=FaultPlan(fail={0: 99}),
            allow_partial=True,
        )
        assert result.failed
        assert recorder.bundles
        doc = load_bundle(recorder.bundles[0])
        assert doc["reason"] == "sweep.failed"
        assert doc["detail"]["n_failed"] == 1
        assert "idle" in doc["detail"]["failed"]["0"]

    def test_sweep_error_path_also_dumps(self, tmp_path):
        from repro.exec import (
            FaultPlan,
            RetryPolicy,
            SweepError,
            SweepSpec,
            sweep_specs,
        )

        recorder = FlightRecorder(out_dir=str(tmp_path))
        flight_mod.set_global(recorder)
        specs = [
            SweepSpec(
                workload="idle", seed=7, duration_s=5.0, config=fast_config()
            )
        ]
        with pytest.raises(SweepError):
            sweep_specs(
                specs,
                n_workers=1,
                retry=RetryPolicy(max_attempts=1, base_delay=0.01),
                faults=FaultPlan(fail={0: 99}),
            )
        assert recorder.bundles


class TestExplainCli:
    COMMON = ["--duration", "20", "--tick-ms", "50", "--seed", "7"]

    def test_explain_prints_attribution_tables(self, capsys):
        from repro.cli import main

        assert main(["explain", "gcc", *self.COMMON]) == 0
        out = capsys.readouterr().out
        assert "attribution vs measured power" in out
        assert "Per-term attribution" in out
        assert "dominant term" in out
        assert "explain: cpu: estimate is carried by" in out

    def test_explain_rejects_unknown_workload(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["explain", "no-such-workload", *self.COMMON])

    def test_explain_bundle_pretty_prints_fresh_process_shape(
        self, tmp_path, capsys
    ):
        # Build a bundle the way the monitor would, then print it via
        # the CLI entry point a fresh process would hit.
        drift = DriftMonitor(min_windows=1)
        attribution = Attribution(
            terms_w={"cpu": {"intercept": 35.0, "fetched_uops_per_cycle": 6.0}},
            residual_w={"cpu": -4.0},
        )
        drift.observe(1.0, {"cpu": 200.0}, {"cpu": 100.0}, attribution=attribution)
        recorder = FlightRecorder(out_dir=str(tmp_path), drift=drift)
        recorder.record(
            1.0,
            attribution=attribution,
            true_w=100.0,
            estimated_w=200.0,
            error_pct=100.0,
        )
        path = recorder.trigger(
            "drift.alert", detail={"subsystem": "cpu", "state": "firing"}
        )
        assert path is not None

        from repro.cli import main

        assert main(["explain", "--bundle", path]) == 0
        out = capsys.readouterr().out
        assert "flight bundle: drift.alert" in out
        assert "trigger detail" in out
        assert "Latest attribution" in out
        assert "fetched_uops_per_cycle" in out
        assert "residual (est-true): cpu -4.0W" in out

    def test_explain_bundle_missing_path_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["explain", "--bundle", str(tmp_path / "nope")]) == 1
        assert "cannot read bundle" in capsys.readouterr().out

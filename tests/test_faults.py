"""Fault-tolerance tests: the sweep engine under injected failure.

The contract under test is strong: a sweep disturbed by worker
crashes, per-task exceptions, timeouts, torn cache files or a mid-run
parent kill must end up with runs **bit-identical** to an undisturbed
serial sweep — fault tolerance may change the execution path, never
the data.  Faults are injected deterministically through
:mod:`repro.exec.faults`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import repro
from repro import obs
from repro.exec import (
    FaultInjected,
    FaultPlan,
    RetryPolicy,
    RunCache,
    SweepError,
    SweepSpec,
    TearingCache,
    run_spec,
    sweep_specs,
)
from repro.exec.faults import FAULT_PLAN_ENV, PARENT_KILL_EXIT
from repro.simulator.config import SystemConfig, fast_config

from tests.test_exec import _assert_runs_identical

DURATION_S = 15.0

#: Fast policy so retry tests do not sleep through real backoff.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01)


@pytest.fixture(scope="module")
def specs() -> "list[SweepSpec]":
    # A stray fault plan in the environment would disturb every sweep
    # in this module; the tests pass plans explicitly instead.
    os.environ.pop(FAULT_PLAN_ENV, None)
    config = fast_config()
    return [
        SweepSpec(workload=name, seed=7, duration_s=DURATION_S, config=config)
        for name in ("idle", "gcc", "DiskLoad")
    ]


@pytest.fixture(scope="module")
def reference(specs):
    """The undisturbed serial sweep every fault run must reproduce."""
    return sweep_specs(specs, n_workers=1).runs


def _assert_all_identical(reference, runs) -> None:
    assert len(reference) == len(runs)
    for ref, run in zip(reference, runs):
        _assert_runs_identical(ref, run)


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay_s=0.5)
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.2)
        assert policy.delay_s(3) == pytest.approx(0.4)
        assert policy.delay_s(4) == pytest.approx(0.5)
        assert policy.delay_s(10) == pytest.approx(0.5)

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestFaultPlan:
    def test_env_round_trip(self, monkeypatch):
        plan = FaultPlan(fail={1: 2}, kill={0: 1}, hang={2: 1}, hang_s=3.0,
                         exit_parent_after=4)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_env())
        loaded = FaultPlan.from_env()
        assert loaded == plan

    def test_from_env_absent_and_malformed(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULT_PLAN_ENV, "{not json")
        assert FaultPlan.from_env() is None  # warns, never crashes a sweep
        monkeypatch.setenv(FAULT_PLAN_ENV, "{}")
        assert FaultPlan.from_env() is None  # empty plan == no plan

    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(11, 20, fail_rate=0.5, kill_rate=0.3)
        b = FaultPlan.seeded(11, 20, fail_rate=0.5, kill_rate=0.3)
        assert a == b
        assert a.fail or a.kill  # 20 indices at these rates hit something
        assert all(0 <= i < 20 for i in {*a.fail, *a.kill})

    def test_injected_exception_counts_attempts(self):
        plan = FaultPlan(fail={0: 2})
        with pytest.raises(FaultInjected):
            plan.apply_in_process(0, 0)
        with pytest.raises(FaultInjected):
            plan.apply_in_process(0, 1)
        plan.apply_in_process(0, 2)  # third attempt passes
        plan.apply_in_process(1, 0)  # other specs untouched


class TestFaultRecovery:
    def test_task_exception_retries_to_identical_result(self, specs, reference):
        result = sweep_specs(
            specs, n_workers=2, retry=FAST_RETRY, faults=FaultPlan(fail={1: 1})
        )
        assert result.retries >= 1
        assert not result.failed
        _assert_all_identical(reference, result.runs)

    def test_worker_kill_recovers_bit_identical(self, specs, reference):
        result = sweep_specs(
            specs, n_workers=2, retry=FAST_RETRY, faults=FaultPlan(kill={0: 1})
        )
        assert result.worker_failures >= 1
        assert not result.degraded
        _assert_all_identical(reference, result.runs)

    def test_unrecoverable_pool_degrades_to_serial(self, specs, reference):
        """A worker that dies on every attempt can never finish in the
        pool; the sweep must fall back to in-process execution (where
        kill faults cannot reach) and still produce identical runs."""
        result = sweep_specs(
            specs,
            n_workers=2,
            retry=FAST_RETRY,
            faults=FaultPlan(kill={i: 99 for i in range(len(specs))}),
        )
        assert result.degraded
        assert result.worker_failures >= 1
        assert not result.failed
        _assert_all_identical(reference, result.runs)

    def test_timeout_fault_retries_to_identical_result(self, specs, reference):
        result = sweep_specs(
            specs,
            n_workers=2,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01, timeout_s=1.0),
            faults=FaultPlan(hang={0: 1}, hang_s=3.0),
        )
        assert result.retries >= 1
        assert not result.failed
        _assert_all_identical(reference, result.runs)

    def test_serial_execution_ignores_kill_faults(self, specs, reference):
        result = sweep_specs(
            specs, n_workers=1, retry=FAST_RETRY, faults=FaultPlan(kill={0: 99})
        )
        assert result.worker_failures == 0
        _assert_all_identical(reference, result.runs)

    def test_retry_exhaustion_raises_with_partial_result(self, specs):
        policy = RetryPolicy(max_attempts=2, base_delay=0.01)
        faults = FaultPlan(fail={2: 99})
        with pytest.raises(SweepError) as excinfo:
            sweep_specs(specs, n_workers=2, retry=policy, faults=faults)
        assert "DiskLoad" in str(excinfo.value)
        assert 2 in excinfo.value.result.failed

    def test_allow_partial_reports_failed_specs(self, specs, reference):
        result = sweep_specs(
            specs,
            n_workers=2,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01),
            faults=FaultPlan(fail={2: 99}),
            allow_partial=True,
        )
        assert set(result.failed) == {2}
        assert "FaultInjected" in result.failed[2]
        assert result.runs[2] is None
        for i in (0, 1):
            _assert_runs_identical(reference[i], result.runs[i])

    def test_retry_counters_and_events_in_telemetry(
        self, specs, reference, tmp_path
    ):
        """Each fault kind surfaces through its own counter, in the
        dumped ``metrics.prom`` too, and a ``sweep.retry`` trace event
        (kill and fail injected in separate sweeps: a worker death can
        pre-empt a queued task's injected exception, which would make a
        combined assertion racy)."""

        def dumped_prom(name: str) -> str:
            paths = obs.dump(str(tmp_path / name))
            with open(paths["metrics.prom"], encoding="utf-8") as handle:
                return handle.read()

        obs.enable()
        obs.reset()
        try:
            result = sweep_specs(
                specs, n_workers=2, retry=FAST_RETRY, faults=FaultPlan(kill={0: 1})
            )
            assert obs.counter("sweep_worker_failures_total") >= 1
            assert "sweep_worker_failures_total" in dumped_prom("kill")
            kinds = {
                e["attrs"].get("kind")
                for e in obs.tracer().events_copy()
                if e["name"] == "sweep.retry"
            }
            assert "worker_death" in kinds
            _assert_all_identical(reference, result.runs)

            obs.reset()
            result = sweep_specs(
                specs, n_workers=2, retry=FAST_RETRY, faults=FaultPlan(fail={1: 1})
            )
            assert obs.counter("sweep_retries_total") >= 1
            assert "sweep_retries_total" in dumped_prom("fail")
            kinds = {
                e["attrs"].get("kind")
                for e in obs.tracer().events_copy()
                if e["name"] == "sweep.retry"
            }
            assert "exception" in kinds
            _assert_all_identical(reference, result.runs)
        finally:
            obs.disable()
            obs.reset()

    def test_failed_attempt_leaves_errored_span(self, specs):
        """A retried serial attempt records a ``sweep.run_spec`` span
        tagged with the exception type (workers lose their snapshot
        with the crash, so only in-process attempts surface here)."""
        obs.enable()
        obs.reset()
        try:
            sweep_specs(
                specs[:1], n_workers=1, retry=FAST_RETRY,
                faults=FaultPlan(fail={0: 1}),
            )
            errored = [
                e
                for e in obs.tracer().events_copy()
                if e["name"] == "sweep.run_spec"
                and e["attrs"].get("error") == "FaultInjected"
            ]
            assert len(errored) == 1
        finally:
            obs.disable()
            obs.reset()


class TestCheckpointResume:
    def test_completed_runs_survive_a_failed_sweep(
        self, specs, reference, tmp_path
    ):
        """Specs that completed before a permanent failure are already
        checkpointed; re-running with the same cache resumes from them
        and produces identical runs."""
        cache = RunCache(str(tmp_path))
        first = sweep_specs(
            specs,
            n_workers=1,
            cache=cache,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01),
            faults=FaultPlan(fail={2: 99}),
            allow_partial=True,
        )
        assert set(first.failed) == {2}
        stored = [n for n in os.listdir(tmp_path) if n.startswith("run-")]
        assert len(stored) == 2  # the completed specs, checkpointed

        resumed = sweep_specs(specs, n_workers=2, cache=RunCache(str(tmp_path)))
        assert resumed.cache_stats_hits == 2
        assert resumed.simulated == [2]
        assert not resumed.failed
        _assert_all_identical(reference, resumed.runs)

    def test_cli_kill_and_resume_cycle(self, tmp_path):
        """``repro-power sweep`` killed mid-run (hard parent exit after
        the first checkpoint) must resume to runs bit-identical to an
        uninterrupted sweep."""
        cache_dir = tmp_path / "cache"
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = {
            **os.environ,
            "PYTHONPATH": src_dir + os.pathsep + os.environ.get("PYTHONPATH", ""),
        }
        env.pop("REPRO_CACHE_DIR", None)
        env.pop(FAULT_PLAN_ENV, None)
        base_cmd = [
            sys.executable, "-m", "repro.cli", "sweep", "idle,gcc",
            "--duration", str(DURATION_S), "--cache-dir", str(cache_dir),
            "--workers", "1",
        ]

        killed = subprocess.run(
            base_cmd,
            env={**env, FAULT_PLAN_ENV: json.dumps({"exit_parent_after": 1})},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert killed.returncode == PARENT_KILL_EXIT, killed.stderr
        stored = [n for n in os.listdir(cache_dir) if n.startswith("run-")]
        assert len(stored) == 1  # died after the first checkpoint

        resumed = subprocess.run(
            base_cmd + ["--resume"],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming — 1/2" in resumed.stdout

        # The CLI context: 10 ms tick, seed 7, 3 warmup windows.
        cache = RunCache(str(cache_dir))
        config = SystemConfig(tick_s=0.01)
        for name in ("idle", "gcc"):
            spec = SweepSpec(
                workload=name,
                seed=7,
                duration_s=DURATION_S,
                config=config,
                warmup_windows=3,
            )
            cached = cache.load(spec.key())
            assert cached is not None
            _assert_runs_identical(run_spec(spec), cached)


class TestTornFiles:
    def test_torn_run_file_is_a_miss_and_heals(self, specs, tmp_path):
        spec = specs[0]
        cache = TearingCache(str(tmp_path), tear_next_runs=1)
        run = run_spec(spec)
        cache.store(spec.key(), run)  # write lands, then tears
        assert cache.load(spec.key()) is None  # torn file == miss
        cache.store(spec.key(), run)  # tear budget spent: heals
        loaded = cache.load(spec.key())
        assert loaded is not None
        _assert_runs_identical(run, loaded)

    def test_sweep_through_tearing_cache_still_identical(
        self, specs, reference, tmp_path
    ):
        cache = TearingCache(str(tmp_path), tear_next_runs=1)
        first = sweep_specs(specs, n_workers=1, cache=cache)
        _assert_all_identical(reference, first.runs)
        # One checkpoint was torn; the next sweep re-simulates exactly
        # that spec and heals the entry.
        second = sweep_specs(specs, n_workers=1, cache=cache)
        assert len(second.simulated) == 1
        _assert_all_identical(reference, second.runs)
        third = sweep_specs(specs, n_workers=1, cache=cache)
        assert third.simulated == []
        _assert_all_identical(reference, third.runs)

    def test_torn_index_starts_fresh_without_losing_runs(
        self, specs, tmp_path
    ):
        spec = specs[0]
        cache = TearingCache(str(tmp_path), tear_next_index=1)
        run = run_spec(spec)
        cache.store(spec.key(), run)  # index torn right after this write
        assert cache.index() == {}  # unreadable -> fresh (warned)
        loaded = cache.load(spec.key())  # run files are untouched
        assert loaded is not None
        other = specs[1]
        cache.store(other.key(), run_spec(other))
        assert other.key() in cache.index()  # index rebuilt


class TestSatelliteRegressions:
    def test_stats_survive_index_write_failure(self, specs, tmp_path):
        """An ``OSError`` during the index write must keep the deltas
        unflushed — the old code advanced ``_flushed`` first and lost
        them forever."""
        spec = specs[0]
        cache = RunCache(str(tmp_path))
        cache.store(spec.key(), run_spec(spec))
        assert cache.load(spec.key()) is not None
        assert cache.stats.hits == 1

        def boom(index):
            raise OSError("disk full")

        cache._write_index = boom  # instance-level patch
        cache.persist_stats()  # warns; must NOT discard the hit delta
        assert cache._flushed.hits == 0
        del cache._write_index
        cache.persist_stats()
        assert RunCache(str(tmp_path)).lifetime_stats().hits == 1

    def test_index_add_survives_unserialisable_metadata(self, tmp_path):
        """``json.dump`` raising ``TypeError`` on odd run metadata must
        log a warning, not crash a sweep whose simulation succeeded."""
        cache = RunCache(str(tmp_path))
        os.makedirs(cache.root, exist_ok=True)
        stub = SimpleNamespace(
            workload="x",
            n_samples=1,
            duration_s=1.0,
            metadata={"base_seed": {1, 2}},  # a set: not JSON-serialisable
        )
        cache._index_add("f" * 64, stub)  # must not raise
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []

    def test_duplicate_specs_allowed_via_sweep_specs(self, specs):
        """``sweep_specs`` (list-in, list-out) is the documented path
        for repeated runs of one workload — nothing collapses."""
        doubled = [specs[0], specs[0]]
        result = sweep_specs(doubled, n_workers=1)
        assert len(result.runs) == 2
        _assert_runs_identical(result.runs[0], result.runs[1])

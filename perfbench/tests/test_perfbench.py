"""Tests of the benchmark itself.

Fast tests (tracer arithmetic, quantile rule, refusal without source)
run by default::

    python3 -m pytest perfbench/tests -q

The sensitivity tests run the real workloads several times (about 30
minutes on a 2-core host), so they only run when asked for::

    PERFBENCH_SENSITIVITY=1 python3 -m pytest perfbench/tests -q -k sensitivity
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from workloads import quantile  # noqa: E402


def _span(sid, parent, start, end, name="f", layer="x", thread=1, n=None):
    return {"id": sid, "parent": parent, "name": name, "layer": layer,
            "start": start, "end": end, "thread": thread, "n": n}


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, 0, 0.0, 10.0, layer="outer"),
        _span(2, 1, 1.0, 4.0, layer="inner"),
        _span(3, 2, 2.0, 3.0, layer="leaf"),
        _span(4, 1, 5.0, 6.0, layer="inner"),
    ]
    own = tracer.self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    assert tracer.layer_table(spans, 0.0, 100.0) == {
        "outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_layer_table_leaves_out_waits_and_other_windows():
    spans = [
        _span(1, 0, 0.0, 5.0, name="BoundedQueue.get", layer="serve"),
        _span(2, 0, 6.0, 7.0, name="EstimationService.ingest", layer="serve"),
        _span(3, 0, 20.0, 21.0, name="EstimationService.ingest", layer="serve"),
        # Opens just before the window, like the span around the call
        # that marks the timed phase: counted by its midpoint.
        _span(4, 0, -0.001, 9.0, name="Datacenter.run", layer="dc"),
    ]
    assert tracer.layer_table(spans, 0.0, 10.0) == pytest.approx(
        {"serve": 1.0, "dc": 9.001})


def test_tracer_records_nested_spans_with_parents_and_counts(tmp_path):
    class Layer:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n

    module = type(sys)("perfbench_fake_layer")
    module.Layer = Layer
    sys.modules[module.__name__] = module
    try:
        rec = tracer.Tracer()
        tracer.patch(module.__name__, "Layer.outer",
                     rec.span_wrapper("Layer.outer", "a", None))
        tracer.patch(module.__name__, "Layer.inner",
                     rec.span_wrapper("Layer.inner", "b",
                                      lambda args, result: args[1]))
        tracer.patch(module.__name__, "Layer.inner",
                     rec.count_wrapper("inner.calls"))
        assert Layer().outer(7) == 8
        assert Layer().inner(3) == 3
        path = tmp_path / "spans.jsonl"
        rec.write(str(path))
    finally:
        del sys.modules[module.__name__]
    spans, trailer = tracer.load(str(path))
    by_name = {(s["name"], s["n"]): s for s in spans}
    outer = by_name[("Layer.outer", None)]
    nested = by_name[("Layer.inner", 7)]
    alone = by_name[("Layer.inner", 3)]
    assert nested["parent"] == outer["id"]
    assert alone["parent"] == 0
    assert trailer["counters"] == {"inner.calls": 2}


def test_quantile_needs_ten_samples_beyond_it():
    values = list(range(1, 200))
    assert quantile(values, 0.95) is None
    assert quantile(values + [200], 0.95) == 190
    assert quantile(list(range(20)), 0.5) == 9
    assert quantile(list(range(19)), 0.5) is None


def test_refuses_without_repository_source(tmp_path):
    """Only BENCHMARK.json and the benchmark: exit non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dc_cap",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- sensitivity: an injected slowdown must be flagged where it runs ----------

SENSITIVITY = os.environ.get("PERFBENCH_SENSITIVITY") == "1"
PAIRS = 3


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, inject: "str | None") -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(_bench()["run_seconds"]),
               "--trace", "0"]
    if inject:
        command += ["--inject", inject]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def _regressions(workload: str, inject: str) -> "list[str]":
    """End-to-end metrics whose injected median is worse than the plain
    median by more than the metric's bound (runs interleaved in pairs,
    alternating which side goes first)."""
    plain: "dict[str, list[float]]" = {}
    slowed: "dict[str, list[float]]" = {}
    for pair in range(PAIRS):
        order = [(plain, None), (slowed, inject)]
        if pair % 2:
            order.reverse()
        for sink, injection in order:
            for name, value in _run(workload, 1 + pair, injection).items():
                sink.setdefault(name, []).append(value)
    flagged = []
    for metric in _bench()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        base = statistics.median(plain[name])
        after = statistics.median(slowed[name])
        change = (after - base) / base
        worse = change > bound if metric["better"] == "lower" else -change > bound
        if worse:
            flagged.append(f"{name} {change:+.1%}")
    return flagged


@pytest.mark.skipif(not SENSITIVITY, reason="set PERFBENCH_SENSITIVITY=1")
@pytest.mark.parametrize("workload,expect", [
    ("dc_cap", True), ("fleet_monitor", True), ("serve_ingest", False),
])
def test_sensitivity_run_ticks_slowdown(workload, expect):
    flagged = _regressions(workload, "FleetServer.run_ticks=2.0")
    assert bool(flagged) == expect, flagged


@pytest.mark.skipif(not SENSITIVITY, reason="set PERFBENCH_SENSITIVITY=1")
@pytest.mark.parametrize("workload,expect", [
    ("serve_ingest", True), ("dc_cap", False), ("fleet_monitor", False),
])
def test_sensitivity_drift_observe_slowdown(workload, expect):
    flagged = _regressions(workload, "DriftMonitor.observe=2.0")
    assert bool(flagged) == expect, flagged

"""Benchmark regression gate: measure, compare against the baseline.

Measures a small set of runtime-cost metrics (the ones the paper's
"low computational cost" claim rests on, plus the simulator's own
throughput) and compares them against the checked-in
``BENCH_baseline.json``.  A metric that regresses by more than the
tolerance (default 20 %) in its bad direction fails the run with exit
code 1 — improvements never fail.  Metrics measured in this run but
absent from the baseline are reported as ``NEW`` and pass (rebaseline
with ``--update`` to start gating them).

Usage::

    PYTHONPATH=src python scripts/bench_compare.py            # compare
    PYTHONPATH=src python scripts/bench_compare.py --update   # rebaseline
    PYTHONPATH=src python scripts/bench_compare.py --tolerance 0.5
    PYTHONPATH=src python scripts/bench_compare.py --fleet-widths 64

Absolute times differ across machines, so compare against a baseline
recorded on the same class of hardware (CI re-records via ``--update``
when the runner fleet changes; ``BENCH_COMPARE_TOLERANCE`` widens the
gate for noisy shared runners).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_baseline.json")

sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro import obs  # noqa: E402
from repro.core.estimator import SystemPowerEstimator  # noqa: E402
from repro.core.training import ModelTrainer  # noqa: E402
from repro.exec import sweep  # noqa: E402
from repro.simulator.config import fast_config  # noqa: E402
from repro.simulator.fleet import FleetServer  # noqa: E402
from repro.simulator.system import Server, simulate_workload  # noqa: E402
from repro.workloads.registry import get_workload  # noqa: E402

#: Workloads the default recipe needs, simulated short for the gate.
_TRAIN_DURATION_S = 60.0
_TRAIN_SEED = 7

#: Fleet widths measured by default; CI narrows this via
#: ``BENCH_FLEET_WIDTHS`` (the smoke job runs width 64 only).
_DEFAULT_FLEET_WIDTHS = "1,64,256,1024"

#: Width whose throughput is published under the canonical metric name
#: (the acceptance gate: >= 10x the scalar ticks/s at width >= 256).
_FLEET_GATE_WIDTH = 256


def _fleet_metric_name(width: int) -> str:
    if width == _FLEET_GATE_WIDTH:
        return "simulator_fleet_ticks_per_s"
    return f"simulator_fleet_ticks_per_s_w{width}"


def _parse_fleet_widths(text: str) -> "list[int]":
    widths = [int(part) for part in text.split(",") if part.strip()]
    if any(width < 1 for width in widths):
        raise ValueError(f"fleet widths must be >= 1; got {text!r}")
    return widths


def _best_of(fn, rounds: int, budget_s: float = 0.25) -> float:
    """Best (smallest) per-call wall time over ``rounds`` timed batches."""
    best = float("inf")
    for _ in range(rounds):
        calls = 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < budget_s:
            fn()
            calls += 1
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed / calls)
    return best


def measure(fleet_widths: "list[int] | None" = None) -> "dict[str, dict]":
    """Run every gate metric; returns name -> {value, unit, direction}."""
    if fleet_widths is None:
        fleet_widths = _parse_fleet_widths(_DEFAULT_FLEET_WIDTHS)
    metrics: "dict[str, dict]" = {}

    # 1. Simulator tick throughput via the batched hot path.
    server = Server(fast_config(), get_workload("SPECjbb"), seed=3)
    server.run_ticks(200)  # warm caches and JIT-able paths
    per_batch = _best_of(lambda: server.run_ticks(100), rounds=8)
    metrics["simulator_ticks_per_s"] = {
        "value": 100.0 / per_batch,
        "unit": "ticks/s",
        "direction": "higher",
    }

    # 1b. Fleet throughput: aggregate lane-ticks/s of the SoA core.
    for width in fleet_widths:
        fleet = FleetServer(
            fast_config(), get_workload("SPECjbb"), [3 + i for i in range(width)]
        )
        fleet.run_ticks(50)  # warm
        per_batch = _best_of(lambda: fleet.run_ticks(100), rounds=3)
        metrics[_fleet_metric_name(width)] = {
            "value": width * 100.0 / per_batch,
            "unit": "lane-ticks/s",
            "direction": "higher",
        }

    # 1c'. Datacenter scenario throughput: the full per-second loop —
    # traffic, budget allocation, subsystem-level placement, fleet
    # step, counter read-out, per-pstate estimation — in simulated
    # node-seconds per wall second.
    from repro.dc import Datacenter, TrafficModel, ZoneSpec, train_zone_bank

    dc_calibration = train_zone_bank(fast_config(), duration_s=8.0, seed=901)
    dc_nodes = 128
    dc_per_zone = dc_nodes // 2
    dc_traffic = TrafficModel(
        (
            ZoneSpec("a", dc_per_zone, 0.75 * dc_per_zone * 8 * 25_000.0),
            ZoneSpec(
                "b",
                dc_per_zone,
                0.75 * dc_per_zone * 8 * 25_000.0,
                phase_s=10.0,
            ),
        ),
        period_s=20.0,
        seed=5,
    )
    dc_cap_w = 0.65 * dc_calibration.reference_peak_w * dc_nodes
    dc_duration_s = 10

    def _dc_scenario() -> None:
        Datacenter(
            dc_traffic,
            dc_cap_w,
            config=fast_config(),
            calibration=dc_calibration,
            seed=11,
        ).run(dc_duration_s)

    per_pass = _best_of(_dc_scenario, rounds=3)
    metrics["datacenter_node_seconds_per_s"] = {
        "value": dc_nodes * float(dc_duration_s) / per_pass,
        "unit": "node-s/s",
        "direction": "higher",
    }

    # 2/3. Estimator costs need a trained suite: short parallel sweep.
    trainer = ModelTrainer()
    runs = sweep(
        trainer.recipe.training_workloads,
        config=fast_config(),
        seed=_TRAIN_SEED,
        duration_s=_TRAIN_DURATION_S,
        warmup_windows=2,
    )
    suite = trainer.train(runs)

    # 1c. Monitored-fleet throughput: the width-64 fleet again, now
    # with the vectorized observability plane (FleetMonitor) attached
    # and evaluating the trained suite per closed sampler window.
    # Measured unconditionally — unlike the per-width fleet metrics,
    # this one always gates.
    from repro.obs.fleet import FleetMonitor

    monitored_width = 64
    fleet = FleetServer(
        fast_config(),
        get_workload("SPECjbb"),
        [3 + i for i in range(monitored_width)],
    )
    fleet.attach_fleet_monitor(FleetMonitor(suite))
    fleet.run_ticks(50)  # warm
    per_batch = _best_of(lambda: fleet.run_ticks(100), rounds=3)
    metrics["fleet_monitored_ticks_per_s"] = {
        "value": monitored_width * 100.0 / per_batch,
        "unit": "lane-ticks/s",
        "direction": "higher",
    }

    sample_run = runs[trainer.recipe.training_workloads[0]]
    counts = {
        event: sample_run.counters.per_cpu(event)[-1]
        for event in sample_run.counters.events
    }
    estimator = SystemPowerEstimator(suite)
    metrics["estimator_sample_latency_us"] = {
        "value": _best_of(lambda: estimator.estimate(counts, duration_s=1.0), rounds=5)
        * 1e6,
        "unit": "us",
        "direction": "lower",
    }
    metrics["suite_batch_predict_us"] = {
        "value": _best_of(lambda: suite.predict_total(sample_run.counters), rounds=5)
        * 1e6,
        "unit": "us",
        "direction": "lower",
    }

    # 4. Streaming-service ingest: the full decode -> shard -> batched
    # evaluate -> publish pipeline of repro.serve, on pre-encoded
    # columnar frames over the lean wire (only the events the suite
    # consumes), telemetry off — the ROADMAP's >= 100k samples/s gate.
    # A dedicated long source trace (600 simulated seconds, ~600
    # windows) keeps per-pass fixed costs from dominating the rate.
    from repro.serve import EstimationService, frames_from_run, required_events

    ingest_run = simulate_workload(
        get_workload("gcc"),
        config=fast_config(),
        seed=_TRAIN_SEED,
        duration_s=600.0,
    )
    service = EstimationService(suite, ops=False)
    frames = frames_from_run(
        ingest_run,
        "bench-node",
        frame_samples=64,
        events=required_events(suite),
        include_truth=False,
    )
    total_samples = ingest_run.counters.n_samples
    for line in frames:  # warm
        service.ingest_inline(line)

    def _ingest_all() -> None:
        for line in frames:
            service.ingest_inline(line)

    per_pass = _best_of(_ingest_all, rounds=5)
    metrics["ingest_samples_per_s"] = {
        "value": total_samples / per_pass,
        "unit": "samples/s",
        "direction": "higher",
    }

    # 5. Durable-telemetry append: the TSDB's cached-appender hot path
    # (delta-of-delta + varint encoding) across 8 labelled series with
    # a flush (seal + rollup fold + state commit) per pass — the
    # ROADMAP's >= 200k samples/s floor for the --store write path.
    import shutil
    import tempfile

    from repro.obs.tsdb import TSDB

    store_dir = tempfile.mkdtemp(prefix="bench-tsdb-")
    try:
        db = TSDB(store_dir)
        appenders = [
            db.appender("bench_power_watts", {"node": f"n{i}"})
            for i in range(8)
        ]
        n_per_series = 5_000
        state = {"t0": 0.0}

        def _append_all() -> None:
            t0 = state["t0"]
            for appender in appenders:
                for i in range(n_per_series):
                    appender.append(t0 + i, 100.0 + (i % 50))
            state["t0"] = t0 + n_per_series
            db.flush()

        _append_all()  # warm
        per_pass = _best_of(_append_all, rounds=5)
        metrics["tsdb_append_samples_per_s"] = {
            "value": len(appenders) * n_per_series / per_pass,
            "unit": "samples/s",
            "direction": "higher",
        }
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return metrics


def compare(measured: "dict[str, dict]", baseline: "dict[str, dict]", tolerance: float) -> int:
    provenance = baseline.get("_provenance")
    if provenance:
        print(
            "baseline recorded {} on {} @ {} (python {})".format(
                provenance.get("date", "?"),
                provenance.get("host", "?"),
                provenance.get("git_sha", "?"),
                provenance.get("python", "?"),
            )
        )
    else:
        print("baseline has no provenance record (re-record with --update)")
    failures = 0
    for name, entry in sorted(baseline.items()):
        if name.startswith("_"):
            continue
        if name not in measured:
            # Fleet-width metrics are opt-in per run (BENCH_FLEET_WIDTHS
            # narrows the set; CI measures width 64 only), so a baseline
            # width this run skipped is not a regression.
            if name.startswith("simulator_fleet_ticks_per_s"):
                print(f"skip {name}: width not measured this run")
                continue
            print(f"MISSING {name}: metric not measured")
            failures += 1
            continue
        base = float(entry["value"])
        now = float(measured[name]["value"])
        if entry.get("direction", "lower") == "higher":
            change = (base - now) / base  # positive = got slower
        else:
            change = (now - base) / base
        status = "FAIL" if change > tolerance else "ok"
        print(
            f"{status:4} {name:28} baseline {base:12.1f} {entry.get('unit', ''):8} "
            f"now {now:12.1f}  ({'regressed' if change > 0 else 'improved'} "
            f"{abs(change) * 100.0:.1f}%)"
        )
        if change > tolerance:
            failures += 1
    for name in sorted(set(measured) - set(baseline)):
        entry = measured[name]
        # No baseline yet: report and pass; --update records it.
        print(
            f"NEW  {name:28} now {float(entry['value']):12.1f} "
            f"{entry.get('unit', ''):8} (no baseline; rerun with --update to record)"
        )
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="rewrite the baseline from this run"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_COMPARE_TOLERANCE", "0.20")),
        help="allowed fractional regression before failing (default 0.20)",
    )
    parser.add_argument("--baseline", default=BASELINE_PATH)
    parser.add_argument(
        "--fleet-widths",
        default=os.environ.get("BENCH_FLEET_WIDTHS", _DEFAULT_FLEET_WIDTHS),
        help="comma-separated fleet widths to benchmark (default "
        f"{_DEFAULT_FLEET_WIDTHS}; baseline widths not measured are "
        "skipped, not failed)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="collect telemetry during the measurement and dump "
        "metrics.prom/metrics.json/trace.jsonl into DIR (CI uploads "
        "the trace as a build artifact)",
    )
    args = parser.parse_args(argv)

    if args.telemetry:
        obs.enable()
    print("measuring...", flush=True)
    measured = measure(fleet_widths=_parse_fleet_widths(args.fleet_widths))
    if args.telemetry:
        paths = obs.dump(args.telemetry)
        print(f"telemetry artifacts: {', '.join(sorted(paths.values()))}")

    if args.update:
        # The provenance stanza (git sha, date, host — repro.obs's
        # registry-export header) records what later comparisons are
        # comparing against; compare() skips underscore-prefixed keys.
        document = {"_provenance": obs.provenance(), **measured}
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.baseline}")
        for name, entry in sorted(measured.items()):
            print(f"  {name:28} {entry['value']:12.1f} {entry['unit']}")
        return 0

    try:
        with open(args.baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        print(f"no baseline at {args.baseline}; run with --update first")
        return 2

    failures = compare(measured, baseline, args.tolerance)
    if failures:
        print(f"{failures} metric(s) regressed beyond {args.tolerance * 100:.0f}%")
        from repro.obs import flight

        flight.dump_failure_bundle(
            "bench_compare.regression",
            detail={"n_regressed": failures, "tolerance": args.tolerance},
        )
        return 1
    print("all metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

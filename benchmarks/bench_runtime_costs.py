"""Runtime-cost benches: the paper's "low computational cost" claim.

The models exist to run *online* inside a power-management loop, so
their evaluation cost matters: Section 3.3.1 restricts the form to
linear/quadratic regressions for exactly this reason.  These benches
measure single-sample estimation latency, batch prediction throughput,
and the simulator's own speed (for reproducibility budgeting).
"""

import numpy as np

from repro.core.estimator import SystemPowerEstimator
from repro.simulator.config import fast_config
from repro.simulator.fleet import FleetServer
from repro.simulator.system import Server
from repro.workloads.registry import get_workload


def test_estimator_single_sample_latency(benchmark, context, show):
    """One 1 Hz estimation step must be microseconds, not milliseconds.

    The estimator is built once outside the benchmarked closure: a
    deployed power-management loop constructs it at startup and then
    calls ``estimate`` per sample, so timing construction inside the
    loop overstated the steady-state latency (see
    ``test_estimator_construction`` for the one-time cost).
    """
    suite = context.paper_suite()
    run = context.run("gcc")
    counts = {
        event: run.counters.per_cpu(event)[-1] for event in run.counters.events
    }
    estimator = SystemPowerEstimator(suite)

    estimate = benchmark(lambda: estimator.estimate(counts, duration_s=1.0))
    show(
        f"single-sample complete-system estimate: total={estimate.total_w:.1f}W "
        f"({', '.join(f'{s.value}={w:.1f}' for s, w in estimate.subsystem_w.items())})"
    )
    assert estimate.total_w > 100.0


def test_estimator_construction(benchmark, context, show):
    """One-time cost of building an estimator from a trained suite."""
    suite = context.paper_suite()
    estimator = benchmark(lambda: SystemPowerEstimator(suite))
    show("estimator construction: see benchmark stats above")
    assert estimator is not None


def test_suite_batch_prediction_throughput(benchmark, context, show):
    """Predicting a whole 300-sample trace for all five subsystems."""
    suite = context.paper_suite()
    run = context.run("mcf")
    result = benchmark(lambda: suite.predict_total(run.counters))
    show(
        f"batch prediction over {run.n_samples} samples x 5 subsystems; "
        f"mean total={float(np.mean(result)):.1f}W"
    )
    assert len(result) == run.n_samples


def test_simulator_tick_throughput(benchmark, show):
    """Simulated ticks per second of the full-system model.

    Drives the batched :meth:`Server.run_ticks` hot path — the one the
    cluster simulator and ``simulate_workload`` use — which hoists
    per-tick constants and accumulates counters row-wise.
    """
    config = fast_config()
    server = Server(config, get_workload("SPECjbb"), seed=3)

    benchmark.pedantic(lambda: server.run_ticks(100), iterations=1, rounds=10)
    show(
        "simulator throughput: 100 ticks (1 s simulated at 10 ms tick) "
        "per round; see benchmark stats above"
    )


def test_fleet_tick_throughput(benchmark, show):
    """Aggregate lane-ticks per second of the SoA fleet core.

    Steps a width-64 :class:`FleetServer` — 64 independently seeded
    servers advanced per tick in one numpy pass — the kernel behind
    ``Cluster.run`` and same-config sweep lanes.  Divide the per-round
    time into 64 x 100 lane-ticks to compare against the scalar bench
    above; ``scripts/bench_compare.py`` gates the ratio.
    """
    width = 64
    fleet = FleetServer(
        fast_config(), get_workload("SPECjbb"), [3 + i for i in range(width)]
    )
    fleet.run_ticks(50)  # warm

    benchmark.pedantic(lambda: fleet.run_ticks(100), iterations=1, rounds=5)
    show(
        f"fleet throughput: width {width}, 100 ticks per round "
        f"({width * 100} lane-ticks); see benchmark stats above"
    )


def test_fleet_monitored_tick_throughput(benchmark, show):
    """Fleet stepping with the vectorized observability plane attached.

    Same width-64 fleet as above, but with a
    :class:`~repro.obs.fleet.FleetMonitor` watching every lane: per
    closing tick the monitor snapshots counter references and energy
    deltas, and flushes batched design-matrix + drift passes once all
    lanes have a pending window.  ``scripts/obs_overhead.py`` gates
    the monitored/unmonitored ratio at 5%; this bench tracks the
    absolute monitored throughput across commits.
    """
    from repro.core.events import Subsystem
    from repro.core.features import FeatureSet
    from repro.core.models import ConstantModel, PolynomialModel
    from repro.core.suite import TrickleDownSuite
    from repro.obs.fleet import FleetMonitor

    # Hand-built paper-shaped suite (mirrors scripts/obs_overhead.py):
    # the monitor's mechanical cost depends on the term structure only.
    suite = TrickleDownSuite(
        {
            Subsystem.CPU: PolynomialModel(
                FeatureSet.of("active_fraction", "fetched_uops_per_cycle"),
                degree=1,
                coefficients=[35.0, 20.0, 5.0],
            ),
            Subsystem.MEMORY: PolynomialModel(
                FeatureSet.of("bus_transactions_per_mcycle"),
                degree=2,
                coefficients=[18.0, 0.5, 0.01],
            ),
            Subsystem.IO: PolynomialModel(
                FeatureSet.of("interrupts_per_mcycle"),
                degree=1,
                coefficients=[2.0, 0.1],
            ),
            Subsystem.DISK: PolynomialModel(
                FeatureSet.of("disk_interrupts_per_mcycle"),
                degree=1,
                coefficients=[10.0, 0.2],
            ),
            Subsystem.CHIPSET: ConstantModel(19.9),
        },
        recipe_name="bench-fleet-monitor",
    )
    width = 64
    fleet = FleetServer(
        fast_config(), get_workload("SPECjbb"), [3 + i for i in range(width)]
    )
    fleet.attach_fleet_monitor(FleetMonitor(suite))
    fleet.run_ticks(50)  # warm

    benchmark.pedantic(lambda: fleet.run_ticks(100), iterations=1, rounds=5)
    show(
        f"monitored fleet throughput: width {width}, 100 ticks per round "
        f"({width * 100} lane-ticks); see benchmark stats above"
    )


def test_datacenter_scenario_throughput(benchmark, show):
    """Node-seconds of datacenter simulation per wall second.

    The full per-second scenario loop — traffic, budget allocation,
    subsystem-level placement, the fleet step, counter read-out and
    per-pstate estimation — on a two-zone datacenter.  This is the
    number that decides how many simulated node-hours a policy sweep
    can afford; ``scripts/bench_compare.py`` gates it as
    ``datacenter_node_seconds_per_s``.
    """
    from repro.dc import Datacenter, TrafficModel, ZoneSpec, train_zone_bank

    config = fast_config()
    calibration = train_zone_bank(config, duration_s=8.0, seed=901)
    n_nodes = 64
    per_zone = n_nodes // 2
    zones = (
        ZoneSpec("a", per_zone, 0.75 * per_zone * 8 * 25_000.0),
        ZoneSpec(
            "b", per_zone, 0.75 * per_zone * 8 * 25_000.0, phase_s=8.0
        ),
    )
    traffic = TrafficModel(zones, period_s=16.0, seed=5)
    cap_w = 0.65 * calibration.reference_peak_w * n_nodes
    duration_s = 8

    def scenario():
        return Datacenter(
            traffic,
            cap_w,
            config=config,
            calibration=calibration,
            seed=11,
        ).run(duration_s)

    report = benchmark.pedantic(scenario, iterations=1, rounds=3)
    show(
        f"datacenter scenario: {n_nodes} nodes x {duration_s} s per round "
        f"({n_nodes * duration_s} node-seconds); cap held: "
        f"{report.cap_violations == 0}"
    )
    assert report.cap_violations == 0


def test_tsdb_append_throughput(benchmark, tmp_path, show):
    """Samples per second into the durable telemetry store.

    Drives the cached-appender hot path (delta-of-delta timestamp and
    value encoding into the open block) across 8 labelled series, with
    a flush per round so sealing and rollup folding are paid inside the
    measured loop — the cost profile of a monitored run persisting
    every window.  ``scripts/bench_compare.py`` gates it as
    ``tsdb_append_samples_per_s`` (ROADMAP floor: >= 200k samples/s).
    """
    from repro.obs.tsdb import TSDB

    db = TSDB(str(tmp_path / "store"))
    appenders = [
        db.appender("bench_power_watts", {"node": f"n{i}"}) for i in range(8)
    ]
    n_per_series = 5_000
    state = {"t0": 0.0}

    def append_all():
        t0 = state["t0"]
        for appender in appenders:
            for i in range(n_per_series):
                appender.append(t0 + i, 100.0 + (i % 50))
        state["t0"] = t0 + n_per_series
        db.flush()

    benchmark.pedantic(append_all, iterations=1, rounds=5)
    total = len(appenders) * n_per_series
    show(
        f"tsdb append: {len(appenders)} series x {n_per_series} samples "
        f"({total} samples) + flush per round; see benchmark stats above"
    )
    assert db.document()["shards"]["bench_power_watts"]["appended"] >= total

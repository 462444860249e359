"""Telemetry overhead gate: enabled-mode tick loop must stay within 5%.

Measures ``Server.run_ticks`` throughput with telemetry disabled and
enabled as back-to-back pairs and reports the **median paired ratio**:
shared machines throttle and drift on multi-second scales (absolute
throughput can swing 40% over one run), but within a ~0.5 s pair both
modes see the same machine, so the ratio distribution stays tight.
Fails (exit 1) when the median enabled/disabled slowdown exceeds
``--tolerance`` (default 5%, ``OBS_OVERHEAD_TOLERANCE`` overrides).
The instrumentation only fires at batch boundaries, so the measured
overhead is expected to sit in the noise; this gate keeps it that way
as hooks accumulate.

A second paired measurement holds telemetry *on* and attaches a
:class:`~repro.obs.live.LiveMonitor` to both servers, varying only the
estimator's ``attribute`` flag — the per-term watt decomposition must
also stay within the same budget relative to an attribution-free
monitor.  A third pairing holds a width-64 :class:`FleetServer` with
and without a :class:`~repro.obs.fleet.FleetMonitor` attached
(telemetry off in both halves) — the fleet monitor's batched
snapshot-and-flush pass must fit the same budget.  A fifth pairing
runs the monitor loop with and without a durable ``--store`` attached
(window sink + per-second flush into the TSDB) —
the persistence path must also stay within the budget.  A gate failure
dumps a flight-recorder bundle (via ``REPRO_FLIGHT_DIR`` when set) so
CI failures come with a post-mortem.

Usage::

    PYTHONPATH=src python scripts/obs_overhead.py
    PYTHONPATH=src python scripts/obs_overhead.py --telemetry-dir out/

``--telemetry-dir`` additionally dumps the enabled run's
``metrics.prom``/``metrics.json``/``trace.jsonl`` (CI uploads the
trace as a build artifact).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro import obs  # noqa: E402
from repro.simulator.config import fast_config  # noqa: E402
from repro.simulator.system import Server  # noqa: E402
from repro.workloads.registry import get_workload  # noqa: E402

#: Ticks per timed batch (matches scripts/bench_compare.py).
_BATCH = 100


def _timed_round(server: Server, budget_s: float) -> float:
    """Per-batch wall time over one ``budget_s`` measurement window."""
    calls = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < budget_s:
        server.run_ticks(_BATCH)
        calls += 1
    return (time.perf_counter() - t0) / calls


def _paired_overhead(
    server_off,
    server_on,
    rounds: int = 20,
    budget_s: float = 0.25,
    setup_off=obs.disable,
    setup_on=obs.enable,
):
    """Median enabled/disabled slowdown over back-to-back round pairs.

    Returns ``(overhead, off_ticks_per_s, on_ticks_per_s)`` where the
    throughputs are the best observed round of each mode (headline
    numbers only; the gate decision uses the median paired ratio).
    ``setup_off`` / ``setup_on`` run before each half of a pair (the
    telemetry gate toggles ``obs``; the attribution gate keeps it on
    for both halves).
    """
    ratios = []
    best_off = best_on = float("inf")
    for _ in range(rounds):
        setup_off()
        off = _timed_round(server_off, budget_s)
        setup_on()
        on = _timed_round(server_on, budget_s)
        ratios.append(on / off)
        best_off = min(best_off, off)
        best_on = min(best_on, on)
    ratios.sort()
    mid = len(ratios) // 2
    median = ratios[mid] if len(ratios) % 2 else (ratios[mid - 1] + ratios[mid]) / 2.0
    return median - 1.0, _BATCH / best_off, _BATCH / best_on


def _toy_suite():
    """A hand-built paper-shaped suite (no training runs needed).

    The coefficients are plausible, not fitted — the attribution gate
    measures *mechanical* cost per estimate, which only depends on the
    term structure, not on the watt values being right.
    """
    from repro.core.events import Subsystem
    from repro.core.features import FeatureSet
    from repro.core.models import ConstantModel, PolynomialModel
    from repro.core.suite import TrickleDownSuite

    return TrickleDownSuite(
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
        recipe_name="obs-overhead-toy",
    )


def _fleet_pair(config, workload, width: int = 64):
    """A warmed unmonitored/monitored fleet pair of the same width.

    The monitored half carries a :class:`~repro.obs.fleet.FleetMonitor`
    with the toy suite; telemetry stays *off* for both halves so the
    measured cost is the monitor's own batched pass (snapshot capture +
    deferred design-matrix flushes), not the metrics registry.
    """
    from repro.obs.fleet import FleetMonitor
    from repro.simulator.fleet import FleetServer

    seeds = [11 + lane for lane in range(width)]
    fleet_off = FleetServer(config, workload, seeds)
    fleet_on = FleetServer(config, workload, seeds)
    fleet_on.attach_fleet_monitor(FleetMonitor(_toy_suite()))
    fleet_off.run_ticks(200)  # warm caches
    fleet_on.run_ticks(200)
    return fleet_off, fleet_on


def _monitored_server(config, workload, seed: int, attribute: bool):
    """A warmed server with an attribution-on/off live monitor attached."""
    from repro.core.estimator import SystemPowerEstimator
    from repro.obs.live import LiveMonitor

    server = Server(config, workload, seed=seed)
    monitor = LiveMonitor(
        SystemPowerEstimator(_toy_suite(), attribute=attribute)
    )
    server.attach_monitor(monitor)
    server.run_ticks(200)  # warm caches
    return server


class _IngestRig:
    """Adapts the streaming service to the ``run_ticks`` pairing API.

    One "tick" ingests one pre-encoded columnar frame through the
    synchronous pipeline; each batch ends with a housekeeping
    :meth:`~repro.serve.service.EstimationService.tick` so the ops-on
    half pays for staleness sweeps and burn-rate checks too, not just
    the stage spans.
    """

    def __init__(self, service, frames: "list[str]") -> None:
        self.service = service
        self.frames = frames
        self._next = 0

    def run_ticks(self, n: int) -> None:
        frames = self.frames
        count = len(frames)
        ingest = self.service.ingest_inline
        for _ in range(n):
            ingest(frames[self._next % count])
            self._next += 1
        self.service.tick()


def _ingest_pair(config):
    """Warmed ops-off/ops-on service rigs over the same frame stream.

    The off half is the bare decode→evaluate→publish pipeline the
    ``ingest_samples_per_s`` benchmark measures (telemetry disabled,
    ``ops=False``); the on half carries the full ops plane — stage
    spans + latency histograms, staleness tracking and SLO burn
    checks — with telemetry enabled.
    """
    from repro.serve import EstimationService, frames_from_run, required_events
    from repro.simulator.system import simulate_workload

    suite = _toy_suite()
    run = simulate_workload(
        get_workload("gcc"), config=config, seed=7, duration_s=240.0
    )
    frames = frames_from_run(
        run,
        "rig",
        frame_samples=64,
        events=required_events(suite),
        include_truth=False,
    )
    rig_off = _IngestRig(EstimationService(suite, ops=False), frames)
    rig_on = _IngestRig(EstimationService(suite, ops=True), frames)
    obs.disable()
    rig_off.run_ticks(20)  # warm caches
    obs.enable()
    rig_on.run_ticks(20)
    obs.disable()
    return rig_off, rig_on


class _StoreRig:
    """Adapts the monitor loop's per-second store work to ``run_ticks``.

    Each batch advances the monitored server one simulated second and
    folds the registry into a windowed aggregate — exactly what the
    ``repro-power monitor`` loop does with or without ``--store``.  The
    store half additionally pays the durable path per second: window
    eviction into the :class:`~repro.obs.tsdb.WindowSink` and the atomic
    state flush.
    """

    def __init__(self, server, windows, db=None) -> None:
        self.server = server
        self.windows = windows
        self.db = db
        self._now_s = 0.0

    def run_ticks(self, n: int) -> None:
        self.server.run_ticks(n)
        self._now_s += 1.0
        self.windows.ingest(self._now_s, obs.registry())
        if self.db is not None:
            self.db.flush()


def _store_pair(config, workload, store_dir: str):
    """Warmed store-off/store-on monitor rigs (telemetry on in both).

    Both halves run an attribution-on live monitor and fold windows;
    only the on half persists them, so the measured delta is the
    ``--store`` write path itself.
    """
    from repro.obs.live import WindowedRegistry
    from repro.obs.tsdb import TSDB, WindowSink

    rig_off = _StoreRig(
        _monitored_server(config, workload, seed=9, attribute=True),
        WindowedRegistry(window_s=5.0),
    )
    db = TSDB(store_dir)
    rig_on = _StoreRig(
        _monitored_server(config, workload, seed=9, attribute=True),
        WindowedRegistry(window_s=5.0, on_evict=WindowSink(db)),
        db=db,
    )
    obs.enable()
    rig_off.run_ticks(_BATCH)  # warm caches
    rig_on.run_ticks(_BATCH)
    return rig_off, rig_on


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("OBS_OVERHEAD_TOLERANCE", "0.05")),
        help="allowed fractional slowdown with telemetry on (default 0.05)",
    )
    parser.add_argument(
        "--telemetry-dir",
        default=None,
        help="also dump the enabled run's telemetry artifacts here",
    )
    args = parser.parse_args(argv)

    workload = get_workload("SPECjbb")
    config = fast_config()

    obs.disable()
    obs.reset()
    server_off = Server(config, workload, seed=3)
    server_off.run_ticks(200)  # warm caches
    server_on = Server(config, workload, seed=3)
    server_on.run_ticks(200)
    overhead, disabled, enabled = _paired_overhead(server_off, server_on)

    if args.telemetry_dir:
        paths = obs.dump(args.telemetry_dir)
        print(f"telemetry artifacts: {', '.join(sorted(paths.values()))}")

    # Attribution gate: telemetry stays ON for both halves; the only
    # difference is the estimator's per-term decomposition.
    obs.reset()
    obs.enable()
    attr_off = _monitored_server(config, workload, seed=5, attribute=False)
    attr_on = _monitored_server(config, workload, seed=5, attribute=True)
    attr_overhead, attr_disabled, attr_enabled = _paired_overhead(
        attr_off, attr_on, setup_off=obs.enable, setup_on=obs.enable
    )
    obs.disable()
    obs.reset()

    # Fleet-monitor gate: width-64 fleet, telemetry off in both halves
    # — the budget covers the monitor's own vectorized pass.
    fleet_off, fleet_on = _fleet_pair(config, workload)
    fleet_overhead, fleet_disabled, fleet_enabled = _paired_overhead(
        fleet_off, fleet_on, setup_off=obs.disable, setup_on=obs.disable
    )
    obs.reset()

    # Streaming-ingest gate: the serve ops plane (stage spans +
    # staleness + SLO burn tracking) against the bare telemetry-off
    # pipeline, one frame per tick.
    rig_off, rig_on = _ingest_pair(config)
    ingest_overhead, ingest_disabled, ingest_enabled = _paired_overhead(
        rig_off, rig_on
    )
    obs.disable()
    obs.reset()

    # Durable-store gate: the monitor loop with and without the TSDB
    # write path (window sink + per-second flush);
    # telemetry stays on in both halves.
    import shutil
    import tempfile

    store_dir = tempfile.mkdtemp(prefix="obs-overhead-store-")
    try:
        obs.enable()
        store_off, store_on = _store_pair(config, workload, store_dir)
        store_overhead, store_disabled, store_enabled = _paired_overhead(
            store_off, store_on, setup_off=obs.enable, setup_on=obs.enable
        )
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    obs.disable()
    obs.reset()

    print(f"telemetry off: {disabled:12.1f} ticks/s (best round)")
    print(f"telemetry on:  {enabled:12.1f} ticks/s (best round)")
    print(
        f"overhead: {overhead * 100.0:+.2f}% median paired "
        f"(gate: {args.tolerance * 100.0:.0f}%)"
    )
    print(f"attribution off: {attr_disabled:10.1f} ticks/s (best round)")
    print(f"attribution on:  {attr_enabled:10.1f} ticks/s (best round)")
    print(
        f"attribution overhead: {attr_overhead * 100.0:+.2f}% median paired "
        f"(gate: {args.tolerance * 100.0:.0f}%)"
    )
    print(f"fleet unmonitored: {fleet_disabled:8.1f} fleet-ticks/s (best round)")
    print(f"fleet monitored:   {fleet_enabled:8.1f} fleet-ticks/s (best round)")
    print(
        f"fleet_monitor_overhead: {fleet_overhead * 100.0:+.2f}% median "
        f"paired (gate: {args.tolerance * 100.0:.0f}%)"
    )
    print(f"ingest ops off: {ingest_disabled * 64:11.1f} samples/s (best round)")
    print(f"ingest ops on:  {ingest_enabled * 64:11.1f} samples/s (best round)")
    print(
        f"ingest_ops_overhead: {ingest_overhead * 100.0:+.2f}% median "
        f"paired (gate: {args.tolerance * 100.0:.0f}%)"
    )
    print(f"store off: {store_disabled:16.1f} ticks/s (best round)")
    print(f"store on:  {store_enabled:16.1f} ticks/s (best round)")
    print(
        f"store_overhead: {store_overhead * 100.0:+.2f}% median "
        f"paired (gate: {args.tolerance * 100.0:.0f}%)"
    )
    failures = []
    if overhead > args.tolerance:
        failures.append(("telemetry", overhead))
    if attr_overhead > args.tolerance:
        failures.append(("attribution", attr_overhead))
    if fleet_overhead > args.tolerance:
        failures.append(("fleet_monitor", fleet_overhead))
    if ingest_overhead > args.tolerance:
        failures.append(("ingest_ops", ingest_overhead))
    if store_overhead > args.tolerance:
        failures.append(("store", store_overhead))
    if failures:
        for what, value in failures:
            print(f"FAIL: {what} overhead {value * 100.0:+.2f}% exceeds the gate")
        from repro.obs import flight

        flight.dump_failure_bundle(
            "obs_overhead.gate",
            detail={
                "tolerance": args.tolerance,
                "telemetry_overhead": overhead,
                "attribution_overhead": attr_overhead,
                "fleet_monitor_overhead": fleet_overhead,
                "ingest_ops_overhead": ingest_overhead,
                "store_overhead": store_overhead,
                "failed": [what for what, _ in failures],
            },
        )
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

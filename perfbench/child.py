"""Process under test: hook the timed phase's boundaries, then run the CLI.

    python3 perfbench/child.py PLAN.json -- <repro-power arguments>

``PLAN.json`` (written by the benchmark process) names the workload
kind, where ``src/`` lives, where to write results, and whether to
trace or inject a slowdown.  The process then calls
``repro.cli.main`` with the given arguments, exactly as the
``repro-power`` console script would, so CLI wiring is part of what is
measured.

Boundary hooks per kind (one clock read per call, no tracing):

* ``dc``: ``Datacenter.run`` is the timed phase; ``BudgetAllocator.allocate``
  (once per simulated second) stamps each control second.
* ``fleet``: ``FleetServer.attach_fleet_monitor`` starts the timed
  phase, ``detach_fleet_monitor`` ends it; ``FleetServer.run_ticks``
  (once per simulated second) stamps each monitor second.
* ``serve``: ``EstimationService.start`` marks the service ready (the
  benchmark process owns the timed phase from there).

At exit the process writes ``results.json`` (marks, captured outputs,
peak RSS) and, when tracing, ``spans.jsonl``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _write_json(path: str, document: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    os.replace(tmp, path)


class Probe:
    """Timed-phase marks and captured outputs of one CLI invocation."""

    def __init__(self, plan: dict) -> None:
        self.plan = plan
        self.marks: "dict[str, float]" = {}
        self.stamps: "list[float]" = []
        self.outputs: dict = {}
        self.active = False

    def start(self) -> None:
        self.marks["start"] = time.monotonic()
        self.active = True
        if self.plan.get("ready"):
            _write_json(self.plan["ready"], {"marks": self.marks, **self.outputs})

    def end(self) -> None:
        self.marks["end"] = time.monotonic()
        self.active = False

    def results(self, code: int) -> dict:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return {
            "rc": code,
            "marks": self.marks,
            "stamps": self.stamps,
            "outputs": self.outputs,
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }


def install_dc(probe: Probe, patch) -> None:
    def run(original):
        def wrapper(self, duration_s):
            probe.start()
            report = original(self, duration_s)
            probe.end()
            probe.outputs.update(
                n_nodes=self.n_nodes,
                duration_s=int(duration_s),
                cap_w=report.cap_w,
                cap_violations=report.cap_violations,
                power_w=list(report.power_w),
                estimated_power_w=list(report.estimated_power_w),
                offered_threads=list(report.offered_threads),
                served_threads=list(report.served_threads),
            )
            return report
        return wrapper

    def allocate(original):
        def wrapper(*args, **kwargs):
            if probe.active:
                probe.stamps.append(time.monotonic())
            return original(*args, **kwargs)
        return wrapper

    patch("repro.dc.datacenter", "Datacenter.run", run)
    patch("repro.dc.policies", "BudgetAllocator.allocate", allocate)


def install_fleet(probe: Probe, patch) -> None:
    state: dict = {}

    def attach(original):
        def wrapper(self, monitor):
            state.update(fleet=self, monitor=monitor)
            probe.outputs["width"] = self.width
            probe.start()
            return original(self, monitor)
        return wrapper

    def run_ticks(original):
        def wrapper(self, *args, **kwargs):
            if probe.active:
                probe.stamps.append(time.monotonic())
            return original(self, *args, **kwargs)
        return wrapper

    def detach(original):
        def wrapper(self):
            original(self)
            if self is not state.get("fleet"):
                return
            probe.end()
            monitor = state["monitor"]
            probe.outputs.update(
                ticks=int(round(self.now_s / self.config.tick_s)),
                firing_lanes=[int(x) for x in monitor.drift.firing_lanes()],
                energy_j=[
                    self.lane(i).energy.total_energy_j()
                    for i in range(self.width)
                ],
                ewma_total_pct=[
                    float(x) for x in monitor.drift.error_pct("total")
                ],
                n_windows=int(monitor.n_windows),
            )
        return wrapper

    patch("repro.simulator.fleet", "FleetServer.attach_fleet_monitor", attach)
    patch("repro.simulator.fleet", "FleetServer.run_ticks", run_ticks)
    patch("repro.simulator.fleet", "FleetServer.detach_fleet_monitor", detach)


def install_serve(probe: Probe, patch) -> None:
    def endpoint_start(original):
        def wrapper(self):
            port = original(self)
            probe.outputs["port"] = port
            return port
        return wrapper

    def service_start(original):
        def wrapper(self):
            original(self)
            probe.start()
        return wrapper

    patch("repro.obs.http", "ObservabilityServer.start", endpoint_start)
    patch("repro.serve.service", "EstimationService.start", service_start)


def install_inject(probe: Probe, patch, target: str, factor: float) -> None:
    """Busy-wait ``factor`` x each call's duration, in the timed phase only."""
    modules = {
        "FleetServer.run_ticks": "repro.simulator.fleet",
        "DriftMonitor.observe": "repro.obs.drift",
    }

    def slow(original):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            if probe.active:
                until = time.perf_counter() + factor * (time.perf_counter() - t0)
                while time.perf_counter() < until:
                    pass
            return result
        return wrapper

    patch(modules[target], target, slow)


INSTALLERS = {"dc": install_dc, "fleet": install_fleet, "serve": install_serve}


def main() -> int:
    plan_path = sys.argv[1]
    argv = sys.argv[sys.argv.index("--") + 1:]
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    from tracer import Tracer, patch

    probe = Probe(plan)
    if plan.get("inject"):
        install_inject(probe, patch, *plan["inject"])
    INSTALLERS[plan["kind"]](probe, patch)
    tracer = None
    stores: list = []
    if plan.get("spans"):
        tracer = Tracer()
        tracer.install()

        def remember(original):
            def wrapper(self, *args, **kwargs):
                if not stores:
                    stores.append(self)
                return original(self, *args, **kwargs)
            return wrapper

        # The store's own counters (appended samples) for the report.
        patch("repro.obs.tsdb", "TSDB.flush", remember)

    from repro import cli

    code = cli.main(argv)
    if stores:
        probe.outputs["store_document"] = stores[0].document()
    _write_json(plan["results"], probe.results(code))
    if tracer is not None:
        tracer.write(plan["spans"])
    return code


if __name__ == "__main__":
    sys.exit(main())

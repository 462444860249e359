#!/usr/bin/env python3
"""End-to-end benchmark: served ingest, the datacenter scenario, the
monitored fleet — with a traced run for per-layer numbers.

    python3 perfbench/run.py --workload serve_ingest --seed 1 --seconds 8 --trace 0

Run from the repository root.  Each workload launches ``repro-power``
(via ``repro.cli.main``) in fresh processes, times them, and checks
their outputs; ``--workload all`` runs the three in turn.  ``--trace 0``
prints the end-to-end metrics.  ``--trace 1`` runs the workload once
untraced and once traced and prints the per-layer metrics, the layer
with the most self time and the tracing overhead.  The last stdout line
is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit status: 0 when
every output check passed, 1 when one failed, 2 on a usage error or
when the repository source is missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Fresh-process repetitions per untraced run; every reported metric,
#: setup_s included, is the median over them.
REPEATS = {"serve_ingest": 2, "dc_cap": 2, "fleet_monitor": 3}
WORKLOAD_NAMES = tuple(REPEATS)
INJECT_TARGETS = ("FleetServer.run_ticks", "DriftMonitor.observe")


def parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject",
        metavar="TARGET=FACTOR",
        default=None,
        help="sensitivity tests: busy-wait FACTOR x each call of TARGET "
        f"({', '.join(INJECT_TARGETS)}) during the timed phase",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.inject is not None:
        target, _, factor = args.inject.partition("=")
        if target not in INJECT_TARGETS:
            parser.error(f"--inject target must be one of {INJECT_TARGETS}")
        try:
            args.inject = [target, float(factor)]
        except ValueError:
            parser.error("--inject needs TARGET=FACTOR with a numeric FACTOR")
    return args


def _format(value) -> str:
    return "n/a (fewer than ten samples beyond it)" if value is None else f"{value:.6g}"


def _print_named(named: dict) -> None:
    for name, (value, unit) in named.items():
        if name.endswith(".n"):
            continue
        count = named.get(name + ".n")
        suffix = f"  (n={int(count[0])})" if count else ""
        print(f"  {name:34} {_format(value):>12} {unit}{suffix}")


def _print_checks(outcome) -> None:
    for name, passed, detail in outcome.checks:
        mark = "ok  " if passed else "FAIL"
        print(f"  [{mark}] {name}" + (f" — {detail}" if detail else ""))
    for flag in outcome.flags:
        print(f"  [flag] {flag}")


def run_untraced(workload: str, args) -> "tuple[dict, list]":
    import workloads

    outcome = workloads.measure(workload, args.seed, args.seconds,
                                REPEATS[workload], inject=args.inject)
    print("end-to-end metrics (at reference host speed):")
    _print_named({name: (value, UNITS[name])
                  for name, value in outcome.end_to_end.items()})
    print("as measured on this host:")
    _print_named(outcome.named)
    print("output checks:")
    _print_checks(outcome)
    metrics = {
        name: {"value": value, "unit": UNITS[name]}
        for name, value in outcome.end_to_end.items()
    }
    return metrics, [outcome]


def run_traced(workload: str, args) -> "tuple[dict, list]":
    import layers
    import workloads

    untraced = workloads.measure(workload, args.seed, args.seconds,
                                 inject=args.inject)
    traced = workloads.measure(workload, args.seed, args.seconds,
                               spans=True, inject=args.inject)
    result = layers.report(traced, untraced)
    print("per-layer metrics (traced run; timed phase unless named set-up):")
    _print_named(result["named"])
    print("self time by layer in the timed phase:")
    for layer, share in sorted(result["shares"].items(), key=lambda item: -item[1]):
        print(f"  {layer:34} {share:11.1f} %")
    print(f"layer with the most self time: {result['top']}")
    print(f"tracing overhead: "
          f"{result['named']['trace.overhead_pct'][0]:+.1f} % of throughput "
          f"(untraced {untraced.end_to_end['throughput']:.6g}, "
          f"traced {traced.end_to_end['throughput']:.6g}); "
          f"spans in {traced.spans}")
    print("output checks (untraced, then traced run):")
    _print_checks(untraced)
    _print_checks(traced)
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["json"].items()
    }
    return metrics, [untraced, traced]


def main(argv: "list[str] | None" = None) -> int:
    args = parse(argv)
    if not (HERE.parent / "src" / "repro" / "cli.py").is_file():
        print(
            "perfbench: no repository source next to the benchmark "
            f"(expected {HERE.parent / 'src' / 'repro'}); run it from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    import workloads

    workloads.pin_environment()
    sys.path.insert(0, str(workloads.SRC))
    selected = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    outcomes: list = []
    for workload in selected:
        print(f"perfbench: {workload}, seed {args.seed}, "
              f"{args.seconds} s, trace {args.trace}")
        found, done = (run_traced if args.trace else run_untraced)(workload, args)
        # With "all", metric names carry their workload.
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: value for name, value in found.items()})
        outcomes.extend(done)

    correct = all(outcome.correct for outcome in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


#: Units of the BENCHMARK.json end-to-end metrics.
UNITS = {
    "setup_s": "s",
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload dc_cap --seeds 1-10 [--trace 0]

For every metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), and the spread: the distance
between the quartiles as a share of the median, next to the metric's
bound in BENCHMARK.json.  Use it to check the benchmark is steady on a
host before trusting a comparison made there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_from(text: str) -> "list[int]":
    seeds: "list[int]" = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: "dict[str, list[float]]" = {}
    units: "dict[str, str]" = {}
    for seed in seeds_from(args.seeds):
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True,
                              cwd=str(HERE.parent), check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            return 1
        result = json.loads(lines[-1])
        row = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
            row.append(f"{name}={metric['value']:.5g}")
        print(f"seed {seed}: correct={result['correct']} " + " ".join(row),
              flush=True)

    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} bound")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        note = "" if bound is None else f"{bound:.2f}" + (
            "  (above a third of the bound)" if spread > bound / 3 else "")
        print(f"{name:32} {median:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f} {note}  [{units[name]}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Record the output digests the dc_cap and fleet_monitor checks compare with.

    python3 perfbench/record_digests.py --seeds 0-31 [--seconds 10]

Run it on the commit whose outputs define "correct" (the parent of the
change under test).  For every seed it runs both workloads once and
stores, under ``"<seed>:<simulated seconds>"``:

* dc_cap: the per-second true and estimated datacenter power series;
* fleet_monitor: every lane's true energy, plus the total-stream drift
  EWMA summed over lanes and on the perturbed lanes 5 and 21.

Values keep 12 significant digits, enough for the checks' rtol of 1e-9.
A later run with a seed that has no digest says so and skips only that
check.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads
from spread import seeds_from


def _round(values) -> list:
    return [float(f"{v:.12g}") for v in values]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    workloads.pin_environment()
    sys.path.insert(0, str(workloads.SRC))
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    digests = (json.loads(workloads.DIGESTS.read_text())
               if workloads.DIGESTS.exists() else {})
    for seed in seeds_from(args.seeds):
        dc = workloads.measure("dc_cap", seed, seconds, record=True)
        fleet = workloads.measure("fleet_monitor", seed, seconds, record=True)
        failed = [name for name, outcome in (("dc_cap", dc), ("fleet_monitor", fleet))
                  if not outcome.correct]
        if failed:
            print(f"seed {seed}: {', '.join(failed)} failed a check; not recorded")
            continue
        digests.setdefault("dc_cap", {})[
            f"{seed}:{workloads.dc_duration(seconds)}"] = {
            key: _round(values) for key, values in dc.extra["digest"].items()
        }
        digests.setdefault("fleet_monitor", {})[
            f"{seed}:{workloads.fleet_duration(seconds)}"] = {
            key: _round(values) for key, values in fleet.extra["digest"].items()
        }
        workloads.DIGESTS.write_text(json.dumps(digests, sort_keys=True) + "\n")
        print(f"seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

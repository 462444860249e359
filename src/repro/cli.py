"""Command-line interface: ``repro-power <command>``.

Commands::

    repro-power table1                      # paper tables: table1..table4
    repro-power fig2                        # paper figures: fig1..fig7
    repro-power equations                   # fitted models
    repro-power report -o EXPERIMENTS.md    # full paper-vs-measured record
    repro-power run gcc                     # one instrumented run
    repro-power list                        # available workloads
    repro-power export gcc -o trace.csv     # trace to CSV
    repro-power select cpu                  # greedy event selection
    repro-power billing                     # per-process energy bill
    repro-power obs out/                    # last run's telemetry
    repro-power obs --store DIR --range 5m  # summary of a TSDB store
    repro-power monitor --workload gcc      # live run + HTTP endpoint
    repro-power serve --replay gcc          # streaming estimation service
    repro-power query drift_error_pct --store DIR   # TSDB query
    repro-power sweep gcc,mcf --resume      # fault-tolerant bulk sweep
    repro-power explain mcf                 # per-term power attribution
    repro-power explain --bundle DIR        # print a flight bundle
    repro-power datacenter --dc-zones 3     # multi-zone EP scenario

Each command has its own parser: ``repro-power <command> --help`` lists
the options that command takes, and a flag it does not take, or a value
out of its range, exits 2 with usage before anything trains, binds or
creates a directory.  The commands that simulate share the run settings
``--seed``, ``--duration`` (simulated seconds per run), ``--tick-ms``
(simulation resolution), ``--cache-dir`` (run cache) and ``--workers``
(parallel sweep processes), and every command but ``obs`` and ``query``
takes ``--telemetry DIR`` (dump ``metrics.prom``/``metrics.json``/
``trace.jsonl`` after the command; ``repro-power obs`` pretty-prints
them) and ``--flight-dir DIR`` (arm the flight recorder: post-mortem
bundles land in DIR on drift alerts, sweep failures or crashes).
``REPRO_LOG_LEVEL`` controls log verbosity.

``explain`` reproduces the paper's Section 5 diagnosis style for any
workload: it decomposes each subsystem's estimate into per-term watts
(intercept, each counter's linear/quadratic share), compares against
measured power with the Table 3 error column, and names the dominant
term — on mcf the CPU row shows the fetched-uops term carrying the
estimate while true power runs higher (speculation the counter cannot
see).  With ``--bundle PATH`` it pretty-prints a flight-recorder
bundle from a fresh process instead.

``sweep`` runs many workloads (comma-separated positional, default:
all twelve paper workloads) through the fault-tolerant sweep engine:
failed tasks retry with capped exponential backoff (``--max-attempts``,
``--retry-delay``, ``--task-timeout``), dead pool workers trigger pool
rebuilds, and — with a cache directory — every completed run is
checkpointed immediately, so ``--resume`` continues a killed sweep
from its last stored run.  Specs that fail permanently are listed and
the command exits 1.

``monitor`` runs a workload (or, with ``--nodes N``, a power-managed
cluster) with the live observability endpoint up: ``/metrics`` serves
Prometheus text while the run progresses, ``/alerts`` the drift
monitor's state, and a summary line is printed every ``--refresh``
simulated seconds.  ``--perturb FACTOR`` deliberately mis-calibrates
the estimator to demonstrate drift alerts; ``--restore-at T`` swaps the
calibrated suite back mid-run so the alerts resolve.  ``--fleet WIDTH``
monitors a vectorized fleet of WIDTH lanes instead: per-lane drift
streams, cross-lane aggregates and drill-down on ``/fleet``,
``/fleet/lanes`` and ``/fleet/lane/<i>``, with ``--perturb-lanes``
restricting the mis-calibration to named lanes so alerts attribute to
exactly those lanes.

``--store DIR`` (on ``monitor``, ``serve`` and ``datacenter``) persists
the run's telemetry into an embedded time-series store
(:mod:`repro.obs.tsdb`): windowed metrics land as one sample per
window, recording rules distill 5-minute rollup series on every flush,
and alert firing/resolved transitions are stored as an
``alerts_firing`` series.  ``repro-power query`` reads the store back
from any later process — instant (``--at``) or range
(``--start``/``--end``/``--range``, ``--step``, ``--agg``, ``--by``,
``--tier``), with ``--label k=v`` / ``--label k=~regex`` matchers and
``--csv`` for machine consumption.  ``repro-power obs --store DIR``
prints a per-metric summary of the store's recent span.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading

from repro import obs
from repro.analysis import experiments as ex
from repro.analysis.plots import ascii_chart, residual_summary
from repro.analysis.tables import format_table, format_trace_summary, sparkline
from repro.core.events import SUBSYSTEMS, render_propagation_diagram
from repro.core.selection import EventSelector
from repro.core.training import PAPER_RECIPE
from repro.simulator.config import MeasurementConfig, SystemConfig
from repro.workloads.registry import PAPER_WORKLOADS, get_workload, list_workloads


def _context(args: argparse.Namespace) -> ex.ExperimentContext:
    """The run settings as an experiment context, once ``--duration``
    holds the warm-up windows the context drops, ``args.windows`` more
    and one for the sampling jitter, each as long as the ticks that
    close one sampling period."""
    config = SystemConfig(tick_s=args.tick_ms / 1000.0)
    context = ex.ExperimentContext(
        config=config,
        seed=args.seed,
        duration_s=args.duration,
        cache_dir=args.cache_dir,
        n_workers=args.workers,
    )
    period = config.measurement.sample_period_s
    window_s = math.ceil(period / config.tick_s - 1e-9) * config.tick_s
    floor = (context.warmup_windows + args.windows + 1) * window_s
    if args.duration < floor:
        args.error(
            f"--duration must be at least {floor:g} s here: "
            f"{context.warmup_windows} warm-up windows, {args.windows} to "
            f"{'simulate' if args.windows == _SIMULATE else 'train'} and one "
            f"spare, of {window_s:g} s at --tick-ms {args.tick_ms:g}"
        )
    return context


def _print_table(result: "ex.TableResult") -> None:
    print(format_table(result.title, result.headers, result.rows))
    print()
    print(
        format_table(
            "Paper reference values", result.headers, result.paper_rows
        )
    )


def _print_figure(result: "ex.FigureResult") -> None:
    print(
        format_trace_summary(
            result.title,
            result.timestamps,
            result.measured,
            result.modeled,
            result.avg_error_pct,
        )
    )
    print()
    print(
        ascii_chart(
            {"measured": result.measured, "modeled": result.modeled},
            y_label="W",
        )
    )
    stats = residual_summary(result.measured, result.modeled)
    print(
        f"  residuals: bias {stats['bias_w']:+.2f} W, "
        f"RMSE {stats['rmse_w']:.2f} W, "
        f"p95 |err| {stats['p95_abs_error_w']:.2f} W, "
        f"corr {stats['correlation']:.3f}"
    )
    if result.paper_error_pct is not None:
        print(f"  (paper quotes ~{result.paper_error_pct:g}% for this figure)")


def _print_series(result: "ex.SeriesResult") -> None:
    print(result.title)
    for label, series in result.series.items():
        print(f"  {label:13}|{sparkline(series)}|  last={series[-1]:.0f}/Mcycle")


#: Where ``--telemetry`` dumps (and ``obs`` reads) when no directory is
#: given explicitly.
DEFAULT_TELEMETRY_DIR = ".repro-telemetry"

#: Sampling windows a command needs after the warm-up ones: one to
#: simulate; to train, one per parameter of the recipe's largest model.
_SIMULATE = 1
_TRAIN = max(spec.n_parameters for spec in PAPER_RECIPE.specs)


# -- typed options -------------------------------------------------------


class _Checked(argparse.Action):
    """Stores the converted value once every ``(test, phrase)`` rule
    holds; the first that fails exits 2 with usage and "OPTION PHRASE"
    (an Action sees the option string; a ``type=`` callable does not)."""

    def __init__(self, option_strings, dest, rules=(), **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.rules = rules

    def __call__(self, parser, namespace, value, option_string=None):
        for test, phrase in self.rules:
            if not test(value):
                parser.error(f"{option_string} {phrase}")
        setattr(namespace, self.dest, value)


def _checked(kind, *rules) -> dict:
    """``add_argument`` keywords: convert with ``kind``, then check."""
    return {"type": kind, "action": _Checked, "rules": rules}


def _span(text: str) -> float:
    """``90``, ``5m``, ``2h`` -> seconds; NaN (which no rule passes)
    when it does not parse."""
    from repro.obs.tsdb import parse_duration

    try:
        return parse_duration(text)
    except ValueError:
        return math.nan


def _lanes(text: str) -> "tuple[int, ...] | None":
    """``5,21`` -> lane indices; None (which no rule passes) unless every
    part is a non-negative integer."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if parts and all(part.isdigit() for part in parts):
        return tuple(int(part) for part in parts)
    return None


def _workload(name: str) -> str:
    if name not in list_workloads():
        raise argparse.ArgumentTypeError(
            f"unknown workload {name!r} (see repro-power list)"
        )
    return name


def _workloads(text: str) -> "list[str]":
    """``gcc,mcf`` -> workload names."""
    names = [_workload(name) for name in text.split(",") if name]
    if not names:
        raise argparse.ArgumentTypeError("names no workload")
    return names


def _divides_second(ms: float) -> bool:
    ticks = 1000.0 / ms
    return math.isfinite(ticks) and math.isclose(round(ticks) * ms, 1000.0)


_PERIOD_MS = 1000.0 * MeasurementConfig().sample_period_s
_IS_FINITE = (math.isfinite, "must be finite")
_IS_POSITIVE_FINITE = (
    lambda x: x > 0 and math.isfinite(x), "must be positive and finite"
)
_SECONDS = _checked(float, _IS_POSITIVE_FINITE)
_FINITE = _checked(float, _IS_FINITE)
_NOT_NEGATIVE = _checked(
    float, (lambda x: x >= 0 and math.isfinite(x), "must be finite and not negative")
)
_COUNT = _checked(int, (lambda n: n >= 1, "must be positive"))
_PORT = _checked(
    int, (lambda n: 0 <= n <= 65535, "must be a port number, 0-65535")
)
_SPAN = _checked(
    _span, (_IS_POSITIVE_FINITE[0], "must be a positive, finite span (90, 5m, 2h)")
)
_LANES = _checked(
    _lanes,
    (lambda v: v is not None, "must be a comma-separated list of lane indices"),
)
_TICK_RULES = (
    _IS_POSITIVE_FINITE,
    (
        lambda ms: ms <= _PERIOD_MS,
        f"must not exceed the {_PERIOD_MS:g} ms sample period",
    ),
)
_TICK = _checked(float, *_TICK_RULES)
#: For the commands that count a simulated second in ticks.
_WHOLE_TICK = _checked(
    float, *_TICK_RULES,
    (_divides_second, "must divide one second (e.g. 10, 50, 250)"),
)


# -- the parser ------------------------------------------------------------


def _parent() -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False)


def _run_settings(duration: dict, tick: dict) -> argparse.ArgumentParser:
    """The run settings; ``--duration`` and ``--tick-ms`` take the typed
    keywords ``duration`` and ``tick``, which differ by command."""
    parent = _parent()
    group = parent.add_argument_group("run settings")
    group.add_argument("--seed", type=int, default=7)
    group.add_argument(
        "--duration", default=300.0, metavar="SECONDS",
        help="simulated seconds per run (default 300)", **duration,
    )
    group.add_argument(
        "--tick-ms", default=10.0, metavar="MS",
        help="simulation tick (default 10)", **tick,
    )
    group.add_argument("--cache-dir", default=None, metavar="DIR", help="run cache")
    group.add_argument(
        "--workers", default=None,
        help="worker processes for multi-workload sweeps "
        "(default: REPRO_SWEEP_WORKERS or the CPU count)", **_COUNT,
    )
    return parent


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-power",
        description="Reproduce Bircher & John (ISPASS 2007) tables and figures.",
    )
    commands = parser.add_subparsers(
        dest="command", metavar="<command>", required=True
    )

    telemetry = _parent()
    group = telemetry.add_argument_group("telemetry")
    group.add_argument(
        "--telemetry", metavar="DIR", nargs="?", const=DEFAULT_TELEMETRY_DIR,
        help="collect telemetry and dump metrics.prom/metrics.json/"
        f"trace.jsonl into DIR (default {DEFAULT_TELEMETRY_DIR}) after the "
        "command",
    )
    group.add_argument(
        "--flight-dir", metavar="DIR",
        help="arm the flight recorder: keep a ring of recent windows/"
        "attribution and dump post-mortem bundles into DIR on drift "
        "alerts, sweep failures, crashes or /flightrecorder?dump=1",
    )
    simulate = _run_settings(_SECONDS, _TICK)
    endpoint = _parent()
    group = endpoint.add_argument_group("endpoint")
    group.add_argument(
        "--port", default=0, help="TCP port for the observability endpoint "
        "(0 = ephemeral)", **_PORT,
    )
    group.add_argument(
        "--refresh", default=5.0, help="seconds between summary lines "
        "(default 5)", **_SECONDS,
    )
    group.add_argument(
        "--window", default=5.0, help="windowed-telemetry aggregation width "
        "in seconds (default 5)", **_SECONDS,
    )
    group.add_argument(
        "--slo", default=None, help="drift SLO in percent (default: the "
        "paper's 9%% bound)", **_SECONDS,
    )
    persist = _parent()
    persist.add_argument(
        "--store", metavar="DIR", help="persist the run's telemetry into an "
        "embedded time-series store at DIR",
    )
    reader = _parent()
    group = reader.add_argument_group("store")
    group.add_argument(
        "--range", dest="range_s", metavar="SPAN", help="span to read, back "
        "from the newest point (or the query's end), e.g. 90, 5m, 2h",
        **_SPAN,
    )
    group.add_argument(
        "--tier", default="auto", choices=("auto", "raw", "10s", "2m"),
        help="storage tier to answer from (default auto: the finest still "
        "covering the range)",
    )

    def command(name, handler, text, *parents, windows=_SIMULATE):
        sub = commands.add_parser(
            name, parents=parents, help=text.replace("%", "%%"),
            description=text,
        )
        sub.set_defaults(handler=handler, error=sub.error, windows=windows)
        return sub

    for name, experiment, windows, show in (
        ("table1", ex.table1_average_power, _SIMULATE, _print_table),
        ("table2", ex.table2_power_stddev, _SIMULATE, _print_table),
        ("table3", ex.table3_integer_errors, _TRAIN, _print_table),
        ("table4", ex.table4_fp_errors, _TRAIN, _print_table),
        ("fig2", ex.figure2_cpu_model, _TRAIN, _print_figure),
        ("fig3", ex.figure3_memory_l3, _TRAIN, _print_figure),
        ("fig4", ex.figure4_prefetch_bus, _SIMULATE, _print_series),
        ("fig5", ex.figure5_memory_bus, _TRAIN, _print_figure),
        ("fig6", ex.figure6_disk_model, _TRAIN, _print_figure),
        ("fig7", ex.figure7_io_model, _TRAIN, _print_figure),
    ):
        command(
            name, _cmd_experiment, experiment.__doc__.split("\n")[0],
            simulate, telemetry, windows=windows,
        ).set_defaults(experiment=experiment, show=show)
    command(
        "fig1", _cmd_fig1, "Figure 1: the trickle-down event diagram",
        telemetry,
    )
    command("list", _cmd_list, "the available workloads", telemetry)
    command(
        "equations", _cmd_equations, "the fitted models", simulate,
        telemetry, windows=_TRAIN,
    )
    command(
        "report", _cmd_report, "the full paper-vs-measured record", simulate,
        telemetry, windows=_TRAIN,
    ).add_argument("-o", "--output", help="write the report here")
    sub = command("run", _cmd_run, "one instrumented run", simulate, telemetry)
    sub.add_argument("workload", type=_workload)
    sub = command(
        "export", _cmd_export, "one run's trace as CSV", simulate, telemetry
    )
    sub.add_argument("workload", type=_workload)
    sub.add_argument("-o", "--output", required=True, help="the CSV file")
    selector = EventSelector()
    sub = command(
        "select", _cmd_select, "greedy event selection for one subsystem",
        simulate, telemetry,
        windows=1 + selector.degree * selector.max_features,
    )
    sub.add_argument("subsystem", choices=[s.value for s in SUBSYSTEMS])
    command(
        "billing", _cmd_billing, "a per-process energy bill", simulate,
        telemetry, windows=_TRAIN,
    )

    sub = command(
        "obs", _cmd_obs, "print a run's telemetry or a store's summary",
        reader,
    )
    sub.add_argument("dir", nargs="?", metavar="DIR", help="telemetry directory")
    sub.add_argument("--telemetry", metavar="DIR", help="telemetry directory")
    sub.add_argument(
        "--cache-dir", metavar="DIR", help="also report this run cache"
    )
    sub.add_argument("--store", metavar="DIR", help="summarise the store at DIR")

    sub = command(
        "query", _cmd_query, "an instant or range query of a store", reader
    )
    sub.add_argument("metric")
    sub.add_argument(
        "--store", metavar="DIR", required=True, help="the store to read"
    )
    sub.add_argument(
        "--label", action="append", metavar="K=V",
        help="label matcher (repeatable; k=v exact or k=~regex)",
    )
    sub.add_argument(
        "--at", metavar="SECONDS", help="instant query: newest point at or "
        "before this timestamp (default: newest overall)", **_FINITE,
    )
    sub.add_argument(
        "--start", metavar="SECONDS", help="range start (default 0)",
        **_FINITE,
    )
    sub.add_argument(
        "--end", metavar="SECONDS", help="range end (default: newest in "
        "the store)", **_FINITE,
    )
    sub.add_argument(
        "--step", metavar="SPAN", help="range bucket width (e.g. 10, 1m; "
        "default: raw points)", **_SPAN,
    )
    sub.add_argument(
        "--agg", default="mean",
        choices=("mean", "min", "max", "sum", "count", "last"),
        help="range bucket aggregation (default mean)",
    )
    sub.add_argument(
        "--by", metavar="LABELS", help="collapse series onto these "
        "comma-separated labels (empty string = one fleet-wide series)",
    )
    sub.add_argument("--csv", action="store_true", help="print CSV, not a table")

    sub = command(
        "monitor", _cmd_monitor, "a live run with the HTTP endpoint up",
        _run_settings(_SECONDS, _WHOLE_TICK), endpoint, persist, telemetry,
        windows=_TRAIN,
    )
    sub.add_argument("workload", nargs="?", type=_workload)
    sub.add_argument(
        "--workload", dest="workload_opt", type=_workload,
        help="alternative to the positional",
    )
    sub.add_argument(
        "--perturb", metavar="FACTOR", help="scale the estimator's "
        "coefficients by FACTOR (deliberate mis-calibration)", **_FINITE,
    )
    sub.add_argument(
        "--restore-at", metavar="SECONDS", help="swap the calibrated suite "
        "back at this simulated time (with --perturb)", **_FINITE,
    )
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument(
        "--nodes", default=0, help="monitor a power-managed cluster of N "
        "nodes instead of one server", **_COUNT,
    )
    mode.add_argument(
        "--fleet", default=0, metavar="WIDTH", help="monitor a vectorized "
        "fleet of WIDTH lanes (per-lane drift drill-down on /fleet*)",
        **_COUNT,
    )
    sub.add_argument(
        "--perturb-lanes", metavar="LANES", help="with --fleet and "
        "--perturb: the lanes to mis-calibrate (default: every lane)",
        **_LANES,
    )

    sub = command(
        "serve", _cmd_serve, "the streaming estimation service", simulate,
        endpoint, persist, telemetry, windows=_TRAIN,
    )
    sub.add_argument(
        "--nodes", default=4, help="nodes --replay simulates (default 4)",
        **_COUNT,
    )
    sub.add_argument(
        "--shards", default=2, help="estimator worker shards (default 2)",
        **_COUNT,
    )
    sub.add_argument(
        "--socket-port", metavar="PORT", help="also accept the raw socket "
        "line protocol on PORT (0 = ephemeral)", **_PORT,
    )
    sub.add_argument(
        "--replay", metavar="WORKLOAD", type=_workload, help="simulate "
        "WORKLOAD on --nodes nodes and stream their counter windows, with "
        "truth watts, through the service",
    )
    sub.add_argument(
        "--queue-depth", default=256, help="per-shard ingest queue bound, "
        "in batches (default 256)", **_COUNT,
    )
    sub.add_argument(
        "--stale-after", default=10.0, metavar="SECONDS", help="a node with "
        "no accepted sample for this long is stale (default 10)", **_SECONDS,
    )
    sub.add_argument(
        "--attribute", action="store_true",
        help="publish per-term watt attribution per node on /nodes/<id>",
    )
    sub.add_argument(
        "--chaos", action="store_true",
        help="enable the destructive POST /service/kill_shard chaos hook",
    )
    sub.add_argument(
        "--rate", default=0.0, help="replay pacing in samples/s across all "
        "nodes (0 = as fast as possible)", **_NOT_NEGATIVE,
    )
    sub.add_argument(
        "--serve-for", default=0.0, metavar="SECONDS", help="keep serving "
        "this long after the replay drains (without --replay: 0 = until "
        "interrupted)", **_NOT_NEGATIVE,
    )

    sub = command(
        "sweep", _cmd_sweep, "a fault-tolerant bulk sweep", simulate, telemetry
    )
    sub.add_argument(
        "workloads", nargs="?", type=_workloads, metavar="WORKLOADS",
        help="comma-separated (default: the twelve paper workloads)",
    )
    sub.add_argument(
        "--resume", action="store_true", help="continue an interrupted "
        "sweep from its run-cache checkpoints (needs a cache directory)",
    )
    sub.add_argument(
        "--max-attempts", default=3, help="attempts per spec before it "
        "fails permanently (default 3)", **_COUNT,
    )
    sub.add_argument(
        "--retry-delay", default=0.1, metavar="SECONDS", help="base delay "
        "of the capped exponential retry backoff (default 0.1)",
        **_NOT_NEGATIVE,
    )
    sub.add_argument(
        "--task-timeout", metavar="SECONDS", help="per-task result timeout "
        "(default: wait forever)", **_checked(float, _IS_POSITIVE_FINITE, (
            lambda s: s <= threading.TIMEOUT_MAX,
            f"must not exceed {threading.TIMEOUT_MAX:g}",
        )),
    )

    sub = command(
        "explain", _cmd_explain, "per-term power attribution of one workload",
        simulate, telemetry, windows=_TRAIN,
    )
    sub.add_argument("workload", nargs="?", type=_workload, help="default mcf")
    sub.add_argument(
        "--workload", dest="workload_opt", type=_workload,
        help="alternative to the positional",
    )
    sub.add_argument(
        "--bundle", metavar="PATH", help="pretty-print a flight-recorder "
        "bundle (directory or bundle.json) instead",
    )

    sub = command(
        "datacenter", _cmd_datacenter, "the multi-zone energy-"
        "proportionality scenario (at least 30 simulated seconds)",
        _run_settings(_FINITE, _WHOLE_TICK), persist, telemetry,
    )
    sub.add_argument(
        "--dc-zones", default=3, help="availability zones (default 3)",
        **_COUNT,
    )
    sub.add_argument(
        "--nodes-per-zone", default=16, help="nodes per zone (default 16)",
        **_COUNT,
    )
    sub.add_argument(
        "--cap-w", default=0.0, help="power cap in Watts (0 = --cap-frac of "
        "the calibrated full-on peak)", **_checked(float, (
            lambda w: w >= 0, "must not be negative (0 = use --cap-frac)",
        ), _IS_FINITE),
    )
    sub.add_argument(
        "--cap-frac", default=0.6, help="auto cap as a fraction of the "
        "calibrated full-on peak (default 0.6)",
        **_checked(float, (lambda f: f > 0, "must be positive"), _IS_FINITE),
    )
    sub.add_argument(
        "--no-static", action="store_true",
        help="skip the static all-on baseline",
    )
    sub.add_argument(
        "--no-regret", action="store_true",
        help="skip the ground-truth-sensor run",
    )
    sub.add_argument(
        "--json", action="store_true", dest="json_output",
        help="print the scenario document as JSON",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    obs.log.configure()
    if "flight_dir" not in args:  # obs and query only read
        try:
            return args.handler(args)
        except BrokenPipeError:
            # Reader (e.g. `| head`) closed the pipe: not an error, but
            # stdout is now unusable — hand it /dev/null so interpreter
            # shutdown doesn't print a second traceback.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
    if args.telemetry:
        obs.enable()
    recorder = None
    if args.flight_dir:
        from repro.obs import flight as flight_mod

        recorder = flight_mod.FlightRecorder(out_dir=args.flight_dir)
        previous_recorder = flight_mod.set_global(recorder)
    dump = bool(args.telemetry)
    try:
        return args.handler(args)
    except SystemExit:
        dump = False  # a usage error: nothing ran
        raise
    except Exception as error:
        if recorder is not None:
            recorder.trigger(
                "unhandled_exception",
                detail={"type": type(error).__name__, "error": str(error)},
            )
        raise
    finally:
        if recorder is not None:
            flight_mod.set_global(previous_recorder)
            if recorder.bundles:
                print(
                    f"flight: wrote {len(recorder.bundles)} bundle(s) to "
                    f"{args.flight_dir}"
                )
        if dump:
            paths = obs.dump(args.telemetry)
            print(
                f"telemetry: wrote {', '.join(sorted(paths))} to "
                f"{args.telemetry}"
            )


# -- the commands ----------------------------------------------------------


def _cmd_experiment(args: argparse.Namespace) -> int:
    """A paper table or figure."""
    args.show(args.experiment(_context(args)))
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    print(render_propagation_diagram())
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    for name in PAPER_WORKLOADS:
        print(f"{name:10} {get_workload(name).description}")
    return 0


def _cmd_equations(args: argparse.Namespace) -> int:
    from repro.core.events import Subsystem

    context = _context(args)
    print(context.paper_suite().describe())
    print("\nAblation (rejected Equation 2 analogue):")
    print("  memory-l3:", context.l3_suite().model(Subsystem.MEMORY).describe())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import build_report

    text = build_report(_context(args))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import run_to_csv

    run = _context(args).run(args.workload)
    run_to_csv(run, args.output)
    print(f"wrote {run.n_samples} windows to {args.output}")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    from repro.core.events import Subsystem

    context = _context(args)
    subsystem = Subsystem(args.subsystem)
    train_name = PAPER_RECIPE.spec_for(subsystem).train_workload
    validation = [
        context.run(name)
        for name in ("idle", "gcc", "mcf", "mesa", "DiskLoad")
    ]
    result = EventSelector().select(
        subsystem, context.run(train_name), validation
    )
    print(result.describe())
    print("final model:", result.model.describe())
    return 0


def _cmd_billing(args: argparse.Namespace) -> int:
    from repro.core.accounting import bill_processes
    from repro.simulator.system import Server
    from repro.workloads.mixes import mix

    context = _context(args)
    suite = context.paper_suite()
    spec = mix({"gcc": 2, "mcf": 2}, stagger_s=2.0)
    server = Server(context.config, spec, seed=context.seed + 3)
    run = server.run(min(context.duration_s, 150.0))
    bills = bill_processes(suite, run.counters, server.process_stats)
    rows = [
        [
            f"thread {bill.thread_id}",
            bill.runtime_s,
            bill.cpu_energy_j / 3600.0,
            bill.induced_energy_j / 3600.0,
            bill.total_energy_j / 3600.0,
        ]
        for bill in bills
    ]
    print(
        format_table(
            f"Per-process energy bill: {spec.name}",
            ("process", "runtime s", "cpu Wh", "induced Wh", "total Wh"),
            rows,
            precision=3,
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    run = _context(args).run(args.workload)
    rows = [
        [s.value, run.power.mean(s), run.power.std(s)] for s in SUBSYSTEMS
    ]
    print(
        format_table(
            f"{args.workload}: measured power over {run.duration_s:.0f}s",
            ("subsystem", "mean W", "std W"),
            rows,
            precision=3,
        )
    )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.store:
        return _cmd_obs_store(args)
    return _print_telemetry(
        args.telemetry or args.dir or DEFAULT_TELEMETRY_DIR, args.cache_dir
    )


def _cmd_datacenter(args: argparse.Namespace) -> int:
    """Run the multi-zone energy-proportionality scenario.

    Builds a diurnal + flash-crowd + failover traffic model over
    ``--dc-zones`` zones of ``--nodes-per-zone`` nodes, calibrates the
    per-pstate sensor bank, and runs the subsystem-level policy on
    estimated power under the cap — then (by default) the same
    scenario with the ground-truth sensor (regret) and the static
    all-on baseline (EP reference).  Exits 1 if the estimated-sensor
    run ever exceeded the cap.
    """
    from repro.dc import (
        FlashCrowd,
        TrafficModel,
        ZoneOutage,
        ZoneSpec,
        run_scenario,
        train_zone_bank,
    )

    duration = max(int(args.duration), 30)
    n_zones = args.dc_zones
    per_zone = args.nodes_per_zone
    config = SystemConfig(tick_s=args.tick_ms / 1000.0)
    print(
        f"calibrating sensor bank "
        f"({len(config.cpu.dvfs_states)} pstates)...",
        file=sys.stderr,
    )
    calibration = train_zone_bank(config, seed=args.seed)
    node_capacity = len(get_workload("SPECjbb").threads)
    users_per_thread = 25_000.0
    # Peak zone demand ~75 % of zone capacity; zones peak at staggered
    # times (time-zone phase offsets across half the run).
    zones = tuple(
        ZoneSpec(
            f"zone{i}",
            per_zone,
            0.75 * per_zone * node_capacity * users_per_thread,
            phase_s=i * duration / (2.0 * n_zones),
        )
        for i in range(n_zones)
    )
    crowds = (
        FlashCrowd(
            start_s=0.2 * duration,
            duration_s=0.15 * duration,
            magnitude=1.7,
            zone=zones[0].name,
            ramp_s=max(3.0, 0.03 * duration),
        ),
    )
    outages = (
        (ZoneOutage(zones[-1].name, 0.55 * duration, 0.12 * duration),)
        if n_zones > 1
        else ()
    )
    traffic = TrafficModel(
        zones,
        users_per_thread=users_per_thread,
        period_s=float(duration),
        flash_crowds=crowds,
        outages=outages,
        seed=args.seed,
    )
    total_nodes = n_zones * per_zone
    cap_w = args.cap_w or (
        args.cap_frac * calibration.reference_peak_w * total_nodes
    )
    if not math.isfinite(cap_w):
        args.error("--cap-frac overflows the cap")
    print(
        f"running {total_nodes} nodes / {n_zones} zones for {duration}s "
        f"under a {cap_w:.0f} W cap...",
        file=sys.stderr,
    )
    store = None
    if args.store:
        from repro.obs.tsdb import TSDB

        store = TSDB(args.store)
        print(f"datacenter: persisting per-second traces to {args.store}",
              file=sys.stderr)
    doc = run_scenario(
        traffic,
        cap_w,
        duration,
        config=config,
        seed=args.seed,
        calibration=calibration,
        include_true_sensor=not args.no_regret,
        include_static=not args.no_static,
        store=store,
    )
    if store is not None:
        from types import SimpleNamespace

        from repro.obs.alertmgr import AlertManager

        # The scenario is batch, so the alert plane sees one evaluation
        # at end-of-run: cap violations / drift fallback fire (and
        # persist as alerts_firing) exactly when the report carries them.
        alerts = AlertManager(store=store)
        alerts.attach_dc(SimpleNamespace(**doc["subsystem_estimated"]))
        alerts.evaluate(float(duration))
        store.close()
    if args.json_output:
        print(json.dumps(doc, indent=2))
    else:
        rows = []
        for key, label in (
            ("subsystem_estimated", "subsystem (estimated sensor)"),
            ("subsystem_true", "subsystem (true sensor)"),
            ("static", "static all-on baseline"),
        ):
            run = doc.get(key)
            if run is None:
                continue
            ep = run["energy_proportionality"] or {}
            rows.append(
                [
                    label,
                    run["energy_j"] / 1000.0,
                    run["max_power_w"],
                    run["cap_violations"],
                    run["dropped_thread_seconds"],
                    ep.get("ep_score", float("nan")),
                ]
            )
        print(
            format_table(
                f"Datacenter scenario: {total_nodes} nodes, "
                f"{n_zones} zones, {duration}s, cap {cap_w:.0f} W",
                (
                    "policy",
                    "energy kJ",
                    "max W",
                    "cap viol",
                    "dropped t-s",
                    "EP score",
                ),
                rows,
                precision=3,
            )
        )
        managed = doc["subsystem_estimated"]
        print(
            f"  budget redistributions: {managed['budget_redistributions']}, "
            f"cap enforcements: {managed['cap_enforcements']}, "
            f"boots denied: {managed['boots_denied']}"
        )
        if "regret" in doc:
            regret = doc["regret"]
            print(
                f"  estimated-vs-true policy regret: "
                f"{regret['regret_j'] / 1000.0:+.2f} kJ "
                f"({regret['regret_pct']:+.2f} %)"
            )
        if "ep_comparison" in doc:
            comparison = doc["ep_comparison"]
            print(
                f"  energy proportionality: subsystem "
                f"{comparison['subsystem_ep_score']:.3f} vs static "
                f"{comparison['static_ep_score']:.3f} "
                f"(gain {comparison['ep_gain']:+.3f})"
            )
    return 0 if doc["subsystem_estimated"]["cap_violations"] == 0 else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    """``repro-power explain``: per-term attribution of one workload, or
    with ``--bundle`` a flight bundle."""
    from repro.obs import attribution as attr_mod

    if args.bundle:
        return _cmd_explain_bundle(args.bundle)
    name = args.workload_opt or args.workload or "mcf"
    context = _context(args)
    print("explain: training trickle-down suite ...")
    suite = context.paper_suite()
    run = context.run(name)
    report = attr_mod.attribute_run(suite, run, workload=name)

    summary_rows = []
    for sub in report.subsystems.values():
        top_term, _ = sub.top_terms(1)[0]
        summary_rows.append(
            [
                sub.subsystem,
                sub.modeled_w,
                sub.true_w if sub.true_w is not None else float("nan"),
                sub.error_pct if sub.error_pct is not None else float("nan"),
                sub.residual_w if sub.residual_w is not None else float("nan"),
                top_term,
            ]
        )
    print(
        format_table(
            f"{name}: attribution vs measured power "
            f"({report.n_samples} window(s))",
            (
                "subsystem",
                "modeled W",
                "true W",
                "avg err %",
                "true-est W",
                "dominant term",
            ),
            summary_rows,
            precision=2,
        )
    )
    print()
    term_rows = []
    for sub in report.subsystems.values():
        for term, watts in sub.top_terms(n=len(sub.terms_w)):
            term_rows.append([sub.subsystem, term, watts, sub.share_pct(term)])
    print(
        format_table(
            "Per-term attribution (mean W over the run)",
            ("subsystem", "term", "watts", "share %"),
            term_rows,
            precision=2,
        )
    )
    print()
    cpu = report.subsystems.get("cpu")
    if cpu is not None:
        print("explain:", attr_mod.diagnose(cpu, n=1))
        fetched_w = sum(
            watts for term, watts in cpu.terms_w.items() if "fetched_uops" in term
        )
        if cpu.residual_w is not None and cpu.residual_w > 0 and fetched_w:
            share = 100.0 * fetched_w / cpu.modeled_w if cpu.modeled_w else 0.0
            print(
                f"explain: the fetched-uops terms attribute only "
                f"{fetched_w:.1f} W ({share:.0f}% of the CPU estimate) yet "
                f"true CPU power runs {cpu.residual_w:.1f} W above the "
                "model — speculative work that fetched uops cannot see "
                "(the paper's mcf diagnosis, Section 5)."
            )
    return 0


def _cmd_explain_bundle(path: str) -> int:
    """``repro-power explain --bundle``: print a flight bundle."""
    from repro.obs import attribution as attr_mod
    from repro.obs import flight as flight_mod

    try:
        doc = flight_mod.load_bundle(path)
    except (OSError, ValueError) as error:
        print(f"explain: cannot read bundle at {path!r}: {error}")
        return 1
    provenance = doc.get("provenance") or {}
    print(
        "flight bundle: {}  (recorded {} on {} @ {})".format(
            doc.get("reason", "?"),
            provenance.get("date", "?"),
            provenance.get("host", "?"),
            provenance.get("git_sha", "?"),
        )
    )
    detail = doc.get("detail")
    if detail:
        print(f"  trigger detail: {json.dumps(detail, sort_keys=True)}")
    frames = doc.get("frames") or []
    print(f"  frames recorded: {len(frames)}")
    for frame in frames[-5:]:
        if frame.get("kind") == "note":
            print(f"    t={frame.get('t_s', 0.0):9.1f}s  note: {frame.get('message')}")
            continue
        print(
            "    t={:9.1f}s  true {:6.1f}W  est {:6.1f}W  err {:5.1f}%".format(
                frame.get("t_s", 0.0),
                frame.get("true_w", float("nan")),
                frame.get("estimated_w", float("nan")),
                frame.get("error_pct", float("nan")),
            )
        )
    drift_doc = doc.get("drift")
    if drift_doc:
        print(
            f"  drift: slo {drift_doc.get('slo_pct')}%  "
            f"firing: {', '.join(drift_doc.get('firing', [])) or 'none'}"
        )
        for alert in (drift_doc.get("history") or [])[-8:]:
            top = ", ".join(
                f"{term}={watts:.1f}W" for term, watts in alert.get("top_terms", [])
            )
            print(
                f"    {alert['state']:>8}  {alert['subsystem']:8} "
                f"err {alert['error_pct']:5.1f}%  t={alert['timestamp_s']:.1f}s"
                + (f"  top: {top}" if top else "")
            )
    windows_doc = doc.get("windows")
    if windows_doc:
        print(
            f"  windows: {len(windows_doc.get('windows', []))} in bundle "
            f"(of {windows_doc.get('n_windows', '?')} recorded, "
            f"{windows_doc.get('window_s', '?')}s wide)"
        )
    attribution_doc = doc.get("attribution")
    if attribution_doc:
        attribution = attr_mod.Attribution.from_dict(attribution_doc)
        rows = [
            [sub, term, watts]
            for sub in attribution.subsystems()
            for term, watts in attribution.top_terms(sub, n=99)
        ]
        print()
        print(
            format_table(
                "Latest attribution (W)",
                ("subsystem", "term", "watts"),
                rows,
                precision=2,
            )
        )
        if attribution.residual_w:
            residuals = "  ".join(
                f"{sub} {watts:+.1f}W"
                for sub, watts in sorted(attribution.residual_w.items())
            )
            print(f"  residual (est-true): {residuals}")
    tail = doc.get("trace_tail") or []
    print(f"  trace events in tail: {len(tail)}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """``repro-power sweep``: fault-tolerant bulk simulation."""
    from repro.exec import RetryPolicy, sweep_specs

    context = _context(args)
    names = args.workloads or list(PAPER_WORKLOADS)
    specs = [context.spec_for(name) for name in names]
    cache = context.cache
    if args.resume:
        if not cache.enabled:
            args.error("--resume needs --cache-dir or REPRO_CACHE_DIR")
        done = sum(
            1
            for spec in specs
            if os.path.exists(cache.path_for(spec.key()) or "")
        )
        print(
            f"sweep: resuming — {done}/{len(specs)} spec(s) already "
            f"checkpointed in {cache.root}"
        )
    retry = RetryPolicy(
        max_attempts=args.max_attempts,
        base_delay=args.retry_delay,
        timeout_s=args.task_timeout,
    )
    result = sweep_specs(
        specs,
        n_workers=args.workers,
        cache=cache if cache.enabled else None,
        retry=retry,
        allow_partial=True,
    )
    rows = []
    for i, (name, run) in enumerate(zip(names, result.runs)):
        if run is None:
            rows.append([name, "FAILED", result.failed.get(i, "?")])
        else:
            source = "cache" if i not in result.simulated else "simulated"
            rows.append([name, source, f"{run.n_samples} windows"])
    print(
        format_table(
            f"Sweep of {len(names)} workload(s) over "
            f"{result.n_workers} worker(s)",
            ("workload", "status", "detail"),
            rows,
            precision=0,
        )
    )
    print(
        f"sweep: {result.cache_stats_hits} cache hit(s), "
        f"{len(result.simulated)} simulated, {result.retries} retried "
        f"task(s), {result.worker_failures} worker failure(s)"
        + (", degraded to serial" if result.degraded else "")
    )
    if obs.enabled():
        print(
            "sweep: counters — "
            f"sweep_retries_total={obs.counter('sweep_retries_total'):g} "
            "sweep_worker_failures_total="
            f"{obs.counter('sweep_worker_failures_total'):g} "
            "sweep_failed_specs_total="
            f"{obs.counter('sweep_failed_specs_total'):g}"
        )
    if result.failed:
        for i, error in sorted(result.failed.items()):
            print(f"sweep: PERMANENT FAILURE {names[i]}: {error}")
        return 1
    return 0


def _start_endpoint(args: argparse.Namespace, command: str, drift=None, chaos=False):
    """Telemetry on, then the flight recorder and the endpoint, bound and
    ``training``, whose alert manager watches ``drift``; then the
    ``--store`` store with its rules, which also records alert
    transitions.

    The endpoint owns the process's only ``--window``-wide windowed
    registry: it backs ``/windows`` and the flight recorder's bundles,
    and with ``--store`` its closed windows persist through a
    :class:`~repro.obs.tsdb.WindowSink`.  Whoever owns the clock folds
    into it.

    Returns None, after saying why on stderr, if the port is taken; the
    store is not opened then.
    """
    from repro.obs.http import ObservabilityServer
    from repro.obs.live import WindowedRegistry

    obs.enable()
    windows = WindowedRegistry(window_s=args.window)
    recorder = None
    if args.flight_dir:
        from repro.obs import flight as flight_mod

        recorder = flight_mod.get_global()
        if recorder is not None:
            recorder.drift = drift
            recorder.windows = windows
    endpoint = ObservabilityServer(
        drift=drift, windows=windows, flight=recorder, chaos=chaos,
        port=args.port,
    )
    endpoint.phase = "training"
    try:
        endpoint.start()
    except OSError as error:
        print(f"{command}: {error.strerror or error}", file=sys.stderr)
        return None
    if args.store:
        from repro.obs.rules import RuleEngine
        from repro.obs.tsdb import TSDB, WindowSink

        endpoint.store = endpoint.alerts.store = TSDB(args.store)
        endpoint.rules = RuleEngine()
        endpoint.store.attach_rules(endpoint.rules)
        windows.on_evict = WindowSink(endpoint.store)
        print(f"{command}: persisting telemetry to {args.store}")
    return endpoint


def _cmd_monitor(args: argparse.Namespace) -> int:
    """``repro-power monitor``: live run with the HTTP endpoint up."""
    from repro.obs import drift as drift_mod
    from repro.obs.http import ObservabilityServer

    name = args.workload_opt or args.workload
    if not (args.nodes or args.fleet or name):
        args.error("'monitor' needs a workload (positional or --workload)")
    perturb_lanes = args.perturb_lanes
    if perturb_lanes is not None:
        if not args.fleet:
            args.error("--perturb-lanes needs --fleet")
        if args.perturb is None:
            args.error("--perturb-lanes needs --perturb")
        bad = [lane for lane in perturb_lanes if lane >= args.fleet]
        if bad:
            args.error(
                f"--perturb-lanes out of range for --fleet {args.fleet}: "
                + ",".join(map(str, bad))
            )
    context = _context(args)

    slo = drift_mod.DEFAULT_SLO_PCT if args.slo is None else args.slo
    if args.fleet > 0:
        from repro.obs.fleet import FleetDriftMonitor

        # The vectorized monitor serves /alerts and drift-aware
        # /healthz exactly like the scalar one (same firing /
        # unresolved / to_json surface), with per-lane streams.
        drift = FleetDriftMonitor(args.fleet, slo_pct=slo)
    else:
        drift = drift_mod.DriftMonitor(slo_pct=slo)
    endpoint = _start_endpoint(args, "monitor", drift=drift)
    if endpoint is None:
        return 2
    # With --port 0 this prints the ephemeral port actually bound.
    print(
        f"monitor: endpoint at {endpoint.url()} "
        f"(routes: {' '.join(ObservabilityServer.ROUTES)})"
    )
    print("monitor: training trickle-down suite ...")
    suite = context.paper_suite()
    # Fleet mode perturbs per lane through the monitor instead of
    # forking a scaled suite, so the batched design-matrix pass stays
    # shared across calibrated and mis-calibrated lanes.
    scale_suite = args.perturb is not None and args.fleet <= 0
    active = suite.scaled(args.perturb) if scale_suite else suite
    if scale_suite:
        print(
            f"monitor: estimator coefficients scaled x{args.perturb:g}"
            f"{_restore_note(args)}"
        )
    seconds = max(1, int(round(args.duration)))
    try:
        endpoint.phase = "running"
        if args.fleet > 0:
            _monitor_fleet(args, context, endpoint, suite, name, perturb_lanes, seconds)
        elif args.nodes > 0:
            _monitor_cluster(args, context, endpoint, suite, active, name, seconds)
        else:
            _monitor_server(args, context, endpoint, suite, active, name, seconds)
        endpoint.phase = "done"
    finally:
        if args.telemetry:
            os.makedirs(args.telemetry, exist_ok=True)
            alerts_path = os.path.join(args.telemetry, "alerts.json")
            with open(alerts_path, "w", encoding="utf-8") as handle:
                json.dump(drift.to_json(), handle, indent=2, sort_keys=True)
            print(f"monitor: wrote alert log to {alerts_path}")
        if endpoint.store is not None:
            # Short runs may never evict a window naturally; drain the
            # remainder, then commit everything in one final flush.
            endpoint.windows.drain()
            endpoint.store.close()
            print(f"monitor: store committed to {args.store}")
        endpoint.stop()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro-power serve``: the long-lived streaming estimation service."""
    import signal
    from time import monotonic, sleep

    from repro.obs import drift as drift_mod
    from repro.serve import EstimationService, LineSocketServer, SLOEngine

    if args.replay is None and args.rate:
        args.error("--rate needs --replay")
    context = _context(args)
    slo_pct = drift_mod.DEFAULT_SLO_PCT if args.slo is None else args.slo
    endpoint = _start_endpoint(args, "serve", chaos=args.chaos)
    if endpoint is None:
        return 2
    recorder, store = endpoint.flight, endpoint.store
    # With --port 0 this prints the ephemeral port actually bound.
    print(
        f"serve: endpoint at {endpoint.url()} "
        f"(POST {endpoint.url('/ingest')}, scrape /nodes /service /slo)"
    )
    print("serve: training trickle-down suite ...")
    suite = context.paper_suite()
    service = EstimationService(
        suite,
        shards=args.shards,
        queue_depth=args.queue_depth,
        stale_after_s=args.stale_after,
        drift_slo_pct=slo_pct,
        attribute=args.attribute,
        slo=SLOEngine(error_bound_pct=slo_pct, flight=recorder),
        flight=recorder,
    )
    endpoint.service = service
    endpoint.alerts.attach_service(service)
    # The housekeeping thread owns the clock: it folds the windows, so
    # a replay that keeps this thread busy cannot stall them.
    service.windows = endpoint.windows
    service.start()
    socket_server = None
    if args.socket_port is not None:
        socket_server = LineSocketServer(service, port=args.socket_port)
        try:
            port = socket_server.start()
        except OSError as error:
            print(f"serve: {error}", file=sys.stderr)
            endpoint.stop()
            service.stop()
            return 2
        print(f"serve: socket line-protocol ingest on 127.0.0.1:{port}")
    print(
        f"serve: {args.shards} shard(s), queue depth {args.queue_depth}, "
        f"stale after {args.stale_after:g}s, drift SLO {slo_pct:g}%"
    )

    previous_sigterm = signal.getsignal(signal.SIGTERM)

    def _sigterm(signum, frame):  # noqa: ARG001
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    endpoint.phase = "running"
    code = 0
    try:
        if args.replay:
            _serve_replay(args, context, service)
        deadline = (
            monotonic() + args.serve_for
            if args.serve_for > 0
            else (None if args.replay is None else monotonic())
        )
        if deadline is None:
            print("serve: serving until interrupted (SIGINT/SIGTERM) ...")
        next_report = monotonic() + args.refresh
        while deadline is None or monotonic() < deadline:
            sleep(0.2)
            if monotonic() >= next_report:
                _print_serve_summary(endpoint)
                _store_tick(endpoint, monotonic())
                next_report = monotonic() + args.refresh
        endpoint.phase = "done"
    except KeyboardInterrupt:
        print("serve: interrupted, shutting down")
        endpoint.phase = "done"
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        if socket_server is not None:
            socket_server.stop()
        # Live shards publish their backlog before the last report.
        service.stop()
        _print_serve_summary(endpoint)
        if args.telemetry:
            os.makedirs(args.telemetry, exist_ok=True)
            service_path = os.path.join(args.telemetry, "service.json")
            with open(service_path, "w", encoding="utf-8") as handle:
                json.dump(
                    service.service_document(), handle, indent=2, sort_keys=True,
                    default=str,
                )
            print(f"serve: wrote service state to {service_path}")
        if store is not None:
            # Every accepted sample is published and the housekeeping
            # thread has stopped: fold what its last tick missed, at the
            # service's clock, then drain the endpoint's windows, commit
            # and record the final alert state.
            endpoint.windows.ingest(service.staleness.now(), obs.registry())
            endpoint.windows.drain()
            store.flush()
            _store_tick(endpoint, monotonic())
            store.close()
            print(f"serve: store committed to {args.store}")
        endpoint.stop()
    return code


def _serve_replay(args, context, service) -> None:
    """Simulate ``--nodes`` runs and stream their windows into the service."""
    from time import monotonic, sleep

    from repro.serve import frames_from_run
    from repro.simulator import simulate_workload

    spec = get_workload(args.replay)
    print(
        f"serve: replaying {args.replay} on {args.nodes} node(s) "
        f"({context.duration_s:g}s simulated each) ..."
    )
    streams = []
    for i in range(args.nodes):
        run = simulate_workload(
            spec,
            config=context.config,
            seed=context.seed + i,
            duration_s=context.duration_s,
        )
        streams.append(
            frames_from_run(
                run,
                f"node-{i}",
                frame_samples=64,
                events=service.required_events,
            )
        )
    # Round-robin across nodes so every shard sees interleaved load.
    min_len = min(len(stream) for stream in streams)
    lines = [line for group in zip(*streams) for line in group]
    for stream in streams:
        lines.extend(stream[min_len:])
    total = accepted = shed = 0
    started = monotonic()
    for line in lines:
        receipt = service.ingest(line, transport="replay")
        n = receipt["accepted"] + receipt["shed"]
        total += n
        accepted += receipt["accepted"]
        shed += receipt["shed"]
        if args.rate > 0:
            # Open-loop pacing: sleep to the schedule, never faster, a
            # second at a time, since a tiny rate's schedule lies past
            # what one sleep can wait for.
            due = started + total / args.rate
            delay = due - monotonic()
            while delay > 0:
                sleep(min(delay, 1.0))
                delay = due - monotonic()
    elapsed = monotonic() - started
    print(
        f"serve: replay offered {total} sample(s) in {elapsed:.1f}s "
        f"({total / max(elapsed, 1e-9):,.0f}/s), accepted {accepted}, "
        f"shed {shed}"
    )


def _print_serve_summary(endpoint) -> None:
    from repro.obs.alertmgr import health_status

    service = endpoint.service
    alerts = endpoint.alerts.poll()
    fleet = service.nodes_document()["fleet"]
    power = fleet.get("power_w", {})
    burn = ",".join(
        alert.labels["slo"] for alert in alerts if alert.name == "fast_burn"
    ) or "none"
    print(
        f"serve: status={health_status(alerts)[1]:8} nodes={fleet['count']} "
        f"(stale {fleet['stale']})  samples={service.samples_total}  "
        f"shed={service.shed_samples_total}  "
        f"fleet={power.get('sum', float('nan')):.1f}W  fast-burn={burn}"
    )


def _report_alerts(drift, seen: int) -> int:
    """Print the drift transitions made after the first ``seen``; returns
    how many there are now.  Those that already left the bounded
    history are counted, not printed."""
    history = drift.history()
    new = drift.n_transitions - seen
    dropped = max(0, new - len(history))
    if dropped:
        print(
            f"monitor: {dropped} alert transition(s) left the history "
            "before they were printed"
        )
    for alert in history[len(history) - (new - dropped):]:
        top = ""
        if alert.top_terms:
            top = "  top: " + ", ".join(
                f"{term}={watts:.1f}W" for term, watts in alert.top_terms
            )
        print(
            f"monitor: ALERT {alert.state:>8}  {alert.stream:8} "
            f"ewma err {alert.error_pct:5.1f}% "
            f"(threshold {alert.threshold_pct:.1f}%)  t={alert.timestamp_s:.1f}s"
            + top
        )
    return drift.n_transitions


def _store_tick(endpoint, now_s: float) -> None:
    """Periodic upkeep: record alert transitions, then flush the store.

    The flush evaluates recording rules at ``now_s`` and commits
    everything appended so far, so a killed run loses at most one
    refresh interval.  Windows are folded by the clock's owner, not
    here: :func:`_monitor_loop`, or ``serve``'s housekeeping tick.
    """
    endpoint.alerts.evaluate(now_s)
    if endpoint.store is not None:
        endpoint.store.flush(now_s)


def _restore_note(args: argparse.Namespace) -> str:
    if args.restore_at is None:
        return ""
    return f", restoring calibration at t={args.restore_at:g}s"


def _ticks_per_s(config: SystemConfig) -> int:
    """The ticks every ``monitor`` mode runs per simulated second (the
    parser lets only a tick that divides one second through)."""
    return round(1.0 / config.tick_s)


def _monitor_loop(
    args: argparse.Namespace, endpoint, config: SystemConfig, seconds: int,
    step, restore, summary,
) -> None:
    """The per-second work every ``monitor`` mode shares.

    Each simulated second ``step()`` advances the engine one second, and
    the loop, which owns the clock, folds the process registry into the
    endpoint's windows; at ``--restore-at`` (with ``--perturb``)
    ``restore()`` swaps the calibrated suite back; new drift transitions
    print; the store ticks; and every ``--refresh`` seconds
    ``summary(now_s, second, wall_s)`` prints the mode's line.
    """
    from time import perf_counter

    windows = endpoint.windows
    ticks_per_s = _ticks_per_s(config)
    restored = args.perturb is None or args.restore_at is None
    seen_alerts = 0
    next_report = args.refresh
    wall_start = perf_counter()
    for second in range(1, seconds + 1):
        step()
        # A product, where the engines sum their ticks: whole seconds
        # read whole whenever the tick divides one second (at 10 ms
        # ticks the engines' t=3 reads 2.99999999999998).
        now_s = second * ticks_per_s * config.tick_s
        windows.ingest(now_s, obs.registry())
        # Closed windows persist eagerly (the sink is idempotent), not
        # only once they fall off the sliding edge.
        windows.sink_closed(now_s)
        if not restored and now_s >= args.restore_at:
            restore()
            restored = True
            print(f"monitor: t={now_s:6.1f}s  calibrated suite restored")
        seen_alerts = _report_alerts(endpoint.drift, seen_alerts)
        _store_tick(endpoint, now_s)
        if second >= next_report:
            summary(now_s, second, perf_counter() - wall_start)
            next_report += args.refresh


def _monitor_server(args, context, endpoint, suite, active, name, seconds) -> None:
    from repro.core.estimator import SystemPowerEstimator
    from repro.obs.live import LiveMonitor
    from repro.simulator.system import Server

    drift = endpoint.drift
    server = Server(context.config, get_workload(name), seed=context.seed)
    monitor = LiveMonitor(
        SystemPowerEstimator(active, attribute=True),
        drift=drift,
        flight=endpoint.flight,
    )
    server.attach_monitor(monitor)
    ticks_per_s = _ticks_per_s(context.config)

    def step() -> None:
        server.run_ticks(ticks_per_s)

    def summary(now_s: float, second: int, wall_s: float) -> None:
        sample = monitor.last
        if sample is None:
            print(f"monitor: t={now_s:6.1f}s  (no sampler window closed yet)")
            return
        per_subsystem = "  ".join(
            f"{subsystem[:4]} {sample.estimated_w.get(subsystem, 0.0):5.1f}W"
            for subsystem in sorted(sample.true_w)
        )
        firing = ",".join(drift.firing) or "-"
        rate = second * ticks_per_s / wall_s if wall_s > 0 else 0.0
        print(
            f"monitor: t={now_s:6.1f}s  true {sample.total_true_w:6.1f}W  "
            f"est {sample.total_estimated_w:6.1f}W  "
            f"err {sample.total_error_pct:4.1f}%  [{per_subsystem}]  "
            f"alerts: {firing}  {rate:,.0f} ticks/s"
        )

    print(f"monitor: running {name} for {seconds}s of simulated time ...")
    _monitor_loop(
        args, endpoint, context.config, seconds, step,
        lambda: monitor.set_suite(suite), summary,
    )
    server.detach_monitor()
    print(
        f"monitor: done — {monitor.n_windows} sampler window(s), "
        f"{drift.n_transitions} alert transition(s), "
        f"firing now: {', '.join(drift.firing) or 'none'}"
    )


def _monitor_fleet(
    args, context, endpoint, suite, name, perturb_lanes, seconds
) -> None:
    from repro.obs.fleet import FleetMonitor
    from repro.simulator.fleet import FleetServer

    drift = endpoint.drift
    name = name or "gcc"
    seeds = [context.seed + lane for lane in range(args.fleet)]
    fleet = FleetServer(context.config, get_workload(name), seeds)
    monitor = FleetMonitor(suite, drift=drift, flight=endpoint.flight)
    endpoint.fleet = monitor
    fleet.attach_fleet_monitor(monitor)
    if args.perturb is not None:
        lanes = (
            perturb_lanes
            if perturb_lanes is not None
            else tuple(range(args.fleet))
        )
        monitor.perturb_lanes(args.perturb, lanes)
        print(
            f"monitor: lane(s) {','.join(map(str, lanes))} "
            f"scaled x{args.perturb:g}{_restore_note(args)}"
        )
    ticks_per_s = _ticks_per_s(context.config)

    def step() -> None:
        fleet.run_ticks(ticks_per_s)
        # Every second's windows are judged before a restore, with the
        # perturbation still applied.
        monitor.flush()

    def summary(now_s: float, second: int, wall_s: float) -> None:
        document = monitor.fleet_document()
        power = document["power_w"]
        if not power["true"]:
            print(f"monitor: t={now_s:6.1f}s  (no lane window closed yet)")
            return
        error = document.get("error_pct") or {}
        firing = ",".join(str(lane) for lane in document["firing_lanes"]) or "-"
        rate = second * ticks_per_s * args.fleet / wall_s if wall_s > 0 else 0.0
        print(
            f"monitor: t={now_s:6.1f}s  "
            f"true mean {power['true'].get('mean', 0.0):6.1f}W  "
            f"est mean {power.get('estimated', {}).get('mean', 0.0):6.1f}W  "
            f"err p95 {error.get('p95', float('nan')):4.1f}%  "
            f"firing lanes: {firing}  {rate:,.0f} lane-ticks/s"
        )

    print(
        f"monitor: fleet of {args.fleet} lane(s) running {name} for "
        f"{seconds}s of simulated time ..."
    )
    _monitor_loop(
        args, endpoint, context.config, seconds, step, monitor.restore_lanes,
        summary,
    )
    fleet.detach_fleet_monitor()
    firing = ",".join(map(str, drift.firing_lanes())) or "none"
    print(
        f"monitor: done — {monitor.n_windows} lane window(s) in "
        f"{monitor.n_flushes} flush(es), "
        f"{drift.n_transitions} alert transition(s), "
        f"firing lanes: {firing}"
    )


def _monitor_cluster(args, context, endpoint, suite, active, name, seconds) -> None:
    from repro.cluster import Cluster, PowerAwareManager, diurnal_demand
    from repro.obs.live import ClusterObserver

    drift = endpoint.drift
    service = name or "SPECjbb"
    cluster = Cluster(
        n_nodes=args.nodes,
        config=context.config,
        seed=context.seed,
        service_workload=service,
    )
    peak = max(1, int(cluster.capacity * 0.85))
    trough = max(1, cluster.capacity // 8)
    demand = diurnal_demand(
        seconds,
        peak,
        trough,
        period_s=max(seconds / 2.0, 60.0),
        seed=context.seed,
    )
    observer = ClusterObserver(
        suite=active,
        drift=drift,
        attribute=True,
        flight=endpoint.flight,
    )
    manager = PowerAwareManager()
    slices: "list" = []  # one ClusterTrace per second

    def step() -> None:
        t = len(slices)
        slices.append(cluster.run([demand[t]], manager))
        observer.on_second(cluster, float(t + 1))

    def summary(now_s: float, second: int, wall_s: float) -> None:
        last = slices[-1]
        error = (
            f"{observer.last.total_error_pct:4.1f}%"
            if observer.last is not None
            else "  n/a"
        )
        print(
            f"monitor: t={now_s:6.1f}s  demand {last.demand[-1]:3d}  "
            f"served {last.served[-1]:3d}  "
            f"nodes on {last.nodes_on[-1]}/{args.nodes}  "
            f"power {last.power_w[-1]:7.1f}W  est err {error}  "
            f"alerts: {','.join(drift.firing) or '-'}"
        )

    print(
        f"monitor: cluster of {args.nodes} node(s) serving {service}, "
        f"demand {trough}..{peak} threads over {seconds}s ..."
    )
    _monitor_loop(
        args, endpoint, context.config, seconds, step,
        lambda: observer.set_suite(suite), summary,
    )
    energy_j = sum(trace.energy_j for trace in slices)
    dropped = sum(trace.dropped_thread_seconds for trace in slices)
    print(
        f"monitor: done — energy {energy_j / 3600.0:.2f} Wh, "
        f"dropped {dropped} thread-second(s), "
        f"{drift.n_transitions} alert transition(s), "
        f"firing now: {', '.join(drift.firing) or 'none'}"
    )


def _print_telemetry(directory: str, cache_dir: "str | None") -> int:
    """Pretty-print the telemetry a previous ``--telemetry`` run dumped."""
    metrics_path = os.path.join(directory, obs.METRICS_JSON)
    trace_path = os.path.join(directory, obs.TRACE_JSONL)
    if not os.path.exists(metrics_path):
        print(
            f"no telemetry at {directory!r} (expected {obs.METRICS_JSON}); "
            "run any command with --telemetry first"
        )
        return 1
    with open(metrics_path, encoding="utf-8") as handle:
        data = json.load(handle)

    provenance = data.get("provenance", {})
    if provenance:
        print(
            "telemetry recorded {} on {} @ {}".format(
                provenance.get("date", "?"),
                provenance.get("host", "?"),
                provenance.get("git_sha", "?"),
            )
        )
        print()

    counters = data.get("counters", [])
    gauges = data.get("gauges", [])
    if counters:
        rows = [
            [e["name"] + _label_str(e.get("labels", {})), e["value"]]
            for e in counters
        ]
        print(format_table("Counters", ("metric", "value"), rows, precision=0))
        print()
    if gauges:
        rows = [
            [e["name"] + _label_str(e.get("labels", {})), e["value"]]
            for e in gauges
        ]
        print(format_table("Gauges", ("metric", "value"), rows, precision=3))
        print()
    histograms = data.get("histograms", [])
    if histograms:
        rows = []
        for e in histograms:
            count = e["count"]
            mean = e["sum"] / count if count else 0.0
            # Quantiles straight from the bucket cells, so stage-latency
            # histograms read without scraping the Prometheus text.
            hist = obs.Histogram.from_dict(e)
            rows.append(
                [
                    e["name"] + _label_str(e.get("labels", {})),
                    count,
                    mean,
                    hist.quantile(0.5),
                    hist.quantile(0.95),
                    hist.quantile(0.99),
                    e["sum"],
                ]
            )
        print(
            format_table(
                "Histograms",
                ("metric", "count", "mean", "p50", "p95", "p99", "sum"),
                rows,
                precision=4,
            )
        )
        print()

    if os.path.exists(trace_path):
        events = obs.read_jsonl(trace_path)
        if events:
            slowest = sorted(events, key=lambda e: e["dur_s"], reverse=True)[:10]
            rows = [
                [
                    event["name"],
                    event.get("attrs", {}).get("workload", ""),
                    event["dur_s"],
                ]
                for event in slowest
            ]
            print(
                format_table(
                    f"Slowest spans ({len(events)} event(s) total)",
                    ("span", "workload", "seconds"),
                    rows,
                    precision=4,
                )
            )
            print()

    from repro.exec import RunCache

    cache = RunCache(cache_dir or os.environ.get("REPRO_CACHE_DIR"))
    if cache.enabled:
        lifetime = cache.lifetime_stats()
        print(
            f"run cache at {cache.root}: lifetime {lifetime.describe()}, "
            f"hit ratio {lifetime.hit_ratio:.1%}"
        )
    return 0


def _label_str(labels: dict) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


def _cmd_query(args: argparse.Namespace) -> int:
    """``repro-power query``: read a TSDB store from any process."""
    from repro.obs.tsdb import TSDB, parse_matchers

    name = args.metric
    if not os.path.isdir(args.store):
        print(f"query: no store at {args.store!r}", file=sys.stderr)
        return 1
    db = TSDB(args.store)
    try:
        matchers = parse_matchers(args.label) or None
    except ValueError as error:
        args.error(str(error))
    range_mode = any(
        value is not None
        for value in (args.start, args.end, args.range_s, args.step)
    )
    if not range_mode:
        try:
            results = db.query(name, matchers, at_s=args.at)
        except ValueError as error:
            args.error(str(error))
        if not results and not args.csv:
            print(f"query: no series matched {name}")
            return 1
        if args.csv:
            print("metric,labels,t_s,value")
            for series in results:
                print(
                    f"{name},{_label_str(series['labels'])},"
                    f"{series['t_s']:g},{series['value']:g}"
                )
        else:
            rows = [
                [name + _label_str(s["labels"]), s["t_s"], s["value"]]
                for s in results
            ]
            print(
                format_table(
                    f"{name} @ "
                    + (f"{args.at:g}s" if args.at is not None else "latest"),
                    ("series", "t_s", "value"),
                    rows,
                    precision=3,
                )
            )
        return 0 if results else 1

    start = args.start
    end = args.end
    if args.range_s is not None:
        anchor = end if end is not None else (db.max_t_s() or 0.0)
        start = anchor - args.range_s
        end = anchor
    by = None
    if args.by is not None:
        by = tuple(part for part in args.by.split(",") if part)
    try:
        results = (db.query_range if args.csv else db.summary)(
            name,
            matchers,
            start_s=start if start is not None else 0.0,
            end_s=end,
            step_s=args.step,
            agg=args.agg,
            by=by,
            tier=args.tier,
        )
    except ValueError as error:
        args.error(str(error))
    if args.csv:
        print("metric,labels,tier,t_s,value")
        for series in results:
            labels = _label_str(series["labels"])
            for t_s, value in series["points"]:
                print(f"{name},{labels},{series['tier']},{t_s:g},{value:g}")
        return 0 if any(s["points"] for s in results) else 1
    rows = _summary_rows(name, results)
    if not rows:
        print(f"query: no points for {name} in the requested range")
        return 1
    print(
        format_table(
            f"{name} [{args.agg}"
            + (f", step {args.step:g}s" if args.step else "")
            + "]",
            _SUMMARY_COLUMNS,
            rows,
            precision=3,
        )
    )
    return 0


_SUMMARY_COLUMNS = ("series", "tier", "points", "min", "mean", "max", "last")


def _summary_rows(name: str, summaries) -> "list[list]":
    """One ``_SUMMARY_COLUMNS`` row per :meth:`TSDB.summary` entry."""
    return [
        [name + _label_str(entry["labels"])]
        + [entry[column] for column in _SUMMARY_COLUMNS[1:]]
        for entry in summaries
    ]


def _cmd_obs_store(args: argparse.Namespace) -> int:
    """``repro-power obs --store``: per-metric summary of a TSDB store."""
    from repro.obs.tsdb import TSDB

    span = args.range_s or 300.0
    if not os.path.isdir(args.store):
        print(
            f"no store at {args.store!r}; run monitor/serve/datacenter "
            "with --store first"
        )
        return 1
    db = TSDB(args.store)
    names = db.names()
    if not names:
        print(f"store at {args.store} holds no series yet")
        return 1
    newest = db.max_t_s() or 0.0
    rows = []
    for name in names:
        rows += _summary_rows(name, db.summary(
            name, start_s=newest - span, end_s=newest, tier=args.tier
        ))
    print(
        format_table(
            f"Store at {args.store}: last {span:g}s "
            f"({len(names)} metric(s))",
            _SUMMARY_COLUMNS,
            rows,
            precision=3,
        )
    )
    summary = db.document()
    shards = summary["shards"]
    appended = sum(entry["appended"] for entry in shards.values())
    segments = sum(
        count
        for entry in shards.values()
        for count in entry["segments"].values()
    )
    print(
        f"store: {len(shards)} metric shard(s), "
        f"{appended} sample(s) appended lifetime, "
        f"{segments} sealed segment(s), {summary['flushes']} flush(es)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

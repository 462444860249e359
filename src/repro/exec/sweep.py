"""Parallel sweep engine: many independent simulated runs at once.

The paper's evaluation is a sweep — twelve workloads simulated under
one configuration, then fed to training and validation.  Each run is
completely independent (its RNG streams derive from the base seed and
the workload name, never from other runs), so runs parallelise across
worker processes with **bit-identical** results: the worker executes
exactly the same ``simulate_workload`` call the serial path would, and
result ordering follows the spec list, not completion order.

``sweep``/``sweep_specs`` are the single entry point the experiment
context, the CLI, the benchmarks and the calibration script all route
through; pair them with :class:`~repro.exec.cache.RunCache` to skip
already-simulated runs across processes.

Execution is **fault tolerant**: per-task exceptions and timeouts are
retried with capped exponential backoff (:class:`RetryPolicy`), a dead
worker (``BrokenProcessPool``) causes a bounded number of pool rebuilds
before the sweep degrades to serial in-process execution, and — when a
cache is attached — every completed run is checkpointed immediately, so
a killed sweep resumes from its last stored run (``repro-power sweep
--resume``).  Specs that still fail after ``max_attempts`` are reported
in ``SweepResult.failed``; by default that raises :class:`SweepError`,
with ``allow_partial=True`` the partial result is returned instead.
Deterministic fault injection for all of this lives in
:mod:`repro.exec.faults`.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro import obs
from repro.core.traces import MeasuredRun
from repro.exec.cache import RunCache, run_key
from repro.exec.faults import FaultPlan
from repro.simulator.config import SystemConfig

logger = logging.getLogger(__name__)

#: Bucket edges for the worker queue-wait histogram (seconds).
_QUEUE_WAIT_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0)

#: Broken-pool rebuilds tolerated before degrading to serial execution.
_MAX_POOL_REBUILDS = 2


@dataclass(frozen=True)
class SweepSpec:
    """One run of the sweep: which workload, under which conditions.

    ``config=None`` means the default :class:`SystemConfig`; the spec
    must stay picklable because it crosses the process boundary whole.
    """

    workload: str
    seed: int = 7
    duration_s: float = 300.0
    pstate: int = 0
    config: "SystemConfig | None" = None
    #: Counter windows dropped from the front of the returned run
    #: (program initialisation); applied inside the worker so cached
    #: and freshly simulated runs are interchangeable.
    warmup_windows: int = 0

    def resolved_config(self) -> SystemConfig:
        return self.config if self.config is not None else SystemConfig()

    def key(self) -> str:
        """Content-hash cache key for this spec's run."""
        return run_key(
            workload=self.workload,
            seed=self.seed,
            duration_s=self.duration_s,
            config=self.resolved_config(),
            pstate=self.pstate,
            warmup_windows=self.warmup_windows,
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the sweep tries before declaring a spec failed.

    ``max_attempts`` bounds attributable per-task failures (exceptions
    and timeouts); a failed attempt is retried after
    ``min(base_delay * 2**n, max_delay_s)`` seconds.  ``timeout_s``
    bounds how long the parent waits on one task's result (``None``
    waits forever); a timed-out task counts as a failed attempt and the
    pool is rebuilt so the runaway worker cannot absorb a slot.
    """

    max_attempts: int = 3
    base_delay: float = 0.1
    timeout_s: "float | None" = None
    max_delay_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1 (got {self.max_attempts})")

    def delay_s(self, failures: int) -> float:
        """Backoff before the retry following the Nth failure (1-based)."""
        exponent = max(0, failures - 1)
        return min(self.base_delay * (2.0 ** exponent), self.max_delay_s)


#: Policy used when the caller does not choose one.
DEFAULT_RETRY_POLICY = RetryPolicy()


class SweepError(RuntimeError):
    """Some specs failed permanently; ``.result`` holds the partial sweep."""

    def __init__(self, message: str, result: "SweepResult"):
        super().__init__(message)
        self.result = result


def run_spec(spec: SweepSpec) -> MeasuredRun:
    """Execute one spec (module-level so it pickles to pool workers)."""
    # Imported here so a pool worker pays the simulator import once per
    # process, not per task, and the module import stays cheap.
    from repro.simulator.system import simulate_workload
    from repro.workloads.registry import get_workload

    run = simulate_workload(
        get_workload(spec.workload),
        duration_s=spec.duration_s,
        seed=spec.seed,
        config=spec.resolved_config(),
        pstate=spec.pstate,
    )
    if spec.warmup_windows > 0:
        run = run.drop_warmup(spec.warmup_windows)
    return run


def _run_spec_traced(spec: SweepSpec, inject=None) -> MeasuredRun:
    """``run_spec`` wrapped in a per-spec span (telemetry on).

    ``inject`` is a zero-argument fault hook applied *inside* the span,
    so an injected crash leaves an errored ``sweep.run_spec`` span
    behind, exactly like an organic one.
    """
    with obs.span(
        "sweep.run_spec",
        workload=spec.workload,
        seed=spec.seed,
        duration_s=spec.duration_s,
    ) as sp:
        if inject is not None:
            inject()
        run = run_spec(spec)
        if sp is not None:
            sp.set("n_samples", run.n_samples)
    return run


def _pool_run(task: "tuple[SweepSpec, bool, float, int, int, FaultPlan | None]"):
    """Pool-side task: one spec, optionally with telemetry and faults.

    Returns ``(run, snapshot_or_None)``.  With telemetry on, the worker
    starts from a clean registry/trace (a forked worker inherits the
    parent's pre-fork telemetry, which must not be double-counted),
    records the queue wait (Linux ``CLOCK_MONOTONIC`` is system-wide,
    so the parent's submit stamp is comparable) and ships its snapshot
    back over the existing result-return path.
    """
    spec, telemetry, submitted_monotonic, index, attempt, faults = task
    inject = None
    if faults is not None:
        def inject() -> None:
            faults.apply_in_worker(index, attempt)

    if not telemetry:
        if inject is not None:
            inject()
        return run_spec(spec), None
    obs.enable()
    obs.reset()
    obs.observe(
        "sweep_queue_wait_seconds",
        time.monotonic() - submitted_monotonic,
        buckets=_QUEUE_WAIT_BUCKETS,
    )
    run = _run_spec_traced(spec, inject=inject)
    return run, obs.snapshot()


def default_workers() -> int:
    """Worker count when the caller does not choose one.

    ``REPRO_SWEEP_WORKERS`` overrides; otherwise the machine's CPU
    count, so a laptop parallelises and a CI container degrades to
    serial without configuration.  A non-integer override is logged
    and ignored rather than crashing the sweep before it starts.
    """
    env = os.environ.get("REPRO_SWEEP_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            logger.warning(
                "ignoring non-integer REPRO_SWEEP_WORKERS=%r; "
                "falling back to the CPU count",
                env,
            )
    return os.cpu_count() or 1


@dataclass
class SweepResult:
    """Runs in spec order plus where each one came from.

    ``runs[i]`` is ``None`` exactly when ``i in failed`` — possible
    only via ``allow_partial=True`` (the default raises
    :class:`SweepError` instead of returning holes).
    """

    runs: "list[MeasuredRun | None]"
    cache_stats_hits: int = 0
    cache_stats_misses: int = 0
    n_workers: int = 1
    #: Index positions that were simulated (vs loaded from cache).
    simulated: "list[int]" = field(default_factory=list)
    #: Spec index -> final error, for specs that exhausted retries.
    failed: "dict[int, str]" = field(default_factory=dict)
    #: Attributable per-task failures that were retried.
    retries: int = 0
    #: Worker deaths (``BrokenProcessPool``) absorbed by pool rebuilds.
    worker_failures: int = 0
    #: Whether the pool became unrecoverable and the tail of the sweep
    #: ran serially in-process.
    degraded: bool = False


@dataclass
class _ExecState:
    """Mutable bookkeeping shared by the parallel and serial runners."""

    retries: int = 0
    worker_failures: int = 0
    completed: int = 0
    degraded: bool = False
    failed: "dict[int, str]" = field(default_factory=dict)
    #: Spec index -> submissions so far (what the fault plan keys on).
    submissions: "dict[int, int]" = field(default_factory=dict)
    #: Spec index -> attributable failures (what max_attempts bounds).
    failures: "dict[int, int]" = field(default_factory=dict)


def sweep_specs(
    specs: "list[SweepSpec] | tuple[SweepSpec, ...]",
    n_workers: "int | None" = None,
    cache: "RunCache | None" = None,
    retry: "RetryPolicy | None" = None,
    faults: "FaultPlan | None" = None,
    allow_partial: bool = False,
) -> SweepResult:
    """Run every spec, in parallel, returning runs in spec order.

    Cache hits are served without touching the pool; only the misses
    are simulated.  ``n_workers=1`` (or a single outstanding miss)
    runs inline in this process — the results are identical either
    way, only the wall-clock differs.

    Failures are retried per ``retry`` (default
    :data:`DEFAULT_RETRY_POLICY`); when a cache is attached, completed
    runs are stored as they finish, so an interrupted sweep resumes
    from its last checkpoint.  ``faults`` injects deterministic faults
    (default: the ``REPRO_FAULT_PLAN`` environment variable, none when
    unset).  Permanent failures raise :class:`SweepError` unless
    ``allow_partial=True``.
    """
    specs = list(specs)
    if n_workers is None:
        n_workers = default_workers()
    if retry is None:
        retry = DEFAULT_RETRY_POLICY
    if faults is None:
        faults = FaultPlan.from_env()
    with obs.span("sweep.sweep_specs", n_specs=len(specs)) as sweep_span:
        result = _sweep_specs(specs, n_workers, cache, retry, faults)
        if sweep_span is not None:
            sweep_span.set("n_simulated", len(result.simulated))
            sweep_span.set("n_workers", result.n_workers)
            sweep_span.set("n_retries", result.retries)
            sweep_span.set("n_failed", len(result.failed))
    if result.failed:
        # Post-mortem for the dead specs: if a flight recorder is
        # installed (CLI --flight-dir, CI's REPRO_FLIGHT_DIR hooks),
        # dump a bundle before raising/returning, while the telemetry
        # that explains the failure is still in this process.
        from repro.obs import flight as _flight

        _flight.trigger_global(
            "sweep.failed",
            detail={
                "n_specs": len(specs),
                "n_failed": len(result.failed),
                "retries": result.retries,
                "worker_failures": result.worker_failures,
                "failed": {
                    str(i): f"{specs[i].workload}: {error}"
                    for i, error in sorted(result.failed.items())
                },
            },
        )
    if result.failed and not allow_partial:
        summary = "; ".join(
            f"{specs[i].workload}[{i}]: {error}"
            for i, error in sorted(result.failed.items())
        )
        raise SweepError(
            f"{len(result.failed)} spec(s) failed permanently after "
            f"{retry.max_attempts} attempt(s): {summary}",
            result,
        )
    return result


def _checkpoint(
    cache: "RunCache | None", spec: SweepSpec, run: MeasuredRun
) -> None:
    """Persist one completed run immediately (checkpoint/resume)."""
    if cache is not None and cache.enabled:
        cache.store(spec.key(), run)


def _record_retry(
    state: _ExecState, spec: SweepSpec, index: int, kind: str, error: str
) -> None:
    state.retries += 1
    obs.inc("sweep_retries_total")
    obs.event(
        "sweep.retry",
        workload=spec.workload,
        spec_index=index,
        attempt=state.failures.get(index, 0),
        kind=kind,
        error=error,
    )
    logger.warning(
        "sweep: retrying %s (spec %d) after %s: %s",
        spec.workload,
        index,
        kind,
        error,
    )


def _record_permanent_failure(
    state: _ExecState, spec: SweepSpec, index: int, error: str
) -> None:
    state.failed[index] = error
    obs.inc("sweep_failed_specs_total")
    obs.event(
        "sweep.spec_failed",
        workload=spec.workload,
        spec_index=index,
        attempts=state.failures.get(index, 0),
        error=error,
    )
    logger.error(
        "sweep: %s (spec %d) failed permanently after %d attempt(s): %s",
        spec.workload,
        index,
        state.failures.get(index, 0),
        error,
    )


def _sweep_specs(
    specs: "list[SweepSpec]",
    n_workers: int,
    cache: "RunCache | None",
    retry: RetryPolicy,
    faults: "FaultPlan | None",
) -> SweepResult:
    runs: "list[MeasuredRun | None]" = [None] * len(specs)
    caching = cache is not None and cache.enabled
    stats_before = dataclasses.replace(cache.stats) if caching else None

    pending: "list[int]" = []
    hits = misses = 0
    for i, spec in enumerate(specs):
        if caching:
            cached = cache.load(spec.key())
            if cached is not None:
                runs[i] = cached
                hits += 1
                continue
            misses += 1
        pending.append(i)

    telemetry = obs.enabled()
    state = _ExecState()
    effective_workers = min(n_workers, len(pending)) if pending else 0
    if effective_workers > 1:
        logger.debug(
            "sweeping %d spec(s) over %d worker(s) (%d cache hit(s))",
            len(pending),
            effective_workers,
            hits,
        )
        _run_pending_parallel(
            specs, pending, runs, cache, telemetry, retry, faults,
            effective_workers, state,
        )
    else:
        _run_pending_serial(
            specs, pending, runs, cache, telemetry, retry, faults, state
        )

    if caching:
        # Runs were checkpointed as they completed; here we only funnel
        # this sweep's cache activity into the registry and the on-disk
        # lifetime totals (loads and stores both happen in this
        # process, so the deltas are worker-count independent).
        if telemetry and stats_before is not None:
            reg = obs.registry()
            reg.inc("run_cache_hits_total", cache.stats.hits - stats_before.hits)
            reg.inc("run_cache_misses_total", cache.stats.misses - stats_before.misses)
            reg.inc("run_cache_writes_total", cache.stats.writes - stats_before.writes)
        cache.persist_stats()

    assert all(runs[i] is not None for i in range(len(specs)) if i not in state.failed)
    return SweepResult(
        runs=runs,
        cache_stats_hits=hits,
        cache_stats_misses=misses,
        n_workers=max(1, effective_workers),
        simulated=[i for i in pending if i not in state.failed],
        failed=dict(state.failed),
        retries=state.retries,
        worker_failures=state.worker_failures,
        degraded=state.degraded,
    )


def _run_pending_parallel(
    specs: "list[SweepSpec]",
    pending: "list[int]",
    runs: "list[MeasuredRun | None]",
    cache: "RunCache | None",
    telemetry: bool,
    retry: RetryPolicy,
    faults: "FaultPlan | None",
    n_workers: int,
    state: _ExecState,
) -> None:
    """Round-based submit/collect loop with retries and pool rebuilds.

    Results are collected in spec order (so worker telemetry snapshots
    merge in the order the serial path would record them) and each
    completed run is checkpointed to the cache before the next result
    is awaited — a killed parent loses at most the in-flight runs.
    """
    outstanding = list(pending)
    rebuilds = 0
    snapshots: "dict[int, dict]" = {}
    pool = ProcessPoolExecutor(max_workers=n_workers)
    try:
        while outstanding:
            submitted = time.monotonic()
            futures = []
            for i in outstanding:
                attempt = state.submissions.get(i, 0)
                state.submissions[i] = attempt + 1
                futures.append(
                    (
                        i,
                        pool.submit(
                            _pool_run,
                            (specs[i], telemetry, submitted, i, attempt, faults),
                        ),
                    )
                )
            retry_next: "list[int]" = []
            pool_broken = False
            needs_rebuild = False
            for i, future in futures:
                spec = specs[i]
                try:
                    run, snap = future.result(timeout=retry.timeout_s)
                except BrokenProcessPool:
                    # The culprit is unknowable (every unfinished future
                    # reports the same breakage), so worker death never
                    # counts against a spec's attempt budget — the
                    # bounded rebuild budget guards the pathological
                    # case instead.
                    if not pool_broken:
                        pool_broken = True
                        state.worker_failures += 1
                        obs.inc("sweep_worker_failures_total")
                        obs.event(
                            "sweep.retry",
                            workload=spec.workload,
                            spec_index=i,
                            kind="worker_death",
                            error="BrokenProcessPool",
                        )
                        logger.warning(
                            "sweep: worker process died (observed at %s, "
                            "spec %d); rebuilding the pool",
                            spec.workload,
                            i,
                        )
                    retry_next.append(i)
                except FuturesTimeoutError:
                    needs_rebuild = True  # a runaway task owns a slot
                    state.failures[i] = state.failures.get(i, 0) + 1
                    error = f"timed out after {retry.timeout_s:g}s"
                    if state.failures[i] >= retry.max_attempts:
                        _record_permanent_failure(state, spec, i, error)
                    else:
                        retry_next.append(i)
                        _record_retry(state, spec, i, "timeout", error)
                except Exception as exc:  # per-task failure, attributable
                    state.failures[i] = state.failures.get(i, 0) + 1
                    error = f"{type(exc).__name__}: {exc}"
                    if state.failures[i] >= retry.max_attempts:
                        _record_permanent_failure(state, spec, i, error)
                    else:
                        retry_next.append(i)
                        _record_retry(state, spec, i, "exception", error)
                else:
                    runs[i] = run
                    if snap is not None:
                        snapshots[i] = snap
                    _checkpoint(cache, spec, run)
                    state.completed += 1
                    if faults is not None:
                        faults.maybe_exit_parent(state.completed)
            outstanding = retry_next
            if pool_broken or needs_rebuild:
                pool.shutdown(wait=False, cancel_futures=True)
                if pool_broken:
                    rebuilds += 1
                    if rebuilds > _MAX_POOL_REBUILDS:
                        # Unrecoverable pool: finish the tail serially
                        # in this process, where a worker-kill fault (or
                        # a hostile preempt pattern) cannot reach.
                        state.degraded = True
                        obs.event(
                            "sweep.degraded",
                            n_remaining=len(outstanding),
                            rebuilds=rebuilds,
                        )
                        logger.error(
                            "sweep: process pool broke %d time(s); "
                            "degrading %d remaining spec(s) to serial "
                            "in-process execution",
                            rebuilds,
                            len(outstanding),
                        )
                        _run_pending_serial(
                            specs, outstanding, runs, cache, telemetry,
                            retry, faults, state,
                        )
                        outstanding = []
                        break
                pool = ProcessPoolExecutor(max_workers=n_workers)
            if outstanding:
                worst = max(state.failures.get(i, 0) for i in outstanding)
                time.sleep(retry.delay_s(worst) if worst else retry.base_delay)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    # Merged in spec order, so right-biased gauge merge reproduces the
    # serial last-write-wins value.
    for i in sorted(snapshots):
        obs.merge_snapshot(snapshots[i])


def _run_pending_serial(
    specs: "list[SweepSpec]",
    pending: "list[int]",
    runs: "list[MeasuredRun | None]",
    cache: "RunCache | None",
    telemetry: bool,
    retry: RetryPolicy,
    faults: "FaultPlan | None",
    state: _ExecState,
) -> None:
    """In-process execution with the same retry/checkpoint contract.

    Worker-kill and hang faults do not apply here (there is no worker
    to kill and no result wait to time out), which is what makes this
    the safe fallback when the pool is unrecoverable.
    """
    for i in pending:
        spec = specs[i]
        while True:
            attempt = state.submissions.get(i, 0)
            state.submissions[i] = attempt + 1
            inject = None
            if faults is not None:
                def inject(index=i, att=attempt) -> None:
                    faults.apply_in_process(index, att)

            try:
                if telemetry:
                    run = _run_spec_traced(spec, inject=inject)
                else:
                    if inject is not None:
                        inject()
                    run = run_spec(spec)
            except Exception as exc:
                state.failures[i] = state.failures.get(i, 0) + 1
                error = f"{type(exc).__name__}: {exc}"
                if state.failures[i] >= retry.max_attempts:
                    _record_permanent_failure(state, spec, i, error)
                    break
                _record_retry(state, spec, i, "exception", error)
                time.sleep(retry.delay_s(state.failures[i]))
            else:
                runs[i] = run
                _checkpoint(cache, spec, run)
                state.completed += 1
                if faults is not None:
                    faults.maybe_exit_parent(state.completed)
                break


def sweep(
    workloads: "tuple[str, ...] | list[str]",
    config: "SystemConfig | None" = None,
    seed: int = 7,
    duration_s: float = 300.0,
    pstate: int = 0,
    warmup_windows: int = 0,
    n_workers: "int | None" = None,
    cache: "RunCache | None" = None,
    retry: "RetryPolicy | None" = None,
    faults: "FaultPlan | None" = None,
) -> "dict[str, MeasuredRun]":
    """Simulate ``workloads`` under one configuration, possibly in parallel.

    The name-keyed result dict preserves the input order.  Parallel and
    serial execution produce bit-identical runs (each run's RNG streams
    depend only on ``seed`` and the workload name).  Duplicate workload
    names raise ``ValueError`` — the name-keyed dict would silently
    collapse them last-wins otherwise.
    """
    workloads = list(workloads)
    if len(set(workloads)) != len(workloads):
        duplicates = sorted({w for w in workloads if workloads.count(w) > 1})
        raise ValueError(
            f"duplicate workload name(s) {duplicates} in sweep: the "
            "name-keyed result would drop all but the last run of each; "
            "use sweep_specs() for repeated runs of one workload"
        )
    specs = [
        SweepSpec(
            workload=name,
            seed=seed,
            duration_s=duration_s,
            pstate=pstate,
            config=config,
            warmup_windows=warmup_windows,
        )
        for name in workloads
    ]
    result = sweep_specs(
        specs, n_workers=n_workers, cache=cache, retry=retry, faults=faults
    )
    return dict(zip(workloads, result.runs))

"""Trace containers: counter samples, power samples, measured runs.

A *sample* corresponds to one counter-sampling window (nominally one
second of execution, ~1.5 billion instructions per processor).  Counter
counts are per-CPU totals over the window and are cleared at each read;
power values are the average of all DAQ samples in the window, aligned
to the counter windows via the synchronisation pulse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.events import Event, Subsystem


class TraceError(ValueError):
    """Raised for malformed or misaligned traces."""


@dataclass
class CounterTrace:
    """Per-CPU performance-counter samples.

    Attributes:
        timestamps: window end times (seconds), shape ``(n_samples,)``.
        durations: actual window lengths (seconds, jittered around the
            nominal sampling period), shape ``(n_samples,)``.
        counts: mapping of event to an ``(n_samples, n_cpus)`` array of
            counts accumulated during each window.
    """

    timestamps: np.ndarray
    durations: np.ndarray
    counts: dict[Event, np.ndarray]

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.durations = np.asarray(self.durations, dtype=float)
        if self.timestamps.ndim != 1:
            raise TraceError("timestamps must be one-dimensional")
        if self.timestamps.shape != self.durations.shape:
            raise TraceError("timestamps and durations must match in length")
        n = len(self.timestamps)
        for event, array in list(self.counts.items()):
            array = np.asarray(array, dtype=float)
            if array.ndim != 2 or array.shape[0] != n:
                raise TraceError(
                    f"counts[{event}] must have shape (n_samples, n_cpus); "
                    f"got {array.shape} for {n} samples"
                )
            self.counts[event] = array
        if np.any(self.durations <= 0):
            raise TraceError("window durations must be positive")

    @property
    def n_samples(self) -> int:
        return len(self.timestamps)

    @property
    def n_cpus(self) -> int:
        if not self.counts:
            return 0
        return next(iter(self.counts.values())).shape[1]

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(self.counts)

    def per_cpu(self, event: Event) -> np.ndarray:
        """Counts per window per CPU, shape ``(n_samples, n_cpus)``."""
        try:
            return self.counts[event]
        except KeyError:
            raise TraceError(f"trace does not record event {event!r}") from None

    def total(self, event: Event) -> np.ndarray:
        """Counts per window summed over CPUs, shape ``(n_samples,)``."""
        return self.per_cpu(event).sum(axis=1)

    def rate(self, event: Event) -> np.ndarray:
        """System-wide event rate (events/second) per window."""
        return self.total(event) / self.durations

    def slice(self, start: int, stop: int | None = None) -> "CounterTrace":
        """A new trace restricted to samples ``[start:stop]``."""
        sl = np.s_[start:stop]
        return CounterTrace(
            timestamps=self.timestamps[sl],
            durations=self.durations[sl],
            counts={e: a[sl] for e, a in self.counts.items()},
        )


@dataclass
class PowerTrace:
    """Per-subsystem measured power, aligned to counter windows.

    Attributes:
        timestamps: window end times (seconds), shape ``(n_samples,)``.
        watts: mapping of subsystem to an ``(n_samples,)`` array of
            average power over each window.
    """

    timestamps: np.ndarray
    watts: dict[Subsystem, np.ndarray]

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        if self.timestamps.ndim != 1:
            raise TraceError("timestamps must be one-dimensional")
        n = len(self.timestamps)
        for subsystem, array in list(self.watts.items()):
            array = np.asarray(array, dtype=float)
            if array.shape != (n,):
                raise TraceError(
                    f"watts[{subsystem}] must have shape ({n},); got {array.shape}"
                )
            self.watts[subsystem] = array

    @property
    def n_samples(self) -> int:
        return len(self.timestamps)

    @property
    def subsystems(self) -> tuple[Subsystem, ...]:
        return tuple(self.watts)

    def power(self, subsystem: Subsystem) -> np.ndarray:
        try:
            return self.watts[subsystem]
        except KeyError:
            raise TraceError(
                f"trace does not measure subsystem {subsystem!r}"
            ) from None

    def total(self) -> np.ndarray:
        """Total system power per window (sum of all measured domains)."""
        if not self.watts:
            raise TraceError("power trace has no subsystems")
        return np.sum(list(self.watts.values()), axis=0)

    def mean(self, subsystem: Subsystem) -> float:
        return float(self.power(subsystem).mean())

    def std(self, subsystem: Subsystem) -> float:
        return float(self.power(subsystem).std(ddof=0))

    def slice(self, start: int, stop: int | None = None) -> "PowerTrace":
        sl = np.s_[start:stop]
        return PowerTrace(
            timestamps=self.timestamps[sl],
            watts={s: a[sl] for s, a in self.watts.items()},
        )


@dataclass
class MeasuredRun:
    """One instrumented run of a workload: counters + aligned power.

    This is the unit of data the training and validation pipeline
    consumes; the simulator's :func:`repro.simulator.simulate_workload`
    produces one, and real hardware instrumentation could too.
    """

    workload: str
    counters: CounterTrace
    power: PowerTrace
    seed: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.counters.n_samples != self.power.n_samples:
            raise TraceError(
                "counter and power traces have different sample counts "
                f"({self.counters.n_samples} vs {self.power.n_samples}); "
                "did synchronisation fail?"
            )

    @property
    def n_samples(self) -> int:
        return self.counters.n_samples

    @property
    def duration_s(self) -> float:
        return float(self.counters.durations.sum())

    def drop_warmup(self, n_windows: int = 2) -> "MeasuredRun":
        """Discard the first windows (program initialisation, data load)."""
        if n_windows >= self.n_samples:
            raise TraceError(
                f"cannot drop {n_windows} windows from a {self.n_samples}-sample run"
            )
        return MeasuredRun(
            workload=self.workload,
            counters=self.counters.slice(n_windows),
            power=self.power.slice(n_windows),
            seed=self.seed,
            metadata=dict(self.metadata),
        )

    # -- persistence ----------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-serialisable representation of the run."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "metadata": self.metadata,
            "timestamps": self.counters.timestamps.tolist(),
            "durations": self.counters.durations.tolist(),
            "counts": {
                e.value: a.tolist() for e, a in self.counters.counts.items()
            },
            "watts": {s.value: a.tolist() for s, a in self.power.watts.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MeasuredRun":
        timestamps = np.asarray(data["timestamps"], dtype=float)
        return cls(
            workload=data["workload"],
            seed=int(data.get("seed", 0)),
            metadata=dict(data.get("metadata", {})),
            counters=CounterTrace(
                timestamps=timestamps,
                durations=np.asarray(data["durations"], dtype=float),
                counts={
                    Event(name): np.asarray(a, dtype=float)
                    for name, a in data["counts"].items()
                },
            ),
            power=PowerTrace(
                timestamps=timestamps,
                watts={
                    Subsystem(name): np.asarray(a, dtype=float)
                    for name, a in data["watts"].items()
                },
            ),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)

    @classmethod
    def load(cls, path: str) -> "MeasuredRun":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def concat_runs(runs: "list[MeasuredRun] | tuple[MeasuredRun, ...]") -> MeasuredRun:
    """Concatenate runs sample-wise (for multi-trace training sets)."""
    if not runs:
        raise TraceError("cannot concatenate zero runs")
    events = set(runs[0].counters.counts)
    subsystems = set(runs[0].power.watts)
    for run in runs[1:]:
        if set(run.counters.counts) != events or set(run.power.watts) != subsystems:
            raise TraceError("runs record different events/subsystems")
    offsets = np.cumsum([0.0] + [r.counters.timestamps[-1] for r in runs[:-1]])
    timestamps = np.concatenate(
        [r.counters.timestamps + off for r, off in zip(runs, offsets)]
    )
    return MeasuredRun(
        workload="+".join(dict.fromkeys(r.workload for r in runs)),
        seed=runs[0].seed,
        counters=CounterTrace(
            timestamps=timestamps,
            durations=np.concatenate([r.counters.durations for r in runs]),
            counts={
                e: np.vstack([r.counters.counts[e] for r in runs]) for e in events
            },
        ),
        power=PowerTrace(
            timestamps=timestamps,
            watts={
                s: np.concatenate([r.power.watts[s] for r in runs])
                for s in subsystems
            },
        ),
    )

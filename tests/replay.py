"""Server-replay oracle for fleet-backed clusters.

A :class:`~repro.cluster.Cluster` steps its nodes as lanes of one
:class:`~repro.simulator.fleet.FleetServer`.  :func:`record` logs, for
every stepped second, what the cluster asked of each lane (whether it
ran, how many service threads, which P-state) with the joules the fleet
returned, plus every counter snapshot read off the fleet in between.
:func:`replay` re-runs that schedule on one scalar
:class:`~repro.simulator.system.Server` per node and asserts each
number bit for bit, so the lane-masking, per-lane DVFS and thread
control paths of the fleet kernel stay pinned to the scalar physics.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.simulator.system import Server


class Step(NamedTuple):
    """One ``run_ticks`` call: per-lane inputs and the joules returned."""

    n_ticks: int
    active: np.ndarray
    threads: np.ndarray
    pstates: np.ndarray
    joules: np.ndarray


class Read(NamedTuple):
    """One ``read_and_clear_lanes`` call and the snapshot it returned."""

    lanes: np.ndarray
    counts: dict


class Schedule:
    """What one cluster's fleet did, in call order."""

    def __init__(self, cluster) -> None:
        self.fleet = cluster._fleet
        self.entries: "list[Step | Read]" = []

    def _steps(self):
        return (e for e in self.entries if isinstance(e, Step))

    @property
    def frozen_lane_seconds(self) -> int:
        return sum(int((~step.active).sum()) for step in self._steps())

    @property
    def pstates_run(self) -> "set[int]":
        """P-states that at least one active lane ran at."""
        return {int(p) for step in self._steps() for p in step.pstates[step.active]}

    @property
    def n_reads(self) -> int:
        return sum(isinstance(e, Read) for e in self.entries)


def record(cluster) -> Schedule:
    """Wrap ``cluster``'s fleet so every step and counter read is logged."""
    schedule = Schedule(cluster)
    fleet = schedule.fleet
    run_ticks, read_and_clear_lanes = fleet.run_ticks, fleet.read_and_clear_lanes

    def recording_run_ticks(n_ticks, active=None):
        mask = np.ones(fleet.width, dtype=bool) if active is None else active
        threads = np.array([node.assigned_threads for node in cluster.nodes])
        pstates = np.array([node.pstate for node in cluster.nodes])
        joules = run_ticks(n_ticks, active)
        schedule.entries.append(
            Step(n_ticks, np.array(mask, dtype=bool), threads, pstates, joules.copy())
        )
        return joules

    def recording_read(lanes):
        counts = read_and_clear_lanes(lanes)
        schedule.entries.append(Read(np.array(lanes), counts))
        return counts

    fleet.run_ticks = recording_run_ticks
    fleet.read_and_clear_lanes = recording_read
    return schedule


def replay(schedule: Schedule) -> None:
    """Re-run ``schedule`` on scalar servers; assert it matches exactly.

    Each stepped lane-second must return the same joules and each
    counter read the same snapshot; at the end every lane's counter
    bank and energy account must equal its server's.
    """
    fleet = schedule.fleet
    servers = [Server(fleet.config, fleet.workload, seed=s) for s in fleet.seeds]
    plans = []
    for server in servers:
        server.sampler.disable()
        plans.append(list(server.threads))
    for i, entry in enumerate(schedule.entries):
        if isinstance(entry, Read):
            for row, lane in enumerate(entry.lanes):
                snapshot = servers[lane].counters.read_and_clear()
                for event, values in entry.counts.items():
                    assert np.array_equal(values[row], snapshot[event]), (
                        f"entry {i} lane {lane} {event}"
                    )
            continue
        for lane in np.nonzero(entry.active)[0]:
            server = servers[lane]
            server.set_all_pstates(int(entry.pstates[lane]))
            server.threads = plans[lane][: entry.threads[lane]]
            assert server.run_ticks(entry.n_ticks) == entry.joules[lane], (
                f"entry {i} lane {lane}"
            )
    for lane, server in enumerate(servers):
        view = fleet.lane(lane)
        assert view.counters._rows == server.counters._rows, f"lane {lane}"
        assert view.energy._energy_j == server.energy._energy_j, f"lane {lane}"

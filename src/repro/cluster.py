"""Cluster-level ensemble power management.

The paper positions its estimator as a building block for
datacentre-scale policies (Section 2.3): Rajamani & Lefurgy showed
30-50 % energy savings from powering down idle nodes; Chen added the
on/off reliability cost; Ranganathan budgeted whole enclosures.  This
module closes that loop on top of the simulator: a small cluster of
simulated servers, a request-level load balancer, and two managers —

* :class:`StaticManager` — every node always on, load spread evenly
  (the baseline datacentres actually ran);
* :class:`PowerAwareManager` — consolidate load onto as few nodes as
  demand (plus headroom) requires, power the rest down, and boot nodes
  back ahead of rising demand.  Decisions use the trickle-down
  estimator's numbers, not power sensors.

Demand is expressed in *worker threads* (each node hosts up to eight);
the built-in demand generator produces the diurnal shape with noise
that makes consolidation worthwhile.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs
from repro.simulator.config import SystemConfig, fast_config
from repro.simulator.fleet import FleetServer
from repro.workloads.registry import get_workload

#: Power drawn by a powered-down node (standby circuitry, Watts).
STANDBY_POWER_W = 5.0
#: Power drawn while booting (everything on, no useful work).
BOOT_POWER_W = 180.0
#: Default boot duration (seconds).  Real servers boot in minutes; the
#: demo's demand curves compress a day into minutes, so the default
#: compresses the boot penalty proportionally.
BOOT_TIME_S = 30.0
#: Power drawn while napping: DRAM in self-refresh, disks spun down,
#: CPU packages clock-gated at the floor — the subsystem-level
#: low-power ensemble of Subramaniam & Feng, cheap to leave and enter.
NAP_POWER_W = 12.0
#: Power drawn while exiting a nap (disks spinning up, DRAM exiting
#: self-refresh; everything on, nothing served yet).
NAP_EXIT_POWER_W = 120.0
#: Default nap exit latency (seconds) — orders faster than a cold boot,
#: which is what makes napping a useful middle power state.
NAP_EXIT_TIME_S = 2.0


def _service_workload_spec(service_workload: str):
    """The shared service workload with its training stagger stripped.

    Service threads must be schedulable immediately, so every plan's
    ``start_time_s`` becomes zero.
    """
    spec = get_workload(service_workload)
    return replace(
        spec,
        threads=tuple(
            replace(plan, start_time_s=0.0) for plan in spec.threads
        ),
    )


class FleetNodeHandle:
    """One cluster node: the power/boot/nap/load state machine over a
    fleet lane.

    The simulated server is lane ``node_id`` of the cluster's shared
    :class:`FleetServer`, stepped once per second for all nodes
    together by :meth:`Cluster.run`; observers read a second's
    counters and energy for many nodes at once off that fleet.
    Everything observable about a node's power state lives here.
    Besides on/booting/off, a node supports a *nap* — the
    subsystem-level low-power ensemble (DRAM self-refresh, disks spun
    down) with a short exit latency — and a per-node DVFS pstate.
    """

    def __init__(
        self, node_id: int, fleet: FleetServer, boot_time_s: float
    ) -> None:
        self.node_id = node_id
        self.config = fleet.config
        self.boot_time_s = boot_time_s
        self._fleet = fleet
        self.powered = True
        self._boot_remaining_s = 0.0
        self._wake_remaining_s = 0.0
        self._napping = False
        self.assigned_threads = 0
        #: Requested DVFS operating point; the cluster applies it before
        #: the node's next simulated second.
        self.pstate = 0

    @property
    def capacity(self) -> int:
        return self._fleet.workload.n_threads

    @property
    def booting(self) -> bool:
        return self._boot_remaining_s > 0.0

    @property
    def napping(self) -> bool:
        return self._napping

    @property
    def waking(self) -> bool:
        return self._wake_remaining_s > 0.0

    @property
    def available(self) -> bool:
        """Can serve load right now."""
        return (
            self.powered
            and not self.booting
            and not self._napping
            and not self.waking
        )

    def power_down(self) -> None:
        if self.assigned_threads:
            raise ValueError(
                f"node {self.node_id} still serves {self.assigned_threads} threads"
            )
        self.powered = False
        self._boot_remaining_s = 0.0
        self._wake_remaining_s = 0.0
        self._napping = False
        obs.event("cluster.power_down", node=self.node_id)

    def power_up(self) -> None:
        if self.powered:
            if self._napping:
                self.wake()
            return
        self.powered = True
        self._boot_remaining_s = self.boot_time_s
        obs.event(
            "cluster.power_up", node=self.node_id, boot_time_s=self.boot_time_s
        )

    def nap(self) -> None:
        """Drop an idle node into the subsystem low-power ensemble."""
        if self.assigned_threads:
            raise ValueError(
                f"node {self.node_id} still serves {self.assigned_threads} threads"
            )
        if not self.available:
            raise ValueError(f"node {self.node_id} cannot nap right now")
        self._napping = True
        obs.event("cluster.nap", node=self.node_id)

    def wake(self) -> None:
        """Start exiting a nap (takes :data:`NAP_EXIT_TIME_S`)."""
        if self._napping:
            self._napping = False
            self._wake_remaining_s = NAP_EXIT_TIME_S
            obs.event(
                "cluster.wake", node=self.node_id, exit_time_s=NAP_EXIT_TIME_S
            )

    def set_pstate(self, index: int) -> None:
        """Request a DVFS operating point for this node."""
        n_states = len(self.config.cpu.dvfs_states)
        if not 0 <= index < n_states:
            raise ValueError(
                f"pstate {index} out of range; ladder has {n_states} states"
            )
        self.pstate = int(index)

    def set_load(self, n_threads: int) -> None:
        if n_threads < 0 or n_threads > self.capacity:
            raise ValueError(
                f"load {n_threads} outside [0, {self.capacity}]"
            )
        if n_threads > 0 and not self.available:
            raise ValueError(f"node {self.node_id} cannot serve load yet")
        self.assigned_threads = n_threads

    def idle_power_second(self) -> "float | None":
        """Advance one second of *non-simulated* node state.

        Returns the node's power for that second when it is off,
        booting, waking or napping, and ``None`` when the node is live
        and its server must be stepped.
        """
        if not self.powered:
            return STANDBY_POWER_W
        if self.booting:
            self._boot_remaining_s = max(0.0, self._boot_remaining_s - 1.0)
            return BOOT_POWER_W
        if self.waking:
            self._wake_remaining_s = max(0.0, self._wake_remaining_s - 1.0)
            return NAP_EXIT_POWER_W
        if self._napping:
            return NAP_POWER_W
        return None


@dataclass
class ClusterTrace:
    """Per-second history of a managed run."""

    demand: "list[int]" = field(default_factory=list)
    served: "list[int]" = field(default_factory=list)
    power_w: "list[float]" = field(default_factory=list)
    nodes_on: "list[int]" = field(default_factory=list)
    #: Per-node power each second: ``node_power_w[i][t]`` (Watts).
    node_power_w: "list[list[float]]" = field(default_factory=list)

    @property
    def energy_j(self) -> float:
        return float(sum(self.power_w))

    def node_energy_j(self, node_id: int) -> float:
        """One node's integrated energy over the run (Joules)."""
        return float(sum(self.node_power_w[node_id]))

    @property
    def dropped_thread_seconds(self) -> int:
        return int(
            sum(max(0, d - s) for d, s in zip(self.demand, self.served))
        )


class StaticManager:
    """Baseline: all nodes on, demand spread round-robin."""

    def place(self, nodes: "list[FleetNodeHandle]", demand: int) -> None:
        for node in nodes:
            node.power_up()
        available = [n for n in nodes if n.available]
        for node in nodes:
            node.set_load(0)
        if not available:
            return
        # Round-robin one thread at a time, then commit each node's
        # count through the set_load state machine in one call.
        counts = [0] * len(available)
        remaining = demand
        while remaining > 0:
            progressed = False
            for i, node in enumerate(available):
                if remaining <= 0:
                    break
                if counts[i] < node.capacity:
                    counts[i] += 1
                    remaining -= 1
                    progressed = True
            if not progressed:
                break
        for node, count in zip(available, counts):
            node.set_load(count)


class PowerAwareManager:
    """Consolidate onto few nodes; power down the rest; boot ahead.

    Args:
        headroom_threads: capacity kept above current demand so a
            demand spike is absorbed while a node boots.
    """

    def __init__(self, headroom_threads: int = 6) -> None:
        if headroom_threads < 0:
            raise ValueError("headroom must be non-negative")
        self.headroom = headroom_threads
        self._last_target: "int | None" = None

    def place(self, nodes: "list[FleetNodeHandle]", demand: int) -> None:
        # Walk the actual per-node capacities (nodes may be
        # heterogeneous) until the accumulated capacity covers demand
        # plus headroom; always keep at least one node.
        target_capacity = demand + self.headroom
        nodes_needed = 0
        reach = 0
        for node in nodes:
            if nodes_needed >= 1 and reach >= target_capacity:
                break
            reach += node.capacity
            nodes_needed += 1
        if nodes_needed != self._last_target:
            obs.event(
                "cluster.placement",
                nodes_needed=nodes_needed,
                previous=self._last_target,
                demand=demand,
                headroom=self.headroom,
            )
            self._last_target = nodes_needed

        # Keep a stable prefix of nodes hot (consolidation).
        for node in nodes[:nodes_needed]:
            node.power_up()
        prefix = [n for n in nodes[:nodes_needed] if n.available]
        for node in prefix:
            node.set_load(0)
        remaining = demand
        for node in prefix:
            take = min(node.capacity, remaining)
            node.set_load(take)
            remaining -= take
        # While the prefix boots, spill what it cannot serve yet onto
        # surplus nodes that are still available; then power every
        # drained surplus node down — *including* booting ones
        # (power_down cancels the boot), so a demand blip no longer
        # burns BOOT_POWER_W for the full boot before dying.
        for node in nodes[nodes_needed:]:
            if node.available:
                take = min(node.capacity, remaining)
                node.set_load(take)
                remaining -= take
            if node.powered and node.assigned_threads == 0:
                node.power_down()


class Cluster:
    """A fixed set of nodes driven by a manager and a demand trace.

    Every node is one lane of a single :class:`FleetServer`, and all
    running nodes step in one vectorized pass per second.  A lane's
    energy accounting is bit-identical to a scalar
    :class:`~repro.simulator.system.Server` with the same seed and
    schedule, which ``tests/replay.py`` checks by replaying a run's
    per-second schedule on one ``Server`` per node.
    """

    def __init__(
        self,
        n_nodes: int = 4,
        config: "SystemConfig | None" = None,
        seed: int = 1,
        service_workload: str = "SPECjbb",
        boot_time_s: float = BOOT_TIME_S,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        config = config or fast_config()
        self.config = config
        spec = _service_workload_spec(service_workload)
        self._fleet = FleetServer(
            config, spec, [seed + i for i in range(n_nodes)]
        )
        self._fleet.disable_sampling()
        for lane in range(n_nodes):
            self._fleet.set_lane_threads(lane, 0)
        self.nodes = [
            FleetNodeHandle(i, self._fleet, boot_time_s)
            for i in range(n_nodes)
        ]
        self._applied_pstates: "np.ndarray | None" = None
        self._node_energy_j = [0.0] * n_nodes  # since built, across runs

    @property
    def capacity(self) -> int:
        return sum(node.capacity for node in self.nodes)

    def _step_second(self) -> "list[float]":
        """One second of simulated time for every node; per-node Watts."""
        fleet = self._fleet
        pstates = np.fromiter(
            (node.pstate for node in self.nodes),
            dtype=np.int64,
            count=len(self.nodes),
        )
        if self._applied_pstates is None or not np.array_equal(
            pstates, self._applied_pstates
        ):
            fleet.set_lane_pstates(pstates)
            self._applied_pstates = pstates
        active = np.zeros(len(self.nodes), dtype=bool)
        powers = [0.0] * len(self.nodes)
        for i, node in enumerate(self.nodes):
            idle_w = node.idle_power_second()
            if idle_w is not None:
                powers[i] = idle_w
            else:
                active[i] = True
                fleet.set_lane_threads(i, node.assigned_threads)
        if active.any():
            ticks = int(round(1.0 / self.config.tick_s))
            energies = fleet.run_ticks(ticks, active)
            for i in np.nonzero(active)[0]:
                powers[int(i)] = float(energies[i])
        return powers

    def run(self, demand_trace: "list[int]", manager) -> ClusterTrace:
        """Serve a per-second demand trace under the given manager.

        Each second the manager's ``place(nodes, demand)`` sets the
        nodes' power states, P-states and loads; a manager sees only the
        node list, so a caller may hand it a slice of a larger cluster.
        With telemetry enabled, per-node and cluster-level gauges are
        published every second.  Node state and energy carry over
        between calls, so a caller may feed the trace in slices.
        """
        trace = ClusterTrace()
        trace.node_power_w = [[] for _ in self.nodes]
        node_energy = self._node_energy_j
        for offered in demand_trace:
            offered = int(offered)
            # Placement can only ever serve up to capacity, but the
            # trace records the *offered* demand so flash crowds above
            # capacity show up as dropped thread-seconds, not as a
            # silently clipped demand curve.
            demand = min(offered, self.capacity)
            manager.place(self.nodes, demand)
            node_powers = self._step_second()
            power = sum(node_powers)
            served = sum(
                node.assigned_threads for node in self.nodes if node.available
            )
            nodes_on = sum(node.powered for node in self.nodes)
            trace.demand.append(offered)
            trace.served.append(served)
            trace.power_w.append(power)
            trace.nodes_on.append(nodes_on)
            for i, node_power in enumerate(node_powers):
                trace.node_power_w[i].append(node_power)
                node_energy[i] += node_power  # 1 s windows: W == J/s
            if obs.enabled():
                registry = obs.registry()
                registry.gauge("cluster_power_watts", power)
                registry.gauge("cluster_nodes_on", nodes_on)
                registry.gauge("cluster_demand_threads", offered)
                registry.gauge("cluster_served_threads", served)
                for node, node_power, energy in zip(
                    self.nodes, node_powers, node_energy
                ):
                    labels = {"node": node.node_id}
                    registry.gauge("cluster_node_power_watts", node_power, labels)
                    registry.gauge("cluster_node_energy_joules", energy, labels)
                # Cross-node rollup through the fleet-observability
                # plane: the same min/mean/p50/p95/max gauges a
                # FleetMonitor publishes per lane.
                from repro.obs.fleet import publish_lane_aggregates

                publish_lane_aggregates(
                    "cluster_node", np.asarray(node_powers, dtype=float)
                )
        return trace


def diurnal_demand(
    duration_s: int,
    peak_threads: int,
    trough_threads: int,
    period_s: float = 600.0,
    noise: float = 0.1,
    seed: int = 3,
) -> "list[int]":
    """A compressed day: sinusoidal demand between trough and peak."""
    if trough_threads > peak_threads:
        raise ValueError("trough must not exceed peak")
    rng = np.random.default_rng(seed)
    t = np.arange(duration_s)
    mid = (peak_threads + trough_threads) / 2.0
    amplitude = (peak_threads - trough_threads) / 2.0
    base = mid - amplitude * np.cos(2.0 * np.pi * t / period_s)
    jitter = rng.normal(0.0, noise * max(peak_threads, 1), size=duration_s)
    return [int(round(v)) for v in np.clip(base + jitter, 0, None)]

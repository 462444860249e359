"""The simulated datacenter: zones of fleet lanes under estimated-power
policies, scored against ground truth.

One :class:`~repro.cluster.Cluster` holds every zone's nodes as the
lanes of one :class:`~repro.simulator.fleet.FleetServer`, each zone a
contiguous lane range (lane ``j`` has seed ``seed + j``), so a thousand
nodes step in one vectorized pass; per second the loop is

1. the open-loop :class:`~repro.dc.traffic.TrafficModel` offers each
   zone its thread demand;
2. zone managers request worst-case watts and the
   :class:`~repro.dc.policies.BudgetAllocator` splits the datacenter
   cap (redistributing a dark zone's share to the survivors);
3. each zone's :class:`~repro.dc.policies.SubsystemManager` places
   roles, pstates and loads on its lane range under its budget;
4. the simulator advances every zone's nodes one second together and
   produces *true* per-node power;
5. the sensor path reads every stepped node's performance counters in
   one batch and estimates each zone's power through the per-pstate
   :class:`~repro.core.dvfs.DvfsSuiteBank` (the trickle-down estimator
   is the only power meter the policy has);
6. a :class:`~repro.obs.fleet.FleetDriftMonitor` watches estimated vs
   true per zone — a firing zone falls back to worst-case sensing.

Because the policy steers on estimates while the simulator knows the
truth, the run can report both an energy-proportionality score and the
*regret* of estimate-driven control (same scenario re-run with the
ground-truth sensor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs
from repro.cluster import (
    BOOT_TIME_S,
    Cluster,
    StaticManager,
    _service_workload_spec,
)
from repro.core.dvfs import DvfsSuiteBank
from repro.core.traces import CounterTrace, concat_runs
from repro.core.training import PAPER_RECIPE, ModelTrainer, TrainingRecipe
from repro.dc.policies import (
    BudgetAllocator,
    NodePowerTable,
    PolicyConfig,
    SubsystemManager,
)
from repro.dc.scoring import (
    DEFAULT_DROP_PENALTY_J,
    energy_proportionality,
    policy_regret,
    scenario_objective,
)
from repro.dc.traffic import TrafficModel
from repro.simulator.config import SystemConfig, fast_config
from repro.simulator.fleet import FleetServer


# -- calibration -------------------------------------------------------


@dataclass(frozen=True)
class ZoneCalibration:
    """Everything the datacenter's sensing and capping needs per node.

    ``bank`` estimates live power per pstate; ``table`` bounds it
    (worst-case admission currency); ``reference_peak_w`` is the raw
    un-margined full-load node power at p0 — the peak used for the
    energy-proportionality ideal line, shared across policies so their
    EP scores are comparable.
    """

    bank: DvfsSuiteBank
    table: NodePowerTable
    reference_peak_w: float


def _effective_capacities(config: SystemConfig, capacity: int) -> "tuple[int, ...]":
    """Threads a node can serve at each pstate: capacity scaled by
    frequency (service threads need cycles), never below one."""
    nominal = config.cpu.dvfs_states[0].frequency_hz
    return tuple(
        max(1, int(math.floor(capacity * state.frequency_hz / nominal)))
        for state in config.cpu.dvfs_states
    )


def train_zone_bank(
    config: "SystemConfig | None" = None,
    *,
    duration_s: float = 16.0,
    seed: int = 1234,
    service_workload: str = "SPECjbb",
    margin: float = 0.10,
) -> ZoneCalibration:
    """Calibrate the datacenter's power sensor and worst-case table.

    One calibration fleet runs the whole ladder: for every pstate
    ``p`` it has one lane per load level ``k`` (0..capacity threads) of
    the service workload — lane ``p * (capacity + 1) + k``, seed
    ``seed + 100 * p + k``.  Each pstate's lanes pool to train its
    trickle-down suite, and its full-load lane's worst measurement
    window (plus ``margin``) becomes the pstate's admission bound.
    """
    config = config or fast_config()
    if duration_s < 2.0 * config.measurement.sample_period_s:
        raise ValueError("calibration needs at least two sampling windows")
    spec = _service_workload_spec(service_workload)
    capacity = len(spec.threads)
    n_states = len(config.cpu.dvfs_states)
    levels = capacity + 1
    recipe = TrainingRecipe(
        name="dc-pooled",
        specs=tuple(
            replace(s, train_workload="pooled") for s in PAPER_RECIPE.specs
        ),
    )
    trainer = ModelTrainer(recipe=recipe)
    suites = {}
    peaks = []
    reference_peak = 0.0
    fleet = FleetServer(
        config,
        spec,
        [seed + 100 * p + k for p in range(n_states) for k in range(levels)],
    )
    for lane in range(fleet.width):
        fleet.set_lane_threads(lane, lane % levels)
    fleet.set_lane_pstates(np.repeat(np.arange(n_states), levels))
    runs = fleet.run(duration_s)
    for pstate in range(n_states):
        ladder = runs[pstate * levels:(pstate + 1) * levels]
        suites[pstate] = trainer.train({"pooled": concat_runs(ladder)})
        # Worst-case node watts at this pstate: the full-load lane's
        # highest measurement window.
        full = ladder[-1]
        totals = np.zeros(len(full.power.timestamps))
        for watts in full.power.watts.values():
            totals = totals + np.asarray(watts, dtype=float)
        peak = float(totals.max())
        peaks.append(peak * (1.0 + margin))
        if pstate == 0:
            reference_peak = peak
    table = NodePowerTable(
        peak_w=tuple(peaks),
        eff_capacity=_effective_capacities(config, capacity),
    )
    return ZoneCalibration(
        bank=DvfsSuiteBank(suites),
        table=table,
        reference_peak_w=reference_peak,
    )


# -- the datacenter ----------------------------------------------------


@dataclass
class DatacenterReport:
    """Everything one scenario run produced, JSON-able via ``document``."""

    policy: str
    sensor: str
    cap_w: float
    duration_s: int
    n_nodes: int
    power_w: "list[float]" = field(default_factory=list)
    estimated_power_w: "list[float]" = field(default_factory=list)
    offered_threads: "list[int]" = field(default_factory=list)
    served_threads: "list[int]" = field(default_factory=list)
    zone_power_w: "dict[str, list[float]]" = field(default_factory=dict)
    zone_budget_w: "dict[str, list[float]]" = field(default_factory=dict)
    zone_nodes_active: "dict[str, list[int]]" = field(default_factory=dict)
    cap_violations: int = 0
    boots_denied: int = 0
    cap_enforcements: int = 0
    budget_redistributions: int = 0
    drift_fallback_seconds: int = 0
    drop_penalty_j: float = DEFAULT_DROP_PENALTY_J
    ep_peak_w: float = 0.0

    @property
    def energy_j(self) -> float:
        return float(sum(self.power_w))

    @property
    def max_power_w(self) -> float:
        return float(max(self.power_w)) if self.power_w else 0.0

    @property
    def dropped_thread_seconds(self) -> int:
        return int(
            sum(
                max(0, offered - served)
                for offered, served in zip(
                    self.offered_threads, self.served_threads
                )
            )
        )

    @property
    def objective_j(self) -> float:
        return scenario_objective(
            self.energy_j, self.dropped_thread_seconds, self.drop_penalty_j
        )

    def document(self) -> dict:
        power = np.asarray(self.power_w, dtype=float)
        served = np.asarray(self.served_threads, dtype=float)
        ep = None
        if power.size and self.ep_peak_w > 0 and self._capacity_threads > 0:
            utilization = served / float(self._capacity_threads)
            ep = energy_proportionality(
                power, utilization, peak_power_w=self.ep_peak_w
            )
        return {
            "policy": self.policy,
            "sensor": self.sensor,
            "cap_w": self.cap_w,
            "duration_s": self.duration_s,
            "n_nodes": self.n_nodes,
            "energy_j": self.energy_j,
            "max_power_w": self.max_power_w,
            "cap_violations": self.cap_violations,
            "offered_thread_seconds": int(sum(self.offered_threads)),
            "served_thread_seconds": int(sum(self.served_threads)),
            "dropped_thread_seconds": self.dropped_thread_seconds,
            "objective_j": self.objective_j,
            "energy_proportionality": ep,
            "boots_denied": self.boots_denied,
            "cap_enforcements": self.cap_enforcements,
            "budget_redistributions": self.budget_redistributions,
            "drift_fallback_seconds": self.drift_fallback_seconds,
            "zones": {
                zone: {
                    "energy_j": float(sum(self.zone_power_w[zone])),
                    "max_power_w": float(max(self.zone_power_w[zone]))
                    if self.zone_power_w[zone]
                    else 0.0,
                    "mean_budget_w": float(
                        np.mean(self.zone_budget_w[zone])
                    )
                    if self.zone_budget_w.get(zone)
                    else None,
                    "mean_nodes_active": float(
                        np.mean(self.zone_nodes_active[zone])
                    ),
                }
                for zone in self.zone_power_w
            },
        }

    def persist(
        self,
        db,
        t0_s: float = 0.0,
        labels: "dict[str, str] | None" = None,
    ) -> int:
        """Append this run's per-second traces to a TSDB.

        The scenario clock is relative (second ``i`` of the run), so
        ``t0_s`` anchors it — pass a wall-clock epoch to interleave
        several runs in one store, or leave 0 for a single run.  Extra
        ``labels`` (beyond the automatic ``policy``/``sensor``)
        distinguish runs sharing a store.  Returns the number of
        samples appended; the caller flushes.
        """
        base = {"policy": self.policy, "sensor": self.sensor, **(labels or {})}
        appended = 0
        fleet = (
            ("dc_power_watts", self.power_w),
            ("dc_estimated_power_watts", self.estimated_power_w),
            ("dc_offered_threads", self.offered_threads),
            ("dc_served_threads", self.served_threads),
        )
        for name, trace in fleet:
            appender = db.appender(name, base)
            for i, value in enumerate(trace):
                appended += appender.append(t0_s + i, float(value))
        zones = (
            ("dc_zone_power_watts", self.zone_power_w),
            ("dc_zone_budget_watts", self.zone_budget_w),
            ("dc_zone_nodes_active", self.zone_nodes_active),
        )
        for name, per_zone in zones:
            for zone, trace in per_zone.items():
                appender = db.appender(name, {**base, "zone": zone})
                for i, value in enumerate(trace):
                    appended += appender.append(t0_s + i, float(value))
        return appended

    #: Total p0 thread capacity, set by the datacenter after a run.
    _capacity_threads: int = 0


class Datacenter:
    """Zones of simulated nodes under a cluster-wide power cap.

    ``cluster`` holds every zone's nodes; ``zones`` maps each zone name
    to its lane range of that cluster, in the traffic model's zone
    order.

    Args:
        traffic: the scenario's open-loop demand model; its zone specs
            define the layout.
        cap_w: datacenter-wide power cap (Watts).
        config: per-node system config (default :func:`fast_config`).
        policy: ``"subsystem"`` (DVFS + naps + capping on estimated
            power) or ``"static"`` (all nodes on at p0, round-robin —
            the uncapped baseline EP is scored against).
        sensor: ``"estimated"`` (policies see only trickle-down
            estimates) or ``"true"`` (policies see ground truth — the
            regret reference).
        calibration: a :class:`ZoneCalibration`; trained on demand when
            omitted.
    """

    def __init__(
        self,
        traffic: TrafficModel,
        cap_w: float,
        config: "SystemConfig | None" = None,
        policy: str = "subsystem",
        sensor: str = "estimated",
        calibration: "ZoneCalibration | None" = None,
        seed: int = 11,
        service_workload: str = "SPECjbb",
        boot_time_s: float = BOOT_TIME_S,
        policy_config: "PolicyConfig | None" = None,
        drop_penalty_j: float = DEFAULT_DROP_PENALTY_J,
        drift_slo_pct: float = 10.0,
    ) -> None:
        if policy not in ("subsystem", "static"):
            raise ValueError(f"unknown policy {policy!r}")
        if sensor not in ("estimated", "true"):
            raise ValueError(f"unknown sensor {sensor!r}")
        if not (math.isfinite(cap_w) and cap_w > 0):
            raise ValueError(f"cap must be finite and positive; got {cap_w}")
        self.traffic = traffic
        self.cap_w = float(cap_w)
        self.config = config or fast_config()
        self.policy = policy
        self.sensor = sensor
        self.drop_penalty_j = drop_penalty_j
        self.calibration = calibration or train_zone_bank(
            self.config, service_workload=service_workload
        )
        self.zones: "dict[str, slice]" = {}
        self.managers: "dict[str, SubsystemManager]" = {}
        offset = 0
        for zone in traffic.zones:
            self.zones[zone.name] = slice(offset, offset + zone.n_nodes)
            offset += zone.n_nodes
            if policy == "subsystem":
                self.managers[zone.name] = SubsystemManager(
                    zone.name, self.calibration.table, policy_config
                )
        self.cluster = Cluster(
            n_nodes=offset,
            config=self.config,
            seed=seed,
            service_workload=service_workload,
            boot_time_s=boot_time_s,
        )
        self.allocator = (
            BudgetAllocator(self.cap_w) if policy == "subsystem" else None
        )
        self._static = StaticManager() if policy == "static" else None
        from repro.obs.fleet import FleetDriftMonitor

        self.drift = FleetDriftMonitor(
            len(traffic.zones), slo_pct=drift_slo_pct
        )
        self._drift_firing: "set[str]" = set()
        self.last_report: "DatacenterReport | None" = None

    @property
    def n_nodes(self) -> int:
        return len(self.cluster.nodes)

    @property
    def capacity_threads(self) -> int:
        return self.cluster.capacity

    # -- sensing -------------------------------------------------------

    def _estimate_zones_w(self, node_powers, stepped) -> "list[float]":
        """Each zone's power as the policy sees it (Watts), in zone order.

        ``stepped`` marks the nodes that actually simulated this second
        (available *before* the step — a node that finished booting
        mid-second has no counters yet).  One batched read takes every
        stepped node's one-second counter deltas, and each zone
        estimates its own through the per-pstate bank; parked nodes
        (off/boot/wake/nap) contribute their management-state
        constants, which the controller knows exactly.
        """
        lanes = np.nonzero(stepped)[0]
        rows = self.cluster._fleet.read_and_clear_lanes(lanes)
        pstates = np.fromiter(
            (self.cluster.nodes[lane].pstate for lane in lanes),
            dtype=np.int64,
            count=len(lanes),
        )
        zones_w = []
        first = 0  # the zone's first row of the batched read
        for span in self.zones.values():
            parked_w = sum(
                node_powers[i]
                for i in range(span.start, span.stop)
                if not stepped[i]
            )
            last = first + int(stepped[span].sum())
            estimated = 0.0
            for pstate in np.unique(pstates[first:last]):
                sel = first + np.nonzero(pstates[first:last] == pstate)[0]
                trace = CounterTrace(
                    timestamps=np.zeros(len(sel)),
                    durations=np.ones(len(sel)),
                    counts={event: arr[sel] for event, arr in rows.items()},
                )
                totals = self.calibration.bank.predict_total(
                    int(pstate), trace
                )
                estimated += float(np.sum(totals))
            zones_w.append(float(parked_w) + estimated)
            first = last
        return zones_w

    # -- the run loop --------------------------------------------------

    def run(self, duration_s: int) -> DatacenterReport:
        """Run the scenario for ``duration_s`` simulated seconds."""
        demand = self.traffic.demand(duration_s)
        report = DatacenterReport(
            policy=self.policy,
            sensor=self.sensor,
            cap_w=self.cap_w,
            duration_s=int(duration_s),
            n_nodes=self.n_nodes,
            drop_penalty_j=self.drop_penalty_j,
            ep_peak_w=self.calibration.reference_peak_w * self.n_nodes,
        )
        report._capacity_threads = self.capacity_threads
        zones = self.zones
        nodes = self.cluster.nodes
        for zone in zones:
            report.zone_power_w[zone] = []
            report.zone_budget_w[zone] = []
            report.zone_nodes_active[zone] = []
        for t in range(int(duration_s)):
            offered = {zone: int(demand[zone][t]) for zone in zones}
            # 1-2. request and allocate the cap.
            if self.allocator is not None:
                requests = {
                    zone: self.managers[zone].request_w(
                        nodes[span], offered[zone]
                    )
                    for zone, span in zones.items()
                }
                budgets = self.allocator.allocate(requests)
            else:
                budgets = {zone: self.cap_w for zone in zones}
            # 3. placement under budget.
            for zone, span in zones.items():
                if self._static is not None:
                    capacity = sum(node.capacity for node in nodes[span])
                    self._static.place(
                        nodes[span], min(offered[zone], capacity)
                    )
                else:
                    self.managers[zone].place(
                        nodes[span], offered[zone], budgets[zone]
                    )
            # 4. advance every zone one second; ground-truth watts.
            stepped = np.array([node.available for node in nodes])
            total_served = sum(
                node.assigned_threads for node in nodes if node.available
            )
            node_powers = self.cluster._step_second()
            true_arr = np.array(
                [float(sum(node_powers[span])) for span in zones.values()]
            )
            # 5. the sensor path.
            if self.sensor == "estimated":
                est_arr = np.array(
                    self._estimate_zones_w(node_powers, stepped)
                )
            else:
                est_arr = true_arr
            total_true = 0.0
            total_estimated = 0.0
            for i, (zone, span) in enumerate(zones.items()):
                true_w = float(true_arr[i])
                estimated_w = float(est_arr[i])
                # Feedback for next second: a drift-firing zone falls
                # back to its worst-case envelope instead of trusting
                # the estimator.
                if self.policy == "subsystem":
                    manager = self.managers[zone]
                    if zone in self._drift_firing:
                        sensed_w = manager.last_worst_w
                        report.drift_fallback_seconds += 1
                    else:
                        sensed_w = estimated_w
                    manager.note_sensed(sensed_w, budgets[zone])
                total_true += true_w
                total_estimated += estimated_w
                report.zone_power_w[zone].append(true_w)
                report.zone_budget_w[zone].append(float(budgets[zone]))
                report.zone_nodes_active[zone].append(
                    sum(node.available for node in nodes[span])
                )
            # 6. drift monitoring across zones (total stream only).
            transitions = self.drift.observe(
                float(t + 1), {"total": est_arr}, {"total": true_arr}
            )
            for alert in transitions:
                zone = self.traffic.zones[alert.lane].name
                if alert.state == "firing":
                    self._drift_firing.add(zone)
                    obs.event(
                        "dc.drift_fallback", zone=zone, t_s=float(t + 1)
                    )
                else:
                    self._drift_firing.discard(zone)
            report.power_w.append(total_true)
            report.estimated_power_w.append(total_estimated)
            report.offered_threads.append(sum(offered.values()))
            report.served_threads.append(total_served)
            if total_true > self.cap_w and self.policy == "subsystem":
                report.cap_violations += 1
                obs.event(
                    "dc.cap_violation",
                    t_s=float(t + 1),
                    power_w=round(total_true, 1),
                    cap_w=round(self.cap_w, 1),
                )
            if obs.enabled():
                registry = obs.registry()
                registry.gauge("dc_power_watts", total_true)
                registry.gauge("dc_estimated_power_watts", total_estimated)
                registry.gauge("dc_cap_watts", self.cap_w)
                registry.gauge(
                    "dc_offered_threads", sum(offered.values())
                )
                registry.gauge("dc_served_threads", total_served)
                for zone in zones:
                    labels = {"zone": zone}
                    registry.gauge(
                        "dc_zone_power_watts",
                        report.zone_power_w[zone][-1],
                        labels,
                    )
                    registry.gauge(
                        "dc_budget_watts", float(budgets[zone]), labels
                    )
                    registry.gauge(
                        "dc_nodes_active",
                        report.zone_nodes_active[zone][-1],
                        labels,
                    )
        if self.policy == "subsystem":
            report.boots_denied = sum(
                m.boots_denied for m in self.managers.values()
            )
            report.cap_enforcements = sum(
                m.cap_enforcements for m in self.managers.values()
            )
            report.budget_redistributions = self.allocator.redistributions
        self.last_report = report
        return report


# -- scenario orchestration --------------------------------------------


def run_scenario(
    traffic: TrafficModel,
    cap_w: float,
    duration_s: int,
    *,
    config: "SystemConfig | None" = None,
    seed: int = 11,
    calibration: "ZoneCalibration | None" = None,
    include_true_sensor: bool = True,
    include_static: bool = True,
    drop_penalty_j: float = DEFAULT_DROP_PENALTY_J,
    store=None,
) -> dict:
    """Run the full comparison a datacenter scenario is scored by.

    The subsystem policy runs once steering on estimates; optionally
    again steering on ground truth (their objective difference is the
    estimated-vs-true *policy regret*), and the static all-on baseline
    provides the EP reference.  Returns a JSON-able document.

    With a ``store`` (a :class:`~repro.obs.tsdb.TSDB`), every run's
    per-second traces persist as ``dc_*`` series labelled by
    policy/sensor, flushed before returning.
    """
    config = config or fast_config()
    calibration = calibration or train_zone_bank(config)

    def _build(policy: str, sensor: str) -> Datacenter:
        return Datacenter(
            traffic,
            cap_w,
            config=config,
            policy=policy,
            sensor=sensor,
            calibration=calibration,
            seed=seed,
            drop_penalty_j=drop_penalty_j,
        )

    doc: dict = {"cap_w": float(cap_w), "duration_s": int(duration_s)}
    estimated = _build("subsystem", "estimated").run(duration_s)
    doc["subsystem_estimated"] = estimated.document()
    if store is not None:
        estimated.persist(store)
    if include_true_sensor:
        true_run = _build("subsystem", "true").run(duration_s)
        doc["subsystem_true"] = true_run.document()
        doc["regret"] = policy_regret(
            estimated.objective_j, true_run.objective_j
        )
        if store is not None:
            true_run.persist(store)
    if include_static:
        static = _build("static", "true").run(duration_s)
        doc["static"] = static.document()
        if store is not None:
            static.persist(store)
        managed_ep = doc["subsystem_estimated"]["energy_proportionality"]
        static_ep = doc["static"]["energy_proportionality"]
        if managed_ep and static_ep:
            doc["ep_comparison"] = {
                "subsystem_ep_score": managed_ep["ep_score"],
                "static_ep_score": static_ep["ep_score"],
                "ep_gain": managed_ep["ep_score"] - static_ep["ep_score"],
            }
    if store is not None:
        store.flush()
    return doc

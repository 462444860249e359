"""Subsystem-level power management policies for the datacenter.

Three cooperating mechanisms, after Subramaniam & Feng:

* **Per-node DVFS coordination** — every active node is placed on the
  ladder each second; the last (partially loaded) node of a zone runs
  deeper than its siblings, so a zone is genuinely heterogeneous.
  Slower pstates serve fewer threads per node (service threads need
  cycles), which is what makes the operating point a real trade-off.
* **Memory/disk nap states** — drained nodes drop into the nap
  ensemble (DRAM self-refresh, disks spun down) before powering off;
  a small warm reserve stays napping because nap exit is seconds, not
  a full boot.
* **Cluster-wide power capping** — a :class:`BudgetAllocator` splits
  the datacenter cap between zones by request and redistributes
  surplus; each zone's :class:`SubsystemManager` admits state
  transitions against a calibrated worst-case table, so *true* power
  never exceeds the cap even though every feedback decision runs on
  *estimated* power.

The estimator is the sensor: `note_sensed` takes the zone's estimated
watts and moves a DVFS ceiling (deepen when estimates approach the
budget, relax when they fall away).  Ground truth is only used by the
simulator to score the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import obs
from repro.cluster import (
    BOOT_POWER_W,
    NAP_EXIT_POWER_W,
    NAP_POWER_W,
    STANDBY_POWER_W,
)


@dataclass(frozen=True)
class PolicyConfig:
    """Knobs of the subsystem-level policy."""

    #: Drained nodes kept napping as a warm reserve (fast wake) before
    #: the rest power down.
    nap_reserve_nodes: int = 1
    #: Sensed/budget ratio above which the DVFS ceiling deepens.
    emergency_frac: float = 0.92
    #: Sensed/budget ratio below which the ceiling relaxes.
    relax_frac: float = 0.75

    def __post_init__(self) -> None:
        if self.nap_reserve_nodes < 0:
            raise ValueError("nap reserve must be non-negative")
        if not 0.0 < self.relax_frac < self.emergency_frac <= 1.5:
            raise ValueError("need 0 < relax_frac < emergency_frac")


@dataclass(frozen=True)
class NodePowerTable:
    """Calibrated worst-case node behaviour per DVFS point.

    ``peak_w[p]`` bounds one available node's true watts at pstate
    ``p`` (calibration margin included) — the admission currency of
    the cap guarantee.  ``eff_capacity[p]`` is how many service
    threads a node can actually serve at that frequency.
    """

    peak_w: "tuple[float, ...]"
    eff_capacity: "tuple[int, ...]"

    def __post_init__(self) -> None:
        if not self.peak_w or len(self.peak_w) != len(self.eff_capacity):
            raise ValueError("peak_w and eff_capacity must align per pstate")
        if any(w <= 0 for w in self.peak_w):
            raise ValueError("peak watts must be positive")
        if any(c < 1 for c in self.eff_capacity):
            raise ValueError("every pstate must serve at least one thread")

    @property
    def n_states(self) -> int:
        return len(self.peak_w)

    def node_worst_w(self, node) -> float:
        """Worst-case watts for a node's *current* second."""
        if not node.powered:
            return STANDBY_POWER_W
        if node.booting:
            return BOOT_POWER_W
        if node.waking:
            return NAP_EXIT_POWER_W
        if node.napping:
            return NAP_POWER_W
        return self.peak_w[node.pstate]


class SubsystemManager:
    """One zone's subsystem-level power manager.

    Stateless placement would re-derive everything each second; the
    manager keeps only the DVFS ceiling (the estimate-driven feedback
    state) and event dedup markers.
    """

    def __init__(
        self,
        zone: str,
        table: NodePowerTable,
        policy: "PolicyConfig | None" = None,
    ) -> None:
        self.zone = zone
        self.table = table
        self.policy = policy or PolicyConfig()
        #: Fastest pstate currently allowed (0 = full speed); deepens
        #: when sensed power crowds the budget.
        self.ceiling = 0
        self.last_worst_w = 0.0
        self.boots_denied = 0
        self.cap_enforcements = 0

    # -- sensing -------------------------------------------------------

    def note_sensed(self, sensed_w: float, budget_w: float) -> None:
        """Feedback from the power sensor (estimated watts)."""
        if budget_w <= 0:
            return
        ratio = sensed_w / budget_w
        deepest = self.table.n_states - 1
        if ratio > self.policy.emergency_frac and self.ceiling < deepest:
            self.ceiling += 1
            obs.event(
                "dc.dvfs_ceiling",
                zone=self.zone,
                ceiling=self.ceiling,
                direction="deepen",
                sensed_ratio=round(ratio, 3),
            )
        elif ratio < self.policy.relax_frac and self.ceiling > 0:
            self.ceiling -= 1
            obs.event(
                "dc.dvfs_ceiling",
                zone=self.zone,
                ceiling=self.ceiling,
                direction="relax",
                sensed_ratio=round(ratio, 3),
            )

    # -- budget accounting ---------------------------------------------

    def worst_case_w(self, nodes) -> float:
        return sum(self.table.node_worst_w(node) for node in nodes)

    def request_w(self, nodes, demand: int) -> float:
        """Worst-case watts to serve ``demand`` fully (allocator input)."""
        table = self.table
        states = range(self.ceiling, table.n_states)
        p_star = min(
            states, key=lambda p: table.peak_w[p] / table.eff_capacity[p]
        )
        n_nodes = len(nodes)
        n_need = min(
            n_nodes,
            max(1, math.ceil(demand / table.eff_capacity[p_star])),
        )
        reserve = min(self.policy.nap_reserve_nodes, n_nodes - n_need)
        idle = n_nodes - n_need - reserve
        return (
            n_need * table.peak_w[p_star]
            + reserve * NAP_POWER_W
            + idle * STANDBY_POWER_W
        )

    # -- placement -----------------------------------------------------

    def place(self, nodes, demand: int, budget_w: float) -> "dict":
        """One second of zone control: roles, pstates, loads, admission.

        Every transition is admitted against the worst-case table, so
        the zone's true power this second stays under ``budget_w``
        (given the table's calibration margin holds).
        """
        table = self.table
        deepest = table.n_states - 1

        # -- choose the zone's run pstate and active-node target ------
        best = None
        for p in range(self.ceiling, table.n_states):
            cap = table.eff_capacity[p]
            afford = int(budget_w // table.peak_w[p])
            n_use = min(len(nodes), max(1, math.ceil(demand / cap)) if demand else 1, max(afford, 0))
            served = min(demand, n_use * cap)
            key = (-served, n_use * table.peak_w[p])
            if best is None or key < best[0]:
                best = (key, p, n_use)
        _, p_run, want_active = best

        # -- roles: stable prefix active, then warm naps, rest off ----
        reserve = self.policy.nap_reserve_nodes
        n_parked = max(len(nodes) - want_active, 0)
        n_naps = min(reserve, n_parked)
        park_floor_w = (
            n_naps * NAP_POWER_W + (n_parked - n_naps) * STANDBY_POWER_W
        )
        activation_budget_w = budget_w - park_floor_w
        committed = 0.0
        active: "list" = []
        for i, node in enumerate(nodes):
            if i < want_active:
                committed += self._activate(
                    node, p_run, committed, activation_budget_w
                )
                if node.available:
                    active.append(node)
            elif i < want_active + reserve:
                committed += self._park(node, nap=True)
            else:
                committed += self._park(node, nap=False)

        # -- loads: drain then pack; the boundary node runs deeper ----
        for node in active:
            node.set_load(0)
        remaining = demand
        for j, node in enumerate(active):
            node.set_pstate(p_run)
            take = min(table.eff_capacity[p_run], node.capacity, remaining)
            if 0 < take < table.eff_capacity[p_run] or (
                take == 0 and j == len(active) - 1
            ):
                # Partial (or idle-hot) node: deepest pstate that still
                # covers its residual — per-node DVFS inside the zone.
                for q in range(deepest, p_run - 1, -1):
                    if table.eff_capacity[q] >= max(take, 1):
                        node.set_pstate(q)
                        break
            node.set_load(take)
            remaining -= take

        # -- conformance: the hard cap invariant ----------------------
        worst = self.worst_case_w(nodes)
        if worst > budget_w:
            worst = self._shed(nodes, worst, budget_w)
        self.last_worst_w = worst
        return {
            "p_run": p_run,
            "want_active": want_active,
            "worst_case_w": worst,
            "unserved": max(0, remaining),
        }

    def _activate(
        self, node, p_run: int, committed: float, budget_w: float
    ) -> float:
        """Bring one node toward serving; returns its committed watts."""
        table = self.table
        if node.available:
            node.set_pstate(p_run)
            return table.peak_w[node.pstate]
        if node.napping:
            cost = max(NAP_EXIT_POWER_W, table.peak_w[p_run])
            if committed + cost <= budget_w:
                node.wake()
                return NAP_EXIT_POWER_W
            return NAP_POWER_W
        if node.waking:
            return NAP_EXIT_POWER_W
        if node.booting:
            return BOOT_POWER_W
        # Powered off: boot only when the worst case fits both the
        # boot second and the node's eventual active draw.
        cost = max(BOOT_POWER_W, table.peak_w[p_run])
        if committed + cost <= budget_w:
            node.power_up()
            return BOOT_POWER_W
        self.boots_denied += 1
        obs.event(
            "dc.boot_denied",
            zone=self.zone,
            node=node.node_id,
            committed_w=round(committed, 1),
            budget_w=round(budget_w, 1),
        )
        return STANDBY_POWER_W

    def _park(self, node, nap: bool) -> float:
        """Drain a surplus node into nap (warm) or off (cold)."""
        if node.available:
            node.set_load(0)
            if nap:
                node.nap()
                return NAP_POWER_W
            node.power_down()
            return STANDBY_POWER_W
        if node.booting:
            # The satellite-1 semantics: a surplus boot is cancelled
            # immediately instead of burning BOOT_POWER_W to completion.
            node.set_load(0)
            node.power_down()
            return STANDBY_POWER_W
        if node.waking:
            # A wake in flight for a node no longer needed is cancelled
            # the same way a surplus boot is.
            node.power_down()
            return STANDBY_POWER_W
        if node.napping:
            if nap:
                return NAP_POWER_W
            node.power_down()
            return STANDBY_POWER_W
        return STANDBY_POWER_W

    def _shed(self, nodes, worst: float, budget_w: float) -> float:
        """Instantly reduce worst-case power until it fits the budget."""
        self.cap_enforcements += 1
        table = self.table
        deepest = table.n_states - 1
        shed_threads = 0
        # Step 1: deepen every active node (cheapest lever, keeps load
        # up to the deep capacity).
        for node in nodes:
            if node.available and node.pstate < deepest:
                worst -= table.peak_w[node.pstate] - table.peak_w[deepest]
                node.set_pstate(deepest)
                over = node.assigned_threads - table.eff_capacity[deepest]
                if over > 0:
                    shed_threads += over
                    node.set_load(table.eff_capacity[deepest])
            if worst <= budget_w:
                break
        # Step 2: drain and drop whole nodes from the tail.
        if worst > budget_w:
            for node in reversed(nodes):
                if node.available:
                    shed_threads += node.assigned_threads
                    node.set_load(0)
                    node.power_down()
                    worst -= table.peak_w[deepest] - STANDBY_POWER_W
                elif node.napping:
                    node.power_down()
                    worst -= NAP_POWER_W - STANDBY_POWER_W
                elif node.powered and node.booting:
                    node.set_load(0)
                    node.power_down()
                    worst -= BOOT_POWER_W - STANDBY_POWER_W
                if worst <= budget_w:
                    break
        obs.event(
            "dc.cap_enforce",
            zone=self.zone,
            worst_case_w=round(worst, 1),
            budget_w=round(budget_w, 1),
            shed_threads=shed_threads,
        )
        return worst


class BudgetAllocator:
    """Splits the datacenter cap between zones and redistributes it.

    Zones request their worst-case need; when the requests fit, each
    zone gets its request plus a proportional share of the leftover
    (headroom lets its manager relax the DVFS ceiling); when they do
    not fit, requests are scaled down proportionally.  Allocation
    shifts — a dark zone's budget flowing to the survivors during
    failover — are logged as ``dc.budget_redistribute`` events.
    """

    def __init__(self, cap_w: float, log_shift_frac: float = 0.05) -> None:
        if not (math.isfinite(cap_w) and cap_w > 0):
            raise ValueError(f"cap must be finite and positive; got {cap_w}")
        self.cap_w = float(cap_w)
        self.log_shift_frac = float(log_shift_frac)
        self.last: "dict[str, float]" = {}
        self.redistributions = 0

    def allocate(self, requests: "dict[str, float]") -> "dict[str, float]":
        if not requests:
            return {}
        total = sum(requests.values())
        if total <= 0:
            share = self.cap_w / len(requests)
            budgets = {zone: share for zone in requests}
        elif total <= self.cap_w:
            leftover = self.cap_w - total
            budgets = {
                zone: req + leftover * (req / total)
                for zone, req in requests.items()
            }
        else:
            scale = self.cap_w / total
            budgets = {zone: req * scale for zone, req in requests.items()}
        if self.last:
            shifts = {
                zone: budgets[zone] - self.last.get(zone, 0.0)
                for zone in budgets
            }
            threshold = self.log_shift_frac * self.cap_w / max(len(budgets), 1)
            if any(abs(delta) > threshold for delta in shifts.values()):
                self.redistributions += 1
                obs.event(
                    "dc.budget_redistribute",
                    cap_w=round(self.cap_w, 1),
                    **{
                        f"zone_{zone}_delta_w": round(delta, 1)
                        for zone, delta in shifts.items()
                    },
                )
        self.last = dict(budgets)
        return budgets

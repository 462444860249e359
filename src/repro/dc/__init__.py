"""Datacenter-scale energy-proportional power management.

The paper positions its estimator as the sensor for ensemble-level
policies (Section 2.3: node power-down, enclosure budgeting).  This
package closes that loop at datacenter scale, following Subramaniam &
Feng's subsystem-level approach to energy proportionality:

* :mod:`repro.dc.traffic` — an open-loop traffic generator mapping a
  user population to per-second thread demand (diurnal waves, flash
  crowds, regional failover across zones);
* :mod:`repro.dc.policies` — subsystem-level power management: per-node
  DVFS coordination (through :class:`~repro.core.dvfs.DvfsSuiteBank`
  sensing), memory/disk nap states, cluster-wide power capping with
  budget redistribution between zones;
* :mod:`repro.dc.scoring` — energy-proportionality metrics (dynamic
  range, proportionality gap) and estimated-vs-true policy regret;
* :mod:`repro.dc.datacenter` — the simulated datacenter: one fleet
  cluster whose lane ranges are the zones, thousands of nodes as
  lanes, every policy acting on *estimated* power and scored against
  ground truth.
"""

from repro.dc.datacenter import (
    Datacenter,
    DatacenterReport,
    ZoneCalibration,
    run_scenario,
    train_zone_bank,
)
from repro.dc.policies import (
    BudgetAllocator,
    NodePowerTable,
    PolicyConfig,
    SubsystemManager,
)
from repro.dc.scoring import (
    energy_proportionality,
    policy_regret,
    scenario_objective,
)
from repro.dc.traffic import FlashCrowd, TrafficModel, ZoneOutage, ZoneSpec

__all__ = [
    "BudgetAllocator",
    "Datacenter",
    "DatacenterReport",
    "FlashCrowd",
    "NodePowerTable",
    "PolicyConfig",
    "SubsystemManager",
    "TrafficModel",
    "ZoneCalibration",
    "ZoneOutage",
    "ZoneSpec",
    "energy_proportionality",
    "policy_regret",
    "run_scenario",
    "scenario_objective",
    "train_zone_bank",
]

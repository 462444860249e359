"""The paper's training recipe.

Section 3.2.2: each subsystem model is trained on *one* workload trace
chosen for high utilisation and variation of that subsystem, then
validated on the full workload set.  The recipe object captures the
paper's final event selection (Section 4.2):

=========  =====================================  ==========  =========
Subsystem  Features                               Form        Train on
=========  =====================================  ==========  =========
CPU        active fraction, fetched uops/cycle    linear      gcc
Memory     bus transactions/Mcycle                quadratic   mcf
Disk       disk interrupts/Mcycle, DMA/Mcycle     quadratic   DiskLoad
I/O        interrupts/Mcycle                      quadratic   DiskLoad
Chipset    (none)                                 constant    idle
=========  =====================================  ==========  =========

The rejected intermediate — the L3-miss memory model of Equation 2,
which works on mesa and fails on mcf — is provided as
``L3_MEMORY_RECIPE`` for the ablation experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import monotonic as _monotonic

from repro import obs
from repro.core.events import Subsystem
from repro.core.features import FeatureSet
from repro.core.models import ConstantModel, PolynomialModel, SubsystemPowerModel
from repro.core.suite import TrickleDownSuite
from repro.core.traces import MeasuredRun


class TrainingError(ValueError):
    """Raised when training inputs do not match the recipe."""


@dataclass(frozen=True)
class ModelSpec:
    """How to build one subsystem's model."""

    subsystem: Subsystem
    form: str  # "constant" | "linear" | "quadratic"
    feature_names: "tuple[str, ...]"
    train_workload: str

    def __post_init__(self) -> None:
        if self.form not in ("constant", "linear", "quadratic"):
            raise ValueError(f"unknown model form {self.form!r}")
        if self.form != "constant" and not self.feature_names:
            raise ValueError(f"{self.form} model needs features")

    @property
    def n_parameters(self) -> int:
        """The fitted model's coefficients: an intercept, then one per
        feature (linear) or two (quadratic)."""
        per_feature = {"constant": 0, "linear": 1, "quadratic": 2}[self.form]
        return 1 + per_feature * len(self.feature_names)


@dataclass(frozen=True)
class TrainingRecipe:
    """A full per-subsystem training prescription."""

    name: str
    specs: "tuple[ModelSpec, ...]" = field(default_factory=tuple)

    def __post_init__(self) -> None:
        subsystems = [spec.subsystem for spec in self.specs]
        if len(set(subsystems)) != len(subsystems):
            raise ValueError("recipe has duplicate subsystem specs")

    def spec_for(self, subsystem: Subsystem) -> ModelSpec:
        for spec in self.specs:
            if spec.subsystem is subsystem:
                return spec
        raise KeyError(f"recipe {self.name!r} has no spec for {subsystem}")

    @property
    def training_workloads(self) -> "tuple[str, ...]":
        """Distinct workloads the recipe needs traces for."""
        return tuple(dict.fromkeys(spec.train_workload for spec in self.specs))


#: The paper's final models (Equations 1, 3, 4, 5 + constant chipset).
PAPER_RECIPE = TrainingRecipe(
    name="paper",
    specs=(
        ModelSpec(
            Subsystem.CPU,
            "linear",
            ("active_fraction", "fetched_uops_per_cycle"),
            "gcc",
        ),
        ModelSpec(
            Subsystem.MEMORY,
            "quadratic",
            ("bus_transactions_per_mcycle",),
            "mcf",
        ),
        ModelSpec(
            Subsystem.DISK,
            "quadratic",
            ("disk_interrupts_per_mcycle", "dma_accesses_per_mcycle"),
            "DiskLoad",
        ),
        ModelSpec(
            Subsystem.IO,
            "quadratic",
            ("interrupts_per_mcycle",),
            "DiskLoad",
        ),
        ModelSpec(Subsystem.CHIPSET, "constant", (), "idle"),
    ),
)

#: The rejected L3-miss memory model (Equation 2): trained on mesa,
#: fails under mcf — reproduced as an ablation.
L3_MEMORY_RECIPE = TrainingRecipe(
    name="l3-memory",
    specs=(
        ModelSpec(
            Subsystem.MEMORY,
            "quadratic",
            ("l3_misses_per_mcycle",),
            "mesa",
        ),
    ),
)


class ModelTrainer:
    """Fits a recipe against a set of training runs."""

    def __init__(self, recipe: TrainingRecipe = PAPER_RECIPE) -> None:
        self.recipe = recipe

    def train_one(self, spec: ModelSpec, run: MeasuredRun) -> SubsystemPowerModel:
        """Fit one subsystem model from one training run."""
        measured = run.power.power(spec.subsystem)
        if spec.form == "constant":
            return ConstantModel.fit(run.counters, measured)
        features = FeatureSet.of(*spec.feature_names)
        if not features.is_trickle_down:
            raise TrainingError(
                f"{spec.subsystem} model uses subsystem-local events; "
                "trickle-down models may only use CPU-visible counters"
            )
        degree = 1 if spec.form == "linear" else 2
        return PolynomialModel.fit(features, degree, run.counters, measured)

    def train(self, runs: "dict[str, MeasuredRun]") -> TrickleDownSuite:
        """Fit every subsystem model; ``runs`` maps workload name to
        its training trace (extra entries are ignored)."""
        models: "dict[Subsystem, SubsystemPowerModel]" = {}
        for spec in self.recipe.specs:
            try:
                run = runs[spec.train_workload]
            except KeyError:
                raise TrainingError(
                    f"recipe {self.recipe.name!r} needs a training run of "
                    f"{spec.train_workload!r} for the {spec.subsystem} model; "
                    f"got runs for: {', '.join(sorted(runs)) or 'none'}"
                ) from None
            with obs.span(
                "train.fit",
                subsystem=spec.subsystem.value,
                workload=spec.train_workload,
                form=spec.form,
            ):
                t0 = _monotonic()
                models[spec.subsystem] = self.train_one(spec, run)
                if obs.enabled():
                    reg = obs.registry()
                    reg.observe(
                        "model_fit_seconds",
                        _monotonic() - t0,
                        {"subsystem": spec.subsystem.value},
                    )
                    reg.inc(
                        "models_trained_total",
                        1.0,
                        {"subsystem": spec.subsystem.value},
                    )
        return TrickleDownSuite(models, recipe_name=self.recipe.name)

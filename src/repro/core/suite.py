"""A complete set of fitted subsystem models.

The suite is the paper's deliverable: five models that together
estimate complete-system power from six processor-visible performance
events, with no power-sensing hardware in the loop.
"""

from __future__ import annotations

import json
from typing import Mapping

import numpy as np

from repro.core.events import SUBSYSTEMS, Subsystem
from repro.core.models import ConstantModel, PolynomialModel, SubsystemPowerModel
from repro.core.traces import CounterTrace


class _CompiledSuite:
    """A suite flattened to one shared design matrix.

    Evaluating model-by-model rebuilds per-model feature and design
    matrices from the same trace; the compiled form computes each
    distinct feature once and assembles a single design matrix
    ``[1, x1..xF, xj^2 ...]``.  Each subsystem's prediction then
    accumulates its own nonzero terms (``_terms``: design column times
    coefficient) one by one, elementwise, so every row rounds the same
    whatever the batch length (see :meth:`evaluate`).  Attribution
    reuses the same design columns, so enabling it costs one multiply
    per term instead of a second design build per model.
    """

    def __init__(self, suite: "TrickleDownSuite") -> None:
        self.subsystems = suite.subsystems
        features: list = []  # distinct Feature objects, first-use order
        index: "dict[str, int]" = {}  # feature name -> position in features
        squared: "list[int]" = []  # feature positions needing a ^2 column
        sq_index: "dict[int, int]" = {}
        for subsystem in self.subsystems:
            model = suite.models[subsystem]
            if not isinstance(model, PolynomialModel):
                continue
            for feature in model.features:
                if feature.name not in index:
                    index[feature.name] = len(features)
                    features.append(feature)
                if model.degree >= 2:
                    position = index[feature.name]
                    if position not in sq_index:
                        sq_index[position] = len(squared)
                        squared.append(position)
        self.features = tuple(features)
        self._squared = np.asarray(squared, dtype=int)
        terms: "list[list[tuple[str, int, float]]]" = []
        for subsystem in self.subsystems:
            model = suite.models[subsystem]
            if isinstance(model, ConstantModel):
                terms.append([("constant", 0, model.value)])
                continue
            model_terms = [("intercept", 0, float(model.coefficients[0]))]
            k = 1
            for power in range(1, model.degree + 1):
                for feature in model.features:
                    position = index[feature.name]
                    column = (
                        1 + position
                        if power == 1
                        else 1 + len(features) + sq_index[position]
                    )
                    coefficient = float(model.coefficients[k])
                    name = (
                        feature.name if power == 1 else f"{feature.name}^{power}"
                    )
                    model_terms.append((name, column, coefficient))
                    k += 1
            terms.append(model_terms)
        self._terms = terms

    def evaluate(
        self, trace: CounterTrace, attribute: bool = False
    ) -> "tuple[dict[Subsystem, np.ndarray], dict[Subsystem, dict[str, np.ndarray]] | None]":
        columns = [np.ones(trace.n_samples)]
        if self.features:
            raw = np.column_stack([feature(trace) for feature in self.features])
            columns.append(raw)
            if self._squared.size:
                columns.append(raw[:, self._squared] ** 2)
        design = np.column_stack(columns)
        # Accumulate term-by-term instead of `design @ coefficients`:
        # BLAS kernels change accumulation order with the batch shape,
        # so the same sample can round differently inside a large batch
        # than alone.  Elementwise multiply-add is per-element
        # deterministic at any length, which keeps per-row results
        # independent of how a stream is framed — the streaming
        # service's bit-identity guarantee (tests/test_serve.py).  Each
        # subsystem touches only its own few nonzero terms, so this is
        # no more work than the dense product it replaces.
        predictions: "dict[Subsystem, np.ndarray]" = {}
        for j, s in enumerate(self.subsystems):
            acc: "np.ndarray | None" = None
            for _name, column, coefficient in self._terms[j]:
                term = design[:, column] * coefficient
                acc = term if acc is None else acc + term
            predictions[s] = acc
        if not attribute:
            return predictions, None
        terms = {
            s: {
                name: design[:, column] * coefficient
                for name, column, coefficient in self._terms[j]
            }
            for j, s in enumerate(self.subsystems)
        }
        return predictions, terms


class TrickleDownSuite:
    """Per-subsystem power models plus total-system estimation."""

    def __init__(
        self,
        models: "Mapping[Subsystem, SubsystemPowerModel]",
        recipe_name: str = "custom",
    ) -> None:
        if not models:
            raise ValueError("suite needs at least one subsystem model")
        self.models = dict(models)
        self.recipe_name = recipe_name

    @property
    def subsystems(self) -> "tuple[Subsystem, ...]":
        return tuple(s for s in SUBSYSTEMS if s in self.models)

    def model(self, subsystem: Subsystem) -> SubsystemPowerModel:
        try:
            return self.models[subsystem]
        except KeyError:
            raise KeyError(
                f"suite has no model for {subsystem}; has: "
                + ", ".join(str(s) for s in self.subsystems)
            ) from None

    def predict(self, subsystem: Subsystem, trace: CounterTrace) -> np.ndarray:
        """Predicted power of one subsystem per sample (Watts)."""
        return self.model(subsystem).predict(trace)

    def predict_all(self, trace: CounterTrace) -> "dict[Subsystem, np.ndarray]":
        """Predicted power of every modelled subsystem."""
        return self.evaluate(trace)[0]

    def evaluate(
        self, trace: CounterTrace, attribute: bool = False
    ) -> "tuple[dict[Subsystem, np.ndarray], dict[Subsystem, dict[str, np.ndarray]] | None]":
        """Batched per-subsystem prediction, optionally with attribution.

        One shared design-matrix pass evaluates every model at once
        (each distinct feature computed a single time, each subsystem
        accumulated term by term from its columns); ``attribute=True``
        additionally returns the per-term watt decomposition from the
        same design columns.  Returns ``(predictions, terms)`` with ``terms`` of
        the :meth:`attribute_all` shape, or ``None`` when not
        requested.  Model kinds the compiler does not recognise fall
        back to per-model evaluation.
        """
        compiled = self._compiled()
        if compiled is not None:
            return compiled.evaluate(trace, attribute=attribute)
        predictions = {s: self.models[s].predict(trace) for s in self.subsystems}
        return predictions, (self.attribute_all(trace) if attribute else None)

    def _compiled(self) -> "_CompiledSuite | None":
        """Lazily built batched evaluator (``None`` for unknown kinds).

        Models are treated as frozen once the first prediction runs; a
        fitted suite is immutable in practice (:meth:`scaled` returns a
        copy rather than editing coefficients in place).
        """
        try:
            return self._compiled_cache
        except AttributeError:
            pass
        if all(
            type(model) in (ConstantModel, PolynomialModel)
            for model in self.models.values()
        ):
            self._compiled_cache: "_CompiledSuite | None" = _CompiledSuite(self)
        else:
            self._compiled_cache = None
        return self._compiled_cache

    def predict_total(self, trace: CounterTrace) -> np.ndarray:
        """Complete-system power estimate per sample (Watts)."""
        return np.sum(list(self.predict_all(trace).values()), axis=0)

    def attribute(
        self, subsystem: Subsystem, trace: CounterTrace
    ) -> "dict[str, np.ndarray]":
        """One subsystem's per-term watt decomposition (per sample)."""
        return self.model(subsystem).attribute(trace)

    def attribute_all(
        self, trace: CounterTrace
    ) -> "dict[Subsystem, dict[str, np.ndarray]]":
        """Per-term watt decomposition of every modelled subsystem.

        For each subsystem the term arrays sum exactly to
        :meth:`predict` — the estimate rearranged by *which counter
        term carries the watts*, the question the paper's Section 5
        mcf diagnosis answers.
        """
        return {s: self.models[s].attribute(trace) for s in self.subsystems}

    def scaled(
        self,
        factor: float,
        subsystems: "tuple[Subsystem, ...] | None" = None,
    ) -> "TrickleDownSuite":
        """A copy with every coefficient of the chosen models scaled.

        A deliberately mis-calibrated suite: scaling all coefficients
        by ``factor`` scales each model's prediction by ``factor``,
        i.e. a uniform ``(factor - 1) * 100`` % error against the
        machine it was fitted on.  Used to inject drift for testing the
        online monitor (``repro-power monitor --perturb``) without
        touching the stored calibration.
        """
        if not np.isfinite(factor):
            raise ValueError("scale factor must be finite")
        chosen = set(self.subsystems if subsystems is None else subsystems)
        models = {}
        for subsystem, model in self.models.items():
            data = model.to_dict()
            if subsystem in chosen:
                if data.get("kind") == "constant":
                    data["value"] = data["value"] * factor
                elif data.get("kind") == "polynomial":
                    data["coefficients"] = [
                        c * factor for c in data["coefficients"]
                    ]
                else:  # pragma: no cover - future model kinds
                    raise ValueError(
                        f"cannot scale model kind {data.get('kind')!r}"
                    )
            models[subsystem] = SubsystemPowerModel.from_dict(data)
        return TrickleDownSuite(models, recipe_name=f"{self.recipe_name}*{factor:g}")

    def describe(self) -> str:
        """All model equations, paper style."""
        lines = [f"Trickle-down suite (recipe: {self.recipe_name})"]
        for subsystem in self.subsystems:
            lines.append(f"  {subsystem.value:>8}: {self.models[subsystem].describe()}")
        return "\n".join(lines)

    # -- persistence ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "recipe": self.recipe_name,
            "models": {s.value: m.to_dict() for s, m in self.models.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TrickleDownSuite":
        return cls(
            models={
                Subsystem(name): SubsystemPowerModel.from_dict(model)
                for name, model in data["models"].items()
            },
            recipe_name=data.get("recipe", "custom"),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    @classmethod
    def load(cls, path: str) -> "TrickleDownSuite":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

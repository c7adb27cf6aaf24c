"""The model pool (Section IV / Figure 3 of the paper).

PracMHBench's constraint cases pick each client's model from a measured pool:
every candidate variant (width multiplier, depth level, or family member) is
profiled for parameters, FLOPs, activation footprint — and, through the cost
model, training time / communication time / training memory on any device.
:class:`~repro.constraints.assignment.ConstraintAssigner` then gives each
client the largest variant that satisfies its budgets, the paper's assignment
principle for all three constraint cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .flops import ModelStats, measure_model
from ..models.base import SliceableModel
from ..nn.module import Layout

__all__ = ["PoolEntry", "ModelPool"]


@dataclass(frozen=True)
class PoolEntry:
    """One measured candidate model variant."""

    key: str
    #: nominal proportion of the original model (the x-axis of Figure 3).
    proportion: float
    #: constructor overrides that rebuild this variant from the base model.
    overrides: dict = field(hash=False)
    stats: ModelStats = field(hash=False)
    #: the state layout of the model it measured.
    layout: Layout = field(hash=False)

    def build(self, base_model: SliceableModel) -> SliceableModel:
        return base_model.variant(**self.overrides)


class ModelPool:
    """An ordered collection of measured variants of one base model."""

    def __init__(self, base_model: SliceableModel, entries: list[PoolEntry]):
        if not entries:
            raise ValueError("model pool needs at least one entry")
        self.base_model = base_model
        self.entries = sorted(entries, key=lambda e: e.stats.flops_per_sample)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_variants(cls, base_model: SliceableModel,
                      variants: dict[str, dict],
                      proportions: dict[str, float] | None = None
                      ) -> "ModelPool":
        """Measure a set of variants given as ``key -> constructor overrides``.

        ``proportions`` optionally assigns the nominal proportion per key
        (defaults to ``width_mult`` or owned-stage fraction when derivable).
        """
        entries = []
        for key, overrides in variants.items():
            model = base_model.variant(**overrides)
            stats = measure_model(model)
            if proportions and key in proportions:
                proportion = proportions[key]
            elif "width_mult" in overrides:
                proportion = float(overrides["width_mult"])
            elif "num_stages" in overrides and overrides["num_stages"]:
                proportion = overrides["num_stages"] / base_model.total_stages
            else:
                proportion = 1.0
            entries.append(PoolEntry(key=key, proportion=proportion,
                                     overrides=dict(overrides), stats=stats,
                                     layout=model.state_layout()))
        return cls(base_model, entries)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def get(self, key: str) -> PoolEntry:
        for entry in self.entries:
            if entry.key == key:
                return entry
        raise KeyError(f"no pool entry {key!r}; known: "
                       f"{[e.key for e in self.entries]}")

    @property
    def smallest(self) -> PoolEntry:
        return self.entries[0]

    @property
    def largest(self) -> PoolEntry:
        return self.entries[-1]

"""Figure 7: analysis of constraint combinations.

CIFAR-100 accuracy of every algorithm under Comp, Mem, Comm, Mem+Comm and
Mem+Comm+Comp (a client's feasible set is the intersection of the active
constraints' feasible sets).
"""

from __future__ import annotations

from ..algorithms import MHFL_ALGORITHMS
from ..constraints import ConstraintSpec
from .registry import register_artifact
from .reporting import aggregate_seed_rows
from .spec import RunSpec, unique_specs

__all__ = ["specs", "rows", "COMBOS"]

COMBOS: list[tuple[str, ...]] = [
    ("computation",),
    ("memory",),
    ("communication",),
    ("memory", "communication"),
    ("memory", "communication", "computation"),
]


def specs(scale: str = "demo", seed: int = 0, dataset: str = "cifar100",
          algorithms: list[str] | None = None,
          combos: list[tuple[str, ...]] | None = None,
          seeds: list[int] | None = None,
          availability: str = "always_on",
          scale_overrides: dict | None = None) -> list[RunSpec]:
    return unique_specs(
        RunSpec(algorithm=name, dataset=dataset,
                constraints=ConstraintSpec(constraints=combo,
                                           availability=availability),
                scale=scale, scale_overrides=dict(scale_overrides or {}),
                seed=one_seed)
        for one_seed in (seeds or [seed]) for combo in (combos or COMBOS)
        for name in (algorithms or MHFL_ALGORITHMS))


@register_artifact("fig7",
                   title="Figure 7: constraint combinations (CIFAR-100)",
                   specs=specs)
def rows(results, **_) -> list[dict]:
    return aggregate_seed_rows(
        [[{"constraints": res.spec.constraints.label,
           "algorithm": res.spec.algorithm,
           "accuracy": round(res.final_accuracy, 4)}
          for res in results if res.spec.seed == one_seed]
         for one_seed in dict.fromkeys(res.spec.seed for res in results)],
        value_keys={"accuracy": 6})

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
from .runner import run_one

__all__ = ["run", "COMBOS"]

COMBOS: list[tuple[str, ...]] = [
    ("computation",),
    ("memory",),
    ("communication",),
    ("memory", "communication"),
    ("memory", "communication", "computation"),
]


def _rows_for_seed(seed: int, scale: str, dataset: str,
                   algorithms: list[str], combos: list[tuple[str, ...]],
                   availability: str,
                   scale_overrides: dict | None) -> list[dict]:
    rows = []
    for combo in combos:
        spec = ConstraintSpec(constraints=combo, availability=availability)
        for name in algorithms:
            result = run_one(name, dataset, spec, scale=scale, seed=seed,
                             scale_overrides=scale_overrides)
            rows.append({"constraints": spec.label, "algorithm": name,
                         "accuracy": round(result.final_accuracy, 4)})
    return rows


@register_artifact("fig7",
                   title="Figure 7: constraint combinations (CIFAR-100)")
def run(scale: str = "demo", seed: int = 0, dataset: str = "cifar100",
        algorithms: list[str] | None = None,
        combos: list[tuple[str, ...]] | None = None,
        seeds: list[int] | None = None,
        availability: str = "always_on",
        scale_overrides: dict | None = None) -> list[dict]:
    algorithms = algorithms or list(MHFL_ALGORITHMS)
    combos = list(combos or COMBOS)
    return aggregate_seed_rows(
        [_rows_for_seed(s, scale, dataset, algorithms, combos, availability,
                        scale_overrides)
         for s in (seeds if seeds else [seed])],
        value_keys=["accuracy"])


if __name__ == "__main__":
    import sys

    from repro.__main__ import main
    raise SystemExit(main(["run", "fig7", *sys.argv[1:]]))

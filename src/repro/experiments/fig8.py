"""Figure 8: non-IID performance on the computation-limited scenario.

CIFAR-100 / CIFAR-10 / AG-News accuracy under IID and Dirichlet(alpha) label
partitions with alpha in {0.5, 5} — the paper's robustness check that the
computation-limited conclusions survive data heterogeneity.
"""

from __future__ import annotations

from ..algorithms import MHFL_ALGORITHMS
from ..constraints import ConstraintSpec
from .registry import register_artifact
from .reporting import aggregate_seed_rows
from .spec import RunSpec, unique_specs

__all__ = ["specs", "rows", "PARTITIONS", "NONIID_DATASETS"]

#: (label, scheme, alpha) — matching the paper's iid / niid-0.5 / niid-5.
PARTITIONS = [("iid", "iid", 0.0), ("niid-0.5", "dirichlet", 0.5),
              ("niid-5", "dirichlet", 5.0)]
NONIID_DATASETS = ["cifar100", "cifar10", "agnews"]

_LABELS = {(scheme, alpha): label for label, scheme, alpha in PARTITIONS}


def specs(scale: str = "demo", seed: int = 0,
          datasets: list[str] | None = None,
          algorithms: list[str] | None = None,
          seeds: list[int] | None = None,
          availability: str = "always_on",
          scale_overrides: dict | None = None) -> list[RunSpec]:
    constraints = ConstraintSpec(constraints=("computation",),
                                 availability=availability)
    return unique_specs(
        RunSpec(algorithm=name, dataset=dataset, constraints=constraints,
                scale=scale, scale_overrides=dict(scale_overrides or {}),
                partition_scheme=scheme, alpha=alpha, seed=one_seed)
        for one_seed in (seeds or [seed])
        for dataset in (datasets or NONIID_DATASETS)
        for _, scheme, alpha in PARTITIONS
        for name in (algorithms or MHFL_ALGORITHMS))


@register_artifact("fig8",
                   title="Figure 8: non-IID robustness "
                         "(computation-limited)",
                   specs=specs)
def rows(results, **_) -> list[dict]:
    return aggregate_seed_rows(
        [[{"dataset": res.spec.dataset,
           "partition": _LABELS[(res.spec.partition_scheme,
                                 res.spec.alpha)],
           "algorithm": res.spec.algorithm,
           "accuracy": round(res.final_accuracy, 4)}
          for res in results if res.spec.seed == one_seed]
         for one_seed in dict.fromkeys(res.spec.seed for res in results)],
        value_keys={"accuracy": 6})

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
from .runner import execute_specs
from .spec import RunSpec

__all__ = ["run", "PARTITIONS", "NONIID_DATASETS"]

#: (label, scheme, alpha) — matching the paper's iid / niid-0.5 / niid-5.
PARTITIONS = [("iid", "iid", 0.0), ("niid-0.5", "dirichlet", 0.5),
              ("niid-5", "dirichlet", 5.0)]
NONIID_DATASETS = ["cifar100", "cifar10", "agnews"]


@register_artifact("fig8",
                   title="Figure 8: non-IID robustness "
                         "(computation-limited)")
def run(scale: str = "demo", seed: int = 0,
        datasets: list[str] | None = None,
        algorithms: list[str] | None = None,
        seeds: list[int] | None = None,
        availability: str = "always_on",
        scale_overrides: dict | None = None) -> list[dict]:
    algorithms = algorithms or list(MHFL_ALGORITHMS)
    seed_list = seeds if seeds else [seed]
    constraints = ConstraintSpec(constraints=("computation",),
                                 availability=availability)
    cells = [(label, RunSpec(algorithm=name, dataset=dataset,
                             constraints=constraints, scale=scale,
                             scale_overrides=dict(scale_overrides or {}),
                             partition_scheme=scheme, alpha=alpha,
                             seed=one_seed))
             for one_seed in seed_list
             for dataset in (datasets or NONIID_DATASETS)
             for label, scheme, alpha in PARTITIONS for name in algorithms]
    results = execute_specs([spec for _, spec in cells])
    return aggregate_seed_rows(
        [[{"dataset": res.spec.dataset, "partition": label,
           "algorithm": res.spec.algorithm,
           "accuracy": round(res.final_accuracy, 4)}
          for (label, _), res in zip(cells, results)
          if res.spec.seed == one_seed]
         for one_seed in seed_list],
        value_keys={"accuracy": 6})

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
from .runner import run_one

__all__ = ["run", "PARTITIONS", "NONIID_DATASETS"]

#: (label, scheme, alpha) — matching the paper's iid / niid-0.5 / niid-5.
PARTITIONS = [("iid", "iid", 0.0), ("niid-0.5", "dirichlet", 0.5),
              ("niid-5", "dirichlet", 5.0)]
NONIID_DATASETS = ["cifar100", "cifar10", "agnews"]


def _rows_for_seed(seed: int, scale: str, datasets: list[str],
                   algorithms: list[str], availability: str,
                   scale_overrides: dict | None) -> list[dict]:
    spec = ConstraintSpec(constraints=("computation",),
                          availability=availability)
    rows = []
    for dataset in datasets:
        for label, scheme, alpha in PARTITIONS:
            for name in algorithms:
                result = run_one(name, dataset, spec, scale=scale, seed=seed,
                                 partition_scheme=scheme, alpha=alpha,
                                 scale_overrides=scale_overrides)
                rows.append({"dataset": dataset, "partition": label,
                             "algorithm": name,
                             "accuracy": round(result.final_accuracy, 4)})
    return rows


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
    datasets = list(datasets or NONIID_DATASETS)
    return aggregate_seed_rows(
        [_rows_for_seed(s, scale, datasets, algorithms, availability,
                        scale_overrides)
         for s in (seeds if seeds else [seed])],
        value_keys=["accuracy"])


if __name__ == "__main__":
    import sys

    from repro.__main__ import main
    raise SystemExit(main(["run", "fig8", *sys.argv[1:]]))

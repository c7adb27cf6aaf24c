"""Figure 9: analysis of scalability.

Accuracy and time-to-accuracy versus client count on the memory-limited
CIFAR-100 case (paper x-axis: 100 / 200 / 500 clients; the demo scale uses
the same 1:2:5 proportions at its own size). Fed-ET appears instead of
FedProto following the paper's Figure 9 legend.
"""

from __future__ import annotations

from ..algorithms import MHFL_ALGORITHMS
from ..constraints import ConstraintSpec
from .registry import register_artifact
from .reporting import aggregate_seed_rows
from .runner import resolve_target_accuracy, run_one
from .scales import get_scale

__all__ = ["run", "client_counts_for"]

_FIG9_ALGORITHMS = [n for n in MHFL_ALGORITHMS if n != "fedproto"]


def client_counts_for(scale_name: str) -> list[int]:
    """The paper's 100/200/500 sweep, shrunk proportionally off-paper."""
    base = {"smoke": 4, "demo": 10, "paper": 100}[scale_name]
    return [base, base * 2, base * 5]


def _rows_for_seed(seed: int, scale: str, dataset: str,
                   algorithms: list[str], counts: list[int],
                   availability: str,
                   scale_overrides: dict | None) -> list[dict]:
    spec = ConstraintSpec(constraints=("memory",), availability=availability)
    rows = []
    for num_clients in counts:
        results = {}
        for name in algorithms:
            results[name] = run_one(name, dataset, spec, scale=scale,
                                    seed=seed, num_clients=num_clients,
                                    scale_overrides=scale_overrides)
        num_classes = next(iter(results.values())).num_classes
        target = resolve_target_accuracy(
            [r.history for r in results.values()], num_classes)
        for name, result in results.items():
            tta = result.history.time_to_accuracy(target)
            rows.append({"clients": num_clients, "algorithm": name,
                         "accuracy": round(result.final_accuracy, 4),
                         "tta_s": None if tta is None else round(tta, 1)})
    return rows


@register_artifact("fig9",
                   title="Figure 9: scalability (memory-limited CIFAR-100)")
def run(scale: str = "demo", seed: int = 0, dataset: str = "cifar100",
        algorithms: list[str] | None = None,
        client_counts: list[int] | None = None,
        seeds: list[int] | None = None,
        availability: str = "always_on",
        scale_overrides: dict | None = None) -> list[dict]:
    algorithms = algorithms or list(_FIG9_ALGORITHMS)
    counts = client_counts or client_counts_for(get_scale(scale).name)
    return aggregate_seed_rows(
        [_rows_for_seed(s, scale, dataset, algorithms, counts, availability,
                        scale_overrides)
         for s in (seeds if seeds else [seed])],
        value_keys=["accuracy", "tta_s"])


if __name__ == "__main__":
    import sys

    from repro.__main__ import main
    raise SystemExit(main(["run", "fig9", *sys.argv[1:]]))

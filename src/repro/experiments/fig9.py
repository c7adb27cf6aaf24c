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
from .runner import resolve_target_accuracy
from .scales import resolve_scale
from .spec import RunSpec, unique_specs

__all__ = ["specs", "rows", "client_counts_for"]

_FIG9_ALGORITHMS = [n for n in MHFL_ALGORITHMS if n != "fedproto"]


def client_counts_for(scale_name: str) -> list[int]:
    """The paper's 100/200/500 sweep, shrunk proportionally off-paper."""
    base = {"smoke": 4, "demo": 10, "paper": 100}[scale_name]
    return [base, base * 2, base * 5]


def _group_rows(results) -> list[dict]:
    """Rows of one (seed, client count) group: every algorithm measured
    against the group's shared time-to-accuracy target."""
    target = resolve_target_accuracy([res.history for res in results],
                                     results[0].num_classes)
    rows = []
    for res in results:
        tta = res.history.time_to_accuracy(target)
        rows.append({"clients": res.spec.num_clients,
                     "algorithm": res.spec.algorithm,
                     "accuracy": round(res.final_accuracy, 4),
                     "tta_s": None if tta is None else round(tta, 1)})
    return rows


def specs(scale: str = "demo", seed: int = 0, dataset: str = "cifar100",
          algorithms: list[str] | None = None,
          client_counts: list[int] | None = None,
          seeds: list[int] | None = None,
          availability: str = "always_on",
          scale_overrides: dict | None = None) -> list[RunSpec]:
    resolved = resolve_scale(scale, scale_overrides)
    counts = client_counts or client_counts_for(resolved.name)
    # A dataset with natural users is split one user per client at most.
    users = resolved.kwargs_for(dataset).get("num_users")
    if users is not None and max(counts) > users:
        raise ValueError(
            f"fig9: {dataset} at scale {resolved.name!r} has {users} users, "
            f"too few for {max(counts)} clients (client counts "
            f"{', '.join(map(str, counts))})")
    constraints = ConstraintSpec(constraints=("memory",),
                                 availability=availability)
    return unique_specs(
        RunSpec(algorithm=name, dataset=dataset, constraints=constraints,
                scale=scale, scale_overrides=dict(scale_overrides or {}),
                num_clients=num_clients, seed=one_seed)
        for one_seed in (seeds or [seed])
        for num_clients in counts
        for name in (algorithms or _FIG9_ALGORITHMS))


@register_artifact("fig9",
                   title="Figure 9: scalability (memory-limited CIFAR-100)",
                   specs=specs)
def rows(results, **_) -> list[dict]:
    per_seed: dict[int, dict[int, list]] = {}
    for res in results:
        per_seed.setdefault(res.spec.seed, {}).setdefault(
            res.spec.num_clients, []).append(res)
    return aggregate_seed_rows(
        [[row for group in groups.values() for row in _group_rows(group)]
         for groups in per_seed.values()],
        value_keys={"accuracy": 6, "tta_s": 6})

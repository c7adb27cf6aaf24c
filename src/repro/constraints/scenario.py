"""Scenario builder: constraint case -> ready-to-run algorithm instance.

Glues together every substrate: dataset + partition, fleet sampling, the
algorithm's variant pool, budget-driven assignment, and the algorithm object
itself.  The same entry point serves all of the paper's experiments
(Figures 4–9): only the :class:`~repro.constraints.spec.ConstraintSpec`, the
dataset/partition and the algorithm name change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms import ClientContext, MHFLAlgorithm, get_algorithm
from ..data.dataset import FederatedDataset
from ..data.partition import partition_dataset
from ..fl.client import LocalTrainConfig
from ..hw.cost_model import CostModel, DEFAULT_COST_MODEL
from ..hw.ima import sample_fleet
from ..models.base import SliceableModel
from .assignment import ConstraintAssigner
from .spec import ConstraintSpec

__all__ = ["BuiltScenario", "build_scenario"]


@dataclass
class BuiltScenario:
    """A constraint case instantiated for one algorithm."""

    algorithm: MHFLAlgorithm
    assigner: ConstraintAssigner
    #: per-client assigned pool-entry keys (for inspection / reporting).
    assignment_keys: list[str]
    #: the spec this scenario was built from (carries the availability
    #: scenario the event-driven runtime should honour).
    spec: ConstraintSpec | None = None
    #: number of label classes in the scenario's dataset, recorded so
    #: downstream metric targets need no dataset reload.
    num_classes: int | None = None

    def level_distribution(self) -> dict[str, int]:
        """How many clients run each capacity level."""
        counts: dict[str, int] = {}
        for key in self.assignment_keys:
            counts[key] = counts.get(key, 0) + 1
        return counts


def build_scenario(algorithm_name: str, base_model: SliceableModel,
                   dataset: FederatedDataset, num_clients: int,
                   spec: ConstraintSpec,
                   train_config: LocalTrainConfig | None = None,
                   partition_scheme: str = "auto", alpha: float = 0.5,
                   seed: int = 0,
                   cost_model: CostModel = DEFAULT_COST_MODEL,
                   eval_max_samples: int = 512) -> BuiltScenario:
    """Build a constrained federated scenario for one algorithm.

    ``base_model`` should be built *without* the algorithm's base-model
    overrides — they are applied here, so callers can share one model
    definition across algorithms.
    """
    cls = get_algorithm(algorithm_name)
    if cls.base_model_overrides:
        base_model = base_model.variant(**cls.base_model_overrides)

    shards = partition_dataset(dataset, num_clients, scheme=partition_scheme,
                               alpha=alpha, seed=seed)
    fleet = sample_fleet(num_clients, seed=seed + 1)
    pool = cls.build_pool(base_model)

    assigner = ConstraintAssigner(
        spec, pool, fleet, [len(s) for s in shards], cost_model=cost_model)
    if cls.level == "homogeneous":
        entries = assigner.assign_homogeneous()
    else:
        entries = assigner.assign()

    clients = [ClientContext(client_id=cap.client_id,
                             shard=dataset.subset(shard),
                             capability=cap, entry=entry)
               for cap, shard, entry in zip(fleet, shards, entries)]
    algorithm = cls(base_model, dataset, clients,
                    train_config=train_config, cost_model=cost_model,
                    eval_max_samples=eval_max_samples, pool=pool)
    return BuiltScenario(algorithm=algorithm, assigner=assigner,
                         assignment_keys=[e.key for e in entries], spec=spec,
                         num_classes=dataset.num_classes)

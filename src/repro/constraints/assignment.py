"""Budget-driven model assignment (the paper's model-pool selection).

For every client, the feasible set is the pool entries whose cost satisfies
*all* active constraints on that client's device; the client gets the largest
feasible entry ("the largest trainable model is assigned", Section IV).  A
client with an empty feasible set falls back to the smallest entry — it must
still participate.

The homogeneous effectiveness baseline instead assigns everyone the largest
entry feasible for *every* client simultaneously ("training the smallest
homogeneous model across all heterogeneous devices").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..hw.cost_model import CostModel, DEFAULT_COST_MODEL
from ..hw.ima import ClientCapability
from ..hw.model_pool import ModelPool, PoolEntry
from .spec import ConstraintSpec

__all__ = ["ConstraintAssigner"]


class ConstraintAssigner:
    """Resolves budgets against a fleet and assigns pool entries."""

    def __init__(self, spec: ConstraintSpec, pool: ModelPool,
                 fleet: Sequence[ClientCapability],
                 shard_sizes: Sequence[int],
                 cost_model: CostModel = DEFAULT_COST_MODEL):
        if len(fleet) != len(shard_sizes):
            raise ValueError("fleet and shard_sizes must be parallel")
        self.spec = spec
        self.pool = pool
        self.fleet = list(fleet)
        self.shard_sizes = list(shard_sizes)
        self.cost_model = cost_model
        self._deadline_s = self._resolve_deadline()
        self._comm_budget_s = self._resolve_comm_budget()
        self._memory_budgets = self._resolve_memory_budgets()

    # ------------------------------------------------------------------
    # Budget resolution
    # ------------------------------------------------------------------
    def _largest_costs(self, fn) -> np.ndarray:
        entry = self.pool.largest
        return np.array([fn(entry, cap, size)
                         for cap, size in zip(self.fleet, self.shard_sizes)])

    def _train_time(self, entry: PoolEntry, cap: ClientCapability,
                    shard_size: int) -> float:
        return self.cost_model.training_time_s(
            entry.stats, cap.as_device(), num_samples=shard_size,
            local_epochs=self.spec.local_epochs)

    def _comm_time(self, entry: PoolEntry, cap: ClientCapability,
                   shard_size: int) -> float:
        return self.cost_model.communication_time_s(entry.stats,
                                                    cap.as_device())

    def _resolve_deadline(self) -> float | None:
        if "computation" not in self.spec.constraints:
            return None
        if self.spec.round_deadline_s is not None:
            return self.spec.round_deadline_s
        costs = self._largest_costs(self._train_time)
        return float(np.quantile(costs, self.spec.deadline_quantile))

    def _resolve_comm_budget(self) -> float | None:
        if "communication" not in self.spec.constraints:
            return None
        if self.spec.comm_budget_s is not None:
            return self.spec.comm_budget_s
        costs = self._largest_costs(self._comm_time)
        return float(np.quantile(costs, self.spec.comm_quantile))

    def _resolve_memory_budgets(self) -> dict[str, float] | None:
        if "memory" not in self.spec.constraints:
            return None
        peak = max(self.cost_model.training_memory_bytes(
            entry.stats, self.spec.memory_batch_size)
            for entry in self.pool.entries)
        return {tier: factor * peak
                for tier, factor in self.spec.tier_factors.items()}

    @property
    def round_deadline_s(self) -> float | None:
        return self._deadline_s

    @property
    def comm_budget_s(self) -> float | None:
        return self._comm_budget_s

    # ------------------------------------------------------------------
    # Feasibility / assignment
    # ------------------------------------------------------------------
    def feasible(self, entry: PoolEntry, cap: ClientCapability,
                 shard_size: int) -> bool:
        """Does ``entry`` satisfy every active constraint on this client?"""
        spec = self.spec
        if self._deadline_s is not None \
                and self._train_time(entry, cap, shard_size) > self._deadline_s:
            return False
        if self._comm_budget_s is not None \
                and self._comm_time(entry, cap, shard_size) > self._comm_budget_s:
            return False
        if self._memory_budgets is not None:
            needed = self.cost_model.training_memory_bytes(
                entry.stats, spec.memory_batch_size)
            if spec.memory_absolute:
                budget = cap.memory_bytes * spec.memory_headroom
            else:
                budget = self._memory_budgets.get(cap.tier, 0.0)
            if needed > budget:
                return False
        return True

    def largest_feasible(self, cap: ClientCapability,
                         shard_size: int) -> PoolEntry:
        """Largest entry this client can run (fallback: the smallest)."""
        best = self.pool.smallest
        for entry in self.pool.entries:       # ordered by flops ascending
            if self.feasible(entry, cap, shard_size):
                best = entry
        return best

    def assign(self) -> list[PoolEntry]:
        """Per-client assignment (the MHFL methods' heterogeneous levels)."""
        return [self.largest_feasible(cap, size)
                for cap, size in zip(self.fleet, self.shard_sizes)]

    def assign_homogeneous(self) -> list[PoolEntry]:
        """Everyone gets the largest entry feasible for *all* clients."""
        best_common = self.pool.smallest
        for entry in self.pool.entries:
            if all(self.feasible(entry, cap, size)
                   for cap, size in zip(self.fleet, self.shard_sizes)):
                best_common = entry
        return [best_common] * len(self.fleet)

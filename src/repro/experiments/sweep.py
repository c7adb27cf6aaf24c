"""Grids, shards and derived status over the run cache.

A grid is the list of :class:`~repro.experiments.spec.RunSpec` cells an
artifact lists (``Artifact.specs``); :func:`expand_grid` builds the
(dataset x seed x algorithm) grid of the constraint figures.  Nothing
about a grid's progress is stored: a cell is done exactly when the
content-addressed run cache holds a valid entry for it
(:meth:`~repro.experiments.cache.RunCache.contains`), so status can never
go stale, and a SIGKILLed run re-invoked with the same arguments is
correct by construction — done cells are served, unfinished ones re-run,
and the final cache bytes match an uninterrupted run (pinned by
``tests/test_sweep.py`` and the CI ``shard-smoke`` job).

Multi-host sharding assigns cell ``s`` to shard
``int(s.content_hash(), 16) % N``.  Shards are pairwise disjoint and
jointly exhaustive by modular arithmetic, and the assignment is identical
across processes and hosts because the content hash is the sha256 of the
spec's canonical JSON — no per-process salt, no ``PYTHONHASHSEED``
dependence::

    repro run fig4 fig5 --scale demo --shard K/N [--workers N]
    repro status fig4 fig5 --scale demo --shards N
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..algorithms import MHFL_ALGORITHMS
from ..constraints import ConstraintSpec
from ..data.registry import DATASET_NAMES
from .cache import RunCache
from .runner import BASELINE_ALGORITHM
from .spec import RunSpec, unique_specs

__all__ = ["Shard", "shard_of", "expand_grid", "status_rows"]


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
def shard_of(spec: RunSpec, count: int) -> int:
    """The shard (0-based) owning ``spec`` in a ``count``-way partition.

    ``int(content_hash, 16) % count``: deterministic across processes and
    hosts (sha256 of the canonical spec JSON — no hash randomisation), so
    K/N shards are pairwise disjoint and jointly exhaustive for any N.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    return int(spec.content_hash(), 16) % count


@dataclass(frozen=True)
class Shard:
    """One slice of a ``count``-way partition (``Shard()`` = everything)."""

    index: int = 0
    count: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(f"shard index must be in [0, {self.count}), "
                             f"got {self.index}")

    @classmethod
    def parse(cls, text: str) -> "Shard":
        """Parse the CLI's ``K/N`` form (e.g. ``0/4``)."""
        parts = text.split("/")
        if len(parts) != 2:
            raise ValueError(f"expected shard as K/N (e.g. 0/4), "
                             f"got {text!r}")
        try:
            index, count = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"expected integer K/N shard, "
                             f"got {text!r}") from None
        return cls(index=index, count=count)

    @property
    def label(self) -> str:
        return f"{self.index}/{self.count}"

    def owns(self, spec: RunSpec) -> bool:
        return shard_of(spec, self.count) == self.index


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------
def expand_grid(algorithms: Sequence[str] | None = None,
                datasets: Sequence[str] | None = None,
                constraints: Sequence[str] = ("computation",),
                availability: str = "always_on",
                scale: str = "demo",
                seeds: Sequence[int] = (0,),
                partition_scheme: str = "auto",
                alpha: float = 0.5,
                num_clients: int | None = None,
                with_baseline: bool = True,
                scale_overrides: dict | None = None) -> list[RunSpec]:
    """Expand a (dataset x seed x algorithm) grid into unique RunSpecs.

    The constraint figures' grid, including the shared
    ``fedavg_smallest`` effectiveness baseline.  Duplicate cells (e.g. the
    baseline listed explicitly, or a repeated seed) are dropped
    order-preservingly by content hash.
    """
    names = list(algorithms) if algorithms else list(MHFL_ALGORITHMS)
    if with_baseline:
        names = list(dict.fromkeys(names + [BASELINE_ALGORITHM]))
    data = list(datasets) if datasets else list(DATASET_NAMES)
    constraint_spec = ConstraintSpec(constraints=tuple(constraints),
                                     availability=availability)
    return unique_specs(
        RunSpec(algorithm=name, dataset=dataset, constraints=constraint_spec,
                scale=scale, scale_overrides=dict(scale_overrides or {}),
                partition_scheme=partition_scheme, alpha=alpha,
                num_clients=num_clients, seed=seed)
        for dataset in data for seed in seeds for name in names)


# ----------------------------------------------------------------------
# Status (always derived, never stored)
# ----------------------------------------------------------------------
def _group_row(section: str, key: str, specs: Sequence[RunSpec],
               done: dict[str, bool]) -> dict:
    finished = [spec for spec in specs if done[spec.content_hash()]]
    return {
        "section": section,
        "key": key,
        "cells": len(specs),
        "done": len(finished),
        "pending": len(specs) - len(finished),
        "done_pct": (round(100.0 * len(finished) / len(specs), 1) if specs
                     else 100.0),
    }


def status_rows(specs: Sequence[RunSpec], cache: RunCache,
                shards: int | None = None) -> list[dict]:
    """Progress rows for ``repro status``.

    ``specs`` holds each cell once.  One row per algorithm, one row per
    shard of an N-way partition when ``shards`` asks for the multi-host
    view, and a total row.  A cell is done iff ``cache.contains`` it,
    probed once per cell at call time.
    """
    done = {spec.content_hash(): cache.contains(spec) for spec in specs}
    groups: dict[str, list[RunSpec]] = {}
    for spec in specs:
        groups.setdefault(spec.algorithm, []).append(spec)
    rows = [_group_row("algorithm", name, groups[name], done)
            for name in sorted(groups)]
    if shards is not None and shards > 1:
        for index in range(shards):
            shard = Shard(index, shards)
            rows.append(_group_row("shard", shard.label,
                                   [s for s in specs if shard.owns(s)], done))
    rows.append(_group_row("total", "all", specs, done))
    return rows

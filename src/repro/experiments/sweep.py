"""Resumable distributed sweeps: manifest + sharding over the run cache.

A sweep is nothing but a **manifest** — the expanded, content-hashed list
of :class:`~repro.experiments.spec.RunSpec` cells — plus the
content-addressed run cache.  There is deliberately no progress file:
per-cell status (``pending``/``done``) is *derived* from cache presence
(:meth:`~repro.experiments.cache.RunCache.contains`), never stored, so
status can never go stale, disagree with the artifacts, or be corrupted by
a crash.  Because every finished cell is one atomic cache entry, a
SIGKILLed sweep resumed with the same manifest is correct **by
construction**: done cells are skipped, unfinished ones re-run, and the
final cache bytes match an uninterrupted run (pinned by
``tests/test_sweep.py`` and the CI ``sweep-smoke`` job).

Multi-host sharding assigns cell ``s`` to shard
``int(s.content_hash(), 16) % N``.  Shards are pairwise disjoint and
jointly exhaustive by modular arithmetic, and the assignment is identical
across processes and hosts because the content hash is the sha256 of the
spec's canonical JSON — no per-process salt, no ``PYTHONHASHSEED``
dependence.  ``repro sweep run --shard K/N`` on N hosts sharing a cache
directory (or merging caches afterwards) covers the grid exactly once.

Three verbs, one mechanism::

    repro sweep create results/grid.manifest.json --scale demo ...
    repro sweep run    results/grid.manifest.json [--shard K/N] [--workers N]
    repro sweep status results/grid.manifest.json [--shards N]
    repro sweep resume results/grid.manifest.json   # literally `run` again

``resume`` *is* ``run`` re-invoked — there is no special resume path to
test separately, which is the point.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from ..algorithms import MHFL_ALGORITHMS
from ..constraints import ConstraintSpec
from ..data.registry import DATASET_NAMES
from ..fl.serialization import atomic_write_text
from ..telemetry.logs import get_logger
from ..telemetry.report import sidecar_wall_seconds
from .cache import DEFAULT_CACHE_DIR, RunCache
from .runner import BASELINE_ALGORITHM, RunResult, execute_specs
from .spec import RunSpec

__all__ = ["MANIFEST_VERSION", "Shard", "shard_of", "expand_grid",
           "SweepManifest", "CellStatus", "SweepStatus", "status_rows",
           "SweepRunReport", "run_sweep"]

#: bump when the serialised manifest layout changes incompatibly.
MANIFEST_VERSION = 1

_log = get_logger("sweep")


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

    The one grid builder: the constraint figures execute exactly these
    cells — including the shared ``fedavg_smallest`` effectiveness
    baseline — so a completed sweep makes rendering them pure cache hits.
    Duplicate cells (e.g. the baseline listed explicitly) are dropped
    order-preservingly by content hash.
    """
    names = list(algorithms) if algorithms else list(MHFL_ALGORITHMS)
    if with_baseline:
        names = list(dict.fromkeys(names + [BASELINE_ALGORITHM]))
    data = list(datasets) if datasets else list(DATASET_NAMES)
    constraint_spec = ConstraintSpec(constraints=tuple(constraints),
                                     availability=availability)
    grid = [RunSpec(algorithm=name, dataset=dataset,
                    constraints=constraint_spec, scale=scale,
                    scale_overrides=dict(scale_overrides or {}),
                    partition_scheme=partition_scheme, alpha=alpha,
                    num_clients=num_clients, seed=seed)
            for dataset in data for seed in seeds for name in names]
    seen: set[str] = set()
    unique: list[RunSpec] = []
    for spec in grid:
        digest = spec.content_hash()
        if digest not in seen:
            seen.add(digest)
            unique.append(spec)
    return unique


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepManifest:
    """The expanded spec list of one sweep, serialised to JSON.

    The manifest is **immutable input**, not mutable state: it records
    *which cells exist* and *which cache directory owns them*, and nothing
    else — no timestamps, no status, no worker assignments.  Everything
    dynamic is derived (status from cache presence, shards from content
    hashes), so any number of hosts can run the same manifest file
    concurrently without coordination beyond the shared/merged cache.
    """

    name: str
    specs: tuple[RunSpec, ...]
    cache_dir: str = str(DEFAULT_CACHE_DIR)

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        if not self.specs:
            raise ValueError("a sweep manifest needs at least one cell")
        counts = Counter(spec.content_hash() for spec in self.specs)
        duplicates = sorted(h for h, n in counts.items() if n > 1)
        if duplicates:
            raise ValueError(f"manifest contains duplicate cells (same "
                             f"content hash): {duplicates[:3]}"
                             f"{'...' if len(duplicates) > 3 else ''}")

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def cache(self) -> RunCache:
        return RunCache(self.cache_dir)

    def shard_specs(self, shard: Shard | None = None) -> list[RunSpec]:
        shard = shard if shard is not None else Shard()
        return [spec for spec in self.specs if shard.owns(spec)]

    def status(self, shard: Shard | None = None,
               cache: RunCache | None = None) -> "SweepStatus":
        """Derive the shard's per-cell status from cache presence, now."""
        shard = shard if shard is not None else Shard()
        cache = self.cache() if cache is None else cache
        cells = tuple(CellStatus(spec=spec, done=cache.contains(spec))
                      for spec in self.shard_specs(shard))
        return SweepStatus(manifest_name=self.name, shard=shard,
                           cells=cells)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"manifest_version": MANIFEST_VERSION,
                "name": self.name,
                "cache_dir": str(self.cache_dir),
                "specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepManifest":
        version = payload.get("manifest_version", MANIFEST_VERSION)
        if version != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version {version!r} "
                             f"(this build reads {MANIFEST_VERSION})")
        specs = tuple(RunSpec.from_dict(entry)
                      for entry in payload.get("specs", []))
        return cls(name=payload.get("name", "sweep"), specs=specs,
                   cache_dir=payload.get("cache_dir",
                                         str(DEFAULT_CACHE_DIR)))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    def save(self, path: str | Path) -> Path:
        """Write the manifest atomically; returns the path."""
        path = Path(path)
        atomic_write_text(path, self.to_json())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SweepManifest":
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as error:
            raise ValueError(f"cannot read manifest {path}: "
                             f"{error}") from error
        except ValueError as error:
            raise ValueError(f"manifest {path} is not valid JSON: "
                             f"{error}") from error
        return cls.from_dict(payload)


# ----------------------------------------------------------------------
# Status (always derived, never stored)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellStatus:
    """One cell's derived state: done iff its cache entry exists."""

    spec: RunSpec
    done: bool


@dataclass(frozen=True)
class SweepStatus:
    """Snapshot of one shard's progress, derived from cache presence.

    Recomputed on demand — deleting a cache entry flips exactly that cell
    back to pending on the next derivation; nothing needs repair.
    """

    manifest_name: str
    shard: Shard
    cells: tuple[CellStatus, ...]

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def done_count(self) -> int:
        return sum(1 for cell in self.cells if cell.done)

    @property
    def pending_count(self) -> int:
        return self.total - self.done_count


def _cell_wall_seconds(cache: RunCache, spec: RunSpec) -> float | None:
    """Wall-clock seconds the cell's telemetry sidecar recorded, if any.

    Sidecars are best-effort observability: cells populated by a
    telemetry-less invocation (or killed between the entry and sidecar
    writes) simply report no timing, never an error.
    """
    path = cache.telemetry_path_for(spec)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return sidecar_wall_seconds(payload)


def _group_row(section: str, key: str, cells: Sequence[CellStatus],
               cache: RunCache) -> dict:
    done = [cell for cell in cells if cell.done]
    wall = None
    for cell in done:
        seconds = _cell_wall_seconds(cache, cell.spec)
        if seconds is not None:
            wall = seconds if wall is None else wall + seconds
    row = {
        "section": section,
        "key": key,
        "cells": len(cells),
        "done": len(done),
        "pending": len(cells) - len(done),
        "done_pct": round(100.0 * len(done) / len(cells), 1) if cells
        else 100.0,
        "wall_s": round(wall, 3) if wall is not None else None,
        "cells_per_h": (round(len(done) / (wall / 3600.0), 1)
                        if wall else None),
    }
    return row


def status_rows(manifest: SweepManifest, shard: Shard | None = None, *,
                cache: RunCache | None = None,
                shards: int | None = None) -> list[dict]:
    """Progress rows for ``repro sweep status``.

    One row per algorithm within the selected shard, one row per shard of
    an N-way partition when ``shards`` asks for the multi-host view, and a
    total row.  Throughput (``wall_s``, ``cells_per_h``) comes from the
    ``<hash>.telemetry.json`` sidecars ``execute_spec`` serialises next to
    each cache entry; cells without a sidecar count toward progress but
    contribute no wall-clock.
    """
    shard = shard if shard is not None else Shard()
    cache = manifest.cache() if cache is None else cache
    status = manifest.status(shard, cache=cache)
    groups: dict[str, list[CellStatus]] = {}
    for cell in status.cells:
        groups.setdefault(cell.spec.algorithm, []).append(cell)
    rows = [_group_row("algorithm", name, groups[name], cache)
            for name in sorted(groups)]
    if shards is not None and shards > 1:
        for index in range(shards):
            sub = manifest.status(Shard(index, shards), cache=cache)
            rows.append(_group_row("shard", sub.shard.label, sub.cells,
                                   cache))
    rows.append(_group_row("total", status.shard.label, status.cells,
                           cache))
    return rows


# ----------------------------------------------------------------------
# Running (and resuming, which is the same thing)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepRunReport:
    """What one ``run_sweep`` invocation did to its shard."""

    manifest: str
    shard: str
    #: cells the shard owns.
    total: int
    #: cells already present in the cache before this invocation.
    already_done: int
    #: cells this invocation trained (cache misses it filled).
    executed: int
    #: pending cells that turned out cached at execution time (another
    #: host/process landed them between the status probe and the run).
    cache_served: int = 0

    @property
    def done(self) -> int:
        return self.already_done + self.executed + self.cache_served


def run_sweep(manifest: SweepManifest, shard: Shard | None = None, *,
              cache: RunCache | None = None, workers: int | None = None,
              on_cell: Callable[[RunSpec, RunResult], None] | None = None,
              ) -> SweepRunReport:
    """Run (or resume — same call) the shard's pending cells.

    Pending cells are derived from cache presence, then fanned out through
    :func:`~repro.experiments.runner.execute_specs` with bounded
    concurrency (``workers`` processes; each cell runs inline internally).
    Every finished cell is one atomic cache write, so killing this at any
    point loses at most the in-flight cells — re-invoking is the resume
    path, not a separate mechanism.  Progress is logged per cell through
    the ``repro.sweep`` logger (``--log-json`` makes it scrapeable).
    """
    shard = shard if shard is not None else Shard()
    cache = manifest.cache() if cache is None else cache
    specs = manifest.shard_specs(shard)
    pending = [spec for spec in specs if not cache.contains(spec)]
    already_done = len(specs) - len(pending)
    _log.info(
        "sweep %s shard %s: %d cells, %d done, %d pending",
        manifest.name, shard.label, len(specs), already_done, len(pending),
        extra={"sweep": manifest.name, "shard": shard.label,
               "total": len(specs), "sweep_done": already_done,
               "sweep_pending": len(pending)})
    progress = {"completed": 0, "served": 0}

    def _note(spec: RunSpec, result: RunResult) -> None:
        progress["completed"] += 1
        if result.from_cache:
            progress["served"] += 1
        _log.info(
            "cell %d/%d done: %s%s",
            already_done + progress["completed"], len(specs), spec.label,
            " (cache)" if result.from_cache else "",
            extra={"sweep": manifest.name, "shard": shard.label,
                   "spec": spec.content_hash(),
                   "from_cache": result.from_cache,
                   "sweep_done": already_done + progress["completed"],
                   "total": len(specs)})
        if on_cell is not None:
            on_cell(spec, result)

    execute_specs(pending, cache=cache, workers=workers, on_result=_note)
    return SweepRunReport(manifest=manifest.name, shard=shard.label,
                          total=len(specs), already_done=already_done,
                          executed=len(pending) - progress["served"],
                          cache_served=progress["served"])

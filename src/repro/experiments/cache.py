"""Content-addressed run cache.

Every executed :class:`~repro.experiments.spec.RunSpec` can persist its
:class:`~repro.fl.history.History` under ``<cache_dir>/<content_hash>.json``.
Re-running the same cell — the shared ``fedavg_smallest`` baseline across
figures, a re-rendered table, a second seed sweep — then costs a JSON read
instead of a simulation.  Entries store the full spec next to the history,
so a hit is verified against the spec (not just the hash) and every cached
artifact is self-describing.

The cache is **off by default for the library API** (importing repro and
calling :func:`~repro.experiments.runner.execute_spec` writes nothing to
disk); the CLI turns it on through the process-wide
:class:`~repro.experiments.runner.RunDefaults` (its ``cache`` field), and
callers can pass an explicit :class:`RunCache` (or ``None``) to any runner
entry point.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from ..fl.serialization import (atomic_write_text, history_from_dict,
                                history_to_dict)
from ..telemetry import runtime as telemetry
from ..telemetry.logs import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..fl.history import History
    from .spec import RunSpec

_log = get_logger("cache")

__all__ = ["RunCache", "CachedRun", "DEFAULT_CACHE_DIR"]

#: layout version of the on-disk entries; mismatches read as misses.
CACHE_VERSION = 1

#: where the CLI keeps run artifacts unless ``--cache-dir`` overrides it.
DEFAULT_CACHE_DIR = Path("results") / "cache"


class CachedRun:
    """One deserialised cache entry."""

    __slots__ = ("history", "num_classes", "level_distribution")

    def __init__(self, history: "History", num_classes: int | None,
                 level_distribution: dict | None = None):
        self.history = history
        self.num_classes = num_classes
        self.level_distribution = dict(level_distribution or {})


class RunCache:
    """Content-addressed store of finished runs.

    ``hits``/``misses`` count lookups in this process; the CLI reports them
    so "the second invocation trained nothing" is observable from outside.
    """

    def __init__(self, directory: str | Path = DEFAULT_CACHE_DIR):
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    def path_for(self, spec: "RunSpec") -> Path:
        return self.directory / f"{spec.content_hash()}.json"

    def _read(self, path: Path, spec: "RunSpec") -> dict | None:
        """The valid entry payload for ``spec`` at ``path``, or ``None``:
        unreadable, version-skewed, or hash-colliding entries (stored spec
        != requested spec) all read as absent rather than as errors."""
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (payload.get("cache_version") != CACHE_VERSION
                or payload.get("spec") != spec.to_dict()):
            return None
        return payload

    def contains(self, spec: "RunSpec") -> bool:
        """Whether a valid entry for ``spec`` exists, without counting it.

        This is the status probe behind ``repro status``: derived
        ``done``/``pending`` state must be able to scan a grid without
        skewing the ``hits``/``misses`` counters that make "the second run
        trained nothing" observable.  Validity matches :meth:`get` exactly.
        """
        return self._read(self.path_for(spec), spec) is not None

    def get(self, spec: "RunSpec") -> CachedRun | None:
        """The cached run for ``spec``, or ``None`` on a miss."""
        path = self.path_for(spec)
        payload = self._read(path, spec)
        if payload is None:
            self.misses += 1
            telemetry.inc("cache.misses")
            return None
        self.hits += 1
        telemetry.inc("cache.hits")
        _log.debug("cache hit %s", path.name)
        return CachedRun(history=history_from_dict(payload["history"]),
                         num_classes=payload.get("num_classes"),
                         level_distribution=payload.get("level_distribution"))

    def put(self, spec: "RunSpec", history: "History",
            num_classes: int | None = None,
            level_distribution: dict | None = None) -> Path:
        """Persist a finished run; returns the entry path.

        Concurrency-safe via :func:`atomic_write_text`: parallel sweep
        cells (multiple processes writing the shared cache) can never
        interleave bytes or expose a half-written entry; same-cell racers
        each publish a complete, identical file and the last rename wins.
        """
        path = self.path_for(spec)
        payload = {
            "cache_version": CACHE_VERSION,
            "spec": spec.to_dict(),
            "num_classes": num_classes,
            "level_distribution": dict(level_distribution or {}),
            "history": history_to_dict(history),
        }
        # Serialise before touching the filesystem: an unserialisable
        # payload then raises without ever creating a temp file.
        text = json.dumps(payload, indent=1)
        atomic_write_text(path, text)
        telemetry.inc("cache.puts")
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RunCache({str(self.directory)!r}, hits={self.hits}, "
                f"misses={self.misses})")


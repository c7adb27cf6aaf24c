"""Crash-safe checkpoint/resume for long federated runs.

A coordinator crash (OOM, preemption, power) should cost at most
``checkpoint_every`` rounds of work, not the run.  After each due round the
synchronous drivers snapshot everything the next round depends on — the
:class:`~repro.fl.history.History` so far, the algorithm's aggregate state
(global model slices, prototypes, personal models), the coordinator RNG
state, and the per-client participation counters that key dropout draws —
into one JSON file, written atomically (:func:`repro.fl.serialization.
atomic_write_text`, as every run-cache entry is) so a crash mid-write
leaves either the previous snapshot or the new one, never a torn file.

Resuming replays nothing: the restored run continues from ``next_round``
with bit-identical RNG and algorithm state, so its final History equals the
uninterrupted run's byte for byte (pinned by ``tests/test_faults.py`` and
the CI ``fault-smoke`` job).  Checkpointing is invisible in the History
itself — no events, no extras — which is what makes that equality exact.

Arrays ride the PR 5 JSON codecs (:func:`repro.fl.serialization.
encode_payload`), so any dtype round-trips bit-exactly.  Only the
synchronous paths checkpoint; the buffered policy has in-flight futures
that cannot be snapshotted and declines with a warning.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .history import History
from .serialization import (atomic_write_text, decode_payload,
                            encode_payload, history_from_dict,
                            history_to_dict)

__all__ = ["CheckpointConfig", "Checkpointer", "make_checkpointer",
           "CHECKPOINT_VERSION"]

#: layout version of the snapshot file; mismatches read as "no checkpoint".
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often a run snapshots itself."""

    #: snapshot file (one file per run; rewritten in place atomically).
    path: str | Path
    #: snapshot after every N-th completed round.
    every: int = 1
    #: pick up from an existing snapshot at ``path`` (a missing or
    #: unreadable snapshot silently starts fresh — crash-safety must not
    #: require the first run to special-case itself).
    resume: bool = False

    def __post_init__(self):
        if self.every < 1:
            raise ValueError("checkpoint every must be >= 1")


class Checkpointer:
    """Performs the snapshot/restore cycle for one run."""

    def __init__(self, config: CheckpointConfig):
        self.config = config
        self.path = Path(config.path)

    def due(self, round_index: int) -> bool:
        """True when the just-completed ``round_index`` should snapshot."""
        return (round_index + 1) % self.config.every == 0

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def save(self, algorithm, rng: np.random.Generator, history: History,
             *, next_round: int, sim_time_s: float,
             participation: dict[int, int] | None = None) -> Path:
        """Atomically write the run's full resumable state."""
        payload = {
            "checkpoint_version": CHECKPOINT_VERSION,
            "algorithm": algorithm.name,
            "dataset": algorithm.dataset_name,
            "next_round": int(next_round),
            "sim_time_s": float(sim_time_s),
            "rng_state": rng.bit_generator.state,
            "participation": {str(k): int(v)
                              for k, v in (participation or {}).items()},
            "history": history_to_dict(history),
            "algorithm_state": encode_payload(algorithm.checkpoint_state()),
        }
        # Serialise before touching the filesystem: an encoding failure
        # must not leave a temp file behind (or clobber the old snapshot).
        atomic_write_text(self.path, json.dumps(payload))
        return self.path

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------
    def load(self) -> dict | None:
        """The raw snapshot payload, or ``None`` when there is nothing
        usable (missing file, unreadable JSON, version skew)."""
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return None
        if payload.get("checkpoint_version") != CHECKPOINT_VERSION:
            return None
        return payload

    def maybe_resume(self, algorithm, rng: np.random.Generator):
        """Restore ``algorithm``/``rng`` from the snapshot when resuming.

        Returns ``(history, next_round, sim_time_s, participation)`` on a
        successful restore, or ``None`` to start fresh (not resuming, or
        no usable snapshot).  A snapshot for a *different* run — another
        algorithm or dataset — raises instead of silently training the
        wrong model from the wrong state.
        """
        if not self.config.resume:
            return None
        payload = self.load()
        if payload is None:
            return None
        if (payload["algorithm"] != algorithm.name
                or payload["dataset"] != algorithm.dataset_name):
            raise ValueError(
                f"checkpoint {self.path} belongs to "
                f"{payload['algorithm']}/{payload['dataset']}, not "
                f"{algorithm.name}/{algorithm.dataset_name}")
        rng.bit_generator.state = payload["rng_state"]
        algorithm.restore_checkpoint_state(
            decode_payload(payload["algorithm_state"]))
        history = history_from_dict(payload["history"])
        participation = {int(k): int(v)
                         for k, v in payload.get("participation", {}).items()}
        return (history, int(payload["next_round"]),
                float(payload["sim_time_s"]), participation)

    def clear(self) -> None:
        """Remove the snapshot (the run finished; nothing to resume)."""
        with contextlib.suppress(OSError):
            self.path.unlink()


def make_checkpointer(config) -> Checkpointer | None:
    """A :class:`Checkpointer` for ``config`` (``None`` passes through,
    and a bare path becomes a default-cadence config)."""
    if config is None:
        return None
    if not isinstance(config, CheckpointConfig):
        config = CheckpointConfig(path=config)
    return Checkpointer(config)

"""Two-tier correctness check of a repetition's ``History`` against goldens.

``goldens.json`` holds, per workload and ``RunSpec`` seed, the spec's pinned
content hash, the sha256 of ``History.to_json()``, the exact work counters of
the cell and a structural summary.  A repetition is checked in two tiers:

* ``exact`` — the sha256 matches: byte-identical History;
* ``structural`` — same record count, identical ``sim_time_s`` /
  ``round_time_s`` sequences and dropped / stale / quarantined / event-kind
  counts (none depend on training arithmetic), per-round ``train_loss``
  within rtol 1e-2 and accuracies within +-0.05.  Still correct, but the
  run reports ``check.history_exact = 0``: a change that legitimately
  reorders float32 reductions stays landable, one that claims byte identity
  must show ``check.history_exact = 1``.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

__all__ = ["GOLDENS_PATH", "load", "sha256", "structure", "check",
           "LOSS_RTOL", "ACCURACY_ATOL"]

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"
LOSS_RTOL = 1e-2
ACCURACY_ATOL = 0.05


def load(path: Path = GOLDENS_PATH) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def dump(table: dict, path: Path = GOLDENS_PATH) -> None:
    """Write ``{workload: {spec seed: cell}}`` with one line per cell, so a
    regenerated golden shows up as one changed line."""
    blocks = []
    for workload, cells in table.items():
        rows = ",\n".join(
            f"  {json.dumps(seed)}: "
            f"{json.dumps(cell, separators=(',', ':'), sort_keys=True)}"
            for seed, cell in cells.items())
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def sha256(history_json: str) -> str:
    return hashlib.sha256(history_json.encode("utf-8")).hexdigest()


def structure(history) -> dict:
    """The part of a History the structural tier compares."""
    records = history.records
    events = Counter(event.get("type") for record in records
                     for event in record.events)
    return {
        "records": len(records),
        "sim_time_s": [r.sim_time_s for r in records],
        "round_time_s": [r.round_time_s for r in records],
        "dropped": dict(sorted(history.dropped_counts().items())),
        "stale_updates": history.stale_update_count(),
        "event_kinds": dict(sorted(events.items())),
        "train_loss": [r.train_loss for r in records],
        "global_accuracy": [r.global_accuracy for r in records],
        "device_accuracies": list(history.final_device_accuracies),
    }


def _close_accuracies(got, want) -> bool:
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if (a is None) != (b is None):
            return False
        if a is not None and abs(a - b) > ACCURACY_ATOL:
            return False
    return True


def structural_mismatch(got: dict, want: dict) -> str | None:
    """Why ``got`` fails the structural tier against ``want`` (or None)."""
    for key in ("records", "sim_time_s", "round_time_s", "dropped",
                "stale_updates", "event_kinds"):
        if got[key] != want[key]:
            return f"{key} differs"
    for a, b in zip(got["train_loss"], want["train_loss"]):
        if not math.isclose(a, b, rel_tol=LOSS_RTOL, abs_tol=1e-6):
            return f"train_loss {a!r} vs {b!r} beyond rtol {LOSS_RTOL}"
    for key in ("global_accuracy", "device_accuracies"):
        if not _close_accuracies(got[key], want[key]):
            return f"{key} beyond +-{ACCURACY_ATOL}"
    return None


def check(history, history_json: str, golden: dict | None
          ) -> tuple[str, str | None]:
    """``(tier, detail)``: tier is ``exact``, ``structural``, ``mismatch``
    or ``no-golden`` (determinism check only)."""
    if golden is None:
        return "no-golden", None
    if sha256(history_json) == golden["sha256"]:
        return "exact", None
    problem = structural_mismatch(structure(history), golden["structure"])
    if problem is None:
        return "structural", "History differs from the golden in float digits"
    return "mismatch", problem

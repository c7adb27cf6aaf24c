"""Fault-injection comparison: algorithm robustness under failing fleets.

The paper evaluates MHFL algorithms on healthy fleets; this artifact adds
the reliability axis.  Each algorithm runs the same constrained scenario
under a set of deterministic fault profiles (:mod:`repro.fl.faults`) —
client crashes before upload, straggler slowdowns, corrupted updates —
and reports the accuracy delta against the clean run plus the defense
counters (crashed dispatches, quarantined updates, deadline drops).

Fault schedules derive from ``(run_seed, round, client)`` on a salted
stream, so every cell is bit-reproducible at any worker count and the
clean profile is byte-identical to the ordinary healthy run (it shares
the content hash, hence the cache entry).
"""

from __future__ import annotations

from ..constraints import ConstraintSpec
from .registry import register_artifact
from .runner import execute_spec
from .spec import RunSpec

__all__ = ["run", "PROFILES"]

#: named fault profiles: :class:`~repro.fl.faults.FaultSpec` kwargs.
PROFILES: dict[str, dict] = {
    "clean": {},
    "crash": {"crash_prob": 0.15},
    "straggler": {"straggler_prob": 0.25, "straggler_factor": 4.0},
    "corrupt": {"corrupt_prob": 0.15, "corrupt_mode": "nan"},
    "flaky": {"crash_prob": 0.08, "straggler_prob": 0.15,
              "corrupt_prob": 0.08, "corrupt_mode": "scale",
              "corrupt_factor": 1e6},
}


@register_artifact("fault_compare",
                   title="Fault injection: accuracy and defenses under "
                         "crash / straggler / corrupt-update profiles")
def run(scale: str = "demo", seed: int = 0, dataset: str = "harbox",
        algorithms: list[str] | None = None,
        profiles: list[str] | None = None,
        case: tuple[str, ...] = ("computation",),
        scale_overrides: dict | None = None) -> list[dict]:
    algorithms = algorithms or ["sheterofl", "fedproto"]
    names = list(profiles or PROFILES)
    unknown = set(names) - set(PROFILES)
    if unknown:
        raise ValueError(f"unknown fault profiles {sorted(unknown)}; "
                         f"known: {sorted(PROFILES)}")

    rows = []
    for name in algorithms:
        clean_acc = None
        for profile in names:
            spec = RunSpec(
                algorithm=name, dataset=dataset,
                constraints=ConstraintSpec(constraints=case,
                                           faults=PROFILES[profile]),
                scale=scale, scale_overrides=scale_overrides or {},
                seed=seed)
            history = execute_spec(spec).history
            dropped = history.dropped_counts()
            crashed = dropped.pop("crash", 0)
            quarantined = dropped.pop("quarantined", 0)
            final = history.final_accuracy
            if profile == "clean":
                clean_acc = final
            rows.append({
                "profile": profile, "algorithm": name,
                "rounds": len(history.records),
                "final_acc": round(final, 4),
                "delta_acc": (None if clean_acc is None
                              else round(final - clean_acc, 4)),
                "crashed": crashed,
                "quarantined": quarantined,
                "dropped_other": sum(dropped.values()),
                "total_s": round(history.total_sim_time_s, 1),
            })
    return rows

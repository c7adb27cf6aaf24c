"""Fault-injection comparison: algorithm robustness under failing fleets.

The paper evaluates MHFL algorithms on healthy fleets; this artifact adds
the reliability axis.  Each algorithm runs the same constrained scenario
under a set of deterministic fault profiles (:mod:`repro.fl.faults`) —
client crashes before upload, straggler slowdowns, corrupted updates —
and reports the accuracy delta against the clean run, the final training
loss, and the defense counters (crashed dispatches, quarantined updates,
deadline drops).  Validation judges no magnitude, so ``flaky``'s
``scale``-corrupted uploads are aggregated, not quarantined: one accepted
1e6-scaled upload poisons the global model, which ``final_loss`` shows
(the SHeteroFL ``flaky`` cell at eight smoke rounds ends near 1e11, its
clean cell near 1.2) where ``delta_acc`` alone reads a few points.  The
numpy overflow warnings such a run prints on stderr report that poisoned
model and are left visible.

Fault schedules derive from ``(run_seed, round, client)`` on a salted
stream, so every cell is bit-reproducible at any worker count and the
clean profile is byte-identical to the ordinary healthy run (it shares
the content hash, hence the cache entry).

At ``--scale smoke`` the few sampled dispatches draw no crash and no
corrupted upload, so the defense counters of every default cell read 0;
eight rounds (``--rounds 8``) of the SHeteroFL cell crash and quarantine
(``tests/test_faults.py::TestFaultCompareArtifact``).
"""

from __future__ import annotations

from ..constraints import ConstraintSpec
from .registry import register_artifact
from .spec import RunSpec

__all__ = ["specs", "rows", "PROFILES"]

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


def _cells(algorithms: list[str] | None,
           profiles: list[str] | None) -> list[tuple[str, str]]:
    """(algorithm, profile) pairs, algorithm-major, in the order both
    ``specs`` and ``rows`` walk them."""
    names = list(profiles or PROFILES)
    unknown = set(names) - set(PROFILES)
    if unknown:
        raise ValueError(f"unknown fault profiles {sorted(unknown)}; "
                         f"known: {sorted(PROFILES)}")
    return [(name, profile)
            for name in (algorithms or ["sheterofl", "fedproto"])
            for profile in names]


def specs(scale: str = "demo", seed: int = 0, dataset: str = "harbox",
          algorithms: list[str] | None = None,
          profiles: list[str] | None = None,
          case: tuple[str, ...] = ("computation",),
          scale_overrides: dict | None = None) -> list[RunSpec]:
    return [RunSpec(algorithm=name, dataset=dataset,
                    constraints=ConstraintSpec(constraints=case,
                                               faults=PROFILES[profile]),
                    scale=scale, scale_overrides=scale_overrides or {},
                    seed=seed)
            for name, profile in _cells(algorithms, profiles)]


@register_artifact("fault_compare",
                   title="Fault injection: accuracy and defenses under "
                         "crash / straggler / corrupt-update profiles",
                   specs=specs)
def rows(results, algorithms: list[str] | None = None,
         profiles: list[str] | None = None, **_) -> list[dict]:
    out = []
    clean_acc = {}
    for (name, profile), result in zip(_cells(algorithms, profiles),
                                       results):
        history = result.history
        dropped = history.dropped_counts()
        crashed = dropped.pop("crash", 0)
        quarantined = dropped.pop("quarantined", 0)
        final = history.final_accuracy
        if profile == "clean":
            clean_acc[name] = final
        out.append({
            "profile": profile, "algorithm": name,
            "rounds": len(history.records),
            "final_acc": round(final, 4),
            "delta_acc": (None if name not in clean_acc
                          else round(final - clean_acc[name], 4)),
            "final_loss": float(f"{history.records[-1].train_loss:.4g}"),
            "crashed": crashed,
            "quarantined": quarantined,
            "dropped_other": sum(dropped.values()),
            "total_s": round(history.total_sim_time_s, 1),
        })
    return out

"""Async-execution comparison: sync vs deadline vs buffered aggregation.

The paper evaluates MHFL algorithms under resource constraints but keeps
the idealized synchronous loop; this artifact adds the systems axis.  For
each constraint case it runs the same algorithm under three execution
policies on the same constrained fleet and availability scenario:

* ``sync``     — wait for the straggler (the legacy loop's semantics);
* ``deadline`` — synchronous with a fleet-quantile round deadline plus
  over-selection: slow uploads are dropped, rounds are shorter;
* ``buffered`` — FedBuff-style semi-async buffered aggregation with
  staleness-discounted updates.

and reports time-to-accuracy on the simulated clock — the metric where
straggler handling actually shows up.  Availability defaults to seeded
random mid-round dropout so all three policies face the same unreliable
fleet; pass ``availability="markov"``/``"diurnal"`` for churn studies.
"""

from __future__ import annotations

from ..constraints import ConstraintSpec
from .registry import register_artifact
from .runner import resolve_target_accuracy
from .spec import RunSpec
from .variants import DEADLINE_TAG, buffered_tag

__all__ = ["specs", "rows", "MODES", "CASES"]

MODES = ("sync", "deadline", "buffered")

CASES: list[tuple[str, ...]] = [
    ("computation",),
    ("communication",),
    ("memory",),
]


def specs(scale: str = "demo", seed: int = 0, dataset: str = "harbox",
          algorithms: list[str] | None = None,
          cases: list[tuple[str, ...]] | None = None,
          availability: str = "dropout",
          availability_kwargs: dict | None = None,
          scale_overrides: dict | None = None) -> list[RunSpec]:
    """One (sync, deadline, buffered) triple per case and algorithm.  The
    deadline and buffered cells are tagged variants
    (:mod:`repro.experiments.variants`): their blocks derive from the
    built fleet."""
    if availability_kwargs is None:
        availability_kwargs = {"prob": 0.15} if availability == "dropout" \
            else {}
    cells = []
    for case in (cases or CASES):
        constraints = ConstraintSpec(constraints=case,
                                     availability=availability,
                                     availability_kwargs=availability_kwargs)
        for name in (algorithms or ["sheterofl", "depthfl"]):
            base = RunSpec(algorithm=name, dataset=dataset,
                           constraints=constraints, scale=scale,
                           scale_overrides=scale_overrides or {}, seed=seed)
            cells += [base.replace(execution=constraints.execution_config()),
                      base.replace(tag=DEADLINE_TAG),
                      base.replace(tag=buffered_tag(base))]
    return cells


@register_artifact("async_compare",
                   title="Async execution: sync vs deadline vs buffered "
                         "(time-to-accuracy, simulated clock)",
                   specs=specs)
def rows(results, **_) -> list[dict]:
    out = []
    for i in range(0, len(results), len(MODES)):
        triple = results[i:i + len(MODES)]
        target = resolve_target_accuracy([r.history for r in triple],
                                         triple[0].num_classes)
        for mode, result in zip(MODES, triple):
            history = result.history
            tta = history.time_to_accuracy(target)
            out.append({
                "constraints": result.spec.constraints.label,
                "algorithm": result.spec.algorithm,
                "mode": mode, "rounds": len(history.records),
                "final_acc": round(history.final_accuracy, 4),
                "target_acc": round(target, 4),
                "tta_s": None if tta is None else round(tta, 1),
                "total_s": round(history.total_sim_time_s, 1),
                "dropped": sum(history.dropped_counts().values()),
                "stale": history.stale_update_count(),
            })
    return out

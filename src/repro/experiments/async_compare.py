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
from .runner import execute_spec, resolve_target_accuracy
from .scales import resolve_scale
from .spec import RunSpec

__all__ = ["rows", "MODES", "CASES"]

MODES = ("sync", "deadline", "buffered")

CASES: list[tuple[str, ...]] = [
    ("computation",),
    ("communication",),
    ("memory",),
]

#: fleet quantile of the full round time used as the deadline (drops the
#: slowest ~20% of the fleet when they are sampled).
DEADLINE_QUANTILE = 0.8
#: extra clients dispatched per deadline round to hedge the drops.
OVER_SELECT = 0.25


def _mode_factories(spec: ConstraintSpec, sample_ratio: float) -> dict:
    """``execution_factory`` per non-sync mode: the deadline and buffer
    sizes are derived from the *built* scenario, so the factory runs only
    on cache misses — a fully cached cell never rebuilds the fleet."""

    def deadline(scenario):
        value = scenario.algorithm.fleet_round_time_quantile(
            DEADLINE_QUANTILE)
        return spec.execution_config(deadline_s=value,
                                     over_select=OVER_SELECT)

    def buffered(scenario):
        target = max(1, int(round(
            scenario.algorithm.num_clients * sample_ratio)))
        return spec.execution_config(policy="buffered",
                                     buffer_size=max(1, target // 2),
                                     max_concurrency=target)

    return {"deadline": deadline, "buffered": buffered}


@register_artifact("async_compare",
                   title="Async execution: sync vs deadline vs buffered "
                         "(time-to-accuracy, simulated clock)")
def rows(results, scale: str = "demo", seed: int = 0,
         dataset: str = "harbox", algorithms: list[str] | None = None,
         cases: list[tuple[str, ...]] | None = None,
         availability: str = "dropout",
         availability_kwargs: dict | None = None,
         scale_overrides: dict | None = None) -> list[dict]:
    algorithms = algorithms or ["sheterofl", "depthfl"]
    if availability_kwargs is None:
        availability_kwargs = {"prob": 0.15} if availability == "dropout" \
            else {}
    sample_ratio = resolve_scale(scale, scale_overrides).sample_ratio

    out = []
    for case in (cases or CASES):
        spec = ConstraintSpec(constraints=case, availability=availability,
                              availability_kwargs=availability_kwargs)
        factories = _mode_factories(spec, sample_ratio)
        for name in algorithms:
            base = RunSpec(algorithm=name, dataset=dataset, constraints=spec,
                           scale=scale, scale_overrides=scale_overrides or {},
                           seed=seed)
            results = {"sync": execute_spec(
                base.replace(execution=spec.execution_config()))}
            #: tags pin the derivation constants so derived configs cache
            #: under their own content hash.
            results["deadline"] = execute_spec(
                base.replace(tag=f"async:deadline:q{DEADLINE_QUANTILE}"
                                 f":os{OVER_SELECT}"),
                execution_factory=factories["deadline"])
            results["buffered"] = execute_spec(
                base.replace(tag=f"async:buffered:sr{sample_ratio}"),
                execution_factory=factories["buffered"])
            num_classes = results["sync"].num_classes
            target = resolve_target_accuracy(
                [r.history for r in results.values()], num_classes)
            for mode in MODES:
                history = results[mode].history
                dropped = history.dropped_counts()
                tta = history.time_to_accuracy(target)
                out.append({
                    "constraints": spec.label, "algorithm": name,
                    "mode": mode, "rounds": len(history.records),
                    "final_acc": round(history.final_accuracy, 4),
                    "target_acc": round(target, 4),
                    "tta_s": None if tta is None else round(tta, 1),
                    "total_s": round(history.total_sim_time_s, 1),
                    "dropped": sum(dropped.values()),
                    "stale": history.stale_update_count(),
                })
    return out

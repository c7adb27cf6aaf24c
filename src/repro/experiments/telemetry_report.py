"""Telemetry report: profile one benchmark cell end to end.

Runs a single :class:`~repro.experiments.spec.RunSpec` (default: the
fig4 SHeteroFL/CIFAR-100 computation-limited cell at smoke scale) under a
telemetry session and renders the collected observations — cache
statistics, executor/aggregation counters, span timings, per-round
simulated-vs-wall clock — as the artifact's rows.  Telemetry is
observation-only, so the profiled run's History is byte-identical to an
unprofiled one; this artifact only changes what gets *reported*.

For whole-figure profiles (every cell of fig4, seed lists) use the CLI
verb instead: ``python -m repro profile <artifact> [scale]``, which
additionally writes a Perfetto-loadable Chrome trace.
"""

from __future__ import annotations

from ..constraints import ConstraintSpec
from ..telemetry.logs import get_logger
from ..telemetry.report import report_rows
from ..telemetry.runtime import telemetry_session
from .registry import register_artifact
from .runner import DEFAULT, execute_spec
from .spec import RunSpec

__all__ = ["rows"]

_log = get_logger("telemetry_report")


@register_artifact("telemetry_report",
                   title="Runtime telemetry report for one benchmark cell")
def rows(results, scale: str = "smoke", seed: int = 0,
         dataset: str = "cifar100", algorithm: str = "sheterofl",
         availability: str = "always_on",
         scale_overrides: dict | None = None) -> list[dict]:
    spec = RunSpec(algorithm=algorithm, dataset=dataset,
                   constraints=ConstraintSpec(constraints=("computation",),
                                              availability=availability),
                   scale=scale, seed=seed,
                   scale_overrides=dict(scale_overrides or {}))
    meta = {"artifact": "telemetry_report", "scale": scale}
    with telemetry_session(meta=meta) as session:
        result = execute_spec(spec, cache=DEFAULT)
        if result.from_cache:
            # A cache hit observes nothing but the lookup; re-execute
            # uncached so the report has real execution timings.  The
            # histories are identical either way (telemetry is
            # observation-only and the cache is content-addressed).
            _log.info("cell %s was cache-served; re-executing uncached "
                      "for timings", spec.label)
            execute_spec(spec, cache=None)
    return report_rows(session)

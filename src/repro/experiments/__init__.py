"""Per-table / per-figure reproduction harnesses.

Each artifact module exposes ``run(scale=..., seed=...) -> list[dict]``
registered under a stable name (:mod:`repro.experiments.registry`); the
unified CLI drives them::

    python -m repro list
    python -m repro run fig4 --scale demo --seeds 0,1,2 --out json

Runs are described declaratively by :class:`~repro.experiments.spec.RunSpec`
and cached content-addressed (:mod:`repro.experiments.cache`), so repeated
cells — the shared FedAvg-smallest baseline, re-rendered tables — are
computed once.
"""

from .cache import RunCache
from .mapping import base_arch_for, build_base_model
from .registry import (Artifact, all_artifacts, get_artifact,
                       register_artifact)
from .reporting import (aggregate_seed_rows, format_radar, format_table,
                        rows_to_csv, rows_to_json, write_rows)
from .runner import (RunDefaults, RunResult, build_worker_scenario,
                     execute_spec, execute_specs, prepare_scenario,
                     resolve_target_accuracy, run_defaults,
                     summarize_results)
from .scales import SCALES, ExperimentScale, get_scale, resolve_scale
from .spec import RunSpec
from .sweep import (CellStatus, Shard, SweepManifest, SweepRunReport,
                    SweepStatus, expand_grid, run_sweep, shard_of,
                    status_rows)

# Figure/table modules (repro.experiments.table1, .fig4, ...) are imported
# lazily by name — importing them here would shadow `python -m` execution.
__all__ = [
    "base_arch_for", "build_base_model",
    "aggregate_seed_rows", "format_radar", "format_table",
    "rows_to_csv", "rows_to_json", "write_rows",
    "RunResult", "RunSpec", "execute_spec", "execute_specs",
    "prepare_scenario", "build_worker_scenario",
    "resolve_target_accuracy", "summarize_results",
    "RunDefaults", "run_defaults",
    "RunCache",
    "Artifact", "all_artifacts", "get_artifact",
    "register_artifact",
    "SCALES", "ExperimentScale", "get_scale", "resolve_scale",
    "SweepManifest", "SweepStatus", "SweepRunReport", "CellStatus",
    "Shard", "shard_of", "expand_grid", "run_sweep", "status_rows",
]

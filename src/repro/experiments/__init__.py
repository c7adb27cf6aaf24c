"""Per-table / per-figure reproduction harnesses.

Each artifact module registers, under a stable name, the cells it lists
(``specs(**kwargs) -> list[RunSpec]``) and the rows it builds from their
results (``rows(results, **kwargs) -> list[dict]``); see
:mod:`repro.experiments.registry`.  The unified CLI drives them::

    python -m repro list
    python -m repro run fig4 --scale demo --seeds 0,1,2 --out json
    python -m repro status fig4 fig5 --scale demo --shards 2

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
from .runner import (RunDefaults, RunResult, execute_spec, execute_specs,
                     prepare_scenario, resolve_target_accuracy,
                     run_defaults, summarize_results)
from .scales import SCALES, ExperimentScale, get_scale, resolve_scale
from .spec import RunSpec, unique_specs
from .sweep import Shard, expand_grid, shard_of, status_rows

# Figure/table modules (repro.experiments.table1, .fig4, ...) are imported
# lazily by name — importing them here would shadow `python -m` execution.
__all__ = [
    "base_arch_for", "build_base_model",
    "aggregate_seed_rows", "format_radar", "format_table",
    "rows_to_csv", "rows_to_json", "write_rows",
    "RunResult", "RunSpec", "unique_specs", "execute_spec",
    "execute_specs",
    "prepare_scenario",
    "resolve_target_accuracy", "summarize_results",
    "RunDefaults", "run_defaults",
    "RunCache",
    "Artifact", "all_artifacts", "get_artifact",
    "register_artifact",
    "SCALES", "ExperimentScale", "get_scale", "resolve_scale",
    "Shard", "shard_of", "expand_grid", "status_rows",
]

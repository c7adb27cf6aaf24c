"""Experiment runner: declarative RunSpec execution with a run cache.

:func:`execute_spec` is the single execution path — it resolves a
:class:`~repro.experiments.spec.RunSpec` into a built scenario, runs the
simulation, and (when a :class:`~repro.experiments.cache.RunCache` is
active) serves repeated cells from disk instead of recomputing them.
:func:`execute_specs` runs a list of them (an artifact's grid, see
:mod:`repro.experiments.registry`, or any plain list), and
:func:`summarize_results` turns one dataset's results into the rows the
constraint figures print: the four PracMHBench metrics per algorithm and
seed, collapsed across seeds by
:func:`~repro.experiments.reporting.aggregate_seed_rows`.  Everything
scale-dependent comes from :mod:`repro.experiments.scales`.

Parallelism enters at two granularities, both with byte-identical results:

* **within a cell** — ``RunSpec.workers`` (or the process default, which
  the CLI's ``--workers`` sets) hands client training to a process pool
  via :mod:`repro.fl.executor`, whose workers run the cell's one built
  scenario (the pool hands them the coordinator's algorithm);
* **across cells** — :func:`execute_specs` fans independent cells out
  over a process pool; each worker writes the shared run cache through
  atomic renames and hands its cell's telemetry back to the coordinator's
  session (one collector per invocation, whatever the worker count), and
  cells run inline internally so the machine is never oversubscribed.

Run *mechanics* — parallelism, checkpointing, the run cache — resolve in
exactly one place: a spec's own ``workers`` and an explicit ``cache``
argument win, the one process-wide :class:`RunDefaults` (installed with
:func:`run_defaults`) fills the rest, and :func:`execute_spec` hands
:func:`~repro.fl.simulation.run_simulation` a fully explicit
:class:`~repro.fl.simulation.SimulationConfig`.  Nothing below the runner
reads process-global state.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace as _dc_replace
from pathlib import Path
from typing import Sequence

from ..algorithms import get_algorithm
from ..constraints import BuiltScenario, build_scenario
from ..data.dataset import FederatedDataset
from ..data.registry import load_dataset
from ..fl.checkpoint import CheckpointConfig
from ..fl.client import LocalTrainConfig
from ..fl.history import History
from ..fl.sanitizers import check_range
from ..fl.serialization import history_from_dict, history_to_dict
from ..fl.simulation import SimulationConfig, run_simulation
from ..telemetry import runtime as telemetry
from ..telemetry.logs import get_logger
from .cache import RunCache
from .mapping import build_base_model
from .reporting import aggregate_seed_rows
from .scales import ExperimentScale
from .spec import RunSpec
from .variants import variant_change, variant_execution

__all__ = ["RunResult", "execute_spec", "execute_specs", "prepare_scenario",
           "summarize_results",
           "resolve_target_accuracy", "DEFAULT", "RunDefaults",
           "run_defaults", "DEFAULT_CHECKPOINT_DIR"]

_log = get_logger("runner")


class _Default:
    """Sentinel: "use the installed :class:`RunDefaults`' ``cache``"
    (which may be None)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<use default cache>"


DEFAULT = _Default()


# ----------------------------------------------------------------------
# Process-wide run defaults (the CLI's --workers/--checkpoint-*/--cache-dir)
# ----------------------------------------------------------------------
#: where the CLI keeps run snapshots unless ``--checkpoint-dir`` overrides.
DEFAULT_CHECKPOINT_DIR = Path("results") / "checkpoints"


@dataclass(frozen=True)
class RunDefaults:
    """How runs execute when their spec doesn't say.  Mechanics only:
    results are byte-identical at any setting, so none of it is hashed."""

    #: client-work parallelism (and grid fan-out) for specs whose own
    #: ``workers`` is ``None``.
    workers: int = 1
    #: crash-safety: snapshot every N-th round (``None`` = off) to
    #: ``<checkpoint_dir>/<content_hash>.ckpt.json`` — one file per spec,
    #: so a grid's cells never collide and ``resume`` finds each cell's
    #: own snapshot.
    checkpoint_every: int | None = None
    checkpoint_dir: str | Path = DEFAULT_CHECKPOINT_DIR
    resume: bool = False
    #: run cache for calls that pass ``cache=DEFAULT``; ``None`` = caching
    #: off (the library default: importing repro writes nothing to disk).
    cache: RunCache | None = None

    def __post_init__(self):
        check_range("workers", self.workers, "[1, inf)")
        if self.checkpoint_every is not None:
            check_range("checkpoint_every", self.checkpoint_every,
                        "[1, inf)")


_DEFAULTS = RunDefaults()


@contextmanager
def run_defaults(defaults: RunDefaults):
    """Install ``defaults`` process-wide for the duration of the block
    (yields them); the previous defaults come back on exit."""
    global _DEFAULTS
    previous = _DEFAULTS
    _DEFAULTS = defaults
    try:
        yield defaults
    finally:
        _DEFAULTS = previous


def _resolve_cache(cache) -> RunCache | None:
    return _DEFAULTS.cache if isinstance(cache, _Default) else cache


def _resolve_workers(workers: int | None) -> int:
    return _DEFAULTS.workers if workers is None else workers


def _spec_checkpoint(spec: RunSpec) -> CheckpointConfig | None:
    """The per-spec checkpoint config under the process defaults."""
    if _DEFAULTS.checkpoint_every is None:
        return None
    path = Path(_DEFAULTS.checkpoint_dir) / f"{spec.content_hash()}.ckpt.json"
    return CheckpointConfig(path=path, every=_DEFAULTS.checkpoint_every,
                            resume=_DEFAULTS.resume)


@dataclass
class RunResult:
    """One algorithm's constrained run.

    ``scenario`` is ``None`` when the run was served from the cache — the
    history, ``num_classes`` and ``level_distribution`` survive the round
    trip; live scenario objects (models, clients) do not.  A live result
    pins what the run produced — the global vector, base model, clients,
    History and deployed personal state — but not its working set, which
    ``run_simulation`` released (level skeletons and upload maps rebuild
    on next use).
    """

    history: History
    scenario: BuiltScenario | None
    num_classes: int | None = None
    spec: RunSpec | None = None
    from_cache: bool = False
    #: level distribution recovered from a cache entry (live runs read it
    #: off the scenario instead).
    _cached_levels: dict = field(default_factory=dict, repr=False)

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy

    def level_distribution(self) -> dict[str, int]:
        if self.scenario is not None:
            return self.scenario.level_distribution()
        return dict(self._cached_levels)


def _train_config(scale: ExperimentScale) -> LocalTrainConfig:
    return LocalTrainConfig(batch_size=scale.batch_size,
                            local_epochs=scale.local_epochs,
                            max_batches=scale.max_batches)


#: per-process dataset memo: figures and sweeps run many (algorithm ×
#: constraint) cells over few (dataset, seed, sizes) keys, and pool workers
#: rebuild a scenario per cell.  Datasets are read-only once built.
_DATASETS: dict[str, FederatedDataset] = {}
_DATASET_LIMIT = 4


def _load_dataset(name: str, seed: int = 0, **kwargs) -> FederatedDataset:
    key = json.dumps([name, seed, kwargs], sort_keys=True, default=str)
    dataset = _DATASETS.get(key)
    if dataset is None:
        while len(_DATASETS) >= _DATASET_LIMIT:
            # Oldest-first eviction (insertion order), one entry at a time.
            # Entries are rebuilt deterministically from (name, seed,
            # kwargs), so cache state changes cost, never results.
            _DATASETS.pop(next(iter(_DATASETS)))
        dataset = load_dataset(name, seed=seed, **kwargs)
        _DATASETS[key] = dataset
    return dataset


def prepare_scenario(spec: RunSpec) -> tuple[BuiltScenario, FederatedDataset]:
    """Build (but do not run) the scenario a spec describes.

    The build order — dataset, base model, scenario — is fixed, so specs
    reproduce pre-RunSpec runs bit-for-bit.  A ``spec.tag`` the variant
    table (:mod:`repro.experiments.variants`) does not know is refused
    before the dataset is built; one naming an algorithm change has it
    applied to the built algorithm.  The dataset comes from the
    per-process memo (``_load_dataset``).
    """
    change = variant_change(spec)
    scale = spec.resolved_scale()
    dataset = _load_dataset(spec.dataset, seed=spec.seed,
                            **scale.kwargs_for(spec.dataset))
    level = get_algorithm(spec.algorithm).level
    model_level = "width" if level == "homogeneous" else level
    base_model = build_base_model(dataset, model_level, seed=spec.seed)
    clients = spec.num_clients or scale.clients_for(spec.dataset)
    scenario = build_scenario(
        spec.algorithm, base_model, dataset, clients, spec.constraints,
        train_config=_train_config(scale),
        partition_scheme=spec.partition_scheme, alpha=spec.alpha,
        seed=spec.seed, eval_max_samples=scale.eval_max_samples)
    if change is not None:
        change(scenario.algorithm)
    return scenario, dataset


def execute_spec(spec: RunSpec, *, cache=DEFAULT) -> RunResult:
    """Execute one RunSpec, consulting the run cache first.

    The spec describes the whole run: a ``tag`` names its variant
    (:mod:`repro.experiments.variants`), which the build and the execution
    block apply, so a cached entry is always the spec's own.
    """
    with telemetry.span("execute_spec", algorithm=spec.algorithm,
                        dataset=spec.dataset, seed=spec.seed):
        return _execute_spec_live(spec, _resolve_cache(cache))


def _execute_spec_live(spec: RunSpec, cache: RunCache | None) -> RunResult:
    """The cache-then-simulate body of :func:`execute_spec`."""
    if cache is not None:
        entry = cache.get(spec)
        if entry is not None:
            _log.info("cell %s served from cache", spec.label,
                      extra={"spec": spec.content_hash(),
                             "from_cache": True})
            return RunResult(history=entry.history, scenario=None,
                             num_classes=entry.num_classes, spec=spec,
                             from_cache=True,
                             _cached_levels=entry.level_distribution)

    _log.info("running cell %s", spec.label,
              extra={"spec": spec.content_hash(), "from_cache": False})
    scale = spec.resolved_scale()
    with telemetry.span("prepare_scenario", algorithm=spec.algorithm,
                        dataset=spec.dataset):
        scenario, dataset = prepare_scenario(spec)
    execution = variant_execution(spec, scenario.algorithm)
    checkpoint = _spec_checkpoint(spec)
    if (checkpoint is not None and execution is not None
            and execution.policy == "buffered"):
        # Decided on the *resolved* block (a variant may derive it):
        # in-flight futures cannot be snapshotted and SimulationConfig
        # refuses the pair, so a mixed sweep checkpoints the cells it can.
        _log.info("cell %s: buffered aggregation cannot be checkpointed; "
                  "running without checkpoints", spec.label)
        checkpoint = None
    sim = SimulationConfig(num_rounds=scale.num_rounds,
                           sample_ratio=scale.sample_ratio,
                           eval_every=scale.eval_every, seed=spec.seed,
                           execution=execution,
                           workers=_resolve_workers(spec.workers),
                           executor=spec.executor or "auto",
                           checkpoint=checkpoint)
    with telemetry.span("run_simulation", algorithm=spec.algorithm,
                        dataset=spec.dataset, seed=spec.seed):
        history = run_simulation(scenario.algorithm, sim)
    result = RunResult(history=history, scenario=scenario,
                       num_classes=dataset.num_classes, spec=spec)
    if cache is not None:
        cache.put(spec, history, num_classes=dataset.num_classes,
                  level_distribution=scenario.level_distribution())
    return result


def _execute_cell(payload: dict, epoch: float | None,
                  trace_memory: bool, defaults: RunDefaults) -> dict:
    """Sweep-pool worker: execute one spec, return a picklable result.

    Runs in its own process under the parent's run ``defaults`` — the
    sweep's resolved cache included — with parallelism reset to one
    worker, so the cell executes inline: sweep fan-out and within-cell
    pools never nest.  (The defaults travel as an argument so fork- and
    spawn-start pools behave alike.)  The worker writes the shared cache
    itself (atomic renames make the concurrent writes safe) and ships the
    history back for the parent.

    ``epoch`` is the parent session's tracer epoch, or ``None`` when the
    parent collects no telemetry.  With one, the cell runs under a
    :func:`~repro.telemetry.runtime.worker_session` on that epoch
    (``perf_counter`` is system-wide, so its spans land on the parent's
    timeline) that traces memory when the parent's does, and ships it back
    as ``telemetry`` for the parent to absorb.
    """
    # to_dict strips parallelism fields, so the rebuilt spec inherits the
    # (reset) default; the explicit replace makes the no-nesting invariant
    # hold even for hand-authored payloads that smuggle a workers key in.
    spec = RunSpec.from_dict(payload).replace(workers=1, executor="inline")
    session = None
    with run_defaults(_dc_replace(defaults, workers=1)):
        if epoch is None:
            result = execute_spec(spec)
        else:
            with telemetry.worker_session(epoch, trace_memory) as session:
                result = execute_spec(spec)
    return {
        "history": history_to_dict(result.history),
        "num_classes": result.num_classes,
        "level_distribution": result.level_distribution(),
        "from_cache": result.from_cache,
        "telemetry": None if session is None else session.to_dict(),
    }


def execute_specs(specs: Sequence[RunSpec], *,
                  cache=DEFAULT) -> list[RunResult]:
    """Execute a grid of independent cells, fanning out across processes.

    With one worker (the default :class:`RunDefaults`) this is exactly
    ``[execute_spec(s) for s in specs]``.
    With more, the cache hits are served here first, in input order, and
    only the misses fan out, to a process pool of one worker per miss up
    to the default's count (no pool when fewer than two cells miss): each
    worker rebuilds its cell, writes the shared run cache (atomic renames
    keep concurrent writes safe), and returns the history.  Cells are
    independent and deterministic, so the results — and the cache entries
    they leave behind — are identical to the sequential sweep, in the
    input order.
    """
    specs = list(specs)
    cache = _resolve_cache(cache)
    results: dict[int, RunResult] = {}
    if _DEFAULTS.workers > 1 and cache is not None:
        # A hit needs no worker process to read it.
        results = {i: execute_spec(spec, cache=cache)
                   for i, spec in enumerate(specs) if cache.contains(spec)}
    misses = [i for i in range(len(specs)) if i not in results]
    workers = min(_DEFAULTS.workers, len(misses))
    if workers <= 1:
        return [results.get(i) or execute_spec(spec, cache=cache)
                for i, spec in enumerate(specs)]

    worker_defaults = _dc_replace(_DEFAULTS, cache=cache)
    session = telemetry.current()
    epoch = None if session is None else session.tracer.epoch
    trace_memory = session is not None and session.tracer.trace_memory
    _log.info("sweeping %d cells across %d workers", len(misses), workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {i: pool.submit(_execute_cell, specs[i].to_dict(),
                                  epoch, trace_memory, worker_defaults)
                   for i in misses}
        for i, future in futures.items():
            spec = specs[i]
            with telemetry.span("sweep_cell", algorithm=spec.algorithm,
                                dataset=spec.dataset, seed=spec.seed):
                payload = future.result()
            if cache is not None:
                # Keep the parent's hit/miss counters meaningful: the
                # worker did the lookup, the parent reports it.
                if payload["from_cache"]:
                    cache.hits += 1
                else:
                    cache.misses += 1
            if session is not None:
                session.absorb(
                    telemetry.RunTelemetry.from_dict(payload["telemetry"]))
            results[i] = RunResult(
                history=history_from_dict(payload["history"]),
                scenario=None, num_classes=payload["num_classes"],
                spec=spec, from_cache=payload["from_cache"],
                _cached_levels=dict(payload["level_distribution"]))
    return [results[i] for i in range(len(specs))]


def resolve_target_accuracy(histories: list[History],
                            num_classes: int) -> float:
    """Preset accuracy for the time-to-accuracy metric.

    The paper fixes a per-task target; scale-independently we use the
    midpoint between chance and the best final accuracy achieved across the
    compared algorithms — every reasonable method crosses it, and faster
    methods cross it sooner.
    """
    chance = 1.0 / num_classes
    best = max(h.final_accuracy for h in histories)
    return chance + 0.5 * max(best - chance, 0.02)


#: the effectiveness baseline every grid carries one cell of per seed.
BASELINE_ALGORITHM = "fedavg_smallest"


def summarize_results(results: Sequence[RunResult],
                      algorithms: Sequence[str]) -> list[dict]:
    """The four PracMHBench metrics (Section III) for one dataset's
    (algorithm + baseline) x seed results, one row per entry of
    ``algorithms`` (duplicates included).

    Each seed gives every algorithm a row computed from its
    :class:`~repro.fl.history.History`:

    * (i) ``global_acc`` — the final global-test accuracy of the federated
      model;
    * (ii) ``tta_s`` — simulated seconds until global accuracy first
      reaches the seed's shared target (:func:`resolve_target_accuracy`
      over ``algorithms``); ``None`` when a run never reaches it;
    * (iii) ``stability_var`` — the variance of the final per-device
      accuracies (lower is better: every device is served about equally);
    * (iv) ``effectiveness`` — final accuracy minus that of the seed's
      :data:`BASELINE_ALGORITHM` run, the smallest feasible homogeneous
      model under the same constraint case (the extra cell
      :func:`~repro.experiments.sweep.expand_grid` adds once per dataset
      and seed; without it, ``None``).  Positive means model
      heterogeneity helped.

    :func:`~repro.experiments.reporting.aggregate_seed_rows` rounds the
    metrics to 4 / 1 / 6 / 4 digits and, over several seeds, turns the
    per-seed rows into mean±std rows.
    """
    by_cell = {(res.spec.algorithm, res.spec.seed): res for res in results}
    per_seed = []
    for seed in dict.fromkeys(res.spec.seed for res in results):
        histories = {name: by_cell[(name, seed)].history
                     for name in algorithms}
        baseline = by_cell.get((BASELINE_ALGORITHM, seed))
        target = resolve_target_accuracy(
            list(histories.values()),
            by_cell[(algorithms[0], seed)].num_classes)
        rows = []
        for name in algorithms:
            history = histories[name]
            rows.append({
                "algorithm": history.algorithm,
                "dataset": history.dataset,
                "global_acc": history.final_accuracy,
                "tta_s": history.time_to_accuracy(target),
                "stability_var": history.stability(),
                "effectiveness": (
                    None if baseline is None else
                    history.final_accuracy - baseline.history.final_accuracy),
            })
        per_seed.append(rows)
    return aggregate_seed_rows(per_seed, {"global_acc": 4, "tta_s": 1,
                                          "stability_var": 6,
                                          "effectiveness": 4})

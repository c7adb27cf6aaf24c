"""The federated run: one config, one entry point, one round loop.

:func:`run_simulation` is the only way a run executes.  It resolves the
:class:`SimulationConfig` into an aggregation policy
(:mod:`repro.fl.aggregation`) that plays client download/train/upload
events through a discrete-event queue (:mod:`repro.fl.events`) against an
availability model (:mod:`repro.fl.availability`), hands client work to an
:class:`~repro.fl.executor.Executor`, and returns the policy's
:class:`~repro.fl.history.History`.

The config has two halves.  ``execution`` — an
:class:`~repro.fl.aggregation.ExecutionConfig` — is *semantics*: the
availability scenario, aggregation policy, deadline, faults, validation;
it changes results and is hashed with the spec.  ``None`` resolves to
``ExecutionConfig()``: the synchronous policy on an always-on fleet, where
every sampled client finishes and the round waits for the straggler.
Everything else on :class:`SimulationConfig` beyond the round-loop
parameters is *mechanics* — worker count, executor kind, per-item
hardening, checkpointing, strict-mode sanitizers — which cannot change a
byte of the History and is never hashed.  The config is fully explicit:
nothing here reads process-global state; defaults a caller did not spell
out are resolved upstream, in :mod:`repro.experiments.runner`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from .aggregation import ExecutionConfig, make_policy, sample_clients
from .checkpoint import CheckpointConfig
from .executor import EXECUTOR_KINDS, Executor, make_executor
from .history import History
from .sanitizers import rng_tripwire

__all__ = ["SimulationConfig", "run_simulation", "sample_clients"]


@dataclass(frozen=True)
class SimulationConfig:
    """Round-loop parameters (paper defaults: 1000 rounds, 10% sampling)
    plus the run's mechanics."""

    num_rounds: int = 50
    sample_ratio: float = 0.1
    eval_every: int = 5
    #: server-side work per round (aggregation, bookkeeping), seconds.
    server_overhead_s: float = 2.0
    seed: int = 0
    #: how rounds execute (availability model + aggregation policy).
    #: ``None`` means ``ExecutionConfig()`` — synchronous rounds on an
    #: always-on fleet — recorded without the per-event timeline and
    #: ``dispatched``/``received`` extras an explicit block adds.
    execution: ExecutionConfig | None = None
    #: client-work parallelism.  Results are identical for any worker
    #: count/executor (see :mod:`repro.fl.executor`); only wall-clock and
    #: memory profiles change, so neither field participates in RunSpec
    #: hashing.
    workers: int = 1
    executor: str = "auto"    # "auto" | "inline" | "process"
    #: pool-executor hardening: per-item result timeout and bounded
    #: transparent retries on transient failures.  Work items are pure, so
    #: a retry is byte-identical to the attempt it replaces.  ``None``
    #: keeps the executor defaults.
    item_timeout_s: float | None = None
    item_retries: int | None = None
    #: crash-safety: periodic atomic snapshots + resume
    #: (:mod:`repro.fl.checkpoint`).  Purely mechanical — checkpointing is
    #: invisible in the History, so it never participates in hashing.
    checkpoint: CheckpointConfig | None = None
    #: strict-mode runtime sanitizers (:mod:`repro.fl.sanitizers`):
    #: broadcast arrays are frozen during dispatch and the legacy global
    #: RNGs are tripwired.  Observation-only — results are byte-identical
    #: either way.
    strict: bool = False

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.executor not in EXECUTOR_KINDS:
            raise ValueError(f"unknown executor {self.executor!r}; "
                             f"known: {EXECUTOR_KINDS}")
        if self.item_timeout_s is not None and self.item_timeout_s <= 0:
            raise ValueError("item_timeout_s must be > 0")
        if self.item_retries is not None and self.item_retries < 0:
            raise ValueError("item_retries must be >= 0")
        if (self.checkpoint is not None and self.execution is not None
                and self.execution.policy == "buffered"):
            raise ValueError(
                "checkpoint cannot be combined with execution.policy="
                "'buffered': in-flight futures cannot be snapshotted")


#: Simulations started in this process.  The run cache's "a cache hit does
#: zero training" guarantee is pinned by asserting this does not move.
RUN_COUNT = 0


def run_simulation(algorithm, config: SimulationConfig,
                   executor: Executor | None = None) -> History:
    """Drive ``algorithm`` for ``config.num_rounds`` rounds.

    All client training flows through an
    :class:`~repro.fl.executor.Executor` (built from the config's
    ``workers``/``executor``/``item_*`` fields unless one is passed in);
    ingestion stays on the coordinator in dispatch order, so the History
    is byte-identical for any worker count.
    """
    global RUN_COUNT
    RUN_COUNT += 1
    execution = config.execution or ExecutionConfig()
    availability = execution.build_availability(algorithm.num_clients,
                                                sim_seed=config.seed)
    owns_executor = executor is None
    if executor is None:
        executor = make_executor(algorithm, workers=config.workers,
                                 kind=config.executor,
                                 timeout_s=config.item_timeout_s,
                                 retries=config.item_retries)
    try:
        # Policy construction happens inside the guard: if it raises, the
        # just-created process pool must still be shut down rather
        # than leak workers.
        policy = make_policy(config, execution, availability,
                             executor=executor)
        with rng_tripwire("run_simulation") if config.strict \
                else nullcontext():
            return policy.run(algorithm)
    finally:
        if owns_executor:
            executor.close()

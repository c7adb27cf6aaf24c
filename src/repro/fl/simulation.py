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
availability scenario, aggregation policy, deadline, faults; it
changes results and is hashed with the spec.  ``None`` resolves to
``ExecutionConfig()``: the synchronous policy on an always-on fleet, where
every sampled client finishes and the round waits for the straggler.
Everything else on :class:`SimulationConfig` beyond the round-loop
parameters is *mechanics* — worker count, executor kind, checkpointing —
which cannot change a byte of the History and is never hashed.  Every run
goes through the same runtime sanitizers (:mod:`repro.fl.sanitizers`):
the round loop runs inside the global-RNG tripwire, and the policies
freeze what clients may only read.  The config is fully explicit:
nothing here reads process-global state; defaults a caller did not spell
out are resolved upstream, in :mod:`repro.experiments.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aggregation import ExecutionConfig, make_policy, sample_clients
from .checkpoint import CheckpointConfig
from .executor import EXECUTOR_KINDS, make_executor
from .history import History
from .sanitizers import check_range, rng_tripwire

__all__ = ["SimulationConfig", "run_simulation", "sample_clients"]


@dataclass(frozen=True)
class SimulationConfig:
    """Round-loop parameters (paper defaults: 1000 rounds, 10% sampling)
    plus the run's mechanics."""

    num_rounds: int = 50
    sample_ratio: float = 0.1
    eval_every: int = 5
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
    #: crash-safety: periodic atomic snapshots + resume
    #: (:mod:`repro.fl.checkpoint`).  Purely mechanical — checkpointing is
    #: invisible in the History, so it never participates in hashing.
    checkpoint: CheckpointConfig | None = None

    def __post_init__(self):
        if self.num_rounds < 1:
            raise ValueError("num_rounds must be >= 1")
        check_range("sample_ratio", self.sample_ratio, "(0, 1]")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.executor not in EXECUTOR_KINDS:
            raise ValueError(f"unknown executor {self.executor!r}; "
                             f"known: {EXECUTOR_KINDS}")
        if (self.checkpoint is not None and self.execution is not None
                and self.execution.policy == "buffered"):
            raise ValueError(
                "checkpoint cannot be combined with execution.policy="
                "'buffered': in-flight futures cannot be snapshotted")


#: Simulations started in this process.  The run cache's "a cache hit does
#: zero training" guarantee is pinned by asserting this does not move.
RUN_COUNT = 0


def run_simulation(algorithm, config: SimulationConfig) -> History:
    """Drive ``algorithm`` for ``config.num_rounds`` rounds.

    All client training flows through an
    :class:`~repro.fl.executor.Executor` built from the config's
    ``workers``/``executor`` fields and closed when the run ends;
    ingestion stays on the coordinator in dispatch order, so the History
    is byte-identical for any worker count.  The algorithm's working set
    is released then too: a finished run keeps only its results.
    """
    global RUN_COUNT
    RUN_COUNT += 1
    execution = config.execution or ExecutionConfig()
    availability = execution.build_availability(algorithm.num_clients,
                                                sim_seed=config.seed)
    executor = make_executor(algorithm, workers=config.workers,
                             kind=config.executor)
    try:
        # Policy construction happens inside the guard: if it raises, the
        # just-created process pool must still be shut down rather
        # than leak workers.
        policy = make_policy(config, execution, availability,
                             executor=executor)
        with rng_tripwire("run_simulation"):
            return policy.run(algorithm)
    finally:
        executor.close()
        algorithm.release_working_set()

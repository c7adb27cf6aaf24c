"""Federated simulation engine: local training, the round loop, history.

One runtime: :func:`run_simulation` drives an aggregation policy
(:mod:`repro.fl.aggregation`) over a discrete-event scheduler
(:mod:`repro.fl.events`) against a client availability model
(:mod:`repro.fl.availability`).
"""

from .client import LocalTrainConfig, train_local, make_optimizer
from .evaluate import accuracy, predict
from .history import History, RoundRecord
from .events import Event, EventQueue
from .availability import (AvailabilityModel, AlwaysOn, DiurnalSine,
                           MarkovChurn, RandomDropout, AVAILABILITY_MODELS,
                           make_availability)
from .aggregation import (ExecutionConfig, AggregationPolicy,
                          SynchronousPolicy, BufferedPolicy,
                          AGGREGATION_POLICIES, make_policy, validate_update)
from .executor import (ClientWorkItem, ClientResult,
                       execute_work_item, Executor, InlineExecutor,
                       ProcessExecutor, EXECUTOR_KINDS,
                       make_executor, ExecutorError, TransientExecutorError,
                       failure_is_transient)
from .faults import FaultSpec, FaultModel, FaultPlan, corrupt_update
from .checkpoint import CheckpointConfig, Checkpointer, make_checkpointer
from .seeding import client_seed_key, client_rng, fault_rng, reseed_dropout
from .simulation import SimulationConfig, run_simulation, sample_clients
from .serialization import (history_to_dict, history_from_dict, save_history,
                            load_history)

__all__ = [
    "LocalTrainConfig", "train_local", "make_optimizer",
    "accuracy", "predict",
    "History", "RoundRecord",
    "Event", "EventQueue",
    "AvailabilityModel", "AlwaysOn", "DiurnalSine", "MarkovChurn",
    "RandomDropout", "AVAILABILITY_MODELS", "make_availability",
    "ExecutionConfig", "AggregationPolicy", "SynchronousPolicy",
    "BufferedPolicy", "AGGREGATION_POLICIES", "make_policy",
    "validate_update",
    "ClientWorkItem", "ClientResult", "execute_work_item",
    "Executor", "InlineExecutor", "ProcessExecutor",
    "EXECUTOR_KINDS", "make_executor", "ExecutorError", "TransientExecutorError",
    "failure_is_transient",
    "FaultSpec", "FaultModel", "FaultPlan", "corrupt_update",
    "CheckpointConfig", "Checkpointer", "make_checkpointer",
    "client_seed_key", "client_rng", "fault_rng", "reseed_dropout",
    "SimulationConfig", "run_simulation", "sample_clients",
    "history_to_dict", "history_from_dict", "save_history", "load_history",
]

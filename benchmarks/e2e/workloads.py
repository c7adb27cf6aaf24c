"""The four ledger workloads: one fixed ``RunSpec`` per (workload, seed).

Each workload is a PracMHBench cell at ``scale="demo"`` shortened to about
two seconds per ``execute_spec`` on the reference host (the acceptance
driver's time budget allows ~35 s per run, so the cells are half the size the
issue first sized).  The evaluation settings keep the evaluate share of the
shortened cell close to the full 40-round demo cell's, which evaluates 128
samples per round trained (17 evaluations of 300 over 40 rounds): ``conv_bn``
evaluates 138 per round (11 of 50 over 4), ``depthwise_pool2`` 140 (14 of 100
over 10); ``transformer`` evaluates eight personal models every evaluated
round, 480 per round against the full cell's 540.

``--seed N`` selects ``SPEC_SEEDS[workload][N % len]`` as ``RunSpec.seed``
(data, init, fleet, partition and sampling all follow it; the program only
ever sees the generated spec).  Seeds change the *amount* of work — another
multiset of capacity levels is dispatched — so the table holds seeds that
``equiv_seeds.py`` found to dispatch the same work as seed 0: numbers at
different ``--seed`` values are then comparable, which they are not across
arbitrary ``RunSpec`` seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "SPEC_SEEDS", "spec_seed_for",
           "build_spec", "cold_spec", "client_round_work"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    algorithm: str
    dataset: str
    constraints: tuple[str, ...]
    scale_overrides: dict
    #: pool workers (0 = inline).
    workers: int = 0
    availability: str = "always_on"
    faults: tuple = ()
    #: ``ExecutionConfig`` kwargs for the event engine (empty = legacy loop).
    execution: tuple = ()


_EVAL = {"eval_every": 2, "eval_max_samples": 100}

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="conv_bn",
        why="ResNet width slices inline: conv2d + batch_norm, per-client "
            "sub-model construction and prefix slicing do most of the work; "
            "executor and event engine do none",
        algorithm="sheterofl", dataset="cifar100",
        constraints=("computation",),
        scale_overrides={"num_rounds": 4, "eval_every": 2,
                         "eval_max_samples": 50}),
    Workload(
        name="transformer",
        why="attention/layer_norm/linear/embedding with prototype payloads: "
            "no conv2d, batch_norm or width slicing, evaluation is a third of "
            "the cell; the bypass workload for conv/BN/slicing work",
        algorithm="fedproto", dataset="agnews",
        constraints=("computation",),
        scale_overrides={"num_rounds": 10, **_EVAL}),
    Workload(
        name="depthwise_pool2",
        why="MobileNetV2 depthwise convs with rolling slices through a "
            "2-worker process pool: the only workload with work-item "
            "pickling, worker scenario rebuilds, queue wait and child RSS",
        algorithm="fedrolex", dataset="cifar10",
        constraints=("computation",),
        scale_overrides={"num_rounds": 10, **_EVAL}, workers=2),
    Workload(
        name="fleet_async",
        why="tiny HAR CNN under markov churn, injected faults and buffered "
            "aggregation: FLOPs are negligible, time is per-op python "
            "overhead, slicing and the event engine; the coordinator-bound "
            "workload",
        algorithm="depthfl", dataset="harbox",
        constraints=("computation", "communication"),
        scale_overrides={"num_rounds": 80, "eval_every": 10,
                         "eval_max_samples": 100},
        availability="markov",
        faults=(("crash_prob", 0.05), ("straggler_prob", 0.1),
                ("corrupt_prob", 0.05)),
        execution=(("policy", "buffered"), ("buffer_size", 4))),
)}

#: ``RunSpec.seed`` values per workload, from ``equiv_seeds.py`` (regenerate
#: with it when a workload changes): seed 0 and nine seeds whose priced work is
#: closest to seed 0's — within 0.4 %, 0.7 % and 1.0 % of it among seeds
#: 0..199 for the last three workloads.  ``conv_bn``'s are the nine of the 34
#: seeds in 0..399 priced within 2 % that ``--verify`` then measured closest
#: to seed 0 (all within 1.2 %).
SPEC_SEEDS: dict[str, tuple[int, ...]] = {
    "conv_bn": (0, 26, 55, 92, 100, 207, 222, 285, 296, 352),
    "transformer": (0, 5, 33, 36, 46, 98, 146, 163, 170, 177),
    "depthwise_pool2": (0, 19, 27, 38, 82, 84, 85, 109, 123, 151),
    "fleet_async": (0, 37, 48, 78, 86, 89, 108, 150, 157, 163),
}


def spec_seed_for(workload: str, seed: int) -> int:
    table = SPEC_SEEDS[workload]
    return table[seed % len(table)]


def build_spec(workload: str, spec_seed: int, *, inline: bool = False):
    """The workload's ``RunSpec`` at ``RunSpec.seed = spec_seed``.

    ``inline=True`` gives the pool workload's inline twin (same content
    hash: parallelism is not part of a spec's identity).
    """
    from repro.constraints import ConstraintSpec
    from repro.experiments import RunSpec

    w = WORKLOADS[workload]
    constraints = ConstraintSpec(constraints=w.constraints,
                                 availability=w.availability,
                                 faults=dict(w.faults))
    execution = (constraints.execution_config(**dict(w.execution))
                 if w.execution else None)
    pooled = w.workers and not inline
    return RunSpec(algorithm=w.algorithm, dataset=w.dataset,
                   constraints=constraints, scale="demo",
                   scale_overrides=dict(w.scale_overrides),
                   execution=execution, seed=spec_seed,
                   workers=w.workers if pooled else 1,
                   executor="process" if pooled else "inline")


def cold_spec(workload: str, spec_seed: int):
    """The one-round cell a cold start executes."""
    spec = build_spec(workload, spec_seed)
    return spec.replace(scale_overrides={**spec.scale_overrides,
                                         "num_rounds": 1})


def client_round_work(algorithm, scale, client_id: int
                      ) -> tuple[str, int, int]:
    """``(capacity level, train steps, samples trained)`` of one client
    round: what ``train_local`` does under the scale's batch cap."""
    ctx = algorithm.clients[client_id]
    per_epoch = math.ceil(len(ctx.shard) / scale.batch_size)
    if scale.max_batches is not None:
        per_epoch = min(per_epoch, scale.max_batches)
    samples = min(len(ctx.shard), per_epoch * scale.batch_size)
    return (ctx.entry.key, per_epoch * scale.local_epochs,
            samples * scale.local_epochs)

"""Algorithm interface + shared machinery for parameter-averaging MHFL.

Every algorithm binds together:

* a **base model** — the server-side full model (its state dict is the
  global state for parameter-averaging methods);
* **clients** — shard + sampled device capability + the pool entry assigned
  by the active constraint case;
* a **variant space** — the capacity levels the method offers (width
  multipliers, depth fractions, family members), measured into a
  :class:`~repro.hw.ModelPool` that the constraint cases select from;
* hooks — ``build_client_model`` (how a capacity level becomes a trainable
  model + index maps), ``local_loss_fn`` (algorithm-specific objectives) and
  ``post_aggregate`` (e.g. InclusiveFL's momentum distillation).

The simulated clock charges each sampled client with *nominal* local
training over its full shard (per the cost model) even when ``max_batches``
caps the actual CPU work — the simulation runs a scaled-down computation but
accounts paper-scale time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .. import autograd as ag
from ..data.dataset import FederatedDataset, Subset
from ..fl.client import LocalTrainConfig, train_local
from ..fl.evaluate import accuracy
from ..fl.seeding import reseed_dropout
from ..hw.cost_model import CostModel, DEFAULT_COST_MODEL
from ..hw.ima import ClientCapability
from ..hw.model_pool import ModelPool, PoolEntry
from ..models.base import SliceableModel
from ..models.slicing import (extract_substate, finalize_mean,
                              scatter_accumulate, width_index_maps,
                              zeros_like_state)

__all__ = ["ClientContext", "ClientUpdate", "RoundOutcome", "MHFLAlgorithm",
           "WIDTH_LEVELS", "DEPTH_LEVELS", "assign_levels_uniformly"]

#: The paper's four capacity proportions (Table II).
WIDTH_LEVELS = (1.0, 0.75, 0.5, 0.25)
DEPTH_LEVELS = (1.0, 0.75, 0.5, 0.25)


@dataclass
class ClientContext:
    """One client's shard, device and assigned capacity level."""

    client_id: int
    shard: Subset
    capability: ClientCapability
    entry: PoolEntry

    @property
    def num_samples(self) -> int:
        return len(self.shard)


@dataclass
class RoundOutcome:
    """What one federated round produced (consumed by the simulator)."""

    slowest_client_s: float
    mean_train_loss: float


@dataclass
class ClientUpdate:
    """One client's finished local round, in transit to the server.

    ``payload`` is algorithm-specific (sliced state dict + index maps for
    parameter-averaging methods, prototypes for FedProto, public-set
    predictions for Fed-ET) and is only interpreted by the same algorithm's
    :meth:`MHFLAlgorithm.ingest`.  ``discount`` is 1.0 for synchronous
    execution; asynchronous aggregation policies lower it for stale updates
    before handing the buffer to ``ingest``.
    """

    client_id: int
    #: global model version (round index) the client trained from.
    version: int
    train_loss: float
    #: the client's full download + train + upload time, seconds.
    round_time_s: float
    #: aggregation weight (sample count for parameter averaging).
    weight: float
    payload: object
    #: staleness discount applied by the aggregation policy (1.0 = fresh).
    discount: float = 1.0
    #: versions the global model advanced while this update was in flight
    #: (stamped by the aggregation policy at aggregation time).
    staleness: int = 0


def assign_levels_uniformly(pool: ModelPool,
                            fleet: Sequence[ClientCapability],
                            dataset: FederatedDataset,
                            shards: Sequence[np.ndarray]) -> list[ClientContext]:
    """Constraint-free assignment: cycle capacity levels across clients.

    This reproduces the conventional MHFL setup the paper criticises (equal
    proportions of x1.0 / x0.75 / x0.5 / x0.25 clients); the constraint cases
    in :mod:`repro.constraints` replace it with budget-driven assignment.
    """
    entries = list(pool.entries)
    contexts = []
    for position, capability in enumerate(fleet):
        entry = entries[position % len(entries)]
        contexts.append(ClientContext(
            client_id=capability.client_id,
            shard=dataset.subset(shards[position]),
            capability=capability, entry=entry))
    return contexts


class MHFLAlgorithm:
    """Base class: coordinate-wise averaged MHFL (width & depth methods)."""

    #: registry name, heterogeneity level, and slicing mode.
    name: str = "base"
    level: str = "width"              # "width" | "depth" | "topology" | "homogeneous"
    slicing_mode: str = "prefix"      # "prefix" | "rolling"
    #: whether NLP tasks are supported (the paper omits some methods on NLP).
    supports_nlp: bool = True

    #: overrides applied when the scenario builds the server-side base model
    #: (DepthFL needs auxiliary heads at every stage boundary).
    base_model_overrides: dict = {}

    #: serialised RunSpec this instance was built from (set by the
    #: experiment runner; ``None`` for hand-built scenarios).  Process-pool
    #: executors use it to rebuild an identical replica per worker; it is
    #: cleared for ablation-mutated runs, whose live object diverges from
    #: what the spec would rebuild.
    spec_payload: dict | None = None

    def __init__(self, base_model: SliceableModel, dataset: FederatedDataset,
                 clients: Sequence[ClientContext],
                 train_config: LocalTrainConfig | None = None,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 eval_max_samples: int = 512, eval_clients: int = 8,
                 pool: ModelPool | None = None):
        self.base_model = base_model
        self.dataset = dataset
        self.clients = {ctx.client_id: ctx for ctx in clients}
        self.train_config = train_config or LocalTrainConfig()
        self.cost_model = cost_model
        self.eval_clients = eval_clients
        self.pool = pool

        self.global_state = base_model.state_dict()
        self.global_shapes = {k: v.shape for k, v in self.global_state.items()}
        self.scale_axes = base_model.state_scale_axes()

        cap = min(eval_max_samples, dataset.num_test)
        self.x_eval = dataset.x_test[:cap]
        self.y_eval = dataset.y_test[:cap]
        self._eval_model: SliceableModel | None = None
        #: sorted ``client_overrides`` items -> (sub-model, its state shapes).
        self._client_models: dict[tuple, tuple[SliceableModel, dict]] = {}

    # ------------------------------------------------------------------
    # Identity / plumbing
    # ------------------------------------------------------------------
    @property
    def dataset_name(self) -> str:
        return self.dataset.name

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    # ------------------------------------------------------------------
    # Variant space / pool
    # ------------------------------------------------------------------
    @classmethod
    def variant_space(cls, base_model: SliceableModel) -> dict[str, dict]:
        """Capacity levels as ``key -> constructor overrides``."""
        return {f"x{m:.2f}": {"width_mult": m} for m in WIDTH_LEVELS}

    @classmethod
    def build_pool(cls, base_model: SliceableModel,
                   cost_model: CostModel = DEFAULT_COST_MODEL) -> ModelPool:
        """Measure the variant space into a model pool."""
        return ModelPool.from_variants(base_model,
                                       cls.variant_space(base_model),
                                       cost_model=cost_model)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def rolling_shift(self, round_index: int) -> int:
        """Window shift for rolling extraction (FedRolex overrides)."""
        return 0

    def client_overrides(self, ctx: ClientContext, round_index: int,
                         rng: np.random.Generator) -> dict:
        """Constructor overrides for this client's model this round."""
        return dict(ctx.entry.overrides)

    def build_client_model(self, ctx: ClientContext, round_index: int,
                           rng: np.random.Generator,
                           state: dict | None = None
                           ) -> tuple[SliceableModel, dict]:
        """Load the client's slice of the state into its variant's model.

        ``state`` is the global state to slice from; ``None`` reads the
        live coordinator state (executors pass the work item's broadcast
        copy instead, so training never races coordinator aggregation).

        One model is kept per distinct ``client_overrides`` (a handful of
        keys) and handed out again, so it is valid only until the next call
        at the same level.  Reuse cannot change results: ``load_state_dict``
        overwrites every parameter and buffer, gradients and the trainable
        mask are reset here, and callers reseed dropout.
        """
        if state is None:
            state = self.global_state
        overrides = self.client_overrides(ctx, round_index, rng)
        key = tuple(sorted(overrides.items()))
        if key not in self._client_models:
            model = self.base_model.variant(**overrides)
            shapes = {n: p.data.shape for n, p in model.named_parameters()}
            shapes.update((n, b.shape) for n, b in model.named_buffers())
            self._client_models[key] = (model, shapes)
        model, sub_shapes = self._client_models[key]
        maps = width_index_maps(
            self.global_shapes, sub_shapes,
            self.scale_axes, mode=self.slicing_mode,
            shift=self.rolling_shift(round_index))
        model.load_state_dict(extract_substate(state, maps))
        for param in model.parameters():
            param.grad = None
            param.requires_grad = True
        self.prepare_client_model(model, ctx, round_index)
        return model, maps

    def prepare_client_model(self, model: SliceableModel, ctx: ClientContext,
                             round_index: int) -> None:
        """Post-load setup (FeDepth freezes a stage segment here)."""

    def local_loss_fn(self, ctx: ClientContext, model: SliceableModel):
        """Local objective; default cross-entropy on the deepest head."""
        return None  # train_local's default CE

    def post_aggregate(self, old_state: dict, round_index: int) -> None:
        """Called after the global state is refreshed (InclusiveFL hook)."""

    def upload_filter(self, model: SliceableModel,
                      ctx: ClientContext) -> set[str] | None:
        """State-dict names this client uploads (None = everything).

        FeDepth restricts the upload to the stage segment it actually
        trained, so frozen copies never dilute other clients' updates.
        """
        return None

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def client_payload_bytes(self, ctx: ClientContext) -> tuple[float, float]:
        """(download, upload) bytes exchanged with the server per round."""
        payload = ctx.entry.stats.param_bytes
        return payload, payload

    def client_time_segments(self, ctx: ClientContext
                             ) -> tuple[float, float, float]:
        """(download_s, train_s, upload_s) — the event engine schedules the
        typed download/train/upload events from these."""
        device = ctx.capability.as_device()
        train = self.cost_model.training_time_s(
            ctx.entry.stats, device, num_samples=ctx.num_samples,
            local_epochs=self.train_config.local_epochs)
        down, up = self.client_payload_bytes(ctx)
        return (down / ctx.capability.downlink_bps, train,
                up / ctx.capability.uplink_bps)

    def client_round_time_s(self, ctx: ClientContext) -> float:
        down, train, up = self.client_time_segments(ctx)
        return train + (down + up)

    def fleet_round_time_quantile(self, quantile: float) -> float:
        """Fleet quantile of per-client round times under *this* algorithm's
        cost accounting (honours ``client_payload_bytes`` overrides — e.g.
        FedProto uploads prototypes, not parameters).  The canonical way to
        derive a binding round deadline for the event-driven runtime.
        """
        times = [self.client_round_time_s(self.clients[cid])
                 for cid in sorted(self.clients)]
        return float(np.quantile(times, quantile))

    # ------------------------------------------------------------------
    # The round, as per-client primitives
    # ------------------------------------------------------------------
    # ``run_client`` and ``ingest`` are the two halves every aggregation
    # policy composes: the runtime runs clients at dispatch time and
    # ingests whatever survived availability, dropout and deadline
    # filtering — one code path for all nine registered algorithms.
    # :meth:`run_round` calls them back-to-back, the reference loop the
    # tests compare the runtime against.
    #
    # ``run_client`` is a *pure* function of ``(broadcast, rng)``: it reads
    # no coordinator state that changes between rounds when a ``broadcast``
    # is supplied, and every random draw comes from the caller's ``rng``
    # (derived from ``(run_seed, round, client_id)`` by the execution
    # layer).  That purity is what lets :mod:`repro.fl.executor` run clients
    # in pool processes with results bit-identical to the inline path.
    # ``pack_broadcast`` / ``pack_client_state`` / ``apply_client_state``
    # are the transport hooks: what the server sends down, what persistent
    # per-client state a worker must hand back, and how the coordinator
    # absorbs it.

    def pack_round_broadcast(self, version: int) -> dict:
        """The client-independent part of the downlink at ``version``.

        The base payload is a copy of the full global state dict — the
        worker slices it with the same index maps the inline path uses, so
        per-round random widths (Fjord) and rolling windows (FedRolex) need
        no coordinator-side replication.  Copying decouples the snapshot
        from in-place post-aggregation updates (InclusiveFL), which matters
        for buffered execution where dispatch and aggregation interleave.
        Synchronous dispatchers pack this **once per round** and share the
        (read-only) arrays across every client's work item.
        """
        return {"global_state": {k: v.copy()
                                 for k, v in self.global_state.items()}}

    def pack_client_broadcast(self, client_id: int, version: int) -> dict:
        """The per-client part of the downlink (FedProto/Fed-ET personal
        model state); empty for parameter-averaging methods."""
        return {}

    def pack_broadcast(self, client_id: int, version: int) -> dict:
        """Full picklable downlink for one client's work item (round part
        plus per-client part; the buffered policy uses this per dispatch,
        where every dispatch sees a different server version)."""
        return {**self.pack_round_broadcast(version),
                **self.pack_client_broadcast(client_id, version)}

    def pack_client_state(self, client_id: int) -> dict | None:
        """Persistent per-client state a worker must return to the
        coordinator after training (``None`` when the algorithm keeps no
        such state — parameter-averaging methods rebuild client models
        from the global state every round)."""
        return None

    def apply_client_state(self, client_id: int, state: dict | None) -> None:
        """Absorb a worker's returned per-client state (inverse of
        :meth:`pack_client_state`; no-op for stateless algorithms and for
        inline execution, where the state was trained in place)."""

    def run_client(self, client_id: int, version: int,
                   rng: np.random.Generator,
                   broadcast: dict | None = None) -> ClientUpdate:
        """Train one client from the global state at version ``version``
        and package its upload.

        ``broadcast`` is the downlink payload from :meth:`pack_broadcast`;
        ``None`` reads the live coordinator state (the inline executor's
        zero-copy path).
        """
        ctx = self.clients[int(client_id)]
        state = None if broadcast is None else broadcast["global_state"]
        model, maps = self.build_client_model(ctx, version, rng, state=state)
        reseed_dropout(model, rng)
        loss = train_local(model, ctx.shard.x, ctx.shard.y,
                           self.train_config, rng,
                           loss_fn=self.local_loss_fn(ctx, model))
        state = model.state_dict()
        keep = self.upload_filter(model, ctx)
        if keep is not None:
            state = {k: v for k, v in state.items() if k in keep}
            maps = {k: m for k, m in maps.items() if k in keep}
        return ClientUpdate(
            client_id=ctx.client_id, version=version, train_loss=loss,
            round_time_s=self.client_round_time_s(ctx),
            weight=float(ctx.num_samples), payload=(state, maps))

    def ingest(self, updates: Iterable[ClientUpdate], round_index: int,
               rng: np.random.Generator) -> RoundOutcome:
        """Aggregate a batch of client updates into the global state.

        ``updates`` may be any single-pass iterable — the synchronous round
        streams a generator through so only one client's update is alive at
        a time; the event-driven policies pass materialized buffers.

        Ingestion always happens on the coordinator, in the round's
        *dispatch* order (never completion order): floating-point
        accumulation order is part of the result, and dispatch order is the
        one ordering every executor agrees on.
        """
        sums = zeros_like_state(self.global_state)
        counts = zeros_like_state(self.global_state)
        slowest = 0.0
        losses = []
        for update in updates:
            state, maps = update.payload
            scatter_accumulate(sums, counts, state, maps,
                               weight=update.weight * update.discount)
            slowest = max(slowest, update.round_time_s)
            losses.append(update.train_loss)
        old_state = self.global_state
        self.global_state = finalize_mean(sums, counts, self.global_state)
        self.post_aggregate(old_state, round_index)
        return RoundOutcome(
            slowest_client_s=slowest,
            mean_train_loss=float(np.mean(losses)) if losses else 0.0)

    def run_round(self, round_index: int, sampled_ids: Sequence[int],
                  rng: np.random.Generator,
                  run_seed: int = 0) -> RoundOutcome:
        """Convenience synchronous round: train ``sampled_ids`` in order,
        then aggregate.

        Per-client randomness comes from the canonical
        ``(run_seed, round, client_id)`` derivation — the same streams the
        executor-backed loops use — while ``rng`` drives coordinator-side
        aggregation (e.g. Fed-ET's server distillation).
        """
        from ..fl.seeding import client_rng

        def updates():
            for client_id in sampled_ids:
                update = self.run_client(client_id, round_index,
                                         client_rng(run_seed, round_index,
                                                    client_id))
                # Absorb persistent per-client state (FedProto/Fed-ET
                # personal models) just as the executor-backed loops do.
                self.apply_client_state(client_id,
                                        self.pack_client_state(client_id))
                yield update

        return self.ingest(updates(), round_index, rng)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    # The two hooks :mod:`repro.fl.checkpoint` composes with the JSON
    # payload codecs: everything returned must survive ``encode_payload``
    # (arrays, dicts, scalars; dict keys become strings, so restorers of
    # int-keyed maps convert back).  Algorithms with server-side state
    # beyond ``global_state`` (FedProto prototypes, Fed-ET ensemble model,
    # persistent personal models) extend both sides symmetrically.

    def checkpoint_state(self) -> dict:
        """Server-side aggregate state a resumed run must restore."""
        return {"global_state": {k: v.copy()
                                 for k, v in self.global_state.items()}}

    def restore_checkpoint_state(self, state: dict) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        self.global_state = dict(state["global_state"])

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _global_model(self) -> SliceableModel:
        if self._eval_model is None:
            self._eval_model = self.base_model.variant()
        self._eval_model.load_state_dict(self.global_state)
        return self._eval_model

    def evaluate_global(self) -> float:
        """Global accuracy: the full aggregated model on the global test set."""
        return accuracy(self._global_model(), self.x_eval, self.y_eval)

    def _eval_ids(self) -> list[int]:
        """The evaluation clients: an even stride through the fleet."""
        ids = sorted(self.clients)
        stride = max(1, len(ids) // self.eval_clients)
        return ids[::stride][:self.eval_clients]

    def per_device_accuracies(self) -> list[float]:
        """Final accuracy of each evaluation client's own deployed variant.

        Every client is built, in order (Fjord draws from ``rng``), but
        ``build_client_model`` hands out one model per resolved overrides,
        loaded with the same round-0 slice: each is evaluated once.
        """
        rng = np.random.default_rng(0)
        seen: dict[SliceableModel, float] = {}  # keyed by the object itself
        accs = []
        for client_id in self._eval_ids():
            ctx = self.clients[client_id]
            model, _ = self.build_client_model(ctx, round_index=0, rng=rng)
            if model not in seen:
                seen[model] = accuracy(model, self.x_eval, self.y_eval)
            accs.append(seen[model])
        return accs

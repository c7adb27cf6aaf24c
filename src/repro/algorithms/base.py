"""Algorithm interface + shared machinery for parameter-averaging MHFL.

Every algorithm binds together:

* a **base model** — the server-side full model (its state, as one flat
  vector, is the global model of parameter-averaging methods);
* **clients** — shard + sampled device capability + the pool entry assigned
  by the active constraint case;
* a **variant space** — the capacity levels the method offers (width
  multipliers, depth fractions, family members), measured into a
  :class:`~repro.hw.ModelPool` that the constraint cases select from;
* hooks — ``load_client`` / ``upload`` (the two ends of a client round:
  here a capacity level's slice, loaded by ``build_client_model``),
  ``local_loss_fn`` (algorithm-specific objectives) and ``post_aggregate``
  (e.g. InclusiveFL's momentum distillation).

The global model of :class:`ParameterAveragingAlgorithm` (every method but
the topology level's, :mod:`repro.algorithms.personal`) is one float32
vector (``global_vector``) laid out like the base model's state; a capacity
level is one memoised index into it (see :mod:`repro.models.slicing`), and
an upload is ``(values, key)``, the key naming the index the coordinator
resolves to aggregate it.

An algorithm pickles without its working set (the level skeletons), so a
process pool started by ``spawn`` or ``forkserver`` hands each worker a copy
that trains exactly as the coordinator's object does.

The simulated clock charges each sampled client with *nominal* local
training over its full shard (per the cost model) even when ``max_batches``
caps the actual CPU work — the simulation runs a scaled-down computation but
accounts paper-scale time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ..data.dataset import FederatedDataset, Subset
from ..fl.client import LocalTrainConfig, train_local
from ..fl.evaluate import accuracy
from ..fl.executor import ClientResult
from ..fl.seeding import reseed_dropout
from ..hw.cost_model import CostModel, DEFAULT_COST_MODEL
from ..hw.ima import ClientCapability
from ..hw.model_pool import ModelPool, PoolEntry
from ..models.base import SliceableModel
from ..models.slicing import (Index, extract_substate, finalize_mean,
                              scatter_accumulate, width_index_maps)
from ..nn.module import Layout

__all__ = ["ClientContext", "SubIndex", "MHFLAlgorithm",
           "ParameterAveragingAlgorithm", "WIDTH_LEVELS", "DEPTH_LEVELS",
           "assign_levels_uniformly"]

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


class SubIndex(NamedTuple):
    """Where one upload key's values sit, memoised per key.

    ``index`` places the upload in the global vector, ``take`` picks it out
    of the level skeleton's buffer (``slice(None)``: all of it) and
    ``bounds`` are its entries' bounds in the upload."""

    index: Index
    take: Index
    bounds: tuple[int, ...]


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
    """Base class: clients, level skeletons, costs, the client round and
    scoring.  Each family fills ``pack_round_broadcast``, ``load_client`` /
    ``upload``, ``ingest``, ``checkpoint_state`` /
    ``restore_checkpoint_state``, ``global_task`` / ``device_tasks`` and
    ``eval_vector`` (the state a task's level skeleton loads):
    :class:`ParameterAveragingAlgorithm` from one global vector,
    :class:`~repro.algorithms.personal.PersonalModelAlgorithm` from
    per-client vectors."""

    #: registry name, heterogeneity level.
    name: str = "base"
    level: str = "width"              # "width" | "depth" | "topology" | "homogeneous"
    #: whether NLP tasks are supported (the paper omits some methods on NLP).
    supports_nlp: bool = True

    #: overrides applied when the scenario builds the server-side base model
    #: (DepthFL needs auxiliary heads at every stage boundary).
    base_model_overrides: dict = {}

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

        cap = min(eval_max_samples, dataset.num_test)
        self.x_eval = dataset.x_test[:cap]
        self.y_eval = dataset.y_test[:cap]
        #: level key (sorted ``client_overrides`` items) -> the one model at
        #: that level, its bound state buffer and that buffer's layout.
        self._client_models: dict[
            tuple, tuple[SliceableModel, np.ndarray, Layout]] = {}
        #: level key -> the pool entry that measured it (layout, FLOPs), for
        #: every level a client may train (its own, or a pool level Fjord
        #: draws); kept apart from ``pool``, which an ablation may drop.
        self._entries: dict[tuple, PoolEntry] = {
            tuple(sorted(entry.overrides.items())): entry
            for entry in [*(ctx.entry for ctx in self.clients.values()),
                          *(pool.entries if pool is not None else ())]}

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
    def build_pool(cls, base_model: SliceableModel) -> ModelPool:
        """Measure the variant space into a model pool."""
        return ModelPool.from_variants(base_model,
                                       cls.variant_space(base_model))

    def _build_level(self, level: tuple) -> SliceableModel:
        """A model at capacity level ``level`` (weights loaded before use)."""
        return self.base_model.variant(**dict(level))

    def _level_model(self, level: tuple
                     ) -> tuple[SliceableModel, np.ndarray, Layout]:
        """The one model at capacity level ``level``, its state bound to one
        buffer (built on first use), that every state trained or scored at
        that level is loaded into.  A load overwrites every parameter and
        buffer and dropout is reseeded, so the reuse cannot change a
        result."""
        found = self._client_models.get(level)
        if found is None:
            model = self._build_level(level)
            found = self._client_models[level] = (model, *model.bind_state())
        return found

    def release_working_set(self) -> None:
        """Drop what a run trains in — the level skeletons, with their
        bound buffers and last gradients — and keep its results.  They
        rebuild lazily on next use, which cannot change a result."""
        self._client_models.clear()

    def __getstate__(self) -> dict:
        """Pickle without the level skeletons (a pool worker's copy under
        ``spawn`` / ``forkserver``): unpickled, a skeleton's parameters
        would no longer be views of its bound buffer.  They rebuild lazily,
        as after :meth:`release_working_set`."""
        return {**self.__dict__, "_client_models": {}}

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def local_loss_fn(self, ctx: ClientContext, model: SliceableModel,
                      rng: np.random.Generator, broadcast: dict):
        """Local objective as a ``train_local`` loss hook (it may read the
        client's read-only ``broadcast`` and draw from ``rng``); default
        cross-entropy on the deepest head."""
        return None  # train_local's default CE

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

    def client_work(self, ctx: ClientContext) -> float:
        """Predicted host work of one local round (forward FLOPs over the
        samples actually computed under ``max_batches``).  A pool uses it
        only to order submission, so a wrong guess costs time, never bits
        (Fjord, say, draws its level per round)."""
        config = self.train_config
        samples = ctx.num_samples
        if config.max_batches is not None:
            samples = min(samples, config.max_batches * config.batch_size)
        return (ctx.entry.stats.flops_per_sample * samples
                * config.local_epochs)

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
    #
    # ``run_client`` is a *pure* function of ``(broadcast, rng)``: it reads
    # no coordinator state that changes between rounds, only the downlink
    # it was handed, and every random draw comes from the caller's ``rng``
    # (derived from ``(run_seed, round, client_id)`` by the execution
    # layer).  That purity is what lets :mod:`repro.fl.executor` run clients
    # inline or in pool processes through one code path.  It is written
    # once (load, reseed dropout, train, upload; each family fills the two
    # ends) and returns a :class:`ClientResult` of what the client
    # computed, the state the device keeps included (FedProto/Fed-ET's
    # trained vector, else ``None``), which ``apply_client_state``
    # absorbs.  ``ingest`` returns nothing: the coordinator holds the rest.

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

    def apply_client_state(self, client_id: int, state) -> None:
        """Absorb the per-client state :meth:`run_client` returned (none
        for parameter-averaging methods)."""

    def run_client(self, client_id: int, version: int,
                   rng: np.random.Generator,
                   broadcast: dict | None = None) -> ClientResult:
        """Train one client from the server state at version ``version``;
        returns what it computed.

        ``broadcast`` is the downlink payload from :meth:`pack_broadcast`,
        the only server state the client reads; ``None`` packs it here.
        """
        if broadcast is None:
            broadcast = self.pack_broadcast(client_id, version)
        ctx = self.clients[int(client_id)]
        model, key = self.load_client(ctx, version, rng, broadcast)
        reseed_dropout(model, rng)
        loss = train_local(model, ctx.shard.x, ctx.shard.y,
                           self.train_config, rng,
                           loss_fn=self.local_loss_fn(ctx, model, rng,
                                                      broadcast))
        weight, payload, state = self.upload(ctx, model, key)
        return ClientResult(train_loss=loss, weight=weight, payload=payload,
                            client_state=state)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    # An evaluation is a *task*, a hashable key naming the model it scores
    # and, as ``task[1]``, the level whose skeleton that model loads into.
    # :meth:`score` is a pure function of the task and that skeleton's
    # state (:meth:`eval_vector`), as ``run_client`` is of its downlink: the
    # one place a model's accuracy is defined.  Every accuracy a run
    # records, per round or final, is an executor work item of a task
    # :meth:`evaluation` names; the coordinator scores nothing.

    def eval_cost(self, task: tuple) -> float:
        """Predicted work of scoring ``task``, in :meth:`client_work`'s
        unit: its level's forward FLOPs over the evaluation samples (the
        largest level's for a level no entry measured: the base model).
        Like :meth:`client_work` it only orders a pool batch."""
        entry = self._entries.get(task[1]) or max(
            self._entries.values(),
            key=lambda entry: entry.stats.flops_per_sample)
        return entry.stats.flops_per_sample * len(self.x_eval)

    def score(self, task: tuple, vector: np.ndarray) -> float:
        """Accuracy of the model ``task`` names, its level's skeleton
        loaded with ``vector``, on the global test set."""
        model, buffer, _ = self._level_model(task[1])
        buffer[...] = vector
        return accuracy(model, self.x_eval, self.y_eval)

    def _scored(self) -> dict:
        """Device accuracies, by task, that still hold for the live state
        (none by default: a global vector moves every round)."""
        return {}

    def evaluation(self, with_global: bool, with_devices: bool):
        """What scores the live state's global accuracy (if
        ``with_global``) and each evaluation client's (if
        ``with_devices``): ``(tasks, read)``, the distinct tasks not yet
        scored, the global one first, and ``read(accuracies) -> (global
        accuracy or None, device accuracies)``.

        A client whose task is the global one reuses its accuracy; a
        global task of ``None`` is the mean of the clients' accuracies.
        Only device tasks are kept in :meth:`_scored` (Fed-ET's server
        task would read stale a round later)."""
        wanted = self.global_task() if with_global else None
        devices = (self.device_tasks()
                   if with_devices or (with_global and wanted is None)
                   else [])
        cache = self._scored()
        scored = {task: cache[task] for task in devices if task in cache}
        tasks = [task for task in dict.fromkeys([wanted, *devices])
                 if task is not None and task not in scored]

        def read(accuracies: list[float]):
            scored.update(zip(tasks, accuracies))
            cache.update((task, scored[task]) for task in devices)
            per_device = [scored[task] for task in devices]
            if with_global and wanted is None:
                return float(np.mean(per_device)), per_device
            return scored.get(wanted), per_device

        return tasks, read

    def _eval_ids(self) -> list[int]:
        """The evaluation clients: an even stride through the fleet."""
        ids = sorted(self.clients)
        stride = max(1, len(ids) // self.eval_clients)
        return ids[::stride][:self.eval_clients]


class ParameterAveragingAlgorithm(MHFLAlgorithm):
    """Coordinate-wise averaged MHFL over one global vector."""

    #: how a level's slice sits in the global vector.
    slicing_mode: str = "prefix"      # "prefix" | "rolling"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.layout = self.base_model.state_layout()
        #: the global model, laid out by ``layout``: the source of truth
        #: (``global_state`` views it; aggregation replaces it).
        self.global_vector = self.layout.pack(self.base_model.state_dict())
        self.scale_axes = self.base_model.state_scale_axes()
        #: upload key -> its :class:`SubIndex`, for one rolling shift.
        self._indices: dict[tuple, SubIndex] = {}
        self._indices_shift = 0
        #: sub layout -> the plan every shift's index of it is built from.
        self._plans: dict = {}

    @property
    def global_state(self) -> dict[str, np.ndarray]:
        """The global model as ``name -> array`` views into
        ``global_vector`` (writes go through)."""
        return self.layout.views(self.global_vector)

    def rolling_shift(self, round_index: int) -> int:
        """Window shift for rolling extraction (FedRolex overrides)."""
        return 0

    def client_overrides(self, ctx: ClientContext, round_index: int,
                         rng: np.random.Generator) -> dict:
        """Constructor overrides for this client's model this round."""
        return dict(ctx.entry.overrides)

    def prepare_client_model(self, model: SliceableModel, ctx: ClientContext,
                             round_index: int) -> None:
        """Post-load setup (FeDepth freezes a stage segment here)."""

    def post_aggregate(self, old_vector: np.ndarray,
                       round_index: int) -> None:
        """Called after the global vector is replaced by a new one
        (InclusiveFL hook); ``old_vector`` is the previous round's."""

    def upload_segment(self, ctx: ClientContext, round_index: int):
        """The part of its level's state a client uploads (``None``: all of
        it), as a hashable key that ``upload_names(layout, segment)`` turns
        into entry names.  FeDepth uploads the stage segment it trained, so
        frozen copies never dilute other clients' updates."""
        return None

    def resolve_upload(self, key: tuple) -> SubIndex:
        """The :class:`SubIndex` of an upload key ``(level, shift,
        segment)``, memoised while the rolling shift stays the same (it
        advances every FedRolex round, so older shifts are dropped)."""
        found = self._indices.get(key)
        if found is None:
            level, shift, segment = key
            if shift != self._indices_shift:
                self._indices, self._indices_shift = {}, shift
            layout, take = self._entries[level].layout, slice(None)
            if segment is not None:
                upload = layout.select(self.upload_names(layout, segment))
                take = width_index_maps(layout, upload, {})
                layout = upload
            index = width_index_maps(self.layout, layout, self.scale_axes,
                                     mode=self.slicing_mode, shift=shift,
                                     plans=self._plans)
            found = self._indices[key] = SubIndex(index, take, layout.bounds)
        return found

    def release_working_set(self) -> None:
        """Also drop the memoised upload maps and their plans."""
        super().release_working_set()
        self._indices, self._indices_shift = {}, 0
        self._plans.clear()

    def build_client_model(self, ctx: ClientContext, round_index: int,
                           rng: np.random.Generator,
                           state: np.ndarray | None = None
                           ) -> tuple[SliceableModel, tuple]:
        """Load the client's slice of the global vector into its level's
        model; returns the model and the key its upload resolves by.

        ``state`` is the global vector to slice from: a client passes its
        downlink's copy, so training never races coordinator aggregation;
        ``None`` reads the live vector.

        One model is kept per distinct ``client_overrides`` (a handful of
        keys) and handed out again, so it is valid only until the next call
        at the same level.  Reuse cannot change results: the extraction
        overwrites every parameter and buffer, gradients and the trainable
        mask are reset here, and callers reseed dropout.
        """
        overrides = self.client_overrides(ctx, round_index, rng)
        level = tuple(sorted(overrides.items()))
        model, buffer, _ = self._level_model(level)
        shift = self.rolling_shift(round_index)
        extract_substate(self.global_vector if state is None else state,
                         self.resolve_upload((level, shift, None)).index,
                         out=buffer)
        for param in model.parameters():
            param.grad = None
            param.requires_grad = True
        self.prepare_client_model(model, ctx, round_index)
        return model, (level, shift, self.upload_segment(ctx, round_index))

    def pack_round_broadcast(self, version: int) -> dict:
        """The client-independent part of the downlink at ``version``.

        The base payload is a copy of the global vector — the worker slices
        it with the same index the inline path uses, so per-round random
        widths (Fjord) and rolling windows (FedRolex) need no
        coordinator-side replication.  Copying decouples the snapshot from
        in-place post-aggregation updates (InclusiveFL), which matters for
        buffered execution where dispatch and aggregation interleave.
        Synchronous dispatchers pack this **once per round** and share the
        (read-only) array across every client's work item.
        """
        return {"global_state": self.global_vector.copy()}

    def load_client(self, ctx: ClientContext, version: int,
                    rng: np.random.Generator, broadcast: dict):
        """The model a client trains, loaded from its ``broadcast``, and
        what :meth:`upload` reads it back by (here its level's slice and
        upload key)."""
        return self.build_client_model(ctx, version, rng,
                                       state=broadcast["global_state"])

    def upload(self, ctx: ClientContext, model: SliceableModel,
               key) -> tuple[float, object, object]:
        """``(weight, payload, kept state)`` of a trained client: here its
        sample count and the ``(values, key)`` it uploads."""
        values = extract_substate(self._level_model(key[0])[1],
                                  self.resolve_upload(key).take)
        return float(ctx.num_samples), (values, key), None

    def ingest(self, updates: Iterable[ClientResult], round_index: int,
               rng: np.random.Generator) -> None:
        """Aggregate a batch of client updates into the global state.

        ``updates`` may be any single-pass iterable — the synchronous round
        streams a generator through so only one client's update is alive at
        a time; the event-driven policies pass materialized buffers.

        Ingestion always happens on the coordinator, in the round's
        *dispatch* order (never completion order): floating-point
        accumulation order is part of the result, and dispatch order is the
        one ordering every executor agrees on.  An update's ``weight`` is
        final: the buffered policy has already discounted a stale one.
        """
        sums = np.zeros(self.layout.size)
        counts = np.zeros(self.layout.size)
        for update in updates:
            values, key = update.payload
            scatter_accumulate(sums, counts, values,
                               self.resolve_upload(key).index,
                               weight=update.weight)
        old_vector = self.global_vector
        self.global_vector = finalize_mean(sums, counts, old_vector)
        self.post_aggregate(old_vector, round_index)

    def checkpoint_state(self) -> dict:
        """Server-side aggregate state a resumed run must restore."""
        return {"global_state": self.layout.views(self.global_vector.copy())}

    def restore_checkpoint_state(self, state: dict) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        self.global_vector = self.layout.pack(state["global_state"])

    # Evaluation: ``("level", level)`` tasks, scored from the level's
    # round-0 slice of the global vector.
    def _builds_base(self, overrides: dict) -> bool:
        """Whether these constructor overrides build exactly the base
        model (then its level's slice is the whole global vector)."""
        base = self.base_model._build_kwargs
        return {**base, **overrides} == base

    def _full_level(self) -> tuple:
        """The level the full model is scored at: the trainable level that
        builds the base model (so a pool worker that trained it already
        holds its skeleton), else ``()``."""
        for level, entry in self._entries.items():
            if self._builds_base(entry.overrides):
                return level
        return ()

    def _eval_level(self, overrides: dict) -> tuple:
        """The level a model of these constructor overrides is scored at:
        the full model's when they build the base model."""
        if self._builds_base(overrides):
            return self._full_level()
        return tuple(sorted(overrides.items()))

    def global_task(self) -> tuple | None:
        """What the global accuracy scores: the full aggregated model."""
        return ("level", self._full_level())

    def device_tasks(self) -> list[tuple]:
        """What each evaluation client's final accuracy scores: its own
        deployed level, resolved in client order (Fjord draws it from
        ``default_rng(0)``) and sliced as at round 0."""
        rng = np.random.default_rng(0)
        return [("level", self._eval_level(
                    self.client_overrides(self.clients[cid], 0, rng)))
                for cid in self._eval_ids()]

    def eval_vector(self, task: tuple) -> np.ndarray:
        """The level's round-0 slice of the live global vector, cut with
        its pool entry's layout (``()``: the base model's)."""
        level = task[1]
        layout = self._entries[level].layout if level else self.layout
        return self.global_vector[width_index_maps(
            self.layout, layout, self.scale_axes, mode=self.slicing_mode,
            shift=self.rolling_shift(0), plans=self._plans)]

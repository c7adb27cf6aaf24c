"""Topology-level base: every client keeps a *personal* model.

FedProto and Fed-ET exchange knowledge (prototypes, public-set logits), not
parameters, so each client's model of its own architecture persists across
rounds on the coordinator.  This base owns that lifecycle once — the
canonical copies, their work-item transport, the detached training step
and their share of checkpoints and evaluation; a subclass supplies
``_build_personal``, its local loss, its upload and its server side.

Two reuses, neither able to change a result: training runs in one *skeleton*
per capacity level (``load_state_dict`` overwrites every parameter and buffer,
dropout is reseeded, the optimiser is per round, gradients are dropped after
the upload), and a deployed model's accuracy on the fixed evaluation split is
kept until a writer of the canonical copy (``apply_client_state``,
``restore_checkpoint_state``) replaces its weights.
"""

from __future__ import annotations

from .. import nn
from ..fl.client import train_local
from ..fl.evaluate import accuracy
from ..fl.seeding import reseed_dropout
from ..models.base import SliceableModel
from ..models.zoo import MODEL_FAMILIES
from .base import ClientContext, ClientUpdate, MHFLAlgorithm, WIDTH_LEVELS

__all__ = ["PersonalModelAlgorithm"]


class PersonalModelAlgorithm(MHFLAlgorithm):
    """Heterogeneous architectures, one persistent model per client."""

    level = "topology"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._personal: dict[int, nn.Module] = {}
        #: trained-but-not-yet-absorbed states, keyed by client id (filled
        #: by run_client, drained by pack_client_state — two hooks addressed
        #: by client id; a pool worker is a process with its own replica).
        self._trained: dict[int, dict] = {}
        #: ``ctx.entry.key`` -> the model every client at that level trains in.
        self._skeletons: dict[str, nn.Module] = {}
        #: client id -> accuracy of its canonical model as it stands (derived
        #: state of the coordinator: never checkpointed, never serialised).
        self._accuracies: dict[int, float] = {}

    @classmethod
    def variant_space(cls, base_model: SliceableModel) -> dict[str, dict]:
        """Family members as capacity levels; width fallback outside families.

        The customized Transformer has no published family, so its
        "topologies" are width-scaled customisations — matching the paper's
        note that some methods/configurations do not apply to every task.
        """
        arch = base_model._build_kwargs.get("arch")
        for members in MODEL_FAMILIES.values():
            if arch in members:
                return {name: {"arch": name} for name in members}
        return {f"x{m:.2f}": {"width_mult": m} for m in WIDTH_LEVELS}

    # ------------------------------------------------------------------
    def _build_personal(self, ctx: ClientContext) -> nn.Module:
        """A freshly-initialised personal model (deterministic per client)."""
        raise NotImplementedError

    def _local_loss(self, model: nn.Module, rng, broadcast: dict | None):
        """The client objective as a ``train_local`` loss hook, reading the
        server's knowledge from ``broadcast`` (``None`` = live state)."""
        raise NotImplementedError

    def _upload(self, model: nn.Module,
                ctx: ClientContext) -> tuple[float, object]:
        """``(aggregation weight, payload)`` of a trained client."""
        raise NotImplementedError

    def personal_model(self, ctx: ClientContext) -> nn.Module:
        """The coordinator's canonical copy of one client's deployed model.

        Only :meth:`apply_client_state` advances it — ``run_client`` trains
        a detached copy, so a client's deployed model updates exactly when
        its upload is accepted, identically under every executor (an
        in-flight client evaluated mid-round still shows its old model).
        """
        model = self._personal.get(ctx.client_id)
        if model is None:
            model = self._build_personal(ctx)
            self._personal[ctx.client_id] = model
        return model

    # ------------------------------------------------------------------
    # Work-item transport: beside the subclass's round broadcast, the
    # downlink carries the client's own personal-model state (a pool
    # worker's replica is stale until this refreshes it); the uplink hands
    # the trained personal state back.
    # ------------------------------------------------------------------
    def pack_client_broadcast(self, client_id: int, version: int) -> dict:
        ctx = self.clients[int(client_id)]
        return {"personal": self.personal_model(ctx).state_dict()}

    def pack_client_state(self, client_id: int) -> dict | None:
        return {"personal": self._trained.pop(int(client_id))}

    def apply_client_state(self, client_id: int, state: dict | None) -> None:
        if state is not None:
            ctx = self.clients[int(client_id)]
            self.personal_model(ctx).load_state_dict(state["personal"])
            self._accuracies.pop(ctx.client_id, None)

    def run_client(self, client_id: int, version: int, rng,
                   broadcast: dict | None = None) -> ClientUpdate:
        ctx = self.clients[int(client_id)]
        # Train detached, in the level's skeleton; the canonical personal
        # model advances via apply_client_state when the upload is accepted
        # (see personal_model's docstring for why the split matters).
        model = self._skeletons.get(ctx.entry.key)
        if model is None:
            model = self._skeletons[ctx.entry.key] = self._build_personal(ctx)
            model.bind_state()
        model.load_state_dict(self.personal_model(ctx).state_dict()
                              if broadcast is None
                              else broadcast["personal"])
        reseed_dropout(model, rng)
        loss = train_local(model, ctx.shard.x, ctx.shard.y,
                           self.train_config, rng,
                           loss_fn=self._local_loss(model, rng, broadcast))
        self._trained[ctx.client_id] = model.state_dict()
        weight, payload = self._upload(model, ctx)
        model.zero_grad()  # grads to None: the skeleton keeps weights only
        return ClientUpdate(
            client_id=ctx.client_id, version=version, train_loss=loss,
            round_time_s=self.client_round_time_s(ctx), weight=weight,
            payload=payload)

    # ------------------------------------------------------------------
    # Every materialised personal model is resumable state (checkpoint
    # keys become strings in the JSON codec, hence the int() on restore);
    # subclasses add their server-side entries in front.
    def checkpoint_state(self) -> dict:
        return {"personal": {cid: model.state_dict()
                             for cid, model in self._personal.items()}}

    def restore_checkpoint_state(self, state: dict) -> None:
        for cid, personal_state in state["personal"].items():
            ctx = self.clients[int(cid)]
            self.personal_model(ctx).load_state_dict(personal_state)
        self._accuracies.clear()

    def per_device_accuracies(self) -> list[float]:
        """Each evaluation client's deployed model, evaluated once per
        version of its weights (FedProto's ``evaluate_global`` averages it)."""
        for client_id in self._eval_ids():
            if client_id not in self._accuracies:
                self._accuracies[client_id] = accuracy(
                    self.personal_model(self.clients[client_id]),
                    self.x_eval, self.y_eval)
        return [self._accuracies[client_id] for client_id in self._eval_ids()]

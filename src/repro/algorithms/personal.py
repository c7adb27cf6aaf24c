"""Topology-level base: every client keeps a *personal* model.

FedProto and Fed-ET exchange knowledge (prototypes, public-set logits), not
parameters, so each client's model of its own architecture persists across
rounds on the coordinator.  This base owns that lifecycle once — the
per-client vectors, their work-item transport (down in the broadcast, back
as the ``client_state`` of ``run_client``'s result), the two ends of the
shared client round (load the client's vector, hand back the trained one
beside the knowledge upload) and their share of checkpoints and
evaluation; a subclass supplies ``_build_personal``, its
``local_loss_fn``, its ``_knowledge`` upload and its server side.

A personal model is one float32 vector laid out like its capacity level,
loaded into that level's one skeleton (``_level_model``) to train or
evaluate: the load overwrites every parameter and buffer, dropout is
reseeded, the optimiser is per round and gradients are dropped after the
upload, so the reuse cannot change a result.  A deployed model's accuracy
(task ``("personal", client_id)``, scored from the client's vector) is kept
until a writer of its vector replaces it.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..fl.evaluate import accuracy
from ..models.base import SliceableModel
from ..models.zoo import MODEL_FAMILIES
from .base import ClientContext, MHFLAlgorithm, WIDTH_LEVELS

__all__ = ["PersonalModelAlgorithm"]


class PersonalModelAlgorithm(MHFLAlgorithm):
    """Heterogeneous architectures, one persistent model per client."""

    level = "topology"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: client id -> its deployed model's state, laid out like its level.
        self._personal: dict[int, np.ndarray] = {}
        #: ``("personal", client id)`` -> accuracy of its deployed model as
        #: it stands (derived state of the coordinator: never checkpointed,
        #: never serialised).
        self._accuracies: dict[tuple, float] = {}

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

    def _knowledge(self, model: nn.Module,
                   ctx: ClientContext) -> tuple[float, object]:
        """``(aggregation weight, payload)`` of a trained client: what it
        shares with the server instead of its parameters."""
        raise NotImplementedError

    def _skeleton(self, client_id: int):
        """The client's level model, its state buffer and layout."""
        overrides = self.clients[int(client_id)].entry.overrides
        return self._level_model(tuple(sorted(overrides.items())))

    def _vector(self, ctx: ClientContext) -> np.ndarray:
        """One client's deployed state (its seeded initialisation, packed
        once, until an accepted upload replaces it)."""
        vector = self._personal.get(ctx.client_id)
        if vector is None:
            vector = self._build_personal(ctx).bind_state()[0]
            self._personal[ctx.client_id] = vector
        return vector

    def personal_model(self, ctx: ClientContext,
                       vector: np.ndarray | None = None) -> nn.Module:
        """One client's deployed model: its level's skeleton, loaded with
        its vector (or ``vector``, a copy of it sent elsewhere).
        ``run_client`` trains a copy and returns it, so the deployed model
        moves only when the coordinator absorbs that result, under every
        executor (an in-flight client still shows its old one).
        """
        model, buffer, _ = self._skeleton(ctx.client_id)
        buffer[...] = self._vector(ctx) if vector is None else vector
        return model

    # ------------------------------------------------------------------
    # Work-item transport: beside the subclass's round broadcast, the
    # downlink carries a copy of the client's own personal vector (built
    # here on first use; a pool worker's replica never holds it), and the
    # shared ``run_client`` trains it in the level's skeleton and returns
    # the trained vector as the result's kept state.
    # ------------------------------------------------------------------
    def pack_client_broadcast(self, client_id: int, version: int) -> dict:
        return {"personal": self._vector(self.clients[int(client_id)]).copy()}

    def apply_client_state(self, client_id: int, state: np.ndarray) -> None:
        self._personal[int(client_id)] = state
        self._accuracies.pop(("personal", int(client_id)), None)

    def load_client(self, ctx: ClientContext, version: int, rng,
                    broadcast: dict):
        model, buffer, _ = self._skeleton(ctx.client_id)
        buffer[...] = broadcast["personal"]
        return model, buffer

    def upload(self, ctx: ClientContext, model: nn.Module, buffer):
        trained = buffer.copy()
        weight, payload = self._knowledge(model, ctx)
        model.zero_grad()  # grads to None: the skeleton keeps weights only
        return weight, payload, trained

    # ------------------------------------------------------------------
    # Every materialised personal model is resumable state, written as its
    # level's ``name -> array`` entries (checkpoint keys become strings in
    # the JSON codec, hence the int() on restore); subclasses add their
    # server-side entries in front.
    def checkpoint_state(self) -> dict:
        return {"personal": {cid: self._skeleton(cid)[2].views(vector.copy())
                             for cid, vector in self._personal.items()}}

    def restore_checkpoint_state(self, state: dict) -> None:
        for cid, personal_state in state["personal"].items():
            self._personal[int(cid)] = self._skeleton(cid)[2].pack(
                personal_state)
        self._accuracies.clear()

    # ------------------------------------------------------------------
    # Evaluation: each evaluation client's deployed model is scored from
    # its own vector, once per version of its weights.
    def global_task(self) -> tuple | None:
        """No global model: the mean of the clients' accuracies."""
        return None

    def device_tasks(self) -> list[tuple]:
        return [("personal", cid) for cid in self._eval_ids()]

    def eval_vector(self, task: tuple) -> np.ndarray:
        if task[0] != "personal":
            return super().eval_vector(task)
        return self._vector(self.clients[task[1]])

    def eval_cost(self, task: tuple) -> float:
        if task[0] != "personal":
            return super().eval_cost(task)
        return (self.clients[task[1]].entry.stats.flops_per_sample
                * len(self.x_eval))

    def score(self, task: tuple, vector: np.ndarray) -> float:
        if task[0] != "personal":
            return super().score(task, vector)
        return accuracy(self.personal_model(self.clients[task[1]], vector),
                        self.x_eval, self.y_eval)

    def _scored(self) -> dict:
        return self._accuracies

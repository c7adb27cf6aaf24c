"""Topology-level base: every client keeps a *personal* model.

FedProto and Fed-ET exchange knowledge (prototypes, public-set logits), not
parameters, so each client's model of its own architecture persists across
rounds on the coordinator.  This base owns that lifecycle once — the
per-client vectors, their work-item transport (down in the broadcast, back
as the ``client_state`` of ``run_client``'s result), the two ends of the
shared client round (load the client's vector, hand back the trained one
beside the knowledge upload) and their share of checkpoints and
evaluation; a subclass supplies ``_build_personal(ctx)`` (a client's
freshly-initialised model, deterministic per client), its
``local_loss_fn``, its ``_knowledge(model, ctx) -> (weight, payload)``
upload (what a client shares instead of its parameters) and its server
side.  There is no global vector, upload map or parameter averaging.

A personal model is one float32 vector laid out like its capacity level,
loaded into that level's one skeleton (``_level_model``) to train or
evaluate: the load overwrites every parameter and buffer, dropout is
reseeded, the optimiser is per round and gradients are dropped after the
upload, so the reuse cannot change a result.  A deployed model's accuracy
(task ``("personal", level, client_id)``, scored from the client's vector
in that level's skeleton) is kept until a writer of its vector replaces
it.
"""

from __future__ import annotations

import numpy as np

from .. import nn
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
        #: ``("personal", level, client id)`` -> accuracy of its deployed
        #: model as it stands (derived state of the coordinator: never
        #: checkpointed, never serialised).
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
    def _task(self, client_id: int) -> tuple:
        """``("personal", level, client id)``: the client's deployed model,
        scored in its level's skeleton."""
        overrides = self.clients[int(client_id)].entry.overrides
        return ("personal", tuple(sorted(overrides.items())), int(client_id))

    def _skeleton(self, client_id: int):
        """The client's level model, its state buffer and layout."""
        return self._level_model(self._task(client_id)[1])

    def _vector(self, ctx: ClientContext) -> np.ndarray:
        """One client's deployed state (its seeded initialisation, packed
        once, until an accepted upload replaces it)."""
        vector = self._personal.get(ctx.client_id)
        if vector is None:
            vector = self._build_personal(ctx).bind_state()[0]
            self._personal[ctx.client_id] = vector
        return vector

    def personal_model(self, ctx: ClientContext) -> nn.Module:
        """One client's deployed model: its level's skeleton, loaded with
        its vector (valid until the next load at that level; the ledger's
        seed finder, ``benchmarks/e2e/equiv_seeds.py``, times it)."""
        model, buffer, _ = self._skeleton(ctx.client_id)
        buffer[...] = self._vector(ctx)
        return model

    # ------------------------------------------------------------------
    # Work-item transport: beside the subclass's round broadcast, the
    # downlink carries a copy of the client's own personal vector (built
    # here, on the coordinator, on first use; a pool worker never reads
    # its own copy of the vectors), and the
    # shared ``run_client`` trains it in the level's skeleton and returns
    # the trained vector as the result's kept state.
    # ------------------------------------------------------------------
    def pack_client_broadcast(self, client_id: int, version: int) -> dict:
        return {"personal": self._vector(self.clients[int(client_id)]).copy()}

    def apply_client_state(self, client_id: int, state: np.ndarray) -> None:
        self._personal[int(client_id)] = state
        self._accuracies.pop(self._task(client_id), None)

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
        return [self._task(cid) for cid in self._eval_ids()]

    def eval_vector(self, task: tuple) -> np.ndarray:
        """A deployed model's vector."""
        return self._vector(self.clients[task[2]])

    def _scored(self) -> dict:
        return self._accuracies

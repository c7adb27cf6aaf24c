"""FedProto (Tan et al., AAAI'22): federated prototype learning.

Topology heterogeneity: every client keeps a *personal* model of its own
architecture (family member assigned by the constraint case); only class
prototypes — mean embeddings per class in a shared projection space — are
exchanged.  The local objective is cross-entropy plus an L2 pull of each
sample's embedding toward the global prototype of its class.

Because no global model exists, the paper's "global accuracy" is realised as
the mean accuracy of the evaluation clients' personal models on the global
test set (stability then reads off the same per-device accuracies).
"""

from __future__ import annotations

import numpy as np

from .. import autograd as ag
from .. import nn
from ..models.base import SliceableModel
from .base import ClientContext
from .personal import PersonalModelAlgorithm

__all__ = ["FedProto", "ProtoModel"]


class ProtoModel(nn.Module):
    """Personal model: backbone + projection into the shared prototype space."""

    def __init__(self, backbone: SliceableModel, proto_dim: int,
                 num_classes: int, seed: int):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.backbone = backbone
        self.proj = nn.Linear(backbone.feature_dim, proto_dim, rng,
                              scale_in=False, scale_out=False)
        self.head = nn.Linear(proto_dim, num_classes, rng,
                              scale_in=False, scale_out=False)
        self.pool_kind = backbone.pool_kind

    def embed(self, x) -> ag.Tensor:
        return self.proj(self.backbone.features(x))

    def forward(self, x) -> ag.Tensor:
        return self.head(ag.relu(self.embed(x)))


class FedProto(PersonalModelAlgorithm):
    """Prototype aggregation across heterogeneous architectures."""

    name = "fedproto"
    supports_nlp = True

    #: prototype-space dimension and regulariser weight (lambda).
    proto_dim: int = 32
    proto_weight: float = 1.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.global_protos = np.zeros(
            (self.dataset.num_classes, self.proto_dim), dtype=np.float32)
        self._proto_valid = np.zeros(self.dataset.num_classes, dtype=bool)

    # ------------------------------------------------------------------
    def _build_personal(self, ctx: ClientContext) -> ProtoModel:
        """A freshly-initialised personal model (deterministic per client)."""
        backbone = ctx.entry.build(self.base_model)
        return ProtoModel(backbone, self.proto_dim,
                          self.dataset.num_classes,
                          seed=1000 + ctx.client_id)

    def _build_level(self, level: tuple) -> ProtoModel:
        # The level skeleton clients train in: its weights are overwritten
        # by each client's vector before every use.
        return ProtoModel(super()._build_level(level), self.proto_dim,
                          self.dataset.num_classes, seed=0)

    def local_loss_fn(self, ctx: ClientContext, model: ProtoModel, rng,
                      broadcast: dict):
        weight = self.proto_weight
        protos = broadcast["global_protos"]
        valid = broadcast["proto_valid"]

        def loss(m, xb, yb):
            emb = model.embed(xb)
            total = ag.cross_entropy(model.head(ag.relu(emb)), yb)
            mask = valid[yb]
            if weight > 0 and mask.any():
                targets = protos[yb]
                # Pull embeddings of valid classes toward their prototypes.
                diff = emb - ag.Tensor(targets)
                per_sample = (diff * diff).mean(axis=1)
                total = total + weight * (per_sample * ag.Tensor(
                    mask.astype(np.float32))).mean()
            return total

        return loss

    # The round half of the downlink: the global prototypes.
    def pack_round_broadcast(self, version: int) -> dict:
        return {"global_protos": self.global_protos.copy(),
                "proto_valid": self._proto_valid.copy()}

    def _knowledge(self, model: ProtoModel, ctx: ClientContext):
        # Local prototypes: per-class embedding sums + member counts.
        with ag.no_grad():
            model.eval()
            emb = model.embed(ctx.shard.x).data
            model.train()
        proto_sums = np.zeros_like(self.global_protos)
        proto_counts = np.zeros(self.dataset.num_classes)
        for cls in np.unique(ctx.shard.y):
            members = emb[ctx.shard.y == cls]
            proto_sums[cls] = members.sum(axis=0)
            proto_counts[cls] = len(members)
        return 1.0, (proto_sums, proto_counts)

    def ingest(self, updates, round_index: int, rng) -> None:
        proto_sums = np.zeros_like(self.global_protos)
        proto_counts = np.zeros(self.dataset.num_classes)
        for update in updates:
            sums, counts = update.payload
            proto_sums += sums * update.weight
            proto_counts += counts * update.weight
        updated = proto_counts > 0
        self.global_protos[updated] = (
            proto_sums[updated] / proto_counts[updated, None]).astype(np.float32)
        self._proto_valid |= updated

    # ------------------------------------------------------------------
    # FedProto has no global_state to speak of; its resumable server-side
    # state is the prototype table + which classes are valid (+ the base's
    # personal models).
    def checkpoint_state(self) -> dict:
        return {"global_protos": self.global_protos.copy(),
                "proto_valid": self._proto_valid.copy(),
                **super().checkpoint_state()}

    def restore_checkpoint_state(self, state: dict) -> None:
        self.global_protos = np.asarray(state["global_protos"],
                                        dtype=np.float32)
        self._proto_valid = np.asarray(state["proto_valid"], dtype=bool)
        super().restore_checkpoint_state(state)

    # ------------------------------------------------------------------
    def client_payload_bytes(self, ctx: ClientContext) -> tuple[float, float]:
        proto_bytes = self.global_protos.nbytes
        return proto_bytes, proto_bytes

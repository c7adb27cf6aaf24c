"""Fed-ET (Cho et al., IJCAI'22): ensemble knowledge transfer.

Topology heterogeneity with a server-side model: clients train personal
models of their own architectures; the server collects their predictions on
an unlabeled public transfer set, forms a confidence-weighted consensus, and
distils it into the server model (weighted consensus distillation).  The
consensus is also sent back so clients regularise toward it during local
training (the transfer-back path).

Global accuracy is the server model's accuracy — the cleanest realisation of
the paper's "final federated model" for the topology level.  The server
model is a flat vector, built on the coordinator on first use and distilled
and scored in its level's skeleton: no pool worker builds it.
"""

from __future__ import annotations

import numpy as np

from .. import autograd as ag
from .. import nn
from ..models.base import SliceableModel
from .base import ClientContext
from .personal import PersonalModelAlgorithm

__all__ = ["FedET"]


class FedET(PersonalModelAlgorithm):
    """Server-model ensemble distillation across heterogeneous clients."""

    name = "fedet"

    #: size of the unlabeled public transfer set.
    public_size: int = 128
    #: server distillation steps per round and learning rate.
    server_steps: int = 10
    server_lr: float = 2e-3
    #: weight of the client-side consensus regulariser (transfer back).
    transfer_weight: float = 0.3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Server model: the largest family member (see ``_server``).
        space = self.variant_space(self.base_model)
        self._server_level = tuple(sorted(space[list(space)[-1]].items()))
        self._server_model = None
        # Public transfer set: unlabeled samples from the task distribution.
        rng = np.random.default_rng(17)
        take = min(self.public_size, self.dataset.num_train)
        idx = rng.choice(self.dataset.num_train, size=take, replace=False)
        self.x_public = self.dataset.x_train[idx]
        self._consensus: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _build_personal(self, ctx: ClientContext) -> SliceableModel:
        """A freshly-initialised personal model (deterministic per client)."""
        return self.base_model.variant(**ctx.entry.overrides,
                                       seed=2000 + ctx.client_id)

    def local_loss_fn(self, ctx: ClientContext, model: SliceableModel,
                      rng: np.random.Generator, broadcast: dict):
        consensus = broadcast["consensus"]
        mu = self.transfer_weight
        x_public = self.x_public

        def loss(m, xb, yb):
            total = ag.cross_entropy(m(xb), yb)
            if consensus is not None and mu > 0:
                pick = rng.integers(0, len(x_public), size=min(16, len(x_public)))
                total = total + mu * ag.soft_cross_entropy(
                    m(x_public[pick]), consensus[pick])
            return total

        return loss

    def _server(self):
        """The server model's ``(vector, layout)``: its level's fresh
        model, packed on first use (only the coordinator ever asks)."""
        if self._server_model is None:
            self._server_model = self._build_level(
                self._server_level).bind_state()
        return self._server_model

    # The round half of the downlink: the current consensus (the server
    # model and its distillation stay on the coordinator — they belong to
    # ``ingest``).
    def pack_round_broadcast(self, version: int) -> dict:
        return {"consensus": (None if self._consensus is None
                              else self._consensus.copy())}

    def _knowledge(self, model: SliceableModel, ctx: ClientContext):
        # Client predictions on the public transfer set; confidence
        # weighting makes more certain members count more.
        model.eval()
        with ag.no_grad():
            probs = ag.softmax(model(self.x_public)).data
        model.train()
        return float(probs.max(axis=1).mean()), probs

    def ingest(self, updates, round_index: int, rng) -> None:
        updates = list(updates)  # may arrive as a single-pass generator
        if not updates:
            return
        weights = np.asarray([u.weight for u in updates])
        weights = weights / weights.sum()
        self._consensus = np.einsum("k,knc->nc", weights,
                                    np.stack([u.payload for u in updates]))
        self._distill_server(rng)

    def _distill_server(self, rng: np.random.Generator) -> None:
        """Distil the consensus into the server vector in its level's
        skeleton, then copy it back (the skeleton keeps weights only)."""
        vector = self._server()[0]
        model, buffer, _ = self._level_model(self._server_level)
        buffer[...] = vector
        optimizer = nn.Adam(model.parameters(), lr=self.server_lr)
        for _ in range(self.server_steps):
            pick = rng.integers(0, len(self.x_public),
                                size=min(32, len(self.x_public)))
            optimizer.zero_grad()
            loss = ag.soft_cross_entropy(model(self.x_public[pick]),
                                         self._consensus[pick])
            loss.backward()
            optimizer.step()
            del loss  # one tape at a time: not beside the next forward
        vector[...] = buffer
        model.zero_grad()

    # ------------------------------------------------------------------
    # Resumable server-side state: the distilled server model (written as
    # its level's ``name -> array`` entries) and the last consensus (+ the
    # base's personal models).  The public set and the per-round Adam are
    # derived (seeded / rebuilt fresh each round), so they need no snapshot.
    def checkpoint_state(self) -> dict:
        vector, layout = self._server()
        return {"server_model": layout.views(vector.copy()),
                "consensus": (None if self._consensus is None
                              else self._consensus.copy()),
                **super().checkpoint_state()}

    def restore_checkpoint_state(self, state: dict) -> None:
        vector, layout = self._server()
        vector[...] = layout.pack(state["server_model"])
        consensus = state["consensus"]
        self._consensus = (None if consensus is None
                           else np.asarray(consensus))
        super().restore_checkpoint_state(state)

    # ------------------------------------------------------------------
    def client_payload_bytes(self, ctx: ClientContext) -> tuple[float, float]:
        logits_bytes = self.public_size * self.dataset.num_classes * 4
        # Down: consensus logits; up: client logits on the public set.
        return float(logits_bytes), float(logits_bytes)

    def global_task(self) -> tuple:
        """The server model, scored in its level's skeleton."""
        return ("server", self._server_level)

    def eval_vector(self, task: tuple) -> np.ndarray:
        """The server's vector for its task, a deployed client's else."""
        if task[0] == "server":
            return self._server()[0]
        return self._vector(self.clients[task[2]])

"""DepthFL (Kim et al., ICLR'23): depth-wise sub-models + self-distillation.

Clients own the bottom fraction of the network with an auxiliary classifier
at every owned stage boundary.  The local objective is the mean
cross-entropy of every owned head plus mutual (self-)distillation between
heads; inference ensembles the heads.  Aggregation is the shared name-based
subset averaging (shallow clients simply contribute fewer blocks/heads).
"""

from __future__ import annotations

import numpy as np

from .. import autograd as ag
from ..models.base import SliceableModel, depth_overrides
from .base import ClientContext, DEPTH_LEVELS, MHFLAlgorithm

__all__ = ["DepthFL"]


class DepthFL(MHFLAlgorithm):
    """Depth heterogeneity with auxiliary classifiers and self-distillation."""

    name = "depthfl"
    level = "depth"
    slicing_mode = "prefix"
    base_model_overrides = {"head_mode": "all"}

    #: weight of the mutual-distillation term (gamma in the paper).
    distill_weight: float = 0.5

    @classmethod
    def variant_space(cls, base_model: SliceableModel) -> dict[str, dict]:
        return {f"d{f:.2f}": depth_overrides(base_model, f, "all")
                for f in DEPTH_LEVELS}

    def local_loss_fn(self, ctx: ClientContext, model: SliceableModel):
        gamma = self.distill_weight

        def loss(m, xb, yb):
            outs = m.forward_all_heads(xb)
            total = None
            for _, logits in outs:
                term = ag.cross_entropy(logits, yb)
                total = term if total is None else total + term
            if len(outs) > 1 and gamma > 0:
                # Each head distils from the mean of the other heads'
                # (detached) predictive distributions.
                probs = [ag.softmax(logits.detach()).data for _, logits in outs]
                for i, (_, logits) in enumerate(outs):
                    teacher = np.mean([p for j, p in enumerate(probs)
                                       if j != i], axis=0)
                    total = total + gamma * ag.soft_cross_entropy(logits, teacher)
            return total * (1.0 / len(outs))

        return loss

    def evaluate_global(self) -> float:
        """DepthFL inference: ensemble (mean softmax) over every head."""
        model = self._global_model()
        model.eval()
        correct = 0
        with ag.no_grad():
            for start in range(0, len(self.x_eval), 256):
                xb = self.x_eval[start:start + 256]
                yb = self.y_eval[start:start + 256]
                outs = model.forward_all_heads(xb)
                probs = np.mean([ag.softmax(logits).data
                                 for _, logits in outs], axis=0)
                correct += int((probs.argmax(axis=1) == yb).sum())
        model.train()
        return correct / len(self.y_eval)

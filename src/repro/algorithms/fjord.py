"""Fjord (Horvath et al., NeurIPS'21): Ordered Dropout width heterogeneity.

Clients own nested prefix sub-models; at training time a client samples a
width *at or below its own budget* and trains that slice, so smaller prefixes
are trained by every larger client too (the "ordered dropout" distribution).
We sample the width once per round (the paper samples per step; per-round
sampling keeps the numpy simulation tractable; across rounds each width at
or below a client's budget is still drawn uniformly, the distribution the
paper samples from per step).
"""

from __future__ import annotations

import numpy as np

from .base import ClientContext, ParameterAveragingAlgorithm

__all__ = ["Fjord"]


class Fjord(ParameterAveragingAlgorithm):
    """Ordered-dropout nested width training."""

    name = "fjord"
    level = "width"

    def client_overrides(self, ctx: ClientContext, round_index: int,
                         rng: np.random.Generator) -> dict:
        overrides = dict(ctx.entry.overrides)
        budget = overrides.get("width_mult", 1.0)
        if self.pool is not None:
            candidates = sorted({e.overrides.get("width_mult", 1.0)
                                 for e in self.pool.entries
                                 if e.overrides.get("width_mult", 1.0) <= budget})
        else:
            candidates = [budget]
        overrides["width_mult"] = candidates[rng.integers(len(candidates))]
        return overrides

"""InclusiveFL (Liu et al., KDD'22): layer-wise pruning + momentum distillation.

Clients own the bottom fraction of the network (single deepest head);
aggregation averages each block among its holders.  InclusiveFL's *momentum
knowledge distillation* then injects a scaled share of the deeper blocks'
aggregated update into the adjacent shallower block, so clients that never
hold the deep layers still benefit from what those layers learned.

The paper formulates the injection between same-shaped transformer layers;
in CNN stages only same-shaped neighbours (non-downsampling blocks within a
stage) are eligible, so the transfer applies exactly where shapes match and
is a no-op elsewhere: a downsampling block has no same-shaped neighbour to
receive it.
"""

from __future__ import annotations

import re

from ..models.base import SliceableModel, depth_overrides
from .base import DEPTH_LEVELS, ParameterAveragingAlgorithm

__all__ = ["InclusiveFL"]

_BLOCK_RE = re.compile(r"^stages\.(\d+)\.(\d+)\.(.+)$")


class InclusiveFL(ParameterAveragingAlgorithm):
    """Depth heterogeneity with momentum distillation across blocks."""

    name = "inclusivefl"
    level = "depth"
    # Shallow clients carry a head at their own top stage, so the server
    # model must own a head at every stage boundary.
    base_model_overrides = {"head_mode": "all"}

    #: momentum-distillation strength (beta in the paper).
    momentum_beta: float = 0.3

    @classmethod
    def variant_space(cls, base_model: SliceableModel) -> dict[str, dict]:
        return {f"d{f:.2f}": depth_overrides(base_model, f, "deepest")
                for f in DEPTH_LEVELS}

    def post_aggregate(self, old_vector, round_index: int) -> None:
        """Inject deeper-block updates into same-shaped shallower neighbours."""
        beta = self.momentum_beta
        if beta <= 0:
            return
        state, old_state = self.global_state, self.layout.views(old_vector)
        # Group parameter names by (stage, block).
        blocks: dict[tuple[int, int], dict[str, str]] = {}
        for name in state:
            match = _BLOCK_RE.match(name)
            if match:
                stage, block = int(match.group(1)), int(match.group(2))
                blocks.setdefault((stage, block), {})[match.group(3)] = name
        for (stage, block), suffixes in sorted(blocks.items()):
            deeper = blocks.get((stage, block + 1))
            if deeper is None:
                continue
            for suffix, name in suffixes.items():
                deep_name = deeper.get(suffix)
                if deep_name is None:
                    continue
                current = state[name]
                update = state[deep_name] - old_state[deep_name]
                if update.shape == current.shape:
                    current += beta * update

"""SHeteroFL (Diao et al., ICLR'21 HeteroFL with static slimmable assignment).

Each client statically owns the prefix slice matching its capacity level;
aggregation is the per-coordinate count-weighted mean over the clients that
hold each coordinate (HeteroFL's nested aggregation rule) — implemented by
:class:`~repro.algorithms.base.ParameterAveragingAlgorithm`, which every
width and depth method derives from.
"""

from __future__ import annotations

from .base import ParameterAveragingAlgorithm

__all__ = ["SHeteroFL"]


class SHeteroFL(ParameterAveragingAlgorithm):
    """Static slimmable HeteroFL: the canonical width-heterogeneity method."""

    name = "sheterofl"
    level = "width"

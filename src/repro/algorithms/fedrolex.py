"""FedRolex (Alam et al., NeurIPS'22): rolling sub-model extraction.

Identical to HeteroFL except the sub-model occupies a *rolling window* of
channels whose offset advances by one every round (with wrap-around), so
every global coordinate is trained over time instead of only the prefix —
FedRolex's fix for HeteroFL's untrained-tail problem.
"""

from __future__ import annotations

from .base import ParameterAveragingAlgorithm

__all__ = ["FedRolex"]


class FedRolex(ParameterAveragingAlgorithm):
    """Rolling-window width heterogeneity."""

    name = "fedrolex"
    level = "width"
    slicing_mode = "rolling"

    def rolling_shift(self, round_index: int) -> int:
        return round_index

"""FedAvg on the smallest feasible model — the paper's effectiveness baseline.

"A simple resource-aware homogeneous baseline (i.e., training the smallest
homogeneous model across all heterogeneous devices)": every client trains the
same model, sized so the most constrained participant can run it.  The
*effectiveness* metric of every MHFL method is its final accuracy minus this
baseline's.
"""

from __future__ import annotations

from .base import ParameterAveragingAlgorithm

__all__ = ["FedAvgSmallest"]


class FedAvgSmallest(ParameterAveragingAlgorithm):
    """Homogeneous FedAvg at the smallest feasible capacity level."""

    name = "fedavg_smallest"
    level = "homogeneous"

    # variant_space inherits the width levels so the constraint cases can
    # determine each client's feasible set; the scenario then assigns every
    # client the *minimum* feasible entry (see constraints.assignment).

    def _common_client(self):
        """The first client of the (required) homogeneous assignment."""
        ids = sorted(self.clients)
        keys = {self.clients[cid].entry.key for cid in ids}
        if len(keys) != 1:
            raise ValueError(
                "FedAvgSmallest expects a homogeneous assignment; got levels "
                f"{sorted(keys)}")
        return self.clients[ids[0]]

    def global_task(self) -> tuple:
        """The (single) deployed variant, not the full server model.

        With a homogeneous x<1 assignment only the trained slice of the
        global state is meaningful; evaluating the full model would mix
        trained and never-touched coordinates.  Every evaluation client
        deploys this same model, so each reads its accuracy.
        """
        ctx = self._common_client()
        return ("level", self._eval_level(self.client_overrides(ctx, 0,
                                                                None)))

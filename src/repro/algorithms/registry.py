"""Algorithm registry (Table II's algorithm column)."""

from __future__ import annotations

from .base import MHFLAlgorithm
from .depthfl import DepthFL
from .fedavg import FedAvgSmallest
from .fedepth import FeDepth
from .fedet import FedET
from .fedproto import FedProto
from .fedrolex import FedRolex
from .fjord import Fjord
from .heterofl import SHeteroFL
from .inclusivefl import InclusiveFL

__all__ = ["ALGORITHMS", "MHFL_ALGORITHMS", "get_algorithm"]

#: Every algorithm, including the homogeneous effectiveness baseline.
ALGORITHMS: dict[str, type[MHFLAlgorithm]] = {
    cls.name: cls for cls in (
        FedAvgSmallest,
        Fjord, SHeteroFL, FedRolex,           # width
        FeDepth, InclusiveFL, DepthFL,        # depth
        FedProto, FedET,                      # topology
    )
}

#: The eight heterogeneous methods evaluated in the paper's figures.
MHFL_ALGORITHMS = [name for name, cls in ALGORITHMS.items()
                   if cls.level != "homogeneous"]


def get_algorithm(name: str) -> type[MHFLAlgorithm]:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; "
                         f"known: {sorted(ALGORITHMS)}") from None

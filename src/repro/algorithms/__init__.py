"""The eight MHFL algorithms + homogeneous baseline (Table II)."""

from .base import (ClientContext, SubIndex, MHFLAlgorithm,
                   ParameterAveragingAlgorithm, WIDTH_LEVELS, DEPTH_LEVELS,
                   assign_levels_uniformly)
from .fedavg import FedAvgSmallest
from .fjord import Fjord
from .heterofl import SHeteroFL
from .fedrolex import FedRolex
from .depthfl import DepthFL
from .inclusivefl import InclusiveFL
from .fedepth import FeDepth
from .fedproto import FedProto, ProtoModel
from .fedet import FedET
from .registry import ALGORITHMS, MHFL_ALGORITHMS, get_algorithm

__all__ = [
    "ClientContext", "SubIndex", "MHFLAlgorithm", "ParameterAveragingAlgorithm",
    "WIDTH_LEVELS", "DEPTH_LEVELS", "assign_levels_uniformly",
    "FedAvgSmallest", "Fjord", "SHeteroFL", "FedRolex",
    "DepthFL", "InclusiveFL", "FeDepth", "FedProto", "ProtoModel", "FedET",
    "ALGORITHMS", "MHFL_ALGORITHMS", "get_algorithm",
]

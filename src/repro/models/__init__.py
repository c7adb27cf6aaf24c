"""Sliceable model zoo (width / depth / topology heterogeneity support)."""

from .base import IndexedModules, SliceableModel, scaled_channels
from .slicing import (width_index_maps, extract_substate, scatter_accumulate,
                      finalize_mean)
from .resnet import ResNet, RESNET_CONFIGS
from .mobilenet import MobileNet, MOBILENET_CONFIGS
from .har_cnn import HarCNN, HAR_CONFIGS, HAR_INPUT_SHAPE
from .transformer import TextTransformer
from .albert import AlbertClassifier, ALBERT_CONFIGS
from .zoo import build_model, MODEL_FAMILIES, known_architectures

__all__ = [
    "IndexedModules", "SliceableModel", "scaled_channels",
    "width_index_maps", "extract_substate", "scatter_accumulate",
    "finalize_mean",
    "ResNet", "RESNET_CONFIGS", "MobileNet", "MOBILENET_CONFIGS",
    "HarCNN", "HAR_CONFIGS", "HAR_INPUT_SHAPE", "TextTransformer",
    "AlbertClassifier", "ALBERT_CONFIGS",
    "build_model", "MODEL_FAMILIES", "known_architectures",
]

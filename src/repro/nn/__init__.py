"""Layer / module library built on :mod:`repro.autograd`."""

from .module import Module, Parameter
from .layers import (Linear, Conv2d, BatchNorm2d, BatchNorm1d, LayerNorm,
                     conv_bn, Embedding, Dropout, Identity,
                     ReLU, ReLU6, HardSwish, GELU, Sigmoid, activation)
from .containers import Sequential, ModuleList
from .attention import MultiHeadAttention, TransformerEncoderLayer
from .optim import Optimizer, SGD, Adam
from . import init

__all__ = [
    "Module", "Parameter",
    "Linear", "Conv2d", "BatchNorm2d", "BatchNorm1d", "LayerNorm", "conv_bn",
    "Embedding", "Dropout", "Identity",
    "ReLU", "ReLU6", "HardSwish", "GELU", "Sigmoid", "activation",
    "Sequential", "ModuleList",
    "MultiHeadAttention", "TransformerEncoderLayer",
    "Optimizer", "SGD", "Adam",
    "init",
]

"""Layer / module library built on :mod:`repro.autograd`."""

from .module import Module, Parameter
from .layers import (Linear, Conv2d, BatchNorm2d, LayerNorm, conv_bn,
                     Embedding, Dropout)
from .containers import Sequential, ModuleList
from .attention import MultiHeadAttention, TransformerEncoderLayer
from .optim import Optimizer, SGD, Adam
from . import init

__all__ = [
    "Module", "Parameter",
    "Linear", "Conv2d", "BatchNorm2d", "LayerNorm", "conv_bn",
    "Embedding", "Dropout",
    "Sequential", "ModuleList",
    "MultiHeadAttention", "TransformerEncoderLayer",
    "Optimizer", "SGD", "Adam",
    "init",
]

"""Reverse-mode autograd engine (numpy substrate for the PracMHBench zoo)."""

from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad
from .tensor import (sigmoid, relu, relu6, hardswish, gelu, tsum, tmean,
                     reshape, transpose, concat, matmul, pad2d)
from .functional import (conv2d, global_avg_pool2d, batch_norm, layer_norm,
                         embedding, dropout, attention, softmax,
                         cross_entropy, soft_cross_entropy, linear)
from .grad_check import check_gradients, numerical_gradient
from .profiler import profile, ProfileReport

__all__ = [
    "Tensor", "as_tensor", "is_grad_enabled", "no_grad",
    "sigmoid", "relu", "relu6", "hardswish", "gelu", "tsum", "tmean",
    "reshape", "transpose", "concat", "matmul", "pad2d",
    "conv2d", "global_avg_pool2d", "batch_norm", "layer_norm", "embedding",
    "dropout", "attention", "softmax", "cross_entropy", "soft_cross_entropy",
    "linear",
    "check_gradients", "numerical_gradient",
    "profile", "ProfileReport",
]

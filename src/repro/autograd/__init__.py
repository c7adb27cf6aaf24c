"""Reverse-mode autograd engine (numpy substrate for the PracMHBench zoo)."""

from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad
from .tensor import (exp, log, sqrt, tanh, sigmoid, relu, relu6, hardswish,
                     gelu, tsum, tmean, tmax, reshape, transpose, concat,
                     matmul, pad2d)
from .functional import (conv2d, max_pool2d, avg_pool2d, global_avg_pool2d,
                         batch_norm, layer_norm, embedding, dropout,
                         attention, softmax, log_softmax, cross_entropy,
                         soft_cross_entropy, mse_loss, linear)
from .grad_check import check_gradients, numerical_gradient
from .profiler import profile, ProfileReport

__all__ = [
    "Tensor", "as_tensor", "is_grad_enabled", "no_grad",
    "exp", "log", "sqrt", "tanh", "sigmoid", "relu", "relu6", "hardswish",
    "gelu", "tsum", "tmean", "tmax", "reshape", "transpose", "concat",
    "matmul", "pad2d",
    "conv2d", "max_pool2d", "avg_pool2d", "global_avg_pool2d", "batch_norm",
    "layer_norm", "embedding", "dropout", "attention", "softmax",
    "log_softmax", "cross_entropy", "soft_cross_entropy", "mse_loss",
    "linear",
    "check_gradients", "numerical_gradient",
    "profile", "ProfileReport",
]

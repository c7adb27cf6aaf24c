"""Core layers of the nn library.

Every layer that owns width-scalable parameters exposes ``scale_in`` /
``scale_out`` flags: they declare which axes of the parameter tensors shrink
when the owning model is rebuilt at a smaller width multiplier.  The
width-heterogeneity algorithms (Fjord, SHeteroFL, FedRolex) use this metadata
to build per-parameter index maps between the global model and a sub-model.
"""

from __future__ import annotations

import numpy as np

from .. import autograd as ag
from ..autograd import Tensor
from . import init
from .module import Module, Parameter

__all__ = ["Linear", "Conv2d", "BatchNorm2d", "LayerNorm", "conv_bn",
           "Embedding", "Dropout"]


class Linear(Module):
    """Affine map ``y = x W^T + b`` with weight of shape (out, in)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True,
                 scale_in: bool = True, scale_out: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        axes = tuple(axis for axis, flag in ((0, scale_out), (1, scale_in)) if flag)
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), in_features, rng),
            scale_axes=axes)
        if bias:
            self.bias = Parameter(init.zeros((out_features,)),
                                  scale_axes=(0,) if scale_out else ())
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return ag.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """Grouped 2-D convolution (square kernels, symmetric padding)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0,
                 groups: int = 1, bias: bool = False,
                 scale_in: bool = True, scale_out: bool = True):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        # Depthwise conv weight is (C, 1, k, k): only axis 0 tracks width.
        if groups == 1:
            axes = tuple(a for a, f in ((0, scale_out), (1, scale_in)) if f)
        else:
            axes = (0,) if scale_out else ()
        self.weight = Parameter(
            init.kaiming_uniform(
                (out_channels, in_channels // groups, kernel_size, kernel_size),
                fan_in, rng),
            scale_axes=axes)
        if bias:
            self.bias = Parameter(init.zeros((out_channels,)),
                                  scale_axes=(0,) if scale_out else ())
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return ag.conv2d(x, self.weight, self.bias, stride=self.stride,
                         padding=self.padding, groups=self.groups)


class BatchNorm2d(Module):
    """Per-channel batch norm for NCHW feature maps."""

    def __init__(self, num_features: int, momentum: float = 0.1,
                 eps: float = 1e-5, scale: bool = True):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        axes = (0,) if scale else ()
        self.weight = Parameter(init.ones((num_features,)), scale_axes=axes)
        self.bias = Parameter(init.zeros((num_features,)), scale_axes=axes)
        self.register_buffer("running_mean", init.zeros((num_features,)),
                             scale_axes=axes)
        self.register_buffer("running_var", init.ones((num_features,)),
                             scale_axes=axes)

    def forward(self, x: Tensor) -> Tensor:
        return ag.batch_norm(x, self.weight, self.bias, self.running_mean,
                             self.running_var, training=self.training,
                             momentum=self.momentum, eps=self.eps)


def conv_bn(x: Tensor, conv: Conv2d, bn: BatchNorm2d,
            act: str | None = None) -> Tensor:
    """``act(bn(conv(x)))`` (``act``: ``"relu"`` / ``"relu6"`` / ``None``)
    as one tape node: :func:`repro.autograd.conv2d`'s ``norm=`` / ``act=``."""
    return ag.conv2d(x, conv.weight, conv.bias, stride=conv.stride,
                     padding=conv.padding, groups=conv.groups,
                     norm=(bn.weight, bn.bias, bn.running_mean,
                           bn.running_var, bn.training, bn.momentum, bn.eps),
                     act=act)


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5, scale: bool = True):
        super().__init__()
        self.dim = dim
        self.eps = eps
        axes = (0,) if scale else ()
        self.weight = Parameter(init.ones((dim,)), scale_axes=axes)
        self.bias = Parameter(init.zeros((dim,)), scale_axes=axes)

    def forward(self, x: Tensor) -> Tensor:
        return ag.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Embedding(Module):
    """Token embedding table (vocab is never width-scaled; dim may be)."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator,
                 scale_out: bool = True):
        super().__init__()
        self.vocab_size = vocab_size
        self.dim = dim
        self.weight = Parameter(init.normal((vocab_size, dim), 0.02, rng),
                                scale_axes=(1,) if scale_out else ())

    def forward(self, indices: np.ndarray) -> Tensor:
        return ag.embedding(self.weight, indices)


class Dropout(Module):
    """Inverted dropout with an owned RNG (deterministic given the seed).

    Pass the model's construction ``rng`` to derive a per-layer seed from it:
    every dropout layer then draws an independent, reproducible mask stream
    (layers built with the default ``seed=0`` would otherwise share masks).
    """

    def __init__(self, p: float, seed: int | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.p = p
        if rng is not None:
            if seed is not None:
                raise ValueError("pass either seed or rng, not both")
            seed = int(rng.integers(0, 2 ** 31 - 1))
        self._rng = np.random.default_rng(0 if seed is None else seed)

    @property
    def rng(self) -> np.random.Generator:
        """The layer's seeded mask generator (for fused ops that draw the
        mask themselves, e.g. :func:`repro.autograd.attention`)."""
        return self._rng

    def reseed(self, seed: int) -> None:
        """Restart the mask stream from ``seed``.

        The federated runtime re-derives dropout seeds from the
        ``(run_seed, round, client_id)`` triple at the start of every local
        round (:func:`repro.fl.seeding.reseed_dropout`), so masks do not
        depend on how many rounds this layer object has already lived
        through — a requirement for process-pool workers, whose rebuilt
        models start from round zero.
        """
        self._rng = np.random.default_rng(int(seed))

    def forward(self, x: Tensor) -> Tensor:
        return ag.dropout(x, self.p, training=self.training, rng=self._rng)

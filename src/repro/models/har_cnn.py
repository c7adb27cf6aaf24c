"""Customized CNNs for human activity recognition (HAR-BOX / UCI-HAR).

Follows the "customized CNN" convention of the paper's HAR track (Ek et al.):
a small conv stack over windowed IMU signals.  We lay the (channels, time)
window out as an NCHW map of shape ``(N, sensor_channels, 8, 4)`` so the same
conv substrate serves all modalities; the ``har_cnn_*`` topology variants
(different widths / depths) implement the paper's "modified structure"
topology-heterogeneity case for HAR.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..autograd import Tensor
from ..nn import conv_bn
from .base import IndexedModules, SliceableModel, scaled_channels

__all__ = ["HarCNN", "HAR_CONFIGS", "HAR_INPUT_SHAPE"]

#: (channels, height, width) layout of a HAR sample fed to the CNN.
HAR_INPUT_SHAPE = (9, 8, 4)

# name -> (per-stage widths, per-stage block counts)
HAR_CONFIGS = {
    "har_cnn": ([8, 16, 24, 32], [1, 1, 1, 1]),
    "har_cnn_wide": ([12, 24, 36, 48], [1, 1, 1, 1]),
    "har_cnn_deep": ([8, 16, 24, 32], [2, 2, 2, 2]),
    "har_cnn_lite": ([6, 12, 18, 24], [1, 1, 1, 1]),
}

_STAGE_STRIDES = [1, 2, 2, 1]


class _HarStem(nn.Module):
    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator):
        super().__init__()
        self.conv = nn.Conv2d(in_channels, out_channels, 3, rng, padding=1,
                              scale_in=False)
        self.bn = nn.BatchNorm2d(out_channels)

    def forward(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return conv_bn(x, self.conv, self.bn, "relu")


class _ConvBlock(nn.Module):
    def __init__(self, in_channels: int, out_channels: int, stride: int,
                 rng: np.random.Generator):
        super().__init__()
        self.conv = nn.Conv2d(in_channels, out_channels, 3, rng,
                              stride=stride, padding=1)
        self.bn = nn.BatchNorm2d(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        return conv_bn(x, self.conv, self.bn, "relu")


class HarCNN(SliceableModel):
    """Customized CNN over windowed IMU data."""

    family = "har_cnn"
    pool_kind = "image"

    def __init__(self, num_classes: int, arch: str = "har_cnn",
                 width_mult: float = 1.0, num_stages: int | None = None,
                 head_mode: str = "deepest", seed: int = 0,
                 scale: str = "tiny", in_channels: int = HAR_INPUT_SHAPE[0]):
        super().__init__()
        self._record_build_kwargs(
            num_classes=num_classes, arch=arch, width_mult=width_mult,
            num_stages=num_stages, head_mode=head_mode, seed=seed,
            scale=scale, in_channels=in_channels)
        try:
            widths, block_counts = HAR_CONFIGS[arch]
        except KeyError:
            raise ValueError(f"unknown HAR arch {arch!r}") from None
        self.arch = arch
        self.width_mult = width_mult
        self.head_mode = head_mode
        self.total_stages = len(widths)
        owned = self.total_stages if num_stages is None else num_stages
        if not 1 <= owned <= self.total_stages:
            raise ValueError(f"num_stages must be in [1, {self.total_stages}]")

        rng = np.random.default_rng(seed)
        stem_width = scaled_channels(widths[0], width_mult)
        self.stem = _HarStem(in_channels, stem_width, rng)

        self.stages = nn.ModuleList()
        stage_out_dims: list[int] = []
        in_ch = stem_width
        for stage_index in range(owned):
            out_ch = scaled_channels(widths[stage_index], width_mult)
            blocks = nn.Sequential()
            for block_index in range(block_counts[stage_index]):
                stride = _STAGE_STRIDES[stage_index] if block_index == 0 else 1
                blocks.append(_ConvBlock(in_ch, out_ch, stride, rng))
                in_ch = out_ch
            self.stages.append(blocks)
            stage_out_dims.append(out_ch)

        self.heads = IndexedModules()
        head_indices = (range(owned) if head_mode == "all" else [owned - 1])
        for index in head_indices:
            self.heads.add(index, nn.Linear(stage_out_dims[index], num_classes,
                                            rng, scale_out=False))

"""ResNet family (ResNet-18/34/50/101) with width & depth variants.

The paper uses ResNet-101 width/depth variants (100/75/50/25 %) on CIFAR-100
and the full ResNet family (18/34/50/101) for topology heterogeneity.  We
keep the exact stage topology — basic blocks for 18/34, bottlenecks with an
expansion factor for 50/101, stride-2 stage entries, projection shortcuts —
at a reduced base width/resolution (``scale="tiny"``) so CPU simulation is
feasible; ``scale="paper"`` restores the published block counts and widths.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..autograd import Tensor, relu
from ..nn import conv_bn
from .base import IndexedModules, SliceableModel, scaled_channels

__all__ = ["ResNet", "RESNET_CONFIGS"]

# name -> (block type, per-stage block counts, bottleneck expansion)
RESNET_CONFIGS = {
    # Block counts chosen so the tiny family preserves the real family's
    # parameter-count ordering (18 < 34 < 50 < 101) and ResNet-101 keeps its
    # characteristically deep third stage.
    "tiny": {
        "resnet18": ("basic", [1, 1, 1, 1], 1),
        "resnet34": ("basic", [1, 2, 2, 1], 1),
        "resnet50": ("bottleneck", [2, 2, 3, 2], 2),
        "resnet101": ("bottleneck", [2, 3, 6, 2], 2),
    },
    "paper": {
        "resnet18": ("basic", [2, 2, 2, 2], 1),
        "resnet34": ("basic", [3, 4, 6, 3], 1),
        "resnet50": ("bottleneck", [3, 4, 6, 3], 4),
        "resnet101": ("bottleneck", [3, 4, 23, 3], 4),
    },
}

_STAGE_WIDTHS = {"tiny": [8, 16, 32, 64], "paper": [64, 128, 256, 512]}


class _ImageStem(nn.Module):
    """3x3 conv stem; also converts raw numpy input into a Tensor."""

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator):
        super().__init__()
        self.conv = nn.Conv2d(in_channels, out_channels, 3, rng, stride=1,
                              padding=1, scale_in=False)
        self.bn = nn.BatchNorm2d(out_channels)

    def forward(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return conv_bn(x, self.conv, self.bn, "relu")


class _BasicBlock(nn.Module):
    """Two 3x3 convs with identity / projection shortcut."""

    def __init__(self, in_channels: int, out_channels: int, stride: int,
                 rng: np.random.Generator):
        super().__init__()
        self.conv1 = nn.Conv2d(in_channels, out_channels, 3, rng,
                               stride=stride, padding=1)
        self.bn1 = nn.BatchNorm2d(out_channels)
        self.conv2 = nn.Conv2d(out_channels, out_channels, 3, rng, padding=1)
        self.bn2 = nn.BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut_conv = nn.Conv2d(in_channels, out_channels, 1, rng,
                                           stride=stride)
            self.shortcut_bn = nn.BatchNorm2d(out_channels)
        else:
            self.shortcut_conv = None

    def forward(self, x: Tensor) -> Tensor:
        out = conv_bn(x, self.conv1, self.bn1, "relu")
        out = conv_bn(out, self.conv2, self.bn2)
        if self.shortcut_conv is not None:
            x = conv_bn(x, self.shortcut_conv, self.shortcut_bn)
        return relu(out + x)


class _BottleneckBlock(nn.Module):
    """1x1 reduce -> 3x3 -> 1x1 expand, as in ResNet-50/101."""

    def __init__(self, in_channels: int, mid_channels: int, stride: int,
                 expansion: int, rng: np.random.Generator):
        super().__init__()
        out_channels = mid_channels * expansion
        self.conv1 = nn.Conv2d(in_channels, mid_channels, 1, rng)
        self.bn1 = nn.BatchNorm2d(mid_channels)
        self.conv2 = nn.Conv2d(mid_channels, mid_channels, 3, rng,
                               stride=stride, padding=1)
        self.bn2 = nn.BatchNorm2d(mid_channels)
        self.conv3 = nn.Conv2d(mid_channels, out_channels, 1, rng)
        self.bn3 = nn.BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut_conv = nn.Conv2d(in_channels, out_channels, 1, rng,
                                           stride=stride)
            self.shortcut_bn = nn.BatchNorm2d(out_channels)
        else:
            self.shortcut_conv = None

    def forward(self, x: Tensor) -> Tensor:
        out = conv_bn(x, self.conv1, self.bn1, "relu")
        out = conv_bn(out, self.conv2, self.bn2, "relu")
        out = conv_bn(out, self.conv3, self.bn3)
        if self.shortcut_conv is not None:
            x = conv_bn(x, self.shortcut_conv, self.shortcut_bn)
        return relu(out + x)


class ResNet(SliceableModel):
    """Staged ResNet classifier.

    Parameters
    ----------
    num_classes:
        Output classes of every head.
    arch:
        One of ``resnet18 / resnet34 / resnet50 / resnet101``.
    width_mult:
        Channel multiplier applied to the stem and every stage.
    num_stages:
        Owned stage count (depth variants); ``None`` keeps all four.
    head_mode:
        ``"deepest"`` or ``"all"`` (DepthFL auxiliary classifiers).
    """

    family = "resnet"
    pool_kind = "image"

    def __init__(self, num_classes: int, arch: str = "resnet18",
                 width_mult: float = 1.0, num_stages: int | None = None,
                 depth_frac: float | None = None,
                 head_mode: str = "deepest", seed: int = 0,
                 scale: str = "tiny", in_channels: int = 3):
        super().__init__()
        self._record_build_kwargs(
            num_classes=num_classes, arch=arch, width_mult=width_mult,
            num_stages=num_stages, depth_frac=depth_frac,
            head_mode=head_mode, seed=seed,
            scale=scale, in_channels=in_channels)
        try:
            block_type, block_counts, expansion = RESNET_CONFIGS[scale][arch]
        except KeyError:
            raise ValueError(f"unknown resnet arch/scale: {arch}/{scale}") from None
        widths = _STAGE_WIDTHS[scale]
        self.arch = arch
        self.width_mult = width_mult
        self.head_mode = head_mode
        self.total_stages = len(widths)
        if depth_frac is not None:
            # Block-prefix depth pruning (DepthFL-style "bottom x% of the
            # layers"): keep the first ceil(frac * total) residual blocks,
            # filled stage by stage; stages left empty are dropped entirely.
            if not 0.0 < depth_frac <= 1.0:
                raise ValueError(f"depth_frac must be in (0, 1], got {depth_frac}")
            total_blocks = sum(block_counts)
            keep = max(1, int(round(depth_frac * total_blocks)))
            kept_counts = []
            for count in block_counts:
                take = min(count, keep)
                if take > 0:
                    kept_counts.append(take)
                keep -= take
            block_counts = kept_counts
            owned = len(kept_counts)
            if num_stages is not None:
                raise ValueError("pass either num_stages or depth_frac, not both")
        else:
            owned = self.total_stages if num_stages is None else num_stages
        if not 1 <= owned <= self.total_stages:
            raise ValueError(f"num_stages must be in [1, {self.total_stages}]")

        rng = np.random.default_rng(seed)
        stem_width = scaled_channels(widths[0], width_mult)
        self.stem = _ImageStem(in_channels, stem_width, rng)

        self.stages = nn.ModuleList()
        stage_out_dims: list[int] = []
        in_ch = stem_width
        for stage_index in range(owned):
            mid = scaled_channels(widths[stage_index], width_mult)
            out_ch = mid * expansion if block_type == "bottleneck" else mid
            stride = 1 if stage_index == 0 else 2
            blocks = nn.Sequential()
            for block_index in range(block_counts[stage_index]):
                s = stride if block_index == 0 else 1
                if block_type == "basic":
                    blocks.append(_BasicBlock(in_ch, mid, s, rng))
                else:
                    blocks.append(_BottleneckBlock(in_ch, mid, s, expansion, rng))
                in_ch = out_ch
            self.stages.append(blocks)
            stage_out_dims.append(out_ch)

        self.heads = IndexedModules()
        head_indices = (range(owned) if head_mode == "all" else [owned - 1])
        for index in head_indices:
            self.heads.add(index, nn.Linear(stage_out_dims[index], num_classes,
                                            rng, scale_out=False))

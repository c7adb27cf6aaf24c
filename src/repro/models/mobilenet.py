"""MobileNet family (V2, V3-small, V3-large) with width & depth variants.

Inverted-residual blocks with expand -> depthwise -> project structure,
squeeze-and-excitation and hard-swish for the V3 members — the topology
features that make MobileNet width slicing interesting (the hidden expansion
dim must stay consistent between the expand, depthwise, SE and project
parameters, which exercises the generic index maps).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..autograd import Tensor, relu, hardswish, sigmoid, global_avg_pool2d
from ..nn import conv_bn
from .base import IndexedModules, SliceableModel, scaled_channels

__all__ = ["MobileNet", "MOBILENET_CONFIGS"]

# Block spec: (expand_ratio, out_channels, stride, use_se, activation)
# Stage grouping mirrors the resolution steps of the published models.
MOBILENET_CONFIGS: dict[str, dict] = {
    "mobilenet_v2": {
        "stem": 8, "stem_act": "relu6", "last_channel": 48,
        "stages": [
            [(1, 8, 1, False, "relu6")],
            [(4, 12, 2, False, "relu6"), (4, 12, 1, False, "relu6")],
            [(4, 16, 2, False, "relu6"), (4, 16, 1, False, "relu6")],
            [(4, 24, 2, False, "relu6")],
        ],
    },
    "mobilenet_v3_small": {
        "stem": 8, "stem_act": "hardswish", "last_channel": 48,
        "stages": [
            [(1, 8, 2, True, "relu")],
            [(3, 12, 2, False, "relu"), (3, 12, 1, False, "relu")],
            [(4, 16, 2, True, "hardswish"), (4, 16, 1, True, "hardswish")],
            [(4, 24, 1, True, "hardswish")],
        ],
    },
    "mobilenet_v3_large": {
        "stem": 8, "stem_act": "hardswish", "last_channel": 56,
        "stages": [
            [(1, 8, 1, False, "relu")],
            [(4, 12, 2, False, "relu"), (3, 12, 1, False, "relu")],
            [(3, 16, 2, True, "relu"), (3, 16, 1, True, "relu"),
             (4, 20, 1, True, "hardswish")],
            [(6, 28, 2, True, "hardswish"), (6, 28, 1, True, "hardswish")],
        ],
    },
}

#: activation -> (what the fused conv_bn applies, the op applied after it).
_ACTS = {"relu": ("relu", None), "relu6": ("relu6", None),
         "hardswish": (None, hardswish)}


class _ConvBNAct(nn.Module):
    def __init__(self, in_ch: int, out_ch: int, kernel: int,
                 rng: np.random.Generator, stride: int = 1,
                 groups: int = 1, act: str = "relu6",
                 scale_in: bool = True):
        super().__init__()
        padding = kernel // 2
        self.conv = nn.Conv2d(in_ch, out_ch, kernel, rng, stride=stride,
                              padding=padding, groups=groups,
                              scale_in=scale_in)
        self.bn = nn.BatchNorm2d(out_ch)
        self._fused, self._act = _ACTS.get(act, (None, None))

    def forward(self, x: Tensor) -> Tensor:
        out = conv_bn(x, self.conv, self.bn, self._fused)
        return self._act(out) if self._act else out


class _SqueezeExcite(nn.Module):
    """Channel attention: pool -> reduce -> relu -> expand -> sigmoid -> scale."""

    def __init__(self, channels: int, rng: np.random.Generator,
                 reduction: int = 4):
        super().__init__()
        hidden = max(2, channels // reduction)
        self.fc_reduce = nn.Linear(channels, hidden, rng)
        self.fc_expand = nn.Linear(hidden, channels, rng)

    def forward(self, x: Tensor) -> Tensor:
        n, c = x.shape[0], x.shape[1]
        s = global_avg_pool2d(x)
        s = sigmoid(self.fc_expand(relu(self.fc_reduce(s))))
        return x * s.reshape(n, c, 1, 1)


class _InvertedResidual(nn.Module):
    """MobileNet inverted residual block (expand -> depthwise -> project)."""

    def __init__(self, in_ch: int, out_ch: int, stride: int,
                 expand_ratio: int, use_se: bool, act: str,
                 rng: np.random.Generator):
        super().__init__()
        hidden = in_ch * expand_ratio
        self.use_residual = (stride == 1 and in_ch == out_ch)
        if expand_ratio != 1:
            self.expand = _ConvBNAct(in_ch, hidden, 1, rng, act=act)
        else:
            self.expand = None
        self.depthwise = _ConvBNAct(hidden, hidden, 3, rng, stride=stride,
                                    groups=hidden, act=act)
        self.se = _SqueezeExcite(hidden, rng) if use_se else None
        self.project = _ConvBNAct(hidden, out_ch, 1, rng, act="none")

    def forward(self, x: Tensor) -> Tensor:
        out = self.expand(x) if self.expand is not None else x
        out = self.depthwise(out)
        if self.se is not None:
            out = self.se(out)
        out = self.project(out)
        if self.use_residual:
            out = out + x
        return out


class _MobileStem(nn.Module):
    def __init__(self, in_channels: int, out_channels: int, act: str,
                 rng: np.random.Generator):
        super().__init__()
        self.conv = nn.Conv2d(in_channels, out_channels, 3, rng, stride=1,
                              padding=1, scale_in=False)
        self.bn = nn.BatchNorm2d(out_channels)
        self._fused, self._act = _ACTS[act]

    def forward(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        out = conv_bn(x, self.conv, self.bn, self._fused)
        return self._act(out) if self._act else out


class MobileNet(SliceableModel):
    """Staged MobileNet classifier (see module docstring)."""

    family = "mobilenet"
    pool_kind = "image"

    def __init__(self, num_classes: int, arch: str = "mobilenet_v2",
                 width_mult: float = 1.0, num_stages: int | None = None,
                 head_mode: str = "deepest", seed: int = 0,
                 scale: str = "tiny", in_channels: int = 3):
        super().__init__()
        self._record_build_kwargs(
            num_classes=num_classes, arch=arch, width_mult=width_mult,
            num_stages=num_stages, head_mode=head_mode, seed=seed,
            scale=scale, in_channels=in_channels)
        try:
            config = MOBILENET_CONFIGS[arch]
        except KeyError:
            raise ValueError(f"unknown mobilenet arch {arch!r}") from None
        # "paper" scale: 4x the tiny widths (the published models' ballpark).
        width_factor = 4 if scale == "paper" else 1
        self.arch = arch
        self.width_mult = width_mult
        self.head_mode = head_mode
        self.total_stages = len(config["stages"])
        owned = self.total_stages if num_stages is None else num_stages
        if not 1 <= owned <= self.total_stages:
            raise ValueError(f"num_stages must be in [1, {self.total_stages}]")

        rng = np.random.default_rng(seed)
        stem_width = scaled_channels(config["stem"] * width_factor, width_mult)
        self.stem = _MobileStem(in_channels, stem_width, config["stem_act"], rng)

        self.stages = nn.ModuleList()
        stage_out_dims: list[int] = []
        in_ch = stem_width
        for stage_index in range(owned):
            blocks = nn.Sequential()
            for expand, out_base, stride, use_se, act in config["stages"][stage_index]:
                out_ch = scaled_channels(out_base * width_factor, width_mult)
                blocks.append(_InvertedResidual(in_ch, out_ch, stride, expand,
                                                use_se, act, rng))
                in_ch = out_ch
            if stage_index == self.total_stages - 1:
                # The final pointwise expansion before pooling.
                last = scaled_channels(config["last_channel"] * width_factor,
                                       width_mult)
                blocks.append(_ConvBNAct(in_ch, last, 1, rng,
                                         act=config["stem_act"]))
                in_ch = last
            self.stages.append(blocks)
            stage_out_dims.append(in_ch)

        self.heads = IndexedModules()
        head_indices = (range(owned) if head_mode == "all" else [owned - 1])
        for index in head_indices:
            self.heads.add(index, nn.Linear(stage_out_dims[index], num_classes,
                                            rng, scale_out=False))

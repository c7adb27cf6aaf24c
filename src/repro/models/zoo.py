"""Model registry: build any PracMHBench architecture by name.

The architecture names follow Table II of the paper; topology-heterogeneity
experiments draw from :data:`MODEL_FAMILIES` (ResNet family, MobileNet
family, ALBERT family, customized HAR CNNs).
"""

from __future__ import annotations

from typing import Callable

from .albert import ALBERT_CONFIGS, AlbertClassifier
from .base import SliceableModel
from .har_cnn import HAR_CONFIGS, HarCNN
from .mobilenet import MOBILENET_CONFIGS, MobileNet
from .resnet import RESNET_CONFIGS, ResNet
from .transformer import TextTransformer

__all__ = ["build_model", "MODEL_FAMILIES", "known_architectures"]

#: Architecture families used for topology heterogeneity (Table II).
MODEL_FAMILIES: dict[str, list[str]] = {
    "resnet": ["resnet18", "resnet34", "resnet50", "resnet101"],
    "mobilenet": ["mobilenet_v2", "mobilenet_v3_small", "mobilenet_v3_large"],
    "albert": ["albert_base", "albert_large", "albert_xxlarge"],
    "har_cnn": ["har_cnn_lite", "har_cnn", "har_cnn_wide", "har_cnn_deep"],
}


def _build_resnet(arch: str, num_classes: int, **kwargs) -> SliceableModel:
    return ResNet(num_classes, arch=arch, **kwargs)


def _build_mobilenet(arch: str, num_classes: int, **kwargs) -> SliceableModel:
    return MobileNet(num_classes, arch=arch, **kwargs)


def _build_albert(arch: str, num_classes: int, **kwargs) -> SliceableModel:
    return AlbertClassifier(num_classes, arch=arch, **kwargs)


def _build_har(arch: str, num_classes: int, **kwargs) -> SliceableModel:
    return HarCNN(num_classes, arch=arch, **kwargs)


def _build_transformer(arch: str, num_classes: int, **kwargs) -> SliceableModel:
    return TextTransformer(num_classes, **kwargs)


_BUILDERS: dict[str, Callable[..., SliceableModel]] = {}
for _name in RESNET_CONFIGS["tiny"]:
    _BUILDERS[_name] = _build_resnet
for _name in MOBILENET_CONFIGS:
    _BUILDERS[_name] = _build_mobilenet
for _name in ALBERT_CONFIGS:
    _BUILDERS[_name] = _build_albert
for _name in HAR_CONFIGS:
    _BUILDERS[_name] = _build_har
_BUILDERS["transformer"] = _build_transformer


def known_architectures() -> list[str]:
    """All registered architecture names."""
    return sorted(_BUILDERS)


def build_model(arch: str, num_classes: int, **kwargs) -> SliceableModel:
    """Instantiate an architecture by name.

    ``kwargs`` forward to the architecture constructor: ``width_mult``,
    ``num_stages``, ``head_mode``, ``seed``, ``scale`` plus model-specific
    arguments (``vocab_size``, ``in_channels``, ...).
    """
    try:
        builder = _BUILDERS[arch]
    except KeyError:
        raise ValueError(f"unknown architecture {arch!r}; "
                         f"known: {known_architectures()}") from None
    return builder(arch, num_classes, **kwargs)

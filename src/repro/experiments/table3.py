"""Table III: edge devices used in the platform construction."""

from __future__ import annotations

from ..hw.device import EDGE_DEVICES
from .registry import register_artifact

__all__ = ["rows"]


@register_artifact("table3", title="Table III: edge devices")
def rows(results, scale: str = "demo", seed: int = 0) -> list[dict]:
    out = []
    for device in EDGE_DEVICES.values():
        out.append({
            "device": device.name,
            "processor": device.processor,
            "gpu": device.gpu,
            "memory_GB": round(device.memory_gb, 1),
            "effective_GFLOPs": round(device.effective_train_flops / 1e9, 2),
        })
    return out

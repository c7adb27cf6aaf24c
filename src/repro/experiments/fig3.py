"""Figure 3: the constructed model pool.

Parameters, computational cost (GFLOPs), memory usage and training time of
ResNet-101 x{1.0, 0.75, 0.5, 0.25} for the three width-level algorithms on
the Jetson Orin NX — the statistics the constraint cases select models by.
"""

from __future__ import annotations

from ..algorithms import get_algorithm
from ..hw.cost_model import DEFAULT_COST_MODEL
from ..hw.device import get_device
from ..models.zoo import build_model
from .registry import register_artifact

__all__ = ["rows"]

_ROUND_SAMPLES = 500
_BATCH = 8
_METHODS = ("fjord", "sheterofl", "fedrolex")


@register_artifact("fig3", title="Figure 3: model pool on Jetson Orin NX")
def rows(results, scale: str = "paper", seed: int = 0) -> list[dict]:
    model_scale = "paper" if scale == "paper" else "tiny"
    orin = get_device("jetson_orin_nx")
    cm = DEFAULT_COST_MODEL
    out = []
    for method in _METHODS:
        cls = get_algorithm(method)
        base = build_model("resnet101", num_classes=100, seed=seed,
                           scale=model_scale, **cls.base_model_overrides)
        pool = cls.build_pool(base)
        for entry in sorted(pool.entries, key=lambda e: -e.proportion):
            out.append({
                "method": method,
                "variant": f"R101{entry.key}",
                "params_M": round(entry.stats.params_millions, 2),
                "gflops": round(entry.stats.gflops_per_sample, 3),
                "memory_MB": round(cm.training_memory_bytes(
                    entry.stats, _BATCH) / 2**20, 1),
                "train_time_s": round(cm.training_time_s(
                    entry.stats, orin, _ROUND_SAMPLES), 1),
            })
    return out

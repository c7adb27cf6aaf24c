"""Table I: x0.5 ResNet-101 under four methods on two Jetson devices.

Regenerates the motivating table: models generated by different
heterogeneous methods at the *same* nominal proportion (x0.5) differ widely
in parameters, per-round training time and training memory.  Method variants:

* SHeteroFL / FedRolex — width-sliced halves (identical structure; the
  rolling window does not change cost);
* DepthFL — bottom half of the blocks with auxiliary classifiers;
* FeDepth — bottom half of the blocks, trained one stage-segment at a time
  (optimiser state only for the active segment).
"""

from __future__ import annotations

from ..hw.cost_model import DEFAULT_COST_MODEL
from ..hw.device import get_device
from ..hw.flops import measure_model
from ..models.base import depth_variant_of
from ..models.zoo import build_model
from .registry import register_artifact

__all__ = ["rows"]

#: local samples per round used for the time column (calibration workload).
_ROUND_SAMPLES = 500
_BATCH = 8


def _variants(base):
    width_half = base.variant(width_mult=0.5)
    depthfl = depth_variant_of(base, 0.5, head_mode="all")
    fedepth = depth_variant_of(base, 0.5, head_mode="deepest")
    # FeDepth trains one stage segment at a time: freeze all but the top
    # owned stage for the measurement.
    owned = fedepth.num_owned_stages
    fedepth.set_trainable_stages([owned - 1], train_stem=False)
    return {
        "SHeteroFL": width_half,
        "DepthFL": depthfl,
        "FedRolex": base.variant(width_mult=0.5),
        "FeDepth": fedepth,
    }


@register_artifact("table1",
                   title="Table I: x0.5 ResNet-101 by method "
                         "(N=Jetson Nano, O=Jetson Orin NX)")
def rows(results, scale: str = "paper", seed: int = 0) -> list[dict]:
    """Measure the four method variants; returns Table I rows."""
    model_scale = "paper" if scale == "paper" else "tiny"
    base = build_model("resnet101", num_classes=100, seed=seed,
                       scale=model_scale)
    nano = get_device("jetson_nano")
    orin = get_device("jetson_orin_nx")
    cm = DEFAULT_COST_MODEL
    out = []
    for method, model in _variants(base).items():
        stats = measure_model(model)
        out.append({
            "method": method,
            "model": f"ResNet101 (x0.5, {model_scale})",
            "params_M": round(stats.params_millions, 2),
            "train_time_nano_s": round(
                cm.training_time_s(stats, nano, _ROUND_SAMPLES), 2),
            "train_time_orin_s": round(
                cm.training_time_s(stats, orin, _ROUND_SAMPLES), 2),
            "memory_MB": round(
                cm.training_memory_bytes(stats, _BATCH) / 2**20, 1),
        })
    return out


#: shown by ``python -m repro describe table1``.
PAPER_REFERENCE = ("SHeteroFL 10.66M N430/O213 593MB | "
                   "DepthFL 10.29M N516/O255 1220MB | "
                   "FedRolex 10.75M N465/O234 780MB | "
                   "FeDepth 10.54M N451/O222 631MB")

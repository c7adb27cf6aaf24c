"""Figure 6: results on memory-limited MHFL.

Memory tiers {16 GB GPU, 4 GB GPU, no GPU} with market-share proportions;
the paper restricts this case to the large models (ResNet-101 on CIFAR-100,
ALBERT on Stack Overflow) since small HAR models fit every device.
"""

from __future__ import annotations

from .constraint_figs import run_constraint_figure
from .registry import register_artifact

__all__ = ["run", "MEMORY_DATASETS"]

MEMORY_DATASETS = ["cifar100", "stackoverflow"]


@register_artifact("fig6", title="Figure 6: memory-limited MHFL")
def run(scale: str = "demo", seed: int = 0,
        datasets: list[str] | None = None,
        algorithms: list[str] | None = None,
        seeds: list[int] | None = None,
        availability: str = "always_on",
        scale_overrides: dict | None = None) -> list[dict]:
    return run_constraint_figure(("memory",),
                                 datasets=datasets or MEMORY_DATASETS,
                                 algorithms=algorithms, scale=scale,
                                 seed=seed, seeds=seeds,
                                 availability=availability,
                                 scale_overrides=scale_overrides)

"""Figure 6: results on memory-limited MHFL.

Memory tiers {16 GB GPU, 4 GB GPU, no GPU} with market-share proportions;
the paper restricts this case to the large models (ResNet-101 on CIFAR-100,
ALBERT on Stack Overflow) since small HAR models fit every device.
"""

from __future__ import annotations

from .constraint_figs import constraint_rows
from .registry import register_artifact
from .spec import RunSpec
from .sweep import expand_grid

__all__ = ["specs", "rows", "MEMORY_DATASETS"]

MEMORY_DATASETS = ["cifar100", "stackoverflow"]


def specs(scale: str = "demo", seed: int = 0,
          datasets: list[str] | None = None,
          algorithms: list[str] | None = None,
          seeds: list[int] | None = None,
          availability: str = "always_on",
          scale_overrides: dict | None = None) -> list[RunSpec]:
    return expand_grid(algorithms, datasets or MEMORY_DATASETS, ("memory",),
                       availability=availability, scale=scale,
                       seeds=seeds or [seed], scale_overrides=scale_overrides)


rows = register_artifact("fig6", title="Figure 6: memory-limited MHFL",
                         specs=specs)(constraint_rows)

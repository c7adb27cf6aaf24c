"""Figure 4: results on computation-limited MHFL.

Every algorithm x every data task under the computation constraint (IMA
compute capabilities, equal-training-time assignment): global accuracy,
time-to-accuracy, stability and effectiveness.
"""

from __future__ import annotations

from .constraint_figs import constraint_rows
from .registry import register_artifact
from .spec import RunSpec
from .sweep import expand_grid

__all__ = ["specs", "rows"]


def specs(scale: str = "demo", seed: int = 0,
          datasets: list[str] | None = None,
          algorithms: list[str] | None = None,
          seeds: list[int] | None = None,
          availability: str = "always_on",
          scale_overrides: dict | None = None) -> list[RunSpec]:
    return expand_grid(algorithms, datasets, ("computation",),
                       availability=availability, scale=scale,
                       seeds=seeds or [seed], scale_overrides=scale_overrides)


rows = register_artifact("fig4", title="Figure 4: computation-limited MHFL",
                         specs=specs)(constraint_rows)

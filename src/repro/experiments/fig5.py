"""Figure 5: results on communication-limited MHFL.

Same grid as Figure 4 with the communication-bandwidth constraint (round
communication controlled to a budget, per the IMA bandwidth trace).
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
    return expand_grid(algorithms, datasets, ("communication",),
                       availability=availability, scale=scale,
                       seeds=seeds or [seed], scale_overrides=scale_overrides)


rows = register_artifact("fig5", title="Figure 5: communication-limited MHFL",
                         specs=specs)(constraint_rows)

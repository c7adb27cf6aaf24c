"""Table II: statistics of the platform (algorithm x level x model x data).

Rendered from the live registries, so the table always reflects what the
platform actually implements.
"""

from __future__ import annotations

from ..algorithms import ALGORITHMS
from ..data.registry import DATASET_TRACKS
from .mapping import base_arch_for
from .registry import register_artifact

__all__ = ["rows"]


@register_artifact("table2", title="Table II: platform statistics")
def rows(results, scale: str = "demo", seed: int = 0) -> list[dict]:
    out = []
    for name, cls in ALGORITHMS.items():
        if cls.level == "homogeneous":
            continue
        row = {"hetero": cls.level, "algorithm": name}
        for track, datasets in DATASET_TRACKS.items():
            models = sorted({base_arch_for(ds, cls.level) for ds in datasets})
            row[f"{track}_model"] = "/".join(models)
            row[f"{track}_data"] = "/".join(datasets)
        out.append(row)
    return out

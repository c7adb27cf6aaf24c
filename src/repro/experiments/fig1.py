"""Figure 1: the evaluation-track radar view.

The paper's Figure 1 shows per-algorithm radar charts over the four metrics
(GACC / Time / Stability / Effectiveness); this module renders the same
normalised per-axis scores as a table from a real constrained run (the
paper's own radar values are "just for demonstration").
"""

from __future__ import annotations

from . import fig4
from .constraint_figs import constraint_rows
from .registry import register_artifact
from .spec import RunSpec

__all__ = ["specs", "rows"]

_AXES = ["global_acc", "tta_s", "stability_var", "effectiveness"]
_HIGHER_BETTER = {"global_acc": True, "tta_s": False,
                  "stability_var": False, "effectiveness": True}


def specs(scale: str = "demo", seed: int = 0,
          dataset: str = "harbox",
          algorithms: list[str] | None = None,
          seeds: list[int] | None = None,
          scale_overrides: dict | None = None) -> list[RunSpec]:
    """Figure 4's cells on one dataset."""
    return fig4.specs(scale, seed, [dataset], algorithms, seeds,
                      scale_overrides=scale_overrides)


rows = register_artifact("fig1",
                         title="Figure 1: radar scores "
                               "(computation-limited, 1.0 = best on axis)",
                         render="radar", specs=specs, axes=_AXES,
                         higher_better=_HIGHER_BETTER)(constraint_rows)

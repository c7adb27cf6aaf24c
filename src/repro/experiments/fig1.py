"""Figure 1: the evaluation-track radar view.

The paper's Figure 1 shows per-algorithm radar charts over the four metrics
(GACC / Time / Stability / Effectiveness); this module renders the same
normalised per-axis scores as a table from a real constrained run (the
paper's own radar values are "just for demonstration").
"""

from __future__ import annotations

from .fig4 import run as run_fig4
from .registry import register_artifact

__all__ = ["run"]

_AXES = ["global_acc", "tta_s", "stability_var", "effectiveness"]
_HIGHER_BETTER = {"global_acc": True, "tta_s": False,
                  "stability_var": False, "effectiveness": True}


@register_artifact("fig1",
                   title="Figure 1: radar scores "
                         "(computation-limited, 1.0 = best on axis)",
                   render="radar", axes=_AXES,
                   higher_better=_HIGHER_BETTER)
def run(scale: str = "demo", seed: int = 0,
        dataset: str = "harbox",
        algorithms: list[str] | None = None,
        seeds: list[int] | None = None,
        scale_overrides: dict | None = None) -> list[dict]:
    return run_fig4(scale=scale, seed=seed, datasets=[dataset],
                    algorithms=algorithms, seeds=seeds,
                    scale_overrides=scale_overrides)

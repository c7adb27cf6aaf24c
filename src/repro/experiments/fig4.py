"""Figure 4: results on computation-limited MHFL.

Every algorithm x every data task under the computation constraint (IMA
compute capabilities, equal-training-time assignment): global accuracy,
time-to-accuracy, stability and effectiveness.
"""

from __future__ import annotations

from .constraint_figs import run_constraint_figure
from .registry import register_artifact

__all__ = ["run"]


@register_artifact("fig4", title="Figure 4: computation-limited MHFL")
def run(scale: str = "demo", seed: int = 0,
        datasets: list[str] | None = None,
        algorithms: list[str] | None = None,
        seeds: list[int] | None = None,
        availability: str = "always_on",
        scale_overrides: dict | None = None) -> list[dict]:
    return run_constraint_figure(("computation",), datasets=datasets,
                                 algorithms=algorithms, scale=scale,
                                 seed=seed, seeds=seeds,
                                 availability=availability,
                                 scale_overrides=scale_overrides)

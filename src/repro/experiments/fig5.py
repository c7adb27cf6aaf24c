"""Figure 5: results on communication-limited MHFL.

Same grid as Figure 4 with the communication-bandwidth constraint (round
communication controlled to a budget, per the IMA bandwidth trace).
"""

from __future__ import annotations

from .constraint_figs import run_constraint_figure
from .registry import register_artifact

__all__ = ["run"]


@register_artifact("fig5", title="Figure 5: communication-limited MHFL")
def run(scale: str = "demo", seed: int = 0,
        datasets: list[str] | None = None,
        algorithms: list[str] | None = None,
        seeds: list[int] | None = None,
        availability: str = "always_on",
        scale_overrides: dict | None = None) -> list[dict]:
    return run_constraint_figure(("communication",), datasets=datasets,
                                 algorithms=algorithms, scale=scale,
                                 seed=seed, seeds=seeds,
                                 availability=availability,
                                 scale_overrides=scale_overrides)

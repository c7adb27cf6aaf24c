"""Shared driver for the constraint-case figures (Figures 4, 5 and 6).

Each figure is the same grid — global accuracy + time-to-accuracy (top row)
and stability + effectiveness (bottom row) for every algorithm on every data
task — under a different active constraint.
"""

from __future__ import annotations

from ..algorithms import MHFL_ALGORITHMS
from ..data.registry import DATASET_NAMES
from .runner import execute_specs, summarize_results
from .sweep import expand_grid

__all__ = ["run_constraint_figure"]


def run_constraint_figure(constraints: tuple[str, ...],
                          datasets: list[str] | None = None,
                          algorithms: list[str] | None = None,
                          scale: str = "demo", seed: int = 0,
                          seeds: list[int] | None = None,
                          availability: str = "always_on",
                          scale_overrides: dict | None = None) -> list[dict]:
    """All four metrics for every (dataset, algorithm) under a constraint.

    ``seeds`` sweeps the whole grid and renders mean±std cells;
    ``availability`` swaps the fleet scenario (always_on / diurnal / markov
    / dropout); ``scale_overrides`` tweaks individual scale fields (e.g.
    ``{"num_rounds": 10}``).
    """
    datasets = datasets or list(DATASET_NAMES)
    algorithms = algorithms or list(MHFL_ALGORITHMS)
    results = execute_specs(expand_grid(
        algorithms, datasets, constraints, availability=availability,
        scale=scale, seeds=seeds if seeds else [seed],
        scale_overrides=scale_overrides))
    rows = []
    for dataset in datasets:
        cells = [res for res in results if res.spec.dataset == dataset]
        rows.extend(summarize_results(cells, algorithms))
    return rows

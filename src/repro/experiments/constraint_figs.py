"""Shared rows for the constraint-case figures (Figures 1, 4, 5 and 6).

Each figure is the same grid — global accuracy + time-to-accuracy (top row)
and stability + effectiveness (bottom row) for every algorithm on every data
task — under a different active constraint.  Its cells are one
:func:`~repro.experiments.sweep.expand_grid`: ``seeds`` sweeps the whole
grid and renders mean±std cells, ``availability`` swaps the fleet scenario
(always_on / diurnal / markov / dropout) and ``scale_overrides`` tweaks
individual scale fields (e.g. ``{"num_rounds": 10}``).
"""

from __future__ import annotations

from ..algorithms import MHFL_ALGORITHMS
from .runner import summarize_results

__all__ = ["constraint_rows"]


def constraint_rows(results, algorithms: list[str] | None = None,
                    **_) -> list[dict]:
    """All four metrics for every (dataset, algorithm), dataset by dataset
    in grid order."""
    algorithms = algorithms or list(MHFL_ALGORITHMS)
    rows = []
    for dataset in dict.fromkeys(res.spec.dataset for res in results):
        cells = [res for res in results if res.spec.dataset == dataset]
        rows.extend(summarize_results(cells, algorithms))
    return rows

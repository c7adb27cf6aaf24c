"""Shared benchmark fixtures.

Every benchmark regenerates one of the paper's tables/figures through the
same harness the full-scale runs use (``repro.experiments.*``), at smoke
scale so the whole suite completes in minutes.  Each benchmark prints the
regenerated rows (visible with ``pytest benchmarks/ --benchmark-only -s``)
and asserts their shape.

Timings are pytest-benchmark's: ``--benchmark-json PATH`` writes them.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_once(benchmark):
    """Benchmark an expensive harness exactly once (no warmup repeats)."""
    return lambda fn: benchmark.pedantic(fn, rounds=1, iterations=1)

"""Benchmark: regenerate the sync-vs-deadline-vs-buffered comparison.

Smoke scale with one width algorithm on the computation case; the full
table runs via ``python -m repro run async_compare --scale demo``.
"""

from repro.experiments import format_table
from repro.experiments import async_compare


def test_async_compare(run_once):
    rows = run_once(lambda: async_compare.run(
        scale="smoke", algorithms=["sheterofl"],
        cases=[("computation",)]))
    print()
    print(format_table(rows, title="Async compare (smoke)"))
    assert {r["mode"] for r in rows} == set(async_compare.MODES)
    assert len(rows) == len(async_compare.MODES)
    # The buffered run aggregates the same number of server versions in no
    # more simulated time than the straggler-bound synchronous run.
    by_mode = {r["mode"]: r for r in rows}
    assert by_mode["buffered"]["total_s"] <= by_mode["sync"]["total_s"]

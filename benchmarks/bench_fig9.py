"""Benchmark: regenerate Figure 9 (scalability, memory-limited CIFAR-100).

Smoke scale with a 1:2 client sweep and one algorithm per width/depth level;
the paper's 100/200/500 sweep runs via
``python -m repro run fig9 --scale paper``.
"""

from repro.experiments import fig9, format_table

_ALGOS = ["sheterofl", "fedepth"]


def test_fig9(run_once):
    rows = run_once(lambda: fig9.run(scale="smoke", algorithms=_ALGOS,
                                     client_counts=[4, 8]))
    print()
    print(format_table(rows, title="Figure 9 (smoke)"))
    assert {r["clients"] for r in rows} == {4, 8}
    assert len(rows) == 2 * len(_ALGOS)

"""Benchmark: regenerate Figure 7 (constraint combinations on CIFAR-100).

Smoke scale with one representative algorithm per heterogeneity level; the
full eight-algorithm sweep runs via
``python -m repro run fig7 --scale demo``.
"""

from repro.experiments import fig7, format_table

_ALGOS = ["sheterofl", "depthfl", "fedproto"]


def test_fig7(run_once):
    rows = run_once(lambda: fig7.run(scale="smoke", algorithms=_ALGOS))
    print()
    print(format_table(rows, title="Figure 7 (smoke)"))
    labels = {r["constraints"] for r in rows}
    assert labels == {"comp", "mem", "comm", "mem+comm", "mem+comm+comp"}
    assert len(rows) == 5 * len(_ALGOS)

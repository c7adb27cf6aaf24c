"""Benchmark: regenerate Figure 8 (non-IID robustness, computation-limited).

Smoke scale on CIFAR-10 with one algorithm per heterogeneity level; full
three-dataset, eight-algorithm sweep via
``python -m repro run fig8 --scale demo``.
"""

from repro.experiments import fig8, format_table

_ALGOS = ["fedrolex", "inclusivefl", "fedet"]


def test_fig8(run_once):
    rows = run_once(lambda: fig8.run(scale="smoke", datasets=["cifar10"],
                                     algorithms=_ALGOS))
    print()
    print(format_table(rows, title="Figure 8 (smoke)"))
    assert {r["partition"] for r in rows} == {"iid", "niid-0.5", "niid-5"}
    assert len(rows) == 3 * len(_ALGOS)

"""Benchmark: regenerate Figure 4 (computation-limited MHFL).

Smoke scale, all eight algorithms on one dataset per data track (CV / HAR) —
the full six-dataset grid runs via
``python -m repro run fig4 --scale demo``.
"""

from repro.experiments import fig4, format_table

_DATASETS = ["cifar100", "harbox"]


def test_fig4(run_once):
    rows = run_once(lambda: fig4.run(scale="smoke", datasets=_DATASETS))
    print()
    print(format_table(rows, title="Figure 4 (smoke)"))
    assert len(rows) == 8 * len(_DATASETS)
    for row in rows:
        assert 0.0 <= row["global_acc"] <= 1.0
        assert row["stability_var"] >= 0.0
        assert row["effectiveness"] is not None

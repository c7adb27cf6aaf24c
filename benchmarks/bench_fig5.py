"""Benchmark: regenerate Figure 5 (communication-limited MHFL).

Smoke scale on the NLP track plus UCI-HAR; full grid via
``python -m repro run fig5 --scale demo``.
"""

from repro.experiments import fig5, format_table

_DATASETS = ["agnews", "ucihar"]


def test_fig5(run_once):
    rows = run_once(lambda: fig5.run(scale="smoke", datasets=_DATASETS))
    print()
    print(format_table(rows, title="Figure 5 (smoke)"))
    assert len(rows) == 8 * len(_DATASETS)
    assert {r["dataset"] for r in rows} == set(_DATASETS)

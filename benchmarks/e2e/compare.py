#!/usr/bin/env python3
"""Compare two ledger results: ``compare.py A.json B.json``.

``A`` is the parent (or the first half of a self-check), ``B`` the change.
Each workload is reported in its own rows.  For every end-to-end metric the
verdict is

* ``regressed`` — B is worse than A by more than the metric's bound;
* ``improved`` — B is better by more than the bound and either the
  run-to-run spread is within the bound or every repetition of B reads
  better than every repetition of A;
* ``unresolved`` — the spread between a run's own repetitions (inter-quartile
  distance over the median, the larger of the two runs') exceeds the bound,
  so a difference that size cannot be told from noise: never reported as
  ``unchanged``;
* ``unchanged`` — otherwise.

Per-layer counters marked exact must be equal (``differs`` otherwise); other
per-layer values are listed with their ratio and no verdict.  Exit status is
non-zero when a metric regressed or an exact counter differs; ``--strict``
(the A/A self-check) also fails a metric that moved beyond its bound in
either direction.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402

__all__ = ["worse_by", "verdict", "compare_results", "main"]


def worse_by(a: float, b: float, better: str) -> float:
    """Relative worsening of ``b`` against ``a`` (negative = improvement)."""
    if better == "lower":
        return b / a - 1.0
    return a / b - 1.0


def all_better(a_summary: dict | None, b_summary: dict | None,
               better: str) -> bool:
    """Whether every repetition of B reads better than every one of A."""
    if not a_summary or not b_summary:
        return False
    if better == "lower":
        return b_summary["max"] < a_summary["min"]
    return b_summary["min"] > a_summary["max"]


def verdict(a: float, b: float, metric: layers.EndToEnd, spread: float,
            separated: bool = False) -> str:
    change = worse_by(a, b, metric.better)
    if change > metric.bound:
        return "regressed"
    if spread > metric.bound:
        return "improved" if separated and change < 0 else "unresolved"
    if change < -metric.bound:
        return "improved"
    return "unchanged"


def compare_results(a: dict, b: dict, strict: bool = False
                    ) -> tuple[list[str], bool]:
    """Report lines and whether the comparison passes."""
    lines: list[str] = []
    passed = True
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        lines.append(f"## {name}")
        run_a = a["workloads"][name]["end_to_end"]
        run_b = b["workloads"][name]["end_to_end"]
        for side, run in (("A", run_a), ("B", run_b)):
            if not run["correct"]:
                lines.append(f"{side} is not correct: {run['problems']}")
                passed = False
        for metric in layers.END_TO_END:
            value_a = run_a["metrics"][metric.name]["value"]
            value_b = run_b["metrics"][metric.name]["value"]
            spread = max(run_a["spread"][metric.name],
                         run_b["spread"][metric.name])
            # client_rounds_per_s is derived from cell_wall_s: worse when
            # lower, while the wall series it comes from is worse when higher
            separated = (metric.name in run_a["series"] and all_better(
                run_a["series"][metric.name], run_b["series"][metric.name],
                metric.better))
            outcome = verdict(value_a, value_b, metric, spread, separated)
            change = worse_by(value_a, value_b, metric.better)
            if outcome == "regressed" or (strict
                                          and abs(change) > metric.bound):
                passed = False
            lines.append(
                f"{metric.name:22s} A {value_a:12.5g} B {value_b:12.5g} "
                f"{metric.unit:4s} B/A {value_b / value_a:6.3f}  bound "
                f"{metric.bound:.2f}  spread {spread:.3f}  {outcome}")
        layer_a = a["workloads"][name]["per_layer"]["metrics"]
        layer_b = b["workloads"][name]["per_layer"]["metrics"]
        for metric in layers.PER_LAYER:
            value_a = layer_a[metric.name]["value"]
            value_b = layer_b[metric.name]["value"]
            if metric.exact:
                if value_a != value_b:
                    passed = False
                    lines.append(f"{metric.name:44s} A {value_a} B {value_b} "
                                 f"differs (exact counter)")
                continue
            ratio = f"{value_b / value_a:6.3f}" if value_a else "   n/a"
            lines.append(f"{metric.name:44s} A {value_a:12.5g} B "
                         f"{value_b:12.5g} {metric.unit:5s} B/A {ratio}")
    return lines, passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--strict", action="store_true",
                        help="A/A mode: fail on any move beyond the bound")
    args = parser.parse_args(argv)
    lines, passed = compare_results(json.loads(args.a.read_text()),
                                    json.loads(args.b.read_text()),
                                    strict=args.strict)
    print("\n".join(lines))
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

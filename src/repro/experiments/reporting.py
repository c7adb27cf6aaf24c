"""Rendering and serialising experiment outputs.

No plotting dependency is available offline, so every figure is regenerated
as the table of series the plot would show (algorithm x metric grids); the
radar chart of Figure 1 renders as a normalised per-axis table.  Beyond the
aligned text tables, rows also serialise to JSON and CSV so every artifact
is machine-readable (``python -m repro run <artifact> --out json|csv``).

Multi-seed cells carry companion ``<column>_std`` keys; the text renderer
collapses them into ``mean ± std`` cells, while the JSON/CSV writers keep
mean and std as separate numeric fields.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Mapping, Sequence

import numpy as np

__all__ = ["format_table", "format_radar", "rows_to_json", "rows_to_csv",
           "write_rows", "aggregate_seed_rows", "mean_std"]


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _columns_of(rows: Sequence[dict]) -> list[str]:
    """Union of row keys in first-seen order."""
    columns: list[str] = []
    seen = set()
    for row in rows:
        for key in row:
            if key not in seen:
                seen.add(key)
                columns.append(key)
    return columns


def format_table(rows: Sequence[dict], columns: Sequence[str] | None = None,
                 title: str | None = None) -> str:
    """Render dict rows as an aligned text table.

    Columns with a ``<name>_std`` companion render as ``mean ± std`` in the
    base column (the std column is dropped from the grid); single-seed rows
    — no ``_std`` keys — render exactly as before.
    """
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = _columns_of(rows)
    has_key = {key for row in rows for key in row}
    display = [col for col in columns
               if not (col.endswith("_std") and col[:-len("_std")] in columns)]

    def cell(row: dict, col: str) -> str:
        value = row.get(col)
        std = row.get(col + "_std") if col + "_std" in has_key else None
        if std is not None and value is not None:
            return f"{_fmt(value)} ± {_fmt(std)}"
        return _fmt(value)

    cells = [[cell(row, col) for col in display] for row in rows]
    widths = [max(len(col), *(len(line[i]) for line in cells))
              for i, col in enumerate(display)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(w) for col, w in zip(display, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for line in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines)


def format_radar(rows: Sequence[dict], axes: Sequence[str],
                 name_key: str = "algorithm",
                 higher_better: dict[str, bool] | None = None,
                 title: str | None = None) -> str:
    """Figure-1-style radar chart as a normalised [0, 1] score table.

    Each axis is min-max normalised over the rows; axes where lower is
    better (time, variance) are inverted so 1.0 is always "best".
    """
    higher_better = higher_better or {}
    scores = []
    for axis in axes:
        values = [row.get(axis) for row in rows]
        numeric = [v for v in values if v is not None]
        lo, hi = (min(numeric), max(numeric)) if numeric else (0.0, 1.0)
        span = (hi - lo) or 1.0
        axis_scores = []
        for value in values:
            if value is None:
                axis_scores.append(0.0)
                continue
            score = (value - lo) / span
            if not higher_better.get(axis, True):
                score = 1.0 - score
            axis_scores.append(score)
        scores.append(axis_scores)
    out_rows = []
    for i, row in enumerate(rows):
        out = {name_key: row[name_key]}
        for j, axis in enumerate(axes):
            out[axis] = round(scores[j][i], 3)
        out_rows.append(out)
    return format_table(out_rows, [name_key] + list(axes), title=title)


# ----------------------------------------------------------------------
# Machine-readable writers
# ----------------------------------------------------------------------
def rows_to_json(rows: Sequence[dict], indent: int | None = 1) -> str:
    """Rows as a JSON array (all keys kept, stds as separate fields)."""
    return json.dumps(list(rows), indent=indent)


def rows_to_csv(rows: Sequence[dict]) -> str:
    """Rows as CSV over the union of keys; ``None`` renders empty."""
    buffer = io.StringIO()
    columns = _columns_of(rows)
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="",
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return buffer.getvalue()


def write_rows(rows: Sequence[dict], out: str = "table",
               title: str | None = None, render: str = "table",
               **render_kwargs) -> str:
    """Serialise rows in the requested output format.

    ``out`` is one of ``table`` / ``json`` / ``csv``; the ``render`` hint
    (from the artifact registry) selects the radar renderer for Figure-1
    style artifacts when a text table is requested.
    """
    if out == "json":
        return rows_to_json(rows)
    if out == "csv":
        return rows_to_csv(rows)
    if out != "table":
        raise ValueError(f"unknown output format {out!r}; "
                         f"known: table, json, csv")
    if render == "radar":
        return format_radar(rows, title=title, **render_kwargs)
    return format_table(rows, title=title)


# ----------------------------------------------------------------------
# Multi-seed row aggregation
# ----------------------------------------------------------------------
def mean_std(values: Sequence[float | None]) -> tuple[float | None,
                                                      float | None]:
    """Across-seed mean and sample std, ignoring ``None`` entries.

    ``None`` marks a missing measurement (e.g. a seed that never reaches
    the time-to-accuracy target); the aggregate is computed over the values
    that exist (and is ``None`` when none do).  Std is ``None`` when fewer
    than two values exist.
    """
    numeric = [v for v in values if v is not None]
    if not numeric:
        return None, None
    mean = float(np.mean(numeric))
    std = float(np.std(numeric, ddof=1)) if len(numeric) > 1 else None
    return mean, std


def _round(value, digits: int):
    return None if value is None else round(value, digits)


def aggregate_seed_rows(per_seed_rows: Sequence[Sequence[dict]],
                        value_keys: Mapping[str, int]) -> list[dict]:
    """Collapse positionally-aligned per-seed row lists into mean±std rows.

    Each inner list must come from the same sweep loop run at a different
    seed (same length, same identity keys per position).  ``value_keys``
    maps each value column to the digits it is rounded to; every other key
    is an identity key and must agree across seeds.  A single seed keeps
    its rows with the values rounded; several seeds turn each value into
    the rounded across-seed mean (:func:`mean_std`) with a ``<key>_std``
    companion and add a ``seeds`` count.
    """
    if len(per_seed_rows) == 1:
        return [{key: (_round(value, value_keys[key]) if key in value_keys
                       else value) for key, value in row.items()}
                for row in per_seed_rows[0]]
    out = []
    for cells in zip(*per_seed_rows, strict=True):
        base = dict(cells[0])
        for other in cells[1:]:
            for key in base:
                if key not in value_keys and other.get(key) != base[key]:
                    raise ValueError(
                        f"seed rows disagree on identity key {key!r}: "
                        f"{base[key]!r} != {other.get(key)!r}")
        for key, digits in value_keys.items():
            mean, std = mean_std([c.get(key) for c in cells])
            base[key] = _round(mean, digits)
            base[f"{key}_std"] = _round(std, digits)
        base["seeds"] = len(cells)
        out.append(base)
    return out

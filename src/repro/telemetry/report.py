"""Turn collected telemetry into renderable report rows.

The ``repro profile`` verb feeds a
:class:`~repro.telemetry.runtime.RunTelemetry` through :func:`report_rows`
and hands the result to the standard row writers
(:mod:`repro.experiments.reporting`), so profiles render as text tables,
JSON or CSV exactly like every other artifact.  Rows are sectioned — each
carries a ``section`` key (``cache`` / ``counter`` / ``gauge`` /
``histogram`` / ``span`` / ``round``) — so one flat list covers the whole
report and stays machine-readable.
"""

from __future__ import annotations

from .runtime import RunTelemetry

__all__ = ["format_series", "cache_rows", "counter_rows", "gauge_rows",
           "histogram_rows", "span_rows", "round_rows", "report_rows"]


def format_series(name: str, labels) -> str:
    """``name{k=v,...}`` — the conventional labeled-series rendering."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def cache_rows(telemetry: RunTelemetry) -> list[dict]:
    """Run-cache statistics, including the derived hit rate."""
    metrics = telemetry.metrics
    hits = metrics.counter_total("cache.hits")
    misses = metrics.counter_total("cache.misses")
    lookups = hits + misses
    rows = [
        {"section": "cache", "name": "lookups", "value": int(lookups)},
        {"section": "cache", "name": "hits", "value": int(hits)},
        {"section": "cache", "name": "misses", "value": int(misses)},
        {"section": "cache", "name": "puts",
         "value": int(metrics.counter_total("cache.puts"))},
        {"section": "cache", "name": "hit_rate",
         "value": round(hits / lookups, 4) if lookups else None},
    ]
    return rows


def counter_rows(telemetry: RunTelemetry) -> list[dict]:
    return [{"section": "counter",
             "name": format_series(name, labels), "value": value}
            for (name, labels), value
            in sorted(telemetry.metrics.counters().items())]


def gauge_rows(telemetry: RunTelemetry) -> list[dict]:
    payload = telemetry.metrics.to_dict()
    return [{"section": "gauge",
             "name": format_series(entry["name"],
                                   sorted(entry["labels"].items())),
             "value": round(entry["value"], 6)}
            for entry in payload.get("gauges", [])]


def histogram_rows(telemetry: RunTelemetry) -> list[dict]:
    payload = telemetry.metrics.to_dict()
    rows = []
    for entry in payload.get("histograms", []):
        row = {"section": "histogram",
               "name": format_series(entry["name"],
                                     sorted(entry["labels"].items())),
               "count": entry["count"]}
        for key in ("mean", "p50", "p90", "p99", "max"):
            if key in entry:
                row[key] = round(entry[key], 6)
        rows.append(row)
    return rows


def span_rows(telemetry: RunTelemetry) -> list[dict]:
    """Spans aggregated per name: call count and wall-clock totals."""
    grouped: dict[str, list] = {}
    for span in telemetry.tracer.spans:
        grouped.setdefault(span.name, []).append(span)
    rows = []
    for name in sorted(grouped):
        spans = grouped[name]
        durations = [span.duration_s for span in spans]
        row = {"section": "span", "name": name, "count": len(spans),
               "total_s": round(sum(durations), 6),
               "mean_s": round(sum(durations) / len(durations), 6),
               "max_s": round(max(durations), 6)}
        peaks = [span.memory_peak_b for span in spans
                 if span.memory_peak_b is not None]
        if peaks:
            row["mem_peak_kb"] = round(max(peaks) / 1024, 1)
        rows.append(row)
    return rows


def round_rows(telemetry: RunTelemetry) -> list[dict]:
    """Per-round timing table: simulated clock plus measured wall-clock."""
    rows = []
    for entry in telemetry.sim_rounds:
        extras = entry.get("extras", {})
        row = {"section": "round", "round": entry["round"],
               "sim_time_s": round(entry["sim_time_s"], 3),
               "round_time_s": round(entry["round_time_s"], 3),
               "dispatched": extras.get("dispatched"),
               "received": extras.get("received")}
        dropped = sum(v for k, v in extras.items()
                      if k.startswith("dropped_"))
        if dropped:
            row["dropped"] = dropped
        wall = entry.get("wall")
        if wall:
            row["wall_exec_max_s"] = round(wall["execute_max_s"], 4)
            row["wall_exec_sum_s"] = round(wall["execute_sum_s"], 4)
            if wall.get("retries"):
                row["retries"] = wall["retries"]
        rows.append(row)
    return rows


def report_rows(telemetry: RunTelemetry) -> list[dict]:
    """The full sectioned report a profile renders."""
    return (cache_rows(telemetry) + counter_rows(telemetry)
            + gauge_rows(telemetry) + histogram_rows(telemetry)
            + span_rows(telemetry) + round_rows(telemetry))

"""Order statistics and calibration arithmetic for the end-to-end ledger.

Kept free of numpy and of ``repro`` so ``compare.py`` and the unit tests can
use it without importing the program under measurement.
"""

from __future__ import annotations

import statistics

__all__ = ["summarize", "iqr_share", "calibrated"]


def summarize(values) -> dict:
    """Median, quartiles, extremes and sample count of a timing series.

    Quartiles are ``statistics.quantiles(n=4)`` (the rule the acceptance
    driver applies); a single sample collapses them onto itself.  No tail
    percentile is reported: a run has about eight repetitions, so none has
    ten samples beyond it.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("cannot summarise an empty series")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def iqr_share(values) -> float:
    """Inter-quartile distance as a share of the median (run-to-run spread)."""
    summary = summarize(values)
    if summary["median"] == 0:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def calibrated(seconds: float, calib_s: float, calib_ref_s: float) -> float:
    """Express ``seconds``, measured while the calibration loop took
    ``calib_s``, in reference-host seconds (where it takes ``calib_ref_s``)."""
    if calib_s <= 0:
        raise ValueError("calibration sample must be positive")
    return seconds * calib_ref_s / calib_s

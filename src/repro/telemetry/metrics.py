"""Zero-dependency metrics primitives: counters, gauges, histograms.

A :class:`MetricsRegistry` keeps labeled series of three kinds:

* **counters** — monotonically accumulated floats (``inc``); merging two
  registries adds them, so per-run registries roll up into sessions;
* **gauges** — last-written (``set_gauge``) or maximum-so-far
  (``max_gauge``) point values;
* **histograms** — raw observation lists (``observe``) with nearest-rank
  percentiles, so straggler tails (p90/p99 client wall-clock) survive
  aggregation instead of collapsing into a mean.

Series are keyed by ``(name, sorted(labels))`` — the same convention as
Prometheus-style metrics, minus any dependency: everything here is stdlib
and JSON-serialisable (:meth:`MetricsRegistry.to_dict` /
:meth:`MetricsRegistry.from_dict` round-trip losslessly).

Thread-safe by a single registry lock, so recording from several threads
of one process never loses an update.  Process-pool
workers hold their *own* (empty, disabled) registry — their measurements
ride back to the coordinator on the work-item result instead (see
:mod:`repro.fl.executor`).
"""

from __future__ import annotations

import math
import threading

__all__ = ["Histogram", "MetricsRegistry", "percentile"]

#: cap on raw observations kept per histogram series; beyond it, new values
#: still update count/sum/min/max but no longer join the percentile pool
#: (runs are bounded, so this only guards against pathological loops).
HISTOGRAM_VALUE_CAP = 65536

#: the percentiles serialised into histogram summaries.
SUMMARY_PERCENTILES = (50, 90, 99)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list.

    The nearest-rank method returns an actual observation (never an
    interpolated value), so p99 of latencies is a latency that happened.
    """
    if not values:
        raise ValueError("percentile of an empty list")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    ordered = sorted(values)
    if q == 0.0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


class Histogram:
    """One labeled series of raw observations with derived summaries."""

    __slots__ = ("values", "count", "total", "min", "max")

    def __init__(self):
        self.values: list[float] = []
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.values) < HISTOGRAM_VALUE_CAP:
            self.values.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        return percentile(self.values, q)

    def summary(self) -> dict:
        """JSON-safe summary (count/sum/min/max/mean + percentiles)."""
        if not self.count:
            return {"count": 0, "sum": 0.0}
        out = {"count": self.count, "sum": self.total,
               "min": self.min, "max": self.max, "mean": self.mean}
        for q in SUMMARY_PERCENTILES:
            out[f"p{q}"] = self.percentile(q)
        return out


def _series_key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted((str(k), labels[k]) for k in labels)))


def _key_to_payload(key: tuple) -> dict:
    name, labels = key
    return {"name": name, "labels": {k: v for k, v in labels}}


class MetricsRegistry:
    """Labeled counters, gauges and histograms behind one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        key = _series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        key = _series_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def max_gauge(self, name: str, value: float, **labels) -> None:
        """Keep the running maximum (e.g. peak event-queue depth)."""
        key = _series_key(name, labels)
        value = float(value)
        with self._lock:
            if value > self._gauges.get(key, -math.inf):
                self._gauges[key] = value

    def observe(self, name: str, value: float, **labels) -> None:
        key = _series_key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram()
            histogram.observe(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels) -> float:
        with self._lock:
            return self._counters.get(_series_key(name, labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter over all of its label sets."""
        with self._lock:
            return sum(v for (n, _), v in self._counters.items() if n == name)

    def gauge_value(self, name: str, **labels) -> float | None:
        with self._lock:
            return self._gauges.get(_series_key(name, labels))

    def histogram(self, name: str, **labels) -> Histogram | None:
        with self._lock:
            return self._histograms.get(_series_key(name, labels))

    def counters(self) -> dict[tuple, float]:
        with self._lock:
            return dict(self._counters)

    # ------------------------------------------------------------------
    # Merging + serialisation
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (counters add, gauges take the
        max — the conservative roll-up for peak-style gauges — and
        histogram observation pools concatenate)."""
        with other._lock:
            counters = dict(other._counters)
            gauges = dict(other._gauges)
            histograms = {k: (h.values[:], h.count, h.total, h.min, h.max)
                          for k, h in other._histograms.items()}
        with self._lock:
            for key, value in counters.items():
                self._counters[key] = self._counters.get(key, 0.0) + value
            for key, value in gauges.items():
                if value > self._gauges.get(key, -math.inf):
                    self._gauges[key] = value
            for key, (values, count, total, lo, hi) in histograms.items():
                histogram = self._histograms.get(key)
                if histogram is None:
                    histogram = self._histograms[key] = Histogram()
                histogram.count += count
                histogram.total += total
                histogram.min = min(histogram.min, lo)
                histogram.max = max(histogram.max, hi)
                room = HISTOGRAM_VALUE_CAP - len(histogram.values)
                if room > 0:
                    histogram.values.extend(values[:room])

    def to_dict(self) -> dict:
        """JSON-safe form; inverse of :meth:`from_dict`."""
        with self._lock:
            return {
                "counters": [dict(_key_to_payload(k), value=v)
                             for k, v in sorted(self._counters.items())],
                "gauges": [dict(_key_to_payload(k), value=v)
                           for k, v in sorted(self._gauges.items())],
                "histograms": [dict(_key_to_payload(k), values=h.values[:],
                                    **h.summary())
                               for k, h in sorted(self._histograms.items())],
            }

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsRegistry":
        registry = cls()
        for entry in payload.get("counters", []):
            registry.inc(entry["name"], entry["value"], **entry["labels"])
        for entry in payload.get("gauges", []):
            registry.set_gauge(entry["name"], entry["value"],
                               **entry["labels"])
        for entry in payload.get("histograms", []):
            # Totals come from the summary: ``values`` is only the capped
            # percentile pool, so re-observing it would lose them.
            histogram = Histogram()
            histogram.values = list(entry["values"])
            histogram.count = entry["count"]
            histogram.total = entry["sum"]
            histogram.min = entry["min"]
            histogram.max = entry["max"]
            key = _series_key(entry["name"], entry["labels"])
            registry._histograms[key] = histogram
        return registry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (f"MetricsRegistry(counters={len(self._counters)}, "
                    f"gauges={len(self._gauges)}, "
                    f"histograms={len(self._histograms)})")

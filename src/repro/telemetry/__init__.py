"""Runtime telemetry: metrics, tracing, structured logging, profiling.

Zero-dependency observability for federated runs.  The package splits into

* :mod:`~repro.telemetry.metrics` — labeled counters/gauges/histograms;
* :mod:`~repro.telemetry.tracing` — nested wall-clock spans with
  Chrome-trace (``chrome://tracing`` / Perfetto) export;
* :mod:`~repro.telemetry.logs` — stdlib logging with an optional JSON
  formatter (the CLI's ``--log-level`` / ``--log-json`` / ``--quiet``);
* :mod:`~repro.telemetry.runtime` — the :class:`RunTelemetry`
  collector, the :func:`telemetry_session` that installs one per
  invocation (sweep workers hand theirs back to it) and the
  no-op-when-disabled instrumentation helpers every runtime layer calls;
* :mod:`~repro.telemetry.report` — collected telemetry as renderable rows
  (the ``repro profile`` verb).

The whole package is observation-only: with telemetry enabled or disabled,
``History.to_json()`` and spec content hashes are byte-identical across
inline/process executors (pinned by ``tests/test_telemetry.py``).
"""

from .logs import (LOG_LEVELS, JsonLogFormatter, configure_logging,
                   get_logger, reset_logging)
from .metrics import Histogram, MetricsRegistry, percentile
from .report import report_rows, round_rows, span_rows
from .runtime import (RunTelemetry, current, enabled, inc, max_gauge,
                      observe, record_round, set_gauge, span,
                      telemetry_session, worker_session)
from .tracing import Span, Tracer, validate_chrome_trace

__all__ = [
    "LOG_LEVELS", "JsonLogFormatter", "configure_logging", "get_logger",
    "reset_logging", "Histogram", "MetricsRegistry", "percentile",
    "report_rows", "round_rows", "span_rows", "RunTelemetry", "current",
    "enabled", "inc", "max_gauge", "observe", "record_round", "set_gauge",
    "span", "telemetry_session", "worker_session", "Span", "Tracer",
    "validate_chrome_trace",
]

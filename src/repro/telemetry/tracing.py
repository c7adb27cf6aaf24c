"""Span-based wall-clock tracing with Chrome-trace export.

A :class:`Tracer` records :class:`Span` context managers —
``tracer.span("client_step", round=r, client=c)`` — that nest per thread,
measure wall-clock with ``time.perf_counter`` and optionally record
``tracemalloc`` peak memory for top-level spans.  Finished spans serialise
into the Chrome trace-event JSON format, loadable in ``chrome://tracing``
and `Perfetto <https://ui.perfetto.dev>`_ (legacy JSON import).

Tracing is observation-only by construction: spans draw no randomness and
touch nothing but their own record list, so a traced run's History is
byte-identical to an untraced one (pinned by ``tests/test_telemetry.py``).
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "validate_chrome_trace", "CHROME_PHASES"]

#: Chrome trace-event phases this module emits / the validator accepts.
CHROME_PHASES = ("X", "i", "I", "M")


@dataclass
class Span:
    """One finished span: a named wall-clock interval with labels."""

    name: str
    #: start offset from the tracer epoch, seconds.
    start_s: float
    duration_s: float
    #: small stable per-thread index (0 = first thread seen).
    tid: int = 0
    #: nesting depth within its thread at record time (0 = top level).
    depth: int = 0
    labels: dict = field(default_factory=dict)
    #: tracemalloc peak during the span, bytes (None = not measured).
    memory_peak_b: int | None = None

    def to_dict(self) -> dict:
        payload = {"name": self.name, "start_s": self.start_s,
                   "duration_s": self.duration_s, "tid": self.tid,
                   "depth": self.depth, "labels": dict(self.labels)}
        if self.memory_peak_b is not None:
            payload["memory_peak_b"] = self.memory_peak_b
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(name=payload["name"], start_s=payload["start_s"],
                   duration_s=payload["duration_s"],
                   tid=payload.get("tid", 0), depth=payload.get("depth", 0),
                   labels=dict(payload.get("labels", {})),
                   memory_peak_b=payload.get("memory_peak_b"))


class Tracer:
    """Collects spans against one epoch; thread-safe, nestable."""

    def __init__(self, trace_memory: bool = False, epoch: float | None = None):
        #: perf_counter value all span offsets are relative to.
        self.epoch = time.perf_counter() if epoch is None else epoch
        #: wall-clock (unix seconds) at the epoch, for trace metadata only:
        #: it stamps exported trace files, never run results.
        self.epoch_unix = time.time()
        self.trace_memory = trace_memory
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_ids: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            tid = self._thread_ids.get(ident)
            if tid is None:
                tid = self._thread_ids[ident] = len(self._thread_ids)
            return tid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **labels):
        """Record ``name`` around the enclosed block (reentrant, nestable).

        With ``trace_memory`` enabled and :mod:`tracemalloc` tracing, a
        *top-level* span additionally records the tracemalloc peak over its
        lifetime (nested spans skip it: ``reset_peak`` is global, so an
        inner reset would corrupt the enclosing span's measurement).
        """
        stack = self._stack()
        depth = len(stack)
        measure_memory = (self.trace_memory and depth == 0
                          and tracemalloc.is_tracing())
        if measure_memory:
            tracemalloc.reset_peak()
        stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            peak = (tracemalloc.get_traced_memory()[1]
                    if measure_memory else None)
            span = Span(name=name, start_s=start - self.epoch,
                        duration_s=duration, tid=self._tid(), depth=depth,
                        labels=labels, memory_peak_b=peak)
            with self._lock:
                self.spans.append(span)

    # ------------------------------------------------------------------
    # Merging + serialisation
    # ------------------------------------------------------------------
    def absorb(self, other: "Tracer") -> None:
        """Append ``other``'s spans (offsets must share this epoch — child
        tracers are built with ``Tracer(epoch=parent.epoch)``)."""
        with other._lock:
            spans = other.spans[:]
        with self._lock:
            self.spans.extend(spans)

    def to_dict(self) -> dict:
        with self._lock:
            return {"epoch_unix": self.epoch_unix,
                    "trace_memory": self.trace_memory,
                    "spans": [span.to_dict() for span in self.spans]}

    @classmethod
    def from_dict(cls, payload: dict) -> "Tracer":
        tracer = cls(trace_memory=payload.get("trace_memory", False))
        tracer.epoch_unix = payload.get("epoch_unix", tracer.epoch_unix)
        tracer.spans = [Span.from_dict(s) for s in payload.get("spans", [])]
        return tracer

    def chrome_events(self, pid: int = 1) -> list[dict]:
        """Spans as Chrome complete (``ph="X"``) events, ts/dur in µs."""
        with self._lock:
            spans = self.spans[:]
        events = []
        for span in sorted(spans, key=lambda s: s.start_s):
            args = dict(span.labels)
            if span.memory_peak_b is not None:
                args["memory_peak_kb"] = round(span.memory_peak_b / 1024, 1)
            events.append({"name": span.name, "cat": "span", "ph": "X",
                           "pid": pid, "tid": span.tid,
                           "ts": round(max(span.start_s, 0.0) * 1e6, 3),
                           "dur": round(max(span.duration_s, 0.0) * 1e6, 3),
                           "args": args})
        return events


def validate_chrome_trace(payload: dict) -> int:
    """Structural validation of a Chrome/Perfetto trace-event payload.

    Checks the JSON-object form this package exports (and the trace
    viewers load): a ``traceEvents`` list whose entries carry a string
    ``name``, a known ``ph`` phase, numeric non-negative ``ts`` (except
    metadata events) and, for complete events, a non-negative ``dur``.
    Returns the event count; raises :class:`ValueError` on any violation.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload lacks a traceEvents list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where} lacks a name")
        phase = event.get("ph")
        if phase not in CHROME_PHASES:
            raise ValueError(f"{where} has unknown phase {phase!r}")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where} has invalid ts {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where} has invalid dur {dur!r}")
    return len(events)

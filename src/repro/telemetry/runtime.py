"""Telemetry collection and the process-wide current collector.

The instrumentation contract, carried from the executor-determinism PRs:
telemetry is **observation-only**.  Instrumented code paths (executors,
aggregation policies, the round loops, the run cache) call the module-level
helpers below — :func:`inc`, :func:`observe`, :func:`span`,
:func:`record_round` — which are near-zero-cost no-ops until a collector is
installed.  Nothing here draws randomness, mutates a History, or feeds back
into control flow, so ``History.to_json()`` is byte-identical with
telemetry on or off, across inline/process executors (pinned by
``tests/test_telemetry.py`` and the CI ``telemetry-smoke`` job).

One collector per invocation: :func:`telemetry_session` installs a
:class:`RunTelemetry` for the whole invocation (the CLI ``repro profile``
verb wraps the artifact's grid in one).  A grid cell that runs in a sweep
worker process (:func:`~repro.experiments.runner.execute_specs`) collects
into a session of its own on the coordinator's epoch and hands its
``to_dict()`` back with the result; the coordinator folds it in with
:meth:`RunTelemetry.absorb`, so a profile sees the same spans, counters
and rounds at any ``--workers``.

Process-pool workers *within* a cell never see the coordinator's
collector (it is process-global state); their per-item wall-clock rides
back on ``ClientResult.timing`` instead, which the coordinator folds into
``RoundRecord.extras["client_timings"]``.
"""

from __future__ import annotations

import os
import tracemalloc
from contextlib import contextmanager, nullcontext

from .metrics import MetricsRegistry
from .tracing import Tracer

__all__ = ["RunTelemetry", "telemetry_session", "worker_session", "current",
           "enabled", "inc", "observe", "set_gauge", "max_gauge", "span",
           "record_round", "TELEMETRY_VERSION"]

#: layout version of serialised telemetry payloads.
TELEMETRY_VERSION = 1

#: reusable disabled-span context (stateless, safe to share/reenter).
_NULL_SPAN = nullcontext()

#: the installed collector (None = telemetry disabled, helpers no-op).
_CURRENT: "RunTelemetry | None" = None


class RunTelemetry:
    """Everything one observed run (or session) collected.

    ``metrics`` is the labeled counter/gauge/histogram registry, ``tracer``
    the wall-clock span record, ``sim_rounds`` the simulated-clock round
    timeline (one entry per :class:`~repro.fl.history.RoundRecord`,
    copied — never referenced — at append time), ``meta`` free-form run
    identity (spec hash, label, scale).
    """

    def __init__(self, meta: dict | None = None, trace_memory: bool = False,
                 epoch: float | None = None):
        self.meta = dict(meta or {})
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(trace_memory=trace_memory, epoch=epoch)
        self.sim_rounds: list[dict] = []

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def add_sim_round(self, record) -> None:
        """Copy one RoundRecord's simulated-clock facts (never a live
        reference: telemetry must not alias mutable History state)."""
        entry = {
            "round": int(record.round_index),
            "sim_time_s": float(record.sim_time_s),
            "round_time_s": float(record.round_time_s),
            "extras": {k: v for k, v in record.extras.items()
                       if isinstance(v, (bool, int, float, str))},
            "events": [dict(event) for event in record.events],
        }
        timings = record.extras.get("client_timings") or {}
        if timings:
            execs = [t.get("execute_s", 0.0) for t in timings.values()]
            totals = [t.get("total_s", 0.0) for t in timings.values()]
            entry["wall"] = {
                "clients": len(timings),
                "execute_sum_s": sum(execs),
                "execute_max_s": max(execs),
                "total_max_s": max(totals),
                "retries": sum(int(t.get("retries", 0))
                               for t in timings.values()),
            }
        self.sim_rounds.append(entry)

    def absorb(self, child: "RunTelemetry") -> None:
        """Fold another collector (a nested session, a sweep worker's
        payload) into this one."""
        self.metrics.merge(child.metrics)
        self.tracer.absorb(child.tracer)
        self.sim_rounds.extend(child.sim_rounds)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"telemetry_version": TELEMETRY_VERSION,
                "meta": dict(self.meta),
                "metrics": self.metrics.to_dict(),
                "tracer": self.tracer.to_dict(),
                "sim_rounds": [dict(r) for r in self.sim_rounds]}

    @classmethod
    def from_dict(cls, payload: dict) -> "RunTelemetry":
        version = payload.get("telemetry_version", TELEMETRY_VERSION)
        if version != TELEMETRY_VERSION:
            raise ValueError(f"unsupported telemetry version {version!r} "
                             f"(this build reads {TELEMETRY_VERSION})")
        telemetry = cls(meta=payload.get("meta"))
        telemetry.metrics = MetricsRegistry.from_dict(
            payload.get("metrics", {}))
        telemetry.tracer = Tracer.from_dict(payload.get("tracer", {}))
        telemetry.sim_rounds = [dict(r)
                                for r in payload.get("sim_rounds", [])]
        return telemetry

    # ------------------------------------------------------------------
    # Chrome-trace export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """Spans + the simulated-event timeline as one Chrome/Perfetto
        trace: wall-clock spans under pid 1, the simulated clock under
        pid 2 (rounds as complete events, queue events as instants)."""
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "wall-clock"}},
            {"name": "process_name", "ph": "M", "pid": 2, "tid": 0,
             "args": {"name": "sim-clock"}},
        ]
        events.extend(self.tracer.chrome_events(pid=1))
        for entry in self.sim_rounds:
            start_s = max(entry["sim_time_s"] - entry["round_time_s"], 0.0)
            events.append({
                "name": f"round {entry['round']}", "cat": "sim-round",
                "ph": "X", "pid": 2, "tid": 0,
                "ts": round(start_s * 1e6, 3),
                "dur": round(max(entry["round_time_s"], 0.0) * 1e6, 3),
                "args": dict(entry["extras"], round=entry["round"]),
            })
            for event in entry["events"]:
                args = {k: v for k, v in event.items()
                        if k not in ("t", "type")}
                events.append({
                    "name": event.get("type", "event"), "cat": "sim-event",
                    "ph": "i", "s": "t", "pid": 2,
                    "tid": 1 + int(event.get("client", -1) >= 0),
                    "ts": round(max(float(event.get("t", 0.0)), 0.0) * 1e6,
                                3),
                    "args": args,
                })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"meta": dict(self.meta),
                              "epoch_unix": self.tracer.epoch_unix}}


# ----------------------------------------------------------------------
# Current-collector plumbing
# ----------------------------------------------------------------------
def current() -> RunTelemetry | None:
    """The installed collector, or ``None`` when telemetry is disabled."""
    return _CURRENT


def enabled() -> bool:
    return _CURRENT is not None


@contextmanager
def telemetry_session(meta: dict | None = None, trace_memory: bool = False):
    """Install a session collector for the enclosed block.

    Yields the :class:`RunTelemetry` that accumulates everything observed
    inside.  ``trace_memory`` starts :mod:`tracemalloc` for the session so
    top-level spans record peak memory; tracing state is restored on exit.
    Sessions may nest — the inner session shadows the outer for its
    lifetime, shares its epoch and is absorbed into it on exit, so an outer
    session sees what an inner one observed.
    """
    global _CURRENT
    previous = _CURRENT
    session = RunTelemetry(
        meta=meta, trace_memory=trace_memory,
        epoch=None if previous is None else previous.tracer.epoch)
    started_tracemalloc = trace_memory and not tracemalloc.is_tracing()
    if started_tracemalloc:
        tracemalloc.start()
    _CURRENT = session
    try:
        yield session
    finally:
        _CURRENT = previous
        if started_tracemalloc:
            tracemalloc.stop()
        if previous is not None:
            previous.absorb(session)


@contextmanager
def worker_session(epoch: float, trace_memory: bool = False):
    """Install a sweep worker's session: on the coordinator's ``epoch``,
    absorbed into nothing (its ``to_dict()`` goes back with the cell's
    result), and with the worker's pid as every span's trace track.

    A fork-started worker inherits a copy of the coordinator's collector
    that nothing reads; the worker's session neither nests under it nor
    grows it, and the copy is current again on exit.
    """
    global _CURRENT
    inherited, _CURRENT = _CURRENT, None
    try:
        with telemetry_session(trace_memory=trace_memory) as session:
            session.tracer.epoch = epoch
            yield session
        for span in session.tracer.spans:
            span.tid = os.getpid()
    finally:
        _CURRENT = inherited


# ----------------------------------------------------------------------
# Instrumentation helpers (no-ops while disabled)
# ----------------------------------------------------------------------
def inc(name: str, value: float = 1.0, **labels) -> None:
    telemetry = _CURRENT
    if telemetry is not None:
        telemetry.metrics.inc(name, value, **labels)


def observe(name: str, value: float, **labels) -> None:
    telemetry = _CURRENT
    if telemetry is not None:
        telemetry.metrics.observe(name, value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    telemetry = _CURRENT
    if telemetry is not None:
        telemetry.metrics.set_gauge(name, value, **labels)


def max_gauge(name: str, value: float, **labels) -> None:
    telemetry = _CURRENT
    if telemetry is not None:
        telemetry.metrics.max_gauge(name, value, **labels)


def span(name: str, **labels):
    """A tracer span when telemetry is on; a shared no-op context when off."""
    telemetry = _CURRENT
    if telemetry is None:
        return _NULL_SPAN
    return telemetry.tracer.span(name, **labels)


def record_round(record) -> None:
    """Copy a just-appended RoundRecord onto the simulated timeline."""
    telemetry = _CURRENT
    if telemetry is not None:
        telemetry.add_sim_round(record)

"""Discrete-event scheduler for the asynchronous FL runtime.

A tiny priority-queue event engine: aggregation policies push typed events
(client download start, train complete, upload complete, client dropped,
server aggregate, eval tick) at future simulated timestamps and pop them in
time order.  Ties break on insertion order, so runs are fully deterministic
under a fixed seed.

The engine is deliberately *passive*: it orders time, nothing else.  What an
event means — dispatch another client, fill an aggregation buffer, close a
round — is decided by the :mod:`repro.fl.aggregation` policies, and the
actual numeric client work runs eagerly at dispatch time (the global state a
client downloads is the state at its dispatch timestamp, which is exactly
the staleness semantics buffered aggregation needs).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Event", "DOWNLOAD_START", "TRAIN_COMPLETE", "UPLOAD_COMPLETE",
    "CLIENT_DROPPED", "CLIENT_FAILED", "UPDATE_REJECTED",
    "SERVER_AGGREGATE", "EVAL_TICK", "EVENT_TYPES", "EventQueue",
]

#: Typed event kinds (strings so timelines serialise to JSON untouched).
DOWNLOAD_START = "download_start"
TRAIN_COMPLETE = "train_complete"
UPLOAD_COMPLETE = "upload_complete"
CLIENT_DROPPED = "client_dropped"
#: fault injection: the device crashed after training, before its upload
#: landed (:mod:`repro.fl.faults`); info carries ``reason="crash"``.
CLIENT_FAILED = "client_failed"
#: coordinator defense: the upload arrived but failed validation and was
#: quarantined (info carries the reason code).
UPDATE_REJECTED = "update_rejected"
SERVER_AGGREGATE = "server_aggregate"
EVAL_TICK = "eval_tick"

EVENT_TYPES = (DOWNLOAD_START, TRAIN_COMPLETE, UPLOAD_COMPLETE,
               CLIENT_DROPPED, CLIENT_FAILED, UPDATE_REJECTED,
               SERVER_AGGREGATE, EVAL_TICK)


@dataclass
class Event:
    """One scheduled occurrence on the simulated clock."""

    time_s: float
    type: str
    #: client the event concerns (None for server-side events).
    client_id: int | None = None
    #: free-form annotations (reason codes, staleness, carried update).
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {self.type!r}; "
                             f"known: {EVENT_TYPES}")
        # NaN breaks the heap's order (+inf is a legal "never")
        if math.isnan(self.time_s):
            raise ValueError(f"time_s must not be NaN ({self.type})")

    def timeline_entry(self) -> dict:
        """JSON-safe record for :attr:`RoundRecord.events` timelines
        (drops non-serialisable info values such as in-flight updates)."""
        entry: dict[str, Any] = {"t": round(float(self.time_s), 6),
                                 "type": self.type}
        if self.client_id is not None:
            entry["client"] = int(self.client_id)
        for key, value in self.info.items():
            if isinstance(value, (bool, int, float, str)) or value is None:
                entry[key] = value
        return entry


class EventQueue:
    """Min-heap of :class:`Event` ordered by (time, insertion order).

    The queue keeps two cheap lifetime statistics — ``pushed`` (total
    events ever enqueued) and ``max_depth`` (peak heap size) — that the
    aggregation policies report through the telemetry layer at the end of
    a run.  Tracking is two integer updates per push, so the hot path
    stays telemetry-free.
    """

    def __init__(self):
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self.pushed = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, event: Event) -> Event:
        heapq.heappush(self._heap, (event.time_s, next(self._counter), event))
        self.pushed += 1
        if len(self._heap) > self.max_depth:
            self.max_depth = len(self._heap)
        return event

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from an empty EventQueue")
        return heapq.heappop(self._heap)[2]

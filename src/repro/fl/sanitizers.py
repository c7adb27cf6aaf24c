"""Runtime sanitizers: trap determinism violations where they happen.

This module guards the two failure modes that golden histories only catch
after the fact, if the offending path runs at all:

* **cross-client mutation races** — a client writing into its downlink
  (or the live global state) while other clients train from it.  Every
  downlink's arrays are set ``writeable=False`` for good where
  :func:`~repro.fl.executor.make_work_item` packs them, whatever the
  executor, and the aggregation policies freeze the live global vector
  for the dispatch window, so any such write raises immediately, at the
  offending line, instead of surfacing as a corrupted aggregate three
  rounds later;
* **legacy global RNG use** — a draw from ``np.random``'s hidden global
  stream (or stdlib ``random``'s), which would make results depend on
  whatever ran before.  :func:`~repro.fl.simulation.run_simulation` runs
  inside :func:`rng_tripwire`, which snapshots both global states around
  the run and raises :class:`StrictModeViolation` if either moved.

Both sanitizers are armed for every run and are **observation-only**: they
read flags and states and draw nothing, so the History is exactly what an
unguarded run would produce (the executor-identity tests and the e2e
goldens pin it).  This module itself holds no state.  Configs guard
their own fields with :func:`check_range`, which refuses NaN by name, and
read their serialised form through :func:`drop_fixed_keys`.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import numpy as np

__all__ = ["StrictModeViolation", "check_range", "drop_fixed_keys",
           "collect_arrays", "frozen_arrays", "freeze_arrays",
           "rng_tripwire"]


class StrictModeViolation(RuntimeError):
    """A determinism contract was broken at runtime."""


def check_range(name: str, value, interval: str) -> None:
    """Refuse a config value outside ``interval``, written like ``"[0, 1)"``
    or ``"(0, inf]"``, naming the field; NaN lies in no interval."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = value >= low if interval[0] == "[" else value > low
    below = value <= high if interval[-1] == "]" else value < high
    if not (above and below):
        raise ValueError(f"{name} must be in {interval}, got {value!r}")


def drop_fixed_keys(owner: str, payload: dict, fixed: dict,
                    removed: tuple = ()) -> dict:
    """``payload`` without its ``fixed`` keys (name -> the one value such a
    key may hold); a fixed key at another value or any ``removed`` key
    raises ``ValueError`` naming the field."""
    payload = dict(payload)
    for name in removed:
        if name in payload:
            raise ValueError(f"{owner}.{name} was removed; drop the key")
    for name, value in fixed.items():
        if name in payload and payload.pop(name) != value:
            raise ValueError(f"{owner}.{name} is fixed at {value!r}")
    return payload


def collect_arrays(value):
    """Yield every ndarray leaf of a broadcast-shaped payload (dicts,
    lists, tuples, arrays — the shapes ``pack_broadcast`` produces)."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from collect_arrays(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from collect_arrays(item)


def freeze_arrays(*payloads) -> list[np.ndarray]:
    """Set ``writeable=False`` on every currently-writeable array in the
    payloads; returns the arrays that were flipped (so a caller can thaw
    exactly those).  Already-frozen arrays are left alone — thawing them
    is not ours to do."""
    frozen: list[np.ndarray] = []
    for payload in payloads:
        for array in collect_arrays(payload):
            if array.flags.writeable:
                array.flags.writeable = False
                frozen.append(array)
    return frozen


@contextmanager
def frozen_arrays(*payloads):
    """Freeze the payloads' arrays for the duration of the block.

    Any write raises ``ValueError: assignment destination is read-only``
    at the offending line.  Thaws on exit (in reverse order, so views
    thaw before their bases re-enable them) exactly the arrays this call
    froze, making nesting and shared arrays safe.
    """
    frozen = freeze_arrays(*payloads)
    try:
        yield
    finally:
        for array in reversed(frozen):
            array.flags.writeable = True


def _describe_np_state(state) -> tuple:
    """Comparable form of a ``np.random.get_state()`` tuple."""
    name, keys, pos, has_gauss, cached = state
    return (name, keys.tobytes(), int(pos), int(has_gauss), float(cached))


@contextmanager
def rng_tripwire(context: str = "run"):
    """Fail the block if it moved a hidden global RNG stream.

    Snapshots the legacy numpy global state and stdlib ``random``'s state
    before the block and compares after; any drift raises
    :class:`StrictModeViolation` naming the stream.  The comparison reads
    the states without drawing from them, so the tripwire itself is
    invisible to both streams.
    """
    before_np = _describe_np_state(np.random.get_state())
    before_py = random.getstate()
    yield
    after_np = _describe_np_state(np.random.get_state())
    after_py = random.getstate()
    if after_np != before_np:
        raise StrictModeViolation(
            f"legacy global numpy RNG was touched during {context}; "
            f"all randomness must come from derived generators "
            f"(repro.fl.seeding)")
    if after_py != before_py:
        raise StrictModeViolation(
            f"stdlib global random state was touched during {context}; "
            f"use an owned random.Random or a numpy generator")

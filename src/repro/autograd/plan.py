"""Cached step plans: recycle per-step scratch buffers across training steps.

Federated simulation has a structure classic autograd engines ignore: every
client trains the *same graph shapes* every round (same model variant, same
batch size), so the scratch buffers behind im2col / col2im are reallocated
thousands of times for identical graphs.  A :class:`StepPlan` owns them
once and hands them back every step:

* **Workspace arenas.**  :func:`workspace` hands out shape-keyed scratch
  buffers that ops fully overwrite (the im2col gather target, the col2im
  accumulation buffer).  Buffers are recycled at ``begin()`` of the next
  step, never mid-step, so closures created during forward can keep using
  them through backward.  Because every buffer is fully written before it is
  read, reuse is *value-invisible*: planned and plan-free steps produce
  byte-identical results (pinned by ``tests/test_plan_cache.py``).

What the arenas buy is resident memory, not time: on the end-to-end ledger
(``benchmarks/e2e``) running without them costs x1.08-x1.15 peak RSS on
the conv cells and nothing measurable in wall-clock.

Plans live in a **per-thread** registry keyed by ``(model signature, batch
shape)``: every process-pool worker (and any thread a library user trains
on) owns its plans, so no scratch state is ever shared across concurrently
training clients.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict

import numpy as np

__all__ = ["StepPlan", "step", "workspace", "current_step", "model_plan_key",
           "clear_thread_plans", "thread_plans"]

#: soft cap on cached plans per thread (a sweep cycling over many model
#: variants keeps only the most recently used plans; each plan holds a few
#: conv-sized scratch buffers, so the cap bounds worker memory).
MAX_PLANS_PER_THREAD = 16

class _PlanState(threading.local):
    """Per-thread plan state (``__init__`` runs once in each thread)."""

    def __init__(self):
        #: the active :class:`StepPlan` while a training step runs under
        #: :func:`step`, else ``None``.
        self.step: StepPlan | None = None
        #: this thread's plan registry, least recently used first.
        self.plans: OrderedDict = OrderedDict()


_PLAN_STATE = _PlanState()


class StepPlan:
    """Reusable per-step state for one ``(model slice, batch shape)`` cell."""

    __slots__ = ("key", "steps", "_arenas", "_cursors")

    def __init__(self, key):
        self.key = key
        self.steps = 0
        #: (shape, dtype str) -> recycled scratch buffers.
        self._arenas: dict[tuple, list[np.ndarray]] = {}
        self._cursors: dict[tuple, int] = {}

    def begin(self) -> None:
        for key in self._cursors:
            self._cursors[key] = 0
        self.steps += 1

    # -- workspace arenas ------------------------------------------------
    def workspace(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A scratch buffer of ``shape``/``dtype``, recycled across steps.

        The caller must fully overwrite it before reading; buffers stay
        valid from acquisition until the *next* ``begin()``, so backward
        closures may hold them across the forward/backward boundary.
        """
        key = (shape, np.dtype(dtype).str)
        bufs = self._arenas.get(key)
        if bufs is None:
            bufs = self._arenas[key] = []
            self._cursors[key] = 0
        cursor = self._cursors[key]
        self._cursors[key] = cursor + 1
        if cursor < len(bufs):
            return bufs[cursor]
        buf = np.empty(shape, dtype=dtype)
        bufs.append(buf)
        return buf


# ----------------------------------------------------------------------
# Per-thread registry + module-level API
# ----------------------------------------------------------------------

def current_step() -> StepPlan | None:
    """The plan step active on this thread, if any."""
    return _PLAN_STATE.step


def thread_plans() -> "OrderedDict":
    """This thread's plan registry (visible for tests / introspection)."""
    return _PLAN_STATE.plans


def clear_thread_plans() -> None:
    """Drop every cached plan owned by the calling thread (releases the
    scratch arenas; the next planned step rebuilds from scratch)."""
    thread_plans().clear()


def _plan_for(full_key) -> StepPlan:
    plans = thread_plans()
    plan = plans.get(full_key)
    if plan is None:
        while len(plans) >= MAX_PLANS_PER_THREAD:
            plans.popitem(last=False)
        plan = plans[full_key] = StepPlan(full_key)
    else:
        plans.move_to_end(full_key)
    return plan


def model_plan_key(model) -> tuple:
    """Structural identity of a model slice: class, every state-dict entry's
    name and shape, plus the trainable mask.  Two clients holding the same
    variant at the same width/depth with the same frozen layers produce
    equal keys and therefore share a plan.

    The trainable mask is part of the key because it is part of the *graph
    structure*: freezing a layer removes its parameters (and any frozen
    prefix) from the backward pass, so e.g. FeDepth's sliding trainable
    segment requests a different set of scratch buffers per segment
    position even though the state dict never changes shape."""
    params = list(model.named_parameters())
    return (type(model).__qualname__,
            tuple((name, p.data.shape) for name, p in params)
            + tuple((name, b.shape) for name, b in model.named_buffers()),
            tuple(name for name, p in params if p.requires_grad))


@contextlib.contextmanager
def step(key, batch_shape):
    """Run one training step under the plan for ``(key, batch_shape)``.

    No-op (plain execution) when a plan step is already active on this
    thread — nested graphs (distillation losses built inside a step) draw
    their scratch from the *outer* step, which is exactly where their
    backward runs.
    """
    if _PLAN_STATE.step is not None:
        yield None
        return
    plan = _plan_for((key, tuple(batch_shape)))
    plan.begin()
    _PLAN_STATE.step = plan
    try:
        yield plan
    finally:
        _PLAN_STATE.step = None


def workspace(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A scratch buffer from the active plan, or a fresh allocation when no
    plan step is active.  Callers must fully overwrite it; both paths hand
    back writable memory of identical shape/dtype, so results are
    bit-identical with plans on or off."""
    plan = _PLAN_STATE.step
    if plan is None:
        return np.empty(shape, dtype=dtype)
    return plan.workspace(shape, dtype)

"""Lightweight op-level profiler: FLOPs and activation-memory accounting.

The hardware cost models (:mod:`repro.hw`) need per-model FLOP counts and the
total size of activations a training step must keep alive. Rather than
maintaining per-architecture analytic formulas, we instrument the autograd
ops: running a forward pass inside :func:`profile` counts multiply-accumulate
operations (2 FLOPs each) for the matmul-like ops and records every op
output's byte size (a faithful proxy for what backprop must retain).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

__all__ = ["profile", "ProfileReport"]


@dataclass
class ProfileReport:
    """Counters collected during a profiled region.

    ``gemm_calls`` counts the GEMMs of two ops only, one per sample and
    group or head (per-group small GEMMs show up here as call inflation even
    when the FLOP totals are identical): ``conv2d``'s forward and backward
    GEMMs, and ``attention``'s two forward ones.  ``linear``, ``matmul`` and
    ``attention``'s backward add nothing, so an attention layer counts its
    core alone.  ``op_counts`` counts FLOP-bearing ops by kind.
    """

    flops: int = 0
    activation_bytes: int = 0
    gemm_calls: int = 0
    op_counts: dict[str, int] = field(default_factory=dict)


#: the live report while a :func:`profile` block runs, ``None`` otherwise.
#: Ops test it and add to its counters in place, so an op run outside a
#: profiled region pays one attribute read.
active: ProfileReport | None = None


@contextlib.contextmanager
def profile():
    """Collect FLOPs / activation bytes for ops executed inside the block.

    Yields the live :class:`ProfileReport`; nested profiling is not
    supported (the inner block would steal the outer block's counters).
    """
    global active
    if active is not None:
        raise RuntimeError("profiler does not support nesting")
    active = ProfileReport()
    try:
        yield active
    finally:
        active = None

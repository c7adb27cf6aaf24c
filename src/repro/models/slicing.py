"""Capacity levels as one flat index into the global model vector.

A model's state is one float32 vector laid out by a
:class:`~repro.nn.module.Layout`.  A capacity level holds some of the
global vector's elements, and :func:`width_index_maps` computes which:
a **depth** level holds a subset of the global entries, each whole; a
**width** level holds, in every width-scaled axis, the first ``k`` channels
(**prefix**: Fjord's ordered dropout, SHeteroFL's static slimming) or a
window of ``k`` consecutive channels from a shift that advances every round,
wrapping around (**rolling**: FedRolex).

Because a sub-model and the global model are built by the same constructor
with the same per-layer rounding, connected axes (producer out-channels /
consumer in-channels) always have equal global and sub sizes; an index set
computed from ``(global_size, sub_size, shift)`` alone is therefore
automatically consistent across the whole network — including residual
connections — for any architecture in the zoo.

An index is made of *rows*: the last shrunk axis of an entry and the whole
axes after it are, in the global vector, one window of consecutive
positions that wraps at most once, so a row is at most two contiguous runs.
A plan lists an entry's rows once (where each starts and, per shrunk axis
before the last, its channel) — a few numbers per output channel, not per
element.  Each shift's index is then a handful of whole-array operations
over the rows and one run expansion; prefix mode is the rolling window at
shift 0.

With the index, extraction, aggregation and finalize are whole-vector numpy
calls; an index that is one contiguous run in order (a full-width level, a
depth prefix) is a ``slice``, making them a copy and an in-place add.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..nn.module import Layout

__all__ = ["width_index_maps", "extract_substate", "scatter_accumulate",
           "finalize_mean"]

Index = slice | np.ndarray


class _Plan(NamedTuple):
    """The rows of a sub layout, in sub-vector order (one element per row).

    A row starts at ``base`` plus, per shrunk axis before its entry's last
    (one column each), ``stride * ((channel + shift) % dim)``.  It holds
    ``count`` channels of the last shrunk axis, out of ``dim_last``, each
    ``run`` consecutive elements (the whole axes after it)."""

    base: np.ndarray        # (rows,)
    channel: np.ndarray     # (rows, columns)
    dim: np.ndarray         # (rows, columns); 1 where the axis is whole
    stride: np.ndarray      # (rows, columns); 0 where the axis is whole
    count: np.ndarray       # (rows,)
    dim_last: np.ndarray    # (rows,)
    run: np.ndarray         # (rows,)
    size: int


def _plan(global_layout: Layout, sub_layout: Layout,
          scale_axes: dict[str, tuple[int, ...]]) -> _Plan:
    """The rows of every entry of ``sub_layout``, each entry checked
    against the global layout here, once.

    An entry's rows are the points of the mesh over the axes before its
    last shrunk one (one row for an entry that does not shrink).  Each
    entry is a few numbers — its start, the sizes and strides of those
    axes, its last axis — and the rows of all entries are then laid out
    together in a few whole-array operations."""
    where = {name: i for i, name in enumerate(global_layout.names)}
    #: per entry: start, [(sub, global, stride, shrunk) per axis before the
    #: last shrunk one], that axis's sub and global size, elements after it.
    entries = []
    for name, sub_shape in zip(sub_layout.names, sub_layout.shapes):
        if name not in where:
            raise KeyError(f"sub-model parameter {name!r} not in global model")
        entry = where[name]
        global_shape = global_layout.shapes[entry]
        if len(sub_shape) != len(global_shape):
            raise ValueError(f"rank mismatch for {name!r}: "
                             f"{sub_shape} vs {global_shape}")
        axes = scale_axes.get(name, ())
        shrunk = []
        for axis, (g_dim, s_dim) in enumerate(zip(global_shape, sub_shape)):
            if s_dim == g_dim:
                continue
            if not (axis in axes and s_dim < g_dim):
                raise ValueError(
                    f"axis {axis} of {name!r} cannot shrink "
                    f"{g_dim}->{s_dim} (scale axes: {axes})")
            shrunk.append(axis)
        start = global_layout.bounds[entry]
        if not shrunk:                      # the whole entry is one run
            size = math.prod(sub_shape)
            entries.append((start, [], size, size, 1))
            continue
        last = shrunk[-1]
        run = math.prod(global_shape[last + 1:])
        before = [(sub_shape[axis], global_shape[axis],
                   math.prod(global_shape[axis + 1:]), axis in shrunk)
                  for axis in range(last)]
        entries.append((start, before, sub_shape[last], global_shape[last],
                        run))

    # Pad every entry's outer axes at the front to one depth with whole
    # axes of size 1, so each depth is one column over all rows.
    depth = max((len(axes) for _, axes, *_ in entries), default=0)
    table = np.array([[(1, 1, 0, False)] * (depth - len(axes)) + axes
                      for _, axes, *_ in entries],
                     np.intp).reshape(len(entries), depth, 4)
    sub, whole, stride, shrunk = (table[..., i] for i in range(4))
    rows = sub.prod(axis=1)
    local = np.arange(rows.sum()) - np.repeat(np.cumsum(rows) - rows, rows)
    # A row's coordinate on outer axis j is ``local // inner[j] % sub[j]``,
    # ``inner[j]`` being the rows one step on axis j spans.
    inner = np.ones_like(sub)
    inner[:, :-1] = np.cumprod(sub[:, :0:-1], axis=1)[:, ::-1]
    base = np.repeat(np.array([e[0] for e in entries], np.intp), rows)
    columns = []
    for j in range(depth):
        coord = (local // np.repeat(inner[:, j], rows)
                 % np.repeat(sub[:, j], rows))
        base += coord * np.repeat(stride[:, j] * (1 - shrunk[:, j]), rows)
        if shrunk[:, j].any():
            columns.append((coord,
                            np.repeat(np.where(shrunk[:, j], whole[:, j], 1),
                                      rows),
                            np.repeat(stride[:, j] * shrunk[:, j], rows)))
    channel, dim, roll_stride = (
        np.stack([column[i] for column in columns], axis=1) if columns
        else np.zeros((len(base), 0), np.intp) for i in range(3))
    count, dim_last, run = (np.repeat(np.array([e[i] for e in entries],
                                               np.intp), rows)
                            for i in (2, 3, 4))
    return _Plan(base, channel, dim, roll_stride, count, dim_last, run,
                 sub_layout.size)


def _index(plan: _Plan, shift: int) -> Index:
    """The plan's positions at ``shift``: each row's one or two runs,
    expanded into one array (or the one run as a ``slice``)."""
    starts = plan.base + (plan.stride * ((plan.channel + shift)
                                         % plan.dim)).sum(axis=1)
    # The last shrunk axis's window: channels ``lead`` .. ``dim_last``, then
    # from channel 0 what wrapped (nothing while it does not roll).
    lead = (shift % plan.dim_last) * (plan.count < plan.dim_last)
    head = np.minimum(plan.count, plan.dim_last - lead) * plan.run
    runs = np.stack([starts + lead * plan.run, starts], axis=1).ravel()
    lengths = np.stack([head, plan.count * plan.run - head], axis=1).ravel()
    kept = lengths > 0
    runs, lengths = runs[kept], lengths[kept]
    if not plan.size:
        return np.empty(0, np.intp)
    if (runs[1:] == runs[:-1] + lengths[:-1]).all():
        return slice(int(runs[0]), int(runs[0]) + plan.size)
    ends = np.cumsum(lengths)
    return np.repeat(runs - (ends - lengths), lengths) + np.arange(plan.size)


def width_index_maps(global_layout: Layout, sub_layout: Layout,
                     scale_axes: dict[str, tuple[int, ...]],
                     mode: str = "prefix", shift: int = 0,
                     plans: dict | None = None) -> Index:
    """The positions in the global vector of a sub-vector's elements.

    Every name of ``sub_layout`` must exist in ``global_layout``;
    ``scale_axes`` maps names to the axes that may shrink (from the global
    model's :meth:`~repro.nn.Module.state_scale_axes`); ``mode`` is
    ``"prefix"`` or ``"rolling"``, and ``shift`` the rolling window's start.
    ``plans``, a dict the caller keeps for one global layout and one
    ``scale_axes``, holds each sub layout's plan so that the next shift
    starts from it (a layout that nothing rolls in, and whose positions
    are one run, is kept as that ``slice``).  Returns one ``intp`` array in
    sub-vector order, or the equivalent ``slice`` when the positions are
    one ascending contiguous run.
    """
    if mode not in ("prefix", "rolling"):
        raise ValueError(f"unknown slicing mode {mode!r}")
    plan = None if plans is None else plans.get(sub_layout)
    if plan is None:
        plan = _plan(global_layout, sub_layout, scale_axes)
        if not plan.channel.size and (plan.count == plan.dim_last).all():
            # Nothing rolls: the positions are the same at every shift.
            index = _index(plan, 0)
            plan = index if isinstance(index, slice) else plan
        if plans is not None:
            plans[sub_layout] = plan
    if isinstance(plan, slice):
        return plan
    return _index(plan, 0 if mode == "prefix" else shift)


def extract_substate(vector: np.ndarray, index: Index,
                     out: np.ndarray | None = None) -> np.ndarray:
    """The elements of ``vector`` at ``index``: a new array, or written into
    ``out`` (a client skeleton's buffer, so extraction is loading)."""
    if isinstance(index, slice):
        if out is None:
            return vector[index].copy()
        out[...] = vector[index]
        return out
    return np.take(vector, index, out=out, mode="clip")


def scatter_accumulate(sums: np.ndarray, counts: np.ndarray,
                       values: np.ndarray, index: Index,
                       weight: float = 1.0) -> None:
    """Add a weighted upload into the float64 global accumulators in place
    (positions outside ``index`` untouched).  An index holds each position
    once, so every element sees the additions a per-entry loop made, in the
    same client order; :func:`finalize_mean` then gives the per-coordinate
    average — the aggregation rule shared by HeteroFL, Fjord and FedRolex."""
    sums[index] += weight * values
    counts[index] += weight


def finalize_mean(sums: np.ndarray, counts: np.ndarray,
                  fallback: np.ndarray) -> np.ndarray:
    """Per-coordinate mean as a new vector of ``fallback``'s dtype;
    coordinates no client touched keep ``fallback``."""
    merged = fallback.astype(np.float64)
    np.divide(sums, counts, out=merged, where=counts > 0)
    return merged.astype(fallback.dtype)

"""Capacity levels as one flat index into the global model vector.

A model's state is one float32 vector laid out by a
:class:`~repro.nn.module.Layout`.  A capacity level holds some of the
global vector's elements, and :func:`width_index_maps` computes which, once:
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

With the index, extraction, aggregation and finalize are whole-vector numpy
calls; an index that is one contiguous run in order (a full-width level, a
depth prefix) is a ``slice``, making them a copy and an in-place add.
"""

from __future__ import annotations

import numpy as np

from ..nn.module import Layout

__all__ = ["width_index_maps", "extract_substate", "scatter_accumulate",
           "finalize_mean"]

Index = slice | np.ndarray


def width_index_maps(global_layout: Layout, sub_layout: Layout,
                     scale_axes: dict[str, tuple[int, ...]],
                     mode: str = "prefix", shift: int = 0) -> Index:
    """The positions in the global vector of a sub-vector's elements.

    Every name of ``sub_layout`` must exist in ``global_layout``;
    ``scale_axes`` maps names to the axes that may shrink (from the global
    model's :meth:`~repro.nn.Module.state_scale_axes`); ``mode`` is
    ``"prefix"`` or ``"rolling"``, and ``shift`` the rolling window's start.
    Returns one ``intp`` array in sub-vector order, or the equivalent
    ``slice`` when the positions are one ascending contiguous run.
    """
    if mode not in ("prefix", "rolling"):
        raise ValueError(f"unknown slicing mode {mode!r}")
    where = {name: i for i, name in enumerate(global_layout.names)}
    pieces = []
    for name, sub_shape in zip(sub_layout.names, sub_layout.shapes):
        if name not in where:
            raise KeyError(f"sub-model parameter {name!r} not in global model")
        entry = where[name]
        global_shape = global_layout.shapes[entry]
        start, stop = global_layout.bounds[entry:entry + 2]
        if len(sub_shape) != len(global_shape):
            raise ValueError(f"rank mismatch for {name!r}: "
                             f"{sub_shape} vs {global_shape}")
        if sub_shape == global_shape:
            pieces.append(np.arange(start, stop))
            continue
        axes = scale_axes.get(name, ())
        per_axis = []
        for axis, (g_dim, s_dim) in enumerate(zip(global_shape, sub_shape)):
            if s_dim == g_dim:
                per_axis.append(np.arange(g_dim))
            elif axis in axes and s_dim < g_dim:
                per_axis.append(np.arange(s_dim) if mode == "prefix"
                                else (shift + np.arange(s_dim)) % g_dim)
            else:
                raise ValueError(
                    f"axis {axis} of {name!r} cannot shrink "
                    f"{g_dim}->{s_dim} (scale axes: {axes})")
        # C-order positions of the open mesh, offset to the entry.
        flat, stride = np.intp(start), 1
        for idx, g_dim in zip(reversed(np.ix_(*per_axis)),
                              reversed(global_shape)):
            flat = flat + idx * stride
            stride *= g_dim
        pieces.append(flat.ravel())
    index = np.concatenate([np.empty(0, np.intp), *pieces])
    if index.size and (np.diff(index) == 1).all():
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


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

"""Width-heterogeneity index maps: extract / scatter sub-model states.

The three width-level algorithms differ only in *which channel indices* a
sub-model occupies inside the global model:

* **prefix** (Fjord's ordered dropout, SHeteroFL's static slimming) — the
  first ``k`` channels of every width-scaled axis;
* **rolling** (FedRolex) — a window of ``k`` consecutive channels starting at
  a shift that advances every round, wrapping around.

Because a sub-model and the global model are built by the same constructor
with the same per-layer rounding, connected axes (producer out-channels /
consumer in-channels) always have equal global and sub sizes; an index set
computed from ``(global_size, sub_size, shift)`` alone is therefore
automatically consistent across the whole network — including residual
connections — for any architecture in the zoo.
"""

from __future__ import annotations

import numpy as np

__all__ = ["width_index_maps", "extract_substate", "scatter_accumulate",
           "finalize_mean", "zeros_like_state"]

IndexMap = dict[str, tuple[np.ndarray | None, ...]]


def width_index_maps(global_shapes: dict[str, tuple[int, ...]],
                     sub_shapes: dict[str, tuple[int, ...]],
                     scale_axes: dict[str, tuple[int, ...]],
                     mode: str = "prefix", shift: int = 0) -> IndexMap:
    """Compute per-parameter index maps from a sub-model into the global one.

    Parameters
    ----------
    global_shapes / sub_shapes:
        ``name -> shape`` for the two state dicts. Every sub name must exist
        globally (depth variants simply contribute fewer names).
    scale_axes:
        ``name -> axes that width-scale`` (from
        :meth:`repro.nn.Module.state_scale_axes` of the *global* model).
    mode:
        ``"prefix"`` or ``"rolling"``.
    shift:
        Rolling-window start (ignored for prefix); typically the round index.

    Returns
    -------
    ``name -> tuple`` with one entry per axis: ``None`` for full axes, or an
    integer index array into the global axis.
    """
    if mode not in ("prefix", "rolling"):
        raise ValueError(f"unknown slicing mode {mode!r}")
    maps: IndexMap = {}
    for name, sub_shape in sub_shapes.items():
        if name not in global_shapes:
            raise KeyError(f"sub-model parameter {name!r} not in global model")
        global_shape = global_shapes[name]
        if len(sub_shape) != len(global_shape):
            raise ValueError(f"rank mismatch for {name!r}: "
                             f"{sub_shape} vs {global_shape}")
        axes = scale_axes.get(name, ())
        per_axis: list[np.ndarray | None] = []
        for axis, (g_dim, s_dim) in enumerate(zip(global_shape, sub_shape)):
            if s_dim == g_dim:
                per_axis.append(None)
            elif axis in axes and s_dim < g_dim:
                if mode == "prefix":
                    idx = np.arange(s_dim)
                else:
                    idx = (shift + np.arange(s_dim)) % g_dim
                per_axis.append(idx)
            else:
                raise ValueError(
                    f"axis {axis} of {name!r} cannot shrink "
                    f"{g_dim}->{s_dim} (scale axes: {axes})")
        maps[name] = tuple(per_axis)
    return maps


def _as_ix(per_axis: tuple[np.ndarray | None, ...],
           shape: tuple[int, ...]):
    """Index selecting the mapped block of a global array.

    When every mapped axis is one ascending contiguous window (always for
    ``prefix``; for ``rolling`` unless the window wraps) basic slices
    address the block as a *view*: extraction copies it once, accumulation
    adds into it, and the elements touched and the arithmetic on each are
    those of a gather / scatter.  Wrapped rolling windows fall back to an
    ``np.ix_`` open mesh.
    """
    if all(idx is None for idx in per_axis):
        return ...  # the whole array (depth variants map nothing)
    if all(idx is None or (idx[1:] - idx[:-1] == 1).all()
           for idx in per_axis):
        return tuple(slice(None) if idx is None
                     else slice(int(idx[0]), int(idx[-1]) + 1)
                     for idx in per_axis)
    return np.ix_(*(np.arange(dim) if idx is None else idx
                    for idx, dim in zip(per_axis, shape)))


def extract_substate(global_state: dict[str, np.ndarray],
                     maps: IndexMap) -> dict[str, np.ndarray]:
    """Pull the sub-model's view of every mapped parameter (copies)."""
    sub = {}
    for name, per_axis in maps.items():
        array = global_state[name]
        sub[name] = array[_as_ix(per_axis, array.shape)].copy()
    return sub


def zeros_like_state(state: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Zero accumulator matching a state dict (float64 for stable sums)."""
    return {name: np.zeros(value.shape, dtype=np.float64)
            for name, value in state.items()}


def scatter_accumulate(sum_state: dict[str, np.ndarray],
                       count_state: dict[str, np.ndarray],
                       sub_state: dict[str, np.ndarray],
                       maps: IndexMap, weight: float = 1.0) -> None:
    """Add a weighted sub-model update into global accumulators in place.

    ``sum_state``/``count_state`` span the global model; coordinates outside
    the sub-model's index map are untouched.  After accumulating every
    client, :func:`finalize_mean` produces the per-coordinate average — the
    aggregation rule shared by HeteroFL, Fjord and FedRolex.
    """
    for name, per_axis in maps.items():
        ix = _as_ix(per_axis, sum_state[name].shape)
        sum_state[name][ix] += weight * sub_state[name]
        count_state[name][ix] += weight


def finalize_mean(sum_state: dict[str, np.ndarray],
                  count_state: dict[str, np.ndarray],
                  fallback: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Per-coordinate mean; coordinates no client touched keep ``fallback``."""
    result = {}
    for name, total in sum_state.items():
        counts = count_state[name]
        touched = counts > 0
        merged = fallback[name].astype(np.float64).copy()
        merged[touched] = total[touched] / counts[touched]
        result[name] = merged.astype(fallback[name].dtype)
    return result

"""Neural-network operators built on the autograd :class:`Tensor`.

Includes the fused / structured operations that a layer library needs but that
are awkward to express with elementwise primitives: im2col convolution,
global average pooling, batch / layer normalisation, embeddings, softmax and
the cross-entropy losses, attention and dropout.  Every operator in
``__all__`` has a row in the float64 gradcheck table of
``tests/test_autograd.py`` (central differences under a weighted loss, whose
input gradient a plain ``.sum()`` would zero); an operator without one fails
that test.

The convolution lays its patches out for a batched BLAS GEMM, and picks the
data movement from the output width: wide maps zero-pad the input and copy a
``numpy.lib.stride_tricks.as_strided`` patch *view* of it; narrow maps
(``ow <= 8``, where that copy crawls ``ow`` elements at a time) gather
through an index plan memoised per geometry, forward (``np.take``) and
backward (gather-then-add).  Pointwise (1x1, stride 1) convolutions, which
dominate the MobileNet families, skip the patch copy and run as pure
reshaped matmuls.  Bias addition is fused into the ``linear`` / ``conv2d``
output in place, so it never costs an extra tape node or temporary.

Without a tape, ``conv2d`` lays out ``_INFER_CHUNK`` samples' patches at a
time and its fused norm and ``layer_norm`` normalise in place: the taped
forward's operations on the same operands, hence the same bits.

Hot reductions call the ufuncs ``ndarray.sum`` / ``.max`` / ``.mean`` forward
to (``mean`` as numpy's sum, then intp-count divide): same bits, no python frame.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import profiler
from .tensor import _GRAD_STATE, Tensor

__all__ = [
    "conv2d", "global_avg_pool2d", "batch_norm", "layer_norm", "embedding",
    "dropout", "attention", "softmax", "cross_entropy", "soft_cross_entropy",
    "linear",
]


# ----------------------------------------------------------------------
# im2col helpers (plain numpy)
# ----------------------------------------------------------------------

def _im2col_view(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Zero-copy (N, C, kh, kw, oh, ow) patch view of NCHW ``x``.

    The view aliases ``x`` with overlapping windows — read-only use only.
    """
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    return as_strided(x, shape=(n, c, kh, kw, oh, ow),
                      strides=(sn, sc, sh, sw, sh * stride, sw * stride))


def _col2im(cols: np.ndarray, x_shape: tuple[int, ...], kh: int, kw: int,
            stride: int, pad: int = 0) -> np.ndarray:
    """Scatter-add patch gradients back into an NCHW array (im2col adjoint).

    ``x_shape`` is the *unpadded* target; a non-zero ``pad`` folds the
    un-padding into the scatter by clipping each kernel offset's slice, so
    the padded intermediate (and the extra slice copy to strip it) never
    exists.  Per kernel offset the accumulation order matches the padded
    formulation exactly — results are bit-identical.

    Non-overlapping windows (``stride >= kernel``, unpadded) write disjoint
    pixels, so the adjoint is ``kh*kw`` plain strided *assignments* into
    uninitialised memory — no zero fill, no read-modify-write passes.
    Overlapping windows keep the ``kh*kw`` strided-add loop: each pass is a
    slice add over the full batch.  It beats ``np.add.reduceat`` (ufunc
    dispatch per ``kh*kw``-element segment) and an ``np.take`` gather at
    every width (4x4 map: 107 us here, 61 taken), but loses to an
    index-major fancy gather on maps up to 8 wide (``_GATHER_MAX_OW``), so
    ``conv2d`` calls this only for wider maps and disjoint windows.
    """
    n, c, h, w = x_shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1

    if pad == 0 and stride >= kh and stride >= kw:
        x = np.empty(x_shape, dtype=cols.dtype)
        if not (stride == kh == kw and h == stride * oh and w == stride * ow):
            x[...] = 0.0  # windows don't tile the image: gaps stay zero
        for i in range(kh):
            i_end = i + stride * oh
            for j in range(kw):
                j_end = j + stride * ow
                x[:, :, i:i_end:stride, j:j_end:stride] = cols[:, :, i, j]
        return x

    x = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(kh):
        # Output rows oy with 0 <= i - pad + stride*oy < h.
        oy0 = max(0, (pad - i + stride - 1) // stride)
        oy1 = min(oh, (h - 1 - i + pad) // stride + 1)
        if oy1 <= oy0:
            continue
        ys = i - pad + stride * oy0
        ye = i - pad + stride * (oy1 - 1) + 1
        for j in range(kw):
            ox0 = max(0, (pad - j + stride - 1) // stride)
            ox1 = min(ow, (w - 1 - j + pad) // stride + 1)
            if ox1 <= ox0:
                continue
            xs = j - pad + stride * ox0
            xe = j - pad + stride * (ox1 - 1) + 1
            x[:, :, ys:ye:stride, xs:xe:stride] += \
                cols[:, :, i, j, oy0:oy1, ox0:ox1]
    return x


# Output maps at most this wide gather by index instead of the strided copy /
# add, whose inner loop is one ``ow``-long row.  3x3, pad 1, isolated, us
# strided -> gathered, forward / backward: ow=2 70->23 / 45->16, ow=4
# 62->27 / 107->33, ow=8 57->47 / 120->57, ow=12 74->98 / 164->169, ow=16
# 102->162 / 232->398 (ROADMAP.md, Performance, "Round 6": both sides).
_GATHER_MAX_OW = 8

# A conv without a tape lays out this many samples' patches at a time.  A
# batch-256 paper-scale MobileNetV2 eval peaks at 204 / 225 / 390 / 751 MB at
# chunk 1 / 8 / 64 / whole batch (ROADMAP.md, Performance, "Round 18").
_INFER_CHUNK = 8


@functools.lru_cache(maxsize=None)
def _gather_plan(h: int, w: int, kh: int, kw: int, stride: int,
                 padding: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Read-only ``(fwd_index, bwd_index)`` for one conv geometry — no
    batch, channel or group term, so a cell builds about a dozen.

    Patch slots are numbered in ``(kh, kw, oh, ow)`` order.
    ``fwd_index[slot]`` is the pixel of the flattened ``h*w`` map the slot
    reads, or ``h*w`` — an appended zero — for a padding tap.
    ``bwd_index[:, pixel]`` lists, behind one leading zero slot (number
    ``len(fwd_index)``), the slots that read the pixel in ascending = kernel
    order, zero-filled to the deepest pixel's length; ``None`` for disjoint
    windows, where ``_col2im`` assigns: a leading ``0 +`` would turn a
    ``-0.0`` gradient into ``+0.0``.
    """
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    i, j, oy, ox = np.ix_(*map(np.arange, (kh, kw, oh, ow)))
    y, x = oy * stride + i - padding, ox * stride + j - padding
    inside = (y >= 0) & (y < h) & (x >= 0) & (x < w)
    fwd_index = np.where(inside, y * w + x, h * w).reshape(-1)
    fwd_index.setflags(write=False)
    if padding == 0 and stride >= kh and stride >= kw:
        return fwd_index, None
    readers: list[list[int]] = [[] for _ in range(h * w)]
    for slot, pixel in enumerate(fwd_index.tolist()):
        if pixel < h * w:  # a padding tap carries no input gradient
            readers[pixel].append(slot)
    depth = 1 + max(1, max(map(len, readers)))
    bwd_index = np.full((depth, h * w), fwd_index.size, dtype=np.intp)
    for pixel, slots in enumerate(readers):
        bwd_index[1:1 + len(slots), pixel] = slots
    bwd_index.setflags(write=False)
    return fwd_index, bwd_index


def _zero_column(rows: np.ndarray) -> np.ndarray:
    """2-D ``rows`` with one trailing column of zeros appended (a copy)."""
    out = np.empty((rows.shape[0], rows.shape[1] + 1), dtype=rows.dtype)
    out[:, :-1] = rows
    out[:, -1] = 0.0
    return out


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------

def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0, groups: int = 1, *,
           norm: tuple | None = None, act: str | None = None) -> Tensor:
    """Grouped 2-D convolution on NCHW input.

    ``weight`` has shape ``(out_channels, in_channels // groups, kh, kw)``;
    depthwise convolution is ``groups == in_channels``.

    ``norm=(gamma, beta, running_mean, running_var, training, momentum,
    eps)`` and ``act`` (``"relu"`` / ``"relu6"``, applied in place) make
    it ``act(batch_norm(conv2d(x)))`` as one tape node: the same forward and
    backward bodies, hence the same bits.  The backward reads the activation
    mask off the output (the pre-activation mask, NaN included); the
    profiler still counts the three outputs as three activations.
    """
    if act not in (None, "relu", "relu6") or (act and norm is None):
        raise ValueError(f"act must be None, or 'relu' / 'relu6' with norm=; "
                         f"got {act!r}")
    out, conv_backward = _conv2d_core(x, weight, bias, stride, padding, groups)
    parents = (x, weight) if bias is None else (x, weight, bias)
    if norm is None:
        return Tensor._make(out, parents, conv_backward)
    report = profiler.active
    if report is not None:
        report.activation_bytes += out.nbytes
    # the norm's need_x: as an op, the conv output needs a grad iff a parent did
    conv_needs = (x.requires_grad or weight.requires_grad
                  or (bias is not None and bias.requires_grad))
    out, norm_backward = _batch_norm_core(out, conv_needs, *norm, owned=True)
    parents += norm[:2]
    if act is not None:
        if report is not None:
            report.activation_bytes += out.nbytes
        if act == "relu":
            np.maximum(out, 0.0, out=out)
        else:
            np.clip(out, 0.0, 6.0, out=out)

    def backward(grad: np.ndarray) -> tuple:
        if act == "relu":
            grad = grad * (out > 0)
        elif act == "relu6":
            grad = grad * ((out > 0) & (out < 6.0))
        dy, dgamma, dbeta = norm_backward(grad)
        if dy is None:
            return (None,) * (len(parents) - 2) + (dgamma, dbeta)
        return conv_backward(dy) + (dgamma, dbeta)

    return Tensor._make(out, parents, backward)


def _conv2d_core(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int,
                 padding: int, groups: int) -> tuple:
    """:func:`conv2d`'s forward: ``(out, backward)``, no tape node.  Under
    ``no_grad``: no ``backward``, ``_INFER_CHUNK`` samples' patches at once."""
    n, c, h, w = x.shape
    oc, cg, kh, kw = weight.shape
    if c % groups or oc % groups:
        raise ValueError(f"channels ({c}->{oc}) not divisible by groups={groups}")
    if cg != c // groups:
        raise ValueError(f"weight expects {cg} in-channels/group, input has {c // groups}")

    xd = x.data
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    span = oh * ow
    ocg = oc // groups
    k = cg * kh * kw

    report = profiler.active
    if report is not None:
        report.flops += 2 * n * oc * oh * ow * cg * kh * kw
        report.op_counts["conv2d"] = report.op_counts.get("conv2d", 0) + 1
        report.gemm_calls += n if groups == 1 else n * groups

    # Pointwise (1x1, stride 1) convs are pure channel mixes: the GEMM input
    # is just a reshape of the (padded) input — no patch copy at all.
    pointwise = (kh == 1 and kw == 1 and stride == 1)
    gathered = not pointwise and ow <= _GATHER_MAX_OW
    fwd_index, bwd_index = (_gather_plan(h, w, kh, kw, stride, padding)
                            if gathered else (None, None))
    # The backward reads every patch (an empty batch makes one empty pass).
    grad_enabled = getattr(_GRAD_STATE, "enabled", True)
    step = max(n, 1) if grad_enabled or pointwise else _INFER_CHUNK
    wmat = weight.data.reshape((oc, k) if groups == 1 else (groups, ocg, k))
    out = np.empty((n, oc, oh, ow), np.promote_types(xd.dtype, wmat.dtype))
    for s in range(0, max(n, 1), step):
        part = xd[s:s + step]
        m = len(part)
        if gathered:
            # Narrow map: one planned gather, padding taps read an appended
            # zero.  np.take, not ``flat[:, fwd_index]``: that alone is x2
            # faster but index-major (F-ordered); the C-contiguous (m, k,
            # span) the GEMM has always seen would cost a second, slower copy.
            flat = part.reshape(m * c, h * w)
            cols = np.take(_zero_column(flat) if padding else flat,
                           fwd_index, axis=1).reshape(m, groups, k, span)
        else:
            if padding:
                # Manual zero-fill + centre assignment: np.pad's generic
                # machinery costs ~4x as much for this (constant,
                # symmetric, 2-axis) case.
                padded = np.zeros((m, c, h + 2 * padding, w + 2 * padding),
                                  dtype=xd.dtype)
                padded[:, :, padding:-padding, padding:-padding] = part
                part = padded
            if pointwise:
                cols = part.reshape(m, groups, k, span)
            else:
                # Wide map: one C-level strided copy into GEMM layout.
                buf = np.empty((m, c, kh, kw, oh, ow), dtype=xd.dtype)
                np.copyto(buf, _im2col_view(part, kh, kw, stride))
                cols = buf.reshape(m, groups, k, span)
        # stacked matmul calls BLAS per matrix: a chunk makes the same calls
        if groups == 1:
            np.matmul(wmat, cols.reshape(m, k, span),
                      out=out[s:s + m].reshape(m, oc, span))
        else:
            np.matmul(wmat, cols,
                      out=out[s:s + m].reshape(m, groups, ocg, span))
    if bias is not None:
        out += bias.data.reshape(1, oc, 1, 1)
    if not grad_enabled:
        return out, None

    def backward(grad: np.ndarray) -> tuple:
        dx = dw = db = None
        if groups == 1:
            g = grad.reshape(n, oc, span)
            if weight.requires_grad:
                # Batched GEMM over stride views (no operand copies), then
                # reduce the batch axis.
                dw = np.matmul(g, cols.reshape(n, k, span).transpose(0, 2, 1))
                dw = np.add.reduce(dw, axis=0).reshape(weight.shape)
                if profiler.active is not None:
                    profiler.active.gemm_calls += n
            if x.requires_grad:
                dcols = wmat.T @ g                          # (n, k, span)
                if profiler.active is not None:
                    profiler.active.gemm_calls += n
        elif ocg == 1:
            # Depthwise (one output channel per group): each dcols "GEMM"
            # is (k,1)@(1,span) — an outer product — so batched matmul
            # would dispatch n*groups tiny kernels with no arithmetic
            # intensity; one broadcast multiply is ~2.5x faster and
            # bit-identical.  dw stays a batched GEMM: its (1,span)@(span,k)
            # row-matrix products batch well, and every einsum/multiply-sum
            # reformulation measured slower.
            g = grad.reshape(n, groups, ocg, span)
            if weight.requires_grad:
                dw = np.matmul(g, cols.transpose(0, 1, 3, 2))
                dw = np.add.reduce(dw, axis=0).reshape(weight.shape)
                if profiler.active is not None:
                    profiler.active.gemm_calls += n * groups
            if x.requires_grad:
                dcols = (wmat.reshape(1, groups, k, 1)
                         * grad.reshape(n, groups, 1, span))
        else:
            g = grad.reshape(n, groups, ocg, span)
            if weight.requires_grad:
                dw = np.matmul(g, cols.transpose(0, 1, 3, 2))
                dw = np.add.reduce(dw, axis=0).reshape(weight.shape)
                if profiler.active is not None:
                    profiler.active.gemm_calls += n * groups
            if x.requires_grad:
                dcols = np.matmul(wmat.transpose(0, 2, 1), g)
                if profiler.active is not None:
                    profiler.active.gemm_calls += n * groups
        if bias is not None and bias.requires_grad:
            db = np.add.reduce(grad, axis=(0, 2, 3))
        if x.requires_grad:
            if pointwise:
                dxp = dcols.reshape(n, c, h + 2 * padding, w + 2 * padding)
                dx = (dxp[:, :, padding:-padding, padding:-padding]
                      if padding else dxp)
            elif bwd_index is None:
                # col2im scatters straight into the unpadded gradient.
                dx = _col2im(dcols.reshape(n, c, kh, kw, oh, ow),
                             (n, c, h, w), kh, kw, stride, pad=padding)
            else:
                # Gathered col2im: the fancy index lays ``taps`` out
                # index-major (each tap a run of n*c, not of ``ow``), and
                # the explicit loop is _col2im's order of additions,
                # ((0 + c1) + c2) + ..., sign of zero included.
                slots = _zero_column(dcols.reshape(n * c, -1))
                del dcols  # not alive beside the (larger) gathered copy
                taps = slots[:, bwd_index]
                acc = taps[:, 0] + taps[:, 1]
                for t in range(2, len(bwd_index)):
                    acc += taps[:, t]
                dx = np.ascontiguousarray(acc).reshape(n, c, h, w)
        if bias is None:
            return dx, dw
        return dx, dw, db

    return out, backward


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------

def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial axes, producing (N, C)."""
    n, c, h, w = x.shape
    out = np.add.reduce(x.data, axis=(2, 3))
    np.true_divide(out, np.intp(h * w), out=out, casting="unsafe")

    def backward(grad: np.ndarray) -> tuple:
        full = np.empty(x.shape, dtype=grad.dtype)
        full[...] = grad[:, :, None, None] / (h * w)
        return (full,)

    return Tensor._make(out, (x,), backward)


# ----------------------------------------------------------------------
# Normalisation
# ----------------------------------------------------------------------

def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1,
               eps: float = 1e-5) -> Tensor:
    """Batch normalisation over NCHW (per-channel) or NC (per-feature) input.

    ``running_mean``/``running_var`` are updated **in place** in training
    mode, mirroring the usual framework contract.

    The batch statistics are ``np.mean`` / ``np.var`` spelled out once (same
    ufuncs, axes and operand order, hence the same bits): one mean reduction
    instead of two, the centred input becomes ``xhat`` in place, and backward
    reduces ``grad`` and ``grad * xhat`` once for ``dx``/``dgamma``/``dbeta``.
    ``running_mean`` and ``running_var`` must share a dtype.
    """
    out, backward = _batch_norm_core(x.data, x.requires_grad, gamma, beta,
                                     running_mean, running_var, training,
                                     momentum, eps)
    return Tensor._make(out, (x, gamma, beta), backward)


def _batch_norm_core(xd: np.ndarray, need_x: bool, gamma: Tensor, beta: Tensor,
                     running_mean: np.ndarray, running_var: np.ndarray,
                     training: bool, momentum: float, eps: float, *,
                     owned: bool = False) -> tuple:
    """:func:`batch_norm` on an array: ``(out, backward)``, no tape node.

    ``owned`` hands ``xd`` (a conv output) over to be centred in place; where
    dtypes allow, the output reuses ``xhat * xhat`` or, with no tape, ``xhat``.
    """
    if xd.ndim == 4:
        axes: tuple[int, ...] = (0, 2, 3)
        shape = (1, -1, 1, 1)
    elif xd.ndim == 2:
        axes = (0,)
        shape = (1, -1)
    else:
        raise ValueError(f"batch_norm expects 2-D or 4-D input, got {xd.ndim}-D")

    m = xd.size // xd.shape[1]

    if training:
        # np.intp is numpy's own divisor type: float64 divide, cast back.
        count = np.intp(m)
        mean = np.add.reduce(xd, axis=axes, keepdims=True)
        np.true_divide(mean, count, out=mean, casting="unsafe")
        xhat = np.subtract(xd, mean, out=xd if owned else None)  # scaled below
        spare = xhat * xhat
        var = np.add.reduce(spare, axis=axes, keepdims=True)
        np.true_divide(var, count, out=var, casting="unsafe")
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.reshape(-1)
        running_var *= 1.0 - momentum
        running_var += momentum * var.reshape(-1)
    else:
        var = running_var.reshape(shape)
        centre = running_mean.reshape(shape)
        inplace = owned and centre.dtype == xd.dtype
        xhat = np.subtract(xd, centre, out=xd if inplace else None)
        # dgamma reads xhat: only a forward without a tape may overwrite it
        spare = None if getattr(_GRAD_STATE, "enabled", True) else xhat

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    g, b = gamma.data.reshape(shape), beta.data.reshape(shape)
    if g.dtype == b.dtype == xhat.dtype:
        out = np.multiply(g, xhat, out=spare)
        out += b
    else:
        out = g * xhat + b

    def backward(grad: np.ndarray) -> tuple:
        need_gamma, need_beta = gamma.requires_grad, beta.requires_grad
        g_sum = gx_sum = dx = None
        if need_beta or (need_x and training):
            g_sum = np.add.reduce(grad, axis=axes, keepdims=True)
        if need_gamma or (need_x and training):
            gx_sum = np.add.reduce(grad * xhat, axis=axes, keepdims=True)
        if need_x:
            if training:
                dx = (gamma.data.reshape(shape) * inv_std / m) * (
                    m * grad - g_sum - xhat * gx_sum)
            else:
                dx = grad * gamma.data.reshape(shape) * inv_std
        return (dx, gx_sum.reshape(-1) if need_gamma else None,
                g_sum.reshape(-1) if need_beta else None)

    return out, backward


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis.

    ``np.mean`` / ``np.var`` spelled out once as in :func:`batch_norm` (same
    ufuncs and operand order, hence the same bits), ``xhat`` scaled in place.
    """
    d = x.shape[-1]
    count = np.intp(d)  # numpy's own divisor type: float64 divide, cast back
    mean = np.add.reduce(x.data, axis=-1, keepdims=True)
    np.true_divide(mean, count, out=mean, casting="unsafe")
    xhat = x.data - mean
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    np.true_divide(var, count, out=var, casting="unsafe")
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    if (not getattr(_GRAD_STATE, "enabled", True)
            and gamma.data.dtype == beta.data.dtype == xhat.dtype):
        np.multiply(gamma.data, xhat, out=xhat)
        xhat += beta.data
        return Tensor._make(xhat, (x, gamma, beta), None)
    out = gamma.data * xhat + beta.data

    def backward(grad: np.ndarray) -> tuple:
        reduce_axes = tuple(range(x.ndim - 1))
        dgamma = ((grad * xhat).sum(axis=reduce_axes)
                  if gamma.requires_grad else None)
        dbeta = grad.sum(axis=reduce_axes) if beta.requires_grad else None
        dx = None
        if x.requires_grad:
            gg = grad * gamma.data
            g_sum = gg.sum(axis=-1, keepdims=True)
            gx_sum = (gg * xhat).sum(axis=-1, keepdims=True)
            dx = (inv_std / d) * (d * gg - g_sum - xhat * gx_sum)
        return dx, dgamma, dbeta

    return Tensor._make(out, (x, gamma, beta), backward)


# ----------------------------------------------------------------------
# Embedding / linear
# ----------------------------------------------------------------------

def _scatter_add_rows(full: np.ndarray, idx: np.ndarray,
                      grad: np.ndarray) -> None:
    """``full[idx] += grad`` with correct duplicate handling.

    Uses sort + ``np.add.reduceat`` segment sums, which is far faster than
    ``np.add.at`` buffered scatter; duplicate-free index sets degenerate to a
    single slice-assign.
    """
    flat = idx.reshape(-1)
    if flat.size == 0:
        return
    rows = grad.reshape(flat.size, -1)
    order = np.argsort(flat, kind="stable")
    sorted_idx = flat[order]
    starts = np.flatnonzero(np.r_[True, sorted_idx[1:] != sorted_idx[:-1]])
    if starts.size == flat.size:  # all indices distinct: plain assignment
        full[flat] += rows
        return
    sums = np.add.reduceat(rows[order], starts, axis=0)
    full[sorted_idx[starts]] += sums


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` by an integer index array."""
    idx = np.asarray(indices)
    out = weight.data[idx]

    def backward(grad: np.ndarray) -> tuple:
        full = np.zeros_like(weight.data)
        _scatter_add_rows(full, idx, grad)
        return (full,)

    return Tensor._make(out, (weight,), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight.T + bias`` with ``weight`` of shape (out, in).

    Works for any leading batch shape; the contraction is over the last axis.
    The bias add is fused in place into the GEMM output.
    """
    out = x.data @ weight.data.T
    report = profiler.active
    if report is not None:
        report.flops += 2 * out.size * x.shape[-1]
        report.op_counts["linear"] = report.op_counts.get("linear", 0) + 1
    if bias is not None:
        out += bias.data

    def backward(grad: np.ndarray) -> tuple:
        dx = dw = db = None
        g2 = grad.reshape(-1, weight.shape[0])
        if weight.requires_grad:
            dw = g2.T @ x.data.reshape(-1, x.shape[-1])
        if bias is not None and bias.requires_grad:
            db = g2.sum(axis=0)
        if x.requires_grad:
            dx = (grad @ weight.data).reshape(x.shape)
        if bias is None:
            return dx, dw
        return dx, dw, db

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward)


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------

def _shifted_exp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared max-shift stage of the softmax family.

    Returns ``(z, e, esum)`` where ``z = x - rowmax``, ``e = exp(z)`` and
    ``esum`` is the last-axis sum of ``e`` (keepdims).  Softmax is
    ``e / esum``; log-softmax is ``z - log(esum)``.
    """
    z = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    e = np.exp(z)
    return z, e, np.add.reduce(e, axis=-1, keepdims=True)


def _softmax_np(x: np.ndarray) -> np.ndarray:
    _, e, esum = _shifted_exp(x)
    return e / esum


def softmax(x: Tensor) -> Tensor:
    out = _softmax_np(x.data)

    def backward(grad: np.ndarray) -> tuple:
        dot = (grad * out).sum(axis=-1, keepdims=True)
        return (out * (grad - dot),)

    return Tensor._make(out, (x,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, K) and integer ``labels``."""
    labels = np.asarray(labels)
    n = logits.shape[0]
    z, _, esum = _shifted_exp(logits.data)
    logp = z - np.log(esum)

    picked = logp[np.arange(n), labels]
    total = np.add.reduce(picked, axis=None)
    loss = -total.dtype.type(total / np.intp(picked.size))  # picked.mean()

    def backward(grad: np.ndarray) -> tuple:
        # exp(logp) rather than e / esum for bit-identity with pinned runs.
        soft = np.exp(logp)
        soft[np.arange(n), labels] -= 1.0
        soft *= grad / n
        return (soft,)

    return Tensor._make(np.asarray(loss, dtype=logits.dtype), (logits,), backward)


def soft_cross_entropy(logits: Tensor, target_probs: np.ndarray) -> Tensor:
    """Mean cross-entropy against a fixed soft target distribution.

    Gradient-equivalent to ``KL(target || softmax(logits))``; this is the
    distillation loss used by DepthFL, InclusiveFL and Fed-ET.
    """
    target = np.asarray(target_probs, dtype=logits.dtype)
    n = logits.shape[0]
    z, _, esum = _shifted_exp(logits.data)
    logp = z - np.log(esum)
    rows = np.add.reduce(target * logp, axis=-1)
    total = np.add.reduce(rows, axis=None)
    loss = -total.dtype.type(total / np.intp(rows.size))  # rows.mean()

    def backward(grad: np.ndarray) -> tuple:
        # exp(logp) rather than e / esum for bit-identity with pinned runs.
        soft = np.exp(logp)
        soft -= target
        soft *= grad
        soft /= n
        return (soft,)

    return Tensor._make(np.asarray(loss, dtype=logits.dtype), (logits,), backward)


# ----------------------------------------------------------------------
# Dropout
# ----------------------------------------------------------------------

def dropout(x: Tensor, p: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; identity in eval mode or when ``p == 0``.

    ``rng`` is required when the mask is actually drawn: sampling from an
    implicit fresh generator would silently break run reproducibility.  Use
    :class:`repro.nn.layers.Dropout`, which owns a seeded generator.
    """
    if not training or p <= 0.0:
        return x
    if rng is None:
        raise ValueError(
            "dropout with training=True requires an explicit "
            "numpy.random.Generator (rng=...); an implicit fresh generator "
            "would make runs irreproducible — thread the owning layer's "
            "seeded RNG (see repro.nn.layers.Dropout)")
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)

    def backward(grad: np.ndarray) -> tuple:
        return (grad * mask,)

    return Tensor._make(x.data * mask, (x,), backward)


# ----------------------------------------------------------------------
# Fused attention
# ----------------------------------------------------------------------

def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)`` by halving: ``np.maximum`` over the
    two halves of the last axis, repeated, vectorises across rows where the
    contiguous-axis reduce goes row by row (x2 at 32-long rows; not worth it
    for ``_shifted_exp``'s class-count rows).  A maximum does not round, so
    the value is exact (a zero may take either sign — ``exp`` erases it) and
    NaN still propagates."""
    n = x.shape[-1]
    while n > 1:
        half = n // 2
        top = np.maximum(x[..., :half], x[..., half:2 * half])
        if n % 2:  # fold the odd straggler into the first column
            np.maximum(top[..., :1], x[..., n - 1:], out=top[..., :1])
        x, n = top, half
    return x


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float,
              rng: np.random.Generator | None = None, p: float = 0.0,
              training: bool = False) -> Tensor:
    """Fused scaled-dot-product attention: ``softmax(q @ kᵀ * scale) @ v``.

    One tape node with a closed-form backward, replacing the five-node
    matmul/scale/softmax/dropout/matmul chain: the ``(B, H, S, S)`` score
    matrix is built once, softmaxed **in place**, and only the attention
    weights (plus the dropout mask when active) survive into the closure —
    no per-node score/transpose temporaries on the tape.  ``scale`` is
    applied as a python float, so float32 inputs stay float32 (a 0-d
    float64 scale array would promote the whole chain under NEP 50).  The
    softmax shift is :func:`_row_max`, exactly ``ndarray.max``'s value.

    ``rng``/``p`` fuse inverted dropout on the attention weights; the mask
    is drawn exactly like :func:`dropout` would on the softmax output, so
    the RNG stream matches the composed-primitive formulation bit for bit.
    """
    qd, kd, vd = q.data, k.data, v.data
    scale = float(scale)
    drop = training and p > 0.0
    if drop and rng is None:
        raise ValueError(
            "attention with dropout (training=True, p > 0) requires an "
            "explicit numpy.random.Generator (rng=...); see dropout()")

    weights = np.matmul(qd, np.swapaxes(kd, -1, -2))   # (B, H, S, S)
    weights *= scale
    weights -= _row_max(weights)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)

    if drop:
        mask = (rng.random(weights.shape) >= p).astype(weights.dtype)
        mask /= (1.0 - p)
        out = np.matmul(weights * mask, vd)             # (B, H, S, Dh)
    else:
        mask = None
        out = np.matmul(weights, vd)

    report = profiler.active
    if report is not None:
        # Two batched GEMMs (scores and context), 2 FLOPs per MAC each.
        batch = int(np.prod(out.shape[:-2], dtype=np.int64))
        s, dh = out.shape[-2], vd.shape[-1]
        report.flops += 4 * batch * s * weights.shape[-1] * dh
        report.op_counts["attention"] = report.op_counts.get("attention",
                                                             0) + 1
        report.gemm_calls += 2 * batch

    def backward(grad: np.ndarray) -> tuple:
        dq = dk = dv = None
        w_used = weights if mask is None else weights * mask
        if v.requires_grad:
            dv = np.matmul(np.swapaxes(w_used, -1, -2), grad)
        if q.requires_grad or k.requires_grad:
            dw = np.matmul(grad, np.swapaxes(vd, -1, -2))
            if mask is not None:
                dw *= mask
            # Softmax VJP folded in, then the scale (also a python float).
            dot = (dw * weights).sum(axis=-1, keepdims=True)
            dscores = weights * (dw - dot)
            dscores *= scale
            if q.requires_grad:
                dq = np.matmul(dscores, kd)
            if k.requires_grad:
                dk = np.matmul(np.swapaxes(dscores, -1, -2), qd)
        return dq, dk, dv

    return Tensor._make(out, (q, k, v), backward)

"""Reverse-mode automatic differentiation on numpy arrays.

This module is the lowest layer of the PracMHBench reproduction: a compact
autograd engine that provides exactly the operations the model zoo needs
(dense/conv layers, normalisation, attention, losses).  The design follows the
classic tape-based approach: every :class:`Tensor` produced by an operation
stores its parents and a backward closure.

Backward contract
-----------------
An op's backward closure receives the gradient of the loss w.r.t. the op's
output and **returns** a tuple of per-parent gradients, aligned with
``_parents`` (``None`` for parents that need no gradient).  The engine owns
all gradient routing: closures never touch shared state, which makes
:meth:`Tensor.backward` re-entrant (a backward may safely run while another
backward is in flight, eg. distillation losses built inside callbacks).

Returned gradient arrays may alias the incoming gradient or each other
(identity/broadcast/slice views are encouraged — they avoid copies); the
engine tracks buffer ownership and only accumulates in place into buffers it
allocated itself, donating them to leaf ``.grad`` slots when possible.

Topological ordering uses monotonically increasing creation sequence numbers:
parents are always created before their children, so a single reachability
sweep plus one C-level sort replaces the seed engine's two-pass DFS.  The
order is a local of each ``backward()`` call and nothing on the tape points
back at a child, so a finished step holds **no reference cycle**: its
tensors, closures and im2col / activation arrays are freed by refcount the
moment ``loss`` goes out of scope, not by a later cyclic-GC generation.

Only float computations are differentiated; integer label / index arrays are
passed around as plain numpy arrays.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
import threading
from typing import Callable, Sequence

import numpy as np

from . import profiler

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor"]

# Grad mode is *per thread*: a ``no_grad()`` block on one thread (e.g.
# FedProto's prototype extraction) must not stop a model training
# concurrently on another thread from recording its backward tape.
_GRAD_STATE = threading.local()

# Creation-order sequence numbers; parents always precede children, so
# sorting any reachable set by ``_seq`` yields a valid topological order.
# (``itertools.count`` is atomic under the GIL, so one shared sequence is
# safe across worker threads — ordering only needs to be monotonic.)
_SEQ = itertools.count()

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_requires_grad = operator.attrgetter("requires_grad")  # no python frame


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (eval / inference)."""
    previous = getattr(_GRAD_STATE, "enabled", True)
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return ``True`` when operations should record the backward tape."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an optional gradient and backward tape entry.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float32`` unless already a float
        numpy array.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.

    A tensor references its parents, never its children or itself, so
    dropping the last reference to an output frees its tape by refcount.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_seq")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data)
        if array.dtype not in (np.float32, np.float64):
            array = array.astype(np.float32)
        self.data: np.ndarray = array
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], tuple] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._seq: int = next(_SEQ)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], tuple]) -> "Tensor":
        """Create an op output, wiring the tape only when grads are needed.

        ``backward`` maps the output gradient to a tuple of per-parent
        gradients aligned with ``parents`` (entries may be ``None``).
        A float ndarray (what ops produce) is wrapped without ``__init__``.
        The tape is wired only on outputs marked ``requires_grad``, so that
        flag alone says whether a gradient must reach a tensor (leaf or op
        node) — backward closures read it instead of ``_backward``.
        """
        if profiler.active is not None:
            profiler.active.activation_bytes += data.nbytes
        needs = (getattr(_GRAD_STATE, "enabled", True)
                 and any(map(_requires_grad, parents)))
        if type(data) is np.ndarray and data.dtype in _FLOAT_DTYPES:
            out = Tensor.__new__(Tensor)
            out.data, out.grad, out._seq = data, None, next(_SEQ)
        else:
            out = Tensor(data)
        out.requires_grad = needs
        out._parents = tuple(parents) if needs else ()
        out._backward = backward if needs else None
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Fold ``grad`` into :attr:`grad`.

        ``owned`` marks buffers allocated by the backward engine itself;
        those are adopted directly (zero copy) instead of duplicated.
        """
        if self.grad is None:
            if owned and grad.dtype == self.data.dtype:
                self.grad = grad
            else:
                self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def _topo_order(self) -> list["Tensor"]:
        """Reverse topological order of tape nodes / grad leaves from here.

        Recomputed per call and never stored on a tensor: a list holding
        the root, kept by the root, would be a reference cycle.
        """
        seen = {id(self)}
        order = [self]
        stack = [self]
        while stack:
            for parent in stack.pop()._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    if parent._backward is not None:
                        order.append(parent)
                        stack.append(parent)
                    elif parent.requires_grad:
                        order.append(parent)
        # Children first: creation sequence numbers are a topo order.
        order.sort(key=lambda t: t._seq, reverse=True)
        return order

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to ones (appropriate for scalar losses).  The pass
        uses only local state, so it is safe to start another backward while
        this one is running.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        grads: dict[int, np.ndarray] = {id(self): grad}
        # Buffers the engine allocated itself: safe to mutate in place and
        # to donate to leaf ``.grad`` slots.
        owned: set[int] = set()

        for node in self._topo_order():
            key = id(node)
            node_grad = grads.pop(key, None)
            if node_grad is None:
                continue
            node_owned = key in owned
            owned.discard(key)
            if node._backward is None:
                if node.requires_grad:
                    node._accumulate(node_grad, owned=node_owned)
                continue
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                pkey = id(parent)
                existing = grads.get(pkey)
                if existing is None:
                    grads[pkey] = pgrad
                elif pkey in owned:
                    existing += pgrad
                else:
                    # First fan-in merge allocates the owned buffer; later
                    # contributions accumulate into it in place.
                    grads[pkey] = existing + pgrad
                    owned.add(pkey)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------

def _binary(a: Tensor, b, forward, grad_a, grad_b) -> Tensor:
    b = as_tensor(b)
    data = forward(a.data, b.data)

    def backward(grad: np.ndarray) -> tuple:
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(grad_a(grad, a.data, b.data), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(grad_b(grad, a.data, b.data), b.shape)
        return ga, gb

    return Tensor._make(data, (a, b), backward)


def _unary(a: Tensor, forward, grad_fn) -> Tensor:
    data = forward(a.data)

    def backward(grad: np.ndarray) -> tuple:
        return (grad_fn(grad, a.data, data),)

    return Tensor._make(data, (a,), backward)


def _add(a: Tensor, b) -> Tensor:
    return _binary(a, b, np.add,
                   lambda g, x, y: g,
                   lambda g, x, y: g)


def _sub(a: Tensor, b) -> Tensor:
    return _binary(a, b, np.subtract,
                   lambda g, x, y: g,
                   lambda g, x, y: -g)


def _mul(a: Tensor, b) -> Tensor:
    return _binary(a, b, np.multiply,
                   lambda g, x, y: g * y,
                   lambda g, x, y: g * x)


def _div(a: Tensor, b) -> Tensor:
    return _binary(a, b, np.divide,
                   lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y * y))


def _pow(a: Tensor, exponent: float) -> Tensor:
    return _unary(a, lambda x: np.power(x, exponent),
                  lambda g, x, out: g * exponent * np.power(x, exponent - 1))


def _neg(a: Tensor) -> Tensor:
    return _unary(a, np.negative, lambda g, x, out: -g)


Tensor.__add__ = _add
Tensor.__radd__ = _add
Tensor.__sub__ = _sub
Tensor.__rsub__ = lambda a, b: _add(_neg(a), b)
Tensor.__mul__ = _mul
Tensor.__rmul__ = _mul
Tensor.__truediv__ = _div
Tensor.__rtruediv__ = lambda a, b: _div(as_tensor(b), a)
Tensor.__pow__ = _pow
Tensor.__neg__ = _neg


# ----------------------------------------------------------------------
# Activations
# ----------------------------------------------------------------------

def sigmoid(a: Tensor) -> Tensor:
    def fwd(x):
        return 1.0 / (1.0 + np.exp(-x))

    return _unary(a, fwd, lambda g, x, out: g * out * (1.0 - out))


def relu(a: Tensor) -> Tensor:
    return _unary(a, lambda x: np.maximum(x, 0.0),
                  lambda g, x, out: g * (x > 0))


def relu6(a: Tensor) -> Tensor:
    return _unary(a, lambda x: np.clip(x, 0.0, 6.0),
                  lambda g, x, out: g * ((x > 0) & (x < 6.0)))


def hardswish(a: Tensor) -> Tensor:
    """x * relu6(x + 3) / 6, the MobileNetV3 activation."""

    def fwd(x):
        return x * np.clip(x + 3.0, 0.0, 6.0) / 6.0

    def grad_fn(g, x, out):
        inner = np.clip(x + 3.0, 0.0, 6.0)
        d = inner / 6.0 + x * ((x > -3.0) & (x < 3.0)) / 6.0
        return g * d

    return _unary(a, fwd, grad_fn)


def gelu(a: Tensor) -> Tensor:
    """Tanh-approximation GELU (as used by ALBERT/transformers).

    The cube is expanded to ``x*x*x`` (numpy's generic ``power`` ufunc is
    ~100x slower than two multiplies) and the forward ``tanh`` — the only
    transcendental — is kept alive for the backward instead of being
    recomputed.  Without a tape the same operations run in one buffer.
    """
    c = np.float32(np.sqrt(2.0 / np.pi))
    x = a.data
    if not getattr(_GRAD_STATE, "enabled", True):
        t = x * x * x
        t *= 0.044715
        t += x
        t *= c
        np.tanh(t, out=t)
        t += 1.0
        return Tensor._make(np.multiply(x * 0.5, t, out=t), (a,), None)
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    out = 0.5 * x * (1.0 + t)

    def backward(grad: np.ndarray) -> tuple:
        dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * (x * x))
        return (grad * (0.5 * (1.0 + t) + 0.5 * x * dt),)

    return Tensor._make(out, (a,), backward)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> tuple:
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        # Materialise contiguously: consumers (GEMM backward closures) hit
        # numpy slow paths on 0-stride broadcast views.
        out = np.empty(a.shape, dtype=g.dtype)
        out[...] = g
        return (out,)

    return Tensor._make(data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.shape[i] for i in axis]))
    else:
        count = a.shape[axis]
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


Tensor.sum = tsum
Tensor.mean = tmean


# ----------------------------------------------------------------------
# Shape ops
# ----------------------------------------------------------------------

def reshape(a: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    data = a.data.reshape(shape)

    def backward(grad: np.ndarray) -> tuple:
        return (grad.reshape(a.shape),)

    return Tensor._make(data, (a,), backward)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    data = a.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward(grad: np.ndarray) -> tuple:
        return (grad.transpose(inverse),)

    return Tensor._make(data, (a,), backward)


def _is_basic_index(index) -> bool:
    """True for indices where every selected element is distinct (ints /
    slices / ellipsis / newaxis), so the adjoint is a plain slice-assign."""
    basic = (int, np.integer, slice)
    if isinstance(index, basic) or index is None or index is Ellipsis:
        return True
    if isinstance(index, tuple):
        return all(isinstance(i, basic) or i is None or i is Ellipsis
                   for i in index)
    return False


def getitem(a: Tensor, index) -> Tensor:
    data = a.data[index]

    if _is_basic_index(index):
        def backward(grad: np.ndarray) -> tuple:
            full = np.zeros(a.shape, dtype=a.data.dtype)
            full[index] = grad
            return (full,)
    else:
        def backward(grad: np.ndarray) -> tuple:
            full = np.zeros(a.shape, dtype=a.data.dtype)
            np.add.at(full, index, grad)
            return (full,)

    return Tensor._make(data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> tuple:
        pieces = []
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if not tensor.requires_grad:
                pieces.append(None)
                continue
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            pieces.append(grad[tuple(slicer)])
        return tuple(pieces)

    return Tensor._make(data, tuple(tensors), backward)


def pad2d(a: Tensor, padding: int) -> Tensor:
    """Zero-pad the last two (spatial) axes of an NCHW tensor."""
    if padding == 0:
        return a
    p = padding
    data = np.pad(a.data, ((0, 0), (0, 0), (p, p), (p, p)))

    def backward(grad: np.ndarray) -> tuple:
        return (grad[:, :, p:-p, p:-p],)

    return Tensor._make(data, (a,), backward)


Tensor.reshape = reshape
Tensor.transpose = transpose
Tensor.__getitem__ = getitem


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    b = as_tensor(b)
    data = a.data @ b.data
    report = profiler.active
    if report is not None:
        # MACs = output elements * contraction length; 2 FLOPs per MAC.
        report.flops += 2 * data.size * a.shape[-1]
        report.op_counts["matmul"] = report.op_counts.get("matmul", 0) + 1

    def backward(grad: np.ndarray) -> tuple:
        ga = gb = None
        if a.ndim == b.ndim == 2:
            if a.requires_grad:
                ga = grad @ b.data.T
            if b.requires_grad:
                gb = a.data.T @ grad
        else:
            # Batched matmul with broadcasting.
            if a.requires_grad:
                ga = _unbroadcast(grad @ np.swapaxes(b.data, -1, -2), a.shape)
            if b.requires_grad:
                gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ grad, b.shape)
        return ga, gb

    return Tensor._make(data, (a, b), backward)


Tensor.__matmul__ = matmul

"""Module system: named parameters, buffers, state, train/eval mode.

A model's state is one float32 vector with a :class:`Layout` (parameters,
then buffers, by dotted path through the module tree); the naming contract
is what makes sub-model extraction and aggregation possible.
:meth:`Module.bind_state` rebinds every parameter and buffer to its view of
one buffer, so the algorithms in :mod:`repro.algorithms` move whole vectors;
``state_dict`` / ``load_state_dict`` are the ``name -> array`` boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..autograd import Tensor

__all__ = ["Parameter", "Module", "Layout", "flat_parameters"]

#: bumped by every child-module assignment; a walk stored before it is stale.
_structure = 0


@dataclass(frozen=True)
class Layout:
    """Entry ``i`` of a flat state vector is ``names[i]``, of shape
    ``shapes[i]``, at ``bounds[i]:bounds[i + 1]``; the first ``params``
    entries are parameters, the rest buffers."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    bounds: tuple[int, ...]
    params: int

    @classmethod
    def of(cls, entries, params: int) -> "Layout":
        """The layout of ``(name, shape)`` entries packed in order."""
        entries = [(name, tuple(shape)) for name, shape in entries]
        return cls(tuple(name for name, _ in entries),
                   tuple(shape for _, shape in entries),
                   tuple(accumulate((math.prod(shape) for _, shape in entries),
                                    initial=0)), params)

    @property
    def size(self) -> int:
        return self.bounds[-1]

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """``name -> view`` of every entry of ``vector`` (writes go through)."""
        return {name: vector[start:stop].reshape(shape)
                for name, shape, start, stop in zip(
                    self.names, self.shapes, self.bounds, self.bounds[1:])}

    def pack(self, state: dict) -> np.ndarray:
        """A new float32 vector of a state dict's entries (all required,
        shapes checked): the inverse of :meth:`views`."""
        vector = np.empty(self.size, np.float32)
        for name, view in self.views(vector).items():
            if np.shape(state[name]) != view.shape:
                raise ValueError(f"shape mismatch for '{name}': layout "
                                 f"{view.shape} vs {np.shape(state[name])}")
            view[...] = state[name]
        return vector

    def select(self, names) -> "Layout":
        """The entries named in ``names``, in this order, packed anew."""
        keep = [i for i, name in enumerate(self.names) if name in names]
        return Layout.of([(self.names[i], self.shapes[i]) for i in keep],
                         params=sum(i < self.params for i in keep))


def _region(params) -> np.ndarray | None:
    """The stretch of one 1-D buffer that the parameters' arrays are
    consecutive C-ordered views of, in order; ``None`` when they are not.
    (No helper calls: an optimiser runs this once per client round.)"""
    base = params[0].data.base if params else None
    if base is None or base.ndim != 1:
        return None
    origin, itemsize = base.__array_interface__["data"][0], base.itemsize
    start = stop = (params[0].data.__array_interface__["data"][0]
                    - origin) // itemsize
    for param in params:
        array = param.data
        if (array.base is not base or not array.flags.c_contiguous
                or array.__array_interface__["data"][0]
                != origin + stop * itemsize):
            return None
        stop += array.size
    return base[start:stop]


def _rebind(arrays, dtype, bind) -> np.ndarray:
    """Copy ``arrays`` into one new buffer and hand each its view through
    ``bind(i, view)``: the only sanctioned ``.data`` rebinds are its."""
    flat, start = np.empty(sum(a.size for a in arrays), dtype), 0
    for i, array in enumerate(arrays):
        view = flat[start:start + array.size].reshape(array.shape)
        view[...] = array
        bind(i, view)
        start += array.size
    return flat


def flat_parameters(params, dtype) -> np.ndarray:
    """The buffer ``params`` are consecutive views of: the region they
    already view (a bound module's, an earlier call's), else a new one they
    are copied into and rebound to — so packing happens at most once."""
    region = _region(params)
    if region is not None:
        return region

    def bind(i, view):
        params[i].data = view

    return _rebind([param.data for param in params], dtype, bind)


class Parameter(Tensor):
    """A trainable tensor with optional structural metadata.

    ``scale_axes`` marks which axes shrink when the owning model is built at a
    reduced width multiplier (used by the width-heterogeneity index maps);
    axes not listed keep their full size in every variant.
    """

    __slots__ = ("scale_axes",)

    def __init__(self, data, scale_axes: tuple[int, ...] = ()):  # noqa: D401
        super().__init__(data, requires_grad=True)
        self.scale_axes = tuple(scale_axes)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter`, buffer arrays (via
    :meth:`register_buffer`) and child :class:`Module` instances as
    attributes; the base class discovers them for iteration / state dicts.
    """

    def __init__(self):
        self._parameters: dict[str, Parameter] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._buffer_scale_axes: dict[str, tuple[int, ...]] = {}
        self._modules: dict[str, "Module"] = {}
        self.training = True

    # ------------------------------------------------------------------
    # Attribute plumbing
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
            global _structure
            _structure += 1  # every stored walk is now stale
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray,
                        scale_axes: tuple[int, ...] = ()) -> None:
        """Track a non-trainable array (e.g. BatchNorm running stats).

        ``scale_axes`` follows the same contract as
        :attr:`Parameter.scale_axes`: axes that shrink in width variants.
        """
        self._buffers[name] = value
        self.__dict__.setdefault("_buffer_scale_axes", {})[name] = tuple(scale_axes)
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Tree iteration
    # ------------------------------------------------------------------
    def named_modules(self) -> list[tuple[str, "Module"]]:
        """``(dotted path, module)`` for this module and all below, pre-order.
        The walk is kept here alone (one per descendant costs MiBs) until a
        child module is assigned anywhere; never holding ``self``: no cycle."""
        walk = self.__dict__.get("_walk")
        if walk is None or walk[0] != _structure:
            walk, stack = (_structure, []), list(reversed(self._modules.items()))
            while stack:
                path, module = stack.pop()
                walk[1].append((path, module))
                stack += reversed([(f"{path}.{name}", child)
                                   for name, child in module._modules.items()])
            self.__dict__["_walk"] = walk
        return [("", self), *walk[1]]

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        return [(f"{mod_name}.{name}" if mod_name else name, param)
                for mod_name, module in self.named_modules()
                for name, param in module._parameters.items()]

    def parameters(self) -> list[Parameter]:
        return [param for _, module in self.named_modules()
                for param in module._parameters.values()]

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return [(f"{mod_name}.{name}" if mod_name else name, buf)
                for mod_name, module in self.named_modules()
                for name, buf in module._buffers.items()]

    # ------------------------------------------------------------------
    # State: one flat vector, and the dict boundary
    # ------------------------------------------------------------------
    def named_state(self) -> list[tuple[str, np.ndarray]]:
        """Every parameter's array, then every buffer, by dotted path."""
        return ([(name, p.data) for name, p in self.named_parameters()]
                + self.named_buffers())

    def state_layout(self) -> Layout:
        return Layout.of([(name, array.shape)
                          for name, array in self.named_state()],
                         params=len(self.named_parameters()))

    def bind_state(self) -> tuple[np.ndarray, Layout]:
        """Copy every parameter and buffer into one float32 buffer laid out
        by :meth:`state_layout` and rebind each to its view (buffers in
        ``_buffers`` and as attributes; batch norm updates them in place)."""
        layout, params = self.state_layout(), self.parameters()
        buffers = [(module, leaf) for _, module in self.named_modules()
                   for leaf in module._buffers]
        arrays = ([p.data for p in params]
                  + [module._buffers[leaf] for module, leaf in buffers])
        if any(array.dtype != np.float32 for array in arrays):
            raise TypeError("every state entry must be float32")

        def bind(i, view):
            if i < len(params):
                params[i].data = view
            else:
                module, leaf = buffers[i - len(params)]
                module._buffers[leaf] = view
                object.__setattr__(module, leaf, view)

        return _rebind(arrays, np.float32, bind), layout

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter and buffer, keyed by dotted path."""
        return {name: array.copy() for name, array in self.named_state()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays into parameters/buffers (key- and shape-checked, in
        place)."""
        own = dict(self.named_state())
        missing = [name for name in own if name not in state]
        if missing:
            raise KeyError(f"missing keys in state dict: {missing[:5]}...")
        extra = set(state) - set(own)
        if extra:
            raise KeyError(f"unexpected keys in state dict: {sorted(extra)[:5]}...")
        for name, array in own.items():
            value = np.asarray(state[name], dtype=array.dtype)
            if value.shape != array.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': "
                    f"model {array.shape} vs state {value.shape}")
            array[...] = value

    def state_scale_axes(self) -> dict[str, tuple[int, ...]]:
        """Width-scaled axes of *every* state entry (parameters and buffers;
        see :attr:`Parameter.scale_axes`)."""
        axes = {name: p.scale_axes for name, p in self.named_parameters()}
        for mod_name, module in self.named_modules():
            for leaf, leaf_axes in module._buffer_scale_axes.items():
                axes[f"{mod_name}.{leaf}" if mod_name else leaf] = leaf_axes
        return axes

    # ------------------------------------------------------------------
    # Mode / gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for _, module in self.named_modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

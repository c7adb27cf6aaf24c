"""Module system: named parameters, buffers, state dicts, train/eval mode.

The federated algorithms in :mod:`repro.algorithms` operate on *state dicts*
(``name -> numpy array``); the naming contract here (dotted paths through the
module tree) is what makes sub-model extraction and aggregation possible.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor

__all__ = ["Parameter", "Module"]

#: bumped by every child-module assignment; a walk stored before it is stale.
_structure = 0


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
    # State dict
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter and buffer, keyed by dotted path."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray],
                        strict: bool = True) -> None:
        """Load arrays into parameters/buffers (shape-checked, in place)."""
        own_params = dict(self.named_parameters())
        own_buffers = {name: (mod, leaf)
                       for mod_name, mod in self.named_modules()
                       for leaf in mod._buffers
                       for name in [f"{mod_name}.{leaf}" if mod_name else leaf]}
        missing = []
        for name, param in own_params.items():
            if name not in state:
                missing.append(name)
                continue
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': "
                    f"model {param.data.shape} vs state {value.shape}")
            param.data[...] = value
        for name, (mod, leaf) in own_buffers.items():
            if name not in state:
                missing.append(name)
                continue
            buf = mod._buffers[leaf]
            value = np.asarray(state[name], dtype=buf.dtype)
            if value.shape != buf.shape:
                raise ValueError(
                    f"shape mismatch for buffer '{name}': "
                    f"model {buf.shape} vs state {value.shape}")
            buf[...] = value
        if strict:
            if missing:
                raise KeyError(f"missing keys in state dict: {missing[:5]}...")
            extra = set(state) - set(own_params) - set(own_buffers)
            if extra:
                raise KeyError(f"unexpected keys in state dict: {sorted(extra)[:5]}...")

    def parameter_scale_axes(self) -> dict[str, tuple[int, ...]]:
        """Map parameter name -> width-scaled axes (see :class:`Parameter`)."""
        return {name: p.scale_axes for name, p in self.named_parameters()}

    def state_scale_axes(self) -> dict[str, tuple[int, ...]]:
        """Scale axes for *every* state-dict entry (parameters and buffers)."""
        axes = self.parameter_scale_axes()
        for mod_name, module in self.named_modules():
            for leaf, leaf_axes in module._buffer_scale_axes.items():
                full = f"{mod_name}.{leaf}" if mod_name else leaf
                axes[full] = leaf_axes
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

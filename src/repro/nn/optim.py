"""Optimisers: SGD (momentum + weight decay) and Adam, over one flat buffer.

The FL clients build a fresh optimiser per round (federated convention) over
every parameter of a model whose state :meth:`~repro.nn.Module.bind_state`
already packed, so construction *adopts* the parameters' stretch of that
buffer (:func:`~repro.nn.module.flat_parameters`); a parameter list that is
not such a run is copied into a new buffer once and rebound to its views,
after which it is one.  Writes elsewhere go in place, so the views survive.
A step is then a few whole-buffer ufuncs instead of a dozen numpy calls per
parameter:

* the present gradients are gathered with one ``np.concatenate(out=)`` per
  *run*, a maximal stretch of consecutive parameters whose ``.grad`` is set.
  A parameter without a gradient is skipped as the per-parameter loop
  skipped it: its value and its optimiser state are untouched;
* each run gets that loop's ufuncs in the same order, every temporary
  written into the gathered gradients or one scratch buffer.  Elementwise
  IEEE arithmetic does not depend on layout, so the result is bit-identical;
* the global norm squares a run into the scratch buffer and reduces each
  parameter's slice on its own, in parameter order, which is
  ``(g * g).sum()`` for a C-contiguous gradient (``np.add.reduceat`` sums
  sequentially and is not).

The parameters' own ``.grad`` arrays are read, never written.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .module import Parameter, flat_parameters

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimiser over an explicit parameter list of one dtype."""

    def __init__(self, params: Sequence[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        dtypes = {param.data.dtype for param in self.params}
        if len(dtypes) > 1:
            raise TypeError("optimiser parameters must share one dtype, got "
                            + ", ".join(sorted(map(str, dtypes))))
        if len({id(param) for param in self.params}) != len(self.params):
            raise ValueError("a parameter is listed twice")
        #: element offset of every parameter in the flat buffers, then the end.
        self._bounds = [0]
        for param in self.params:
            self._bounds.append(self._bounds[-1] + param.data.size)
        self._flat = flat_parameters(self.params,
                                     dtypes.pop() if dtypes else np.float32)
        self._grad = np.empty_like(self._flat)
        self._scratch = np.empty_like(self._flat)

    def zero_grad(self) -> None:
        for param in self.params:
            param.grad = None

    def step(self) -> None:
        raise NotImplementedError

    def _gather(self, max_norm: float | None) -> list[slice]:
        """Copy the present gradients into ``_grad``, scale them to a global
        L2 norm of at most ``max_norm`` (``None``: no clipping) and return
        each run's slice of the flat buffers."""
        runs: list[tuple[int, list[np.ndarray]]] = []
        for index, param in enumerate(self.params):
            if param.grad is not None:
                if runs and runs[-1][0] + len(runs[-1][1]) == index:
                    runs[-1][1].append(param.grad)
                else:
                    runs.append((index, [param.grad]))
        bounds, grad, scratch = self._bounds, self._grad, self._scratch
        spans, total = [], 0.0
        for first, grads in runs:
            stop = first + len(grads)
            span = slice(bounds[first], bounds[stop])
            spans.append(span)
            np.concatenate(grads, axis=None, out=grad[span])
            if max_norm is not None:
                np.multiply(grad[span], grad[span], out=scratch[span])
                for start, end in zip(bounds[first:stop],
                                      bounds[first + 1:stop + 1]):
                    total += float(np.add.reduce(scratch[start:end]))
        if max_norm is None:
            return spans
        norm = float(np.sqrt(total))
        if norm > max_norm:
            scale = max_norm / (norm + 1e-12)
            for span in spans:
                grad[span] *= scale
        return spans


class SGD(Optimizer):
    """Stochastic gradient descent with momentum and decoupled weight decay."""

    def __init__(self, params: Sequence[Parameter], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0,
                 max_grad_norm: float | None = 10.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        self._velocity = np.zeros_like(self._flat)

    def step(self) -> None:
        for span in self._gather(self.max_grad_norm):
            grad, data = self._grad[span], self._flat[span]
            scratch = self._scratch[span]
            if self.weight_decay:
                np.multiply(data, self.weight_decay, out=scratch)
                grad += scratch
            if self.momentum:
                velocity = self._velocity[span]
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            np.multiply(grad, self.lr, out=scratch)
            data -= scratch


class Adam(Optimizer):
    """Adam with bias correction (used for the transformer models)."""

    def __init__(self, params: Sequence[Parameter], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0,
                 max_grad_norm: float | None = 10.0):
        super().__init__(params, lr)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._t = 0

    def step(self) -> None:
        spans = self._gather(self.max_grad_norm)
        self._t += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1 ** self._t
        bias2 = 1.0 - beta2 ** self._t
        for span in spans:
            grad, data = self._grad[span], self._flat[span]
            scratch, m, v = self._scratch[span], self._m[span], self._v[span]
            if self.weight_decay:
                np.multiply(data, self.weight_decay, out=scratch)
                grad += scratch
            m *= beta1
            np.multiply(grad, 1.0 - beta1, out=scratch)
            m += scratch
            v *= beta2
            np.multiply(grad, 1.0 - beta2, out=scratch)
            scratch *= grad
            v += scratch
            np.divide(m, bias1, out=scratch)        # m_hat
            scratch *= self.lr
            np.divide(v, bias2, out=grad)           # v_hat
            np.sqrt(grad, out=grad)
            grad += self.eps
            scratch /= grad
            data -= scratch

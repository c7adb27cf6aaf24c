"""Client-side local training.

One generic local-training loop serves every algorithm: algorithms customise
behaviour through the ``loss_fn`` hook (e.g. DepthFL's multi-head
self-distillation, FedProto's prototype regulariser) and by freezing
parameters before calling in (FeDepth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .. import autograd as ag
from .. import nn
from ..data.dataset import batches
from ..models.base import SliceableModel

__all__ = ["LocalTrainConfig", "train_local", "make_optimizer"]

LossFn = Callable[[SliceableModel, np.ndarray, np.ndarray], "ag.Tensor"]


@dataclass(frozen=True)
class LocalTrainConfig:
    """Hyper-parameters of one client's local round."""

    batch_size: int = 16
    local_epochs: int = 1
    optimizer: str = "auto"          # "sgd" | "adam" | "auto" (by modality)
    lr: float | None = None          # None -> per-optimizer default
    momentum: float = 0.9
    weight_decay: float = 0.0
    #: cap on minibatches per round — keeps CPU simulation tractable while
    #: the *simulated clock* still charges for the full nominal epoch.
    max_batches: int | None = None

    def __post_init__(self):
        # A non-positive batch size or epoch count would train nothing (or
        # fail inside the first round); max_batches=0 is a legal "off".
        for name, least in (("batch_size", 1), ("local_epochs", 1),
                            ("max_batches", 0)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"LocalTrainConfig.{name} must be >= {least}, "
                                 f"got {value}")
        # Inline, not check_range: every client round resolves a config,
        # and a step's python calls are a counted ledger metric.
        for name, ok, interval in (
                ("lr", self.lr is None or 0 < self.lr < math.inf, "(0, inf)"),
                ("momentum", 0 <= self.momentum < 1, "[0, 1)"),
                ("weight_decay", 0 <= self.weight_decay < math.inf,
                 "[0, inf)")):
            if not ok:
                raise ValueError(f"LocalTrainConfig.{name} must be in "
                                 f"{interval}, got {getattr(self, name)!r}")

    def resolve(self, model: SliceableModel) -> "LocalTrainConfig":
        """Fill 'auto' fields from the model's modality."""
        optimizer = self.optimizer
        if optimizer == "auto":
            optimizer = "adam" if model.pool_kind == "sequence" else "sgd"
        lr = self.lr
        if lr is None:
            lr = 2e-3 if optimizer == "adam" else 0.05
        return replace(self, optimizer=optimizer, lr=lr)


def make_optimizer(model: SliceableModel,
                   config: LocalTrainConfig) -> nn.Optimizer:
    """Build the optimiser over *every* parameter, so it adopts a bound
    model's buffer; a frozen parameter (FeDepth) gets no gradient, and the
    step leaves a parameter without one, and its moments, untouched."""
    params = model.parameters()
    if config.optimizer == "sgd":
        return nn.SGD(params, lr=config.lr, momentum=config.momentum,
                      weight_decay=config.weight_decay)
    if config.optimizer == "adam":
        return nn.Adam(params, lr=config.lr,
                       weight_decay=config.weight_decay)
    raise ValueError(f"unknown optimizer {config.optimizer!r}")


def train_local(model: SliceableModel, x: np.ndarray, y: np.ndarray,
                config: LocalTrainConfig, rng: np.random.Generator,
                loss_fn: LossFn | None = None) -> float:
    """Run one client's local round in place; returns the mean train loss.

    A step is ``zero_grad -> loss -> backward -> step`` with nothing
    around it: scratch buffers are left to the allocator, and ``loss`` is
    dropped once its value is read, so its tape is freed by refcount
    before the next forward runs — one tape is alive at a time.
    """
    config = config.resolve(model)
    optimizer = make_optimizer(model, config)
    if loss_fn is None:
        loss_fn = lambda m, xb, yb: ag.cross_entropy(m(xb), yb)  # noqa: E731

    model.train()
    losses: list[float] = []
    for _ in range(config.local_epochs):
        used = 0
        for xb, yb in batches(x, y, config.batch_size, rng):
            if config.max_batches is not None and used >= config.max_batches:
                break
            optimizer.zero_grad()
            loss = loss_fn(model, xb, yb)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
            del loss
            used += 1
    return float(np.mean(losses)) if losses else 0.0

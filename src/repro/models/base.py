"""Base classes for the sliceable model zoo.

Every architecture in PracMHBench is built as a *staged classifier*:

``stem -> stage_0 -> stage_1 -> ... -> stage_{S-1}`` with a classifier head
attachable at every stage boundary.  This single structure supports all three
heterogeneity levels of the paper:

* **width** — the same stages built at a channel multiplier; parameters map
  back to the global model through per-axis index maps (see
  :mod:`repro.models.slicing`);
* **depth** — a variant keeps only the first ``k`` stages plus head(s);
  parameter names are a subset of the global model's names, so alignment for
  aggregation is purely name-based;
* **topology** — different `SliceableModel` subclasses entirely; alignment
  happens in representation space (prototypes / logits), not parameters.

Head modes:

* ``"deepest"`` — one classifier at the last owned stage (Fjord/SHeteroFL/
  FedRolex/FeDepth/InclusiveFL and all homogeneous baselines);
* ``"all"`` — a classifier at *every* owned stage boundary (DepthFL's
  auxiliary classifiers).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import autograd as ag
from ..autograd import Tensor
from .. import nn

__all__ = ["IndexedModules", "SliceableModel", "scaled_channels",
           "depth_overrides", "depth_variant_of"]


def scaled_channels(base: int, multiplier: float, divisor: int = 1) -> int:
    """Width-scale a channel count, keeping it positive and divisible.

    The same rounding is used when building the global model and every
    sub-model, which keeps producer/consumer channel counts consistent (the
    invariant the generic index maps rely on).
    """
    value = int(round(base * multiplier + 1e-8))
    value = max(divisor, value)
    if divisor > 1:
        value = int(np.ceil(value / divisor)) * divisor
    return value


class IndexedModules(nn.Module):
    """Sparse container registering children under explicit integer names.

    Used for heads: a depth variant that owns only stage 3's head must still
    name it ``heads.3`` so it aggregates against the global model.
    """

    def __init__(self):
        super().__init__()
        self._indices: list[int] = []

    def add(self, index: int, module: nn.Module) -> None:
        setattr(self, str(index), module)
        self._indices.append(index)

    def get(self, index: int) -> nn.Module:
        return self._modules[str(index)]

    @property
    def indices(self) -> list[int]:
        return list(self._indices)

    def forward(self, *args, **kwargs):
        raise RuntimeError("IndexedModules is a container; call its children")


class SliceableModel(nn.Module):
    """Staged classifier with width / depth variant construction.

    Subclasses must, in ``__init__``:

    1. call ``super().__init__()`` then ``self._record_build_kwargs(...)``
       with every constructor argument (so :meth:`variant` can rebuild);
    2. populate ``self.stem``, ``self.stages`` (a ``ModuleList`` whose i-th
       entry is global stage ``i``), and ``self.heads`` (an
       :class:`IndexedModules`);
    3. set ``self.total_stages`` (global stage count), ``self.width_mult``
       and ``self.head_mode``.

    The input convention is a plain numpy array (float images / int tokens);
    the stem converts it into a :class:`Tensor`.
    """

    #: human-readable architecture family, e.g. ``"resnet"``.
    family: str = "generic"
    #: which pooling the default head pathway applies ("image" | "sequence").
    pool_kind: str = "image"

    def __init__(self):
        super().__init__()
        self._build_kwargs: dict = {}
        self.total_stages: int = 0
        self.width_mult: float = 1.0
        self.head_mode: str = "deepest"

    # ------------------------------------------------------------------
    # Variant construction
    # ------------------------------------------------------------------
    def _record_build_kwargs(self, **kwargs) -> None:
        self._build_kwargs = dict(kwargs)

    def variant(self, **overrides) -> "SliceableModel":
        """Rebuild this architecture with overridden structural arguments.

        Typical calls: ``variant(width_mult=0.5)``,
        ``variant(num_stages=2, head_mode="all")``.
        """
        kwargs = dict(self._build_kwargs)
        kwargs.update(overrides)
        return type(self)(**kwargs)

    # ------------------------------------------------------------------
    # Stage plumbing
    # ------------------------------------------------------------------
    @property
    def num_owned_stages(self) -> int:
        return len(self.stages)

    @property
    def top_stage_index(self) -> int:
        return self.num_owned_stages - 1

    def pool(self, h: Tensor) -> Tensor:
        """Collapse a stage output into a (N, D) representation."""
        if self.pool_kind == "image":
            return ag.global_avg_pool2d(h)
        if self.pool_kind == "sequence":
            return h.mean(axis=1)
        raise ValueError(f"unknown pool kind {self.pool_kind!r}")

    def _run_stages(self, x) -> list[Tensor]:
        """Run stem + stages, returning every stage's output."""
        h = self.stem(x)
        outputs = []
        for stage in self.stages:
            h = stage(h)
            outputs.append(h)
        return outputs

    # ------------------------------------------------------------------
    # Forward protocols
    # ------------------------------------------------------------------
    def forward(self, x) -> Tensor:
        """Logits from the deepest owned head."""
        outputs = self._run_stages(x)
        head = self.heads.get(self.top_stage_index)
        return head(self.pool(outputs[-1]))

    def forward_all_heads(self, x) -> list[tuple[int, Tensor]]:
        """(stage index, logits) for every owned head (DepthFL pathway)."""
        outputs = self._run_stages(x)
        results = []
        for index in self.heads.indices:
            head = self.heads.get(index)
            results.append((index, head(self.pool(outputs[index]))))
        return results

    def features(self, x) -> Tensor:
        """Pooled penultimate representation (FedProto pathway)."""
        outputs = self._run_stages(x)
        return self.pool(outputs[-1])

    @property
    def feature_dim(self) -> int:
        """Dimension of :meth:`features` output."""
        head = self.heads.get(self.top_stage_index)
        return head.in_features

    # ------------------------------------------------------------------
    # Partial-freezing support (FeDepth)
    # ------------------------------------------------------------------
    def set_trainable_stages(self, stage_indices: Sequence[int],
                             train_stem: bool = True,
                             train_heads: bool = True) -> None:
        """Freeze every stage outside ``stage_indices``.

        FeDepth fits training into a memory budget by updating only a
        sliding segment of blocks; frozen parameters keep their values and
        receive no gradient.
        """
        wanted = set(stage_indices)
        for param in self.stem.parameters():
            param.requires_grad = train_stem
        for index, stage in enumerate(self.stages):
            flag = index in wanted
            for param in stage.parameters():
                param.requires_grad = flag
        for head_index in self.heads.indices:
            for param in self.heads.get(head_index).parameters():
                param.requires_grad = train_heads

    def trainable_parameters(self) -> list[nn.Parameter]:
        return [p for p in self.parameters() if p.requires_grad]


def depth_overrides(model: "SliceableModel", frac: float,
                    head_mode: str = "deepest") -> dict:
    """Constructor overrides for the depth variant at a nominal fraction of
    the original depth.

    Architectures with uniform-width stages (ResNet) support block-level
    prefix pruning (``depth_frac``), which matches how DepthFL-style methods
    cut "the bottom x% of the layers"; other architectures quantise to whole
    stages.
    """
    if not 0.0 < frac <= 1.0:
        raise ValueError(f"depth fraction must be in (0, 1], got {frac}")
    if "depth_frac" in model._build_kwargs:
        return {"depth_frac": frac, "num_stages": None, "head_mode": head_mode}
    stages = max(1, int(round(frac * model.total_stages)))
    return {"num_stages": stages, "head_mode": head_mode}


def depth_variant_of(model: "SliceableModel", frac: float,
                     head_mode: str = "deepest") -> "SliceableModel":
    """Build the depth variant :func:`depth_overrides` describes."""
    return model.variant(**depth_overrides(model, frac, head_mode))

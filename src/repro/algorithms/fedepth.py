"""FeDepth (Zhang et al., 2023): memory-adaptive depth-wise training.

Every client holds the *full* network but fine-tunes only a contiguous
segment of stages per round (plus the classifier head), sized so the
optimiser state and segment activations fit the client's memory; the segment
slides across rounds so all blocks are eventually trained.  Clients upload
only the segment they trained.

This gives FeDepth its signature profile from Table I: computation cost stays
close to the full model (the forward always runs end to end) while training
memory is low — which is why the paper finds it weak under the computation
constraint but strong under the memory constraint.
"""

from __future__ import annotations

import numpy as np

from ..hw.flops import measure_model
from ..hw.model_pool import ModelPool, PoolEntry
from ..models.base import SliceableModel
from ..nn.module import Layout
from .base import ClientContext, ParameterAveragingAlgorithm

__all__ = ["FeDepth"]


def _segment_size(key: str) -> int:
    if not key.startswith("seg"):
        raise ValueError(f"not a FeDepth pool key: {key!r}")
    return int(key[3:])


class FeDepth(ParameterAveragingAlgorithm):
    """Full model, sliding trainable stage segment."""

    name = "fedepth"
    level = "depth"

    @classmethod
    def variant_space(cls, base_model: SliceableModel) -> dict[str, dict]:
        # All levels share the full architecture; the capacity level is the
        # number of simultaneously-trainable stages (encoded in the key).
        return {f"seg{n}": {} for n in range(1, base_model.total_stages + 1)}

    @classmethod
    def build_pool(cls, base_model: SliceableModel) -> ModelPool:
        """Measure each segment size with the complement frozen."""
        total = base_model.total_stages
        entries = []
        for key in cls.variant_space(base_model):
            segment = _segment_size(key)
            probe = base_model.variant()
            probe.set_trainable_stages(range(total - segment, total),
                                       train_stem=(segment == total))
            stats = measure_model(probe)
            entries.append(PoolEntry(key=key, proportion=segment / total,
                                     overrides={}, stats=stats,
                                     layout=probe.state_layout()))
        return ModelPool(base_model, entries)

    # ------------------------------------------------------------------
    def _segment_stages(self, ctx: ClientContext, round_index: int) -> range:
        total = self.base_model.total_stages
        segment = min(_segment_size(ctx.entry.key), total)
        positions = total - segment + 1
        start = (round_index + ctx.client_id) % positions
        return range(start, start + segment)

    def prepare_client_model(self, model: SliceableModel, ctx: ClientContext,
                             round_index: int) -> None:
        stages = self._segment_stages(ctx, round_index)
        model.set_trainable_stages(stages, train_stem=(stages.start == 0))

    def upload_segment(self, ctx: ClientContext, round_index: int):
        stages = self._segment_stages(ctx, round_index)
        return stages.start, stages.stop

    def upload_names(self, layout: Layout, segment) -> set[str]:
        """Upload only the trained segment (params + its BN buffers + heads):
        the parameters :meth:`prepare_client_model` leaves trainable."""
        start, stop = segment

        def trains(name: str) -> bool:
            if name.startswith("stem."):
                return start == 0
            if name.startswith("stages."):
                return start <= int(name.split(".")[1]) < stop
            return True

        trainable = {name for name in layout.names[:layout.params]
                     if trains(name)}
        stage_prefixes = tuple({f"stages.{name.split('.')[1]}."
                                for name in trainable
                                if name.startswith("stages.")})
        trains_stem = any(name.startswith("stem.") for name in trainable)
        keep = set(trainable)
        for name in layout.names:
            if stage_prefixes and name.startswith(stage_prefixes):
                keep.add(name)                      # BN buffers of the segment
            if name.startswith("heads."):
                keep.add(name)
            if trains_stem and name.startswith("stem."):
                keep.add(name)
        return keep

    def client_payload_bytes(self, ctx: ClientContext) -> tuple[float, float]:
        # Download the full model, upload only the trained segment.
        return (ctx.entry.stats.param_bytes,
                ctx.entry.stats.trainable_param_bytes)

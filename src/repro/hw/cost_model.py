"""Analytic cost models: training time, communication time, training memory.

These translate :class:`~repro.hw.flops.ModelStats` into the three resources
the paper's constraint cases equalise:

* **training time** (computation-limited) — backward costs ~2x forward, so a
  training step is ~3x forward FLOPs, divided by the device's sustained
  training throughput, plus a fixed per-round overhead;
* **communication time** (communication-limited) — parameter payload over
  the device's uplink + downlink (both directions happen every round in
  synchronous FL);
* **training memory** (memory-limited) — weights + gradients + optimiser
  state for the trainable parameters, plus live activations for a batch
  (with a backward workspace factor), plus a fixed framework residency.

The backward/workspace constants follow the usual rules of thumb and were
sanity-checked against Table I's measured pattern: at the same x0.5
proportion, a depth-pruned model (DepthFL) costs far more memory than a
width-sliced model (SHeteroFL) because it keeps the full-resolution early
stages — exactly what the estimator reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import DeviceProfile
from .flops import ModelStats

__all__ = ["CostModel", "DEFAULT_COST_MODEL"]


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the analytic cost model."""

    #: training-step FLOPs as a multiple of forward FLOPs (fwd + bwd).
    train_flops_factor: float = 3.0
    #: activation bytes multiplier for backward workspace / fragmentation.
    activation_factor: float = 2.0
    #: bytes of weights+grads+optimiser state per trainable parameter byte
    #: (SGD momentum: weights + grads + velocity).
    optimizer_state_factor: float = 3.0
    #: fixed framework residency (allocator pools, kernels), bytes.
    framework_overhead_bytes: float = 96e6

    # ------------------------------------------------------------------
    def training_time_s(self, stats: ModelStats, device: DeviceProfile,
                        num_samples: int, local_epochs: int = 1) -> float:
        """Wall-clock seconds for one local training round."""
        step_flops = stats.flops_per_sample * self.train_flops_factor
        total = step_flops * num_samples * local_epochs
        return total / device.effective_train_flops + device.round_overhead_s

    def communication_time_s(self, stats: ModelStats,
                             device: DeviceProfile) -> float:
        """Seconds to download + upload one round's parameter payload."""
        payload = stats.param_bytes
        return payload / device.downlink_bps + payload / device.uplink_bps

    def training_memory_bytes(self, stats: ModelStats,
                              batch_size: int = 8) -> float:
        """Peak training-process memory for one local step."""
        weights = stats.param_bytes
        optimizer = stats.trainable_param_bytes * self.optimizer_state_factor
        activations = (stats.activation_bytes_per_sample * batch_size
                       * self.activation_factor)
        return weights + optimizer + activations + self.framework_overhead_bytes


DEFAULT_COST_MODEL = CostModel()

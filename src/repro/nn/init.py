"""Weight initialisers (explicit RNG for deterministic construction)."""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_uniform", "normal", "zeros", "ones"]


def kaiming_uniform(shape: tuple[int, ...], fan_in: int,
                    rng: np.random.Generator) -> np.ndarray:
    """He-uniform init used for conv / linear weights feeding ReLU."""
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def normal(shape: tuple[int, ...], std: float,
           rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal(size=shape) * std).astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)

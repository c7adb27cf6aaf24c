"""Synthetic CIFAR-10 / CIFAR-100 stand-ins.

No network access is available in this reproduction, so we generate image
classification tasks with the *structural* properties the benchmark needs:

* class-conditional signal a small CNN can learn (smooth per-class texture
  prototypes at CIFAR-like channel statistics);
* CIFAR-100's coarse/fine hierarchy (class prototypes share a superclass
  component), which makes the 100-way task measurably harder than the
  10-way task — preserving the relative difficulty the paper relies on;
* enough intra-class variation (per-sample distortion + noise) that models
  do not saturate instantly and algorithm differences stay visible.
"""

from __future__ import annotations

import numpy as np

from .dataset import FederatedDataset

__all__ = ["make_cifar10_like", "make_cifar100_like", "IMAGE_SHAPE"]

#: (channels, height, width) of the synthetic CIFAR stand-ins.
IMAGE_SHAPE = (3, 16, 16)


def _smooth_fields(rng: np.random.Generator, count: int, channels: int,
                   size: int, coarse: int = 4) -> np.ndarray:
    """``count`` low-frequency random textures: coarse grids upsampled to
    size x size.

    One draw for all of them consumes ``rng`` exactly as ``count``
    per-texture draws would, and ``repeat`` on both spatial axes is
    ``np.kron`` with a block of ones, so a batch is bit-identical to
    textures made one at a time.
    """
    grids = rng.standard_normal((count, channels, coarse, coarse))
    return grids.repeat(size // coarse, axis=2).repeat(size // coarse, axis=3)


def _generate_images(rng: np.random.Generator, prototypes: np.ndarray,
                     labels: np.ndarray, noise: float,
                     distortion: float) -> np.ndarray:
    """Render samples: prototype + per-sample smooth distortion + noise."""
    channels, size = prototypes.shape[1], prototypes.shape[2]
    images = prototypes[labels] + distortion * _smooth_fields(
        rng, len(labels), channels, size)
    images += noise * rng.standard_normal(images.shape)
    return images.astype(np.float32)


def _make_image_task(name: str, num_classes: int, train_per_class: int,
                     test_per_class: int, seed: int,
                     num_superclasses: int | None,
                     paper_num_clients: int, noise: float = 0.8,
                     distortion: float = 0.5) -> FederatedDataset:
    rng = np.random.default_rng(seed)
    channels, size = IMAGE_SHAPE[0], IMAGE_SHAPE[1]

    if num_superclasses:
        # CIFAR-100-like hierarchy: prototype = superclass base + fine delta.
        supers = _smooth_fields(rng, num_superclasses, channels, size)
        prototypes = (supers[np.arange(num_classes) % num_superclasses]
                      + 0.6 * _smooth_fields(rng, num_classes, channels, size))
    else:
        prototypes = 1.2 * _smooth_fields(rng, num_classes, channels, size)

    y_train = np.repeat(np.arange(num_classes), train_per_class)
    y_test = np.repeat(np.arange(num_classes), test_per_class)
    rng.shuffle(y_train)
    rng.shuffle(y_test)
    x_train = _generate_images(rng, prototypes, y_train,
                               noise=noise, distortion=distortion)
    x_test = _generate_images(rng, prototypes, y_test,
                              noise=noise, distortion=distortion)
    return FederatedDataset(
        name=name, modality="image",
        x_train=x_train, y_train=y_train.astype(np.int64),
        x_test=x_test, y_test=y_test.astype(np.int64),
        num_classes=num_classes, user_ids=None,
        paper_num_clients=paper_num_clients,
        info={"input_shape": IMAGE_SHAPE})


def make_cifar10_like(train_per_class: int = 200, test_per_class: int = 50,
                      seed: int = 0) -> FederatedDataset:
    """10-way image task (paper setting: 100 clients, IID partition)."""
    return _make_image_task("cifar10", 10, train_per_class, test_per_class,
                            seed=seed + 10, num_superclasses=None,
                            paper_num_clients=100, noise=1.4, distortion=0.8)


def make_cifar100_like(train_per_class: int = 20, test_per_class: int = 5,
                       seed: int = 0) -> FederatedDataset:
    """100-way image task with a 20-superclass hierarchy (100 clients, IID)."""
    return _make_image_task("cifar100", 100, train_per_class, test_per_class,
                            seed=seed + 100, num_superclasses=20,
                            paper_num_clients=100)

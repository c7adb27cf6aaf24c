"""Dataset containers and batch iteration for the federated simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

__all__ = ["FederatedDataset", "Subset", "batches"]


@dataclass
class FederatedDataset:
    """A task: train/test arrays plus federation metadata.

    ``user_ids`` (parallel to the training arrays) is present for the
    naturally non-IID datasets (Stack Overflow, HAR-BOX, UCI-HAR), where the
    paper partitions by user; it is ``None`` for the IID-partitioned tasks.
    """

    name: str
    modality: str                       # "image" | "text" | "har"
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int
    user_ids: np.ndarray | None = None
    #: client count used in the paper's experiments (Section V).
    paper_num_clients: int = 100
    #: extra task metadata (vocab size for text, input shape, ...).
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.x_train) != len(self.y_train):
            raise ValueError("x_train / y_train length mismatch")
        if len(self.x_test) != len(self.y_test):
            raise ValueError("x_test / y_test length mismatch")
        if self.user_ids is not None and len(self.user_ids) != len(self.y_train):
            raise ValueError("user_ids must parallel the training arrays")

    @property
    def num_train(self) -> int:
        return len(self.y_train)

    @property
    def num_test(self) -> int:
        return len(self.y_test)

    def subset(self, indices: np.ndarray) -> "Subset":
        return Subset(self, np.asarray(indices))


@dataclass
class Subset:
    """A client's shard: a view of the parent dataset by index array."""

    parent: FederatedDataset
    indices: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def x(self) -> np.ndarray:
        return self.parent.x_train[self.indices]

    @property
    def y(self) -> np.ndarray:
        return self.parent.y_train[self.indices]


def batches(x: np.ndarray, y: np.ndarray, batch_size: int,
            rng: np.random.Generator | None = None,
            drop_last: bool = False) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (x, y) minibatches, shuffled when an RNG is given."""
    n = len(y)
    order = np.arange(n)
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        if drop_last and len(idx) < batch_size:
            return
        yield x[idx], y[idx]

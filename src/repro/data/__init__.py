"""Synthetic datasets + federated partitioners.

The six PracMHBench tasks are generated, not downloaded: each stand-in keeps
the input shape, class count and per-user structure the benchmark relies on
(see the ``synthetic_*`` modules).
"""

from .dataset import FederatedDataset, Subset, batches
from .partition import (iid_partition, dirichlet_partition, by_user_partition,
                        partition_dataset)
from .registry import load_dataset, DATASET_NAMES, DATASET_TRACKS
from .synthetic_images import make_cifar10_like, make_cifar100_like, IMAGE_SHAPE
from .synthetic_text import (make_agnews_like, make_stackoverflow_like,
                             VOCAB_SIZE, SEQ_LEN)
from .synthetic_har import make_ucihar_like, make_harbox_like

__all__ = [
    "FederatedDataset", "Subset", "batches",
    "iid_partition", "dirichlet_partition", "by_user_partition",
    "partition_dataset",
    "load_dataset", "DATASET_NAMES", "DATASET_TRACKS",
    "make_cifar10_like", "make_cifar100_like", "IMAGE_SHAPE",
    "make_agnews_like", "make_stackoverflow_like", "VOCAB_SIZE", "SEQ_LEN",
    "make_ucihar_like", "make_harbox_like",
]

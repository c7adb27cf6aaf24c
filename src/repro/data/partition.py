"""Federated partitioning: IID, Dirichlet non-IID, and natural by-user.

Matches Section V of the paper: CIFAR-10/100 and AG-News use IID partitions;
Stack Overflow, HAR-BOX and UCI-HAR partition over user ids (naturally
non-IID); Figure 8 additionally sweeps Dirichlet alpha in {0.5, 5}.
"""

from __future__ import annotations

import numpy as np

from .dataset import FederatedDataset

__all__ = ["iid_partition", "dirichlet_partition", "by_user_partition",
           "partition_dataset"]


def iid_partition(num_samples: int, num_clients: int,
                  rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffle and deal samples round-robin into equal shards."""
    if num_clients < 1:
        raise ValueError("need at least one client")
    order = rng.permutation(num_samples)
    return [np.sort(order[i::num_clients]) for i in range(num_clients)]


def dirichlet_partition(labels: np.ndarray, num_clients: int, alpha: float,
                        rng: np.random.Generator,
                        min_samples: int = 2) -> list[np.ndarray]:
    """Label-skewed partition: per-class Dirichlet(alpha) client shares.

    Small ``alpha`` concentrates each class on few clients (strong non-IID);
    large ``alpha`` approaches IID.  Re-draws until every client has at
    least ``min_samples`` samples (the convention of Li et al.'s non-IID
    benchmark, which the paper follows).

    When no draw in 100 qualifies (classes of a few samples floor every
    early client's share to zero, e.g. smoke-scale ``cifar100``) the last
    draw is repaired: each starved client, in index order, takes the last
    sample of the largest shard (lowest index on ties).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    labels = np.asarray(labels)
    if len(labels) < num_clients * min_samples:
        raise ValueError(
            f"cannot give {num_clients} clients >={min_samples} samples "
            f"each from {len(labels)} samples")
    num_classes = int(labels.max()) + 1
    for _attempt in range(100):
        shards: list[list[int]] = [[] for _ in range(num_clients)]
        for cls in range(num_classes):
            cls_idx = np.flatnonzero(labels == cls)
            rng.shuffle(cls_idx)
            shares = rng.dirichlet(np.full(num_clients, alpha))
            cuts = (np.cumsum(shares) * len(cls_idx)).astype(int)[:-1]
            for client, part in enumerate(np.split(cls_idx, cuts)):
                shards[client].extend(part.tolist())
        sizes = [len(s) for s in shards]
        if min(sizes) >= min_samples:
            return [np.sort(np.asarray(s)) for s in shards]
    for starved in shards:
        while len(starved) < min_samples:
            donor = max(shards, key=len)  # first (lowest-index) largest
            starved.append(donor.pop())
    return [np.sort(np.asarray(s)) for s in shards]


def by_user_partition(user_ids: np.ndarray,
                      num_clients: int | None = None) -> list[np.ndarray]:
    """Natural partition: one client per user id.

    When ``num_clients`` is smaller than the number of users, users are
    merged round-robin (several users per client); when larger, an error is
    raised (there is no natural way to split a user).
    """
    user_ids = np.asarray(user_ids)
    unique_users = np.unique(user_ids)
    if num_clients is None:
        num_clients = len(unique_users)
    if num_clients > len(unique_users):
        raise ValueError(
            f"cannot split {len(unique_users)} users into {num_clients} clients")
    shards: list[list[int]] = [[] for _ in range(num_clients)]
    for position, user in enumerate(unique_users):
        shards[position % num_clients].extend(
            np.flatnonzero(user_ids == user).tolist())
    return [np.sort(np.asarray(s)) for s in shards]


def partition_dataset(dataset: FederatedDataset, num_clients: int,
                      scheme: str = "auto", alpha: float = 0.5,
                      seed: int = 0) -> list[np.ndarray]:
    """Partition a dataset's training set into client index shards.

    ``scheme="auto"`` follows the paper: by-user when the dataset carries
    user ids, IID otherwise. Explicit schemes: ``"iid"``, ``"dirichlet"``,
    ``"by_user"``.
    """
    rng = np.random.default_rng(seed)
    if scheme == "auto":
        scheme = "by_user" if dataset.user_ids is not None else "iid"
    if scheme == "iid":
        return iid_partition(dataset.num_train, num_clients, rng)
    if scheme == "dirichlet":
        return dirichlet_partition(dataset.y_train, num_clients, alpha, rng)
    if scheme == "by_user":
        if dataset.user_ids is None:
            raise ValueError(f"{dataset.name} has no user ids")
        return by_user_partition(dataset.user_ids, num_clients)
    raise ValueError(f"unknown partition scheme {scheme!r}")

"""Tests for synthetic datasets and federated partitioners."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (load_dataset, DATASET_NAMES, DATASET_TRACKS,
                        iid_partition, dirichlet_partition, by_user_partition,
                        partition_dataset, batches, FederatedDataset)


SMALL_KW = {
    "cifar10": {"train_per_class": 20, "test_per_class": 5},
    "cifar100": {"train_per_class": 3, "test_per_class": 1},
    "agnews": {"train_size": 200, "test_size": 40},
    "stackoverflow": {"num_users": 20, "samples_per_user": 10, "test_size": 40},
    "harbox": {"num_users": 20, "samples_per_user": 8, "test_size": 40},
    "ucihar": {"num_users": 10, "samples_per_user": 10, "test_size": 40},
}


def _small(name, seed=0):
    return load_dataset(name, seed=seed, **SMALL_KW[name])


class TestDatasets:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_loads_and_shapes(self, name):
        ds = _small(name)
        assert ds.num_train > 0 and ds.num_test > 0
        assert ds.y_train.max() < ds.num_classes
        assert ds.y_test.max() < ds.num_classes
        assert ds.x_train.dtype in (np.float32, np.int64)

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_deterministic_given_seed(self, name):
        a, b = _small(name, seed=3), _small(name, seed=3)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_train, b.y_train)

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_seed_changes_data(self, name):
        a, b = _small(name, seed=1), _small(name, seed=2)
        assert not np.array_equal(a.x_train, b.x_train)

    @staticmethod
    def _image_task_reference(num_classes, train_per_class, test_per_class,
                              seed, num_superclasses, noise, distortion):
        """The image generator as it was: one ``np.kron`` per texture."""
        def smooth_field(rng, channels, size, coarse=4):
            grid = rng.standard_normal((channels, coarse, coarse))
            return np.kron(grid, np.ones((size // coarse, size // coarse)))

        def generate(rng, prototypes, labels):
            images = prototypes[labels].copy()
            for i in range(len(labels)):
                images[i] += distortion * smooth_field(rng, 3, 16)
            images += noise * rng.standard_normal(images.shape)
            return images.astype(np.float32)

        rng = np.random.default_rng(seed)
        if num_superclasses:
            supers = np.stack([smooth_field(rng, 3, 16)
                               for _ in range(num_superclasses)])
            prototypes = np.empty((num_classes, 3, 16, 16))
            for cls in range(num_classes):
                prototypes[cls] = (supers[cls % num_superclasses]
                                   + 0.6 * smooth_field(rng, 3, 16))
        else:
            prototypes = np.stack([1.2 * smooth_field(rng, 3, 16)
                                   for _ in range(num_classes)])
        y_train = np.repeat(np.arange(num_classes), train_per_class)
        y_test = np.repeat(np.arange(num_classes), test_per_class)
        rng.shuffle(y_train)
        rng.shuffle(y_test)
        x_train = generate(rng, prototypes, y_train)
        x_test = generate(rng, prototypes, y_test)
        return x_train, y_train.astype(np.int64), x_test, y_test.astype(np.int64)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("name", ["cifar10", "cifar100"])
    def test_batched_image_synthesis_is_bit_identical(self, name, seed):
        kw = SMALL_KW[name]
        reference = self._image_task_reference(
            *((10, kw["train_per_class"], kw["test_per_class"], seed + 10,
               None, 1.4, 0.8) if name == "cifar10" else
              (100, kw["train_per_class"], kw["test_per_class"], seed + 100,
               20, 0.8, 0.5)))
        ds = _small(name, seed=seed)
        for got, want in zip((ds.x_train, ds.y_train, ds.x_test, ds.y_test),
                             reference):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_natural_datasets_have_user_ids(self):
        for name in ("stackoverflow", "harbox", "ucihar"):
            assert _small(name).user_ids is not None
        for name in ("cifar10", "cifar100", "agnews"):
            assert _small(name).user_ids is None

    def test_tracks_cover_all_datasets(self):
        listed = sorted(n for names in DATASET_TRACKS.values() for n in names)
        assert listed == DATASET_NAMES

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            load_dataset("imagenet")

    def test_class_signal_exists(self):
        """Class-conditional means differ (the task is not pure noise)."""
        ds = load_dataset("cifar10", train_per_class=50, test_per_class=5)
        means = np.stack([ds.x_train[ds.y_train == c].mean(axis=0)
                          for c in range(3)])
        spread = np.abs(means[0] - means[1]).mean()
        assert spread > 0.1

    def test_stackoverflow_user_skew(self):
        """Per-user label distributions are skewed (natural non-IID)."""
        ds = _small("stackoverflow")
        entropies = []
        for user in np.unique(ds.user_ids):
            labels = ds.y_train[ds.user_ids == user]
            counts = np.bincount(labels, minlength=ds.num_classes)
            probs = counts / counts.sum()
            probs = probs[probs > 0]
            entropies.append(-(probs * np.log(probs)).sum())
        # Mean user entropy well below the uniform entropy.
        assert np.mean(entropies) < 0.8 * np.log(ds.num_classes)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            FederatedDataset(name="x", modality="image",
                             x_train=np.zeros((3, 1)), y_train=np.zeros(2),
                             x_test=np.zeros((1, 1)), y_test=np.zeros(1),
                             num_classes=2)

    def test_subset(self):
        ds = _small("cifar10")
        shard = ds.subset(np.arange(10))
        assert len(shard) == 10
        np.testing.assert_array_equal(shard.y, ds.y_train[:10])


class TestBatches:
    def test_covers_all_samples(self):
        x, y = np.arange(10)[:, None], np.arange(10)
        seen = [yb for _, yb in batches(x, y, 3)]
        assert sorted(np.concatenate(seen)) == list(range(10))

    def test_drop_last(self):
        x, y = np.arange(10)[:, None], np.arange(10)
        out = list(batches(x, y, 4, drop_last=True))
        assert all(len(yb) == 4 for _, yb in out)
        assert len(out) == 2

    def test_shuffled_when_rng_given(self):
        x, y = np.arange(100)[:, None], np.arange(100)
        rng = np.random.default_rng(0)
        first = next(iter(batches(x, y, 100, rng)))[1]
        assert not np.array_equal(first, y)


class TestPartitions:
    @given(n=st.integers(10, 300), k=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_iid_exactly_covers(self, n, k):
        rng = np.random.default_rng(0)
        shards = iid_partition(n, k, rng)
        merged = np.concatenate(shards)
        assert len(merged) == n
        assert len(np.unique(merged)) == n

    @given(alpha=st.sampled_from([0.1, 0.5, 5.0, 100.0]),
           k=st.integers(2, 8))
    @settings(max_examples=20, deadline=None)
    def test_dirichlet_exactly_covers(self, alpha, k):
        rng = np.random.default_rng(1)
        labels = np.repeat(np.arange(5), 40)
        shards = dirichlet_partition(labels, k, alpha, rng)
        merged = np.concatenate(shards)
        assert len(merged) == len(labels)
        assert len(np.unique(merged)) == len(labels)

    def test_dirichlet_skew_ordering(self):
        """Smaller alpha produces more label-skewed shards."""
        rng = np.random.default_rng(2)
        labels = np.repeat(np.arange(10), 100)

        def mean_entropy(alpha):
            shards = dirichlet_partition(labels, 10, alpha,
                                         np.random.default_rng(2))
            ents = []
            for shard in shards:
                counts = np.bincount(labels[shard], minlength=10)
                probs = counts[counts > 0] / counts.sum()
                ents.append(-(probs * np.log(probs)).sum())
            return np.mean(ents)

        assert mean_entropy(0.1) < mean_entropy(5.0) < mean_entropy(1000.0) + 1e-9

    @staticmethod
    def _dirichlet_reference(labels, num_clients, alpha, rng, min_samples=2):
        """The redraw loop as it was when exhaustion was an error."""
        num_classes = int(labels.max()) + 1
        for _attempt in range(100):
            shards = [[] for _ in range(num_clients)]
            for cls in range(num_classes):
                cls_idx = np.flatnonzero(labels == cls)
                rng.shuffle(cls_idx)
                shares = rng.dirichlet(np.full(num_clients, alpha))
                cuts = (np.cumsum(shares) * len(cls_idx)).astype(int)[:-1]
                for client, part in enumerate(np.split(cls_idx, cuts)):
                    shards[client].extend(part.tolist())
            if min(len(s) for s in shards) >= min_samples:
                return [np.sort(np.asarray(s)) for s in shards]
        return None

    @pytest.mark.parametrize("alpha,k,seed", [(0.5, 8, 0), (5.0, 4, 1),
                                              (0.1, 3, 2), (100.0, 8, 3)])
    def test_dirichlet_successful_draws_unchanged(self, alpha, k, seed):
        """Partitions that always succeeded: same shards, same rng use."""
        labels = np.repeat(np.arange(5), 40)
        old_rng, new_rng = (np.random.default_rng(seed) for _ in range(2))
        expected = self._dirichlet_reference(labels, k, alpha, old_rng)
        assert expected is not None
        shards = dirichlet_partition(labels, k, alpha, new_rng)
        assert all(np.array_equal(a, b) for a, b in zip(shards, expected))
        assert new_rng.bit_generator.state == old_rng.bit_generator.state

    def test_dirichlet_repairs_starved_clients(self):
        """Two samples per class floor every early client's share to zero
        (smoke-scale cifar100, fig8's niid-5 leg): no draw qualifies, so
        the last one is repaired instead of raising."""
        labels = np.repeat(np.arange(100), 2)
        assert self._dirichlet_reference(
            labels, 8, 5.0, np.random.default_rng(0)) is None
        shards = dirichlet_partition(labels, 8, 5.0, np.random.default_rng(0))
        assert min(len(s) for s in shards) >= 2
        assert np.array_equal(np.sort(np.concatenate(shards)),
                              np.arange(len(labels)))
        again = dirichlet_partition(labels, 8, 5.0, np.random.default_rng(0))
        assert all(np.array_equal(a, b) for a, b in zip(shards, again))

    def test_dirichlet_too_few_samples_names_the_sizes(self):
        with pytest.raises(ValueError, match="4 clients.*5 samples"):
            dirichlet_partition(np.zeros(5, int), 4, 1.0,
                                np.random.default_rng(0))

    def test_dirichlet_invalid_alpha(self):
        with pytest.raises(ValueError):
            dirichlet_partition(np.zeros(10, int), 2, 0.0,
                                np.random.default_rng(0))

    def test_by_user_groups_users(self):
        user_ids = np.array([0, 0, 1, 1, 2, 2])
        shards = by_user_partition(user_ids)
        assert len(shards) == 3
        for shard in shards:
            assert len(np.unique(user_ids[shard])) == 1

    def test_by_user_merges_when_fewer_clients(self):
        user_ids = np.repeat(np.arange(6), 2)
        shards = by_user_partition(user_ids, num_clients=3)
        assert len(shards) == 3
        assert sum(len(s) for s in shards) == len(user_ids)

    def test_by_user_cannot_split(self):
        with pytest.raises(ValueError):
            by_user_partition(np.array([0, 0, 1]), num_clients=5)

    def test_partition_dataset_auto(self):
        iid_ds = _small("cifar10")
        assert len(partition_dataset(iid_ds, 5)) == 5
        natural = _small("ucihar")
        shards = partition_dataset(natural, 10)
        assert len(shards) == 10

    def test_partition_dataset_unknown_scheme(self):
        with pytest.raises(ValueError):
            partition_dataset(_small("cifar10"), 5, scheme="magic")

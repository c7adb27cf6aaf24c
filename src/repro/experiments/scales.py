"""Experiment scale presets.

The paper runs 1000 rounds over 30–500 clients on GPU testbeds; this
reproduction runs the same code path at configurable scale:

* ``smoke`` — seconds; used by the test suite and pytest benchmarks;
* ``demo``  — minutes per (algorithm, dataset); used by the examples and
  the README's artifact commands;
* ``paper`` — the paper's client counts, sampling ratio and round budget
  (CPU-days; provided for completeness).

``max_batches`` caps the *computed* minibatches per client round; the
simulated clock still charges full nominal local training, so time-to-
accuracy keeps paper-like semantics at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

__all__ = ["ExperimentScale", "SCALES", "get_scale", "resolve_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    name: str
    num_clients: dict[str, int]
    dataset_kwargs: dict[str, dict]
    num_rounds: int
    sample_ratio: float
    eval_every: int
    batch_size: int
    local_epochs: int
    max_batches: int | None
    eval_max_samples: int

    def clients_for(self, dataset: str) -> int:
        return self.num_clients[dataset]

    def kwargs_for(self, dataset: str) -> dict:
        return dict(self.dataset_kwargs.get(dataset, {}))

    def with_overrides(self, **overrides) -> "ExperimentScale":
        """Copy of this scale with selected fields replaced.

        Unknown field names raise ``ValueError`` so declarative specs fail
        loudly instead of silently ignoring a typo'd override.
        """
        if not overrides:
            return self
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown scale override(s) {sorted(unknown)}; "
                             f"known fields: {sorted(known - {'name'})}")
        return replace(self, **overrides)


SCALES: dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke",
        num_clients={"cifar10": 8, "cifar100": 8, "agnews": 8,
                     "stackoverflow": 8, "harbox": 8, "ucihar": 8},
        dataset_kwargs={
            "cifar10": {"train_per_class": 16, "test_per_class": 6},
            "cifar100": {"train_per_class": 2, "test_per_class": 1},
            "agnews": {"train_size": 160, "test_size": 60},
            "stackoverflow": {"num_users": 8, "samples_per_user": 10,
                              "test_size": 60},
            "harbox": {"num_users": 8, "samples_per_user": 10, "test_size": 60},
            "ucihar": {"num_users": 8, "samples_per_user": 10, "test_size": 60},
        },
        num_rounds=4, sample_ratio=0.3, eval_every=2,
        batch_size=8, local_epochs=1, max_batches=2, eval_max_samples=60),
    "demo": ExperimentScale(
        name="demo",
        num_clients={"cifar10": 20, "cifar100": 20, "agnews": 16,
                     "stackoverflow": 30, "harbox": 30, "ucihar": 24},
        dataset_kwargs={
            "cifar10": {"train_per_class": 100, "test_per_class": 30},
            "cifar100": {"train_per_class": 12, "test_per_class": 3},
            "agnews": {"train_size": 1200, "test_size": 300},
            "stackoverflow": {"num_users": 30, "samples_per_user": 15,
                              "test_size": 300},
            "harbox": {"num_users": 30, "samples_per_user": 15,
                       "test_size": 300},
            "ucihar": {"num_users": 24, "samples_per_user": 18,
                       "test_size": 300},
        },
        num_rounds=40, sample_ratio=0.2, eval_every=5,
        batch_size=8, local_epochs=1, max_batches=4, eval_max_samples=300),
    "paper": ExperimentScale(
        name="paper",
        # Section V: 100 / 100 / 50 / 500 / 100 / 30 clients, 10% sampling,
        # 1000 rounds.
        num_clients={"cifar10": 100, "cifar100": 100, "agnews": 50,
                     "stackoverflow": 500, "harbox": 100, "ucihar": 30},
        dataset_kwargs={
            "cifar10": {"train_per_class": 500, "test_per_class": 100},
            "cifar100": {"train_per_class": 50, "test_per_class": 10},
            "agnews": {"train_size": 8000, "test_size": 2000},
            "stackoverflow": {"num_users": 500, "samples_per_user": 20,
                              "test_size": 2000},
            "harbox": {"num_users": 100, "samples_per_user": 30,
                       "test_size": 1500},
            "ucihar": {"num_users": 30, "samples_per_user": 100,
                       "test_size": 1500},
        },
        num_rounds=1000, sample_ratio=0.1, eval_every=20,
        batch_size=16, local_epochs=1, max_batches=None,
        eval_max_samples=2000),
}


def get_scale(name: str) -> ExperimentScale:
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(f"unknown scale {name!r}; known: {sorted(SCALES)}") from None


def resolve_scale(scale: str | ExperimentScale,
                  overrides: dict | None = None) -> ExperimentScale:
    """Resolve a scale reference plus field overrides to a concrete scale.

    ``scale`` is either a preset name or an already-built
    :class:`ExperimentScale`; an unknown name is accepted when ``overrides``
    supplies every field (the serialised form of a fully custom scale).
    """
    if isinstance(scale, ExperimentScale):
        base = scale
    elif scale in SCALES:
        base = SCALES[scale]
    elif overrides:
        return ExperimentScale(name=scale, **overrides)
    else:
        raise ValueError(f"unknown scale {scale!r}; known: {sorted(SCALES)}")
    return base.with_overrides(**(overrides or {}))

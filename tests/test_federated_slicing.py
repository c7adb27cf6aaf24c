"""Deeper aggregation-semantics tests at the federated level.

These pin the invariants the figures rely on: rolling windows eventually
cover every coordinate, BN running statistics travel with their slices,
weighted coordinate means behave like means, and partially-frozen uploads
never dilute other clients' updates.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import load_dataset, partition_dataset
from repro.fl import LocalTrainConfig, history_from_dict, history_to_dict
from repro.fl.history import History, RoundRecord
from repro.hw import sample_fleet
from repro.models import (build_model, extract_substate, finalize_mean,
                          scatter_accumulate, width_index_maps,
                          zeros_like_state)
from repro.algorithms import ALGORITHMS, assign_levels_uniformly


@pytest.fixture(scope="module")
def task():
    ds = load_dataset("harbox", seed=0, num_users=12, samples_per_user=10,
                      test_size=60)
    fleet = sample_fleet(12, seed=1)
    shards = partition_dataset(ds, 12, seed=2)
    return ds, fleet, shards


def _algo(name, task, **kwargs):
    ds, fleet, shards = task
    cls = ALGORITHMS[name]
    base = build_model("har_cnn", num_classes=ds.num_classes, seed=0,
                       **cls.base_model_overrides)
    pool = cls.build_pool(base)
    clients = assign_levels_uniformly(pool, fleet, ds, shards)
    config = LocalTrainConfig(batch_size=8, max_batches=2)
    return cls(base, ds, clients, train_config=config, pool=pool, **kwargs)


class TestRollingCoverage:
    def test_fedrolex_touches_tail_coordinates(self, task):
        """Coordinates beyond every prefix still get trained over rounds."""
        algo = _algo("fedrolex", task)
        rng = np.random.default_rng(0)
        name = "stages.3.0.conv.weight"
        before_tail = algo.global_state[name][-1].copy()
        # The x0.25 client's window must eventually reach the last channel.
        small_id = next(cid for cid, ctx in algo.clients.items()
                        if ctx.entry.overrides.get("width_mult") == 0.25)
        dim = algo.global_state[name].shape[0]
        for round_index in range(dim):
            algo.run_round(round_index, [small_id], rng)
        assert not np.array_equal(algo.global_state[name][-1], before_tail)

    def test_sheterofl_never_touches_tail(self, task):
        algo = _algo("sheterofl", task)
        rng = np.random.default_rng(0)
        name = "stages.3.0.conv.weight"
        before_tail = algo.global_state[name][-1].copy()
        small_id = next(cid for cid, ctx in algo.clients.items()
                        if ctx.entry.overrides.get("width_mult") == 0.25)
        for round_index in range(8):
            algo.run_round(round_index, [small_id], rng)
        np.testing.assert_array_equal(algo.global_state[name][-1],
                                      before_tail)


class TestBatchNormBuffers:
    def test_running_stats_aggregate(self, task):
        """BN running means travel with client slices into the global state."""
        algo = _algo("sheterofl", task)
        rng = np.random.default_rng(0)
        name = "stages.0.0.bn.running_mean"
        before = algo.global_state[name].copy()
        algo.run_round(0, list(algo.clients)[:4], rng)
        assert not np.array_equal(algo.global_state[name], before)


class TestWeightedMeanProperties:
    @given(weights=st.lists(st.floats(0.5, 20.0), min_size=2, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_weighted_mean_within_bounds(self, weights):
        """finalize_mean is a convex combination of the contributions."""
        shape = (4, 3)
        rng = np.random.default_rng(0)
        contributions = [rng.standard_normal(shape) for _ in weights]
        fallback = {"w": np.zeros(shape, np.float32)}
        sums = zeros_like_state(fallback)
        counts = zeros_like_state(fallback)
        maps = {"w": (None, None)}
        for weight, value in zip(weights, contributions):
            scatter_accumulate(sums, counts, {"w": value}, maps, weight)
        merged = finalize_mean(sums, counts, fallback)["w"]
        stacked = np.stack(contributions)
        assert np.all(merged >= stacked.min(axis=0) - 1e-5)
        assert np.all(merged <= stacked.max(axis=0) + 1e-5)

    def test_equal_weights_is_plain_mean(self):
        shape = (3,)
        values = [np.ones(shape) * i for i in range(1, 4)]
        fallback = {"w": np.zeros(shape, np.float32)}
        sums = zeros_like_state(fallback)
        counts = zeros_like_state(fallback)
        for value in values:
            scatter_accumulate(sums, counts, {"w": value}, {"w": (None,)}, 1.0)
        merged = finalize_mean(sums, counts, fallback)["w"]
        np.testing.assert_allclose(merged, 2.0)


def _ix_reference(per_axis, shape):
    """The open-mesh index every map went through before slices."""
    return np.ix_(*(np.arange(dim) if idx is None else idx
                    for idx, dim in zip(per_axis, shape)))


@st.composite
def _sliced_parameter(draw):
    """(global shape, sub shape, scaled axes) of one width-sliced array."""
    global_shape = tuple(draw(st.lists(st.integers(1, 7), min_size=1,
                                       max_size=4)))
    scaled = tuple(axis for axis in range(len(global_shape))
                   if draw(st.booleans()))
    sub_shape = tuple(draw(st.integers(1, dim)) if axis in scaled else dim
                      for axis, dim in enumerate(global_shape))
    return global_shape, sub_shape, scaled


class TestSlicePathEqualsOpenMesh:
    @given(param=_sliced_parameter(), mode=st.sampled_from(["prefix", "rolling"]),
           shift=st.integers(0, 20), weight=st.floats(0.5, 20.0),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=200, deadline=None)
    def test_extract_and_scatter_match_np_ix(self, param, mode, shift,
                                             weight, seed):
        from repro.models.slicing import _as_ix
        global_shape, sub_shape, scaled = param
        rng = np.random.default_rng(seed)
        state = {"w": rng.standard_normal(global_shape).astype(np.float32)}
        maps = width_index_maps({"w": global_shape}, {"w": sub_shape},
                                {"w": scaled}, mode=mode, shift=shift)
        per_axis = maps["w"]
        reference = _ix_reference(per_axis, global_shape)

        # Basic indexing (slices, or ... when nothing is mapped) exactly
        # when no mapped window wraps around.
        wraps = any(idx is not None and idx[-1] < idx[0] for idx in per_axis)
        index = _as_ix(per_axis, global_shape)
        basic = index is ... or all(isinstance(i, slice) for i in index)
        assert basic == (not wraps)

        sub = extract_substate(state, maps)["w"]
        assert sub.shape == sub_shape and sub.base is None
        assert np.array_equal(sub, state["w"][reference])
        before = state["w"].copy()
        sub += 1.0                          # a copy: the global is untouched
        assert np.array_equal(state["w"], before)

        update = rng.standard_normal(sub_shape).astype(np.float32)
        sums, counts = zeros_like_state(state), zeros_like_state(state)
        for _ in range(2):                  # accumulates, does not assign
            scatter_accumulate(sums, counts, {"w": update}, maps, weight)
        want_sums, want_counts = (np.zeros(global_shape) for _ in range(2))
        for _ in range(2):
            want_sums[reference] += weight * update
            want_counts[reference] += weight
        assert np.array_equal(sums["w"], want_sums)
        assert np.array_equal(counts["w"], want_counts)


class TestDepthMapsConserveMass:
    """Depth levels hold a subset of the global keys, each whole; their maps
    must round-trip the state exactly as the width maps do.

    The weights are powers of two: ``scatter_accumulate`` forms
    ``weight * sub_state`` in the state's float32 before adding it to the
    float64 sums, so any other weight rounds there."""

    @pytest.mark.parametrize("name", ["depthfl", "fedepth", "inclusivefl"])
    def test_every_level_round_trips_the_global_state(self, task, name):
        import dataclasses
        algo = _algo(name, task)
        state = algo.global_state
        fallback = {key: value + 1.0 for key, value in state.items()}
        template = next(iter(algo.clients.values()))
        rng = np.random.default_rng(0)
        held = []
        for entry in algo.pool.entries:
            ctx = dataclasses.replace(template, entry=entry)
            model, maps = algo.build_client_model(ctx, 0, rng)
            sub = extract_substate(state, maps)
            assert set(sub) == set(model.state_dict())
            held.append(len(sub))
            sums, counts = zeros_like_state(state), zeros_like_state(state)
            scatter_accumulate(sums, counts, sub, maps, weight=4)

            merged = finalize_mean(sums, counts, state)
            for key, value in state.items():
                assert merged[key].dtype == value.dtype, key
                assert np.array_equal(merged[key], value), (entry.key, key)
            kept = finalize_mean(sums, counts, fallback)
            for key in state:
                want = state[key] if key in maps else fallback[key]
                assert np.array_equal(kept[key], want), (entry.key, key)

            other = {key: (value * 0.5 + 0.25).astype(value.dtype)
                     for key, value in sub.items()}
            scatter_accumulate(sums, counts, other, maps, weight=2)
            pair = finalize_mean(sums, counts, state)
            for key, value in sub.items():
                mean = (4 * value.astype(np.float64)
                        + 2 * other[key].astype(np.float64)) / 6
                assert np.array_equal(pair[key], mean.astype(value.dtype)), key
        if name != "fedepth":       # FeDepth's levels all hold the full model
            assert min(held) < len(state)


class TestSubModelReuse:
    def test_second_client_sees_no_trace_of_the_first(self, task, monkeypatch):
        """One model per level, handed out clean: trained weights, BN
        statistics, gradients and a frozen mask must not leak across."""
        from repro.fl.client import train_local
        from repro.models.base import SliceableModel
        algo = _algo("sheterofl", task)
        built = []
        original = SliceableModel.variant
        monkeypatch.setattr(
            SliceableModel, "variant",
            lambda self, **kw: built.append(kw) or original(self, **kw))
        first_ctx, second_ctx = [
            ctx for ctx in algo.clients.values()
            if ctx.entry.overrides.get("width_mult") == 0.5][:2]
        rng = np.random.default_rng(0)

        model, _ = algo.build_client_model(first_ctx, round_index=0, rng=rng)
        train_local(model, first_ctx.shard.x, first_ctx.shard.y,
                    algo.train_config, rng)
        model.set_trainable_stages([0], train_stem=False)   # FeDepth-style
        assert any(p.grad is not None for p in model.parameters())

        again, maps = algo.build_client_model(second_ctx, round_index=0,
                                              rng=rng)
        assert again is model and built == [{"width_mult": 0.5}]
        expected = extract_substate(algo.global_state, maps)
        loaded = again.state_dict()
        assert set(loaded) == set(expected)
        for name, value in expected.items():
            assert np.array_equal(loaded[name], value), name
        assert all(p.grad is None and p.requires_grad
                   for p in again.parameters())

        # A different level is a different model.
        other_ctx = next(ctx for ctx in algo.clients.values()
                         if ctx.entry.overrides.get("width_mult") == 0.25)
        other, _ = algo.build_client_model(other_ctx, round_index=0, rng=rng)
        assert other is not model and len(built) == 2


class TestFeDepthIsolation:
    def test_frozen_stage_upload_does_not_dilute(self, task):
        """A FeDepth client's frozen stages never reach the accumulator."""
        algo = _algo("fedepth", task)
        rng = np.random.default_rng(0)
        ctx = next(ctx for ctx in algo.clients.values()
                   if ctx.entry.key == "seg1")
        model, maps = algo.build_client_model(ctx, round_index=0, rng=rng)
        keep = algo.upload_filter(model, ctx)
        frozen_params = {n for n, p in model.named_parameters()
                         if not p.requires_grad}
        assert not (keep & frozen_params)


class TestDeterminism:
    def test_same_seed_same_run(self, task):
        from repro.fl import SimulationConfig, run_simulation
        results = []
        for _ in range(2):
            algo = _algo("sheterofl", task)
            sim = SimulationConfig(num_rounds=3, sample_ratio=0.3,
                                   eval_every=1, seed=11)
            history = run_simulation(algo, sim)
            results.append([r.global_accuracy for r in history.evaluated])
        assert results[0] == results[1]


class TestHistorySerialization:
    def test_roundtrip(self):
        h = History(algorithm="a", dataset="d")
        h.append(RoundRecord(0, 1.5, 1.5, 0.9, global_accuracy=0.4,
                             extras={"note": 1}))
        h.append(RoundRecord(1, 3.0, 1.5, 0.7, global_accuracy=None))
        h.final_device_accuracies = [0.3, 0.5]
        clone = history_from_dict(history_to_dict(h))
        assert clone.algorithm == "a"
        assert clone.final_accuracy == 0.4
        assert clone.records[1].global_accuracy is None
        assert clone.final_device_accuracies == [0.3, 0.5]
        assert clone.records[0].extras == {"note": 1}

    def test_save_load(self, tmp_path):
        from repro.fl import load_history, save_history
        h = History(algorithm="x", dataset="y")
        h.append(RoundRecord(0, 1.0, 1.0, 0.5, global_accuracy=0.2))
        path = tmp_path / "run.json"
        save_history(h, path)
        assert load_history(path).final_accuracy == 0.2

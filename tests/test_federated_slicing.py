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
                          scatter_accumulate, width_index_maps)
from repro.algorithms import ALGORITHMS, assign_levels_uniformly
from repro.nn.module import Layout

from reference_round import run_round


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
            run_round(algo, round_index, [small_id], rng)
        assert not np.array_equal(algo.global_state[name][-1], before_tail)

    def test_sheterofl_never_touches_tail(self, task):
        algo = _algo("sheterofl", task)
        rng = np.random.default_rng(0)
        name = "stages.3.0.conv.weight"
        before_tail = algo.global_state[name][-1].copy()
        small_id = next(cid for cid, ctx in algo.clients.items()
                        if ctx.entry.overrides.get("width_mult") == 0.25)
        for round_index in range(8):
            run_round(algo, round_index, [small_id], rng)
        np.testing.assert_array_equal(algo.global_state[name][-1],
                                      before_tail)


class TestBatchNormBuffers:
    def test_running_stats_aggregate(self, task):
        """BN running means travel with client slices into the global state."""
        algo = _algo("sheterofl", task)
        rng = np.random.default_rng(0)
        name = "stages.0.0.bn.running_mean"
        before = algo.global_state[name].copy()
        run_round(algo, 0, list(algo.clients)[:4], rng)
        assert not np.array_equal(algo.global_state[name], before)


class TestWeightedMeanProperties:
    @given(weights=st.lists(st.floats(0.5, 20.0), min_size=2, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_weighted_mean_within_bounds(self, weights):
        """finalize_mean is a convex combination of the contributions."""
        size = 12
        rng = np.random.default_rng(0)
        contributions = [rng.standard_normal(size) for _ in weights]
        fallback = np.zeros(size, np.float32)
        sums, counts = np.zeros(size), np.zeros(size)
        for weight, value in zip(weights, contributions):
            scatter_accumulate(sums, counts, value, slice(0, size), weight)
        merged = finalize_mean(sums, counts, fallback)
        stacked = np.stack(contributions)
        assert np.all(merged >= stacked.min(axis=0) - 1e-5)
        assert np.all(merged <= stacked.max(axis=0) + 1e-5)

    def test_equal_weights_is_plain_mean(self):
        size = 3
        values = [np.ones(size) * i for i in range(1, 4)]
        fallback = np.zeros(size, np.float32)
        sums, counts = np.zeros(size), np.zeros(size)
        for value in values:
            scatter_accumulate(sums, counts, value, np.arange(size), 1.0)
        merged = finalize_mean(sums, counts, fallback)
        np.testing.assert_allclose(merged, 2.0)


def _ix_reference(per_axis, shape):
    """The open mesh of one entry's per-axis indices (``None``: whole axis),
    the per-entry reference the flat index must agree with."""
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


def _window(g_dim, s_dim, mode, shift):
    """One axis's channels in the sub-model (``None``: all of them)."""
    if s_dim == g_dim:
        return None
    return (np.arange(s_dim) if mode == "prefix"
            else (shift + np.arange(s_dim)) % g_dim)


class TestSlicePathEqualsOpenMesh:
    """The flat index against the per-entry ``np.ix_`` open mesh, on a
    layout of one to three width-sliced entries and an unsliced one."""

    @given(params=st.lists(_sliced_parameter(), min_size=1, max_size=3),
           mode=st.sampled_from(["prefix", "rolling"]),
           shift=st.integers(0, 20), weight=st.floats(0.5, 20.0),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=200, deadline=None)
    def test_extract_and_scatter_match_np_ix(self, params, mode, shift,
                                             weight, seed):
        names = [f"w{i}" for i in range(len(params))] + ["whole"]
        global_shapes = [g for g, _, _ in params] + [(3,)]
        sub_shapes = [s for _, s, _ in params] + [(3,)]
        scale_axes = {name: axes for name, (_, _, axes) in zip(names, params)}
        g_layout = Layout.of(zip(names, global_shapes), params=len(names))
        s_layout = Layout.of(zip(names, sub_shapes), params=len(names))
        rng = np.random.default_rng(seed)
        vector = rng.standard_normal(g_layout.size).astype(np.float32)
        index = width_index_maps(g_layout, s_layout, scale_axes, mode=mode,
                                 shift=shift)

        # Per entry, the reference positions of the open mesh.
        where = g_layout.views(np.arange(g_layout.size))
        reference = np.concatenate([
            where[name][_ix_reference(
                [_window(g, s, mode, shift) for g, s in zip(g_shape, s_shape)],
                g_shape)].ravel()
            for name, g_shape, s_shape in zip(names, global_shapes,
                                              sub_shapes)])
        # A slice exactly when the positions are one ascending run.
        run = bool((np.diff(reference) == 1).all())
        assert isinstance(index, slice) == run
        assert np.array_equal(np.arange(g_layout.size)[index], reference)

        sub = extract_substate(vector, index)
        assert sub.shape == (s_layout.size,) and sub.base is None
        assert np.array_equal(sub, vector[reference])
        before = vector.copy()
        sub += 1.0                          # a copy: the global is untouched
        assert np.array_equal(vector, before)
        out = np.full(s_layout.size, np.nan, np.float32)
        assert extract_substate(vector, index, out=out) is out
        assert np.array_equal(out, vector[reference])

        update = rng.standard_normal(s_layout.size).astype(np.float32)
        sums, counts = np.zeros(g_layout.size), np.zeros(g_layout.size)
        for _ in range(2):                  # accumulates, does not assign
            scatter_accumulate(sums, counts, update, index, weight)
        want_sums, want_counts = np.zeros(g_layout.size), np.zeros(g_layout.size)
        for _ in range(2):
            want_sums[reference] += weight * update
            want_counts[reference] += weight
        assert np.array_equal(sums, want_sums)
        assert np.array_equal(counts, want_counts)


@st.composite
def _index_layout(draw):
    """``(global layout, sub layout, scale axes)``: one to four entries of
    rank one to four, each with zero to two scaled axes that may shrink."""
    entries = []
    for i in range(draw(st.integers(1, 4))):
        global_shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1,
                                           max_size=4)))
        scaled = draw(st.lists(st.integers(0, len(global_shape) - 1),
                               max_size=2, unique=True))
        sub_shape = tuple(draw(st.integers(1, dim)) if axis in scaled
                          else dim for axis, dim in enumerate(global_shape))
        entries.append((f"e{i}", global_shape, sub_shape, tuple(scaled)))
    return (Layout.of([(n, g) for n, g, _, _ in entries], len(entries)),
            Layout.of([(n, s) for n, _, s, _ in entries], len(entries)),
            {name: axes for name, _, _, axes in entries})


def _per_element_positions(g_layout, s_layout, mode, shift):
    """Every sub-vector element's global position, one at a time: its
    coordinate, rolled on each shrunk axis, through
    ``np.ravel_multi_index``."""
    positions = []
    for name, sub_shape in zip(s_layout.names, s_layout.shapes):
        entry = g_layout.names.index(name)
        global_shape = g_layout.shapes[entry]
        for coord in np.ndindex(*sub_shape):
            rolled = tuple((c + shift) % g if s < g and mode == "rolling"
                           else c for c, s, g in zip(coord, sub_shape,
                                                     global_shape))
            positions.append(g_layout.bounds[entry]
                             + np.ravel_multi_index(rolled, global_shape))
    return np.array(positions, np.intp)


class TestIndexMapsMatchPerElementReference:
    """``width_index_maps`` against positions computed element by element,
    over random layouts, both modes and shifts beyond every dimension."""

    @given(layouts=_index_layout(), mode=st.sampled_from(["prefix",
                                                          "rolling"]),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_positions_in_the_same_order(self, layouts, mode, data):
        g_layout, s_layout, scale_axes = layouts
        largest = max(max(shape) for shape in g_layout.shapes)
        shift = data.draw(st.integers(0, 3 * largest))
        reference = _per_element_positions(g_layout, s_layout, mode, shift)
        index = width_index_maps(g_layout, s_layout, scale_axes, mode=mode,
                                 shift=shift)
        run = bool((np.diff(reference) == 1).all())
        assert isinstance(index, slice) == run
        positions = np.arange(g_layout.size)[index]
        assert positions.dtype == np.intp
        assert np.array_equal(positions, reference)

    @given(layouts=_index_layout(),
           shifts=st.lists(st.integers(0, 30), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_a_kept_plan_serves_every_shift(self, layouts, shifts):
        """The plan built at the first shift gives every later shift the
        index a fresh call computes."""
        g_layout, s_layout, scale_axes = layouts
        plans = {}
        for shift in shifts:
            kept = width_index_maps(g_layout, s_layout, scale_axes,
                                    mode="rolling", shift=shift, plans=plans)
            fresh = width_index_maps(g_layout, s_layout, scale_axes,
                                     mode="rolling", shift=shift)
            assert len(plans) == 1
            assert type(kept) is type(fresh)
            assert np.array_equal(np.arange(g_layout.size)[kept],
                                  np.arange(g_layout.size)[fresh])


class TestDepthMapsConserveMass:
    """Depth levels hold a subset of the global entries, each whole; their
    indices must round-trip the global vector exactly as the width ones do.

    The weights are powers of two: ``scatter_accumulate`` forms
    ``weight * values`` in the upload's float32 before adding it to the
    float64 sums, so any other weight rounds there."""

    @pytest.mark.parametrize("name", ["depthfl", "fedepth", "inclusivefl"])
    def test_every_level_round_trips_the_global_state(self, task, name):
        import dataclasses
        algo = _algo(name, task)
        vector, layout = algo.global_vector, algo.layout
        fallback = vector + 1.0
        template = next(iter(algo.clients.values()))
        rng = np.random.default_rng(0)
        held = []
        for entry in algo.pool.entries:
            ctx = dataclasses.replace(template, entry=entry)
            model, (level, shift, segment) = algo.build_client_model(ctx, 0,
                                                                     rng)
            placed = algo.resolve_upload((level, shift, None))
            sub_layout = algo._level_model(level)[2]
            sub = extract_substate(vector, placed.index)
            assert sub_layout.names == tuple(model.state_dict())
            assert placed.bounds == sub_layout.bounds
            held.append(len(sub_layout.names))
            sums, counts = np.zeros(layout.size), np.zeros(layout.size)
            scatter_accumulate(sums, counts, sub, placed.index, weight=4)

            merged = finalize_mean(sums, counts, vector)
            assert merged.dtype == vector.dtype
            assert np.array_equal(merged, vector), entry.key
            kept = layout.views(finalize_mean(sums, counts, fallback))
            for key, value in algo.global_state.items():
                want = value if key in sub_layout.names else value + 1.0
                assert np.array_equal(kept[key], want), (entry.key, key)

            other = (sub * 0.5 + 0.25).astype(sub.dtype)
            scatter_accumulate(sums, counts, other, placed.index, weight=2)
            pair = finalize_mean(sums, counts, vector)
            mean = (4 * sub.astype(np.float64)
                    + 2 * other.astype(np.float64)) / 6
            assert np.array_equal(pair[placed.index], mean.astype(sub.dtype))

            # The upload (FeDepth: its trained segment) lands where its
            # elements came from.
            upload = algo.resolve_upload((level, shift, segment))
            assert np.array_equal(extract_substate(sub, upload.take),
                                  extract_substate(vector, upload.index))
        if name != "fedepth":       # FeDepth's levels all hold the full model
            assert min(held) < len(layout.names)


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

        again, key = algo.build_client_model(second_ctx, round_index=0,
                                             rng=rng)
        assert again is model and built == [{"width_mult": 0.5}]
        _, buffer, layout = algo._level_model(key[0])
        expected = extract_substate(algo.global_vector,
                                    algo.resolve_upload(key).index)
        assert np.array_equal(buffer, expected)
        loaded = again.state_dict()
        assert list(loaded) == list(layout.names)
        for name, value in layout.views(expected).items():
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
        """A FeDepth client's frozen stages never reach the accumulator, and
        the names its key resolves to are what training left trainable."""
        algo = _algo("fedepth", task)
        rng = np.random.default_rng(0)
        ctx = next(ctx for ctx in algo.clients.values()
                   if ctx.entry.key == "seg1")
        model, (level, _, segment) = algo.build_client_model(
            ctx, round_index=0, rng=rng)
        keep = algo.upload_names(algo._level_model(level)[2], segment)
        frozen_params = {n for n, p in model.named_parameters()
                         if not p.requires_grad}
        assert frozen_params and not (keep & frozen_params)
        trainable = {n for n, p in model.named_parameters()
                     if p.requires_grad}
        assert trainable <= keep

    def test_segment_names_match_the_trained_model(self, task):
        """``upload_names`` reads names only; at every level and segment it
        keeps what the trainable mask of the built model implies."""
        algo = _algo("fedepth", task)
        rng = np.random.default_rng(0)
        for ctx in algo.clients.values():
            for round_index in range(4):
                model, (level, _, segment) = algo.build_client_model(
                    ctx, round_index, rng)
                trainable = {n for n, p in model.named_parameters()
                             if p.requires_grad}
                stages = {n.split(".")[1] for n in trainable
                          if n.startswith("stages.")}
                stem = any(n.startswith("stem.") for n in trainable)
                want = trainable | {
                    n for n in model.state_dict()
                    if n.startswith("heads.")
                    or (stem and n.startswith("stem."))
                    or (n.startswith("stages.") and n.split(".")[1] in stages)}
                got = algo.upload_names(algo._level_model(level)[2], segment)
                assert got == want, (ctx.entry.key, round_index)


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

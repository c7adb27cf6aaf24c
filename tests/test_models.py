"""Tests for the model zoo: staged protocol, variants, slicing maps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import (build_model, known_architectures, MODEL_FAMILIES,
                          width_index_maps, extract_substate,
                          scatter_accumulate, finalize_mean,
                          scaled_channels, HAR_INPUT_SHAPE)
from repro import autograd as ag
from repro.nn.module import Layout


def _input_for(arch, batch=2, seed=0):
    rng = np.random.default_rng(seed)
    if arch.startswith("albert") or arch == "transformer":
        return rng.integers(0, 256, size=(batch, 12))
    if arch.startswith("har"):
        return rng.standard_normal((batch,) + HAR_INPUT_SHAPE).astype(np.float32)
    return rng.standard_normal((batch, 3, 16, 16)).astype(np.float32)


CNN_ARCHS = ["resnet18", "resnet50", "mobilenet_v2", "mobilenet_v3_small",
             "har_cnn"]
TEXT_ARCHS = ["transformer", "albert_base"]
REPRESENTATIVE = CNN_ARCHS + TEXT_ARCHS


class TestForwardProtocol:
    @pytest.mark.parametrize("arch", REPRESENTATIVE)
    def test_logits_shape(self, arch):
        model = build_model(arch, num_classes=7, seed=0)
        assert model(_input_for(arch)).shape == (2, 7)

    @pytest.mark.parametrize("arch", REPRESENTATIVE)
    def test_features_shape_matches_head(self, arch):
        model = build_model(arch, num_classes=7, seed=0)
        feats = model.features(_input_for(arch))
        assert feats.shape == (2, model.feature_dim)

    @pytest.mark.parametrize("arch", ["resnet18", "mobilenet_v2", "albert_base"])
    def test_all_heads_forward(self, arch):
        model = build_model(arch, num_classes=5, head_mode="all", seed=0)
        outs = model.forward_all_heads(_input_for(arch))
        assert [i for i, _ in outs] == list(range(model.total_stages))
        for _, logits in outs:
            assert logits.shape == (2, 5)

    def test_eval_mode_deterministic(self):
        model = build_model("resnet18", num_classes=5, seed=0).eval()
        x = _input_for("resnet18")
        with ag.no_grad():
            a, b = model(x).data, model(x).data
        np.testing.assert_array_equal(a, b)

    def test_gradients_flow_to_all_parameters(self):
        model = build_model("mobilenet_v3_small", num_classes=4, seed=0)
        x = _input_for("mobilenet_v3_small", batch=4)
        y = np.array([0, 1, 2, 3])
        ag.cross_entropy(model(x), y).backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert not missing, f"no gradient reached: {missing[:5]}"


class TestVariants:
    @pytest.mark.parametrize("arch", REPRESENTATIVE)
    @pytest.mark.parametrize("mult", [0.25, 0.5, 0.75])
    def test_width_variant_shrinks(self, arch, mult):
        model = build_model(arch, num_classes=5, seed=0)
        sub = model.variant(width_mult=mult)
        assert sub.num_parameters() < model.num_parameters()
        assert sub(_input_for(arch)).shape == (2, 5)

    @pytest.mark.parametrize("arch", ["resnet101", "mobilenet_v2", "har_cnn",
                                      "albert_large", "transformer"])
    def test_depth_variant_names_are_subset(self, arch):
        # Depth-level servers keep a head at every stage boundary
        # (head_mode="all"), so any shallower client's names are a subset.
        model = build_model(arch, num_classes=5, head_mode="all", seed=0)
        shallow = model.variant(num_stages=2)
        full_names = set(model.state_dict())
        sub_names = set(shallow.state_dict())
        assert sub_names <= full_names

    def test_depth_variant_reduces_flops(self):
        model = build_model("resnet101", num_classes=5, seed=0)
        shallow = model.variant(num_stages=1)
        x = _input_for("resnet101", batch=1)
        with ag.no_grad():
            with ag.profile() as full_report:
                model(x)
            with ag.profile() as shallow_report:
                shallow(x)
        assert shallow_report.flops < full_report.flops

    def test_albert_depth_keeps_parameter_count(self):
        # Cross-layer sharing: fewer repeats, same parameters (minus heads).
        model = build_model("albert_xxlarge", num_classes=5, seed=0)
        shallow = model.variant(num_stages=2)
        assert shallow.num_parameters() == model.num_parameters()

    def test_variant_override_merges_kwargs(self):
        model = build_model("resnet18", num_classes=5, seed=3)
        sub = model.variant(width_mult=0.5)
        assert sub._build_kwargs["seed"] == 3
        assert sub._build_kwargs["num_classes"] == 5

    def test_invalid_num_stages_rejected(self):
        model = build_model("resnet18", num_classes=5, seed=0)
        with pytest.raises(ValueError):
            model.variant(num_stages=9)

    def test_set_trainable_stages(self):
        model = build_model("resnet18", num_classes=5, seed=0)
        model.set_trainable_stages([1], train_stem=False)
        trainable = {n for n, p in model.named_parameters() if p.requires_grad}
        assert any(n.startswith("stages.1.") for n in trainable)
        assert not any(n.startswith("stages.0.") for n in trainable)
        assert not any(n.startswith("stem.") for n in trainable)
        x = _input_for("resnet18", batch=2)
        ag.cross_entropy(model(x), np.array([0, 1])).backward()
        frozen_grads = [p.grad for n, p in model.named_parameters()
                        if n.startswith("stages.0.") and p.grad is not None]
        assert not frozen_grads


def _flat(model):
    """A model's state as a fresh ``(vector, layout)``."""
    layout = model.state_layout()
    return layout.pack(model.state_dict()), layout


def _layout(**shapes):
    return Layout.of(shapes.items(), params=len(shapes))


def _positions(index, size):
    """An index as explicit positions (a slice spelled out)."""
    return np.arange(size)[index] if isinstance(index, slice) else index


class TestWidthSlicing:
    @pytest.mark.parametrize("arch", REPRESENTATIVE)
    @pytest.mark.parametrize("mode", ["prefix", "rolling"])
    def test_extract_load_roundtrip(self, arch, mode):
        model = build_model(arch, num_classes=5, seed=0)
        sub = model.variant(width_mult=0.5)
        g_vec, g_layout = _flat(model)
        buffer, s_layout = sub.bind_state()
        index = width_index_maps(g_layout, s_layout, model.state_scale_axes(),
                                 mode=mode, shift=3)
        assert extract_substate(g_vec, index, out=buffer) is buffer
        # Forward must run (channel wiring consistent).
        assert sub(_input_for(arch)).shape == (2, 5)

    def test_full_width_slice_is_identity(self):
        model = build_model("resnet18", num_classes=5, seed=0)
        clone = model.variant()
        g_vec, g_layout = _flat(model)
        buffer, c_layout = clone.bind_state()
        index = width_index_maps(g_layout, c_layout, model.state_scale_axes(),
                                 mode="prefix")
        assert index == slice(0, g_layout.size)   # a property of the input
        extract_substate(g_vec, index, out=buffer)
        x = _input_for("resnet18")
        with ag.no_grad():
            np.testing.assert_allclose(model.eval()(x).data,
                                       clone.eval()(x).data, rtol=1e-5)

    def test_prefix_slice_matches_manual_slice(self):
        model = build_model("har_cnn", num_classes=5, seed=0)
        sub = model.variant(width_mult=0.5)
        g_vec, g_layout = _flat(model)
        s_layout = sub.state_layout()
        index = width_index_maps(g_layout, s_layout, model.state_scale_axes(),
                                 mode="prefix")
        extracted = s_layout.views(extract_substate(g_vec, index))
        w = "stages.1.0.conv.weight"
        s_out, s_in = extracted[w].shape[:2]
        np.testing.assert_array_equal(extracted[w],
                                      g_layout.views(g_vec)[w][:s_out, :s_in])

    def test_rolling_wraps_around(self):
        model = build_model("har_cnn", num_classes=5, seed=0)
        sub = model.variant(width_mult=0.5)
        g_layout, s_layout = model.state_layout(), sub.state_layout()
        # Each element holds its own position, so extraction reads positions.
        where = np.arange(g_layout.size, dtype=np.float32)
        name = "stages.3.0.conv.weight"
        g_block = g_layout.views(where)[name]
        g_dim = g_block.shape[0]
        index = width_index_maps(g_layout, s_layout, model.state_scale_axes(),
                                 mode="rolling", shift=g_dim - 1)
        block = s_layout.views(extract_substate(where, index))[name]
        start = g_layout.bounds[g_layout.names.index(name)]
        rows = (block.reshape(len(block), -1)[:, 0] - start) // g_block[0].size
        assert rows[0] == g_dim - 1 and rows[1] == 0  # wrapped

    def test_scatter_accumulate_conservation(self):
        """Aggregating the extracted slice back reproduces the global values."""
        model = build_model("mobilenet_v2", num_classes=5, seed=0)
        sub = model.variant(width_mult=0.5)
        g_vec, g_layout = _flat(model)
        index = width_index_maps(g_layout, sub.state_layout(),
                                 model.state_scale_axes(), mode="prefix")
        extracted = extract_substate(g_vec, index)
        sums, counts = np.zeros(g_layout.size), np.zeros(g_layout.size)
        scatter_accumulate(sums, counts, extracted, index, weight=2.0)
        merged = finalize_mean(sums, counts, g_vec)
        assert merged.dtype == g_vec.dtype and merged is not g_vec
        np.testing.assert_allclose(merged, g_vec, rtol=1e-5)

    def test_untouched_coordinates_keep_fallback(self):
        model = build_model("har_cnn", num_classes=5, seed=0)
        sub = model.variant(width_mult=0.25)
        g_vec, g_layout = _flat(model)
        s_layout = sub.state_layout()
        index = width_index_maps(g_layout, s_layout, model.state_scale_axes(),
                                 mode="prefix")
        extracted = np.zeros(s_layout.size, np.float32)
        sums, counts = np.zeros(g_layout.size), np.zeros(g_layout.size)
        scatter_accumulate(sums, counts, extracted, index)
        merged = g_layout.views(finalize_mean(sums, counts, g_vec))
        name = "stages.3.0.conv.weight"
        s_out, s_in = s_layout.views(extracted)[name].shape[:2]
        # Sliced block zeroed, remainder untouched.
        assert np.all(merged[name][:s_out, :s_in] == 0.0)
        np.testing.assert_array_equal(merged[name][s_out:],
                                      g_layout.views(g_vec)[name][s_out:])

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ValueError):
            width_index_maps(_layout(w=(4, 4)), _layout(w=(2, 4)), {"w": ()})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(KeyError):
            width_index_maps(_layout(w=(4,)), _layout(ghost=(4,)), {})


class TestBindState:
    def test_views_of_one_buffer_in_layout_order(self):
        model = build_model("har_cnn", num_classes=5, seed=0)
        before = model.state_dict()
        buffer, layout = model.bind_state()
        assert layout.names == tuple(before)
        assert layout.params == len(model.named_parameters())
        views = layout.views(buffer)
        state = {**dict((n, p.data) for n, p in model.named_parameters()),
                 **dict(model.named_buffers())}
        for name, value in before.items():
            assert state[name].base is buffer, name
            assert np.shares_memory(state[name], views[name]), name
            assert np.array_equal(state[name], value), name

    def test_batch_norm_statistics_stay_live(self):
        model = build_model("resnet18", num_classes=5, seed=0)
        buffer, layout = model.bind_state()
        snapshot = buffer.copy()
        model.train()
        model(_input_for("resnet18"))
        changed = [name for name, view in layout.views(buffer).items()
                   if not np.array_equal(view, layout.views(snapshot)[name])]
        assert changed and all("running_" in name for name in changed)

    def test_optimiser_adopts_the_buffer(self):
        from repro import nn
        model = build_model("har_cnn", num_classes=5, seed=0)
        buffer, layout = model.bind_state()
        optimizer = nn.SGD(model.parameters(), lr=0.1)
        assert optimizer._flat.base is buffer
        assert optimizer._flat.size == layout.bounds[layout.params]
        # A list that is not one run is packed anew, and then is one.
        params = model.parameters()[::-1]
        first = nn.SGD(params, lr=0.1)
        assert first._flat.base is None
        assert nn.SGD(params, lr=0.1)._flat.base is first._flat

    def test_layout_pack_round_trips_and_checks_shapes(self):
        layout = _layout(a=(2, 3), b=(), c=(4,))
        vector = np.arange(layout.size, dtype=np.float32)
        assert layout.bounds == (0, 6, 7, 11)
        assert np.array_equal(layout.pack(layout.views(vector)), vector)
        with pytest.raises(ValueError, match="shape mismatch"):
            layout.pack({"a": np.zeros(6), "b": 0.0, "c": np.zeros(4)})
        picked = layout.select({"c", "a"})
        assert picked.names == ("a", "c") and picked.bounds == (0, 6, 10)


class TestZoo:
    def test_families_complete(self):
        for members in MODEL_FAMILIES.values():
            for arch in members:
                assert arch in known_architectures()

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            build_model("vgg16", num_classes=10)

    def test_family_param_ordering(self):
        """Within a family, the declared order is smallest -> largest."""
        for family in ("resnet", "albert", "mobilenet"):
            sizes = [build_model(a, num_classes=10, seed=0).num_parameters()
                     for a in MODEL_FAMILIES[family]]
            assert sizes == sorted(sizes), f"{family}: {sizes}"

    def test_same_seed_same_weights(self):
        a = build_model("resnet18", num_classes=5, seed=11)
        b = build_model("resnet18", num_classes=5, seed=11)
        for (n1, v1), (n2, v2) in zip(sorted(a.state_dict().items()),
                                      sorted(b.state_dict().items())):
            np.testing.assert_array_equal(v1, v2)

    def test_paper_scale_is_larger(self):
        tiny = build_model("resnet50", num_classes=10, seed=0)
        paper = build_model("resnet50", num_classes=10, seed=0, scale="paper")
        assert paper.num_parameters() > 10 * tiny.num_parameters()

    @pytest.mark.parametrize("arch", known_architectures())
    def test_every_leaf_gradient_is_c_contiguous(self, arch):
        """The optimiser's global norm reduces each gradient over its slice
        of a C-ordered buffer, which is ``(g * g).sum()`` only when ``g``
        itself is C-contiguous; an op that hands back an F-ordered gradient
        fails here before any golden drifts."""
        from repro.fl import LocalTrainConfig, train_local
        model = build_model(arch, num_classes=5, seed=0, width_mult=0.5)
        x = _input_for(arch, batch=4)
        y = np.random.default_rng(1).integers(0, 5, size=4)
        train_local(model, x, y, LocalTrainConfig(batch_size=4, max_batches=1),
                    np.random.default_rng(0))
        grads = {name: p.grad for name, p in model.named_parameters()
                 if p.grad is not None}
        assert grads
        for name, grad in grads.items():
            assert grad.flags.c_contiguous, name

    @pytest.mark.parametrize("arch", known_architectures())
    def test_no_grad_eval_logits_are_the_taped_logits(self, arch):
        """After a training step has moved the BN statistics, eval logits
        without a tape (conv patches a chunk at a time, norms written into
        their input) equal the taped eval forward's, bit for bit, at a
        batch of 37: not a multiple of the conv chunk."""
        from repro.fl import LocalTrainConfig, train_local
        model = build_model(arch, num_classes=5, seed=0)
        y = np.random.default_rng(1).integers(0, 5, size=37)
        train_local(model, _input_for(arch, batch=37), y,
                    LocalTrainConfig(batch_size=16, max_batches=2),
                    np.random.default_rng(0))
        model.eval()
        x = _input_for(arch, batch=37, seed=5)
        with ag.no_grad():
            fast = model(x).data
        taped = model(x).data
        assert fast.dtype == taped.dtype
        assert np.array_equal(fast, taped)


class TestScaledChannels:
    @given(base=st.integers(1, 512),
           mult=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
           divisor=st.sampled_from([1, 2, 4]))
    @settings(max_examples=60, deadline=None)
    def test_positive_and_divisible(self, base, mult, divisor):
        value = scaled_channels(base, mult, divisor)
        assert value >= 1
        assert value % divisor == 0

    @given(base=st.integers(1, 512))
    @settings(max_examples=30, deadline=None)
    def test_identity_at_full_width(self, base):
        assert scaled_channels(base, 1.0) == base

    @given(base=st.integers(4, 512), divisor=st.sampled_from([1, 2, 4]))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_multiplier(self, base, divisor):
        values = [scaled_channels(base, m, divisor)
                  for m in (0.25, 0.5, 0.75, 1.0)]
        assert values == sorted(values)


class TestIndexMapProperties:
    @given(g_dim=st.integers(2, 64), frac=st.floats(0.1, 1.0),
           shift=st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_rolling_covers_each_coordinate_at_most_once(self, g_dim, frac,
                                                         shift):
        s_dim = max(1, min(g_dim, int(round(g_dim * frac))))
        idx = _positions(width_index_maps(_layout(w=(g_dim,)),
                                          _layout(w=(s_dim,)), {"w": (0,)},
                                          mode="rolling", shift=shift), g_dim)
        assert len(idx) == s_dim
        assert len(np.unique(idx)) == len(idx)
        assert idx.min() >= 0 and idx.max() < g_dim

    @given(g_dim=st.integers(2, 64), frac=st.floats(0.1, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_all_shifts_cover_all_coordinates(self, g_dim, frac):
        """Over g_dim consecutive rounds, rolling touches every coordinate."""
        s_dim = max(1, min(g_dim - 1, int(round(g_dim * frac))))
        touched = np.zeros(g_dim, dtype=bool)
        for shift in range(g_dim):
            touched[width_index_maps(_layout(w=(g_dim,)), _layout(w=(s_dim,)),
                                     {"w": (0,)}, mode="rolling",
                                     shift=shift)] = True
        assert touched.all()

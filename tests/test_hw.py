"""Tests for the hardware substrate: measurement, cost models, fleet, pool."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import (measure_model, dummy_input, get_device, EDGE_DEVICES,
                      CostModel, DEFAULT_COST_MODEL, sample_fleet,
                      MEMORY_TIERS, ModelPool)
from repro.constraints import ConstraintAssigner, ConstraintSpec
from repro.models import build_model
from repro.models.base import depth_variant_of


@pytest.fixture(scope="module")
def resnet():
    return build_model("resnet18", num_classes=10, seed=0)


class TestMeasurement:
    def test_params_match_model(self, resnet):
        stats = measure_model(resnet)
        assert stats.params == resnet.num_parameters()
        assert stats.trainable_params == stats.params

    def test_flops_scale_with_width(self, resnet):
        full = measure_model(resnet)
        half = measure_model(resnet.variant(width_mult=0.5))
        # Conv FLOPs scale ~quadratically in the multiplier.
        assert 0.15 < half.flops_per_sample / full.flops_per_sample < 0.55

    def test_depth_variant_cheaper_but_activation_heavy(self):
        """The Table I effect: depth x0.5 keeps early high-res activations."""
        base = build_model("resnet101", num_classes=10, seed=0)
        width = measure_model(base.variant(width_mult=0.5))
        depth = measure_model(depth_variant_of(base, 0.5, head_mode="all"))
        assert depth.activation_bytes_per_sample > width.activation_bytes_per_sample

    def test_frozen_params_counted(self, resnet):
        model = resnet.variant()
        model.set_trainable_stages([1])
        stats = measure_model(model)
        assert stats.trainable_params < stats.params

    def test_dummy_input_shapes(self):
        assert dummy_input(build_model("resnet18", num_classes=3),
                           batch_size=2).shape == (2, 3, 16, 16)
        assert dummy_input(build_model("har_cnn", num_classes=3),
                           batch_size=2).shape == (2, 9, 8, 4)
        tokens = dummy_input(build_model("transformer", num_classes=3),
                             batch_size=2)
        assert tokens.shape[0] == 2 and tokens.dtype.kind == "i"

    def test_measure_restores_training_mode(self, resnet):
        resnet.train()
        measure_model(resnet)
        assert resnet.training

    def test_batch_size_invariance(self, resnet):
        one = measure_model(resnet, dummy_input(resnet, 1))
        four = measure_model(resnet, dummy_input(resnet, 4))
        assert abs(one.flops_per_sample - four.flops_per_sample) \
            / one.flops_per_sample < 0.01


#: ``measure_model(build_model(arch, num_classes=10, seed=0, width_mult=w))``
#: as ``(params, flops_per_sample, activation_bytes_per_sample)``, recorded
#: while conv -> batch_norm -> activation were three tape nodes.  The cost
#: models (time, memory constraint, fig3, table1) read these numbers; a fused
#: block that counted only its final output would halve the conv nets'
#: activation bytes and nothing else in the suite would notice.
MEASURED = {
    ("albert_base", 1.0): (14090, 1196672, 187856),
    ("albert_base", 0.5): (7306, 336192, 95504),
    ("albert_large", 1.0): (24970, 5137344, 550544),
    ("albert_large", 0.5): (10186, 1389024, 276848),
    ("albert_xxlarge", 1.0): (39946, 13403392, 1093456),
    ("albert_xxlarge", 0.5): (14090, 3555968, 548304),
    ("har_cnn", 1.0): (13250, 138880, 9192),
    ("har_cnn", 0.5): (3606, 45248, 4616),
    ("har_cnn_deep", 1.0): (30690, 270208, 15144),
    ("har_cnn_deep", 0.5): (8006, 78080, 7592),
    ("har_cnn_lite", 1.0): (7672, 86016, 6904),
    ("har_cnn_lite", 0.5): (2140, 29400, 3472),
    ("har_cnn_wide", 1.0): (28942, 280896, 13768),
    ("har_cnn_wide", 0.5): (7672, 86016, 6904),
    ("mobilenet_v2", 1.0): (13370, 856000, 380136),
    ("mobilenet_v2", 0.5): (4450, 283360, 190088),
    ("mobilenet_v3_large", 1.0): (56691, 1052272, 424560),
    ("mobilenet_v3_large", 0.5): (16254, 335600, 212296),
    ("mobilenet_v3_small", 1.0): (18172, 301568, 112088),
    ("mobilenet_v3_small", 0.5): (5652, 113088, 56072),
    ("resnet101", 1.0): (208530, 6076928, 753192),
    ("resnet101", 0.5): (53406, 1547520, 376616),
    ("resnet18", 1.0): (78002, 2077952, 146728),
    ("resnet18", 0.5): (19902, 547456, 73384),
    ("resnet34", 1.0): (101234, 3257600, 189736),
    ("resnet34", 0.5): (25758, 842368, 94888),
    ("resnet50", 1.0): (164370, 4372992, 609832),
    ("resnet50", 0.5): (42142, 1121536, 304936),
    ("transformer", 1.0): (43786, 1180288, 188880),
    ("transformer", 0.5): (13706, 328000, 94480),
}


def test_measure_model_pins_every_architecture():
    from repro.models.zoo import known_architectures

    assert {arch for arch, _ in MEASURED} == set(known_architectures())
    for (arch, width), expected in MEASURED.items():
        stats = measure_model(build_model(arch, num_classes=10, seed=0,
                                          width_mult=width))
        got = (stats.params, stats.flops_per_sample,
               stats.activation_bytes_per_sample)
        assert got == expected, (arch, width)


class TestCostModel:
    def test_training_time_monotone_in_flops(self, resnet):
        cm = DEFAULT_COST_MODEL
        device = get_device("jetson_nano")
        small = measure_model(resnet.variant(width_mult=0.25))
        large = measure_model(resnet)
        assert cm.training_time_s(small, device, 100) < \
            cm.training_time_s(large, device, 100)

    def test_faster_device_trains_faster(self, resnet):
        cm = DEFAULT_COST_MODEL
        stats = measure_model(resnet)
        t_orin = cm.training_time_s(stats, get_device("jetson_orin_nx"), 100)
        t_rpi = cm.training_time_s(stats, get_device("raspberry_pi_4b"), 100)
        assert t_orin < t_rpi

    def test_training_time_linear_in_samples(self, resnet):
        cm = CostModel()
        device = get_device("jetson_nano")
        stats = measure_model(resnet)
        t100 = cm.training_time_s(stats, device, 100)
        t200 = cm.training_time_s(stats, device, 200)
        compute100 = t100 - device.round_overhead_s
        compute200 = t200 - device.round_overhead_s
        assert abs(compute200 - 2 * compute100) < 1e-6

    def test_communication_time_uses_both_directions(self, resnet):
        cm = DEFAULT_COST_MODEL
        device = get_device("jetson_nano")
        stats = measure_model(resnet)
        expected = stats.param_bytes / device.downlink_bps + \
            stats.param_bytes / device.uplink_bps
        assert abs(cm.communication_time_s(stats, device) - expected) < 1e-9

    def test_memory_monotone_in_batch(self, resnet):
        cm = DEFAULT_COST_MODEL
        stats = measure_model(resnet)
        assert cm.training_memory_bytes(stats, 4) < \
            cm.training_memory_bytes(stats, 32)

    def test_freezing_reduces_memory(self, resnet):
        cm = DEFAULT_COST_MODEL
        frozen = resnet.variant()
        frozen.set_trainable_stages([3], train_stem=False)
        assert cm.training_memory_bytes(measure_model(frozen), 8) < \
            cm.training_memory_bytes(measure_model(resnet), 8)

    def test_table1_calibration(self):
        """Paper-scale R101 x0.5 round time lands near Table I's numbers."""
        cm = DEFAULT_COST_MODEL
        base = build_model("resnet101", num_classes=100, seed=0, scale="paper")
        stats = measure_model(base.variant(width_mult=0.5))
        t_nano = cm.training_time_s(stats, get_device("jetson_nano"), 500)
        t_orin = cm.training_time_s(stats, get_device("jetson_orin_nx"), 500)
        assert 350 < t_nano < 520      # paper: 430.24
        assert 170 < t_orin < 260      # paper: 212.72

    def test_table1_depth_memory_pattern(self):
        """Depth-pruned x0.5 uses more training memory than width x0.5."""
        cm = DEFAULT_COST_MODEL
        base = build_model("resnet101", num_classes=100, seed=0, scale="paper")
        width = measure_model(base.variant(width_mult=0.5))
        depth = measure_model(depth_variant_of(base, 0.5, head_mode="all"))
        assert cm.training_memory_bytes(depth, 8) > \
            cm.training_memory_bytes(width, 8)


class TestFleet:
    def test_deterministic(self):
        a = sample_fleet(20, seed=5)
        b = sample_fleet(20, seed=5)
        assert [c.compute_flops for c in a] == [c.compute_flops for c in b]

    def test_size_and_ids(self):
        fleet = sample_fleet(30, seed=0)
        assert len(fleet) == 30
        assert [c.client_id for c in fleet] == list(range(30))

    def test_heterogeneity_spread(self):
        fleet = sample_fleet(400, seed=1)
        compute = np.array([c.compute_flops for c in fleet])
        assert np.percentile(compute, 95) / np.percentile(compute, 5) > 4.0

    def test_memory_tiers_present(self):
        fleet = sample_fleet(500, seed=2)
        tiers = {c.tier for c in fleet}
        assert tiers == {t[0] for t in MEMORY_TIERS}

    def test_tier_shares_roughly_match(self):
        fleet = sample_fleet(2000, seed=3)
        for label, _, _, share in MEMORY_TIERS:
            observed = sum(c.tier == label for c in fleet) / len(fleet)
            assert abs(observed - share) < 0.06

    def test_no_gpu_devices_slower(self):
        fleet = sample_fleet(600, seed=4)
        gpu = np.mean([c.compute_flops for c in fleet if c.has_gpu])
        cpu = np.mean([c.compute_flops for c in fleet if not c.has_gpu])
        assert cpu < gpu

    def test_as_device_roundtrip(self):
        cap = sample_fleet(1, seed=0)[0]
        device = cap.as_device()
        assert device.effective_train_flops == cap.compute_flops
        assert device.memory_bytes == cap.memory_bytes


class TestModelPool:
    WIDTHS = {"x1.00": {"width_mult": 1.0}, "x0.75": {"width_mult": 0.75},
              "x0.50": {"width_mult": 0.5}, "x0.25": {"width_mult": 0.25}}

    @pytest.fixture(scope="class")
    def pool(self):
        base = build_model("resnet18", num_classes=10, seed=0)
        return ModelPool.from_variants(base, self.WIDTHS)

    def test_ordered_by_flops(self, pool):
        flops = [e.stats.flops_per_sample for e in pool]
        assert flops == sorted(flops)
        assert pool.smallest.key == "x0.25"
        assert pool.largest.key == "x1.00"

    def test_get_by_key(self, pool):
        assert pool.get("x0.50").proportion == 0.5
        with pytest.raises(KeyError):
            pool.get("x0.33")

    def test_build_reconstructs_variant(self, pool):
        model = pool.get("x0.50").build(pool.base_model)
        assert model.num_parameters() == \
            pool.base_model.variant(width_mult=0.5).num_parameters()

    def test_time_constrained_selection_monotone(self, pool):
        """The product's selection: a looser round deadline never gives a
        client a smaller model, and an unbounded one gives everyone the
        full model."""
        fleet = sample_fleet(4, seed=0)

        def assign(deadline_s):
            spec = ConstraintSpec(constraints=("computation",),
                                  round_deadline_s=deadline_s)
            return ConstraintAssigner(spec, pool, fleet,
                                      [200] * len(fleet)).assign()

        tight, loose = assign(5.2), assign(1e9)
        assert [e.key for e in loose] == ["x1.00"] * len(fleet)
        assert any(e.key != "x1.00" for e in tight)
        assert all(t.stats.flops_per_sample <= l.stats.flops_per_sample
                   for t, l in zip(tight, loose))

    def test_empty_pool_rejected(self):
        base = build_model("resnet18", num_classes=10, seed=0)
        with pytest.raises(ValueError):
            ModelPool(base, [])

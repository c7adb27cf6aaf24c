"""Tests for constraint specs, budget-driven assignment and scenarios."""

import numpy as np
import pytest

from repro.constraints import (AVAILABILITY_KINDS, ConstraintSpec,
                               ConstraintAssigner, build_scenario)
from repro.data import load_dataset, partition_dataset
from repro.fl import AVAILABILITY_MODELS, make_availability
from repro.hw import DEFAULT_COST_MODEL, sample_fleet
from repro.models import build_model
from repro.algorithms import get_algorithm

_POOL_KEYS = ("x0.25", "x0.50", "x0.75", "x1.00")
_CONSTRAINT_COMBOS = (("computation",), ("communication",), ("memory",),
                      ("computation", "communication", "memory"))


@pytest.fixture(scope="module")
def setup():
    ds = load_dataset("harbox", seed=0, num_users=12, samples_per_user=10,
                      test_size=60)
    fleet = sample_fleet(12, seed=1)
    shards = partition_dataset(ds, 12, seed=2)
    base = build_model("har_cnn", num_classes=ds.num_classes, seed=0)
    pool = get_algorithm("sheterofl").build_pool(base)
    return ds, fleet, shards, base, pool


class TestSpec:
    def test_unknown_constraint_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSpec(constraints=("bandwidth",))

    @pytest.mark.parametrize("field,value", [
        ("deadline_quantile", 1.5), ("comm_quantile", -0.1),
        ("round_deadline_s", -1.0), ("comm_budget_s", 0.0),
        ("memory_headroom", 0.0)])
    def test_budgets_out_of_range_are_refused_by_name(self, field, value):
        """A negative deadline would put every client at the smallest
        level; a quantile past 1 used to fail inside numpy, unnamed."""
        with pytest.raises(ValueError, match=field):
            ConstraintSpec(**{field: value})

    def test_label(self):
        spec = ConstraintSpec(constraints=("memory", "communication"))
        assert spec.label == "mem+comm"
        assert ConstraintSpec(constraints=()).label == "none"

    def test_availability_kinds_are_the_registry(self):
        assert AVAILABILITY_KINDS == tuple(AVAILABILITY_MODELS)

    @pytest.mark.parametrize("kind", AVAILABILITY_KINDS)
    def test_every_availability_kind_builds_its_model(self, kind):
        execution = ConstraintSpec(availability=kind).execution_config()
        assert execution.availability == kind
        model = make_availability(kind, 6, seed=0)
        assert type(model) is AVAILABILITY_MODELS[kind]


class TestAssigner:
    def _assigner(self, setup, **spec_kwargs):
        ds, fleet, shards, base, pool = setup
        spec = ConstraintSpec(**spec_kwargs)
        return ConstraintAssigner(spec, pool, fleet,
                                  [len(s) for s in shards])

    def test_computation_assignment_monotone_in_compute(self, setup):
        """Faster devices get models at least as large."""
        ds, fleet, shards, base, pool = setup
        assigner = self._assigner(setup, constraints=("computation",))
        entries = assigner.assign()
        order = np.argsort([c.compute_flops for c in fleet])
        flops = [entries[i].stats.flops_per_sample for i in order]
        shard_sizes = [len(shards[i]) for i in order]
        # With equal shards, assignment is monotone; allow shard-size noise.
        big_and_slow = flops[0]
        big_and_fast = flops[-1]
        assert big_and_fast >= big_and_slow

    def test_computation_produces_heterogeneity(self, setup):
        assigner = self._assigner(setup, constraints=("computation",))
        keys = {e.key for e in assigner.assign()}
        assert len(keys) > 1, "constraint should yield mixed levels"

    def test_tight_deadline_shrinks_everyone(self, setup):
        assigner = self._assigner(setup, constraints=("computation",),
                                  round_deadline_s=1e-9)
        assert all(e.key == "x0.25" for e in assigner.assign())

    def test_loose_deadline_gives_largest(self, setup):
        assigner = self._assigner(setup, constraints=("computation",),
                                  round_deadline_s=1e9)
        assert all(e.key == "x1.00" for e in assigner.assign())

    def test_memory_respects_tiers(self, setup):
        ds, fleet, shards, base, pool = setup
        assigner = self._assigner(setup, constraints=("memory",))
        entries = assigner.assign()
        by_tier = {}
        for cap, entry in zip(fleet, entries):
            by_tier.setdefault(cap.tier, set()).add(entry.proportion)
        if "16gb_gpu" in by_tier and "no_gpu" in by_tier:
            assert max(by_tier["16gb_gpu"]) >= max(by_tier["no_gpu"])

    def test_combination_is_intersection(self, setup):
        single = self._assigner(setup, constraints=("computation",)).assign()
        combo = self._assigner(
            setup, constraints=("computation", "memory")).assign()
        for s, c in zip(single, combo):
            assert c.stats.flops_per_sample <= s.stats.flops_per_sample + 1e-9

    def test_homogeneous_assignment_uniform_and_feasible(self, setup):
        assigner = self._assigner(setup, constraints=("computation",))
        entries = assigner.assign_homogeneous()
        assert len({e.key for e in entries}) == 1
        hetero = assigner.assign()
        # The common model can be no larger than anyone's individual pick.
        assert all(entries[0].stats.flops_per_sample
                   <= e.stats.flops_per_sample + 1e-9 for e in hetero)

    def test_budget_resolution_quantile(self, setup):
        assigner = self._assigner(setup, constraints=("computation",),
                                  deadline_quantile=0.5)
        assert assigner.round_deadline_s is not None
        assert assigner.comm_budget_s is None

    def test_mismatched_fleet_rejected(self, setup):
        ds, fleet, shards, base, pool = setup
        with pytest.raises(ValueError):
            ConstraintAssigner(ConstraintSpec(), pool, fleet, [1, 2])

    @pytest.mark.parametrize("key", _POOL_KEYS)
    def test_comm_time_is_the_cost_model_formula(self, setup, key):
        """Bit-identical to the download + upload payload formula."""
        ds, fleet, shards, base, pool = setup
        assigner = self._assigner(setup, constraints=("communication",))
        entry = pool.get(key)
        payload = entry.stats.param_bytes
        for cap, shard in zip(fleet, shards):
            got = assigner._comm_time(entry, cap, len(shard))
            assert got == DEFAULT_COST_MODEL.communication_time_s(
                entry.stats, cap.as_device())
            assert got == payload / cap.downlink_bps \
                + payload / cap.uplink_bps

    def test_tight_comm_budget_shrinks_everyone(self, setup):
        assigner = self._assigner(setup, constraints=("communication",),
                                  comm_budget_s=1e-9)
        assert all(e.key == "x0.25" for e in assigner.assign())

    def test_loose_comm_budget_gives_largest(self, setup):
        assigner = self._assigner(setup, constraints=("communication",),
                                  comm_budget_s=1e9)
        assert all(e.key == "x1.00" for e in assigner.assign())

    def test_comm_budget_resolution_quantile(self, setup):
        ds, fleet, shards, base, pool = setup
        assigner = self._assigner(setup, constraints=("communication",),
                                  comm_quantile=0.5)
        assert assigner.round_deadline_s is None
        times = [assigner._comm_time(pool.largest, cap, len(shard))
                 for cap, shard in zip(fleet, shards)]
        assert min(times) <= assigner.comm_budget_s <= max(times)
        assert assigner.comm_budget_s == float(np.quantile(times, 0.5))

    def test_comm_assignment_monotone_in_link_time(self, setup):
        """Every client's transfer time scales with the same payload, so a
        client with a faster link never gets a smaller model."""
        ds, fleet, shards, base, pool = setup
        entries = self._assigner(setup,
                                 constraints=("communication",)).assign()
        seconds_per_byte = [1 / c.downlink_bps + 1 / c.uplink_bps
                            for c in fleet]
        order = np.argsort(seconds_per_byte)   # fastest link first
        flops = [entries[i].stats.flops_per_sample for i in order]
        assert all(a >= b for a, b in zip(flops, flops[1:]))

    @pytest.mark.parametrize("constraints", _CONSTRAINT_COMBOS,
                             ids=lambda c: "+".join(c))
    def test_assignment_is_largest_feasible(self, setup, constraints):
        """Each client gets the largest feasible entry, or the smallest
        when nothing fits — Section IV's selection rule."""
        ds, fleet, shards, base, pool = setup
        assigner = self._assigner(setup, constraints=constraints)
        for cap, shard, entry in zip(fleet, shards, assigner.assign()):
            feasible = [e for e in pool.entries
                        if assigner.feasible(e, cap, len(shard))]
            if feasible:
                assert entry is feasible[-1]
            else:
                assert entry is pool.smallest


class TestScenario:
    def test_build_scenario_wires_everything(self, setup):
        ds, fleet, shards, base, pool = setup
        spec = ConstraintSpec(constraints=("computation",))
        scenario = build_scenario("sheterofl", base, ds, 12, spec, seed=0)
        assert scenario.algorithm.num_clients == 12
        dist = scenario.level_distribution()
        assert sum(dist.values()) == 12

    def test_homogeneous_baseline_scenario(self, setup):
        ds, fleet, shards, base, pool = setup
        spec = ConstraintSpec(constraints=("computation",))
        scenario = build_scenario("fedavg_smallest", base, ds, 12, spec,
                                  seed=0)
        assert len(scenario.level_distribution()) == 1

    def test_base_model_overrides_applied(self, setup):
        ds, fleet, shards, base, pool = setup
        spec = ConstraintSpec(constraints=("memory",))
        scenario = build_scenario("depthfl", base, ds, 12, spec, seed=0)
        # DepthFL's server model owns a head at every stage boundary.
        heads = [n for n in scenario.algorithm.global_state
                 if n.startswith("heads.")]
        stages = {n.split(".")[1] for n in heads}
        assert stages == {"0", "1", "2", "3"}

    def test_depthfl_memory_punished(self, setup):
        """The Figure 6 mechanism: DepthFL's memory-heavy variants are
        infeasible on small tiers, forcing small depth fractions."""
        ds, fleet, shards, base, pool = setup
        spec = ConstraintSpec(constraints=("memory",))
        depth = build_scenario("depthfl", base, ds, 12, spec, seed=0)
        width = build_scenario("sheterofl", base, ds, 12, spec, seed=0)
        mean_prop = lambda s: np.mean(  # noqa: E731
            [e.proportion for e in
             (s.algorithm.clients[i].entry for i in range(12))])
        assert mean_prop(depth) <= mean_prop(width) + 1e-9

    @pytest.mark.xfail(strict=True, reason=(
        "the memory case collapses to two levels: a fixed framework "
        "overhead dominates the tiny models FL runs train, so every level "
        "needs most of the largest one's memory and every client below the "
        "16 GB tier falls back to the smallest level (ROADMAP: Price every "
        "cost axis on the paper's model)"))
    @pytest.mark.parametrize("algorithm", ["sheterofl", "depthfl", "fedepth"])
    def test_memory_case_spreads_levels(self, algorithm):
        """The memory twin of the computation case's heterogeneity: under
        default tiers on the demo fleet, at least three distinct levels."""
        from repro.experiments import RunSpec
        from repro.experiments.runner import prepare_scenario
        spec = RunSpec(algorithm=algorithm, dataset="cifar100",
                       constraints=ConstraintSpec(constraints=("memory",)),
                       scale="demo", seed=0)
        scenario, _ = prepare_scenario(spec)
        levels = {ctx.entry.key
                  for ctx in scenario.algorithm.clients.values()}
        assert len(levels) >= 3, sorted(levels)

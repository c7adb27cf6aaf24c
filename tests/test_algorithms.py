"""Integration tests: every algorithm trains, aggregates and improves."""

import numpy as np
import pytest

from repro.data import load_dataset, partition_dataset
from repro.fl import LocalTrainConfig, SimulationConfig, run_simulation
from repro.hw import sample_fleet
from repro.models import build_model, known_architectures
from repro.algorithms import (ALGORITHMS, MHFL_ALGORITHMS, get_algorithm,
                              assign_levels_uniformly, WIDTH_LEVELS)

from reference_round import run_round


@pytest.fixture(scope="module")
def task():
    ds = load_dataset("harbox", seed=0, num_users=16, samples_per_user=16,
                      test_size=120)
    fleet = sample_fleet(16, seed=1)
    shards = partition_dataset(ds, 16, seed=2)
    return ds, fleet, shards


def _build(name, task, arch="har_cnn", **algo_kwargs):
    ds, fleet, shards = task
    cls = ALGORITHMS[name]
    base = build_model(arch, num_classes=ds.num_classes, seed=0,
                       **cls.base_model_overrides)
    pool = cls.build_pool(base)
    clients = assign_levels_uniformly(pool, fleet, ds, shards)
    if cls.level == "homogeneous":
        for ctx in clients:
            ctx.entry = pool.smallest
    config = LocalTrainConfig(batch_size=16, local_epochs=1, max_batches=3)
    return cls(base, ds, clients, train_config=config, pool=pool,
               **algo_kwargs)


class TestRegistry:
    def test_all_nine_registered(self):
        assert len(ALGORITHMS) == 9
        assert len(MHFL_ALGORITHMS) == 8

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_algorithm("fedsgd")


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestEveryAlgorithm:
    def test_runs_and_records(self, name, task):
        algo = _build(name, task)
        sim = SimulationConfig(num_rounds=4, sample_ratio=0.25, eval_every=2,
                               seed=0)
        history = run_simulation(algo, sim)
        assert len(history.records) == 4
        assert history.total_sim_time_s > 0
        assert 0.0 <= history.final_accuracy <= 1.0
        assert len(history.final_device_accuracies) > 0

    def test_round_time_positive(self, name, task):
        algo = _build(name, task)
        ctx = next(iter(algo.clients.values()))
        assert algo.client_round_time_s(ctx) > 0

    def test_fleet_round_time_quantile_brackets_fleet(self, name, task):
        algo = _build(name, task)
        times = [algo.client_round_time_s(ctx)
                 for ctx in algo.clients.values()]
        assert algo.fleet_round_time_quantile(0.0) == min(times)
        assert algo.fleet_round_time_quantile(1.0) == max(times)
        quantiles = [algo.fleet_round_time_quantile(q)
                     for q in (0.2, 0.5, 0.8)]
        assert quantiles == sorted(quantiles)
        assert min(times) <= quantiles[0] and quantiles[-1] <= max(times)


class TestAggregationSemantics:
    def test_sheterofl_only_touched_coords_change(self, task):
        algo = _build("sheterofl", task)
        before = {k: v.copy() for k, v in algo.global_state.items()}
        rng = np.random.default_rng(0)
        # One sampled client at x0.25: only the prefix block may change.
        small_id = next(cid for cid, ctx in algo.clients.items()
                        if ctx.entry.overrides.get("width_mult") == 0.25)
        run_round(algo, 0, [small_id], rng)
        name = "stages.3.0.conv.weight"
        mult = 0.25
        out_dim = algo.global_state[name].shape[0]
        cut = max(1, int(round(out_dim * mult)))
        np.testing.assert_array_equal(algo.global_state[name][cut:],
                                      before[name][cut:])
        assert not np.array_equal(algo.global_state[name][:cut],
                                  before[name][:cut])

    def test_fedrolex_window_advances(self, task):
        algo = _build("fedrolex", task)
        assert algo.rolling_shift(0) == 0
        assert algo.rolling_shift(7) == 7

    def test_fjord_samples_within_budget(self, task):
        algo = _build("fjord", task)
        rng = np.random.default_rng(0)
        ctx = next(ctx for ctx in algo.clients.values()
                   if ctx.entry.overrides.get("width_mult") == 0.5)
        widths = {algo.client_overrides(ctx, r, rng)["width_mult"]
                  for r in range(30)}
        assert widths <= {0.25, 0.5}
        assert len(widths) > 1  # actually samples

    def test_depthfl_variant_space_has_all_heads(self, task):
        ds, _, _ = task
        cls = ALGORITHMS["depthfl"]
        base = build_model("har_cnn", num_classes=ds.num_classes, seed=0,
                           **cls.base_model_overrides)
        for overrides in cls.variant_space(base).values():
            assert overrides["head_mode"] == "all"

    def test_fedepth_uploads_only_segment(self, task):
        algo = _build("fedepth", task)
        ctx = next(ctx for ctx in algo.clients.values()
                   if ctx.entry.key == "seg1")
        rng = np.random.default_rng(0)
        _, (level, _, segment) = algo.build_client_model(ctx, round_index=0,
                                                         rng=rng)
        keep = algo.upload_names(algo._level_model(level)[2], segment)
        stage_names = {n for n in keep if n.startswith("stages.")}
        stages_present = {n.split(".")[1] for n in stage_names}
        assert len(stages_present) == 1  # exactly one stage uploaded

    def test_fedepth_segment_rotates(self, task):
        algo = _build("fedepth", task)
        ctx = next(ctx for ctx in algo.clients.values()
                   if ctx.entry.key == "seg1")
        segments = {tuple(algo._segment_stages(ctx, r)) for r in range(8)}
        assert len(segments) > 1

    def test_fedavg_requires_homogeneous(self, task):
        ds, fleet, shards = task
        cls = ALGORITHMS["fedavg_smallest"]
        base = build_model("har_cnn", num_classes=ds.num_classes, seed=0)
        pool = cls.build_pool(base)
        clients = assign_levels_uniformly(pool, fleet, ds, shards)  # mixed!
        algo = cls(base, ds, clients, pool=pool)
        with pytest.raises(ValueError, match="homogeneous"):
            _global_accuracy(algo)


class TestTopologyAlgorithms:
    def test_fedproto_personal_models_persist(self, task):
        """An idle client's vector is left alone across rounds; a trained
        one's becomes exactly the state its accepted upload carried."""
        algo = _build("fedproto", task)
        rng = np.random.default_rng(0)
        run_round(algo, 0, [0, 1], rng)
        idle, before = algo._personal[1].copy(), algo._personal[0].copy()
        applied = []
        apply = algo.apply_client_state

        def recording(client_id, state):
            applied.append((client_id, state.copy()))
            apply(client_id, state)

        algo.apply_client_state = recording
        run_round(algo, 1, [0], rng)
        assert [cid for cid, _ in applied] == [0]
        assert np.array_equal(algo._personal[0], applied[0][1])
        assert not np.array_equal(algo._personal[0], before)
        assert np.array_equal(algo._personal[1], idle)

    def test_fedproto_prototypes_update(self, task):
        algo = _build("fedproto", task)
        rng = np.random.default_rng(0)
        assert not algo._proto_valid.any()
        run_round(algo, 0, [0, 1, 2, 3], rng)
        assert algo._proto_valid.any()
        assert np.abs(algo.global_protos).sum() > 0

    def test_fedproto_payload_is_prototypes(self, task):
        algo = _build("fedproto", task)
        ctx = next(iter(algo.clients.values()))
        down, up = algo.client_payload_bytes(ctx)
        assert down == algo.global_protos.nbytes
        assert up < ctx.entry.stats.param_bytes  # far cheaper than weights

    @pytest.mark.parametrize("dataset", [
        "cifar10", "cifar100", "stackoverflow", "harbox", "ucihar",
        pytest.param("agnews", marks=pytest.mark.xfail(strict=True, reason=(
            "FedET takes the variant space's last key; on the width "
            "fallback that is x0.25 (4 756 parameters), not x1.00 "
            "(43 588)")))])
    def test_fedet_server_model_is_largest(self, dataset):
        from repro.experiments import RunSpec
        from repro.experiments.runner import prepare_scenario
        algo = prepare_scenario(
            RunSpec("fedet", dataset, scale="smoke"))[0].algorithm
        sizes = [entry.layout.size for entry in algo.pool.entries]
        assert algo._server()[1].size == max(sizes)

    @pytest.mark.parametrize("name", ["fedproto", "fedet"])
    def test_topology_methods_hold_no_global_vector(self, name, task):
        """Knowledge, not parameters, is exchanged: a topology method has
        no global model to slice, so nothing resolves an upload."""
        algo = _build(name, task)
        run_round(algo, 0, [0, 1], np.random.default_rng(0))
        for member in ("global_vector", "layout", "resolve_upload"):
            assert not hasattr(algo, member), member

    @pytest.mark.parametrize("arch", known_architectures())
    def test_zoo_models_draw_no_dropout_masks(self, arch):
        """Fed-ET distils its server in the level skeleton clients train
        in; that shares no mask stream only while no model drops."""
        from repro import nn
        model = build_model(arch, num_classes=4, seed=0)
        rates = [module.p for _, module in model.named_modules()
                 if isinstance(module, nn.Dropout)]
        assert all(p == 0.0 for p in rates), rates

    def test_fedet_consensus_formed(self, task):
        algo = _build("fedet", task)
        rng = np.random.default_rng(0)
        run_round(algo, 0, [0, 1], rng)
        assert algo._consensus is not None
        assert algo._consensus.shape == (len(algo.x_public),
                                         algo.dataset.num_classes)
        np.testing.assert_allclose(algo._consensus.sum(axis=1), 1.0,
                                   rtol=1e-4)

    def test_topology_variant_space_families(self, task):
        ds, _, _ = task
        base = build_model("resnet18", num_classes=ds.num_classes, seed=0)
        space = ALGORITHMS["fedproto"].variant_space(base)
        assert set(space) == {"resnet18", "resnet34", "resnet50", "resnet101"}
        # Fallback for family-less architectures.
        text = build_model("transformer", num_classes=4, seed=0)
        fallback = ALGORITHMS["fedproto"].variant_space(text)
        assert len(fallback) == len(WIDTH_LEVELS)


class TestLearning:
    @pytest.mark.parametrize("name", ["sheterofl", "fedepth", "depthfl"])
    def test_improves_over_initial(self, name, task):
        ds, fleet, shards = task
        cls = ALGORITHMS[name]
        base = build_model("har_cnn", num_classes=ds.num_classes, seed=0,
                           **cls.base_model_overrides)
        pool = cls.build_pool(base)
        clients = assign_levels_uniformly(pool, fleet, ds, shards)
        config = LocalTrainConfig(batch_size=8, local_epochs=2, max_batches=4)
        algo = cls(base, ds, clients, train_config=config, pool=pool)
        initial = _global_accuracy(algo)
        sim = SimulationConfig(num_rounds=25, sample_ratio=0.4, eval_every=5,
                               seed=0)
        history = run_simulation(algo, sim)
        # Chance on harbox is 0.2; all three must clearly beat it and their
        # own initialisation (verified margins: >=0.41 at these settings).
        best = max(r.global_accuracy for r in history.evaluated)
        assert best > initial + 0.05
        assert best > 0.3


def _global_accuracy(algo):
    """The live state's global accuracy, scored in this process."""
    tasks, read = algo.evaluation(True, False)
    return read([algo.score(task, algo.eval_vector(task))
                 for task in tasks])[0]


def _device_accuracies(algo):
    """Each evaluation client's accuracy, scored in this process."""
    tasks, read = algo.evaluation(False, True)
    return read([algo.score(task, algo.eval_vector(task))
                 for task in tasks])[1]


def _counting(fn, calls):
    """``fn`` wrapped so every call appends its first argument to ``calls``."""
    def wrapper(first, *args, **kwargs):
        calls.append(first)
        return fn(first, *args, **kwargs)
    return wrapper


def _payload_arrays(payload):
    return payload if isinstance(payload, tuple) else (payload,)


class TestFedETBuildsOnce:
    """``variant`` re-invokes the constructor from the recorded kwargs, so
    one call with the level's overrides *and* the client seed is the same
    construction as building the level and re-seeding it."""

    @pytest.mark.parametrize("arch,num_classes", [("mobilenet_v2", 10),
                                                  ("transformer", 4)])
    def test_single_build_equals_two_step_build(self, arch, num_classes):
        from types import SimpleNamespace
        cls = ALGORITHMS["fedet"]
        base = build_model(arch, num_classes=num_classes, seed=0)
        space = cls.variant_space(base)
        assert len(space) >= 3
        for client_id, overrides in enumerate(space.values(), start=5):
            ctx = SimpleNamespace(client_id=client_id,
                                  entry=SimpleNamespace(overrides=overrides))
            new = cls._build_personal(SimpleNamespace(base_model=base), ctx)
            two_step = base.variant(**overrides).variant(
                seed=2000 + client_id)
            assert type(new) is type(two_step)
            new_state, old_state = new.state_dict(), two_step.state_dict()
            assert list(new_state) == list(old_state)
            for key, value in old_state.items():
                assert np.array_equal(new_state[key], value), key


class TestEvaluateOncePerDeployment:
    """Evaluation results are reused only while they cannot have changed."""

    def test_fedproto_reevaluates_exactly_the_clients_it_updated(
            self, task):
        from repro.fl.evaluate import accuracy
        calls = []

        def recording(algorithm):
            score = algorithm.score

            def counting(task, vector):
                calls.append(task[2])
                return score(task, vector)

            algorithm.score = counting
            return algorithm

        algo = recording(_build("fedproto", task))
        eval_ids = algo._eval_ids()

        def fresh(algorithm):
            return [accuracy(algorithm.personal_model(algorithm.clients[cid]),
                             algorithm.x_eval, algorithm.y_eval)
                    for cid in eval_ids]

        assert _device_accuracies(algo) == fresh(algo)
        assert len(calls) == len(eval_ids)

        # A round over two evaluation clients and one that is never
        # evaluated: only the first two are looked at again.
        outsider = next(cid for cid in sorted(algo.clients)
                        if cid not in eval_ids)
        calls.clear()
        run_round(algo, 0, [eval_ids[0], eval_ids[1], outsider],
                  np.random.default_rng(0))
        after_round = _device_accuracies(algo)
        assert after_round == fresh(algo)
        assert calls == [eval_ids[0], eval_ids[1]]
        calls.clear()
        assert _device_accuracies(algo) == after_round
        assert _global_accuracy(algo) == float(np.mean(after_round))
        assert calls == []

        # A restored checkpoint rewrites personal vectors: nothing evaluated
        # before it may be trusted.
        other = recording(_build("fedproto", task))
        _device_accuracies(other)
        calls.clear()
        other.restore_checkpoint_state(algo.checkpoint_state())
        assert _device_accuracies(other) == after_round
        assert calls == eval_ids

    @pytest.mark.parametrize("name", ["sheterofl", "fedrolex", "fjord",
                                      "depthfl", "fedepth", "inclusivefl"])
    def test_sliced_fan_out_equals_evaluating_every_client(self, name, task,
                                                           monkeypatch):
        from repro.algorithms import base
        from repro.fl.evaluate import accuracy
        algo = _build(name, task, eval_clients=16)
        run_round(algo, 0, [0, 1, 2, 3, 5], np.random.default_rng(0))
        resolved = []
        resolve = algo.client_overrides

        def recording(ctx, round_index, rng):
            overrides = resolve(ctx, round_index, rng)
            resolved.append((ctx.client_id, tuple(sorted(overrides.items()))))
            return overrides

        algo.client_overrides = recording

        # The parent's loop: every evaluation client built and evaluated.
        rng = np.random.default_rng(0)
        expected = []
        for client_id in algo._eval_ids():
            model, _ = algo.build_client_model(algo.clients[client_id],
                                               round_index=0, rng=rng)
            expected.append(accuracy(model, algo.x_eval, algo.y_eval))
        expected_resolved, resolved[:] = list(resolved), []

        calls = []
        monkeypatch.setattr(base, "accuracy", _counting(accuracy, calls))
        assert _device_accuracies(algo) == expected
        # Fjord draws its width from the generator on every call: skipping
        # one build would shift every later client's draw.
        assert resolved == expected_resolved
        assert len(resolved) == len(algo._eval_ids()) == 16
        distinct = {key for _, key in resolved}
        assert len(calls) == len(distinct) < 16


def _bound_to_one_buffer(model) -> bool:
    """Every parameter and buffer of ``model`` is a view of one array."""
    arrays = [p.data for p in model.parameters()]
    arrays += [buf for _, buf in model.named_buffers()]
    base = arrays[0].base
    return base is not None and all(a.base is base for a in arrays)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_skeletons_stay_bound_through_run_client(name, task):
    """Training adopts a skeleton's state buffer instead of detaching its
    views: after a client round every level model is still one buffer."""
    algo = _build(name, task)
    for cid in sorted(algo.clients)[:4]:
        algo.run_client(cid, 0, np.random.default_rng((0, 0, cid)))
    assert algo._client_models
    for model, buffer, _ in algo._client_models.values():
        assert _bound_to_one_buffer(model)
        assert all(p.data.base is buffer for p in model.parameters())


def test_fedepth_frozen_entries_survive_training(task):
    """The optimiser holds every parameter, frozen ones included, and
    leaves those without a gradient bit-identical."""
    algo = _build("fedepth", task)
    cid = next(cid for cid, ctx in sorted(algo.clients.items())
               if ctx.entry.key == "seg1")
    update = algo.run_client(cid, 0, np.random.default_rng((0, 0, cid)))
    model, buffer, layout = algo._level_model(update.payload[1][0])
    trained = layout.views(buffer)
    start = algo.global_state
    frozen = [n for n, p in model.named_parameters() if not p.requires_grad]
    assert frozen
    for name in frozen:
        assert np.array_equal(trained[name], start[name]), name
    assert any(not np.array_equal(trained[n], start[n])
               for n, p in model.named_parameters() if p.requires_grad)


class TestTrainingSkeleton:
    """One training model per capacity level, nothing carried over."""

    @pytest.mark.parametrize("name", ["fedproto", "fedet"])
    def test_second_client_trains_as_if_first_never_ran(self, name, task,
                                                        monkeypatch):
        from repro.models.base import SliceableModel
        algo, lone = _build(name, task), _build(name, task)
        by_level = {}
        for cid, ctx in sorted(algo.clients.items()):
            by_level.setdefault(ctx.entry.key, []).append(cid)
        first, second = next(ids[:2] for ids in by_level.values()
                             if len(ids) >= 2)
        level = tuple(sorted(algo.clients[first].entry.overrides.items()))
        for cid in (first, second):     # personal vectors exist already
            algo._vector(algo.clients[cid])
        lone._vector(lone.clients[second])

        variants = []
        monkeypatch.setattr(SliceableModel, "variant",
                            _counting(SliceableModel.variant, variants))
        algo.run_client(first, 0, np.random.default_rng((0, 0, first)))
        update = algo.run_client(
            second, 0, np.random.default_rng((0, 0, second)))
        assert len(variants) == 1       # the level's skeleton, built once
        assert list(algo._client_models) == [level]
        assert all(p.grad is None
                   for p in algo._client_models[level][0].parameters())

        expected = lone.run_client(
            second, 0, np.random.default_rng((0, 0, second)))
        state, expected_state = update.client_state, expected.client_state
        assert state.dtype == expected_state.dtype
        assert np.array_equal(state, expected_state)
        assert (update.train_loss, update.weight) == (
            expected.train_loss, expected.weight)
        for got, want in zip(_payload_arrays(update.payload),
                             _payload_arrays(expected.payload), strict=True):
            assert np.array_equal(got, want)

    def test_skeleton_is_not_the_deployed_model(self, task):
        """Training must not move what evaluation reads until the upload
        is applied."""
        algo = _build("fedproto", task)
        ctx = algo.clients[0]
        vector = algo._vector(ctx).copy()
        deployed = algo.personal_model(ctx).state_dict()
        trained = algo.run_client(0, 0,
                                  np.random.default_rng(0)).client_state
        assert np.array_equal(algo._personal[0], vector)
        for key, value in algo.personal_model(ctx).state_dict().items():
            assert np.array_equal(value, deployed[key]), key

        algo.apply_client_state(0, trained)
        assert not np.array_equal(algo._personal[0], vector)
        views = algo._skeleton(0)[2].views(algo._personal[0])
        for key, value in algo.personal_model(ctx).state_dict().items():
            assert np.array_equal(value, views[key]), key


class TestPersonalVectors:
    """A personal model is one float32 vector laid out like its level."""

    @pytest.mark.parametrize("name", ["fedproto", "fedet"])
    def test_transport_is_one_vector(self, name, task):
        algo = _build(name, task)
        broadcast = algo.pack_broadcast(3, 0)
        trained = algo.run_client(3, 0, np.random.default_rng((0, 0, 3)),
                                  broadcast=broadcast).client_state
        size = algo._skeleton(3)[2].size
        for vector in (broadcast["personal"], trained):
            assert type(vector) is np.ndarray
            assert (vector.ndim, vector.dtype, vector.size) == (
                1, np.float32, size)
        assert broadcast["personal"] is not algo._personal[3]
        assert not np.array_equal(trained, broadcast["personal"])

    @pytest.mark.parametrize("name", ["fedproto", "fedet"])
    def test_trained_state_leaves_only_as_the_return_value(self, name, task):
        """Clients trained but never absorbed leave the coordinator as it
        was: no deployed vector, checkpoint entry or side table moves."""
        import json
        from repro.fl.serialization import encode_payload
        algo = _build(name, task)
        ids = sorted(algo.clients)[:4]
        for cid in ids:     # personal vectors and level skeletons exist
            algo._vector(algo.clients[cid])
            algo._skeleton(cid)

        def snapshot():
            return ({cid: v.copy() for cid, v in algo._personal.items()},
                    json.dumps(encode_payload(algo.checkpoint_state())),
                    {key: len(value) for key, value in vars(algo).items()
                     if isinstance(value, dict)})

        personal, checkpoint, sizes = snapshot()
        for cid in ids:
            broadcast = algo.pack_broadcast(cid, 0)
            trained = algo.run_client(
                cid, 0, np.random.default_rng((0, 0, cid)),
                broadcast=broadcast).client_state
            assert not np.array_equal(trained, broadcast["personal"])
        after, after_checkpoint, after_sizes = snapshot()
        assert list(after) == list(personal)
        assert all(np.array_equal(after[cid], personal[cid])
                   for cid in personal)
        assert after_checkpoint == checkpoint
        assert after_sizes == sizes

    @pytest.mark.parametrize("name", ["fedproto", "fedet"])
    def test_a_checkpoint_of_state_dicts_restores(self, name, task):
        """Personal models are written as per-client ``name -> array``
        maps, as they were while each was a module: such a snapshot
        restores to the same deployed models."""
        from repro.fl.serialization import decode_payload, encode_payload
        algo = _build(name, task)
        run_round(algo, 0, sorted(algo.clients)[:6],
                  np.random.default_rng(0))
        expected = _device_accuracies(algo)
        state = algo.checkpoint_state()
        by_module = {cid: algo.personal_model(algo.clients[cid]).state_dict()
                     for cid in algo._personal}
        assert list(state["personal"]) == list(by_module)
        for cid, entries in by_module.items():
            assert list(state["personal"][cid]) == list(entries)
            for key, value in entries.items():
                assert np.array_equal(state["personal"][cid][key], value)
        state["personal"] = by_module
        other = _build(name, task)
        _device_accuracies(other)
        other.restore_checkpoint_state(decode_payload(encode_payload(state)))
        assert _device_accuracies(other) == expected

    def test_fedet_server_accuracy_is_fresh_every_round(self, task):
        """Fed-ET's global task is its server model, which every round's
        distillation moves: the device accuracies scored beside it are
        kept, the server's never is, so round two reads round two's
        server."""
        algo = _build("fedet", task)
        server = algo.global_task()
        for round_index in range(2):
            run_round(algo, round_index, [0, 1, 2],
                      np.random.default_rng(round_index))
            tasks, read = algo.evaluation(True, True)
            assert server in tasks
            accuracy, _ = read([algo.score(t, algo.eval_vector(t))
                                for t in tasks])
            assert accuracy == algo.score(server, algo._server()[0].copy())
            assert server not in algo._accuracies

    def test_fedet_run_records_each_rounds_server(self, task):
        algo = _build("fedet", task)
        ingest, server, fresh = algo.ingest, algo.global_task(), []

        def recording(updates, round_index, rng):
            ingest(updates, round_index, rng)
            fresh.append(algo.score(server, algo._server()[0].copy()))

        algo.ingest = recording
        history = run_simulation(algo, SimulationConfig(
            num_rounds=3, sample_ratio=0.25, eval_every=1, seed=0))
        assert [r.global_accuracy for r in history.records] == fresh

    def test_fedet_server_model_is_one_buffer(self, task):
        algo = _build("fedet", task)
        run_round(algo, 0, [0, 1, 2], np.random.default_rng(0))
        vector, layout = algo._server()
        assert type(vector) is np.ndarray
        assert (vector.ndim, vector.dtype) == (1, np.float32)
        assert vector.size == layout.size \
            == algo._level_model(algo._server_level)[2].size


#: Once every client holds the largest level, these train, aggregate and
#: score exactly what FedAvg does: a full-width slice (prefix or rolling, at
#: any shift) and a whole FeDepth segment are the whole vector.
REDUCES = ("sheterofl", "fedrolex", "fedepth")
#: Methods that, by design, do not reduce to FedAvg on a homogeneous fleet.
DOES_NOT_REDUCE = {
    "fjord": "each client trains a width drawn at or below its own every "
             "round, so a full-width fleet still trains narrower slices",
    "inclusivefl": "momentum distillation adds the deeper blocks' update "
                   "to their shallower same-shaped neighbours after every "
                   "aggregation",
    "depthfl": "every client trains all heads with self-distillation, and "
               "the global accuracy is the ensemble of the heads",
    "fedproto": "there is no global model: clients keep personal models, "
                "exchange class prototypes and are scored one by one",
    "fedet": "clients keep personal models; the scored server model is "
             "distilled from their consensus on a public set",
}


def _unconstrained(name, dataset):
    from repro.constraints import ConstraintSpec
    from repro.experiments import RunSpec, execute_spec
    return execute_spec(RunSpec(algorithm=name, dataset=dataset,
                                constraints=ConstraintSpec(constraints=()),
                                scale="smoke", seed=0), cache=None)


def _without_name(history):
    from repro.fl import history_to_dict
    payload = history_to_dict(history)
    del payload["algorithm"]
    return payload


class TestFedAvgReduction:
    """The oracle: on an unconstrained fleet (every client at the largest
    level) the sliced methods that do not change the objective are
    FedAvg, History for History."""

    @pytest.fixture(scope="class")
    def fedavg(self):
        histories = {}

        def history(dataset):
            if dataset not in histories:
                histories[dataset] = _without_name(_unconstrained(
                    "fedavg_smallest", dataset).history)
            return histories[dataset]

        return history

    def test_every_method_is_named(self):
        assert set(REDUCES) | set(DOES_NOT_REDUCE) | {"fedavg_smallest"} \
            == set(ALGORITHMS)

    @pytest.mark.parametrize("dataset", ["harbox", "cifar10", "agnews"])
    @pytest.mark.parametrize("name", REDUCES)
    def test_reduces_to_fedavg(self, name, dataset, fedavg, monkeypatch):
        from repro.algorithms import base
        from repro.fl.evaluate import accuracy
        reference = fedavg(dataset)
        calls = []
        monkeypatch.setattr(base, "accuracy", _counting(accuracy, calls))
        result = _unconstrained(name, dataset)
        history = result.history
        assert _without_name(history) == reference
        # Every device deploys the full model the last round scored: the
        # final evaluations reuse that accuracy instead of scoring it again.
        assert history.final_device_accuracies \
            == [history.final_accuracy] * len(history.final_device_accuracies)
        assert len(calls) == sum(record.global_accuracy is not None
                                 for record in history.records)
        # The full level's index is the whole vector at every shift.
        algorithm = result.scenario.algorithm
        level = tuple(sorted(algorithm.clients[0].entry.overrides.items()))
        for shift in range(12):
            assert algorithm.resolve_upload((level, shift, None)).index \
                == slice(0, algorithm.layout.size)

    @pytest.mark.parametrize("name", sorted(DOES_NOT_REDUCE))
    def test_the_others_do_not(self, name, fedavg):
        history = _unconstrained(name, "harbox").history
        assert _without_name(history) != fedavg("harbox"), \
            DOES_NOT_REDUCE[name]


def _repro_subclasses(cls):
    """``cls`` and every subclass the package defines, depth first."""
    found = [cls]
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            found += _repro_subclasses(sub)
    return found


class TestOneClientRound:
    """A client round is written once, returns what the client computed,
    and aggregation hands nothing back."""

    def test_run_client_is_defined_once(self):
        from repro.algorithms import MHFLAlgorithm
        owners = [cls for cls in _repro_subclasses(MHFLAlgorithm)
                  if "run_client" in vars(cls)]
        assert owners == [MHFLAlgorithm]

    def test_result_is_five_fields(self):
        import dataclasses
        from repro.fl.executor import ClientResult
        assert [field.name for field in dataclasses.fields(ClientResult)] \
            == ["train_loss", "weight", "payload", "client_state", "timing"]

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_ingest_returns_nothing(self, name, task):
        algo = _build(name, task)
        results = [algo.run_client(cid, 0, np.random.default_rng((0, 0, cid)))
                   for cid in sorted(algo.clients)[:2]]
        assert algo.ingest(results, 0, np.random.default_rng(0)) is None


@pytest.mark.parametrize("dataset", ["harbox", "cifar10", "agnews"])
@pytest.mark.parametrize("name", sorted(
    name for name, cls in ALGORITHMS.items() if cls.level != "topology"))
def test_pool_layouts_are_the_skeletons(name, dataset):
    """An averaging method resolves uploads against the layouts its pool
    measured: each is exactly the layout of the skeleton its level
    trains in."""
    from repro.constraints import ConstraintSpec
    from repro.experiments import RunSpec
    from repro.experiments.runner import prepare_scenario
    if dataset == "agnews" and not ALGORITHMS[name].supports_nlp:
        pytest.skip(f"{name} does not run NLP tasks")
    algo = prepare_scenario(RunSpec(
        algorithm=name, dataset=dataset,
        constraints=ConstraintSpec(constraints=("computation",)),
        scale="smoke"))[0].algorithm
    for entry in algo.pool.entries:
        level = tuple(sorted(entry.overrides.items()))
        assert entry.layout is not None
        assert entry.layout == algo._level_model(level)[2], entry.key

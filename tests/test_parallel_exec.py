"""Parallel client execution: pure work items, executors, determinism.

The contract under test: a client's local round is a pure function of
``(run_seed, round, client_id)`` plus the broadcast state, so
``run_simulation`` produces **byte-identical**
``History.to_json()`` for either executor (inline / process) and any
worker count; sweeps fan out with identical results; the run cache
tolerates concurrent writers; and every algorithm's uplink payload
round-trips both pickle (pool transport) and the JSON codec.
"""

import gc
import json
import pickle
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro import autograd as ag
from repro import nn
from repro.algorithms import ALGORITHMS
from repro.constraints import ConstraintSpec
from repro.experiments import (RunDefaults, RunSpec, execute_spec,
                               execute_specs, prepare_scenario, run_defaults)
from repro.experiments import runner, variants
from repro.experiments.cache import RunCache
from repro.fl import (ExecutionConfig, InlineExecutor,
                      ProcessExecutor, SimulationConfig,
                      client_rng, execute_work_item,
                      history_to_dict, reseed_dropout, run_simulation,
                      sample_clients)
from repro.fl import aggregation
from repro.fl.aggregation import SERVER_OVERHEAD_S
from repro.fl.executor import (ClientResult, EvalWorkItem, make_executor,
                               make_work_item)
from repro.fl.history import History, RoundRecord
from repro.fl.seeding import client_seed_key

from reference_round import run_round

SMOKE = ConstraintSpec(constraints=("computation",))


def smoke_spec(algorithm="sheterofl", seed=0, workers=None, executor=None,
               execution=None):
    return RunSpec(algorithm=algorithm, dataset="harbox",
                   constraints=SMOKE, scale="smoke", seed=seed,
                   execution=execution, workers=workers, executor=executor)


def run_history(algorithm="sheterofl", workers=None, executor=None,
                execution=None, seed=0) -> str:
    spec = smoke_spec(algorithm, seed=seed, workers=workers,
                      executor=executor, execution=execution)
    return execute_spec(spec, cache=None).history.to_json()


class TestSeeding:
    def test_client_rng_deterministic_and_distinct(self):
        a = client_rng(3, 5, 7).integers(0, 2 ** 31, size=8)
        b = client_rng(3, 5, 7).integers(0, 2 ** 31, size=8)
        assert np.array_equal(a, b)
        for other_key in ((4, 5, 7), (3, 6, 7), (3, 5, 8)):
            other = client_rng(*other_key).integers(0, 2 ** 31, size=8)
            assert not np.array_equal(a, other)

    def test_seed_key_canonical(self):
        assert client_seed_key(1, np.int64(2), np.int64(3)) == (1, 2, 3)

    def test_reseed_dropout_restarts_mask_stream(self):
        class Tiny(nn.Module):
            def __init__(self):
                super().__init__()
                self.drop = nn.Dropout(0.5, seed=3)

        x = np.ones((4, 6), dtype=np.float32)
        tiny = Tiny()
        first = tiny.drop.forward(ag.Tensor(x)).data
        # Advance the stream, then reseed from the same derived generator
        # twice: the masks must repeat exactly.
        tiny.drop.forward(ag.Tensor(x))
        reseed_dropout(tiny, client_rng(0, 1, 2))
        masked_a = tiny.drop.forward(ag.Tensor(x)).data
        reseed_dropout(tiny, client_rng(0, 1, 2))
        masked_b = tiny.drop.forward(ag.Tensor(x)).data
        assert np.array_equal(masked_a, masked_b)
        assert first.shape == masked_a.shape

    def test_no_grad_is_thread_local(self):
        from repro import autograd as ag
        seen = {}
        release = threading.Event()
        inside = threading.Event()

        def holder():
            with ag.no_grad():
                inside.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=holder)
        thread.start()
        assert inside.wait(timeout=5)
        seen["main"] = ag.is_grad_enabled()
        release.set()
        thread.join()
        assert seen["main"] is True


class TestWorkItems:
    @pytest.mark.parametrize("algorithm",
                             ["sheterofl", "fedproto", "fedet"])
    def test_items_and_results_pickle(self, algorithm):
        scenario, _ = prepare_scenario(smoke_spec(algorithm))
        algo = scenario.algorithm
        cid = sorted(algo.clients)[0]
        item = make_work_item(algo, cid, 0, 0, needs_broadcast=True)
        wire = pickle.dumps(item)
        assert pickle.loads(wire).client_id == cid
        # The pool installs the spec once per worker; no item carries it.
        assert b"partition_scheme" not in wire
        result = execute_work_item(item, algo)
        back = pickle.loads(pickle.dumps(result))
        assert (back.train_loss, back.weight) == (result.train_loss,
                                                  result.weight)
        algo.apply_client_state(cid, back.client_state)

    def test_upload_is_values_and_key(self):
        """The parameter-averaging payload is one float32 vector and the
        key of its index — no index map travels — and the key an unpickled
        update carries resolves to the same index."""
        scenario, _ = prepare_scenario(smoke_spec("fedrolex"))
        algo = scenario.algorithm
        cid = sorted(algo.clients)[0]
        update = algo.run_client(cid, 2, client_rng(0, 2, cid))
        values, key = pickle.loads(pickle.dumps(update)).payload
        orig_values, orig_key = update.payload
        assert key == orig_key and key[1] == 2      # the rolling shift
        assert values.dtype == np.float32 and values.ndim == 1
        assert np.array_equal(values, orig_values)
        assert not any(isinstance(part, np.ndarray) for part in key)
        placed = algo.resolve_upload(key)
        assert placed is algo.resolve_upload(orig_key)   # memoised
        assert values.size == placed.bounds[-1]

    def test_inline_matches_injected_broadcast(self):
        """A downlink ``run_client`` packs itself (broadcast=None) and one
        injected by the caller are bit-identical."""
        scenario_a, _ = prepare_scenario(smoke_spec())
        scenario_b, _ = prepare_scenario(smoke_spec())
        cid = sorted(scenario_a.algorithm.clients)[0]
        own = scenario_a.algorithm.run_client(cid, 0, client_rng(0, 0, cid))
        packed = scenario_b.algorithm.run_client(
            cid, 0, client_rng(0, 0, cid),
            broadcast=scenario_b.algorithm.pack_broadcast(cid, 0))
        values_a, key_a = own.payload
        values_b, key_b = packed.payload
        assert own.train_loss == packed.train_loss
        assert key_a == key_b and np.array_equal(values_a, values_b)

    def test_same_version_redispatch_trains_fresh_draw(self):
        """A buffered re-dispatch of the same client at an unchanged
        server version must not replay the first dispatch bit-for-bit
        (it would double-weight one gradient in the buffer)."""
        scenario, _ = prepare_scenario(smoke_spec())
        algo = scenario.algorithm
        cid = sorted(algo.clients)[0]
        first = execute_work_item(
            make_work_item(algo, cid, 0, 0, needs_broadcast=True), algo)
        repeat = execute_work_item(
            make_work_item(algo, cid, 0, 0, needs_broadcast=True,
                           dispatch_index=1), algo)
        replay = execute_work_item(
            make_work_item(algo, cid, 0, 0, needs_broadcast=True), algo)
        # dispatch 0 is reproducible; dispatch 1 is a fresh draw.
        assert replay.train_loss == first.train_loss
        assert repeat.train_loss != first.train_loss

    def test_make_executor_picks_the_kind(self):
        """A pool for ``"process"`` (one worker too) and for ``"auto"``
        above one worker, inline otherwise; a hand-built scenario is no
        exception."""
        algorithm = SimpleNamespace()
        for kind, workers, want in [("auto", 1, InlineExecutor),
                                    ("inline", 4, InlineExecutor),
                                    ("auto", 2, ProcessExecutor),
                                    ("process", 1, ProcessExecutor)]:
            executor = make_executor(algorithm, workers=workers, kind=kind)
            try:
                assert type(executor) is want, (kind, workers)
                assert executor.algorithm is algorithm
            finally:
                executor.close()

    def test_simulation_config_validates_mechanics(self):
        with pytest.raises(ValueError, match="workers"):
            SimulationConfig(workers=0)
        for unknown in ("quantum", "thread"):
            with pytest.raises(ValueError, match="unknown executor"):
                SimulationConfig(executor=unknown)
            with pytest.raises(ValueError, match="unknown executor"):
                smoke_spec(executor=unknown)
        for field in ("num_rounds", "eval_every"):
            for bad in (0, -1):
                with pytest.raises(ValueError, match=field):
                    SimulationConfig(**{field: bad})

    def test_simulation_config_mechanics_reach_the_executor(self, monkeypatch):
        from repro.fl import simulation
        built = {}

        def capture(algorithm, **kwargs):
            built.update(kwargs)
            return make_executor(algorithm, **kwargs)

        monkeypatch.setattr(simulation, "make_executor", capture)
        scenario, _ = prepare_scenario(smoke_spec())
        run_simulation(scenario.algorithm, SimulationConfig(
            num_rounds=1, sample_ratio=0.3, workers=2, executor="process"))
        assert built == {"workers": 2, "kind": "process"}


class TestWorkerCountInvariance:
    """The acceptance contract: byte-identical History JSON for workers
    1 (inline), 2 and 4, through the spec layer, for both runtimes."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_sync_loop(self, algorithm):
        # The pool reorders submission by cost and overlaps the previous
        # round's evaluation; neither may move a byte.
        reference = run_history(algorithm, workers=1, executor="inline")
        assert run_history(algorithm, workers=2, executor="process") \
            == reference
        assert run_history(algorithm, workers=4, executor="process") \
            == reference

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_event_engine_buffered(self, algorithm):
        # Every run is sanitized: a worker writing into its frozen
        # broadcast, or anything drawing from a global RNG, fails here.
        execution = ExecutionConfig(policy="buffered", buffer_size=2,
                                    availability="dropout",
                                    availability_kwargs={"prob": 0.2})
        reference = run_history(algorithm, workers=1, executor="inline",
                                execution=execution)
        assert run_history(algorithm, workers=2, executor="process",
                           execution=execution) == reference

    def test_event_engine_sync_policy(self):
        execution = ExecutionConfig(over_select=0.5, availability="markov")
        reference = run_history("fedepth", workers=1, executor="inline",
                                execution=execution)
        assert run_history("fedepth", workers=3, executor="process",
                           execution=execution) == reference


def _item_name(item):
    return (item.task if isinstance(item, EvalWorkItem)
            else item.client_id)


class _RecordingPool(ProcessExecutor):
    """A pool executor whose pool only logs, in order, each submit and
    each wait on a result."""

    def __init__(self, log):
        self.log = log
        super().__init__(algorithm=None, workers=2)

    def _build_pool(self):
        return None

    def close(self):
        pass

    def _submit_raw(self, item):
        log, name = self.log, _item_name(item)
        log.append(("submit", name))

        class Future:
            def result(self):
                log.append(("await", name))
                return ClientResult(train_loss=0.0, weight=1.0,
                                    payload=name)

        return Future()


class TestRunBatchContract:
    """``run_batch(items, costs)``: the pool starts the largest items
    first, inline runs them in list order.  Both return item order."""

    COSTS = [1.0, 3.0, 2.0, 3.0, 0.0, 2.0]

    def _items(self):
        return [make_work_item(None, cid, 0, 0, needs_broadcast=False)
                for cid in range(len(self.COSTS))]

    def test_pool_submits_largest_first(self):
        log = []
        results = _RecordingPool(log).run_batch(self._items(), self.COSTS)
        # Descending cost; the ties (1, 3) and (2, 5) keep dispatch order.
        assert log == ([("submit", cid) for cid in (1, 3, 2, 5, 0, 4)]
                       + [("await", cid) for cid in range(6)])
        assert [r.payload for r in results] == list(range(6))

    def test_pool_orders_evaluations_and_clients_by_one_cost(self):
        """An evaluation item is placed among the clients by its cost; a
        tie keeps it ahead of the clients it was listed before."""
        log = []
        items = [EvalWorkItem(("level", ()), None), *self._items()[:3]]
        results = _RecordingPool(log).run_batch(items, [2.0, 1.0, 3.0, 2.0])
        assert log[:4] == [("submit", 1), ("submit", ("level", ())),
                           ("submit", 2), ("submit", 0)]
        assert [r.payload for r in results] == [("level", ()), 0, 1, 2]

    def test_inline_runs_list_order(self):
        """Evaluations first, then the clients in dispatch order, whatever
        the costs: the first client to run is the same one at any cost."""
        log = []

        def run_client(client_id, version, rng, broadcast=None):
            log.append(("run", client_id))
            return ClientResult(train_loss=0.0, weight=1.0, payload=client_id)

        def score(task, vector):
            log.append(("score", task))
            return 0.5

        algorithm = SimpleNamespace(run_client=run_client, score=score)
        items = [EvalWorkItem(("level", ()), np.zeros(2)), *self._items()]
        results = InlineExecutor(algorithm).run_batch(items,
                                                      [0.0, *self.COSTS])
        assert log == ([("score", ("level", ()))]
                       + [("run", cid) for cid in range(6)])
        assert results[0].accuracy == 0.5
        assert [r.payload for r in results[1:]] == list(range(6))


def _score_here(algorithm, with_global, with_devices):
    """What ``algorithm.evaluation`` names, scored in this process as
    ``score(task, eval_vector(task))``, with no executor in between."""
    tasks, read = algorithm.evaluation(with_global, with_devices)
    return read([algorithm.score(task, algorithm.eval_vector(task))
                 for task in tasks])


class TestInlineReferenceSemantics:
    """The executor stack adds no numerics: the inline path reproduces a
    plain sequential loop (the pre-refactor round semantics with the
    canonical derived seeds) bit-for-bit, and stays pinned to recorded
    golden values so future refactors cannot drift silently."""

    #: goldens recorded at the refactor (harbox smoke, computation case,
    #: seed 0).  Derived per-client seeding is part of the contract: these
    #: move only if the seeding scheme or the training math changes.
    GOLDEN_FINAL_ACC = {"sheterofl": 0.16666666666666666,
                        "fedproto": 0.18541666666666665}
    GOLDEN_FIRST_LOSS = {"sheterofl": 1.7707054615020752,
                         "fedproto": 1.6007339656352997}

    def _reference_history(self, algorithm, config) -> History:
        rng = np.random.default_rng(config.seed)
        history = History(algorithm=algorithm.name,
                          dataset=algorithm.dataset_name)
        sim_time = 0.0
        for round_index in range(config.num_rounds):
            sampled = sample_clients(algorithm.num_clients,
                                     config.sample_ratio, rng)
            train_loss = run_round(algorithm, round_index, sampled, rng,
                                   run_seed=config.seed)
            slowest = max(algorithm.client_round_time_s(
                algorithm.clients[cid]) for cid in sampled)
            round_time = slowest + SERVER_OVERHEAD_S
            sim_time += round_time
            is_eval = (round_index % config.eval_every == 0
                       or round_index == config.num_rounds - 1)
            acc = _score_here(algorithm, True, False)[0] if is_eval else None
            history.append(RoundRecord(
                round_index=round_index, sim_time_s=sim_time,
                round_time_s=round_time,
                train_loss=train_loss, global_accuracy=acc,
                extras={}))
        history.final_device_accuracies = _score_here(algorithm, False,
                                                      True)[1]
        return history

    @pytest.mark.parametrize("algorithm", ["sheterofl", "fedproto"])
    def test_stack_matches_reference_loop(self, algorithm):
        spec = smoke_spec(algorithm)
        scale = spec.resolved_scale()
        config = SimulationConfig(num_rounds=scale.num_rounds,
                                  sample_ratio=scale.sample_ratio,
                                  eval_every=scale.eval_every, seed=0)
        reference = self._reference_history(
            prepare_scenario(spec)[0].algorithm, config)
        stack = run_simulation(prepare_scenario(spec)[0].algorithm, config)
        assert history_to_dict(stack) == history_to_dict(reference)
        assert stack.final_accuracy == pytest.approx(
            self.GOLDEN_FINAL_ACC[algorithm], abs=1e-9)
        assert stack.records[0].train_loss == pytest.approx(
            self.GOLDEN_FIRST_LOSS[algorithm], abs=1e-7)


class TestCacheConcurrency:
    def test_parallel_puts_never_corrupt(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = smoke_spec()
        history = History(algorithm="sheterofl", dataset="harbox")
        history.append(RoundRecord(round_index=0, sim_time_s=1.0,
                                   round_time_s=1.0, train_loss=0.5,
                                   global_accuracy=0.25))
        errors = []

        def writer():
            try:
                for _ in range(10):
                    cache.put(spec, history, num_classes=5)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=writer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        entry = cache.get(spec)
        assert entry is not None and entry.num_classes == 5
        leftovers = [p for p in tmp_path.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []

    def test_put_is_atomic_rename(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = smoke_spec()
        history = History(algorithm="sheterofl", dataset="harbox")
        path = cache.put(spec, history)
        assert path.name == f"{spec.content_hash()}.json"
        json.loads(path.read_text())  # complete, parseable entry


class TestParallelSweeps:
    def _grid(self):
        return [smoke_spec("sheterofl", seed=s) for s in (0, 1)] \
            + [smoke_spec("fedavg_smallest", seed=0)]

    def test_parallel_matches_sequential(self, tmp_path):
        sequential = execute_specs(self._grid(), cache=None)
        with run_defaults(RunDefaults(workers=2)):
            parallel = execute_specs(self._grid(), cache=None)
        assert [history_to_dict(r.history) for r in sequential] \
            == [history_to_dict(r.history) for r in parallel]
        assert [r.num_classes for r in sequential] \
            == [r.num_classes for r in parallel]
        assert [r.level_distribution() for r in sequential] \
            == [r.level_distribution() for r in parallel]

    def test_parallel_sweep_populates_shared_cache(self, tmp_path):
        cache = RunCache(tmp_path)
        with run_defaults(RunDefaults(workers=2)):
            execute_specs(self._grid(), cache=cache)
            assert cache.misses == 3 and cache.hits == 0
            again = execute_specs(self._grid(), cache=cache)
        assert cache.hits == 3
        assert all(r.from_cache for r in again)

    def test_a_cached_grid_opens_no_pool(self, tmp_path, monkeypatch):
        """Hits are served in the coordinator: a fully cached grid at two
        workers starts no process."""
        cache = RunCache(tmp_path)
        grid = self._grid()
        first = execute_specs(grid, cache=cache)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was opened")

        monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
        with run_defaults(RunDefaults(workers=2)):
            again = execute_specs(grid, cache=cache)
        assert all(r.from_cache for r in again)
        assert [r.spec for r in again] == grid
        assert [history_to_dict(r.history) for r in again] \
            == [history_to_dict(r.history) for r in first]

    def test_only_the_misses_fan_out(self, tmp_path, monkeypatch):
        """One cached cell and two misses: the pool gets two workers and
        the two misses, and the results keep the input order."""
        cache = RunCache(tmp_path)
        grid = self._grid()
        execute_specs(grid[1:2], cache=cache)
        sizes = []
        real_pool = runner.ProcessPoolExecutor

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", recording_pool)
        with run_defaults(RunDefaults(workers=4)):
            results = execute_specs(grid, cache=cache)
        assert sizes == [2]
        assert [r.spec for r in results] == grid
        assert [r.from_cache for r in results] == [False, True, False]

    def test_default_parallelism_round_trip(self):
        """A spec that doesn't say inherits the process default; one that
        does wins; the previous default comes back on exit."""
        from repro.experiments.runner import _resolve_workers
        assert _resolve_workers(None) == 1
        with run_defaults(RunDefaults(workers=2)):
            assert _resolve_workers(None) == 2
            assert _resolve_workers(4) == 4
        assert _resolve_workers(None) == 1

    @pytest.mark.parametrize("field,value", [
        ("workers", 0), ("workers", -2),
        ("checkpoint_every", 0), ("checkpoint_every", -1)])
    def test_run_defaults_refuse_non_positive_counts(self, field, value):
        """A bad count is refused, by name, when the defaults are made —
        not clamped to one worker, nor found only once a cell has built
        its dataset and scenario."""
        with pytest.raises(ValueError, match=field):
            RunDefaults(**{field: value})

    def test_run_defaults_allow_no_checkpoints(self):
        assert RunDefaults(checkpoint_every=None).checkpoint_every is None
        assert RunDefaults(workers=3, checkpoint_every=2).workers == 3

    def test_ablated_cell_is_worker_count_invariant(self):
        """Pool workers run the ablated algorithm the coordinator built:
        the process pool reproduces the inline History, which differs
        from the full cell's."""
        spec = smoke_spec("fjord").replace(tag="ablation:"
                                           "fjord_no_ordered_dropout")
        inline = execute_spec(spec.replace(workers=1), cache=None)
        pooled = execute_spec(spec.replace(workers=2, executor="process"),
                              cache=None)
        assert pooled.history.to_json() == inline.history.to_json()
        assert inline.history.to_json() != run_history("fjord")

    def test_ablated_cell_scores_the_full_model_in_its_own_skeleton(
            self, monkeypatch):
        """Dropping Fjord's pool leaves the levels a client may train
        known, so the full model is scored in the x1.00 skeleton clients
        train in, not in a second one built for the base model."""
        cls = ALGORITHMS["fjord"]
        build, built = cls._build_level, []

        def recording_build(self, level):
            built.append(level)
            return build(self, level)

        monkeypatch.setattr(cls, "_build_level", recording_build)
        spec = smoke_spec("fjord", executor="inline").replace(
            tag="ablation:fjord_no_ordered_dropout")
        execute_spec(spec, cache=None)
        assert (("width_mult", 1.0),) in built and () not in built


def _same(a, b) -> bool:
    """Exact equality of nested payloads (tuples, lists, dicts, arrays)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


#: every variant tag, with the algorithm it applies to.
VARIANT_TAGS = [*((f"ablation:{name}", ablation.algorithm)
                  for name, ablation in variants.ABLATIONS.items()),
                (variants.DEADLINE_TAG, "sheterofl"),
                (variants.buffered_tag(smoke_spec()), "sheterofl")]


class TestPickledAlgorithm:
    """What a ``spawn`` / ``forkserver`` pool worker receives: the
    coordinator's algorithm, pickled once."""

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_copy_after_a_client_round_trains_the_same(self, name):
        """Pickled after one client round, the copy runs that client's
        round again to the original's loss, weight, payload and kept
        state (at the level whose skeleton the original has built)."""
        algo = prepare_scenario(smoke_spec(name))[0].algorithm
        cid = sorted(algo.clients)[0]
        algo.run_client(cid, 0, client_rng(0, 0, cid))
        copy = pickle.loads(pickle.dumps(algo))
        want = algo.run_client(cid, 0, client_rng(0, 0, cid))
        got = copy.run_client(cid, 0, client_rng(0, 0, cid))
        assert got.train_loss == want.train_loss
        assert got.weight == want.weight
        assert _same(got.payload, want.payload)
        assert _same(got.client_state, want.client_state)

    @pytest.mark.parametrize("tag,name", VARIANT_TAGS)
    def test_every_variant_pickles(self, tag, name):
        algo = prepare_scenario(smoke_spec(name).replace(tag=tag))[0] \
            .algorithm
        copy = pickle.loads(pickle.dumps(algo))
        if tag == "ablation:fedrolex_static_window":
            assert copy.rolling_shift(5) == algo.rolling_shift(5) == 0

    def test_fedet_copy_carries_its_server_vector_and_no_skeleton(self):
        """Fed-ET's coordinator distils its server in the server level's
        skeleton; the pickled copy carries the server vector, and no
        skeleton at any level."""
        algo = prepare_scenario(smoke_spec("fedet"))[0].algorithm
        run_round(algo, 0, sorted(algo.clients)[:2],
                  np.random.default_rng(0))
        assert algo._server_level in algo._client_models
        copy = pickle.loads(pickle.dumps(algo))
        assert copy._client_models == {}
        assert _same(copy._server()[0], algo._server()[0])


def _hand_built(algorithm="sheterofl"):
    """A scenario built without a RunSpec."""
    from repro.constraints import build_scenario
    from repro.data import load_dataset
    from repro.fl import LocalTrainConfig
    from repro.models import build_model
    dataset = load_dataset("harbox", seed=0, num_users=10,
                           samples_per_user=10, test_size=60)
    model = build_model("har_cnn", num_classes=dataset.num_classes, seed=0)
    config = LocalTrainConfig(batch_size=8, local_epochs=1, max_batches=1)
    return build_scenario(algorithm, model, dataset, 10, SMOKE,
                          train_config=config, seed=0, eval_max_samples=60)


def _spawn_pool(monkeypatch):
    """Make every ProcessExecutor pool start its workers by ``spawn``."""
    import functools
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from repro.fl import executor
    monkeypatch.setattr(executor, "_ProcessPool", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))


class TestPoolRunsTheBuiltScenario:
    """A pool worker runs the coordinator's algorithm: nothing is rebuilt,
    and how the scenario was built does not matter."""

    def test_hand_built_scenario_pools(self, monkeypatch):
        started = []
        build_pool = ProcessExecutor._build_pool

        def recording(self):
            started.append(self.workers)
            return build_pool(self)

        monkeypatch.setattr(ProcessExecutor, "_build_pool", recording)
        config = SimulationConfig(num_rounds=3, sample_ratio=0.3,
                                  eval_every=2, seed=3)
        inline = run_simulation(_hand_built().algorithm, config)
        pooled = run_simulation(_hand_built().algorithm, SimulationConfig(
            num_rounds=3, sample_ratio=0.3, eval_every=2, seed=3,
            workers=2, executor="process"))
        assert started == [2]
        assert pooled.to_json() == inline.to_json()

    def test_no_worker_builds_a_scenario(self, monkeypatch):
        """Once the coordinator has built the cell, a second build raises
        (forked workers inherit the patch): the pooled cell completes."""
        reference = run_history("fedrolex", workers=1, executor="inline")
        prepare, built = runner.prepare_scenario, []

        def build_once(spec):
            if built:
                raise AssertionError("a second scenario build")
            built.append(spec)
            return prepare(spec)

        monkeypatch.setattr(runner, "prepare_scenario", build_once)
        assert run_history("fedrolex", workers=2,
                           executor="process") == reference
        assert len(built) == 1

    @pytest.mark.parametrize("spec", [
        smoke_spec("sheterofl"),
        smoke_spec("fedet", execution=SMOKE.execution_config(
            policy="buffered")),
        smoke_spec("fedrolex").replace(tag="ablation:fedrolex_static_window"),
    ], ids=["sheterofl", "fedet-buffered", "fedrolex_static_window"])
    def test_spawn_workers_equal_inline(self, spec, monkeypatch):
        reference = execute_spec(spec.replace(workers=1, executor="inline"),
                                 cache=None).history.to_json()
        _spawn_pool(monkeypatch)
        pooled = execute_spec(spec.replace(workers=2, executor="process"),
                              cache=None).history.to_json()
        assert pooled == reference


def _cifar_spec(way: str) -> RunSpec:
    """A small SHeteroFL / cifar100 cell run one of three ways."""
    mechanics = {"inline": {"executor": "inline"},
                 "pool": {"workers": 2, "executor": "process"},
                 "buffered": {"executor": "inline", "execution":
                              ExecutionConfig(policy="buffered",
                                              buffer_size=2)}}[way]
    return RunSpec(algorithm="sheterofl", dataset="cifar100",
                   constraints=SMOKE, scale="smoke", seed=0,
                   scale_overrides={"num_rounds": 2}, **mechanics)


@pytest.mark.parametrize("way", ["inline", "pool", "buffered"])
class TestFinishedRunKeepsResults:
    """A finished run keeps its results — global vector, History, base
    model, clients — and drops its working set (the level skeletons with
    their buffers and gradients, the memoised upload maps); anything that
    trains afterwards rebuilds it, which cannot change an upload."""

    #: what a live result holds beyond the global vector and the base
    #: model's state: History, clients, pool (0.22 MB measured; 4.5 MB more
    #: while the working set stayed pinned).
    SLACK_BYTES = 512 * 1024

    def test_live_result_pins_no_working_set(self, way):
        gc.collect()
        tracemalloc.start()
        try:
            result = execute_spec(_cifar_spec(way), cache=None)
            gc.collect()
            with_result = tracemalloc.get_traced_memory()[0]
            algorithm = result.scenario.algorithm
            bound = (algorithm.global_vector.nbytes + self.SLACK_BYTES
                     + sum(value.nbytes for value in
                           algorithm.base_model.state_dict().values()))
            del result, algorithm
            gc.collect()
            held = with_result - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= bound, f"a live result holds {held} B > {bound} B"

    def test_run_client_after_the_run_returns_the_ingested_upload(
            self, way, monkeypatch):
        # A client's result lands while its latest item is the one in
        # flight (sync: this round's; buffered: one dispatch at a time).
        latest, landed, ingested = {}, [], []

        def recording_item(*args, **kwargs):
            item = make_work_item(*args, **kwargs)
            latest[item.client_id] = item
            return item

        land = aggregation.AggregationPolicy.land

        def recording_land(self, algorithm, cid, result):
            landed.append((result, latest[cid]))
            return land(self, algorithm, cid, result)

        cls = ALGORITHMS["sheterofl"]
        ingest = cls.ingest

        def recording_ingest(self, updates, *args):
            ingested.append(list(updates))
            return ingest(self, ingested[-1], *args)

        monkeypatch.setattr(aggregation, "make_work_item", recording_item)
        monkeypatch.setattr(aggregation.AggregationPolicy, "land",
                            recording_land)
        monkeypatch.setattr(cls, "ingest", recording_ingest)
        spec = _cifar_spec(way)
        algorithm = execute_spec(spec, cache=None).scenario.algorithm
        update = ingested[-1][0]
        item = next(item for result, item in landed if result is update)
        again = algorithm.run_client(
            item.client_id, item.version,
            client_rng(spec.seed, item.version, item.client_id,
                       item.dispatch_index),
            broadcast=item.broadcast)
        (values, key), (expected, expected_key) = (again.payload,
                                                   update.payload)
        assert key == expected_key
        assert values.dtype == expected.dtype
        assert np.array_equal(values, expected)
        assert again.train_loss == update.train_loss


class TestPooledCoordinator:
    @pytest.mark.parametrize("name", ["fedrolex", "fedproto"])
    def test_coordinator_scores_and_builds_nothing(self, name, monkeypatch):
        """Every accuracy of a pooled run, per round and final, is scored
        in a worker, so the coordinator builds no skeleton: uploads
        resolve against the pool's layouts (FedProto's knowledge needs
        none), and workers build theirs in their own processes."""
        cls = ALGORITHMS[name]
        build, score = cls._build_level, cls.score
        built, scored = [], []

        def recording_build(self, level):
            built.append(level)
            return build(self, level)

        def recording_score(self, task, vector):
            scored.append(task)
            return score(self, task, vector)

        # Forked workers inherit the wrappers but append to their own
        # copies of the lists: only the coordinator's calls show here.
        monkeypatch.setattr(cls, "_build_level", recording_build)
        monkeypatch.setattr(cls, "score", recording_score)
        history = execute_spec(smoke_spec(name, workers=2,
                                          executor="process"),
                               cache=None).history
        assert history.evaluated and history.final_device_accuracies
        assert scored == []
        assert built == []


class TestEvaluationItems:
    #: ``History.to_json()`` sha256 of the pooled FedRolex smoke cell, as
    #: its evaluation items carried the whole global vector.
    FEDROLEX_SMOKE_SHA256 = ("04c33912f1aa3dfdf74f8398f28e69630a20f2c1243"
                             "161515f109bab67e08e18")

    def test_level_items_carry_only_their_slice(self, monkeypatch):
        """A level's evaluation item ships that level's slice of the
        global vector and nothing more, and scoring from it moves no
        byte of the History."""
        import hashlib
        batches = []
        run_batch = ProcessExecutor.run_batch

        def recording(self, items, costs):
            batches.append([item for item in items
                            if isinstance(item, EvalWorkItem)])
            return run_batch(self, items, costs)

        monkeypatch.setattr(ProcessExecutor, "run_batch", recording)
        result = execute_spec(smoke_spec("fedrolex", workers=2,
                                         executor="process"), cache=None)
        algorithm = result.scenario.algorithm
        final = batches[-1]
        assert final and all(item.task[0] == "level" for item in final)
        sizes = {tuple(sorted(entry.overrides.items())):
                 entry.layout.size * 4 for entry in algorithm.pool.entries}
        assert len({item.task[1] for item in final}) > 1
        for item in final:
            assert sizes[item.task[1]] <= len(pickle.dumps(item)) \
                <= sizes[item.task[1]] + 300, item.task
        assert hashlib.sha256(result.history.to_json().encode()
                              ).hexdigest() == self.FEDROLEX_SMOKE_SHA256

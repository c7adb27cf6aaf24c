"""Parallel client execution: pure work items, executors, determinism.

The contract under test: a client's local round is a pure function of
``(run_seed, round, client_id)`` plus the broadcast state, so
``run_simulation`` produces **byte-identical**
``History.to_json()`` for either executor (inline / process) and any
worker count; sweeps fan out with identical results; the run cache
tolerates concurrent writers; and every algorithm's uplink payload
round-trips both pickle (pool transport) and the JSON codec.
"""

import json
import pickle
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import autograd as ag
from repro import nn
from repro.algorithms import ClientUpdate
from repro.constraints import ConstraintSpec
from repro.experiments import (RunDefaults, RunSpec, execute_spec,
                               execute_specs, prepare_scenario, run_defaults)
from repro.experiments.cache import RunCache
from repro.fl import (ExecutionConfig, ExecutorError, InlineExecutor,
                      ProcessExecutor, SimulationConfig,
                      client_rng, client_update_from_dict,
                      client_update_to_dict, execute_work_item,
                      history_to_dict, reseed_dropout, run_simulation,
                      sample_clients)
from repro.fl.executor import (make_executor, make_work_item,
                               resolve_executor_kind)
from repro.fl.history import History, RoundRecord
from repro.fl.seeding import client_seed_key

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
        assert back.update.client_id == cid
        algo.apply_client_state(back.client_id, back.client_state)

    def test_inline_matches_injected_broadcast(self):
        """broadcast=None (live state) and a packed broadcast are
        bit-identical — the inline/process split cannot change numbers."""
        scenario_a, _ = prepare_scenario(smoke_spec())
        scenario_b, _ = prepare_scenario(smoke_spec())
        cid = sorted(scenario_a.algorithm.clients)[0]
        live = scenario_a.algorithm.run_client(cid, 0, client_rng(0, 0, cid))
        packed = scenario_b.algorithm.run_client(
            cid, 0, client_rng(0, 0, cid),
            broadcast=scenario_b.algorithm.pack_broadcast(cid, 0))
        state_a, _ = live.payload
        state_b, _ = packed.payload
        assert live.train_loss == packed.train_loss
        for name in state_a:
            assert np.array_equal(state_a[name], state_b[name]), name

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
        assert replay.update.train_loss == first.update.train_loss
        assert repeat.update.train_loss != first.update.train_loss

    def test_resolve_executor_kind(self, monkeypatch):
        assert resolve_executor_kind("auto", 1, True) == "inline"
        assert resolve_executor_kind(None, 4, True) == "process"
        assert resolve_executor_kind("process", 1, True) == "process"
        assert resolve_executor_kind("inline", 4, True) == "inline"
        for unknown in ("quantum", "thread"):
            with pytest.raises(ValueError, match="unknown executor"):
                resolve_executor_kind(unknown, 2, True)
        # No rebuildable scenario: auto falls back to inline and says so.
        from repro.fl import executor
        assert executor._log.name == "repro.executor"
        lines = []
        monkeypatch.setattr(executor._log, "info",
                            lambda message, *args: lines.append(message % args))
        assert resolve_executor_kind("auto", 4, False) == "inline"
        assert resolve_executor_kind("auto", 1, False) == "inline"
        assert len(lines) == 1 and "inline instead of across 4" in lines[0]

    def test_process_executor_requires_spec(self):
        class Bare:
            spec_payload = None

        with pytest.raises(ExecutorError):
            ProcessExecutor(algorithm=Bare())

    def test_worker_rejects_unspecced_item(self):
        item = make_work_item(SimpleNamespace(), 0, 0, 0,
                              needs_broadcast=False)
        # No pool initializer ran in this process: nothing to rebuild.
        with pytest.raises(ExecutorError):
            execute_work_item(item)

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


class TestPayloadSerialization:
    """ClientUpdate round-trips for every uplink family (the satellite
    coverage that process-pool transport rests on)."""

    def _round_trip(self, update: ClientUpdate) -> ClientUpdate:
        wire = json.dumps(client_update_to_dict(update))
        return client_update_from_dict(json.loads(wire))

    def _assert_payload_equal(self, a, b):
        if isinstance(a, np.ndarray):
            assert isinstance(b, np.ndarray)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        elif isinstance(a, tuple):
            assert isinstance(b, tuple) and len(a) == len(b)
            for x, y in zip(a, b):
                self._assert_payload_equal(x, y)
        elif isinstance(a, dict):
            assert set(a) == set(b)
            for key in a:
                self._assert_payload_equal(a[key], b[key])
        else:
            assert a == b

    @pytest.mark.parametrize("algorithm",
                             ["sheterofl", "fedproto", "fedet"])
    def test_update_round_trip(self, algorithm):
        scenario, _ = prepare_scenario(smoke_spec(algorithm))
        algo = scenario.algorithm
        cid = sorted(algo.clients)[0]
        update = algo.run_client(cid, 0, client_rng(0, 0, cid))
        back = self._round_trip(update)
        assert back.client_id == update.client_id
        assert back.version == update.version
        assert back.train_loss == update.train_loss
        assert back.round_time_s == update.round_time_s
        assert back.weight == update.weight
        self._assert_payload_equal(update.payload, back.payload)

    def test_state_and_maps_survive(self):
        """Index maps (None / int arrays per axis) are part of the
        parameter-averaging payload and must survive bit-exact."""
        scenario, _ = prepare_scenario(smoke_spec("fedrolex"))
        algo = scenario.algorithm
        cid = sorted(algo.clients)[0]
        update = algo.run_client(cid, 2, client_rng(0, 2, cid))
        state, maps = self._round_trip(update).payload
        orig_state, orig_maps = update.payload
        assert set(maps) == set(orig_maps)
        for name, axes in orig_maps.items():
            assert isinstance(maps[name], tuple)
            for got, want in zip(maps[name], axes):
                if want is None:
                    assert got is None
                else:
                    assert np.array_equal(got, want)
        for name in orig_state:
            assert orig_state[name].dtype == state[name].dtype


class TestWorkerCountInvariance:
    """The acceptance contract: byte-identical History JSON for workers
    1 (inline), 2 and 4, through the spec layer, for both runtimes."""

    @pytest.mark.parametrize("algorithm", ["sheterofl", "fedproto"])
    def test_sync_loop(self, algorithm):
        reference = run_history(algorithm, workers=1, executor="inline")
        assert run_history(algorithm, workers=2, executor="process") \
            == reference
        assert run_history(algorithm, workers=4, executor="process") \
            == reference

    def test_event_engine_buffered(self):
        execution = ExecutionConfig(policy="buffered", buffer_size=2,
                                    availability="dropout",
                                    availability_kwargs={"prob": 0.2})
        reference = run_history("sheterofl", workers=1, executor="inline",
                                execution=execution)
        assert run_history("sheterofl", workers=2, executor="process",
                           execution=execution) == reference

    def test_event_engine_sync_policy(self):
        execution = ExecutionConfig(over_select=0.5, availability="markov")
        reference = run_history("fedepth", workers=1, executor="inline",
                                execution=execution)
        assert run_history("fedepth", workers=3, executor="process",
                           execution=execution) == reference


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
            outcome = algorithm.run_round(round_index, sampled, rng,
                                          run_seed=config.seed)
            round_time = outcome.slowest_client_s + config.server_overhead_s
            sim_time += round_time
            is_eval = (round_index % config.eval_every == 0
                       or round_index == config.num_rounds - 1)
            acc = algorithm.evaluate_global() if is_eval else None
            history.append(RoundRecord(
                round_index=round_index, sim_time_s=sim_time,
                round_time_s=round_time,
                train_loss=outcome.mean_train_loss, global_accuracy=acc,
                extras={}))
        history.final_device_accuracies = algorithm.per_device_accuracies()
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
        parallel = execute_specs(self._grid(), cache=None, workers=2)
        assert [history_to_dict(r.history) for r in sequential] \
            == [history_to_dict(r.history) for r in parallel]
        assert [r.num_classes for r in sequential] \
            == [r.num_classes for r in parallel]
        assert [r.level_distribution() for r in sequential] \
            == [r.level_distribution() for r in parallel]

    def test_parallel_sweep_populates_shared_cache(self, tmp_path):
        cache = RunCache(tmp_path)
        execute_specs(self._grid(), cache=cache, workers=2)
        assert cache.misses == 3 and cache.hits == 0
        again = execute_specs(self._grid(), cache=cache, workers=2)
        assert cache.hits == 3
        assert all(r.from_cache for r in again)

    def test_default_parallelism_round_trip(self):
        """A spec that doesn't say inherits the process default; one that
        does wins; the previous default comes back on exit."""
        from repro.experiments.runner import _resolve_workers
        assert _resolve_workers(None) == 1
        with run_defaults(RunDefaults(workers=2)):
            assert _resolve_workers(None) == 2
            assert _resolve_workers(4) == 4
        assert _resolve_workers(None) == 1

    def test_spec_payload_cleared_for_mutations(self, tmp_path):
        spec = smoke_spec("fjord").replace(tag="ablation-test")

        seen = {}

        def mutate(algorithm):
            seen["payload_at_mutate"] = algorithm.spec_payload

        result = execute_spec(spec, cache=None, mutate=mutate)
        assert seen["payload_at_mutate"] is not None
        assert result.scenario.algorithm.spec_payload is None


class TestScenarioRebuild:
    """What a pool rebuilds from: the spec payload on the algorithm."""

    def test_prepare_scenario_attaches_payload(self):
        scenario, _ = prepare_scenario(smoke_spec())
        payload = scenario.algorithm.spec_payload
        assert payload is not None
        assert RunSpec.from_dict(payload) == smoke_spec()

    def test_executor_factory_auto(self):
        scenario, _ = prepare_scenario(smoke_spec())
        ex = make_executor(scenario.algorithm, workers=1, kind="auto")
        assert isinstance(ex, InlineExecutor)
        ex2 = make_executor(scenario.algorithm, workers=2, kind="auto")
        try:
            assert isinstance(ex2, ProcessExecutor)
        finally:
            ex2.close()
        bare = type("Bare", (), {"spec_payload": None})()
        assert isinstance(make_executor(bare, workers=2, kind="auto"),
                          InlineExecutor)
        with pytest.raises(ExecutorError, match="executor='auto'"):
            make_executor(bare, workers=2, kind="process")

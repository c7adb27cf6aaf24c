"""The runtime sanitizers trap violations at the offending line.

Every run is sanitized (:mod:`repro.fl.sanitizers`): broadcast freezing and
the global-RNG tripwire raise where a client writes into state it may only
read or draws from a hidden global stream.  That they perturb nothing is
pinned by the executor-identity tests (``tests/test_parallel_exec.py``)
and the e2e goldens, which all run sanitized.
"""

import numpy as np
import pytest

from repro.constraints import ConstraintSpec
from repro.experiments import (RunCache, RunDefaults, RunSpec,
                               prepare_scenario, run_defaults)
from repro.fl import ExecutionConfig, SimulationConfig, run_simulation
from repro.fl.sanitizers import (StrictModeViolation, collect_arrays,
                                 freeze_arrays, frozen_arrays, rng_tripwire)


def _run_patched(spec, patch):
    """Build ``spec``'s scenario, ``patch(algorithm)``, run it inline."""
    algorithm = prepare_scenario(spec)[0].algorithm
    patch(algorithm)
    scale = spec.resolved_scale()
    return run_simulation(algorithm, SimulationConfig(
        num_rounds=scale.num_rounds, sample_ratio=scale.sample_ratio,
        eval_every=scale.eval_every, seed=spec.seed,
        execution=spec.resolved_execution(), executor="inline"))


def _scribble_on_global_state(algorithm):
    real_run_client = algorithm.run_client

    def run_client(client_id, round_index, rng, broadcast=None):
        next(iter(algorithm.global_state.values()))[...] = 0.0
        return real_run_client(client_id, round_index, rng,
                               broadcast=broadcast)

    algorithm.run_client = run_client


def _write_into_knowledge(name):
    """A client whose loss hook writes into the server knowledge it was
    handed: ``name`` is the array its loss closure reads (FedProto's
    ``protos``, Fed-ET's ``consensus``)."""
    def patch(algorithm):
        real_local_loss = algorithm.local_loss_fn

        def local_loss_fn(ctx, model, rng, broadcast):
            loss = real_local_loss(ctx, model, rng, broadcast)
            cells = dict(zip(loss.__code__.co_freevars, loss.__closure__))
            knowledge = cells[name].cell_contents
            if knowledge is not None:   # Fed-ET has no consensus at round 0
                knowledge[0] = 0.0
            return loss

        algorithm.local_loss_fn = local_loss_fn

    return patch


def _draw_from_global_rng(algorithm):
    real_run_client = algorithm.run_client

    def run_client(client_id, round_index, rng, broadcast=None):
        np.random.random()    # seeds the very violation the tripwire
        # must catch.
        return real_run_client(client_id, round_index, rng,
                               broadcast=broadcast)

    algorithm.run_client = run_client


class TestSpecRunSanitizers:
    """A spec-driven run is sanitized with no setting to ask for it."""

    SPEC = RunSpec(algorithm="sheterofl", dataset="harbox",
                   constraints=ConstraintSpec(constraints=("computation",)),
                   scale="smoke")

    def test_spec_run_trips_on_frozen_broadcast_write(self):
        with pytest.raises(ValueError, match="read-only"):
            _run_patched(self.SPEC, _scribble_on_global_state)

    @pytest.mark.parametrize("workers, executor",
                             [(1, "inline"), (2, "process")])
    def test_evaluation_trips_on_global_vector_write(self, workers,
                                                     executor, monkeypatch):
        """Every evaluation is a work item whose vector is read-only
        wherever it runs (the coordinator's frozen view inline, a pool
        worker's unpickled copy), so a ``score`` writing into the vector
        it was handed raises under either executor."""
        algorithm = prepare_scenario(self.SPEC)[0].algorithm
        cls = type(algorithm)
        real_score = cls.score

        def score(self, task, vector):
            vector[0] = 0.0
            return real_score(self, task, vector)

        # Class-level, so forked pool workers score through it too.
        monkeypatch.setattr(cls, "score", score)
        scale = self.SPEC.resolved_scale()
        config = SimulationConfig(num_rounds=scale.num_rounds,
                                  sample_ratio=scale.sample_ratio,
                                  eval_every=1, seed=0, workers=workers,
                                  executor=executor)
        with pytest.raises(ValueError, match="read-only"):
            run_simulation(algorithm, config)

    @pytest.mark.parametrize("workers, executor",
                             [(1, "inline"), (2, "process")])
    def test_client_trips_on_downlink_write(self, workers, executor,
                                            monkeypatch):
        """A client's downlink is read-only wherever it trains (frozen
        where it is packed inline, frozen again after unpickling in a
        pool worker), so a client writing into it raises under either
        executor."""
        algorithm = prepare_scenario(self.SPEC)[0].algorithm
        cls = type(algorithm)
        real_load_client = cls.load_client

        def load_client(self, ctx, version, rng, broadcast):
            broadcast["global_state"][0] = 0.0
            return real_load_client(self, ctx, version, rng, broadcast)

        # Class-level, so forked pool workers load through it too.
        monkeypatch.setattr(cls, "load_client", load_client)
        scale = self.SPEC.resolved_scale()
        config = SimulationConfig(num_rounds=scale.num_rounds,
                                  sample_ratio=scale.sample_ratio,
                                  eval_every=scale.eval_every, seed=0,
                                  workers=workers, executor=executor)
        with pytest.raises(ValueError, match="read-only"):
            run_simulation(algorithm, config)

    @pytest.mark.parametrize("policy", ["sync", "buffered"])
    @pytest.mark.parametrize("algorithm, knowledge",
                             [("fedproto", "protos"),
                              ("fedet", "consensus")])
    def test_inline_client_cannot_write_server_knowledge(
            self, algorithm, knowledge, policy):
        """An inline client reads the same frozen downlink a pool client
        does, so writing the prototypes or consensus it was handed raises
        instead of overwriting the server's copy."""
        spec = RunSpec(algorithm=algorithm, dataset="harbox", scale="smoke",
                       execution=ExecutionConfig(policy=policy))
        with pytest.raises(ValueError, match="read-only"):
            _run_patched(spec, _write_into_knowledge(knowledge))

    def test_spec_run_trips_on_global_rng_draw(self):
        with pytest.raises(StrictModeViolation, match="numpy"):
            _run_patched(self.SPEC, _draw_from_global_rng)

    def test_run_defaults_nest_and_restore(self, tmp_path):
        from repro.experiments import runner
        before = runner._DEFAULTS
        with run_defaults(RunDefaults(cache=RunCache(tmp_path))) as outer:
            assert runner._DEFAULTS is outer
            with pytest.raises(RuntimeError):
                with run_defaults(RunDefaults(workers=3)) as inner:
                    assert runner._DEFAULTS is inner
                    assert inner.cache is None and inner.workers == 3
                    raise RuntimeError("restore must survive exceptions")
            assert runner._DEFAULTS is outer
        assert runner._DEFAULTS is before


class TestFreezeArrays:
    def test_collect_arrays_walks_nested_payloads(self):
        a, b, c = (np.zeros(2) for _ in range(3))
        payload = {"x": a, "nested": {"y": [b, (c, 1)]}, "other": "str"}
        found = list(collect_arrays(payload))
        assert [arr is original for arr, original
                in zip(found, (a, b, c))] == [True, True, True]

    def test_frozen_arrays_traps_writes_then_restores(self):
        arr = np.zeros(4)
        with frozen_arrays({"w": arr}):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        arr[0] = 1.0    # thawed on exit
        assert arr[0] == 1.0

    def test_already_frozen_arrays_stay_frozen(self):
        arr = np.zeros(4)
        arr.flags.writeable = False
        with frozen_arrays([arr]):
            pass
        assert not arr.flags.writeable    # not ours to thaw

    def test_freeze_arrays_returns_only_flipped(self):
        writeable = np.zeros(2)
        frozen = np.zeros(2)
        frozen.flags.writeable = False
        flipped = freeze_arrays([writeable, frozen])
        try:
            assert flipped == [writeable]
        finally:
            for arr in flipped:
                arr.flags.writeable = True

    def test_nesting_is_safe_for_shared_arrays(self):
        arr = np.zeros(2)
        with frozen_arrays(arr):
            with frozen_arrays(arr):    # inner call flips nothing
                pass
            with pytest.raises(ValueError):
                arr[0] = 1.0    # outer freeze still holds
        arr[0] = 1.0


class TestRngTripwire:
    def test_trips_on_numpy_global_draw(self):
        with pytest.raises(StrictModeViolation, match="numpy"):
            with rng_tripwire("test"):
                np.random.random()    # the test seeds the very violation
                # the tripwire must catch.

    def test_trips_on_stdlib_global_draw(self):
        import random
        with pytest.raises(StrictModeViolation, match="stdlib"):
            with rng_tripwire("test"):
                random.random()    # seeded violation under test, as
                # above.

    def test_names_the_context(self):
        with pytest.raises(StrictModeViolation, match="my-run"):
            with rng_tripwire("my-run"):
                np.random.random()    # seeded violation under test, as
                # above.

    def test_silent_on_derived_generators(self):
        with rng_tripwire("test"):
            rng = np.random.default_rng(0)
            rng.normal(size=8)

    def test_tripwire_itself_is_invisible(self):
        # nesting tripwires must not trip each other: the state reads
        # observe without drawing.
        with rng_tripwire("outer"):
            with rng_tripwire("inner"):
                pass


"""Tests for the fault-tolerance layer: deterministic fault injection,
coordinator defense (validation + quarantine), hardened executors and
crash-safe checkpoint/resume.

The overarching contract mirrors the healthy runtime's: fault-injected
runs are byte-identical across executors and worker counts, resumed runs
are byte-identical to uninterrupted ones, and zero-fault runs serialise
(and content-hash) exactly as they did before the layer existed.
"""

import json
import logging
import multiprocessing
import os
import threading
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import ALGORITHMS, SubIndex
from repro.constraints import ConstraintSpec, build_scenario
from repro.data import load_dataset
from repro.experiments import RunSpec, execute_spec
from repro.experiments.cache import RunCache
from repro.experiments.runner import (RunDefaults, _spec_checkpoint,
                                      prepare_scenario, run_defaults)
from repro.experiments.variants import buffered_tag
from repro.fl import (ExecutionConfig, LocalTrainConfig, SimulationConfig,
                      run_simulation, validate_update)
from repro.fl.checkpoint import (CHECKPOINT_VERSION, CheckpointConfig,
                                 Checkpointer, make_checkpointer)
from repro.fl.executor import (DEFAULT_RETRIES, ClientResult, ClientWorkItem,
                               ExecutorError, ProcessExecutor,
                               TransientExecutorError, failure_is_transient)
from repro.fl.faults import FaultModel, FaultSpec, corrupt_update
from repro.models import build_model
from repro.telemetry import reset_logging


def tiny_scenario(algorithm="sheterofl", seed=0):
    ds = load_dataset("harbox", seed=0, num_users=10, samples_per_user=10,
                      test_size=60)
    model = build_model("har_cnn", num_classes=ds.num_classes, seed=0)
    spec = ConstraintSpec(constraints=("computation",))
    config = LocalTrainConfig(batch_size=8, local_epochs=1, max_batches=1)
    return build_scenario(algorithm, model, ds, 10, spec,
                          train_config=config, seed=seed,
                          eval_max_samples=60)


SIM = dict(num_rounds=4, sample_ratio=0.3, eval_every=2, seed=3)

FAULTS = {"crash_prob": 0.1, "straggler_prob": 0.2, "corrupt_prob": 0.1}

SMOKE = ConstraintSpec(constraints=("computation",))


def _update(payload, loss=1.0, weight=2.0):
    return ClientResult(train_loss=loss, weight=weight, payload=payload)


#: the key of :func:`_flat_payload`'s upload: a 16-element and a 9-element
#: entry (so per-entry corruption differs from one over the whole vector).
_KEY = ((("width_mult", 0.5),), 0, None)
_BOUNDS = (0, 16, 25)


def _flat_payload():
    return np.arange(1, 26, dtype=np.float32), _KEY


def _resolve(key):
    """``resolve_upload`` of a one-level algorithm whose level holds
    ``_BOUNDS``."""
    if key != _KEY:
        raise KeyError(key)
    return SubIndex(index=slice(0, _BOUNDS[-1]), take=slice(None),
                    bounds=_BOUNDS)


# ----------------------------------------------------------------------
# FaultSpec / config plumbing
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="crash_prob"):
            FaultSpec(crash_prob=1.5)
        with pytest.raises(ValueError, match="corrupt_mode"):
            FaultSpec(corrupt_mode="bitflip")
        for factor in (0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="straggler_factor"):
                FaultSpec(straggler_factor=factor)

    @pytest.mark.parametrize("name, value", [
        ("crash_prob", -0.1), ("crash_prob", float("nan")),
        ("straggler_prob", -0.1), ("straggler_prob", 1.5),
        ("straggler_prob", float("nan")),
        ("corrupt_prob", -0.1), ("corrupt_prob", 1.5),
        ("corrupt_prob", float("inf")),
        ("corrupt_factor", float("nan")), ("corrupt_factor", float("inf")),
        ("corrupt_factor", float("-inf"))])
    def test_rejects_out_of_range_value_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=name):
            FaultSpec(**{name: value})

    def test_enabled(self):
        assert not FaultSpec().enabled
        assert FaultSpec(crash_prob=0.1).enabled
        assert FaultSpec(straggler_prob=0.1).enabled
        assert FaultSpec(corrupt_prob=0.1).enabled

    def test_round_trip(self):
        spec = FaultSpec(crash_prob=0.1, corrupt_prob=0.2,
                         corrupt_mode="scale", corrupt_factor=10.0)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_constraint_spec_validates_eagerly(self):
        with pytest.raises(ValueError):
            ConstraintSpec(faults={"crash_prob": 2.0})
        with pytest.raises(TypeError):
            ConstraintSpec(faults={"flux_capacitor": 1.21})

    def test_execution_config_coerces_dict(self):
        cfg = ExecutionConfig(faults={"crash_prob": 0.3})
        assert isinstance(cfg.faults, FaultSpec)
        assert cfg.faults.crash_prob == 0.3

    def test_fault_model_none_when_disabled(self):
        assert ExecutionConfig().fault_model(0) is None
        assert ExecutionConfig(faults=FaultSpec()).fault_model(0) is None
        assert ExecutionConfig(faults=FAULTS).fault_model(0) is not None


class TestZeroFaultHashStability:
    """Robustness knobs must be invisible in every pre-existing spec's
    serialised form — no cached content hash may ever move."""

    LEGACY_KEYS = {"policy", "availability", "availability_kwargs",
                   "deadline_s", "over_select", "buffer_size",
                   "max_concurrency", "staleness_exponent",
                   "availability_seed", "record_events"}

    def test_execution_config_default_form_unchanged(self):
        assert set(ExecutionConfig().to_dict()) == self.LEGACY_KEYS
        # an all-zero (disabled) spec serialises like no spec at all
        assert set(ExecutionConfig(faults=FaultSpec()).to_dict()) \
            == self.LEGACY_KEYS

    def test_execution_config_emits_when_set(self):
        payload = ExecutionConfig(faults=FAULTS).to_dict()
        assert payload["faults"]["crash_prob"] == FAULTS["crash_prob"]
        assert ExecutionConfig.from_dict(payload) \
            == ExecutionConfig(faults=FAULTS)

    def test_constraint_spec_form_unchanged(self):
        assert "faults" not in ConstraintSpec().to_dict()
        spec = ConstraintSpec(faults=FAULTS)
        assert spec.to_dict()["faults"] == FAULTS
        assert ConstraintSpec.from_dict(spec.to_dict()) == spec

    def test_run_spec_hash_stability(self):
        plain = RunSpec(algorithm="sheterofl", dataset="harbox",
                        constraints=SMOKE, scale="smoke", seed=0)
        empty = plain.replace(constraints=ConstraintSpec(
            constraints=("computation",), faults={}))
        faulted = plain.replace(constraints=ConstraintSpec(
            constraints=("computation",), faults=FAULTS))
        assert empty.content_hash() == plain.content_hash()
        assert faulted.content_hash() != plain.content_hash()
        assert RunSpec.from_dict(
            json.loads(json.dumps(faulted.to_dict()))) == faulted

    def test_faulted_spec_routes_to_event_engine(self):
        healthy = RunSpec(algorithm="sheterofl", dataset="harbox",
                          constraints=SMOKE, scale="smoke")
        faulted = healthy.replace(constraints=ConstraintSpec(
            constraints=("computation",), faults=FAULTS))
        assert healthy.resolved_execution() is None
        resolved = faulted.resolved_execution()
        assert resolved is not None and resolved.faults.enabled


# ----------------------------------------------------------------------
# FaultModel: the deterministic schedule
# ----------------------------------------------------------------------
class TestFaultModel:
    def test_plans_deterministic_across_instances(self):
        spec = FaultSpec(crash_prob=0.2, straggler_prob=0.3, corrupt_prob=0.2)
        a, b = FaultModel(spec, 42), FaultModel(spec, 42)
        for version in range(5):
            for cid in range(8):
                for dispatch in range(3):
                    assert a.plan(version, cid, dispatch) \
                        == b.plan(version, cid, dispatch)

    def test_plans_stateless_order_independent(self):
        spec = FaultSpec(crash_prob=0.5)
        model = FaultModel(spec, 0)
        forward = [model.plan(0, cid) for cid in range(10)]
        backward = [model.plan(0, cid) for cid in reversed(range(10))]
        assert forward == list(reversed(backward))

    def test_keys_and_run_seed_differentiate(self):
        spec = FaultSpec(crash_prob=0.5, straggler_prob=0.5, corrupt_prob=0.5)
        model = FaultModel(spec, 1)
        grid = [model.plan(v, c, d)
                for v in range(4) for c in range(8) for d in range(2)]
        assert len(set(grid)) > 1    # keys actually matter
        other = FaultModel(spec, 2)
        assert any(model.plan(v, c) != other.plan(v, c)
                   for v in range(4) for c in range(8))

    def test_draw_order_pinned(self):
        """Adding a later probability must not reshuffle earlier draws."""
        crash_only = FaultModel(FaultSpec(crash_prob=0.3), 5)
        combined = FaultModel(FaultSpec(crash_prob=0.3, corrupt_prob=0.4), 5)
        for version in range(4):
            for cid in range(10):
                assert crash_only.plan(version, cid).crash \
                    == combined.plan(version, cid).crash

    def test_disabled_always_clean(self):
        model = FaultModel(FaultSpec(), 3)
        assert all(model.plan(v, c).clean
                   for v in range(3) for c in range(5))

    def test_rates_track_probabilities(self):
        model = FaultModel(FaultSpec(crash_prob=0.3), 11)
        draws = [model.plan(v, c) for v in range(100) for c in range(20)]
        rate = sum(p.crash for p in draws) / len(draws)
        assert 0.25 < rate < 0.35


# ----------------------------------------------------------------------
# Corruption + coordinator defense
# ----------------------------------------------------------------------
class TestCorruption:
    def test_nan_mode_poisons_each_entry(self):
        values, key = _flat_payload()
        update = _update((values, key))
        corrupt_update(update, "nan", resolve=_resolve)
        poisoned, new_key = update.payload
        assert np.isnan(update.train_loss)
        assert new_key is key                # the key rides through intact
        # every size // 8-th element of each entry, as a per-entry upload
        want = np.zeros(25, bool)
        want[0:16:2] = want[16:25:1] = True
        assert np.array_equal(np.isnan(poisoned), want)
        # copy-on-corrupt: the trained arrays are never mutated
        assert not np.isnan(values).any()

    def test_inf_scale_zero_modes(self):
        for mode, check in [
            ("inf", lambda a: np.isinf(a).any()),
            ("scale", lambda a: np.max(np.abs(a)) > 1e5),
            ("zero", lambda a: not a.any()),
        ]:
            update = _update(_flat_payload())
            corrupt_update(update, mode, resolve=_resolve)
            assert check(update.payload[0]), mode

    def test_bare_array_payload(self):
        update = _update(np.ones((4, 3), dtype=np.float64))
        corrupt_update(update, "scale", factor=100.0)
        assert float(update.payload.max()) == 100.0

    def test_nested_payload_leaves(self):
        ints = np.array([3, 4])
        update = _update({"a": [np.ones(16, np.float32), ints]})
        corrupt_update(update, "nan")
        poisoned, kept = update.payload["a"]
        assert np.isnan(poisoned[::2]).all() and not np.isnan(poisoned[1::2]).any()
        assert kept is ints                  # integer leaves pass through


class TestValidateUpdate:
    def test_healthy_passes(self):
        assert validate_update(_update(_flat_payload()),
                               resolve=_resolve) is None

    def test_nonfinite_payload_and_loss(self):
        for mode in ("nan", "inf"):
            update = _update(_flat_payload())
            corrupt_update(update, mode, resolve=_resolve)
            update.train_loss = 1.0
            assert validate_update(update, resolve=_resolve) == "nonfinite"
        assert validate_update(_update(_flat_payload(), loss=float("nan")),
                               resolve=_resolve) == "nonfinite"

    def test_scaled_and_zeroed_payloads_pass(self):
        """Validation judges no magnitude: silent blow-up and erasure are
        finite, so nothing catches them."""
        for mode in ("scale", "zero"):
            update = _update(_flat_payload())
            corrupt_update(update, mode, factor=1e6, resolve=_resolve)
            assert validate_update(update, resolve=_resolve) is None, mode

    def test_malformed(self):
        assert validate_update(object()) == "malformed"
        assert validate_update(_update(_flat_payload(), weight=-1.0),
                               resolve=_resolve) == "malformed"
        assert validate_update(_update(_flat_payload(), weight=float("inf")),
                               resolve=_resolve) == "malformed"

    def test_shape_family(self):
        values, key = _flat_payload()
        for bad in (values[:1], np.append(values, np.float32(0)),
                    values[:-1], values.reshape(5, 5),
                    values.astype(np.int64), list(values)):
            assert validate_update(_update((bad, key)),
                                   resolve=_resolve) == "shape", bad
        for bad_key in ((("width_mult", 0.25),), 0, None), (), ("x",):
            assert validate_update(_update((values, bad_key)),
                                   resolve=_resolve) == "shape", bad_key

    def test_a_one_element_upload_is_not_broadcast(self):
        """A global entry of shape (2, 3) and an upload of ``[5.0]``: the
        upload is refused instead of filling every coordinate with 5.0."""
        def resolve(key):
            return SubIndex(index=slice(0, 6), take=slice(None),
                            bounds=(0, 6))

        update = _update((np.array([5.0], np.float32), _KEY))
        assert validate_update(update, resolve=resolve) == "shape"

    def test_any_nonfinite_entry_or_leaf_is_refused(self):
        values, key = _flat_payload()
        values[20] = np.nan
        assert validate_update(_update((values, key)),
                               resolve=_resolve) == "nonfinite"
        big = np.full(5, 1e6, np.float32)
        nan = np.array([1.0, np.nan])
        assert validate_update(_update([big, nan])) == "nonfinite"
        inf = np.array([np.inf], np.float16)
        assert validate_update(
            _update({"a": [np.ones(3)], "b": {"c": inf}})) == "nonfinite"

    def test_int_and_empty_leaves_are_ignored(self):
        ints = np.array([10 ** 9, -10 ** 9])
        empty = np.empty((0, 3), np.float32)
        assert validate_update(_update([ints, empty, np.ones(2)])) is None
        assert validate_update(_update([ints, empty])) is None
        assert validate_update(_update({})) is None

    def test_mixed_float_dtypes(self):
        leaves = [np.array([65504.0], np.float16), np.ones(4, np.float32),
                  np.array([-2.5])]
        assert validate_update(_update(leaves)) is None
        leaves[1][2] = np.nan
        assert validate_update(_update(leaves)) == "nonfinite"

    @given(leaves=st.lists(st.tuples(
        st.sampled_from([np.float16, np.float32, np.float64, np.int64]),
        st.integers(0, 4),
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -3.0, 50.0, 1e5, np.inf,
                                  -np.inf, np.nan]), max_size=3)),
        max_size=5),
        nest=st.sampled_from(["list", "dict", "flat"]))
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_as_the_per_leaf_loop(self, leaves, nest):
        arrays = []
        for dtype, size, values in leaves:
            array = np.arange(size).astype(dtype)
            with np.errstate(over="ignore"):    # 1e5 is inf in float16
                for index, value in enumerate(values[:size]):
                    array[index] = value if dtype != np.int64 else 7
            arrays.append(array)
        resolve = None
        if nest == "list":
            payload = [arrays[:2], tuple(arrays[2:])]
        elif nest == "dict":
            payload = {"head": {"w": arrays}, "tail": []}
        else:
            # One flat upload whose entries are the float arrays, widened.
            arrays = [a.astype(np.float64) for a in arrays
                      if a.dtype.kind == "f"]
            bounds = tuple(np.cumsum([0] + [a.size for a in arrays]).tolist())
            payload = (np.concatenate([np.zeros(0)] + arrays), _KEY)

            def resolve(key):
                return SubIndex(slice(0, bounds[-1]), slice(None), bounds)

        reference = arrays if nest == "flat" else payload
        assert validate_update(_update(payload), resolve) == \
            _per_leaf_verdict(reference)


def _per_leaf_verdict(payload):
    """``validate_update``'s array check as it was, one leaf at a time in
    payload order: the reference the one-pass check must agree with."""
    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, dict):
            for item in value.values():
                yield from arrays(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from arrays(item)

    for array in arrays(payload):
        if array.size and np.issubdtype(array.dtype, np.floating):
            if not np.all(np.isfinite(array)):
                return "nonfinite"
    return None


# ----------------------------------------------------------------------
# Fault-injected rounds end to end
# ----------------------------------------------------------------------
class TestFlatUploads:
    """The parameter-averaging upload is one vector and a key; what the
    coordinator does with a damaged one."""

    @pytest.mark.parametrize("cut", [lambda v: v[:1],
                                     lambda v: np.append(v, np.float32(0))])
    def test_wrong_length_is_quarantined_not_broadcast(self, cut):
        algorithm = tiny_scenario().algorithm
        before = algorithm.global_vector.copy()
        run_client = algorithm.run_client

        def mangled(*args, **kwargs):
            result = run_client(*args, **kwargs)
            values, key = result.payload
            result.payload = (cut(values), key)
            return result

        algorithm.run_client = mangled
        history = run_simulation(algorithm, SimulationConfig(
            num_rounds=1, sample_ratio=0.3, eval_every=1, seed=3,
            execution=ExecutionConfig()))
        rejections = [e for r in history.records for e in r.events
                      if e["type"] == "update_rejected"]
        assert len(rejections) == 3
        assert all(e["reason"] == "shape" for e in rejections)
        np.testing.assert_array_equal(algorithm.global_vector, before)


class TestFaultCompareArtifact:
    def test_defenses_fire_at_eight_smoke_rounds(self):
        """Smoke's rounds draw no crash and no corruption; eight rounds of
        the SHeteroFL cell crash dispatches and quarantine corrupted
        uploads, and ``flaky``'s accepted 1e6-scaled upload shows as a
        poisoned ``final_loss``."""
        from repro.experiments import get_artifact
        with np.errstate(over="ignore", invalid="ignore"):
            rows = get_artifact("fault_compare").run(
                scale="smoke", algorithms=["sheterofl"],
                profiles=["clean", "crash", "corrupt", "flaky"],
                scale_overrides={"num_rounds": 8})
        by_profile = {row["profile"]: row for row in rows}
        assert by_profile["crash"]["crashed"] > 0
        assert by_profile["corrupt"]["quarantined"] > 0
        assert by_profile["clean"]["crashed"] == 0
        assert by_profile["clean"]["quarantined"] == 0
        assert (by_profile["flaky"]["final_loss"]
                >= 1e6 * by_profile["clean"]["final_loss"])


class TestFaultedRounds:
    def test_crashes_recorded_and_survived(self):
        execution = ExecutionConfig(faults={"crash_prob": 0.5})
        history = run_simulation(tiny_scenario().algorithm,
                                 SimulationConfig(**SIM, execution=execution))
        assert len(history.records) == SIM["num_rounds"]
        dropped = history.dropped_counts()
        assert dropped.get("crash", 0) > 0
        failures = [e for r in history.records for e in r.events
                    if e["type"] == "client_failed"]
        assert len(failures) == dropped["crash"]
        assert all(np.isfinite(r.train_loss) for r in history.records)

    def test_corruption_quarantined(self):
        execution = ExecutionConfig(faults={"corrupt_prob": 0.6})
        history = run_simulation(tiny_scenario().algorithm,
                                 SimulationConfig(**SIM, execution=execution))
        dropped = history.dropped_counts()
        assert dropped.get("quarantined", 0) > 0
        rejections = [e for r in history.records for e in r.events
                      if e["type"] == "update_rejected"]
        assert len(rejections) == dropped["quarantined"]
        assert all(e["reason"] == "nonfinite" for e in rejections)
        # quarantine kept the aggregate healthy
        assert all(np.isfinite(r.train_loss) for r in history.records)
        assert np.isfinite(history.final_accuracy)

    def test_stragglers_stretch_rounds(self):
        base = run_simulation(tiny_scenario().algorithm,
                              SimulationConfig(**SIM,
                                               execution=ExecutionConfig()))
        slowed = run_simulation(
            tiny_scenario().algorithm,
            SimulationConfig(**SIM, execution=ExecutionConfig(
                faults={"straggler_prob": 0.9, "straggler_factor": 8.0})))
        assert slowed.total_sim_time_s > base.total_sim_time_s

    def test_deterministic_across_runs(self):
        execution = ExecutionConfig(faults=FAULTS)
        config = SimulationConfig(**SIM, execution=execution)
        first = run_simulation(tiny_scenario().algorithm, config)
        second = run_simulation(tiny_scenario().algorithm, config)
        assert first.to_json() == second.to_json()

    def test_executor_identity_under_faults(self):
        spec = RunSpec(algorithm="sheterofl", dataset="harbox",
                       constraints=ConstraintSpec(
                           constraints=("computation",), faults=FAULTS),
                       scale="smoke", seed=0)
        inline = execute_spec(spec.replace(workers=1, executor="inline"))
        pooled = execute_spec(spec.replace(workers=2, executor="process"))
        assert inline.history.to_json() == pooled.history.to_json()

    def test_buffered_policy_faults(self):
        execution = ExecutionConfig(policy="buffered", buffer_size=2,
                                    faults={"crash_prob": 0.3,
                                            "corrupt_prob": 0.3})
        config = SimulationConfig(**SIM, execution=execution)
        first = run_simulation(tiny_scenario().algorithm, config)
        second = run_simulation(tiny_scenario().algorithm, config)
        assert first.to_json() == second.to_json()
        dropped = first.dropped_counts()
        assert dropped.get("crash", 0) + dropped.get("quarantined", 0) > 0

    def test_zero_fault_run_bit_identical_to_pre_layer(self):
        """A disabled fault spec must not perturb a single byte."""
        plain = run_simulation(tiny_scenario().algorithm,
                               SimulationConfig(**SIM,
                                                execution=ExecutionConfig()))
        gated = run_simulation(
            tiny_scenario().algorithm,
            SimulationConfig(**SIM,
                             execution=ExecutionConfig(faults=FaultSpec())))
        assert plain.to_json() == gated.to_json()


# ----------------------------------------------------------------------
# Hardened executors
# ----------------------------------------------------------------------
class _InProcessPool(ProcessExecutor):
    """The pool executor's retry/rebuild machinery over a
    test-owned in-process pool, so no worker processes are spawned."""

    def _build_pool(self):
        return ThreadPoolExecutor(max_workers=self.workers)


class _ScriptedExecutor(_InProcessPool):
    """Pool whose work is a per-item script of failures, so retry and
    rebuild behaviour can be pinned without real crashes."""

    def __init__(self, failures, exception=TransientExecutorError):
        self.failures = failures        # attempts that should fail per item
        self.exception = exception
        self.calls = {}
        self._calls_lock = threading.Lock()
        super().__init__(algorithm=None, workers=2)

    def _submit_raw(self, item):
        def work():
            with self._calls_lock:
                attempt = self.calls.get(item.client_id, 0)
                self.calls[item.client_id] = attempt + 1
            if attempt < self.failures:
                raise self.exception(f"scripted failure {attempt}")
            return ClientResult(train_loss=0.0, weight=0.0, payload=None)
        return self._pool.submit(work)


def _item(cid=0):
    return ClientWorkItem(client_id=cid, version=0, run_seed=0)


class TestExecutorHardening:
    def test_transient_classification(self):
        assert failure_is_transient(TransientExecutorError("x"))
        assert failure_is_transient(BrokenExecutor())
        assert failure_is_transient(TimeoutError())
        assert failure_is_transient(ConnectionResetError())
        assert not failure_is_transient(ExecutorError("permanent"))
        assert not failure_is_transient(ValueError("bug"))

    def test_retry_recovers_transient_failures(self):
        with _ScriptedExecutor(failures=DEFAULT_RETRIES) as executor:
            result = executor.submit(_item()).result()
        assert isinstance(result, ClientResult)
        assert executor.calls[0] == DEFAULT_RETRIES + 1

    def test_retry_budget_exhausts(self):
        with _ScriptedExecutor(failures=DEFAULT_RETRIES + 1) as executor:
            with pytest.raises(TransientExecutorError):
                executor.submit(_item()).result()
        assert executor.calls[0] == DEFAULT_RETRIES + 1

    def test_zero_retries_fails_fast(self):
        class FailFast(_ScriptedExecutor):
            retries = 0

        with FailFast(failures=1) as executor:
            with pytest.raises(TransientExecutorError):
                executor.submit(_item()).result()
        assert executor.calls[0] == 1

    def test_permanent_failure_not_retried(self):
        with _ScriptedExecutor(failures=1, exception=ValueError) as executor:
            with pytest.raises(ValueError):
                executor.submit(_item()).result()
        assert executor.calls[0] == 1

    def test_broken_pool_rebuilt_once_and_redispatched(self):
        with _ScriptedExecutor(failures=1,
                               exception=BrokenExecutor) as executor:
            first_pool = executor._pool
            result = executor.submit(_item()).result()
            assert isinstance(result, ClientResult)
            assert executor._pool is not first_pool
            assert executor._generation == 1

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched client step reaches pool "
                               "workers only through fork")
    def test_worker_death_rebuilds_pool(self, tmp_path, monkeypatch):
        """A real worker process dies mid-item: the pool breaks, is rebuilt
        with the same initializer, and the History is the inline one."""
        from repro.algorithms.heterofl import SHeteroFL
        spec = RunSpec(algorithm="sheterofl", dataset="harbox",
                       constraints=SMOKE, scale="smoke")
        reference = execute_spec(spec, cache=None).history
        coordinator = os.getpid()
        marker = tmp_path / "worker-died"
        run_client = SHeteroFL.run_client

        def die_once(self, *args, **kwargs):
            if os.getpid() != coordinator:
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    os._exit(1)
            return run_client(self, *args, **kwargs)

        monkeypatch.setattr(SHeteroFL, "run_client", die_once)
        pooled = execute_spec(spec.replace(workers=2, executor="process"),
                              cache=None).history
        assert marker.exists()
        assert pooled.to_json() == reference.to_json()
        retries = sum(timing["retries"] for record in pooled.records
                      for timing in record.extras["client_timings"].values())
        assert retries >= 1


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class _ToyAlgorithm:
    name = "toy"
    dataset_name = "synthetic"

    def __init__(self):
        self.global_state = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}

    def checkpoint_state(self):
        return {"global_state": {k: v.copy()
                                 for k, v in self.global_state.items()}}

    def restore_checkpoint_state(self, state):
        self.global_state = {k: np.asarray(v)
                             for k, v in state["global_state"].items()}


class TestCheckpointer:
    def _checkpointer(self, tmp_path, **kwargs):
        return Checkpointer(CheckpointConfig(
            path=tmp_path / "run.ckpt.json", **kwargs))

    def _save(self, ckpt, algorithm=None, rng=None):
        from repro.fl import History
        algorithm = algorithm or _ToyAlgorithm()
        rng = rng or np.random.default_rng(0)
        ckpt.save(algorithm, rng, History(algorithm="toy",
                                          dataset="synthetic"),
                  next_round=3, sim_time_s=21.5, participation={4: 2})
        return algorithm, rng

    def test_due_cadence(self, tmp_path):
        ckpt = self._checkpointer(tmp_path, every=2)
        assert [ckpt.due(i) for i in range(4)] == [False, True, False, True]
        with pytest.raises(ValueError):
            CheckpointConfig(path="x", every=0)

    def test_save_load_round_trip(self, tmp_path):
        ckpt = self._checkpointer(tmp_path)
        algorithm, rng = self._save(ckpt)
        rng.random(5)    # advance past the snapshot
        payload = ckpt.load()
        assert payload["next_round"] == 3
        assert payload["participation"] == {"4": 2}
        # resume restores rng + algorithm state bit-exactly
        resumed = self._checkpointer(tmp_path, resume=True)
        fresh_algo, fresh_rng = _ToyAlgorithm(), np.random.default_rng(99)
        fresh_algo.global_state["w"][:] = -1.0
        history, next_round, sim_time, participation = \
            resumed.maybe_resume(fresh_algo, fresh_rng)
        assert (next_round, sim_time) == (3, 21.5)
        assert participation == {4: 2}
        np.testing.assert_array_equal(fresh_algo.global_state["w"],
                                      algorithm.global_state["w"])
        saved_rng = np.random.default_rng(0)
        np.testing.assert_array_equal(fresh_rng.random(3),
                                      saved_rng.random(3))

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        ckpt = self._checkpointer(tmp_path)
        self._save(ckpt)
        self._save(ckpt)    # overwrite in place
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt.json"]

    def test_not_resuming_and_missing_read_as_fresh(self, tmp_path):
        assert self._checkpointer(tmp_path).maybe_resume(
            _ToyAlgorithm(), np.random.default_rng(0)) is None
        resumed = self._checkpointer(tmp_path, resume=True)
        assert resumed.maybe_resume(_ToyAlgorithm(),
                                    np.random.default_rng(0)) is None

    def test_corrupt_and_version_skewed_read_as_fresh(self, tmp_path):
        ckpt = self._checkpointer(tmp_path, resume=True)
        ckpt.path.write_text("{ torn")
        assert ckpt.load() is None
        self._save(ckpt)
        payload = json.loads(ckpt.path.read_text())
        payload["checkpoint_version"] = CHECKPOINT_VERSION + 1
        ckpt.path.write_text(json.dumps(payload))
        assert ckpt.load() is None
        assert ckpt.maybe_resume(_ToyAlgorithm(),
                                 np.random.default_rng(0)) is None

    def test_wrong_run_raises(self, tmp_path):
        ckpt = self._checkpointer(tmp_path, resume=True)
        self._save(ckpt)
        other = _ToyAlgorithm()
        other.name = "different"
        with pytest.raises(ValueError, match="belongs to"):
            ckpt.maybe_resume(other, np.random.default_rng(0))

    def test_clear(self, tmp_path):
        ckpt = self._checkpointer(tmp_path)
        self._save(ckpt)
        ckpt.clear()
        assert not ckpt.path.exists()
        ckpt.clear()    # idempotent

    def test_make_checkpointer(self, tmp_path):
        assert make_checkpointer(None) is None
        bare = make_checkpointer(tmp_path / "x.json")
        assert isinstance(bare, Checkpointer)
        assert bare.config.every == 1 and not bare.config.resume


class _Interrupt(RuntimeError):
    pass


#: algorithm -> History JSON of its uninterrupted three-round run.
_UNINTERRUPTED: dict[str, str] = {}


class TestKillAndResume:
    """Resume must reproduce the uninterrupted run byte for byte."""

    @pytest.mark.parametrize("faulted", [False, True])
    def test_resume_identity(self, tmp_path, faulted):
        algorithm = "fedproto"
        path = tmp_path / "run.ckpt.json"
        execution = (ExecutionConfig(faults=FAULTS) if faulted
                     else None)

        def config(checkpoint):
            return SimulationConfig(**SIM, execution=execution,
                                    checkpoint=checkpoint)

        reference = run_simulation(tiny_scenario(algorithm).algorithm,
                                   config(None))

        # interrupt after two aggregations
        scen = tiny_scenario(algorithm)
        real_ingest, calls = scen.algorithm.ingest, {"n": 0}

        def bomb(updates, round_index, rng):
            if calls["n"] >= 2:
                raise _Interrupt()
            calls["n"] += 1
            return real_ingest(updates, round_index, rng)

        scen.algorithm.ingest = bomb
        with pytest.raises(_Interrupt):
            run_simulation(scen.algorithm,
                           config(CheckpointConfig(path=path, every=1)))
        assert path.exists()

        resumed = run_simulation(
            tiny_scenario(algorithm).algorithm,
            config(CheckpointConfig(path=path, every=1, resume=True)))
        assert resumed.to_json() == reference.to_json()
        assert not path.exists()    # cleared after a completed run

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @given(cut=st.integers(1, 2))
    @settings(max_examples=2, deadline=None)
    def test_resume_at_any_round_equals_uninterrupted(self, algorithm, cut):
        """Every algorithm's ``checkpoint_state`` / ``restore_checkpoint_state``
        pair (the global vector's, or the personal models' and server
        state's) resumes bit for bit, whichever round the run died after."""
        import tempfile
        sim = dict(num_rounds=3, sample_ratio=0.3, eval_every=1, seed=5)
        if algorithm not in _UNINTERRUPTED:
            _UNINTERRUPTED[algorithm] = run_simulation(
                tiny_scenario(algorithm).algorithm,
                SimulationConfig(**sim)).to_json()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.ckpt.json")
            scen = tiny_scenario(algorithm)
            real_ingest, calls = scen.algorithm.ingest, {"n": 0}

            def bomb(updates, round_index, rng):
                if calls["n"] >= cut:
                    raise _Interrupt()
                calls["n"] += 1
                return real_ingest(updates, round_index, rng)

            scen.algorithm.ingest = bomb
            with pytest.raises(_Interrupt):
                run_simulation(scen.algorithm, SimulationConfig(
                    **sim, checkpoint=CheckpointConfig(path=path, every=1)))
            resumed = run_simulation(
                tiny_scenario(algorithm).algorithm, SimulationConfig(
                    **sim, checkpoint=CheckpointConfig(path=path, every=1,
                                                       resume=True)))
        assert resumed.to_json() == _UNINTERRUPTED[algorithm]

    @pytest.mark.parametrize("algorithm", ["sheterofl", "fedproto"])
    def test_resume_under_process_pool(self, tmp_path, algorithm):
        """A pool round finishes the previous round while it trains; the
        rounds a snapshot covers must be finished before it is written, or
        the resumed run would miss their records."""
        path = tmp_path / "run.ckpt.json"
        spec = RunSpec(algorithm, "harbox", scale="smoke", seed=0)

        def config(checkpoint):
            return SimulationConfig(num_rounds=4, sample_ratio=0.3,
                                    eval_every=1, seed=3, workers=2,
                                    executor="process",
                                    checkpoint=checkpoint)

        reference = run_simulation(prepare_scenario(spec)[0].algorithm,
                                   config(None))
        algo = prepare_scenario(spec)[0].algorithm
        real_ingest, calls = algo.ingest, {"n": 0}

        def bomb(updates, round_index, rng):
            if calls["n"] >= 3:
                raise _Interrupt()
            calls["n"] += 1
            return real_ingest(updates, round_index, rng)

        algo.ingest = bomb
        with pytest.raises(_Interrupt):
            run_simulation(algo, config(CheckpointConfig(path=path, every=2)))
        assert path.exists()
        resumed = run_simulation(
            prepare_scenario(spec)[0].algorithm,
            config(CheckpointConfig(path=path, every=2, resume=True)))
        assert resumed.to_json() == reference.to_json()

    def test_buffered_policy_refuses_checkpoint(self, tmp_path):
        """In-flight futures cannot be snapshotted: the pair is refused
        where the config is built, naming both fields."""
        with pytest.raises(ValueError,
                           match=r"checkpoint.*execution\.policy='buffered'"):
            SimulationConfig(
                **SIM,
                execution=ExecutionConfig(policy="buffered", buffer_size=2),
                checkpoint=CheckpointConfig(path=tmp_path / "b.ckpt.json"))


class TestRunnerCheckpointing:
    def test_spec_checkpoint_derives_per_spec_path(self, tmp_path):
        spec = RunSpec(algorithm="sheterofl", dataset="harbox",
                       constraints=SMOKE, scale="smoke", seed=0)
        assert _spec_checkpoint(spec) is None
        with run_defaults(RunDefaults(checkpoint_dir=tmp_path,
                                      checkpoint_every=3, resume=True)):
            checkpoint = _spec_checkpoint(spec)
            assert checkpoint.path \
                == tmp_path / f"{spec.content_hash()}.ckpt.json"
            assert checkpoint.every == 3 and checkpoint.resume
            other = _spec_checkpoint(spec.replace(seed=1))
            assert other.path != checkpoint.path
        assert _spec_checkpoint(spec) is None

    @pytest.mark.parametrize("via_tag", [False, True])
    def test_buffered_cell_runs_without_checkpoints(self, tmp_path, caplog,
                                                    via_tag):
        """The runner decides on the *resolved* execution block — the
        spec's own or the one its buffered variant tag derives — and says
        so once."""
        spec = RunSpec(algorithm="sheterofl", dataset="harbox",
                       constraints=SMOKE, scale="smoke", seed=0)
        spec = (spec.replace(tag=buffered_tag(spec)) if via_tag else
                spec.replace(execution=ExecutionConfig(policy="buffered",
                                                       buffer_size=2)))
        reset_logging()  # an earlier CLI test may have stopped propagation
        with run_defaults(RunDefaults(checkpoint_dir=tmp_path,
                                      checkpoint_every=1)), \
                caplog.at_level(logging.INFO, logger="repro.runner"):
            result = execute_spec(spec, cache=None)
        assert len(result.history.records) > 0
        assert list(tmp_path.iterdir()) == []
        notes = [r for r in caplog.records if r.name == "repro.runner"
                 and "cannot be checkpointed" in r.getMessage()]
        assert len(notes) == 1


# ----------------------------------------------------------------------
# Satellite regressions
# ----------------------------------------------------------------------
class TestCachePutLeak:
    def test_failed_put_leaves_no_files(self, tmp_path):
        from repro.fl import History, RoundRecord
        cache = RunCache(tmp_path)
        spec = RunSpec(algorithm="sheterofl", dataset="harbox",
                       constraints=SMOKE, scale="smoke", seed=0)
        history = History(algorithm="a", dataset="d")
        history.append(RoundRecord(round_index=0, sim_time_s=1.0,
                                   round_time_s=1.0, train_loss=1.0,
                                   extras={"poison": object()}))
        with pytest.raises(TypeError):
            cache.put(spec, history)
        assert list(tmp_path.iterdir()) == []


class TestAtomicWrite:
    """Every persisted file (cache entry, checkpoint, saved History) goes
    through one writer."""

    @pytest.mark.parametrize("writer", ["atomic_write_text", "save_history"])
    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch,
                                              writer):
        from repro.fl import History, serialization
        path = tmp_path / "run.json"
        path.write_text("old")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(serialization.os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            if writer == "save_history":
                serialization.save_history(
                    History(algorithm="a", dataset="d"), path)
            else:
                serialization.atomic_write_text(path, "new")
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

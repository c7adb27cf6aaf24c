"""Tests for the FL runtime: one round loop, driven by aggregation policies.

Covers the unified-runtime contract (a run given no execution block is the
default block minus the event timeline and ``dispatched``/``received``
extras, with stored History bytes pinned), buffered staleness accounting,
deadline/dropout/churn handling, the availability models, and the
async_compare experiment end-to-end.
"""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.constraints import ConstraintSpec, build_scenario
from repro.data import load_dataset
from repro.fl import (AGGREGATION_POLICIES, BufferedPolicy, Event,
                      EventQueue, ExecutionConfig, LocalTrainConfig,
                      SimulationConfig, SynchronousPolicy, make_availability,
                      make_policy, run_simulation)
from repro.fl.checkpoint import CheckpointConfig
from repro.fl.events import (CLIENT_DROPPED, CLIENT_FAILED, DOWNLOAD_START,
                             SERVER_AGGREGATE, UPLOAD_COMPLETE)
from repro.fl.executor import InlineExecutor
from repro.fl.faults import FaultPlan, FaultSpec
from repro.fl.sanitizers import StrictModeViolation
from repro.fl.serialization import history_to_dict
from repro.models import build_model


def tiny_scenario(algorithm="sheterofl", seed=0, num_clients=10):
    ds = load_dataset("harbox", seed=0, num_users=10, samples_per_user=10,
                      test_size=60)
    model = build_model("har_cnn", num_classes=ds.num_classes, seed=0)
    spec = ConstraintSpec(constraints=("computation",))
    config = LocalTrainConfig(batch_size=8, local_epochs=1, max_batches=1)
    return build_scenario(algorithm, model, ds, num_clients, spec,
                          train_config=config, seed=seed,
                          eval_max_samples=60)


SIM = dict(num_rounds=4, sample_ratio=0.3, eval_every=2, seed=3)


# Segment values where float addition does not associate:
# (NOW + DOWN) + TRAIN != NOW + (DOWN + TRAIN).
NOW, DOWN, TRAIN, UP = 0.3, 0.1, 0.7, 0.25
TOTAL = TRAIN + (DOWN + UP)


class _StubAlgorithm:
    """Just what ``launch`` reads: one client with fixed time segments."""

    clients = {7: object()}

    def client_time_segments(self, ctx):
        return DOWN, TRAIN, UP

    def client_round_time_s(self, ctx):
        return TOTAL


class _StubAvailability:
    def __init__(self, drops=False, online_until=math.inf):
        self.drops, self.until, self.consulted = drops, online_until, []

    def drops_round(self, cid, participation):
        self.consulted.append(("drops_round", cid, participation))
        return self.drops

    def online_until(self, cid, now):
        self.consulted.append(("online_until", cid, now))
        return self.until


class _StubFaults:
    spec = FaultSpec()

    def __init__(self, plan):
        self.fixed, self.asked = plan, []

    def plan(self, version, client_id, dispatch=0):
        self.asked.append((version, client_id, dispatch))
        return self.fixed


def _launch(policy_cls, *, drops=False, online_until=math.inf, plan=None,
            horizon=math.inf):
    """One ``launch`` under ``policy_cls``: (returned segments, queued
    events as comparable tuples, the policy, the availability stub)."""
    execution = ExecutionConfig(policy=policy_cls.name)
    availability = _StubAvailability(drops, online_until)
    policy = policy_cls(SimulationConfig(execution=execution), execution,
                        availability, InlineExecutor())
    policy.faults = None if plan is None else _StubFaults(plan)
    launched = policy.launch(_StubAlgorithm(), 7, NOW, 3, horizon=horizon)
    events = []
    while policy.queue:
        event = policy.queue.pop()
        events.append((event.time_s, event.type, event.client_id,
                       dict(event.info)))
    return launched, events, policy, availability


class TestSharedLaunch:
    """The per-client fate rules live once, on ``AggregationPolicy``: the
    same client under the same conditions produces the same events at the
    same simulated times whatever the server does with the updates."""

    FATES = {
        "trains": (dict(), None),
        "dropout": (dict(drops=True),
                    (NOW + DOWN + TRAIN, CLIENT_DROPPED, 7,
                     {"reason": "dropout"})),
        "churn": (dict(online_until=NOW + 0.5),
                  (NOW + 0.5, CLIENT_DROPPED, 7, {"reason": "churn"})),
        "crash": (dict(plan=FaultPlan(crash=True)),
                  (NOW + DOWN + TRAIN, CLIENT_FAILED, 7,
                   {"reason": "crash"})),
        "late": (dict(horizon=1.0),
                 (NOW + TOTAL, UPLOAD_COMPLETE, 7, {"late": True})),
    }

    @pytest.mark.parametrize("fate", sorted(FATES))
    def test_same_events_under_both_policies(self, fate):
        kwargs, expected = self.FATES[fate]
        outcomes = {}
        for cls in (SynchronousPolicy, BufferedPolicy):
            launched, events, policy, _ = _launch(cls, **kwargs)
            # DOWNLOAD_START first, at the dispatch instant, carrying the
            # server index under the policy's own name for it.
            key = {"sync": "round", "buffered": "version"}[cls.name]
            assert events[0] == (NOW, DOWNLOAD_START, 7, {key: 3})
            outcomes[cls.name] = (launched, events[1:])
            assert policy._participation == {7: 1}
        assert outcomes["sync"] == outcomes["buffered"]
        launched, rest = outcomes["sync"]
        if expected is None:
            assert launched == (DOWN, TRAIN, TOTAL) and rest == []
        else:
            assert launched is None and rest == [expected]

    def test_post_train_events_are_left_associated(self):
        assert NOW + DOWN + TRAIN != NOW + (DOWN + TRAIN)  # the trap
        _, events, _, _ = _launch(SynchronousPolicy,
                                  plan=FaultPlan(crash=True))
        assert events[1][0] == (NOW + DOWN) + TRAIN

    def test_availability_is_consulted_dropout_first(self):
        _, _, _, dropped = _launch(BufferedPolicy, drops=True)
        assert dropped.consulted == [("drops_round", 7, 0)]
        _, _, _, healthy = _launch(BufferedPolicy)
        assert healthy.consulted == [("drops_round", 7, 0),
                                     ("online_until", 7, NOW)]

    def test_fate_precedence(self):
        """dropout > churn > crash > provably late."""
        everything = dict(plan=FaultPlan(crash=True), horizon=1.0)
        for availability, reason in (
                (dict(drops=True, online_until=NOW), "dropout"),
                (dict(online_until=NOW), "churn"),
                (dict(), "crash")):
            _, events, _, _ = _launch(SynchronousPolicy, **availability,
                                      **everything)
            assert [e[3].get("reason") for e in events[1:]] == [reason]

    @pytest.mark.parametrize("cls", [SynchronousPolicy, BufferedPolicy])
    def test_clean_fault_plan_equals_no_plan(self, cls):
        healthy = _launch(cls)
        clean = _launch(cls, plan=FaultPlan())
        assert clean[:2] == healthy[:2]
        assert clean[2]._fault_plans == healthy[2]._fault_plans == {}
        assert clean[2].faults.asked == [(3, 7, 0)]

    def test_straggler_stretches_train_and_lands_with_the_update(self):
        plan = FaultPlan(slowdown=4.0, corrupt="zero")
        launched, _, policy, _ = _launch(BufferedPolicy, plan=plan)
        slowed = TRAIN * 4.0
        assert launched == (DOWN, slowed, slowed + (DOWN + UP))
        assert policy._fault_plans == {7: (plan, launched[2])}

        class _Algo:
            absorbed = []

            def apply_client_state(self, cid, state):
                self.absorbed.append((cid, state))

        from repro.algorithms import ClientUpdate
        from repro.fl.executor import ClientResult
        update = ClientUpdate(client_id=7, version=3, train_loss=1.0,
                              round_time_s=TOTAL, weight=1.0,
                              payload=np.ones(4, dtype=np.float32))
        result = ClientResult(client_id=7, update=update,
                              client_state={"k": 1}, timing={"execute_s": 1.0})
        landed = policy.land(_Algo(), 7, result)
        assert landed is update and _Algo.absorbed == [(7, {"k": 1})]
        assert update.round_time_s == launched[2]
        assert not update.payload.any()        # "zero" corruption applied
        assert policy._fault_plans == {}
        assert policy._timings == {7: {"execute_s": 1.0}}


@pytest.mark.parametrize("name", sorted(AGGREGATION_POLICIES))
class TestMakePolicy:
    """A policy is always handed its executor: there is no fallback."""

    def _args(self, name):
        execution = ExecutionConfig(policy=name)
        return (SimulationConfig(execution=execution), execution,
                make_availability("always_on", 4))

    def test_builds_the_named_policy_on_the_given_executor(self, name):
        executor = InlineExecutor()
        policy = make_policy(*self._args(name), executor)
        assert type(policy) is AGGREGATION_POLICIES[name]
        assert policy.executor is executor

    def test_executor_is_required(self, name):
        with pytest.raises(TypeError):
            make_policy(*self._args(name))
        with pytest.raises(TypeError):
            AGGREGATION_POLICIES[name](*self._args(name))


class TestEventQueue:
    def test_orders_by_time_then_insertion(self):
        q = EventQueue()
        q.push(Event(2.0, UPLOAD_COMPLETE, 1))
        q.push(Event(1.0, DOWNLOAD_START, 2))
        q.push(Event(1.0, CLIENT_DROPPED, 3))
        popped = [q.pop() for _ in range(3)]
        assert [e.client_id for e in popped] == [2, 3, 1]
        assert not q
        with pytest.raises(IndexError):
            q.pop()

    def test_rejects_unknown_event_type(self):
        with pytest.raises(ValueError):
            Event(0.0, "teleport", 1)

    def test_timeline_entry_drops_payloads(self):
        event = Event(1.5, UPLOAD_COMPLETE, 4,
                      info={"staleness": 2, "update": object()})
        entry = event.timeline_entry()
        assert entry == {"t": 1.5, "type": UPLOAD_COMPLETE, "client": 4,
                         "staleness": 2}


#: sha256 of ``History.to_json()`` for the four ``execution=None`` tiny
#: cells, recorded at the commit *before* the legacy synchronous loop was
#: deleted: stored results must not move when the runtime is unified.
NO_BLOCK_HISTORY_SHA256 = {
    "sheterofl":
        "427a1f5697d01c5da13bfb76356279cf2c6338d12dc8d125fb83743736593573",
    "fedrolex":
        "ddbe63547153310cc5aa3a5ed61162237515da58778a99dc53bd16a05243a50a",
    "fedproto":
        "49edfcae72e4ad1e24fae9e2990a3bb5c33cbeaefa019a92cb20654c427d70e2",
    "fedet":
        "a73c594a4d3f06af2cdcf236e9a952abf326c614e8484698c45f4a2f1975c5a0",
}

ALGORITHMS = sorted(NO_BLOCK_HISTORY_SHA256)


class TestLegacyEquivalence:
    """A run given no execution block *is* ``ExecutionConfig()`` — same
    policy, same code — recorded in the block-less format stored results
    were written in."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_history_matches_legacy(self, algorithm):
        plain = run_simulation(tiny_scenario(algorithm).algorithm,
                               SimulationConfig(**SIM))
        block = run_simulation(
            tiny_scenario(algorithm).algorithm,
            SimulationConfig(**SIM, execution=ExecutionConfig()))

        # Every record field agrees; the block adds exactly the event
        # timeline and the dispatched/received extras, nothing else.
        assert all(r.events == [] for r in plain.records)
        assert all(r.events for r in block.records)
        stripped = history_to_dict(block)
        for record in stripped["records"]:
            record["events"] = []
            assert record["extras"].pop("dispatched") \
                == record["extras"].pop("received")
        assert stripped == history_to_dict(plain)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_block_history_bytes_pinned(self, algorithm):
        history = run_simulation(tiny_scenario(algorithm).algorithm,
                                 SimulationConfig(**SIM))
        digest = hashlib.sha256(history.to_json().encode()).hexdigest()
        assert digest == NO_BLOCK_HISTORY_SHA256[algorithm]

    def test_event_run_records_timeline(self):
        history = run_simulation(
            tiny_scenario().algorithm,
            SimulationConfig(**SIM, execution=ExecutionConfig()))
        record = history.records[0]
        types = [e["type"] for e in record.events]
        assert types.count(DOWNLOAD_START) == record.extras["dispatched"]
        assert types.count(UPLOAD_COMPLETE) == record.extras["received"]
        assert SERVER_AGGREGATE in types
        # Events are clock-ordered up to the closing server-side entries.
        upload_times = [e["t"] for e in record.events
                        if e["type"] == UPLOAD_COMPLETE]
        assert upload_times == sorted(upload_times)

    def test_record_events_off(self):
        history = run_simulation(
            tiny_scenario().algorithm,
            SimulationConfig(**SIM,
                             execution=ExecutionConfig(record_events=False)))
        assert all(r.events == [] for r in history.records)
        assert all("dispatched" in r.extras for r in history.records)

    def test_no_block_run_quarantines_nonfinite_update(self):
        """The one semantic change of the unified runtime: update
        validation now also guards runs given no execution block."""
        algo = tiny_scenario().algorithm
        real_run_client = algo.run_client
        poisoned = []

        def run_client(client_id, round_index, rng, broadcast=None):
            update = real_run_client(client_id, round_index, rng,
                                     broadcast=broadcast)
            if not poisoned:
                poisoned.append(client_id)
                update.train_loss = float("nan")
            return update

        algo.run_client = run_client
        history = run_simulation(algo, SimulationConfig(**SIM))
        assert history.records[0].extras["dropped_quarantined"] == 1
        assert all("dropped_quarantined" not in r.extras
                   for r in history.records[1:])
        assert all(math.isfinite(r.train_loss) for r in history.records)

    def test_resumes_checkpoint_without_participation_key(self, tmp_path):
        """Snapshots written by the deleted synchronous loop carried no
        per-client participation counts; they must keep resuming to the
        uninterrupted History."""
        reference = run_simulation(tiny_scenario().algorithm,
                                   SimulationConfig(**SIM)).to_json()

        class Interrupt(RuntimeError):
            pass

        path = tmp_path / "run.ckpt.json"
        algo = tiny_scenario().algorithm
        real_ingest, calls = algo.ingest, []

        def bomb(updates, round_index, rng):
            if len(calls) >= 2:
                raise Interrupt()
            calls.append(round_index)
            return real_ingest(updates, round_index, rng)

        algo.ingest = bomb
        with pytest.raises(Interrupt):
            run_simulation(algo, SimulationConfig(
                **SIM, checkpoint=CheckpointConfig(path=path, every=1)))
        payload = json.loads(path.read_text())
        assert payload["next_round"] == 2
        del payload["participation"]
        path.write_text(json.dumps(payload))

        resumed = run_simulation(
            tiny_scenario().algorithm,
            SimulationConfig(**SIM, checkpoint=CheckpointConfig(
                path=path, every=1, resume=True)))
        assert resumed.to_json() == reference

    def test_strict_config_trips_on_frozen_broadcast_write(self):
        algo = tiny_scenario().algorithm
        real_run_client = algo.run_client

        def scribbling(client_id, round_index, rng, broadcast=None):
            next(iter(algo.global_state.values()))[...] = 0.0
            return real_run_client(client_id, round_index, rng,
                                   broadcast=broadcast)

        algo.run_client = scribbling
        with pytest.raises(ValueError, match="read-only"):
            run_simulation(algo, SimulationConfig(**SIM, strict=True))

    def test_strict_config_trips_on_global_rng_draw(self):
        algo = tiny_scenario().algorithm
        real_run_client = algo.run_client

        def drawing(client_id, round_index, rng, broadcast=None):
            np.random.rand()
            return real_run_client(client_id, round_index, rng,
                                   broadcast=broadcast)

        algo.run_client = drawing
        with pytest.raises(StrictModeViolation, match="numpy"):
            run_simulation(algo, SimulationConfig(**SIM, strict=True))
        # Off by default: the same draw goes unnoticed without strict.
        run_simulation(algo, SimulationConfig(**SIM))


class TestSynchronousDeadline:
    def test_deadline_drops_stragglers_and_caps_round_time(self):
        scenario = tiny_scenario()
        algo = scenario.algorithm
        deadline = algo.fleet_round_time_quantile(0.5)  # slower half drops
        config = SimulationConfig(
            num_rounds=4, sample_ratio=0.5, eval_every=2, seed=3,
            execution=ExecutionConfig(deadline_s=deadline))
        history = run_simulation(algo, config)
        dropped = history.dropped_counts()
        assert dropped.get("deadline", 0) > 0
        for record in history.records:
            assert record.round_time_s <= deadline \
                + config.server_overhead_s + 1e-9
            late = record.extras.get("dropped_deadline", 0)
            assert record.extras["received"] + late \
                == record.extras["dispatched"]

    def test_over_selection_dispatches_extra_clients(self):
        config = SimulationConfig(
            num_rounds=2, sample_ratio=0.3, eval_every=2, seed=3,
            execution=ExecutionConfig(over_select=0.5))
        history = run_simulation(tiny_scenario().algorithm, config)
        # target 3 clients + ceil(3 * 0.5) = 5 dispatched per round.
        assert all(r.extras["dispatched"] == 5 for r in history.records)

    def test_dropout_availability_loses_updates(self):
        config = SimulationConfig(
            num_rounds=3, sample_ratio=0.5, eval_every=2, seed=3,
            execution=ExecutionConfig(availability="dropout",
                                      availability_kwargs={"prob": 0.5}))
        history = run_simulation(tiny_scenario().algorithm, config)
        assert history.dropped_counts().get("dropout", 0) > 0
        for record in history.records:
            assert record.extras["received"] \
                + record.extras.get("dropped_dropout", 0) \
                == record.extras["dispatched"]


class TestBufferedAggregation:
    def test_staleness_accounting(self):
        config = SimulationConfig(
            num_rounds=5, sample_ratio=0.3, eval_every=2, seed=3,
            execution=ExecutionConfig(policy="buffered", buffer_size=1,
                                      max_concurrency=3,
                                      staleness_exponent=0.5))
        history = run_simulation(tiny_scenario().algorithm, config)
        assert len(history.records) == 5
        assert sum(r.extras["received"] for r in history.records) == 5
        # With three clients in flight and aggregation on every arrival,
        # updates dispatched before the first aggregation arrive stale.
        assert history.stale_update_count() > 0
        for record in history.records:
            # buffer_size=1: the round's mean staleness/discount are the
            # single update's, so the FedBuff discount law is checkable.
            expected = (1.0 + record.extras["mean_staleness"]) ** -0.5
            assert abs(record.extras["mean_discount"] - expected) < 1e-12
            uploads = [e for e in record.events
                       if e["type"] == UPLOAD_COMPLETE]
            for upload in uploads:
                assert upload["discount"] == pytest.approx(
                    (1.0 + upload["staleness"]) ** -0.5)

    def test_versions_and_clock_advance(self):
        config = SimulationConfig(
            num_rounds=4, sample_ratio=0.3, eval_every=2, seed=3,
            execution=ExecutionConfig(policy="buffered", buffer_size=2))
        history = run_simulation(tiny_scenario().algorithm, config)
        assert [r.round_index for r in history.records] == [0, 1, 2, 3]
        times = [r.sim_time_s for r in history.records]
        assert all(b >= a for a, b in zip(times, times[1:]))
        assert history.records[-1].global_accuracy is not None

    def test_dropout_fleet_still_progresses(self):
        config = SimulationConfig(
            num_rounds=3, sample_ratio=0.3, eval_every=1, seed=3,
            execution=ExecutionConfig(policy="buffered", buffer_size=2,
                                      availability="dropout",
                                      availability_kwargs={"prob": 0.6}))
        history = run_simulation(tiny_scenario().algorithm, config)
        assert len(history.records) == 3
        assert history.dropped_counts().get("dropout", 0) > 0


class TestAvailabilityModels:
    def test_always_on(self):
        model = make_availability("always_on", 4)
        assert model.is_online(0, 1e9)
        assert model.online_until(0, 0.0) == math.inf
        assert not model.drops_round(0, 0)

    def test_diurnal_intervals_consistent(self):
        model = make_availability("diurnal", 8, seed=1, period_s=1000.0,
                                  duty=0.4)
        for cid in range(8):
            start = model.next_online(cid, 0.0)
            assert model.is_online(cid, start)
            end = model.online_until(cid, start)
            assert end > start
            assert not model.is_online(cid, end + 1e-6)
            # Periodicity: one full period later the client is online again
            # (probe mid-window to stay clear of boundary rounding).
            assert model.is_online(cid, (start + end) / 2.0 + 1000.0)

    def test_diurnal_full_duty_always_online(self):
        model = make_availability("diurnal", 2, seed=0, period_s=100.0,
                                  duty=1.0, duty_jitter=0.0)
        for t in (0.0, 37.0, 99.9):
            assert model.is_online(0, t)
        assert model.online_until(0, 0.0) == math.inf

    def test_markov_alternates_and_is_deterministic(self):
        a = make_availability("markov", 4, seed=2, mean_on_s=50.0,
                              mean_off_s=25.0)
        b = make_availability("markov", 4, seed=2, mean_on_s=50.0,
                              mean_off_s=25.0)
        probe_times = np.linspace(0.0, 2000.0, 64)
        for cid in range(4):
            states_a = [a.is_online(cid, t) for t in probe_times]
            # Query b in reverse order: traces must not depend on order.
            states_b = [b.is_online(cid, t) for t in reversed(probe_times)]
            assert states_a == list(reversed(states_b))
            assert any(states_a) and not all(states_a)
            if a.is_online(cid, 0.0):
                end = a.online_until(cid, 0.0)
                assert not a.is_online(cid, end + 1e-9)
            else:
                back = a.next_online(cid, 0.0)
                assert a.is_online(cid, back + 1e-9)

    def test_dropout_deterministic_per_dispatch(self):
        model = make_availability("dropout", 16, seed=5, prob=0.5)
        draws = [model.drops_round(cid, k) for cid in range(16)
                 for k in range(8)]
        again = [model.drops_round(cid, k) for cid in range(16)
                 for k in range(8)]
        assert draws == again
        assert any(draws) and not all(draws)
        assert model.is_online(3, 123.0)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            make_availability("quantum", 4)


class TestExecutionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionConfig(policy="psychic")
        with pytest.raises(ValueError):
            ExecutionConfig(buffer_size=0)
        with pytest.raises(ValueError):
            ExecutionConfig(over_select=-0.1)

    def test_spec_execution_config_carries_availability(self):
        spec = ConstraintSpec(availability="dropout",
                              availability_kwargs={"prob": 0.2})
        execution = spec.execution_config(policy="buffered", buffer_size=3)
        assert execution.policy == "buffered"
        assert execution.availability == "dropout"
        assert execution.availability_kwargs == {"prob": 0.2}
        assert execution.buffer_size == 3
        assert "dropout" in spec.label

    def test_spec_rejects_unknown_availability(self):
        with pytest.raises(ValueError):
            ConstraintSpec(availability="sometimes")

    def test_execution_block_swaps_via_replace(self):
        base = SimulationConfig(**SIM)
        history = run_simulation(
            tiny_scenario().algorithm,
            replace(base, execution=ExecutionConfig(policy="buffered",
                                                    buffer_size=2)))
        assert len(history.records) == SIM["num_rounds"]

    def test_execution_config_is_semantics_only(self):
        """Mechanics live on SimulationConfig; every ExecutionConfig field
        is serialised (hashed), so there is nothing to exclude."""
        for knob in ("workers", "executor", "strict"):
            with pytest.raises(TypeError):
                ExecutionConfig(**{knob: 1})
        assert not hasattr(ExecutionConfig, "HASH_EXCLUDED")

    def test_policy_classes_registered(self):
        assert ExecutionConfig(policy="sync")
        assert SynchronousPolicy.name == "sync"
        assert BufferedPolicy.name == "buffered"


class TestAsyncCompareExperiment:
    def test_runs_end_to_end(self):
        from repro.experiments import async_compare
        rows = async_compare.run(scale="smoke", algorithms=["sheterofl"],
                                 cases=[("computation",)])
        assert len(rows) == len(async_compare.MODES)
        assert {r["mode"] for r in rows} == set(async_compare.MODES)
        for row in rows:
            assert row["constraints"] == "comp/dropout"
            assert 0.0 <= row["final_acc"] <= 1.0
            assert row["total_s"] > 0
        by_mode = {r["mode"]: r for r in rows}
        assert by_mode["buffered"]["stale"] >= 0

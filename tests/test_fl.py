"""Tests for the FL engine: local training, history, simulation loop."""

import weakref

import numpy as np
import pytest

from repro import autograd as ag
from repro.constraints import ConstraintSpec, build_scenario
from repro.data import load_dataset
from repro.fl import (LocalTrainConfig, train_local, make_optimizer,
                      accuracy, predict, History, RoundRecord,
                      SimulationConfig, run_simulation, sample_clients)
from repro.models import build_model


@pytest.fixture(scope="module")
def tiny_task():
    ds = load_dataset("harbox", seed=0, num_users=10, samples_per_user=10,
                      test_size=60)
    model = build_model("har_cnn", num_classes=ds.num_classes, seed=0)
    return ds, model


class TestLocalTraining:
    def test_config_resolve_modality(self):
        cnn = build_model("har_cnn", num_classes=3, seed=0)
        text = build_model("transformer", num_classes=3, seed=0)
        auto = LocalTrainConfig()
        assert auto.resolve(cnn).optimizer == "sgd"
        assert auto.resolve(text).optimizer == "adam"

    def test_config_resolve_lr_defaults(self):
        cnn = build_model("har_cnn", num_classes=3, seed=0)
        assert LocalTrainConfig().resolve(cnn).lr == 0.05
        assert LocalTrainConfig(optimizer="adam").resolve(cnn).lr == 2e-3

    def test_explicit_lr_kept(self):
        cnn = build_model("har_cnn", num_classes=3, seed=0)
        assert LocalTrainConfig(lr=0.7).resolve(cnn).lr == 0.7

    def test_make_optimizer_adopts_every_parameter(self):
        model = build_model("har_cnn", num_classes=3, seed=0)
        buffer, layout = model.bind_state()
        model.set_trainable_stages([3], train_stem=False)
        opt = make_optimizer(model, LocalTrainConfig().resolve(model))
        assert opt.params == model.parameters()
        assert opt._flat.base is buffer
        assert opt._flat.size == layout.bounds[layout.params]

    def test_training_reduces_loss(self, tiny_task):
        ds, model = tiny_task
        model = model.variant(seed=7)
        x, y = ds.x_train[:64], ds.y_train[:64]
        rng = np.random.default_rng(0)
        config = LocalTrainConfig(batch_size=16, local_epochs=1)
        first = train_local(model, x, y, config, rng)
        for _ in range(5):
            last = train_local(model, x, y, config, rng)
        assert last < first

    def test_max_batches_caps_steps(self, tiny_task):
        ds, model = tiny_task
        model = model.variant(seed=8)
        steps = []

        def counting_loss(m, xb, yb):
            steps.append(1)
            return ag.cross_entropy(m(xb), yb)

        config = LocalTrainConfig(batch_size=4, local_epochs=2, max_batches=3)
        train_local(model, ds.x_train[:40], ds.y_train[:40], config,
                    np.random.default_rng(0), loss_fn=counting_loss)
        assert len(steps) == 6  # 3 batches x 2 epochs

    def test_custom_loss_used(self, tiny_task):
        ds, model = tiny_task
        model = model.variant(seed=9)
        config = LocalTrainConfig(batch_size=8, max_batches=1)
        loss = train_local(model, ds.x_train[:16], ds.y_train[:16], config,
                           np.random.default_rng(0),
                           loss_fn=lambda m, xb, yb: ag.cross_entropy(m(xb), yb) * 0.0)
        assert loss == 0.0

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("batch_size", -8), ("local_epochs", 0),
        ("local_epochs", -1), ("max_batches", -1)])
    def test_sizes_that_train_nothing_are_refused(self, field, value):
        with pytest.raises(ValueError, match=f"LocalTrainConfig.{field} "):
            LocalTrainConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("lr", 0.0), ("momentum", 1.0), ("momentum", -0.5),
        ("weight_decay", -1e-4)])
    def test_optimiser_settings_out_of_range_are_refused(self, field, value):
        with pytest.raises(ValueError, match=f"LocalTrainConfig.{field} "):
            LocalTrainConfig(**{field: value})

    def test_zero_max_batches_switches_training_off(self, tiny_task):
        ds, model = tiny_task
        model = model.variant(seed=10)
        before = model.state_dict()
        loss = train_local(model, ds.x_train[:16], ds.y_train[:16],
                           LocalTrainConfig(batch_size=8, max_batches=0),
                           np.random.default_rng(0))
        assert loss == 0.0
        for name, value in model.state_dict().items():
            assert np.array_equal(value, before[name]), name

    def test_spec_with_negative_batch_size_fails_before_round_zero(self):
        from repro.experiments import RunSpec
        from repro.experiments.runner import prepare_scenario
        spec = RunSpec("sheterofl", "harbox", scale="smoke",
                       scale_overrides={"batch_size": -8})
        with pytest.raises(ValueError, match="batch_size"):
            prepare_scenario(spec)

    @pytest.mark.parametrize("cap", [0, -40])
    def test_spec_with_nonpositive_eval_max_samples_fails_before_round_zero(
            self, cap):
        from repro.experiments import RunSpec
        from repro.experiments.runner import prepare_scenario
        # Refused when the spec is built, before any scenario exists.
        with pytest.raises(ValueError, match="eval_max_samples"):
            prepare_scenario(RunSpec("sheterofl", "harbox", scale="smoke",
                                     scale_overrides={
                                         "eval_max_samples": cap}))

    def test_empty_config_invalid_optimizer(self, tiny_task):
        _, model = tiny_task
        with pytest.raises(ValueError):
            make_optimizer(model, LocalTrainConfig(optimizer="lbfgs", lr=0.1))


def _one_tape_at_a_time(loss_fn):
    """Wrap ``loss_fn`` so each call asserts that the loss the previous call
    returned, and with it that step's whole tape, is already freed.  A
    tensor takes no weak reference (it has slots); its data array does,
    and lives exactly as long as the tensor."""
    returned = []

    def watched(*args):
        if returned:
            assert returned[-1]() is None, \
                f"step {len(returned) - 1}'s loss is alive in the next forward"
        loss = loss_fn(*args)
        returned.append(weakref.ref(loss.data))
        return loss

    watched.returned = returned
    return watched


class TestOneTapeAtATime:
    """A training loop drops each step's loss once its value is read: the
    next forward never runs beside the previous step's tape."""

    def test_train_local(self, tiny_task):
        ds, model = tiny_task
        loss_fn = _one_tape_at_a_time(
            lambda m, xb, yb: ag.cross_entropy(m(xb), yb))
        train_local(model.variant(seed=11), ds.x_train[:32],
                    ds.y_train[:32], LocalTrainConfig(batch_size=8),
                    np.random.default_rng(0), loss_fn=loss_fn)
        assert len(loss_fn.returned) == 4

    def test_fedet_server_distillation(self, tiny_task, monkeypatch):
        ds, model = tiny_task
        algo = build_scenario("fedet", model, ds, 8,
                              ConstraintSpec(constraints=("computation",)),
                              seed=0).algorithm
        assert algo.server_steps >= 2
        algo._consensus = np.full((len(algo.x_public), ds.num_classes),
                                  1.0 / ds.num_classes, dtype=np.float32)
        loss_fn = _one_tape_at_a_time(ag.soft_cross_entropy)
        monkeypatch.setattr(ag, "soft_cross_entropy", loss_fn)
        algo._distill_server(np.random.default_rng(0))
        assert len(loss_fn.returned) == algo.server_steps


class TestEvaluate:
    def test_accuracy_range(self, tiny_task):
        ds, model = tiny_task
        acc = accuracy(model, ds.x_test, ds.y_test)
        assert 0.0 <= acc <= 1.0

    def test_predict_shape(self, tiny_task):
        ds, model = tiny_task
        preds = predict(model, ds.x_test, batch_size=16)
        assert preds.shape == (ds.num_test,)

    def test_eval_restores_training_mode(self, tiny_task):
        ds, model = tiny_task
        model.train()
        accuracy(model, ds.x_test[:8], ds.y_test[:8])
        assert model.training


class TestHistory:
    def _history(self):
        h = History(algorithm="a", dataset="d")
        for i, acc in enumerate([None, 0.3, None, 0.5, 0.7]):
            h.append(RoundRecord(round_index=i, sim_time_s=10.0 * (i + 1),
                                 round_time_s=10.0, train_loss=1.0,
                                 global_accuracy=acc))
        return h

    def test_final_accuracy(self):
        assert self._history().final_accuracy == 0.7

    def test_time_to_accuracy(self):
        h = self._history()
        assert h.time_to_accuracy(0.4) == 40.0
        assert h.time_to_accuracy(0.3) == 20.0
        assert h.time_to_accuracy(0.9) is None

    def test_stability(self):
        h = self._history()
        h.final_device_accuracies = [0.5, 0.7]
        assert abs(h.stability() - np.var([0.5, 0.7])) < 1e-12

    def test_empty_history_raises(self):
        h = History(algorithm="a", dataset="d")
        with pytest.raises(ValueError, match="no evaluated rounds"):
            _ = h.final_accuracy
        with pytest.raises(ValueError):
            h.stability()

    def test_json_round_trip(self):
        h = self._history()
        h.final_device_accuracies = [0.4, 0.6]
        h.records[0].extras = {"dispatched": 3, "dropped_deadline": 1}
        h.records[0].events = [{"t": 0.0, "type": "download_start",
                                "client": 2},
                               {"t": 4.5, "type": "upload_complete",
                                "client": 2, "staleness": 1}]
        restored = History.from_json(h.to_json())
        assert restored.algorithm == h.algorithm
        assert restored.dataset == h.dataset
        assert restored.final_device_accuracies == h.final_device_accuracies
        assert len(restored.records) == len(h.records)
        for a, b in zip(h.records, restored.records):
            assert (a.round_index, a.sim_time_s, a.round_time_s,
                    a.train_loss, a.global_accuracy) \
                == (b.round_index, b.sim_time_s, b.round_time_s,
                    b.train_loss, b.global_accuracy)
            assert a.extras == b.extras
            assert a.events == b.events
        assert restored.dropped_counts() == {"deadline": 1}

    def test_json_round_trip_failure_timeline(self):
        """The fault-injection event types and extras survive the trip."""
        h = self._history()
        h.records[1].extras = {"dispatched": 4, "received": 2,
                               "dropped_crash": 1, "dropped_quarantined": 1}
        h.records[1].events = [
            {"t": 3.0, "type": "client_failed", "client": 5,
             "reason": "crash"},
            {"t": 4.5, "type": "update_rejected", "client": 6,
             "reason": "nonfinite"},
        ]
        restored = History.from_json(h.to_json())
        assert restored.records[1].extras == h.records[1].extras
        assert restored.records[1].events == h.records[1].events
        assert restored.dropped_counts() == {"crash": 1, "quarantined": 1}

    def test_dropped_and_stale_helpers(self):
        h = self._history()
        assert h.dropped_counts() == {}
        assert h.stale_update_count() == 0
        h.records[1].extras = {"dropped_churn": 2, "stale_updates": 3}
        h.records[2].extras = {"dropped_churn": 1, "dropped_dropout": 4}
        h.records[3].extras = {"dropped_crash": 2, "dropped_quarantined": 1}
        assert h.dropped_counts() == {"churn": 3, "dropout": 4,
                                      "crash": 2, "quarantined": 1}
        assert h.stale_update_count() == 3

    def test_total_sim_time(self):
        assert self._history().total_sim_time_s == 50.0

    def test_empty_history_time_metrics_raise(self):
        """An empty run has no clock: the old silent 0.0 / None answers
        poisoned downstream time metrics, so both now raise."""
        h = History(algorithm="a", dataset="d")
        with pytest.raises(ValueError, match="no rounds"):
            _ = h.total_sim_time_s
        with pytest.raises(ValueError, match="no rounds"):
            h.time_to_accuracy(0.5)


class TestSampling:
    def test_sample_count(self):
        rng = np.random.default_rng(0)
        assert len(sample_clients(100, 0.1, rng)) == 10
        assert len(sample_clients(5, 0.1, rng)) == 1   # at least one

    def test_no_duplicates(self):
        rng = np.random.default_rng(1)
        sampled = sample_clients(50, 0.5, rng)
        assert len(np.unique(sampled)) == len(sampled)

    def test_deterministic_given_seed(self):
        a = sample_clients(100, 0.2, np.random.default_rng(3))
        b = sample_clients(100, 0.2, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


class TestSimulationEdges:
    """Round-loop edge cases: eval boundaries, determinism."""

    def _scenario(self):
        ds = load_dataset("harbox", seed=0, num_users=8, samples_per_user=10,
                          test_size=60)
        model = build_model("har_cnn", num_classes=ds.num_classes, seed=0)
        config = LocalTrainConfig(batch_size=8, local_epochs=1, max_batches=1)
        return build_scenario("fedavg_smallest", model, ds, 8,
                              ConstraintSpec(constraints=("computation",)),
                              train_config=config, seed=0,
                              eval_max_samples=60)

    def test_eval_every_boundary_last_round_evaluated(self):
        config = SimulationConfig(num_rounds=5, sample_ratio=0.3,
                                  eval_every=3, seed=1)
        history = run_simulation(self._scenario().algorithm, config)
        evaluated = [r.round_index for r in history.records
                     if r.global_accuracy is not None]
        # Multiples of eval_every plus the final round, even off-cycle.
        assert evaluated == [0, 3, 4]

    def test_one_round_loop_is_the_smallest(self):
        """``num_rounds=0`` used to return an empty History and
        ``eval_every=0`` to divide by zero inside round 0; both are refused
        at construction, and one round evaluated once is the floor."""
        for field in ("num_rounds", "eval_every"):
            with pytest.raises(ValueError, match=field):
                SimulationConfig(**{field: 0})
        config = SimulationConfig(num_rounds=1, sample_ratio=0.3,
                                  eval_every=1, seed=1)
        history = run_simulation(self._scenario().algorithm, config)
        assert [r.global_accuracy is not None
                for r in history.records] == [True]

    def test_run_deterministic_given_seed(self):
        config = SimulationConfig(num_rounds=3, sample_ratio=0.4,
                                  eval_every=2, seed=7)
        first = run_simulation(self._scenario().algorithm, config)
        second = run_simulation(self._scenario().algorithm, config)
        for a, b in zip(first.records, second.records):
            assert (a.sim_time_s, a.train_loss, a.global_accuracy) \
                == (b.sim_time_s, b.train_loss, b.global_accuracy)
        assert first.final_device_accuracies == second.final_device_accuracies

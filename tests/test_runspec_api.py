"""The declarative experiment API: RunSpec, run cache, registry, CLI.

Pins the PR-3 acceptance criteria: stable spec hashing and JSON round
trips, cache hit/miss semantics ("a hit trains nothing", asserted via the
simulation run counter), bit-for-bit equivalence of the RunSpec path with
the historical imperative build-and-run sequence, registry completeness, and
CLI argument parsing including ``--seeds`` and ``--out json``.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.__main__ import main as cli_main, _build_parser, _parse_int_list
from repro.algorithms import get_algorithm
from repro.constraints import (AVAILABILITY_KINDS, ConstraintSpec,
                               build_scenario)
from repro.data.registry import load_dataset
from repro.experiments import (RunCache, RunSpec, aggregate_seed_rows,
                               all_artifacts, execute_spec, get_artifact,
                               execute_specs, expand_grid, format_table,
                               get_scale, resolve_scale, rows_to_csv,
                               rows_to_json, summarize_results,
                               write_rows)
from repro.experiments.mapping import build_base_model
from repro.experiments.runner import BASELINE_ALGORITHM, RunResult
from repro.fl import History, RoundRecord, simulation
from repro.fl.aggregation import ExecutionConfig
from repro.fl.client import LocalTrainConfig
from repro.fl.serialization import history_to_dict
from repro.fl.simulation import SimulationConfig, run_simulation

SMOKE = ConstraintSpec(constraints=("computation",))


def _smoke_spec(**overrides) -> RunSpec:
    base = dict(algorithm="sheterofl", dataset="harbox", constraints=SMOKE,
                scale="smoke", seed=0)
    base.update(overrides)
    return RunSpec(**base)


class TestRunSpecSerialization:
    def _rich_spec(self) -> RunSpec:
        return RunSpec(
            algorithm="depthfl", dataset="cifar10",
            constraints=ConstraintSpec(constraints=("memory", "computation"),
                                       availability="dropout",
                                       availability_kwargs={"prob": 0.2}),
            scale="smoke", scale_overrides={"num_rounds": 7},
            execution=ExecutionConfig(policy="buffered", buffer_size=3,
                                      availability="dropout",
                                      availability_kwargs={"prob": 0.2}),
            partition_scheme="dirichlet", alpha=0.3, num_clients=6,
            seed=3, tag="t")

    def test_dict_round_trip(self):
        spec = self._rich_spec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = self._rich_spec()
        text = json.dumps(spec.to_dict())
        assert RunSpec.from_dict(json.loads(text)) == spec
        # canonical form is deterministic
        assert text == json.dumps(self._rich_spec().to_dict())

    def test_hash_stable(self):
        assert self._rich_spec().content_hash() == \
            self._rich_spec().content_hash()
        assert _smoke_spec().content_hash() == _smoke_spec().content_hash()

    def test_any_field_change_changes_hash(self):
        spec = self._rich_spec()
        base_hash = spec.content_hash()
        changed = {
            "algorithm": "fjord",
            "dataset": "harbox",
            "constraints": ConstraintSpec(constraints=("communication",)),
            "scale": "demo",
            "scale_overrides": {"num_rounds": 8},
            "execution": None,
            "partition_scheme": "iid",
            "alpha": 0.7,
            "num_clients": 9,
            "seed": 4,
            "tag": "other",
        }
        # Parallelism fields are execution mechanics: by the executor
        # determinism contract they cannot change results, so they are
        # excluded from serialisation and hashing (asserted below).
        mechanics = {"workers": 4, "executor": "process"}
        assert set(changed) | set(mechanics) == \
            {f.name for f in dataclasses.fields(RunSpec)}
        for field_name, value in changed.items():
            mutated = spec.replace(**{field_name: value})
            assert mutated.content_hash() != base_hash, field_name
        for field_name, value in mechanics.items():
            mutated = spec.replace(**{field_name: value})
            assert mutated.content_hash() == base_hash, field_name
            assert field_name not in mutated.to_dict()

    def test_version_guard(self):
        payload = _smoke_spec().to_dict()
        payload["version"] = 999
        with pytest.raises(ValueError):
            RunSpec.from_dict(payload)

    def test_resolved_scale_overrides(self):
        spec = _smoke_spec(scale_overrides={"num_rounds": 2})
        scale = spec.resolved_scale()
        assert scale.num_rounds == 2
        assert scale.batch_size == get_scale("smoke").batch_size

    def test_unknown_override_raises(self):
        with pytest.raises(ValueError, match="unknown scale override"):
            resolve_scale("smoke", {"num_round": 2})

    def test_unknown_scale_raises(self):
        with pytest.raises(ValueError, match="unknown scale"):
            resolve_scale("galactic")

    @pytest.mark.parametrize("ratio", [0, -0.5, 1.5])
    def test_out_of_range_sample_ratio_raises(self, ratio):
        with pytest.raises(ValueError, match="sample_ratio"):
            _smoke_spec(scale_overrides={"sample_ratio": ratio})

    @pytest.mark.parametrize("field, value, message", [
        ("algorithm", "nosuch", "unknown algorithm 'nosuch'"),
        ("dataset", "nosuch", "unknown dataset 'nosuch'"),
        ("scale", "bogus", "unknown scale 'bogus'"),
        ("scale_overrides", {"num_round": 2}, "unknown scale override")])
    def test_unrunnable_cell_is_refused_at_construction(self, field, value,
                                                        message):
        """A spec naming nothing runnable used to be listed, hashed and
        cached until its cell ran."""
        with pytest.raises(ValueError, match=message):
            _smoke_spec(**{field: value})

    @pytest.mark.parametrize("field", ["num_clients", "workers"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_non_positive_counts_are_refused(self, field, value):
        """``num_clients=0`` used to run the scale's default fleet under
        another hash, and ``-3`` died building the scenario."""
        with pytest.raises(ValueError, match=f"{field} must be in"):
            _smoke_spec(**{field: value})
        # None (the scale's fleet, the process default) stays legal.
        assert getattr(_smoke_spec(**{field: None}), field) is None

    def test_resolved_execution_availability_fallback(self):
        spec = _smoke_spec(constraints=ConstraintSpec(
            constraints=("computation",), availability="dropout",
            availability_kwargs={"prob": 0.1}))
        execution = spec.resolved_execution()
        assert execution is not None and execution.availability == "dropout"
        assert _smoke_spec().resolved_execution() is None

    def test_explicit_execution_must_honour_the_constraints(self):
        """An explicit block wins, so one that drops the constraints'
        availability or faults would run a cell its label misnames."""
        churn = ConstraintSpec(constraints=("computation",),
                               availability="markov",
                               faults={"crash_prob": 0.3})
        with pytest.raises(ValueError, match="execution.availability"):
            _smoke_spec(constraints=churn, execution=ExecutionConfig())
        with pytest.raises(ValueError, match="execution.availability"):
            _smoke_spec(constraints=churn, execution=ExecutionConfig(
                availability="markov", availability_kwargs={"p_off": 0.5},
                faults={"crash_prob": 0.3}))
        with pytest.raises(ValueError, match="execution.faults"):
            _smoke_spec(constraints=churn,
                        execution=ExecutionConfig(availability="markov"))
        faulty = ConstraintSpec(faults={"crash_prob": 0.3})
        with pytest.raises(ValueError, match="execution.faults"):
            _smoke_spec(constraints=faulty, execution=ExecutionConfig(
                faults={"crash_prob": 0.2}))
        # Blocks derived from the constraints, under any policy, stand;
        # so does any block on an always-on, fault-free case.
        for spec in (churn, faulty):
            for policy in ("sync", "buffered"):
                _smoke_spec(constraints=spec,
                            execution=spec.execution_config(policy))
        _smoke_spec(execution=ExecutionConfig(availability="dropout"))


class TestRunCache:
    def test_miss_then_hit_trains_nothing(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = _smoke_spec()
        first = execute_spec(spec, cache=cache)
        assert not first.from_cache and cache.misses == 1
        before = simulation.RUN_COUNT
        second = execute_spec(spec, cache=cache)
        assert second.from_cache and cache.hits == 1
        assert simulation.RUN_COUNT == before, \
            "cache hit must not run a simulation"
        assert history_to_dict(second.history) == \
            history_to_dict(first.history)
        assert second.num_classes == first.num_classes
        assert second.level_distribution() == first.level_distribution()
        assert second.scenario is None

    def test_no_cache_always_runs(self, tmp_path):
        spec = _smoke_spec()
        before = simulation.RUN_COUNT
        execute_spec(spec, cache=None)
        execute_spec(spec, cache=None)
        assert simulation.RUN_COUNT == before + 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = _smoke_spec()
        execute_spec(spec, cache=cache)
        cache.path_for(spec).write_text("{not json")
        result = execute_spec(spec, cache=cache)
        assert not result.from_cache

    def test_different_seed_different_entry(self, tmp_path):
        cache = RunCache(tmp_path)
        execute_spec(_smoke_spec(), cache=cache)
        result = execute_spec(_smoke_spec(seed=1), cache=cache)
        assert not result.from_cache
        assert len(list(tmp_path.glob("*.json"))) == 2

    @pytest.mark.parametrize("tag", ["ablation:nope", "async:buffered:sr0.5",
                                     "ablation:fjord_no_ordered_dropout"])
    def test_unknown_tag_is_refused_before_the_dataset(self, tag,
                                                       monkeypatch):
        """A tag is a variant name matched exactly: an unknown one, a
        buffered tag naming another sample ratio, or an ablation of
        another algorithm is refused, by name, before anything is built."""
        from repro.experiments import runner

        def no_dataset(*args, **kwargs):
            raise AssertionError("dataset built for a refused tag")

        monkeypatch.setattr(runner, "_load_dataset", no_dataset)
        with pytest.raises(ValueError, match=repr(tag)):
            execute_spec(_smoke_spec(tag=tag), cache=None)


class TestLegacyEquivalence:
    """The RunSpec path reproduces the pre-RunSpec imperative sequence."""

    def _legacy_run(self, algorithm, dataset_name, spec, scale_name, seed):
        scale = get_scale(scale_name)
        dataset = load_dataset(dataset_name, seed=seed,
                               **scale.kwargs_for(dataset_name))
        level = get_algorithm(algorithm).level
        model_level = "width" if level == "homogeneous" else level
        base_model = build_base_model(dataset, model_level, seed=seed)
        scenario = build_scenario(
            algorithm, base_model, dataset, scale.clients_for(dataset_name),
            spec,
            train_config=LocalTrainConfig(batch_size=scale.batch_size,
                                          local_epochs=scale.local_epochs,
                                          max_batches=scale.max_batches),
            partition_scheme="auto", alpha=0.5, seed=seed,
            eval_max_samples=scale.eval_max_samples)
        execution = None
        if spec.availability != "always_on":
            execution = spec.execution_config()
        sim = SimulationConfig(num_rounds=scale.num_rounds,
                               sample_ratio=scale.sample_ratio,
                               eval_every=scale.eval_every, seed=seed,
                               execution=execution)
        return run_simulation(scenario.algorithm, sim)

    def test_bit_for_bit_always_on(self):
        legacy = self._legacy_run("sheterofl", "harbox", SMOKE, "smoke", 0)
        modern = execute_spec(_smoke_spec(), cache=None)
        assert history_to_dict(modern.history) == history_to_dict(legacy)

    def test_bit_for_bit_availability_scenario(self):
        spec = ConstraintSpec(constraints=("computation",),
                              availability="dropout",
                              availability_kwargs={"prob": 0.2})
        legacy = self._legacy_run("fedepth", "harbox", spec, "smoke", 1)
        modern = execute_spec(_smoke_spec(algorithm="fedepth",
                                          constraints=spec, seed=1),
                              cache=None)
        assert history_to_dict(modern.history) == history_to_dict(legacy)


def _smoke_rows(algorithms, seeds=(0,)):
    grid = expand_grid(algorithms, ["harbox"], scale="smoke", seeds=seeds)
    return summarize_results(execute_specs(grid, cache=None), algorithms)


def _history(accs, name="sheterofl", device_accs=(0.4, 0.6)):
    """A History evaluated every round, 10 simulated seconds apart."""
    h = History(algorithm=name, dataset="harbox")
    for i, acc in enumerate(accs):
        h.append(RoundRecord(round_index=i, sim_time_s=10.0 * (i + 1),
                             round_time_s=10.0, train_loss=1.0,
                             global_accuracy=acc))
    h.final_device_accuracies = list(device_accs)
    return h


def _result(history, seed=0):
    """A finished cell over a 10-class task (chance accuracy 0.1)."""
    return RunResult(history=history, scenario=None, num_classes=10,
                     spec=RunSpec(algorithm=history.algorithm,
                                  dataset=history.dataset, seed=seed))


class TestMetricRows:
    """``summarize_results`` computes metrics (i)-(iv) from each History."""

    def test_four_metrics(self):
        # Best final accuracy 0.4 over chance 0.1: the shared target is
        # 0.25, first crossed in round 2 even though accuracy then drops.
        history = _history([0.1, 0.5, 0.4], device_accs=[0.2, 0.8])
        baseline = _history([0.3], name=BASELINE_ALGORITHM)
        [row] = summarize_results([_result(history), _result(baseline)],
                                  ["sheterofl"])
        assert row == {"algorithm": "sheterofl", "dataset": "harbox",
                       "global_acc": 0.4, "tta_s": 20.0,
                       "stability_var": round(float(np.var([0.2, 0.8])), 6),
                       "effectiveness": 0.1}

    def test_effectiveness_sign(self):
        results = [_result(_history([0.6], name="fjord")),
                   _result(_history([0.4], name="fedrolex")),
                   _result(_history([0.5], name=BASELINE_ALGORITHM))]
        rows = summarize_results(results, ["fjord", "fedrolex"])
        assert [r["effectiveness"] for r in rows] == [0.1, -0.1]

    def test_misses_read_none(self):
        # The best run sets the target at 0.5, which 0.3 never reaches.
        results = [_result(_history([0.3])),
                   _result(_history([0.9], name="fedrolex"))]
        row = summarize_results(results, ["sheterofl", "fedrolex"])[0]
        assert row["global_acc"] == 0.3
        assert row["tta_s"] is None
        assert row["effectiveness"] is None

    def test_rows_follow_algorithms_duplicates_included(self):
        results = [_result(_history([0.3], name="fjord")),
                   _result(_history([0.5], name="fedrolex"))]
        rows = summarize_results(results, ["fedrolex", "fjord", "fedrolex"])
        assert [r["algorithm"] for r in rows] \
            == ["fedrolex", "fjord", "fedrolex"]
        assert rows[0] == rows[2]


class TestMultiSeed:
    METRICS = ("global_acc", "tta_s", "stability_var", "effectiveness")

    def test_single_seed_key_set(self):
        [row] = _smoke_rows(["sheterofl"])
        assert set(row) == {"algorithm", "dataset", *self.METRICS}

    def test_seed_sweep(self):
        [row] = _smoke_rows(["sheterofl"], seeds=(0, 1))
        assert row["seeds"] == 2
        assert set(row) == {"algorithm", "dataset", "seeds", *self.METRICS,
                            *(f"{key}_std" for key in self.METRICS)}
        assert row["global_acc_std"] is not None
        text = format_table([row])
        assert "±" in text
        assert "global_acc_std" not in text.splitlines()[0]

    def test_tta_missing_in_one_seed(self):
        # Seed 1 never lifts off chance, so it never reaches its target.
        results = [_result(_history([0.1, 0.5, 0.4]), seed=0),
                   _result(_history([0.05, 0.1]), seed=1)]
        [row] = summarize_results(results, ["sheterofl"])
        assert row["global_acc"] == pytest.approx(0.25)
        assert row["tta_s"] == 20.0
        assert row["tta_s_std"] is None

    def test_effectiveness_none_without_baseline(self):
        results = [_result(_history([0.4]), seed=0),
                   _result(_history([0.6]), seed=1)]
        [row] = summarize_results(results, ["sheterofl"])
        assert row["seeds"] == 2
        assert row["effectiveness"] is None
        assert row["effectiveness_std"] is None

    def test_aggregate_seed_rows(self):
        per_seed = [[{"algorithm": "a", "accuracy": 0.4}],
                    [{"algorithm": "a", "accuracy": 0.6}]]
        merged = aggregate_seed_rows(per_seed, {"accuracy": 6})
        assert merged[0]["accuracy"] == pytest.approx(0.5)
        assert merged[0]["accuracy_std"] is not None
        assert merged[0]["seeds"] == 2

    def test_single_seed_rows_are_rounded(self):
        rows = [[{"algorithm": "a", "accuracy": 0.123456, "tta_s": None}]]
        assert aggregate_seed_rows(rows, {"accuracy": 4, "tta_s": 1}) == \
            [{"algorithm": "a", "accuracy": 0.1235, "tta_s": None}]

    def test_identity_mismatch_raises(self):
        per_seed = [[{"algorithm": "a", "accuracy": 0.4}],
                    [{"algorithm": "b", "accuracy": 0.6}]]
        with pytest.raises(ValueError, match="identity"):
            aggregate_seed_rows(per_seed, {"accuracy": 6})

    def test_two_seed_fig4_values_pinned(self):
        """Two-seed smoke fig4 rows as recorded before the constraint
        figures collapsed their seeds through ``aggregate_seed_rows``."""
        rows = get_artifact("fig4").run(
            scale="smoke", datasets=["harbox"],
            algorithms=["sheterofl", "fjord"], seeds=[0, 1])
        assert rows == [
            {"algorithm": "sheterofl", "dataset": "harbox",
             "global_acc": 0.2167, "tta_s": 14.0,
             "stability_var": 0.001074, "effectiveness": -0.0333,
             "seeds": 2, "global_acc_std": 0.0707, "tta_s_std": 9.9,
             "stability_var_std": 0.000341, "effectiveness_std": 0.0},
            {"algorithm": "fjord", "dataset": "harbox",
             "global_acc": 0.2333, "tta_s": 24.6,
             "stability_var": 0.00018, "effectiveness": -0.0167,
             "seeds": 2, "global_acc_std": 0.0, "tta_s_std": 4.9,
             "stability_var_std": 0.000212, "effectiveness_std": 0.0707}]


class TestNumClassesPlumbing:
    def test_run_result_exposes_num_classes(self):
        result = execute_spec(_smoke_spec(), cache=None)
        scale = get_scale("smoke")
        dataset = load_dataset("harbox", seed=0,
                               **scale.kwargs_for("harbox"))
        assert result.num_classes == dataset.num_classes
        assert result.scenario.num_classes == dataset.num_classes

    def test_grid_loads_dataset_once_per_key(self, monkeypatch):
        from repro.experiments import runner
        calls = []
        original = runner.load_dataset

        def counting(name, **kwargs):
            calls.append((name, kwargs["seed"]))
            return original(name, **kwargs)

        monkeypatch.setattr(runner, "load_dataset", counting)
        monkeypatch.setattr(runner, "_DATASETS", {})
        _smoke_rows(["sheterofl", "fjord"])
        # 2 algorithms + 1 baseline over one (name, seed, sizes): one load.
        assert calls == [("harbox", 0)]
        # Same dataset, new seed: the key changed, so exactly one more load.
        _smoke_rows(["sheterofl"], seeds=(1,))
        assert calls == [("harbox", 0), ("harbox", 1)]
        # ... and new sizes under an old (name, seed) are a new key too.
        execute_spec(_smoke_spec(scale_overrides={"dataset_kwargs": {
            "harbox": {"num_users": 8, "samples_per_user": 12,
                       "test_size": 60}}}), cache=None)
        assert calls[2:] == [("harbox", 0)]
        assert len(runner._DATASETS) == 3

    def test_dataset_memo_keeps_at_most_four(self, monkeypatch):
        from repro.experiments import runner
        monkeypatch.setattr(runner, "_DATASETS", {})
        kwargs = get_scale("smoke").kwargs_for("harbox")
        first = runner._load_dataset("harbox", seed=0, **kwargs)
        assert runner._load_dataset("harbox", seed=0, **kwargs) is first
        for seed in range(1, 5):
            runner._load_dataset("harbox", seed=seed, **kwargs)
        assert len(runner._DATASETS) == runner._DATASET_LIMIT == 4
        # seed 0 was the oldest entry: evicted, so it is rebuilt (equal).
        again = runner._load_dataset("harbox", seed=0, **kwargs)
        assert again is not first
        assert np.array_equal(again.x_train, first.x_train)


class TestRegistry:
    EXPECTED = {"table1", "table2", "table3", "fig1", "fig3", "fig4", "fig5",
                "fig6", "fig7", "fig8", "fig9", "ablations", "async_compare",
                "fault_compare"}

    def test_registry_complete(self):
        assert set(all_artifacts()) == self.EXPECTED

    def test_every_artifact_lives_in_its_module(self):
        for name, artifact in all_artifacts().items():
            assert artifact.module == f"repro.experiments.{name}"
            assert callable(artifact.run)
            assert "scale" in artifact.params

    def test_describe_every_artifact(self, capsys):
        for name in sorted(all_artifacts()):
            assert cli_main(["describe", name]) == 0
            out = capsys.readouterr().out
            assert name in out and "options:" in out

    def test_duplicate_registration_rejected(self):
        from repro.experiments.registry import register_artifact

        def imposter():  # pragma: no cover - registration must fail
            return []

        imposter.__module__ = "repro.experiments.imposter"
        with pytest.raises(ValueError, match="already registered"):
            register_artifact("fig4")(imposter)


class TestCLI:
    def test_parse_int_list(self):
        assert _parse_int_list("0,1,2") == [0, 1, 2]
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_int_list("0,x")

    def test_run_out_json(self, capsys):
        assert cli_main(["run", "table3", "--out", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["device"] for r in rows} >= {"jetson_nano"}

    def test_run_out_csv(self, capsys):
        assert cli_main(["run", "table3", "--out", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("device,")

    def test_unknown_artifact_is_exit_2(self, capsys):
        assert cli_main(["run", "fig99"]) == 2
        # a first word that is not a subcommand is argparse's own error
        # (the positional `repro fig4 demo` alias is gone).
        # ... and so is the removed --executor flag.
        for argv in (["fig99"], ["table3"],
                     ["run", "fig4", "--executor", "process"]):
            with pytest.raises(SystemExit) as exit_info:
                cli_main(argv)
            assert exit_info.value.code == 2

    @pytest.mark.parametrize("verb", ["run", "profile"])
    @pytest.mark.parametrize("kind", AVAILABILITY_KINDS)
    def test_availability_choices_are_the_registry(self, verb, kind):
        args = _build_parser().parse_args([verb, "fig4",
                                           "--availability", kind])
        assert args.availability == kind

    @pytest.mark.parametrize("argv", [
        ["run", "fig4"], ["profile", "fig4"], ["status", "fig4"]],
        ids=["run", "profile", "status"])
    def test_unknown_availability_is_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv + ["--availability", "bogus"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("rounds", ["0", "-3"])
    def test_non_positive_rounds_is_exit_2(self, rounds, capsys):
        before = simulation.RUN_COUNT
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", "fig4", "--scale", "smoke", "--rounds", rounds,
                      "--datasets", "harbox", "--algorithms", "sheterofl",
                      "--no-cache"])
        assert exit_info.value.code == 2
        assert simulation.RUN_COUNT == before, "no cell may run"
        assert "--rounds: expected a positive integer" \
            in capsys.readouterr().err

    SMOKE_RUN = ["fig4", "--scale", "smoke", "--datasets", "harbox",
                 "--algorithms", "sheterofl", "--no-cache"]

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("argv", [
        ["run", *SMOKE_RUN, "--workers"],
        ["run", *SMOKE_RUN, "--checkpoint-every"],
        ["profile", *SMOKE_RUN, "--workers"],
        ["profile", *SMOKE_RUN, "--checkpoint-every"],
        ["run", *SMOKE_RUN[:-1], "--shard", "0/2", "--workers"],
        ["status", *SMOKE_RUN[:-1], "--shards"]],
        ids=["run-workers", "run-checkpoint-every", "profile-workers",
             "profile-checkpoint-every", "run-shard-workers",
             "status-shards"])
    def test_non_positive_counts_are_exit_2(self, argv, value, tmp_path,
                                            monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        before = simulation.RUN_COUNT
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv + [value])
        assert exit_info.value.code == 2
        assert simulation.RUN_COUNT == before, "no cell may run"
        assert f"{argv[-1]}: expected a positive integer" \
            in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [], "nothing may be written"

    def test_unsupported_option_warns(self, capsys):
        assert cli_main(["run", "table3", "--rounds", "3"]) == 0
        assert "does not support --rounds" in capsys.readouterr().err

    def test_run_with_seeds_and_cache(self, tmp_path, capsys):
        argv = ["run", "fig4", "--scale", "smoke", "--datasets", "harbox",
                "--algorithms", "sheterofl", "--seeds", "0", "--out", "json",
                "--cache-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        first = capsys.readouterr()
        assert "misses=0" not in first.err
        before = simulation.RUN_COUNT
        assert cli_main(argv) == 0
        second = capsys.readouterr()
        assert simulation.RUN_COUNT == before, \
            "second CLI invocation must be fully cache-served"
        assert "misses=0" in second.err
        assert json.loads(second.out) == json.loads(first.out)

    def test_no_cache_flag_bypasses(self, tmp_path, capsys):
        argv = ["run", "fig4", "--scale", "smoke", "--datasets", "harbox",
                "--algorithms", "sheterofl", "--no-cache"]
        before = simulation.RUN_COUNT
        assert cli_main(argv) == 0
        assert simulation.RUN_COUNT > before
        assert "# cache:" not in capsys.readouterr().err

    def test_default_cache_restored_after_run(self, tmp_path):
        from repro.experiments import RunDefaults, run_defaults, runner
        outer = RunDefaults(cache=RunCache(tmp_path / "outer"))
        with run_defaults(outer):
            cli_main(["run", "table3", "--cache-dir",
                      str(tmp_path / "inner")])
            assert runner._DEFAULTS is outer


class TestReportingWriters:
    ROWS = [{"a": 1, "b": None}, {"a": 2.5, "b": "x", "c": 3}]

    def test_json_round_trip(self):
        assert json.loads(rows_to_json(self.ROWS)) == self.ROWS

    def test_csv_union_and_none(self):
        text = rows_to_csv(self.ROWS)
        lines = text.splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == "1,,"

    def test_write_rows_dispatch(self):
        assert write_rows(self.ROWS, out="csv").startswith("a,b,c")
        assert json.loads(write_rows(self.ROWS, out="json")) == self.ROWS
        with pytest.raises(ValueError):
            write_rows(self.ROWS, out="yaml")

    def test_format_table_std_merging(self):
        rows = [{"algorithm": "a", "acc": 0.5, "acc_std": 0.1, "seeds": 2}]
        text = format_table(rows)
        assert "0.5 ± 0.1" in text
        assert "acc_std" not in text
        # single-seed rows (no std keys) render exactly as before
        plain = format_table([{"algorithm": "a", "acc": 0.5}])
        assert "±" not in plain

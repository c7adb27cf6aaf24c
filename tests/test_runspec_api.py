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
                               all_artifacts, execute_spec,
                               execute_specs, expand_grid, format_table,
                               get_scale, resolve_scale, rows_to_csv,
                               rows_to_json, summarize_results,
                               write_rows)
from repro.experiments.mapping import build_base_model
from repro.fl import simulation
from repro.fl.aggregation import ExecutionConfig
from repro.fl.client import LocalTrainConfig
from repro.fl.serialization import history_to_dict
from repro.fl.simulation import SimulationConfig, run_simulation
from repro.metrics import MetricSummary, aggregate_summaries

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
        spec = _smoke_spec(scale_overrides={"sample_ratio": ratio})
        with pytest.raises(ValueError, match="sample_ratio"):
            execute_spec(spec, cache=None)

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

    def test_mutating_hooks_require_tag(self, tmp_path):
        cache = RunCache(tmp_path)
        with pytest.raises(ValueError, match="tag"):
            execute_spec(_smoke_spec(), cache=cache,
                         mutate=lambda algorithm: None)


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


def _smoke_summaries(algorithms, seeds=(0,)):
    grid = expand_grid(algorithms, ["harbox"], scale="smoke", seeds=seeds)
    return summarize_results(execute_specs(grid, cache=None), algorithms)


class TestMultiSeed:
    def test_summary_single_seed_rows_unchanged(self):
        summaries = _smoke_summaries(["sheterofl"])
        row = summaries[0].as_row()
        assert set(row) == {"algorithm", "dataset", "global_acc", "tta_s",
                            "stability_var", "effectiveness"}
        assert summaries[0].num_seeds == 1

    def test_summary_seed_sweep(self):
        summary = _smoke_summaries(["sheterofl"], seeds=(0, 1))[0]
        assert summary.num_seeds == 2
        assert summary.global_accuracy_std is not None
        row = summary.as_row()
        assert row["seeds"] == 2 and "global_acc_std" in row
        text = format_table([row])
        assert "±" in text
        assert "global_acc_std" not in text.splitlines()[0]

    def test_aggregate_summaries_guards(self):
        a = MetricSummary("a", "d", 0.5, 10.0, 0.01, 0.1)
        b = MetricSummary("b", "d", 0.6, None, 0.02, 0.2)
        assert aggregate_summaries([a]) is a
        with pytest.raises(ValueError):
            aggregate_summaries([a, b])

    def test_aggregate_summaries_tta_none_handling(self):
        rows = [MetricSummary("a", "d", 0.5, None, 0.01, None),
                MetricSummary("a", "d", 0.7, 20.0, 0.03, None)]
        merged = aggregate_summaries(rows)
        assert merged.global_accuracy == pytest.approx(0.6)
        assert merged.time_to_accuracy_s == pytest.approx(20.0)
        assert merged.time_to_accuracy_s_std is None
        assert merged.effectiveness is None

    def test_aggregate_seed_rows(self):
        per_seed = [[{"algorithm": "a", "accuracy": 0.4}],
                    [{"algorithm": "a", "accuracy": 0.6}]]
        merged = aggregate_seed_rows(per_seed, ["accuracy"])
        assert merged[0]["accuracy"] == pytest.approx(0.5)
        assert merged[0]["accuracy_std"] is not None
        assert merged[0]["seeds"] == 2

    def test_aggregate_seed_rows_identity_mismatch(self):
        per_seed = [[{"algorithm": "a", "accuracy": 0.4}],
                    [{"algorithm": "b", "accuracy": 0.6}]]
        with pytest.raises(ValueError, match="identity"):
            aggregate_seed_rows(per_seed, ["accuracy"])


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
        _smoke_summaries(["sheterofl", "fjord"])
        # 2 algorithms + 1 baseline over one (name, seed, sizes): one load.
        assert calls == [("harbox", 0)]
        # Same dataset, new seed: the key changed, so exactly one more load.
        _smoke_summaries(["sheterofl"], seeds=(1,))
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
                "fault_compare", "telemetry_report"}

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
        ["run", "fig4"], ["profile", "fig4"], ["sweep", "create", "m.json"]],
        ids=["run", "profile", "sweep-create"])
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

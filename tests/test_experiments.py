"""Smoke-scale integration tests: every table/figure harness produces rows."""

import hashlib

import pytest

from repro.__main__ import main as cli_main
from repro.experiments import (RunCache, RunDefaults, RunSpec,
                               all_artifacts, get_artifact, get_scale,
                               execute_spec, execute_specs, expand_grid,
                               format_table, format_radar, base_arch_for,
                               run_defaults,
                               resolve_target_accuracy, summarize_results)
from repro.experiments import scales
from repro.constraints import ConstraintSpec
from repro.fl import History, RoundRecord, simulation


class TestScales:
    def test_presets_exist(self):
        for name in ("smoke", "demo", "paper"):
            scale = get_scale(name)
            assert scale.num_rounds > 0
            for ds in ("cifar10", "cifar100", "agnews", "stackoverflow",
                       "harbox", "ucihar"):
                assert scale.clients_for(ds) >= 1

    def test_paper_scale_matches_section_v(self):
        paper = get_scale("paper")
        assert paper.num_clients == {"cifar10": 100, "cifar100": 100,
                                     "agnews": 50, "stackoverflow": 500,
                                     "harbox": 100, "ucihar": 30}
        assert paper.num_rounds == 1000
        assert paper.sample_ratio == 0.1

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            get_scale("galactic")


class TestMapping:
    def test_table2_mapping(self):
        assert base_arch_for("cifar100", "width") == "resnet101"
        assert base_arch_for("cifar10", "depth") == "mobilenet_v2"
        assert base_arch_for("stackoverflow", "topology") == "albert_base"
        assert base_arch_for("agnews", "width") == "transformer"

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            base_arch_for("mnist", "width")


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": None}, {"a": 22.5, "b": "x"}]
        text = format_table(rows, title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "b" in lines[1]
        assert "-" in text and "22.5" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_radar_normalises(self):
        rows = [{"algorithm": "a", "acc": 0.2, "time": 10.0},
                {"algorithm": "b", "acc": 0.8, "time": 50.0}]
        text = format_radar(rows, ["acc", "time"],
                            higher_better={"acc": True, "time": False})
        # Best-on-axis scores 1: b on acc, a on time (inverted axis).
        row_a = next(l for l in text.splitlines() if l.split()[:1] == ["a"])
        row_b = next(l for l in text.splitlines() if l.split()[:1] == ["b"])
        assert row_a.split() == ["a", "0", "1"]
        assert row_b.split() == ["b", "1", "0"]


class TestTargetResolution:
    def test_target_between_chance_and_best(self):
        h = History(algorithm="a", dataset="d")
        h.append(RoundRecord(0, 1.0, 1.0, 0.5, global_accuracy=0.6))
        target = resolve_target_accuracy([h], num_classes=10)
        assert 0.1 < target < 0.6


class TestHarnesses:
    """Every artifact's run() yields well-formed rows at smoke scale."""

    def test_table1(self):
        rows = get_artifact("table1").run(scale="smoke")
        assert {r["method"] for r in rows} == \
            {"SHeteroFL", "DepthFL", "FedRolex", "FeDepth"}
        for row in rows:
            assert row["params_M"] > 0 and row["memory_MB"] > 0

    def test_table1_memory_pattern(self):
        rows = {r["method"]: r
                for r in get_artifact("table1").run(scale="paper")}
        assert rows["DepthFL"]["memory_MB"] > rows["SHeteroFL"]["memory_MB"]
        assert rows["FeDepth"]["memory_MB"] < rows["DepthFL"]["memory_MB"]
        # Width methods land near the paper's 10.7M parameters.
        assert 8.0 < rows["SHeteroFL"]["params_M"] < 13.0

    def test_table2(self):
        rows = get_artifact("table2").run()
        assert len(rows) == 8
        assert {r["hetero"] for r in rows} == {"width", "depth", "topology"}

    def test_table3(self):
        rows = get_artifact("table3").run()
        assert {r["device"] for r in rows} == {
            "jetson_orin_nx", "jetson_tx2_nx", "jetson_nano",
            "raspberry_pi_4b"}

    def test_fig3_pool_monotone(self):
        rows = get_artifact("fig3").run(scale="smoke")
        for method in ("fjord", "sheterofl", "fedrolex"):
            series = [r for r in rows if r["method"] == method]
            params = [r["params_M"] for r in series]
            assert params == sorted(params, reverse=True)

    def test_fig4_smoke(self):
        rows = get_artifact("fig4").run(
            scale="smoke", datasets=["harbox", "ucihar"],
            algorithms=["sheterofl", "fedepth"])
        assert len(rows) == 2 * 2
        for row in rows:
            assert 0.0 <= row["global_acc"] <= 1.0
            assert row["effectiveness"] is not None

    def test_fig5_smoke(self):
        rows = get_artifact("fig5").run(scale="smoke", datasets=["harbox"],
                                        algorithms=["fjord"])
        assert rows[0]["algorithm"] == "fjord"

    def test_fig6_default_datasets(self):
        from repro.experiments import fig6
        assert fig6.MEMORY_DATASETS == ["cifar100", "stackoverflow"]

    def test_fig7_smoke(self):
        rows = get_artifact("fig7").run(
            scale="smoke", dataset="harbox", algorithms=["sheterofl"],
            combos=[("memory",), ("memory", "communication")])
        labels = {r["constraints"] for r in rows}
        assert labels == {"mem", "mem+comm"}

    def test_fig8_smoke(self):
        rows = get_artifact("fig8").run(
            scale="smoke", datasets=["cifar10", "cifar100"],
            algorithms=["sheterofl"])
        assert {(r["dataset"], r["partition"]) for r in rows} == {
            (dataset, partition) for dataset in ("cifar10", "cifar100")
            for partition in ("iid", "niid-0.5", "niid-5")}

    def test_fig9_counts(self):
        from repro.experiments import fig9
        assert fig9.client_counts_for("paper") == [100, 200, 500]
        rows = get_artifact("fig9").run(scale="smoke",
                                        algorithms=["sheterofl"],
                                        client_counts=[4, 8])
        assert {r["clients"] for r in rows} == {4, 8}

    @pytest.mark.parametrize("scale,dataset,users,count", [
        ("smoke", "harbox", 8, 20), ("demo", "harbox", 30, 50),
        ("demo", "ucihar", 24, 50), ("demo", "stackoverflow", 30, 50)])
    def test_fig9_refuses_more_clients_than_users(self, scale, dataset,
                                                   users, count):
        """The grid is refused before any cell trains, and the message
        names the dataset, its users, the client count and the scale."""
        before = simulation.RUN_COUNT
        with pytest.raises(ValueError) as error:
            get_artifact("fig9").specs(scale=scale, dataset=dataset)
        message = str(error.value)
        for part in (dataset, f"{users} users", f"{count} clients",
                     repr(scale)):
            assert part in message, (part, message)
        assert simulation.RUN_COUNT == before

    def test_fig9_cli_exits_2_without_a_traceback(self, capsys):
        assert cli_main(["run", "fig9", "--scale", "smoke",
                         "--datasets", "harbox"]) == 2
        err = capsys.readouterr().err
        assert "harbox" in err and "8 users" in err
        assert "Traceback" not in err

    def test_fig9_profile_exits_2_without_a_traceback(self, capsys):
        """``profile`` selects cells as ``run`` does: the refused grid
        exits 2 with the message before anything trains."""
        before = simulation.RUN_COUNT
        assert cli_main(["profile", "fig9", "--scale", "smoke",
                         "--datasets", "harbox", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "harbox" in err and "8 users" in err
        assert "Traceback" not in err
        assert simulation.RUN_COUNT == before

    @pytest.mark.parametrize("verb, argv, message", [
        ("status", ["--datasets", "nosuch"], "unknown dataset 'nosuch'"),
        ("status", ["--algorithms", "nosuch"], "unknown algorithm 'nosuch'"),
        ("status", ["--scale", "bogus"], "unknown scale 'bogus'"),
        ("run", ["--algorithms", "nosuch", "--no-cache", "--shard", "0/2"],
         "unknown algorithm 'nosuch'"),
        ("run", ["--algorithms", "sheterofl,nosuch", "--no-cache"],
         "unknown algorithm 'nosuch'")])
    def test_unknown_names_exit_2_before_any_cell_trains(self, verb, argv,
                                                         message, capsys):
        """A grid naming an unknown algorithm, dataset or scale used to
        list phantom cells, or train every earlier cell and then die."""
        before = simulation.RUN_COUNT
        assert cli_main([verb, "fig4", "--scale", "smoke", *argv]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert simulation.RUN_COUNT == before

    @pytest.mark.parametrize("option, value", [
        ("--datasets", ","), ("--algorithms", " , "), ("--seeds", ",")])
    def test_an_empty_list_option_exits_2(self, option, value, capsys):
        """An empty list used to select every cell of the grid."""
        with pytest.raises(SystemExit) as exited:
            cli_main(["status", "fig4", "--scale", "smoke", option, value])
        assert exited.value.code == 2
        assert f"argument {option}: expected at least one" \
            in capsys.readouterr().err

    def test_fig1_radar(self):
        rows = get_artifact("fig1").run(scale="smoke", dataset="harbox")
        assert rows  # fig1 reuses fig4 rows


#: ``repro run <argv> --out json --no-cache`` stdout sha256 and trained-cell
#: count per figure, recorded at the commit before the figures were ported
#: from ``run_one``/``run_suite`` loops to ``expand_grid``/``RunSpec`` lists
#: + ``execute_specs``: the port is row-for-row.  fig4 was re-recorded when
#: its seeds moved onto ``aggregate_seed_rows``: the ``seeds`` key now
#: follows the ``*_std`` keys, as in fig7-9, and the values are unchanged
#: (``test_runspec_api.py::TestMultiSeed::test_two_seed_fig4_values_pinned``
#: holds the earlier recording's values for this invocation).
FIGURE_ROWS = {
    "fig4": (["--datasets", "harbox", "--algorithms", "sheterofl,fjord",
              "--seeds", "0,1"], 6,
             "620548440bb2f65cbefedd0bcacf657cfe5ca071f79469efa1c588338b9647e2"),
    "fig7": (["--algorithms", "sheterofl"], 5,
             "998ae67fa589c02b2e2896c7074fff312a4d9e58bfa467ea584975f3814b0654"),
    "fig8": (["--datasets", "cifar10", "--algorithms", "sheterofl"], 3,
             "abaaf9ee1496701e99884d4924193733de2e459e6d802c86c2eb49a461f928f6"),
    "fig9": (["--algorithms", "sheterofl"], 3,
             "001a599717415a2726eb427ecdfc0c56bbacccbb81075d0c6ed50d20f698c5f3"),
    # Model measurements only (no cell trains).  Recorded while conv ->
    # batch_norm -> activation were still three tape nodes: a fused block
    # must keep counting three activations, or these rows move.
    "fig3": ([], 0,
             "b10a5539cdec42e3b292eac9ecb3f6d881de5654394a10159711871267ce6a78"),
    "table1": ([], 0,
               "9e00c90cb45e90b767a86f12f1068c3407304eb8c4d7c26b521fae2f27b46f03"),
}


def _figure_rows_sha(capsys, figure, *extra):
    """Run the pinned smoke invocation of ``figure``; returns the sha256 of
    its JSON rows, its stderr and how many simulations this process ran."""
    before = simulation.RUN_COUNT
    assert cli_main(["run", figure, "--scale", "smoke", "--out", "json",
                     *FIGURE_ROWS[figure][0], *extra]) == 0
    captured = capsys.readouterr()
    return (hashlib.sha256(captured.out.encode()).hexdigest(), captured.err,
            simulation.RUN_COUNT - before)


class TestFigureRowPins:
    @pytest.mark.parametrize("figure", sorted(FIGURE_ROWS))
    def test_rows_match_the_pre_port_recording(self, figure, capsys):
        _, cells, expected = FIGURE_ROWS[figure]
        digest, _, trained = _figure_rows_sha(capsys, figure, "--no-cache")
        assert digest == expected
        assert trained == cells      # every cell trained exactly once

    def test_fig7_fans_out_under_workers(self, tmp_path, capsys):
        """fig7's cells are one ``execute_specs`` sweep: two workers give
        the inline rows, train each cell once (in the pool, not here) and
        leave a cache that serves the whole figure."""
        _, cells, expected = FIGURE_ROWS["fig7"]
        argv = ("--workers", "2", "--cache-dir", str(tmp_path))
        digest, err, trained = _figure_rows_sha(capsys, "fig7", *argv)
        assert digest == expected
        assert f"hits=0 misses={cells}" in err and trained == 0
        digest, err, trained = _figure_rows_sha(capsys, "fig7", *argv)
        assert digest == expected
        assert f"hits={cells} misses=0" in err and trained == 0


#: small smoke options per artifact: a real grid that runs in seconds.
LISTING_KWARGS = {
    "fig1": {"dataset": "harbox", "algorithms": ["sheterofl"]},
    "fig4": {"datasets": ["harbox"], "algorithms": ["sheterofl"]},
    "fig5": {"datasets": ["ucihar"], "algorithms": ["fjord"]},
    "fig6": {"datasets": ["harbox"], "algorithms": ["depthfl"]},
    "fig7": {"dataset": "harbox", "algorithms": ["sheterofl"],
             "combos": [("memory",), ("memory", "communication")]},
    "fig8": {"datasets": ["harbox"], "algorithms": ["fedrolex"]},
    "fig9": {"dataset": "harbox", "algorithms": ["sheterofl"],
             "client_counts": [4, 8]},
    "fault_compare": {"algorithms": ["sheterofl"],
                      "profiles": ["clean", "crash"]},
    "ablations": {"names": ["fedrolex_static_window"]},
    "async_compare": {"algorithms": ["sheterofl"],
                      "cases": [("computation",)]},
}
#: every artifact that trains; the tables and fig3 list no cells.
GRID_ARTIFACTS = {"fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                  "fault_compare", "ablations", "async_compare"}
#: content hashes of the cells the tagged-variant artifacts executed for
#: their ``LISTING_KWARGS`` at ``scale="smoke"`` when they still ran them
#: inside ``rows``, in the order ``specs`` lists them: (full, ablated) and
#: (sync, deadline, buffered).
TAGGED_CELL_HASHES = {
    "ablations": ["fbd8ec963aa3289dfa8249eb", "c0589832b1d187aca3f0b86d"],
    "async_compare": ["48bf83f29d61adb2a87c99eb", "60dc043a4ac25e888edcdc04",
                      "6bf7dbfbfc83828a3af6d280"],
}


class TestListingEqualsRunning:
    @pytest.mark.parametrize("name", sorted(all_artifacts()))
    def test_specs_are_the_cells_run_executes(self, name, tmp_path):
        """``specs`` trains nothing, and a grid artifact's ``run``
        executes exactly the cells its ``specs`` lists."""
        artifact = get_artifact(name)
        kwargs = {"scale": "smoke", **LISTING_KWARGS.get(name, {})}
        if "scale_overrides" in artifact.params:
            kwargs["scale_overrides"] = {"num_rounds": 1}
        before = simulation.RUN_COUNT
        listed = {spec.content_hash() for spec in artifact.specs(**kwargs)}
        assert simulation.RUN_COUNT == before
        if name not in GRID_ARTIFACTS:
            assert listed == set()
            return
        assert listed
        with run_defaults(RunDefaults(cache=RunCache(tmp_path))):
            artifact.run(**kwargs)
        executed = {path.name.split(".")[0]
                    for path in tmp_path.glob("*.json")}
        assert executed == listed

    @pytest.mark.parametrize("name", sorted(TAGGED_CELL_HASHES))
    def test_tagged_cells_keep_their_hashes(self, name):
        specs = get_artifact(name).specs(scale="smoke",
                                         **LISTING_KWARGS[name])
        assert [spec.content_hash() for spec in specs] \
            == TAGGED_CELL_HASHES[name]


class TestRepeatedSeeds:
    @pytest.mark.parametrize("figure,dataset", [
        ("fig7", "harbox"), ("fig8", "harbox"),
        # fig9's smoke client counts (4, 8, 20) outnumber HAR-BOX's users.
        ("fig9", "cifar10")])
    def test_a_repeated_seed_reads_as_one(self, figure, dataset, tmp_path,
                                          capsys):
        """``--seeds 0,0`` lists each cell once and aggregates one seed,
        so it prints byte-identically to ``--seeds 0``."""
        argv = ["run", figure, "--scale", "smoke", "--rounds", "1",
                "--datasets", dataset, "--algorithms", "sheterofl",
                "--out", "json", "--cache-dir", str(tmp_path)]
        assert cli_main(argv + ["--seeds", "0"]) == 0
        once = capsys.readouterr().out
        assert cli_main(argv + ["--seeds", "0,0"]) == 0
        assert capsys.readouterr().out == once
        assert '"seeds"' not in once

    @pytest.mark.parametrize("verb", ["run", "profile", "status"])
    def test_seed_and_seeds_exclude_each_other(self, verb, capsys):
        with pytest.raises(SystemExit) as exited:
            cli_main([verb, "fig4", "--seed", "3", "--seeds", "0,1"])
        assert exited.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


class TestRunnerEndToEnd:
    def test_execute_spec_smoke(self):
        spec = ConstraintSpec(constraints=("computation",))
        result = execute_spec(RunSpec("sheterofl", "harbox", spec,
                                      scale="smoke", seed=0))
        assert 0.0 <= result.final_accuracy <= 1.0
        assert result.history.total_sim_time_s > 0

    def test_summary_shares_baseline(self):
        algorithms = ["sheterofl", "fjord"]
        grid = expand_grid(algorithms, ["harbox"], scale="smoke")
        # the baseline is one cell of the grid, computed once for both rows
        assert [s.algorithm for s in grid] == algorithms + ["fedavg_smallest"]
        before = simulation.RUN_COUNT
        rows = summarize_results(execute_specs(grid), algorithms)
        assert simulation.RUN_COUNT == before + 3
        assert len(rows) == 2
        assert all(row["effectiveness"] is not None for row in rows)

    def test_dirichlet_partition_run(self):
        spec = ConstraintSpec(constraints=("computation",))
        result = execute_spec(RunSpec("sheterofl", "cifar10", spec,
                                      scale="smoke",
                                      partition_scheme="dirichlet",
                                      alpha=0.5))
        assert result.final_accuracy >= 0.0

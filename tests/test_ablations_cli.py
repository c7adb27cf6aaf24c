"""Tests for the ablation harness, CLI entry point and example scripts."""

import pathlib
import subprocess
import sys

import pytest

from repro.experiments import get_artifact
from repro.experiments.variants import ABLATIONS


class TestAblations:
    def test_registry_covers_design_choices(self):
        assert set(ABLATIONS) == {
            "depthfl_no_distill", "inclusivefl_no_momentum",
            "fjord_no_ordered_dropout", "fedrolex_static_window"}

    def test_smoke_ablation_rows(self):
        rows = get_artifact("ablations").run(
            scale="smoke", names=["fedrolex_static_window"])
        assert len(rows) == 1
        row = rows[0]
        assert {"acc_full", "acc_ablated", "mechanism_gain"} <= set(row)
        assert row["mechanism_gain"] == pytest.approx(
            row["acc_full"] - row["acc_ablated"], abs=1e-6)

    def test_mutations_change_behaviour(self):
        """Each ablation's change actually disables its mechanism."""
        from repro.algorithms import ALGORITHMS
        from repro.data import load_dataset, partition_dataset
        from repro.hw import sample_fleet
        from repro.models import build_model
        from repro.algorithms import assign_levels_uniformly

        ds = load_dataset("harbox", seed=0, num_users=8, samples_per_user=8,
                          test_size=40)
        fleet = sample_fleet(8, seed=1)
        shards = partition_dataset(ds, 8, seed=2)

        def make(name):
            cls = ALGORITHMS[name]
            base = build_model("har_cnn", num_classes=ds.num_classes, seed=0,
                               **cls.base_model_overrides)
            pool = cls.build_pool(base)
            clients = assign_levels_uniformly(pool, fleet, ds, shards)
            return cls(base, ds, clients, pool=pool)

        depthfl = make("depthfl")
        ABLATIONS["depthfl_no_distill"].change(depthfl)
        assert depthfl.distill_weight == 0.0

        inclusive = make("inclusivefl")
        ABLATIONS["inclusivefl_no_momentum"].change(inclusive)
        assert inclusive.momentum_beta == 0.0

        fedrolex = make("fedrolex")
        ABLATIONS["fedrolex_static_window"].change(fedrolex)
        assert fedrolex.rolling_shift(5) == 0


class TestCLI:
    def test_list(self):
        out = subprocess.run([sys.executable, "-m", "repro", "list"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "table1" in out.stdout and "fig9" in out.stdout

    def test_unknown_artifact(self):
        out = subprocess.run([sys.executable, "-m", "repro", "fig99"],
                             capture_output=True, text=True)
        assert out.returncode == 2

    def test_table3_via_cli(self):
        out = subprocess.run([sys.executable, "-m", "repro", "run", "table3"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "raspberry_pi_4b" in out.stdout


class TestExamples:
    """Examples run at demo scale (minutes); here we verify they compile and
    reference only real public API names."""

    @pytest.mark.parametrize("script", sorted(
        pathlib.Path(__file__).resolve().parent.parent.joinpath(
            "examples").glob("*.py")))
    def test_compiles(self, script):
        source = script.read_text()
        compile(source, str(script), "exec")
        assert "def main()" in source

    def test_fast_example_runs(self):
        out = subprocess.run(
            [sys.executable, "examples/model_pool_tour.py"],
            capture_output=True, text=True,
            cwd=pathlib.Path(__file__).resolve().parent.parent)
        assert out.returncode == 0
        assert "largest variant" in out.stdout

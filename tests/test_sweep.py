"""Grids, shards and derived status: sharding laws, status rows, crash/resume.

* **Derived status** — a grid's done / pending counts equal
  ``{spec: cache.contains(spec)}`` exactly, before, during and after a
  run; deleting one cache entry flips exactly one cell back to pending.
  Nothing is stored, so nothing can go stale.
* **Sharding partition** — for N in {1, 2, 3, 5} over a >=30-cell grid,
  and for N in 1..8 over random grids (a hypothesis property), the K/N
  shards are pairwise disjoint, their union is the full grid, and the
  assignment is byte-identical across processes (content hashes, not
  ``hash()``, so ``PYTHONHASHSEED`` cannot leak in).
* **Crash/resume** — ``repro run fig4 ... --shard 0/1`` SIGKILLed after
  its first cell lands, then run again, leaves run-cache contents (names +
  bytes) identical to a never-interrupted control run; and a completed
  grid's second run performs zero training (``RUN_COUNT``).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import main as cli_main
from repro.algorithms import MHFL_ALGORITHMS
from repro.constraints import AVAILABILITY_KINDS, ConstraintSpec
from repro.data.registry import DATASET_NAMES
from repro.experiments import (RunCache, RunSpec, Shard, expand_grid,
                               get_artifact, shard_of, status_rows)
from repro.experiments import registry
from repro.experiments.runner import execute_specs
from repro.fl import simulation
from repro.fl.history import History, RoundRecord

SMOKE = ConstraintSpec(constraints=("computation",))

#: environment for subprocess invocations of ``python -m repro``.
_ENV = dict(os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def _smoke_spec(**overrides) -> RunSpec:
    base = dict(algorithm="sheterofl", dataset="harbox", constraints=SMOKE,
                scale="smoke", seed=0)
    base.update(overrides)
    return RunSpec(**base)


def _grid(n_algorithms=2, datasets=("harbox", "ucihar"), seeds=(0,),
          with_baseline=True):
    algorithms = ["sheterofl", "fjord", "fedrolex", "fedepth"][:n_algorithms]
    return expand_grid(algorithms=algorithms, datasets=list(datasets),
                       scale="smoke", seeds=seeds,
                       with_baseline=with_baseline)


def _fake_history(spec: RunSpec) -> History:
    return History(algorithm=spec.algorithm, dataset=spec.dataset,
                   records=[RoundRecord(round_index=0, sim_time_s=1.0,
                                        round_time_s=1.0, train_loss=0.5,
                                        global_accuracy=0.5)])


def _populate(cache: RunCache, specs) -> None:
    """Fabricate valid cache entries without running any simulations."""
    for spec in specs:
        cache.put(spec, _fake_history(spec), num_classes=2)


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
class TestSharding:
    def test_parse(self):
        shard = Shard.parse("2/5")
        assert (shard.index, shard.count) == (2, 5)
        assert shard.label == "2/5"

    @pytest.mark.parametrize("text", ["", "3", "1/2/3", "a/b", "1.5/2"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            Shard.parse(text)

    @pytest.mark.parametrize("index,count", [(-1, 2), (2, 2), (0, 0)])
    def test_rejects_out_of_range(self, index, count):
        with pytest.raises(ValueError):
            Shard(index, count)

    def test_shard_of_rejects_bad_count(self):
        with pytest.raises(ValueError):
            shard_of(_smoke_spec(), 0)

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_partition_disjoint_and_exhaustive(self, count):
        # >= 30 cells: 3 names x 2 datasets x 5 seeds.
        grid = _grid(n_algorithms=2, seeds=(0, 1, 2, 3, 4))
        assert len(grid) >= 30
        shards = [Shard(k, count) for k in range(count)]
        owned = [[s for s in grid if shard.owns(s)] for shard in shards]
        # Pairwise disjoint...
        for i in range(count):
            hashes_i = {s.content_hash() for s in owned[i]}
            for j in range(i + 1, count):
                assert hashes_i.isdisjoint(
                    s.content_hash() for s in owned[j])
        # ...and jointly exhaustive, preserving multiplicity.
        union = [s for cells in owned for s in cells]
        assert sorted(s.content_hash() for s in union) == \
            sorted(s.content_hash() for s in grid)

    @given(algorithms=st.lists(st.sampled_from(MHFL_ALGORITHMS), min_size=1,
                               max_size=4, unique=True),
           datasets=st.lists(st.sampled_from(DATASET_NAMES), min_size=1,
                             max_size=3, unique=True),
           seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=4,
                          unique=True),
           with_baseline=st.booleans(), count=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, algorithms, datasets, seeds,
                                with_baseline, count):
        """Over random grids and N in 1..8, the K/N shards are pairwise
        disjoint and jointly exhaustive, and each cell lands on
        ``int(content_hash, 16) % N``."""
        grid = expand_grid(algorithms=algorithms, datasets=datasets,
                           scale="smoke", seeds=seeds,
                           with_baseline=with_baseline)
        owners = {}
        for spec in grid:
            digest = spec.content_hash()
            owned = [k for k in range(count) if Shard(k, count).owns(spec)]
            assert owned == [int(digest, 16) % count]
            owners[digest] = owned[0]
        assert len(owners) == len(grid)

    @given(count=st.integers(1, 8), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_parse_round_trips_and_refuses_k_at_or_past_n(self, count, data):
        index = data.draw(st.integers(0, count - 1))
        shard = Shard.parse(f"{index}/{count}")
        assert shard == Shard(index, count)
        assert Shard.parse(shard.label) == shard
        past = data.draw(st.integers(count, count + 8))
        with pytest.raises(ValueError):
            Shard.parse(f"{past}/{count}")

    def test_assignment_stable_across_processes(self):
        """No hash-randomization leakage: a fresh interpreter with a
        different PYTHONHASHSEED assigns every cell to the same shard."""
        grid = _grid(n_algorithms=2, seeds=(0, 1, 2, 3, 4))
        local = {spec.content_hash(): shard_of(spec, 5) for spec in grid}
        script = (
            "import json, sys\n"
            "from repro.experiments import RunSpec, shard_of\n"
            "specs = [RunSpec.from_dict(d) for d in json.load(sys.stdin)]\n"
            "print(json.dumps({s.content_hash(): shard_of(s, 5)"
            " for s in specs}))\n")
        for hashseed in ("0", "1", "424242"):
            env = dict(_ENV, PYTHONHASHSEED=hashseed)
            out = subprocess.run(
                [sys.executable, "-c", script],
                input=json.dumps([s.to_dict() for s in grid]),
                capture_output=True, text=True, env=env, check=True)
            assert json.loads(out.stdout) == local


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------
class TestExpandGrid:
    def test_includes_baseline_once(self):
        grid = expand_grid(algorithms=["sheterofl", "fedavg_smallest"],
                           datasets=["harbox"], scale="smoke")
        names = [s.algorithm for s in grid]
        assert names.count("fedavg_smallest") == 1

    def test_no_baseline(self):
        grid = _grid(with_baseline=False)
        assert all(s.algorithm != "fedavg_smallest" for s in grid)

    def test_matches_run_suite_cells(self, monkeypatch):
        """The constraint figures execute exactly ``expand_grid``'s cells,
        so a grid run into the cache makes rendering them pure cache
        hits."""
        grid = expand_grid(algorithms=["sheterofl"], datasets=["harbox"],
                           scale="smoke", seeds=(0, 1),
                           scale_overrides={"num_rounds": 2})
        expected = {
            RunSpec(algorithm=name, dataset="harbox", constraints=SMOKE,
                    scale="smoke", scale_overrides={"num_rounds": 2},
                    seed=seed).content_hash()
            for seed in (0, 1)
            for name in ("sheterofl", "fedavg_smallest")}
        assert {s.content_hash() for s in grid} == expected

        executed = []

        def recording(specs, **kwargs):
            executed.extend(specs)
            return execute_specs(specs, **kwargs)

        monkeypatch.setattr(registry, "execute_specs", recording)
        get_artifact("fig4").run(
            datasets=["harbox"], algorithms=["sheterofl"], scale="smoke",
            seeds=[0, 1], scale_overrides={"num_rounds": 2})
        assert executed == grid


# ----------------------------------------------------------------------
# Derived status (the property test)
# ----------------------------------------------------------------------
def _by_section(rows) -> dict[str, list[dict]]:
    sections: dict[str, list[dict]] = {}
    for row in rows:
        sections.setdefault(row["section"], []).append(row)
    return sections


class TestDerivedStatus:
    def _contract(self, grid, cache):
        """The status rows count exactly the cells ``cache.contains``,
        per algorithm and in total."""
        sections = _by_section(status_rows(grid, cache))
        for row in sections["algorithm"]:
            cells = [s for s in grid if s.algorithm == row["key"]]
            assert row["cells"] == len(cells)
            assert row["done"] == sum(cache.contains(s) for s in cells)
        total = sections["total"][0]
        assert total["done"] == sum(cache.contains(s) for s in grid)
        assert total["done"] + total["pending"] == total["cells"] \
            == len(grid)
        return total

    def test_status_equals_contains_throughout(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        grid = _grid(n_algorithms=3, seeds=(0, 1))
        # Before: everything pending.
        assert self._contract(grid, cache)["done"] == 0
        # During: fabricate completion one cell at a time; the derived
        # rows track the cache exactly at every step.
        for index, spec in enumerate(grid):
            cache.put(spec, _fake_history(spec), num_classes=2)
            assert self._contract(grid, cache)["done"] == index + 1
        # After: everything done.
        total = self._contract(grid, cache)
        assert (total["pending"], total["done_pct"]) == (0, 100.0)

    def test_deleting_one_entry_flips_exactly_one_cell(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        grid = _grid(n_algorithms=3, seeds=(0, 1))
        _populate(cache, grid)
        victim = grid[len(grid) // 2]
        cache.path_for(victim).unlink()
        assert self._contract(grid, cache)["pending"] == 1
        pending = [row["key"] for row in status_rows(grid, cache)
                   if row["section"] == "algorithm" and row["pending"]]
        assert pending == [victim.algorithm]

    def test_status_probe_leaves_counters_alone(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        spec = _smoke_spec()
        cache.put(spec, _fake_history(spec), num_classes=2)
        assert cache.contains(spec)
        assert not cache.contains(_smoke_spec(seed=1))
        assert (cache.hits, cache.misses) == (0, 0)

    def test_contains_matches_get_validity(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        spec = _smoke_spec()
        # Corrupt bytes read as absent.
        cache.directory.mkdir(parents=True)
        cache.path_for(spec).write_text("{truncated")
        assert not cache.contains(spec)
        # Version skew reads as absent.
        cache.put(spec, _fake_history(spec), num_classes=2)
        payload = json.loads(cache.path_for(spec).read_text())
        payload["cache_version"] = -1
        cache.path_for(spec).write_text(json.dumps(payload))
        assert not cache.contains(spec)
        # Hash-colliding entry (stored spec != requested) reads as absent.
        other = _smoke_spec(seed=7)
        entry = cache.path_for(other)
        cache.put(other, _fake_history(other), num_classes=2)
        stored = json.loads(entry.read_text())
        stored["spec"]["seed"] = 8
        entry.write_text(json.dumps(stored))
        assert not cache.contains(other)


# ----------------------------------------------------------------------
# Status rows
# ----------------------------------------------------------------------
class TestStatusRows:
    def test_sections_and_totals(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        grid = _grid(n_algorithms=2)
        _populate(cache, grid[: len(grid) // 2])
        sections = _by_section(status_rows(grid, cache, shards=2))
        assert set(sections) == {"algorithm", "shard", "total"}
        total = sections["total"][0]
        assert total["cells"] == len(grid)
        assert total["done"] == len(grid) // 2
        assert sum(r["cells"] for r in sections["shard"]) == len(grid)
        assert sum(r["cells"] for r in sections["algorithm"]) == len(grid)

    def test_rows_report_progress_only(self, tmp_path):
        """Rows count cells; nothing in them is read from beside the
        entries, so fabricated entries count as done like trained ones."""
        cache = RunCache(tmp_path / "cache")
        grid = _grid(n_algorithms=1, datasets=("harbox",))
        _populate(cache, grid)
        for row in status_rows(grid, cache, shards=2):
            assert set(row) == {"section", "key", "cells", "done",
                                "pending", "done_pct"}
        assert status_rows(grid, cache)[-1]["done"] == len(grid)


# ----------------------------------------------------------------------
# CLI: run --shard and status
# ----------------------------------------------------------------------
#: a one-round smoke fig4; with ``--algorithms sheterofl,fjord
#: --datasets harbox,ucihar`` it is the 6-cell grid ``_grid()`` builds.
SMOKE_FIG4 = ["--scale", "smoke", "--rounds", "1"]


def _status(capsys, *argv) -> dict[str, list[dict]]:
    capsys.readouterr()
    assert cli_main(["status", *argv, "--out", "json", "-q"]) == 0
    return _by_section(json.loads(capsys.readouterr().out))


class TestShardCli:
    GRID = [*SMOKE_FIG4, "--algorithms", "sheterofl",
            "--datasets", "harbox"]

    def test_shard_status_then_a_run_that_trains_nothing(self, tmp_path,
                                                         capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        before = _status(capsys, "fig4", *self.GRID, *cache)["total"][0]
        assert (before["cells"], before["pending"]) == (2, 2)

        assert cli_main(["run", "fig4", *self.GRID, *cache,
                         "--shard", "0/1"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "", "a sharded run renders nothing"
        assert "hits=0 misses=2" in captured.err

        total = _status(capsys, "fig4", *self.GRID, *cache)["total"][0]
        assert (total["done"], total["pending"]) == (2, 0)

        trained = simulation.RUN_COUNT
        assert cli_main(["run", "fig4", *self.GRID, *cache,
                         "--out", "json"]) == 0
        captured = capsys.readouterr()
        assert "hits=2 misses=0" in captured.err
        assert len(json.loads(captured.out)) == 1
        assert simulation.RUN_COUNT == trained

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_shard_leaves_only_run_entries(self, tmp_path, workers):
        cache_dir = tmp_path / "cache"
        assert cli_main(["run", "fig4", *self.GRID, "--shard", "0/1",
                         "--workers", workers, "--cache-dir",
                         str(cache_dir), "-q"]) == 0
        grid = get_artifact("fig4").specs(
            scale="smoke", algorithms=["sheterofl"], datasets=["harbox"],
            scale_overrides={"num_rounds": 1})
        assert sorted(path.name for path in cache_dir.iterdir()) \
            == sorted(f"{spec.content_hash()}.json" for spec in grid)

    def test_sharded_runs_union(self, tmp_path, capsys):
        argv = ["fig4", "fig5", *SMOKE_FIG4, "--algorithms",
                "sheterofl,fjord", "--datasets", "harbox,ucihar",
                "--cache-dir", str(tmp_path / "cache"), "-q"]
        for k in range(2):
            assert cli_main(["run", *argv, "--shard", f"{k}/2"]) == 0
        sections = _status(capsys, *argv, "--shards", "2")
        total = sections["total"][0]
        assert (total["cells"], total["pending"]) == (12, 0)
        assert len(sections["shard"]) == 2
        assert sum(r["cells"] for r in sections["shard"]) == total["cells"]

    @pytest.mark.parametrize("kind", AVAILABILITY_KINDS)
    def test_status_lists_the_availability(self, kind, tmp_path, capsys):
        cache = RunCache(tmp_path / "cache")
        _populate(cache, get_artifact("fig4").specs(
            scale="smoke", algorithms=["sheterofl"], datasets=["harbox"],
            availability=kind))
        argv = ["fig4", "--scale", "smoke", "--algorithms", "sheterofl",
                "--datasets", "harbox", "--cache-dir", str(cache.directory)]
        total = _status(capsys, *argv, "--availability", kind)["total"][0]
        assert (total["cells"], total["pending"]) == (2, 0)
        if kind != "always_on":
            assert _status(capsys, *argv)["total"][0]["done"] == 0

    @pytest.mark.parametrize("argv", [
        ["run", "fig99", "--shard", "0/2"],
        ["status", "fig99"],
        ["run", "fig4", "--shard", "5/2"],
        ["run", "fig4", "--shard", "1"],
        ["run", "fig4", "--shard", "0/2", "--no-cache"],
        ["run", "fig4", "--shard", "0/2", "--resume"],
        ["run", "table1", "table3", "--shard", "0/2"]],
        ids=["run-unknown", "status-unknown", "k-past-n", "malformed",
             "no-cache", "resume", "no-cells"])
    def test_errors_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        before = simulation.RUN_COUNT
        assert cli_main(argv + ["--scale", "smoke"]) == 2
        assert capsys.readouterr().err.strip()
        assert simulation.RUN_COUNT == before, "no cell may run"
        assert list(tmp_path.iterdir()) == [], "nothing may be written"


# ----------------------------------------------------------------------
# Kill and resume (the crash harness)
# ----------------------------------------------------------------------
def _run_entries(cache_dir: Path) -> dict[str, bytes]:
    """Every published cache file (names -> bytes); only the hidden temp
    file of a write the kill interrupted is left out."""
    return {path.name: path.read_bytes()
            for path in sorted(cache_dir.iterdir())
            if not path.name.startswith(".")}


class TestKillAndResume:
    def _argv(self, cache_dir: Path) -> list[str]:
        return [sys.executable, "-m", "repro", "run", "fig4", "--scale",
                "smoke", "--datasets", "harbox,ucihar", "--algorithms",
                "sheterofl,fjord", "--shard", "0/1", "--cache-dir",
                str(cache_dir), "-q"]

    def test_sigkilled_shard_resumes_byte_identical(self, tmp_path):
        control_dir = tmp_path / "control-cache"
        victim_dir = tmp_path / "victim-cache"

        # Control: the same grid, never interrupted.
        subprocess.run(self._argv(control_dir), env=_ENV, check=True,
                       capture_output=True, timeout=300)
        control = _run_entries(control_dir)
        assert len(control) == 6

        # Victim: SIGKILL as soon as the first cell lands.
        victim = subprocess.Popen(self._argv(victim_dir), env=_ENV,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if victim_dir.is_dir() and _run_entries(victim_dir):
                    break
                if victim.poll() is not None:
                    pytest.fail("run finished before it could be killed")
                time.sleep(0.002)
            else:
                pytest.fail("no cell landed within the deadline")
            os.kill(victim.pid, signal.SIGKILL)
            assert victim.wait(timeout=30) == -signal.SIGKILL
        finally:
            if victim.poll() is None:
                victim.kill()
        partial = _run_entries(victim_dir)
        assert 0 < len(partial) < len(control)

        # Resume: the same command again, no special flags.
        subprocess.run(self._argv(victim_dir), env=_ENV, check=True,
                       capture_output=True, timeout=300)

        # Byte-identical run-cache contents: same names, same bytes.
        assert _run_entries(victim_dir) == control

"""Sweep orchestration: manifests, derived status, sharding, crash/resume.

Pins the ISSUE-9 acceptance criteria:

* **Derived status** — a manifest's per-cell ``done``/``pending`` state
  equals ``{spec: cache.contains(spec)}`` exactly, before, during, and
  after a sweep; deleting one cache entry flips exactly one cell back to
  pending.  Nothing is stored, so nothing can go stale.
* **Sharding partition** — for N in {1, 2, 3, 5} over a >=30-cell grid,
  and for N in 1..8 over random grids (a hypothesis property), the K/N
  shards are pairwise disjoint, their union is the full grid, and the
  assignment is byte-identical across processes (content hashes, not
  ``hash()``, so ``PYTHONHASHSEED`` cannot leak in).
* **Crash/resume** — a sweep SIGKILLed after its first cell lands, then
  re-invoked via ``repro sweep resume``, produces run-cache contents
  (names + bytes) identical to a never-interrupted control sweep; and a
  completed sweep's second run performs zero training (``RUN_COUNT``).
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
from repro.experiments import (RunCache, RunSpec, Shard, SweepManifest,
                               expand_grid, run_sweep, shard_of,
                               status_rows)
from repro.experiments.runner import execute_specs
from repro.experiments.sweep import MANIFEST_VERSION
from repro.fl import simulation
from repro.fl.history import History, RoundRecord
from repro.telemetry import runtime as telemetry
from repro.telemetry.report import sidecar_wall_seconds

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
        so a warmed manifest makes figure rendering pure cache hits."""
        from repro.experiments import constraint_figs
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

        monkeypatch.setattr(constraint_figs, "execute_specs", recording)
        constraint_figs.run_constraint_figure(
            ("computation",), datasets=["harbox"], algorithms=["sheterofl"],
            scale="smoke", seeds=[0, 1], scale_overrides={"num_rounds": 2})
        assert executed == grid


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = SweepManifest(name="t", specs=_grid(),
                                 cache_dir=str(tmp_path / "cache"))
        path = manifest.save(tmp_path / "m.json")
        assert SweepManifest.load(path) == manifest

    def test_schema_is_stable(self, tmp_path):
        manifest = SweepManifest(name="t", specs=_grid(),
                                 cache_dir=str(tmp_path / "cache"))
        payload = json.loads(manifest.to_json())
        assert payload["manifest_version"] == MANIFEST_VERSION
        assert set(payload) == {"manifest_version", "name", "cache_dir",
                                "specs"}
        rebuilt = [RunSpec.from_dict(d) for d in payload["specs"]]
        assert [s.content_hash() for s in rebuilt] == \
            [s.content_hash() for s in manifest.specs]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            SweepManifest(name="t", specs=())

    def test_rejects_duplicates(self):
        spec = _smoke_spec()
        with pytest.raises(ValueError, match="duplicate"):
            SweepManifest(name="t", specs=(spec, spec))

    def test_rejects_version_skew(self, tmp_path):
        manifest = SweepManifest(name="t", specs=_grid())
        payload = manifest.to_dict()
        payload["manifest_version"] = MANIFEST_VERSION + 1
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            SweepManifest.load(path)

    def test_load_missing_or_corrupt(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            SweepManifest.load(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            SweepManifest.load(bad)


# ----------------------------------------------------------------------
# Derived status (the property test)
# ----------------------------------------------------------------------
class TestDerivedStatus:
    def _contract(self, manifest, cache):
        """status == {spec: cache.contains(spec)}, cell for cell (keyed by
        content hash — specs hold dicts and are unhashable)."""
        mapping = {cell.spec.content_hash(): cell.done
                   for cell in manifest.status(cache=cache).cells}
        assert mapping == {spec.content_hash(): cache.contains(spec)
                           for spec in manifest.specs}
        return mapping

    def test_status_equals_contains_throughout(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        grid = _grid(n_algorithms=3, seeds=(0, 1))
        manifest = SweepManifest(name="t", specs=grid,
                                 cache_dir=str(cache.directory))
        # Before: everything pending.
        assert set(self._contract(manifest, cache).values()) == {False}
        # During: fabricate completion one cell at a time; the derived
        # mapping tracks the cache exactly at every step.
        for index, spec in enumerate(grid):
            cache.put(spec, _fake_history(spec), num_classes=2)
            mapping = self._contract(manifest, cache)
            assert sum(mapping.values()) == index + 1
        # After: everything done.
        status = manifest.status(cache=cache)
        assert status.done_count == status.total == len(grid)
        assert status.pending_count == 0

    def test_deleting_one_entry_flips_exactly_one_cell(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        grid = _grid(n_algorithms=3, seeds=(0, 1))
        manifest = SweepManifest(name="t", specs=grid,
                                 cache_dir=str(cache.directory))
        _populate(cache, grid)
        victim = grid[len(grid) // 2]
        cache.path_for(victim).unlink()
        mapping = self._contract(manifest, cache)
        assert mapping[victim.content_hash()] is False
        assert sum(not done for done in mapping.values()) == 1
        assert [cell.spec for cell in manifest.status(cache=cache).cells
                if not cell.done] == [victim]

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
# Running and resuming
# ----------------------------------------------------------------------
class TestRunSweep:
    def test_runs_pending_then_nothing(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        manifest = SweepManifest(name="t", specs=_grid(n_algorithms=1,
                                                       datasets=("harbox",)),
                                 cache_dir=str(cache.directory))
        report = run_sweep(manifest, cache=cache)
        assert (report.total, report.executed) == (2, 2)
        assert manifest.status(cache=cache).pending_count == 0
        # Second run: pre-filtered to nothing, zero training.
        before = simulation.RUN_COUNT
        again = run_sweep(manifest, cache=cache)
        assert (again.executed, again.already_done) == (0, 2)
        assert simulation.RUN_COUNT == before

    def test_shards_cover_the_grid(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        manifest = SweepManifest(name="t", specs=_grid(n_algorithms=2),
                                 cache_dir=str(cache.directory))
        reports = [run_sweep(manifest, Shard(k, 3), cache=cache)
                   for k in range(3)]
        assert sum(r.total for r in reports) == len(manifest.specs)
        assert manifest.status(cache=cache).pending_count == 0
        # Each shard's second run finds its cells done, not re-executed.
        for k in range(3):
            report = run_sweep(manifest, Shard(k, 3), cache=cache)
            assert report.executed == 0

    def test_on_cell_progress_hook(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        grid = _grid(n_algorithms=1, datasets=("harbox",))
        manifest = SweepManifest(name="t", specs=grid,
                                 cache_dir=str(cache.directory))
        seen = []
        run_sweep(manifest, cache=cache,
                  on_cell=lambda spec, result: seen.append(
                      (spec.content_hash(), result.from_cache)))
        assert [h for h, _ in seen] == [s.content_hash() for s in grid]
        assert all(not from_cache for _, from_cache in seen)


class TestExecuteSpecsCallback:
    def test_inline_order(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        specs = _grid(n_algorithms=1, datasets=("harbox",))
        seen = []
        execute_specs(specs, cache=cache,
                      on_result=lambda spec, res: seen.append(spec))
        assert seen == specs

    def test_pooled_order(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        specs = _grid(n_algorithms=1, datasets=("harbox", "ucihar"))
        seen = []
        execute_specs(specs, cache=cache, workers=2,
                      on_result=lambda spec, res: seen.append(spec))
        assert seen == specs
        assert all(cache.contains(spec) for spec in specs)


# ----------------------------------------------------------------------
# Status rows and sidecar throughput
# ----------------------------------------------------------------------
class TestStatusRows:
    def test_sections_and_totals(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        grid = _grid(n_algorithms=2)
        manifest = SweepManifest(name="t", specs=grid,
                                 cache_dir=str(cache.directory))
        _populate(cache, grid[: len(grid) // 2])
        rows = status_rows(manifest, cache=cache, shards=2)
        by_section = {}
        for row in rows:
            by_section.setdefault(row["section"], []).append(row)
        assert set(by_section) == {"algorithm", "shard", "total"}
        total = by_section["total"][0]
        assert total["cells"] == len(grid)
        assert total["done"] == len(grid) // 2
        assert sum(r["cells"] for r in by_section["shard"]) == len(grid)
        assert sum(r["cells"] for r in by_section["algorithm"]) == len(grid)

    def test_throughput_from_sidecars(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        grid = _grid(n_algorithms=1, datasets=("harbox",))
        manifest = SweepManifest(name="t", specs=grid,
                                 cache_dir=str(cache.directory))
        with telemetry.telemetry_session():
            run_sweep(manifest, cache=cache)
        for spec in grid:
            assert cache.telemetry_path_for(spec).exists()
        total = status_rows(manifest, cache=cache)[-1]
        assert total["wall_s"] is not None and total["wall_s"] > 0
        assert total["cells_per_h"] is not None

    def test_missing_sidecars_are_untimed_not_errors(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        grid = _grid(n_algorithms=1, datasets=("harbox",))
        manifest = SweepManifest(name="t", specs=grid,
                                 cache_dir=str(cache.directory))
        _populate(cache, grid)  # fabricated entries: no sidecars
        total = status_rows(manifest, cache=cache)[-1]
        assert total["done"] == len(grid)
        assert total["wall_s"] is None


class TestSidecarWallSeconds:
    def test_sums_the_work_spans(self):
        payload = {"telemetry": {"tracer": {"spans": [
            {"name": "prepare_scenario", "duration_s": 0.5},
            {"name": "run_simulation", "duration_s": 2.0},
            {"name": "unrelated", "duration_s": 99.0}]}}}
        assert sidecar_wall_seconds(payload) == 2.5

    @pytest.mark.parametrize("payload", [
        {}, {"telemetry": None}, {"telemetry": {}},
        {"telemetry": {"tracer": {"spans": []}}},
        {"telemetry": {"tracer": {"spans": [{"name": "other",
                                             "duration_s": 1.0}]}}}])
    def test_unrecognisable_payloads_are_none(self, payload):
        assert sidecar_wall_seconds(payload) is None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestSweepCli:
    def _create(self, tmp_path, capsys) -> Path:
        manifest_path = tmp_path / "m.json"
        code = cli_main(["sweep", "create", str(manifest_path),
                         "--algorithms", "sheterofl",
                         "--datasets", "harbox", "--scale", "smoke",
                         "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert "2 cells" in capsys.readouterr().out
        return manifest_path

    def test_create_run_status_resume(self, tmp_path, capsys):
        manifest_path = self._create(tmp_path, capsys)
        assert cli_main(["sweep", "run", str(manifest_path), "-q"]) == 0
        out = capsys.readouterr().out
        assert "2/2 done" in out and "2 executed" in out

        assert cli_main(["sweep", "status", str(manifest_path),
                         "--out", "json", "-q"]) == 0
        rows = json.loads(capsys.readouterr().out)
        total = [r for r in rows if r["section"] == "total"][0]
        assert (total["done"], total["pending"]) == (2, 0)

        before = simulation.RUN_COUNT
        assert cli_main(["sweep", "resume", str(manifest_path), "-q"]) == 0
        assert "0 executed" in capsys.readouterr().out
        assert simulation.RUN_COUNT == before

    def test_sharded_runs_union(self, tmp_path, capsys):
        manifest_path = tmp_path / "m.json"
        cli_main(["sweep", "create", str(manifest_path),
                  "--algorithms", "sheterofl,fjord",
                  "--datasets", "harbox,ucihar", "--scale", "smoke",
                  "--cache-dir", str(tmp_path / "cache"), "-q"])
        for k in range(2):
            assert cli_main(["sweep", "run", str(manifest_path),
                             "--shard", f"{k}/2", "-q"]) == 0
        capsys.readouterr()
        assert cli_main(["sweep", "status", str(manifest_path),
                         "--shards", "2", "--out", "json", "-q"]) == 0
        rows = json.loads(capsys.readouterr().out)
        total = [r for r in rows if r["section"] == "total"][0]
        assert total["pending"] == 0
        shard_rows = [r for r in rows if r["section"] == "shard"]
        assert len(shard_rows) == 2
        assert sum(r["cells"] for r in shard_rows) == total["cells"]

    @pytest.mark.parametrize("kind", AVAILABILITY_KINDS)
    def test_create_records_the_availability(self, kind, tmp_path):
        manifest_path = tmp_path / "m.json"
        assert cli_main(["sweep", "create", str(manifest_path),
                         "--algorithms", "sheterofl",
                         "--datasets", "harbox", "--scale", "smoke",
                         "--availability", kind,
                         "--cache-dir", str(tmp_path / "cache"),
                         "-q"]) == 0
        specs = SweepManifest.load(manifest_path).specs
        assert {spec.constraints.availability for spec in specs} == {kind}

    def test_errors_exit_2(self, tmp_path, capsys):
        assert cli_main(["sweep", "run", str(tmp_path / "missing.json"),
                         "-q"]) == 2
        manifest_path = self._create(tmp_path, capsys)
        assert cli_main(["sweep", "run", str(manifest_path),
                         "--shard", "5/2", "-q"]) == 2
        assert cli_main(["sweep", "-q"]) == 2


# ----------------------------------------------------------------------
# Kill and resume (the crash harness)
# ----------------------------------------------------------------------
def _run_entries(cache_dir: Path) -> dict[str, bytes]:
    """Run-cache entries only (names -> bytes), excluding telemetry
    sidecars: a kill can land between the run entry and its sidecar, so
    sidecar presence legitimately differs between an interrupted-and-
    resumed sweep and an uninterrupted control."""
    return {path.name: path.read_bytes()
            for path in sorted(cache_dir.iterdir())
            if path.name.endswith(".json")
            and not path.name.endswith(".telemetry.json")
            and not path.name.startswith(".")}


class TestKillAndResume:
    def _make_manifest(self, tmp_path: Path, cache_dir: Path) -> Path:
        manifest = SweepManifest(
            name="kill", specs=_grid(n_algorithms=2),
            cache_dir=str(cache_dir))
        return manifest.save(tmp_path / "kill.manifest.json")

    def _sweep_argv(self, manifest_path: Path) -> list[str]:
        return [sys.executable, "-m", "repro", "sweep", "run",
                str(manifest_path), "--no-telemetry", "-q"]

    def test_sigkilled_sweep_resumes_byte_identical(self, tmp_path):
        control_dir = tmp_path / "control-cache"
        victim_dir = tmp_path / "victim-cache"

        # Control: the same grid, never interrupted.
        control_manifest = self._make_manifest(tmp_path / "control",
                                               control_dir)
        subprocess.run(self._sweep_argv(control_manifest), env=_ENV,
                       check=True, capture_output=True, timeout=300)
        control = _run_entries(control_dir)
        assert len(control) == 6

        # Victim: SIGKILL as soon as the first cell lands.
        victim_manifest = self._make_manifest(tmp_path / "victim",
                                              victim_dir)
        victim = subprocess.Popen(self._sweep_argv(victim_manifest),
                                  env=_ENV, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if victim_dir.is_dir() and _run_entries(victim_dir):
                    break
                if victim.poll() is not None:
                    pytest.fail("sweep finished before it could be killed")
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

        # Resume: literally `sweep resume`, no special flags.
        resume = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "resume",
             str(victim_manifest), "--no-telemetry", "-q"],
            env=_ENV, check=True, capture_output=True, text=True,
            timeout=300)
        assert "done" in resume.stdout

        # Byte-identical run-cache contents: same names, same bytes.
        assert _run_entries(victim_dir) == control

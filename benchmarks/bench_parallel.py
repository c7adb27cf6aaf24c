"""Wall-clock benchmark for the parallel client executor.

Runs one figure-4 cell (an algorithm on one dataset under the computation
constraint, demo scale by default) inline and through the process pool at
several worker counts, and records wall-clock plus speedup over the inline
executor in ``BENCH_parallel.json`` at the repo root.  Every run's
``History.to_json()`` is compared against the inline reference — the
benchmark double-checks the determinism contract while it measures.

Usage (standalone)::

    PYTHONPATH=src python benchmarks/bench_parallel.py
    PYTHONPATH=src python benchmarks/bench_parallel.py --workers 1 2 4 8 \
        --rounds 20

Interpretation: speedup tracks *physical cores*.  Client steps are
Python-bound, so separate worker processes are what buys a speedup; on a
single-core host the pool degrades gracefully to ~1x minus a small
spawn/rebuild/pickling overhead — determinism, not speed, is the invariant.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_parallel.json"


def _cell_spec(algorithm: str, dataset: str, scale: str,
               rounds: int | None, workers: int):
    from repro.constraints import ConstraintSpec
    from repro.experiments import RunSpec
    overrides = {} if rounds is None else {"num_rounds": rounds}
    return RunSpec(algorithm=algorithm, dataset=dataset,
                   constraints=ConstraintSpec(constraints=("computation",)),
                   scale=scale, scale_overrides=overrides, workers=workers)


def run_benchmark(algorithm: str = "sheterofl", dataset: str = "cifar100",
                  scale: str = "demo", rounds: int | None = None,
                  worker_counts=(1, 2, 4)) -> dict:
    """Time the cell at each worker count; returns the results document."""
    from repro.experiments import execute_spec

    results = {}
    reference_json = None
    for workers in worker_counts:
        kind = "inline" if workers == 1 else "process"
        spec = _cell_spec(algorithm, dataset, scale, rounds, workers)
        start = time.perf_counter()
        history = execute_spec(spec, cache=None).history
        elapsed = time.perf_counter() - start
        payload = history.to_json()
        if reference_json is None:
            reference_json = payload
        identical = payload == reference_json
        if not identical:  # pragma: no cover - contract violation
            raise AssertionError(
                f"history diverged at workers={workers} ({kind})")
        results[str(workers)] = {
            "executor": kind,
            "wall_clock_s": round(elapsed, 3),
            "identical_history": identical,
        }
    base = results[str(worker_counts[0])]["wall_clock_s"]
    for entry in results.values():
        entry["speedup_vs_inline"] = round(base / entry["wall_clock_s"], 3)
    return {
        "cell": {"algorithm": algorithm, "dataset": dataset, "scale": scale,
                 "rounds": rounds, "constraint": "computation"},
        "workers": results,
    }


def record(doc: dict, json_path: Path = DEFAULT_JSON) -> dict:
    doc = {
        "schema": "bench_parallel/v1",
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        **doc,
    }
    json_path.write_text(json.dumps(doc, indent=1))
    return doc


# ----------------------------------------------------------------------
# pytest hook (smoke scale so the suite stays fast)
# ----------------------------------------------------------------------

def test_bench_parallel():
    doc = run_benchmark(scale="smoke", dataset="harbox",
                        worker_counts=(1, 2))
    for entry in doc["workers"].values():
        assert entry["identical_history"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algorithm", default="sheterofl")
    parser.add_argument("--dataset", default="cifar100")
    parser.add_argument("--scale", default="demo")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override the scale's num_rounds")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--json", type=Path, default=DEFAULT_JSON)
    args = parser.parse_args(argv)

    doc = record(run_benchmark(
        algorithm=args.algorithm, dataset=args.dataset, scale=args.scale,
        rounds=args.rounds, worker_counts=tuple(args.workers)),
        json_path=args.json)

    print(f"cell: {doc['cell']}")
    print(f"{'workers':>8}  {'executor':>8}  {'wall s':>8}  {'speedup':>8}")
    for workers, entry in doc["workers"].items():
        print(f"{workers:>8}  {entry['executor']:>8}  "
              f"{entry['wall_clock_s']:>8.2f}  "
              f"x{entry['speedup_vs_inline']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

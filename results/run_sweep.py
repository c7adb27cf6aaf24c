"""Demo-scale sweep driver, rebuilt on the sweep-manifest API.

Two phases, both resumable:

1. **Warm** — the union of the constraint-figure grids (fig4/5/6: every
   algorithm x dataset under one constraint each, plus the shared
   ``fedavg_smallest`` baseline) is expanded into a
   :class:`~repro.experiments.sweep.SweepManifest` and executed with
   ``run_sweep``.  Status is derived from cache presence, so killing and
   re-running this script continues where the cache left off, and
   ``--shard K/N`` splits the warm phase across hosts.
2. **Render** — each artifact in :data:`PLAN` is resolved through the
   registry (``get_artifact``: a renamed or unregistered figure fails
   loudly instead of silently diverging) and its rows are written to
   ``results/<name>.json`` + ``.txt``.  Rendering runs with the shared
   cache, so warmed cells are free and anything the manifest does not
   cover (fig7 combos, fig8 non-IID, fig9 scalability) computes once and
   lands in the same cache.

Ordering and partial completion come from sweep status, not hand-kept
lists: the plan is ordered by importance, and on a sharded invocation
rendering is skipped while the manifest still has pending cells anywhere
(other hosts are still warming the cache).

Usage::

    python results/run_sweep.py                 # warm + render everything
    python results/run_sweep.py --group a       # key figures only
    python results/run_sweep.py --shard 0/2 --workers 4
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.experiments import (RunCache, RunDefaults, format_table,
                               get_artifact, run_defaults, write_rows)
from repro.experiments.sweep import (Shard, SweepManifest, expand_grid,
                                     run_sweep, status_rows)
from repro.telemetry.logs import configure_logging, get_logger

RESULTS_DIR = Path(__file__).resolve().parent
MANIFEST_PATH = RESULTS_DIR / "demo_sweep.manifest.json"

_log = get_logger("results.sweep")

#: (group, output name, artifact, title, kwargs) — ordered by importance
#: so partial completion still records the key figures first.  Artifact
#: names resolve through the registry at run time.
PLAN = [
    ("a", "fig4_cifar100", "fig4", "Fig4 CIFAR-100 (computation-limited, demo)",
     {"scale": "demo", "datasets": ["cifar100"]}),
    ("a", "fig4_harbox", "fig4", "Fig4 HAR-BOX (computation-limited, demo)",
     {"scale": "demo", "datasets": ["harbox"]}),
    ("a", "fig4_agnews", "fig4", "Fig4 AG-News (computation-limited, demo)",
     {"scale": "demo", "datasets": ["agnews"]}),
    ("a", "fig7", "fig7", "Fig7 constraint combinations (demo)",
     {"scale": "demo",
      "algorithms": ["fjord", "sheterofl", "fedrolex", "fedepth", "depthfl"]}),
    ("b", "fig6_cifar100", "fig6", "Fig6 CIFAR-100 (memory-limited, demo)",
     {"scale": "demo", "datasets": ["cifar100"]}),
    ("b", "fig6_stackoverflow", "fig6",
     "Fig6 Stack Overflow (memory-limited, demo)",
     {"scale": "demo", "datasets": ["stackoverflow"]}),
    ("b", "fig8", "fig8", "Fig8 non-IID CIFAR-10 (demo)",
     {"scale": "demo", "datasets": ["cifar10"],
      "algorithms": ["sheterofl", "fedrolex", "depthfl", "fedepth"]}),
    ("b", "fig9", "fig9", "Fig9 scalability (demo)",
     {"scale": "demo",
      "algorithms": ["sheterofl", "fedrolex", "fedepth", "depthfl"]}),
    ("b", "fig5_cifar100", "fig5", "Fig5 CIFAR-100 (communication-limited, demo)",
     {"scale": "demo", "datasets": ["cifar100"]}),
    ("b", "fig5_ucihar", "fig5", "Fig5 UCI-HAR (communication-limited, demo)",
     {"scale": "demo", "datasets": ["ucihar"]}),
]

#: which (constraint kind, datasets) grids the warm manifest covers —
#: exactly the expand_grid grids behind the PLAN's constraint figures.
WARM_GRIDS = [
    (("computation",), ["cifar100", "harbox", "agnews"]),
    (("memory",), ["cifar100", "stackoverflow"]),
    (("communication",), ["cifar100", "ucihar"]),
]


def build_manifest(cache_dir: Path) -> SweepManifest:
    specs = []
    seen = set()
    for constraints, datasets in WARM_GRIDS:
        for spec in expand_grid(datasets=datasets, constraints=constraints,
                                scale="demo"):
            digest = spec.content_hash()
            if digest not in seen:
                seen.add(digest)
                specs.append(spec)
    manifest = SweepManifest(name="demo_sweep", specs=specs,
                             cache_dir=str(cache_dir))
    manifest.save(MANIFEST_PATH)
    return manifest


def save(name: str, rows: list[dict], title: str) -> None:
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(rows, indent=1))
    (RESULTS_DIR / f"{name}.txt").write_text(
        format_table(rows, title=title) + "\n")
    _log.info("saved %s (%d rows)", name, len(rows),
              extra={"artifact": name, "rows": len(rows)})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("group", nargs="?", choices=("a", "b", "all"),
                        default="all",
                        help="legacy positional group filter (default: all)")
    parser.add_argument("--group", dest="group_opt",
                        choices=("a", "b", "all"), default=None,
                        help="render only this plan group")
    parser.add_argument("--shard", default=None, metavar="K/N",
                        help="warm only this shard of the manifest")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="sweep cells in flight at once")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="run-cache directory "
                             "(default: results/cache)")
    parser.add_argument("--skip-warm", action="store_true",
                        help="skip the manifest warm phase and render "
                             "directly from the cache")
    args = parser.parse_args(argv)
    configure_logging()
    group = args.group_opt or args.group
    shard = Shard.parse(args.shard) if args.shard else Shard()
    cache_dir = Path(args.cache_dir) if args.cache_dir \
        else RESULTS_DIR / "cache"
    cache = RunCache(cache_dir)

    manifest = build_manifest(cache_dir)
    if not args.skip_warm:
        report = run_sweep(manifest, shard, cache=cache,
                           workers=args.workers)
        _log.info("warm phase: %d/%d done on shard %s (%d executed)",
                  report.done, report.total, report.shard, report.executed)
    status = manifest.status(cache=cache)
    print(write_rows(status_rows(manifest, cache=cache,
                                 shards=shard.count),
                     out="table", title=f"Sweep: {manifest.name}"))
    if shard.count > 1 and status.pending_count:
        _log.info("manifest still has %d pending cells across all shards; "
                  "skipping render (re-run unsharded, or after every "
                  "shard finishes)", status.pending_count)
        return 0

    with run_defaults(RunDefaults(cache=cache)):
        for plan_group, name, artifact_name, title, kwargs in PLAN:
            if group != "all" and plan_group != group:
                continue
            artifact = get_artifact(artifact_name)
            save(name, artifact.run(**kwargs), title)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

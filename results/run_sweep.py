"""Demo-scale deliverable: the PLAN's figures as one sharded grid.

Every entry of :data:`PLAN` names a registered artifact and its options.
The script lists each entry's cells (``Artifact.specs``), executes the
union of them once — or one ``--shard K/N`` of that union — into the run
cache, and then renders each entry whose cells are all cached
(``Artifact.rows``) to ``results/<name>.json`` + ``.txt``.  Nothing else
is stored: progress is cache presence, so killing and re-running this
script continues where the cache left off, and an entry whose cells
another host still owns is rendered by a later run.

Usage::

    python results/run_sweep.py                 # run + render everything
    python results/run_sweep.py --group a       # key figures only
    python results/run_sweep.py --shard 0/2 --workers 4
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.experiments import (RunCache, RunDefaults, Shard, execute_specs,
                               format_table, get_artifact, run_defaults,
                               status_rows, unique_specs, write_rows)
from repro.telemetry.logs import configure_logging, get_logger

RESULTS_DIR = Path(__file__).resolve().parent

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


def save(name: str, rows: list[dict], title: str) -> None:
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(rows, indent=1))
    (RESULTS_DIR / f"{name}.txt").write_text(
        format_table(rows, title=title) + "\n")
    _log.info("saved %s (%d rows)", name, len(rows),
              extra={"artifact": name, "rows": len(rows)})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--group", choices=("a", "b", "all"), default="all",
                        help="run and render only this plan group")
    parser.add_argument("--shard", default=None, metavar="K/N",
                        help="execute only this shard of the grid")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="grid cells in flight at once")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="run-cache directory "
                             "(default: results/cache)")
    args = parser.parse_args(argv)
    configure_logging()
    shard = Shard.parse(args.shard) if args.shard else Shard()
    cache = RunCache(Path(args.cache_dir) if args.cache_dir
                     else RESULTS_DIR / "cache")

    entries = [(name, get_artifact(artifact), title, kwargs)
               for group, name, artifact, title, kwargs in PLAN
               if args.group in ("all", group)]
    grids = [artifact.specs(**kwargs) for _, artifact, _, kwargs in entries]
    cells = unique_specs(spec for grid in grids for spec in grid)
    with run_defaults(RunDefaults(cache=cache, workers=args.workers)):
        execute_specs([spec for spec in cells if shard.owns(spec)])
        print(write_rows(status_rows(cells, cache, shards=shard.count),
                         out="table", title="Status: results/run_sweep.py"))
        for (name, artifact, title, kwargs), grid in zip(entries, grids):
            if all(cache.contains(spec) for spec in grid):
                save(name, artifact.rows(execute_specs(grid), **kwargs),
                     title)
            else:
                _log.info("%s: cells still pending on other shards; not "
                          "rendered", name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

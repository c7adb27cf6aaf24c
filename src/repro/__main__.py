"""Unified command-line entry point: regenerate any paper artifact.

Usage::

    python -m repro list
    python -m repro describe fig4
    python -m repro run fig4 --scale demo --seeds 0,1,2 --out json
    python -m repro run fig6 --datasets cifar100 --algorithms sheterofl,fjord
    python -m repro run fig4 --rounds 10 --availability markov
    python -m repro run fig4 --workers 4           # same bytes, more cores
    python -m repro run fig4 --log-json --log-level debug
    python -m repro run fig4 fig5 --scale demo     # one grid, two figures
    python -m repro run fig4 fig5 --scale demo --shard 0/4   # host 0 of 4
    python -m repro status fig4 fig5 --scale demo --shards 4
    python -m repro profile fig4 --scale smoke     # trace + telemetry report

Artifacts come from the registry (:mod:`repro.experiments.registry`) —
every ``@register_artifact`` module is auto-discovered, and each lists its
cells separately from its rows.  ``run`` executes the union of the named
artifacts' cells once, then prints each artifact's rows.  Runs are cached
content-addressed under ``results/cache`` (``--cache-dir`` to relocate,
``--no-cache`` to disable), so a repeated invocation trains nothing and a
shared cell — the FedAvg-smallest baseline — is computed once across
figures.  ``run --shard K/N`` executes only the cells with
``int(content_hash, 16) % N == K`` and renders nothing; ``status`` derives
each cell's done / pending state from the cache, per algorithm, per shard
and in total.  A killed run is resumed by running it again.

``profile`` runs an artifact under a telemetry session
(:mod:`repro.telemetry`): it writes a Chrome-trace JSON loadable in
Perfetto / ``chrome://tracing`` and prints the sectioned telemetry report
instead of the artifact's own rows.  Telemetry is observation-only, so the
profiled run produces byte-identical histories to a plain ``run``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .constraints import AVAILABILITY_KINDS
from .experiments.cache import DEFAULT_CACHE_DIR, RunCache
from .experiments.registry import all_artifacts, get_artifact
from .experiments.reporting import write_rows
from .experiments.runner import (DEFAULT_CHECKPOINT_DIR, RunDefaults,
                                 execute_specs, run_defaults)
from .experiments.spec import unique_specs
from .experiments.sweep import Shard, status_rows
from .telemetry.logs import LOG_LEVELS, configure_logging, get_logger
from .telemetry.report import report_rows
from .telemetry.runtime import telemetry_session
from .telemetry.tracing import validate_chrome_trace

#: where ``repro profile`` drops traces unless ``--trace-out`` overrides it.
DEFAULT_PROFILE_DIR = Path("results") / "profile"

_log = get_logger("cli")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in _parse_str_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def _parse_str_list(text: str) -> list[str]:
    values = [part.strip() for part in text.split(",") if part.strip()]
    if not values:  # an empty selection would select every cell
        raise argparse.ArgumentTypeError(
            f"expected at least one value, got {text!r}")
    return values


def _logging_options() -> argparse.ArgumentParser:
    """Shared ``--log-*`` flags, usable before or after the subcommand.

    Defaults are ``SUPPRESS`` so a subparser never overwrites a value the
    user set at the top level (``repro --log-level debug run fig4`` and
    ``repro run fig4 --log-level debug`` both work); :func:`main` reads
    them with ``getattr`` fallbacks.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("logging")
    group.add_argument("--log-level", choices=LOG_LEVELS,
                       default=argparse.SUPPRESS,
                       help="stderr log verbosity (default: info)")
    group.add_argument("--log-json", action="store_true",
                       default=argparse.SUPPRESS,
                       help="emit log lines as JSON objects")
    group.add_argument("--quiet", "-q", action="store_true",
                       default=argparse.SUPPRESS,
                       help="only errors on stderr (alias for "
                            "--log-level error)")
    return parent


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    """The options that shape an artifact's grid (``run``, ``profile`` and
    ``status`` share them), plus where its cache lives and how to print."""
    parser.add_argument("--scale", default=None,
                        help="scale preset: smoke | demo | paper "
                             "(default: the artifact's own)")
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=None,
                       help="single RNG seed (default 0)")
    seeds.add_argument("--seeds", type=_parse_int_list, default=None,
                       metavar="0,1,2",
                       help="seed sweep; cells render as mean ± std")
    parser.add_argument("--datasets", type=_parse_str_list, default=None,
                        metavar="D1,D2", help="restrict to these datasets")
    parser.add_argument("--algorithms", type=_parse_str_list, default=None,
                        metavar="A1,A2",
                        help="restrict to these algorithms")
    parser.add_argument("--rounds", type=_positive_int, default=None,
                        help="override the scale's num_rounds")
    parser.add_argument("--availability", default=None,
                        choices=AVAILABILITY_KINDS,
                        help="fleet availability scenario")
    parser.add_argument("--out", default="table",
                        choices=("table", "json", "csv"),
                        help="output format (default: table)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help=f"run-cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """The options ``run`` and ``profile`` share: the grid options plus
    the run mechanics (cache switch, parallelism, checkpoints)."""
    _add_grid_options(parser)
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the run cache entirely")
    parser.add_argument("--workers", type=_positive_int, default=None,
                        metavar="N",
                        help="parallel workers: grid cells fan out across "
                             "a process pool (single cells parallelise "
                             "their clients across one instead); results "
                             "are identical for any N")
    parser.add_argument("--checkpoint-every", type=_positive_int,
                        default=None,
                        metavar="N",
                        help="snapshot each run every N rounds so an "
                             "interrupted invocation can be resumed "
                             "(default: off)")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help=f"where run snapshots live "
                             f"(default: {DEFAULT_CHECKPOINT_DIR})")
    parser.add_argument("--resume", action="store_true",
                        help="resume each cell from its snapshot when one "
                             "exists (implies --checkpoint-every 1 unless "
                             "given)")


def _build_parser() -> argparse.ArgumentParser:
    logging_options = _logging_options()
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate PracMHBench paper artifacts.",
        parents=[logging_options])
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list registered artifacts")

    describe = sub.add_parser("describe", help="show one artifact's details")
    describe.add_argument("artifact")

    run = sub.add_parser("run", help="execute artifacts",
                         parents=[logging_options])
    run.add_argument("artifacts", nargs="+", metavar="artifact")
    _add_run_options(run)
    run.add_argument("--shard", default=None, metavar="K/N",
                     help="execute only the cells with content hash "
                          "%% N == K, into the cache; prints no rows")

    profile = sub.add_parser(
        "profile", parents=[logging_options],
        help="execute an artifact under telemetry: Chrome trace + report",
        description="Run an artifact with runtime telemetry enabled, "
                    "write a Perfetto-loadable Chrome-trace JSON and "
                    "print the telemetry report (spans, counters, cache "
                    "hit rate, per-round timings) instead of the "
                    "artifact's rows.  Use --no-cache to force real "
                    "execution — cache-served cells contribute no "
                    "timing spans.")
    profile.add_argument("artifact")
    _add_run_options(profile)
    profile.add_argument("--trace-out", default=None, metavar="FILE",
                         help="Chrome-trace destination (default: "
                              f"{DEFAULT_PROFILE_DIR}/<artifact>-<scale>"
                              ".trace.json)")
    profile.add_argument("--telemetry-out", default=None, metavar="FILE",
                         help="also dump the full telemetry payload "
                              "(metrics/spans/rounds) as JSON")
    profile.add_argument("--memory", action="store_true",
                         help="trace peak memory per top-level span "
                              "(tracemalloc; slows the run)")

    status = sub.add_parser(
        "status", parents=[logging_options],
        help="done / pending cells of artifacts' grids, from the cache",
        description="List the named artifacts' cells without running "
                    "them and derive each one's state from run-cache "
                    "presence (nothing is stored, so this can never be "
                    "stale): one row per algorithm and a total.  "
                    "--shards N adds one row per shard of an N-way "
                    "partition.")
    status.add_argument("artifacts", nargs="+", metavar="artifact")
    _add_grid_options(status)
    status.add_argument("--shards", type=_positive_int, default=None,
                        metavar="N",
                        help="also break progress down by N-way shard")
    return parser


def _warn(message: str) -> None:
    _log.warning("note: %s", message)


def _cmd_list() -> int:
    artifacts = all_artifacts()
    width = max(len(name) for name in artifacts)
    print("artifacts:")
    for name in sorted(artifacts):
        print(f"  {name.ljust(width)}  {artifacts[name].title}")
    print("\nrun one with: python -m repro run <artifact> "
          "[--scale S] [--out table|json|csv]")
    return 0


def _cmd_describe(name: str) -> int:
    try:
        artifact = get_artifact(name)
    except ValueError as error:
        _log.error("%s", error)
        return 2
    import importlib
    module = importlib.import_module(artifact.module)
    print(f"{artifact.name}: {artifact.title}")
    print(f"  module:  {artifact.module}")
    print(f"  options: {', '.join(artifact.params)}")
    if artifact.description:
        print(f"  {artifact.description}")
    reference = getattr(module, "PAPER_REFERENCE", None)
    if reference:
        print(f"  paper reference: {reference}")
    return 0


def _artifact_kwargs(artifact, args) -> dict:
    """Map CLI options onto the artifact's ``run`` signature.

    Only options the artifact supports are forwarded; anything else the
    user explicitly set produces a note on stderr rather than a silent
    drop or a TypeError.
    """
    params = set(artifact.params)
    kwargs: dict = {}

    def forward(option: str, key: str, value) -> None:
        if value is None:
            return
        if key in params:
            kwargs[key] = value
        else:
            _warn(f"{artifact.name} does not support {option}; ignored")

    forward("--scale", "scale", args.scale)
    forward("--seed", "seed", args.seed)
    if args.seeds is not None:
        if "seeds" in params:
            kwargs["seeds"] = args.seeds
        elif len(args.seeds) == 1 and "seed" in params:
            kwargs["seed"] = args.seeds[0]
        else:
            _warn(f"{artifact.name} does not support --seeds; ignored")
    if args.datasets is not None:
        if "datasets" in params:
            kwargs["datasets"] = args.datasets
        elif "dataset" in params and len(args.datasets) == 1:
            kwargs["dataset"] = args.datasets[0]
        elif "dataset" in params:
            _warn(f"{artifact.name} takes a single dataset; "
                  f"using {args.datasets[0]!r}")
            kwargs["dataset"] = args.datasets[0]
        else:
            _warn(f"{artifact.name} does not support --datasets; ignored")
    forward("--algorithms", "algorithms", args.algorithms)
    forward("--availability", "availability", args.availability)
    if args.rounds is not None:
        if "scale_overrides" in params:
            kwargs["scale_overrides"] = {"num_rounds": args.rounds}
        else:
            _warn(f"{artifact.name} does not support --rounds; ignored")
    return kwargs


def _run_defaults(args) -> RunDefaults:
    """The process-wide run defaults, run cache included, an artifact run
    should see (install them with :func:`run_defaults`)."""
    cache = None if args.no_cache else RunCache(args.cache_dir
                                                or DEFAULT_CACHE_DIR)
    checkpoint_every = args.checkpoint_every
    if checkpoint_every is None and (args.checkpoint_dir is not None
                                     or args.resume):
        checkpoint_every = 1
    if args.resume and cache is not None:
        # A cache hit would mask the resume path entirely; resumed
        # cells must actually re-enter the round loop.
        _warn("--resume bypasses the run cache for this invocation")
        cache = None
    return RunDefaults(
        workers=args.workers if args.workers is not None else 1,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=args.checkpoint_dir or DEFAULT_CHECKPOINT_DIR,
        resume=args.resume, cache=cache)


def _report_cache(cache: RunCache | None) -> None:
    # The exact "# cache: ..." text is part of the CLI contract (CI and
    # tests grep stderr for it), so it rides through the logger verbatim.
    if cache is not None:
        _log.info("# cache: hits=%d misses=%d dir=%s",
                  cache.hits, cache.misses, cache.directory)


def _selected(names: list[str], args) -> list | None:
    """``(artifact, kwargs, cells)`` per named artifact, or ``None``
    (logged) when a name is unknown or an artifact refuses its options."""
    try:
        selected = []
        for artifact in [get_artifact(name) for name in names]:
            kwargs = _artifact_kwargs(artifact, args)
            selected.append((artifact, kwargs, artifact.specs(**kwargs)))
    except ValueError as error:
        _log.error("%s", error)
        return None
    return selected


def _cells(selected) -> list:
    """The union of the selected artifacts' cells, one per content hash."""
    return unique_specs(spec for _, _, cells in selected for spec in cells)


def _cmd_run(args) -> int:
    selected = _selected(args.artifacts, args)
    if selected is None:
        return 2
    if args.shard is not None:
        return _run_shard(args, selected)
    with run_defaults(_run_defaults(args)) as defaults:
        union = _cells(selected)
        results = {spec.content_hash(): result
                   for spec, result in zip(union, execute_specs(union))}
        for artifact, kwargs, cells in selected:
            rows = artifact.rows([results[spec.content_hash()]
                                  for spec in cells], **kwargs)
            print(write_rows(rows, out=args.out, title=artifact.title,
                             render=artifact.render,
                             **artifact.render_kwargs))
    _report_cache(defaults.cache)
    return 0


def _run_shard(args, selected) -> int:
    """Execute one shard of the artifacts' cells into the cache."""
    try:
        shard = Shard.parse(args.shard)
    except ValueError as error:
        _log.error("--shard: %s", error)
        return 2
    defaults = _run_defaults(args)
    if defaults.cache is None:
        _log.error("--shard fills the run cache; it cannot run with "
                   "--no-cache or --resume")
        return 2
    cells = _cells(selected)
    if not cells:
        _log.error("%s list no cells to shard", " ".join(args.artifacts))
        return 2
    mine = [spec for spec in cells if shard.owns(spec)]
    _log.info("shard %s: %d of %d cells", shard.label, len(mine),
              len(cells))
    with run_defaults(defaults):
        execute_specs(mine)
    _report_cache(defaults.cache)
    return 0


def _cmd_status(args) -> int:
    selected = _selected(args.artifacts, args)
    if selected is None:
        return 2
    cache = RunCache(args.cache_dir or DEFAULT_CACHE_DIR)
    rows = status_rows(_cells(selected), cache, shards=args.shards)
    print(write_rows(rows, out=args.out,
                     title=f"Status: {' '.join(args.artifacts)}"))
    return 0


def _cmd_profile(args) -> int:
    selected = _selected([args.artifact], args)
    if selected is None:
        return 2
    [(artifact, kwargs, cells)] = selected
    meta = {"artifact": artifact.name}
    if args.scale is not None:
        meta["scale"] = args.scale
    with run_defaults(_run_defaults(args)) as defaults:
        with telemetry_session(meta=meta,
                               trace_memory=args.memory) as session:
            # The artifact's rows are not the product here — the
            # telemetry collected around them is.
            artifact.rows(execute_specs(cells), **kwargs)
    trace = session.chrome_trace()
    validate_chrome_trace(trace)
    trace_path = (Path(args.trace_out) if args.trace_out else
                  DEFAULT_PROFILE_DIR
                  / f"{artifact.name}-{args.scale or 'default'}.trace.json")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(trace, indent=1))
    if args.telemetry_out is not None:
        telemetry_path = Path(args.telemetry_out)
        telemetry_path.parent.mkdir(parents=True, exist_ok=True)
        telemetry_path.write_text(json.dumps(session.to_dict(), indent=1))
        _log.info("telemetry written to %s", telemetry_path)
    print(write_rows(report_rows(session), out=args.out,
                     title=f"Profile: {artifact.name}"))
    cache = defaults.cache
    _report_cache(cache)
    if cache is not None and cache.hits and not cache.misses:
        _warn("every cell was cache-served; rerun with --no-cache for "
              "real execution timings")
    _log.info("trace written to %s (load in Perfetto or chrome://tracing)",
              trace_path)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Default logging config so pre-parse warnings/errors are visible;
    # reconfigured below once the flags are known.
    configure_logging()
    parser = _build_parser()
    if not argv:
        parser.print_help()
        print()
        return _cmd_list()
    args = parser.parse_args(argv)
    level = ("error" if getattr(args, "quiet", False)
             else getattr(args, "log_level", "info"))
    configure_logging(level=level,
                      json_format=getattr(args, "log_json", False))
    if args.command == "list":
        return _cmd_list()
    if args.command == "describe":
        return _cmd_describe(args.artifact)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "status":
        return _cmd_status(args)
    parser.print_help()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Unified command-line entry point: regenerate any paper artifact.

Usage::

    python -m repro list
    python -m repro describe fig4
    python -m repro run fig4 --scale demo --seeds 0,1,2 --out json
    python -m repro run fig6 --datasets cifar100 --algorithms sheterofl,fjord
    python -m repro run fig4 --rounds 10 --availability markov
    python -m repro run fig4 --workers 4           # same bytes, more cores
    python -m repro run fig4 --strict              # + runtime sanitizers
    python -m repro run fig4 --log-json --log-level debug
    python -m repro profile fig4 smoke             # trace + telemetry report
    python -m repro sweep create results/grid.manifest.json --scale demo
    python -m repro sweep run results/grid.manifest.json --shard 0/4
    python -m repro sweep status results/grid.manifest.json --shards 4
    python -m repro sweep resume results/grid.manifest.json --shard 0/4

Artifacts come from the registry (:mod:`repro.experiments.registry`) —
every ``@register_artifact`` module is auto-discovered.  Runs are cached
content-addressed under ``results/cache`` (``--cache-dir`` to relocate,
``--no-cache`` to disable), so a repeated invocation trains nothing and a
shared cell — the FedAvg-smallest baseline — is computed once across
figures.

``profile`` runs an artifact under a telemetry session
(:mod:`repro.telemetry`): it writes a Chrome-trace JSON loadable in
Perfetto / ``chrome://tracing`` and prints the sectioned telemetry report
instead of the artifact's own rows.  Telemetry is observation-only, so the
profiled run produces byte-identical histories to a plain ``run``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .constraints import AVAILABILITY_KINDS
from .experiments.cache import (DEFAULT_CACHE_DIR, RunCache,
                                set_default_cache)
from .experiments.registry import all_artifacts, get_artifact
from .experiments.reporting import write_rows
from .experiments.runner import (DEFAULT_CHECKPOINT_DIR, RunDefaults,
                                 run_defaults)
from .telemetry.logs import LOG_LEVELS, configure_logging, get_logger
from .telemetry.report import report_rows
from .telemetry.runtime import telemetry_session
from .telemetry.tracing import validate_chrome_trace

#: where ``repro profile`` drops traces unless ``--trace-out`` overrides it.
DEFAULT_PROFILE_DIR = Path("results") / "profile"

_log = get_logger("cli")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def _parse_str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


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


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """The options ``run`` and ``profile`` share (everything that shapes
    what executes: scale, sweep axes, cache, parallelism, checkpoints)."""
    parser.add_argument("--scale", default=None,
                        help="scale preset: smoke | demo | paper "
                             "(default: the artifact's own)")
    parser.add_argument("--seed", type=int, default=None,
                        help="single RNG seed (default 0)")
    parser.add_argument("--seeds", type=_parse_int_list, default=None,
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
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the run cache entirely")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="parallel workers: sweep cells fan out across "
                             "a process pool (single cells parallelise "
                             "their clients across one instead); results "
                             "are identical for any N")
    parser.add_argument("--checkpoint-every", type=int, default=None,
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
    parser.add_argument("--strict", action="store_true",
                        help="enable the strict-mode runtime sanitizers: "
                             "broadcast arrays are frozen during dispatch "
                             "and the legacy global RNGs are tripwired; "
                             "results are byte-identical either way")


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

    run = sub.add_parser("run", help="execute an artifact",
                         parents=[logging_options])
    run.add_argument("artifact")
    _add_run_options(run)

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
    profile.add_argument("scale_pos", nargs="?", metavar="scale",
                         help="positional shorthand for --scale")
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

    sweep = sub.add_parser(
        "sweep", parents=[logging_options],
        help="manifest-driven, resumable, shardable experiment sweeps",
        description="Orchestrate large experiment grids through a sweep "
                    "manifest: an expanded, content-hashed spec list. "
                    "Per-cell status is derived from run-cache presence "
                    "(never stored), so `resume` is literally `run` "
                    "re-invoked and a SIGKILLed sweep loses at most its "
                    "in-flight cells.  --shard K/N partitions the grid "
                    "deterministically across hosts.")
    sweep_sub = sweep.add_subparsers(dest="sweep_command")

    sweep_create = sweep_sub.add_parser(
        "create", parents=[logging_options],
        help="expand a grid into a manifest file",
        description="Expand (datasets x seeds x algorithms [+ baseline]) "
                    "into unique RunSpecs and write them as a manifest. "
                    "The manifest is immutable input — no status, no "
                    "timestamps — so any number of hosts can run it "
                    "concurrently.")
    sweep_create.add_argument("manifest", help="manifest file to write")
    sweep_create.add_argument("--name", default=None,
                              help="sweep name (default: manifest stem)")
    sweep_create.add_argument("--algorithms", type=_parse_str_list,
                              default=None, metavar="A1,A2",
                              help="algorithms (default: all MHFL)")
    sweep_create.add_argument("--datasets", type=_parse_str_list,
                              default=None, metavar="D1,D2",
                              help="datasets (default: all)")
    sweep_create.add_argument("--constraints", type=_parse_str_list,
                              default=["computation"], metavar="C1,C2",
                              help="constraint kinds (default: computation)")
    sweep_create.add_argument("--availability", default="always_on",
                              choices=AVAILABILITY_KINDS,
                              help="fleet availability scenario")
    sweep_create.add_argument("--scale", default="demo",
                              help="scale preset: smoke | demo | paper")
    sweep_create.add_argument("--seeds", type=_parse_int_list,
                              default=[0], metavar="0,1,2",
                              help="seeds to sweep (default: 0)")
    sweep_create.add_argument("--partition-scheme", default="auto",
                              help="data partition scheme (default: auto)")
    sweep_create.add_argument("--alpha", type=float, default=0.5,
                              help="Dirichlet alpha (default: 0.5)")
    sweep_create.add_argument("--num-clients", type=int, default=None,
                              help="override the scale's client count")
    sweep_create.add_argument("--no-baseline", action="store_true",
                              help="omit the fedavg_smallest baseline cells")
    sweep_create.add_argument("--cache-dir", default=None, metavar="DIR",
                              help=f"cache directory the manifest targets "
                                   f"(default: {DEFAULT_CACHE_DIR})")

    for verb, text in (("run", "run the manifest's pending cells"),
                       ("resume", "alias for run: re-derive pending cells "
                                  "from the cache and continue")):
        sweep_run = sweep_sub.add_parser(
            verb, parents=[logging_options], help=text,
            description="Derive pending cells (manifest minus cache) and "
                        "execute them with bounded concurrency.  Safe to "
                        "kill at any point: every finished cell is one "
                        "atomic cache write, so re-invoking continues "
                        "where the cache left off.")
        sweep_run.add_argument("manifest", help="manifest file to run")
        sweep_run.add_argument("--shard", default=None, metavar="K/N",
                               help="run only cells with "
                                    "hash %% N == K (multi-host split)")
        sweep_run.add_argument("--workers", type=int, default=None,
                               metavar="N",
                               help="cells in flight at once (process "
                                    "pool; results identical for any N)")
        sweep_run.add_argument("--cache-dir", default=None, metavar="DIR",
                               help="override the manifest's cache "
                                    "directory")
        sweep_run.add_argument("--no-telemetry", action="store_true",
                               help="skip the per-cell telemetry sidecars "
                                    "status reads throughput from")

    sweep_status = sweep_sub.add_parser(
        "status", parents=[logging_options],
        help="derived progress: per-algorithm / per-shard / total",
        description="Derive done/pending per cell from cache presence "
                    "(nothing is stored, so this can never be stale) and "
                    "print per-algorithm progress plus throughput from "
                    "the telemetry sidecars.  --shards N adds one row per "
                    "shard of an N-way partition.")
    sweep_status.add_argument("manifest", help="manifest file to inspect")
    sweep_status.add_argument("--shard", default=None, metavar="K/N",
                              help="restrict the view to one shard")
    sweep_status.add_argument("--shards", type=int, default=None,
                              metavar="N",
                              help="also break progress down by N-way "
                                   "shard")
    sweep_status.add_argument("--cache-dir", default=None, metavar="DIR",
                              help="override the manifest's cache "
                                   "directory")
    sweep_status.add_argument("--out", default="table",
                              choices=("table", "json", "csv"),
                              help="output format (default: table)")
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


@contextlib.contextmanager
def _run_defaults(args):
    """Install the process-wide cache and run defaults an artifact run
    should see; restore the previous ones on exit.

    Yields the active :class:`RunCache` (or ``None``) so the caller can
    report hit/miss counts afterwards.
    """
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
    defaults = RunDefaults(
        workers=args.workers if args.workers is not None else 1,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=args.checkpoint_dir or DEFAULT_CHECKPOINT_DIR,
        resume=args.resume, strict=args.strict)
    previous = set_default_cache(cache)
    try:
        with run_defaults(defaults):
            yield cache
    finally:
        set_default_cache(previous)


def _report_cache(cache: RunCache | None) -> None:
    # The exact "# cache: ..." text is part of the CLI contract (CI and
    # tests grep stderr for it), so it rides through the logger verbatim.
    if cache is not None:
        _log.info("# cache: hits=%d misses=%d dir=%s",
                  cache.hits, cache.misses, cache.directory)


def _cmd_run(args) -> int:
    try:
        artifact = get_artifact(args.artifact)
    except ValueError as error:
        _log.error("%s", error)
        return 2
    kwargs = _artifact_kwargs(artifact, args)
    with _run_defaults(args) as cache:
        rows = artifact.run(**kwargs)
    print(write_rows(rows, out=args.out, title=artifact.title,
                     render=artifact.render, **artifact.render_kwargs))
    _report_cache(cache)
    return 0


def _cmd_profile(args) -> int:
    try:
        artifact = get_artifact(args.artifact)
    except ValueError as error:
        _log.error("%s", error)
        return 2
    if args.scale_pos is not None and args.scale is None:
        args.scale = args.scale_pos
    kwargs = _artifact_kwargs(artifact, args)
    meta = {"artifact": artifact.name}
    if args.scale is not None:
        meta["scale"] = args.scale
    with _run_defaults(args) as cache:
        with telemetry_session(meta=meta,
                               trace_memory=args.memory) as session:
            # The artifact's rows are not the product here — the
            # telemetry collected around them is.
            artifact.run(**kwargs)
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
    _report_cache(cache)
    if cache is not None and cache.hits and not cache.misses:
        _warn("every cell was cache-served; rerun with --no-cache for "
              "real execution timings")
    _log.info("trace written to %s (load in Perfetto or chrome://tracing)",
              trace_path)
    return 0


def _cmd_sweep(args) -> int:
    from .experiments.sweep import (Shard, SweepManifest, expand_grid,
                                    run_sweep, status_rows)
    if args.sweep_command is None:
        _log.error("sweep needs a subcommand: create | run | status | "
                   "resume (see python -m repro sweep --help)")
        return 2

    if args.sweep_command == "create":
        path = Path(args.manifest)
        try:
            specs = expand_grid(
                algorithms=args.algorithms, datasets=args.datasets,
                constraints=tuple(args.constraints),
                availability=args.availability, scale=args.scale,
                seeds=tuple(args.seeds),
                partition_scheme=args.partition_scheme, alpha=args.alpha,
                num_clients=args.num_clients,
                with_baseline=not args.no_baseline)
            manifest = SweepManifest(
                name=args.name or path.stem.split(".")[0], specs=specs,
                cache_dir=args.cache_dir or str(DEFAULT_CACHE_DIR))
        except ValueError as error:
            _log.error("%s", error)
            return 2
        manifest.save(path)
        print(f"manifest {manifest.name}: {len(manifest.specs)} cells "
              f"-> {path}")
        print(f"  cache: {manifest.cache_dir}")
        print(f"  run with: python -m repro sweep run {path} "
              f"[--shard K/N] [--workers N]")
        return 0

    try:
        manifest = SweepManifest.load(args.manifest)
    except ValueError as error:
        _log.error("%s", error)
        return 2
    try:
        shard = Shard.parse(args.shard) if args.shard else Shard()
    except ValueError as error:
        _log.error("%s", error)
        return 2
    cache = RunCache(args.cache_dir) if args.cache_dir else manifest.cache()

    if args.sweep_command == "status":
        rows = status_rows(manifest, shard, cache=cache,
                           shards=args.shards)
        print(write_rows(rows, out=args.out,
                         title=f"Sweep: {manifest.name} "
                               f"[shard {shard.label}]"))
        return 0

    # run | resume — deliberately the same code path: pending cells are
    # re-derived from the cache on every invocation.
    stack = contextlib.ExitStack()
    with stack:
        if not args.no_telemetry:
            # A session makes execute_spec (and its pool workers) persist
            # per-cell telemetry sidecars, which is where `status` gets
            # its throughput numbers.  Observation-only: cell results are
            # byte-identical either way.
            stack.enter_context(telemetry_session(
                meta={"sweep": manifest.name, "shard": shard.label}))
        report = run_sweep(manifest, shard, cache=cache,
                           workers=args.workers)
    # The exact "# sweep: ..." text is CLI contract like "# cache: ..."
    # below — CI greps it to assert a completed sweep re-runs as all-hits.
    _log.info("# sweep: total=%d done=%d executed=%d already_done=%d "
              "cache_served=%d",
              report.total, report.done, report.executed,
              report.already_done, report.cache_served,
              extra={"sweep": report.manifest, "shard": report.shard})
    _report_cache(cache)
    print(f"sweep {report.manifest} shard {report.shard}: "
          f"{report.done}/{report.total} done "
          f"({report.executed} executed, {report.already_done} already "
          f"cached, {report.cache_served} served mid-run)")
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
    if args.command == "sweep":
        return _cmd_sweep(args)
    parser.print_help()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Cell-level performance ledger: four workloads, end to end and per layer.

One *repetition* is one ``execute_spec(spec, cache=None)`` of a workload's
cell — exactly how the CLI and sweeps execute a cell.  One *run* is one
workload at one ``--seed``, driven closed-loop from this one coordinator
process (the next repetition starts when the previous one returns) with BLAS
pinned to one thread per process.

``--trace 0`` (the timed run): a warm-up repetition, then timed repetitions
for ``--seconds`` with a host calibration sample between consecutive ones,
then five cold starts; prints the end-to-end metrics.

``--trace 1`` (the traced run): warm-up, two untraced repetitions, one
repetition under ``tracing.Tracer`` (plus one of the inline twin when the
workload uses a pool), then probes; prints the per-layer metrics and writes
the spans to ``out/trace-<workload>.json``.

Without ``--workload`` the whole suite runs, one fresh interpreter per run,
and the result is written to ``out/result-<label>.json``; ``--selfcheck``
runs the suite twice back to back and compares the two with ``compare.py``.

The last line of standard output of a single run is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import inspect
import json
import pickle
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import goldens  # noqa: E402
import host  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COLD_STARTS = 5
#: timed repetitions every run makes, whatever ``--seconds`` says; peak RSS is
#: read after this many, because it grows with every repetition (by about
#: 8 MiB on ``conv_bn``) and how many fit the window depends on host speed.
MIN_REPETITIONS = 4
MAX_REPETITIONS = 64
UNTRACED_REPETITIONS = 2
CHILD_TIMEOUT_S = 170


def import_repro():
    """Put ``src/`` on the path; a checkout without the program fails here
    (also when some other ``repro`` happens to be installed)."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"no program to measure: {src / 'repro'} is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro.experiments  # noqa: F401


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Repetition:
    wall_s: float
    cpu_s: float
    result: object
    sha256: str


class Run:
    """One workload at one seed: the spec, its golden, and the tally."""

    def __init__(self, workload: str, seed: int, golden_table=None):
        import_repro()
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.spec_seed = workloads.spec_seed_for(workload, seed)
        self.spec = workloads.build_spec(workload, self.spec_seed)
        if golden_table is None:
            golden_table = goldens.load()
        self.golden = golden_table.get(workload, {}).get(str(self.spec_seed))
        if (self.golden is not None
                and self.golden["spec_hash"] != self.spec.content_hash()):
            raise SystemExit(
                f"{workload}: spec hash {self.spec.content_hash()} is not "
                f"the pinned {self.golden['spec_hash']}: the workload "
                f"definition (or spec hashing) changed; regenerate goldens "
                f"and re-measure the baseline")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_sha: str | None = None
        self.tiers: list[str] = []

    def repetition(self, spec=None, tracer: tracing.Tracer | None = None
                   ) -> Repetition | None:
        """Execute the cell once and check its History; ``None`` (and one
        more failure) when it raised."""
        from repro.experiments import execute_spec

        spec = self.spec if spec is None else spec
        if tracer is not None:  # the root span of the traced repetition
            execute_spec = tracer.timed("experiments.execute_spec",
                                        execute_spec)
        self.attempted += 1
        cpu_start = host.cpu_seconds()
        start = time.perf_counter()
        try:
            result = execute_spec(spec, cache=None)
        except Exception as error:  # a failed repetition is a counted outcome
            self.failed += 1
            self.problems.append(f"repetition raised {error!r}")
            return None
        wall_s = time.perf_counter() - start
        cpu_s = host.cpu_seconds() - cpu_start

        text = result.history.to_json()
        digest = goldens.sha256(text)
        tier, detail = goldens.check(result.history, text, self.golden)
        if self.first_sha is None:
            self.first_sha = digest
        if digest != self.first_sha:
            tier, detail = "mismatch", "History differs between repetitions"
        if tier == "mismatch":
            self.failed += 1
            self.problems.append(detail)
        elif detail and detail not in self.problems:
            self.problems.append(detail)
        self.tiers.append(tier)
        return Repetition(wall_s, cpu_s, result, digest)

    @property
    def history_exact(self) -> int:
        return int(bool(self.tiers) and all(t == "exact" for t in self.tiers))

    def cold_start(self) -> dict | None:
        """A fresh interpreter through import and a one-round cell."""
        self.attempted += 1
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--cold-start", "--workload", self.workload.name,
                   "--seed", str(self.seed), "--t0", repr(time.time())]
        try:
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=True)
            report = json.loads(done.stdout.strip().splitlines()[-1])
            if report["records"] != 1:
                raise ValueError(f"{report['records']} records, expected 1")
        except (subprocess.SubprocessError, ValueError, IndexError,
                KeyError) as error:
            self.failed += 1
            self.problems.append(f"cold start failed: {error!r}")
            return None
        return report


def cold_start_child(workload: str, seed: int, t0: float) -> int:
    """Body of ``--cold-start``: runs in a fresh interpreter."""
    import_repro()
    from repro.experiments import execute_spec

    spec = workloads.cold_spec(workload, workloads.spec_seed_for(workload,
                                                                 seed))
    result = execute_spec(spec, cache=None)
    setup_raw_s = time.time() - t0
    print(json.dumps({"setup_raw_s": setup_raw_s,
                      "calib_s": host.calibration_sample(),
                      "records": len(result.history.records)}))
    return 0


# ----------------------------------------------------------------------
# --trace 0: the timed run
# ----------------------------------------------------------------------
def run_timed(workload: str, seed: int, seconds: float) -> dict:
    run = Run(workload, seed)
    if run.golden is None:
        raise SystemExit(f"{workload}: no golden for RunSpec seed "
                         f"{run.spec_seed} (client_rounds_per_s needs its "
                         f"work counters); run --regen-goldens")
    run.repetition()  # warm-up: imports, plan caches, arenas; discarded

    calib = [host.calibration_sample()]
    reps: list[Repetition] = []
    brackets: list[float] = []  # host speed around each good repetition
    estimate = 0.0
    peak_rss = 0.0
    window_start = time.perf_counter()
    for index in range(MAX_REPETITIONS):
        if (index >= MIN_REPETITIONS and
                time.perf_counter() - window_start + estimate > seconds):
            break
        rep = run.repetition()
        if index + 1 == MIN_REPETITIONS:
            # also before the cold starts: their interpreters are reaped
            # children too
            peak_rss = host.peak_rss_mib(run.workload.workers)
        calib.append(host.calibration_sample())
        if rep is not None:
            reps.append(rep)
            brackets.append((calib[-2] + calib[-1]) / 2.0)
            estimate = statistics.median(r.wall_s for r in reps)
    window_s = time.perf_counter() - window_start
    if not reps:
        raise SystemExit(f"{workload}: no repetition succeeded: "
                         f"{run.problems}")

    wall = [stats.calibrated(r.wall_s, c, host.CALIB_REF_S)
            for r, c in zip(reps, brackets)]
    cpu = [stats.calibrated(r.cpu_s, c, host.CALIB_REF_S)
           for r, c in zip(reps, brackets)]
    colds = [c for c in (run.cold_start() for _ in range(COLD_STARTS)) if c]
    if not colds:
        raise SystemExit(f"{workload}: no cold start succeeded: "
                         f"{run.problems}")
    setup = [stats.calibrated(c["setup_raw_s"], c["calib_s"],
                              host.CALIB_REF_S) for c in colds]

    series = {"cell_wall_s": stats.summarize(wall),
              "cell_cpu_s": stats.summarize(cpu),
              "setup_s": stats.summarize(setup),
              "raw_wall_s": stats.summarize([r.wall_s for r in reps]),
              "calib_s": stats.summarize(calib)}
    cell_wall = series["cell_wall_s"]["median"]
    values = {
        "cell_wall_s": cell_wall,
        "cell_cpu_s": series["cell_cpu_s"]["median"],
        "client_rounds_per_s": run.golden["work"]["client_rounds"] / cell_wall,
        "setup_s": series["setup_s"]["median"],
        "peak_rss_mb": peak_rss,
    }
    return finish(run, trace=0, values=values, series=series,
                  extra={"window_s": window_s, "seconds": seconds,
                         "spread": {"cell_wall_s": stats.iqr_share(wall),
                                    "cell_cpu_s": stats.iqr_share(cpu),
                                    "client_rounds_per_s":
                                        stats.iqr_share(wall),
                                    "setup_s": stats.iqr_share(setup),
                                    "peak_rss_mb": 0.0}})


# ----------------------------------------------------------------------
# --trace 1: the traced run
# ----------------------------------------------------------------------
def traced_repetition(run: Run, spec) -> tuple[Repetition, tracing.Tracer]:
    tracer = tracing.Tracer()
    with tracer:
        rep = run.repetition(spec, tracer)
    if rep is None:
        raise SystemExit(f"traced repetition failed: {run.problems}")
    return rep, tracer


def train_samples(algorithm, scale, dispatched) -> int:
    """Samples trained over the ``(client_id, version)`` dispatches."""
    return sum(workloads.client_round_work(algorithm, scale, client_id)[2]
               for client_id, _ in dispatched)


def executor_timings(history) -> dict:
    """Totals of the live History's per-item ``client_timings``."""
    totals = {"execute_s": 0.0, "wait_s": 0.0, "retries": 0}
    for record in history.records:
        for timing in record.extras.get("client_timings", {}).values():
            for key in totals:
                totals[key] += timing.get(key, 0)
    return totals


def best_ms(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def step_probe(algorithm, spec, client_id: int, version: int) -> dict:
    """Counters of one steady-state local step of one client.

    The client's round is replayed once to capture the arguments the
    algorithm hands ``train_local``; the step is then one ``train_local``
    over a single batch, run twice first so step plans and arenas are warm.
    """
    import numpy as np

    import repro.autograd as ag
    from repro.fl.client import train_local
    from repro.fl.seeding import client_rng

    captured: list = []

    def capturing(_name, fn):
        def wrapper(*args, **kwargs):
            captured.append(inspect.signature(fn).bind(*args, **kwargs))
            return fn(*args, **kwargs)
        return wrapper

    hook = tracing.Tracer()
    hook.wrap_function("probe", "repro.fl.client", "train_local", capturing)
    try:
        algorithm.run_client(client_id, version,
                             client_rng(spec.seed, version, client_id))
    finally:
        hook.uninstall()
    call = captured[0].arguments
    config = dataclasses.replace(call["config"], max_batches=1,
                                 local_epochs=1)
    size = config.batch_size
    x, y = call["x"][:size], call["y"][:size]

    def step():
        train_local(call["model"], x, y, config, np.random.default_rng(0),
                    loss_fn=call.get("loss_fn"))

    step()
    step()
    gc.collect()
    python_calls = 0

    def on_event(_frame, event, _arg):
        nonlocal python_calls
        if event == "call":
            python_calls += 1

    with ag.profile() as report:
        sys.setprofile(on_event)
        try:
            step()
        finally:
            sys.setprofile(None)
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    return {"autograd.step_flops": report.flops,
            "autograd.step_gemm_calls": report.gemm_calls,
            "autograd.step_activation_bytes": report.activation_bytes,
            "autograd.step_peak_alloc_bytes": peak,
            "py.step_calls": python_calls}


def transport_probe(algorithm, spec, client_id: int, version: int) -> dict:
    """Pickled size of one work item and of its result."""
    from repro.fl.executor import execute_work_item, make_work_item

    item = make_work_item(
        algorithm, client_id, version, spec.seed, True,
        shared_broadcast=algorithm.pack_round_broadcast(version))
    result = execute_work_item(item, algorithm)
    return {"fl.executor.item_bytes": len(pickle.dumps(item)),
            "fl.executor.result_bytes": len(pickle.dumps(result))}


def storage_probe(spec, result) -> dict:
    """History (de)serialisation and run-cache round trip."""
    from repro.experiments import RunCache
    from repro.fl.history import History

    history = result.history
    text = history.to_json()
    hashes = 200
    start = time.perf_counter()
    for _ in range(hashes):
        spec.content_hash()
    hash_us = (time.perf_counter() - start) / hashes * 1e6

    cache_dir = OUT / "probe-cache"
    cache = RunCache(cache_dir)
    try:
        put_ms = best_ms(lambda: cache.put(
            spec, history, num_classes=result.num_classes,
            level_distribution=result.level_distribution()))
        get_ms = best_ms(lambda: cache.get(spec))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "experiments.spec_hash_us": hash_us,
        "experiments.cache_put_ms": put_ms,
        "experiments.cache_get_ms": get_ms,
        "fl.serialization.history_to_json_ms": best_ms(history.to_json),
        "fl.serialization.history_from_json_ms":
            best_ms(lambda: History.from_json(text)),
        "fl.serialization.history_json_bytes": len(text.encode("utf-8")),
    }


def run_traced(workload: str, seed: int) -> dict:
    run = Run(workload, seed)
    pooled = bool(run.workload.workers)
    run.repetition()  # warm-up
    calib = [host.calibration_sample()]

    def speed_adjusted(rep: Repetition) -> float:
        """``rep``'s wall time at the host speed seen just around it."""
        calib.append(host.calibration_sample())
        return stats.calibrated(rep.wall_s, (calib[-2] + calib[-1]) / 2.0,
                                host.CALIB_REF_S)

    untraced = []
    for _ in range(UNTRACED_REPETITIONS):
        rep = run.repetition()
        if rep is not None:
            untraced.append(speed_adjusted(rep))
        else:
            calib.append(host.calibration_sample())
    if not untraced:
        raise SystemExit(f"{workload}: no untraced repetition succeeded: "
                         f"{run.problems}")
    primary, primary_trace = traced_repetition(run, run.spec)
    primary_wall = speed_adjusted(primary)
    if pooled:
        twin_spec = workloads.build_spec(workload, run.spec_seed, inline=True)
        client, client_trace = traced_repetition(run, twin_spec)
        client_wall = speed_adjusted(client)
    else:
        client, client_trace, client_wall = (primary, primary_trace,
                                             primary_wall)

    coordinator_values = layers.span_metrics(primary_trace.spans,
                                             primary_trace.counts)
    client_values = layers.span_metrics(client_trace.spans,
                                        client_trace.counts)
    values = {m.name: (coordinator_values if layers.from_primary_trace(m)
                       else client_values)[m.name]
              for m in layers.PER_LAYER if m.kind == "span"}

    history = primary.result.history
    algorithm = client.result.scenario.algorithm
    scale = run.spec.resolved_scale()
    timings = executor_timings(history)
    dropped = history.dropped_counts()
    values.update({
        "fl.events": sum(len(r.events) for r in history.records),
        "fl.dropped_updates": sum(dropped.values()),
        "fl.stale_updates": history.stale_update_count(),
        "fl.quarantined_updates": dropped.get("quarantined", 0),
        "fl.executor.execute_s": timings["execute_s"],
        "fl.executor.wait_s": timings["wait_s"],
        "fl.executor.retries": timings["retries"],
        "fl.executor.busy_share": timings["execute_s"] / (
            max(run.workload.workers, 1) * values["fl.run_simulation_s"]),
        "fl.executor.parallel_speedup": client_wall / primary_wall,
        "work.rounds": len(history.records),
        "work.train_samples": train_samples(algorithm, scale,
                                            client_trace.dispatched),
        "trace.overhead_ratio": primary_wall / statistics.median(untraced),
        "trace.history_identical": int(
            primary.sha256 == client.sha256 == run.first_sha),
        "host.calib_s": statistics.median(calib),
        "host.calib_spread": stats.iqr_share(calib),
    })
    client_id, version = client_trace.dispatched[0]
    values.update(step_probe(algorithm, run.spec, client_id, version))
    values.update(transport_probe(algorithm, run.spec, client_id, version))
    values.update(storage_probe(run.spec, primary.result))
    values["check.history_exact"] = run.history_exact

    if run.golden is not None:
        for key, want in run.golden["work"].items():
            if values[f"work.{key}"] != want:
                run.failed += 1
                run.problems.append(f"work.{key} = {values[f'work.{key}']}, "
                                    f"golden has {want}")

    OUT.mkdir(exist_ok=True)
    tracing.write_trace(OUT / f"trace-{workload}.json", primary_trace.spans)
    if pooled:
        tracing.write_trace(OUT / f"trace-{workload}-inline.json",
                            client_trace.spans)
    own = tracing.self_times(primary_trace.spans)
    return finish(run, trace=1, values=values, series={},
                  extra={"spans": len(primary_trace.spans),
                         "self_time_sum_s": sum(own),
                         "untraced_wall_s": untraced})


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def finish(run: Run, *, trace: int, values: dict, series: dict,
           extra: dict) -> dict:
    correct = run.failed == 0
    table = layers.PER_LAYER if trace else layers.END_TO_END
    report = {
        "workload": run.workload.name, "seed": run.seed,
        "spec_seed": run.spec_seed, "spec_hash": run.spec.content_hash(),
        "trace": trace, "correct": correct, "attempted": run.attempted,
        "failed": run.failed, "history_exact": run.history_exact,
        "golden": run.golden is not None, "problems": run.problems,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in table},
        "series": series, "host": host.fingerprint(), **extra,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"run-{run.workload.name}-seed{run.seed}-trace{trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    return report


def print_report(report: dict) -> None:
    print(f"# {report['workload']} seed {report['seed']} (RunSpec seed "
          f"{report['spec_seed']}, spec {report['spec_hash']}) "
          f"trace {report['trace']}")
    for name, metric in report["metrics"].items():
        line = f"{name:44s} {metric['value']:>16.6g} {metric['unit']}"
        summary = report["series"].get(name)
        if summary:
            line += (f"   q1 {summary['q1']:.4g} q3 {summary['q3']:.4g} "
                     f"min {summary['min']:.4g} max {summary['max']:.4g} "
                     f"n {summary['n']}")
        print(line)
    for problem in report["problems"]:
        print(f"warning: {problem}")
    if not report["history_exact"]:
        print("warning: History is not byte-identical to the golden "
              "(check.history_exact = 0)")
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))


# ----------------------------------------------------------------------
# Whole suite, self-check, goldens
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One single-run invocation in a fresh interpreter; its report."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, text=True, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited with "
                         f"{done.returncode}")
    path = OUT / f"run-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def run_workload(name: str, seed: int, seconds: int) -> dict:
    """The timed and then the traced run of one workload."""
    return {"end_to_end": run_child(name, seed, seconds, trace=0),
            "per_layer": run_child(name, seed, seconds, trace=1)}


def write_result(label: str, seed: int, seconds: int, runs: dict) -> Path:
    path = OUT / f"result-{label}.json"
    path.write_text(json.dumps({"label": label, "seed": seed,
                                "seconds": seconds, "workloads": runs},
                               indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return path


def run_suite(label: str, seed: int, seconds: int) -> Path:
    """Every workload, timed then traced; ``out/result-<label>.json``."""
    return write_result(label, seed, seconds,
                        {name: run_workload(name, seed, seconds)
                         for name in workloads.WORKLOADS})


def selfcheck(seed: int, seconds: int) -> int:
    """A then B adjacent per workload (slow host drift hits both), compared
    under the benchmark's own bounds."""
    halves: dict = {"A": {}, "B": {}}
    for name in workloads.WORKLOADS:
        for runs in halves.values():
            runs[name] = run_workload(name, seed, seconds)
    paths = [write_result(f"selfcheck-{half}", seed, seconds, runs)
             for half, runs in halves.items()]
    return compare.main([str(p) for p in paths] + ["--strict"])


def regen_goldens() -> int:
    """Rewrite ``goldens.json`` for every workload and table seed.

    Refuses to write unless, per cell, two repetitions agree byte for byte
    and — for the pool workload — the pool's History equals the inline one
    the golden is recorded from.
    """
    table: dict = {}
    for name, workload in workloads.WORKLOADS.items():
        table[name] = {}
        for index, spec_seed in enumerate(workloads.SPEC_SEEDS[name]):
            run = Run(name, index, golden_table={})
            twin = workloads.build_spec(name, spec_seed, inline=True)
            traced, trace = traced_repetition(run, twin)
            run.repetition(twin)
            if workload.workers:
                run.repetition(run.spec)
            if run.failed:
                raise SystemExit(f"{name} seed {spec_seed}: refusing to "
                                 f"write goldens: {run.problems}")
            history = traced.result.history
            algorithm = traced.result.scenario.algorithm
            scale = run.spec.resolved_scale()
            spans = layers.span_metrics(trace.spans, trace.counts)
            table[name][str(spec_seed)] = {
                "spec_hash": run.spec.content_hash(),
                "sha256": traced.sha256,
                "work": {
                    "rounds": len(history.records),
                    "client_rounds": spans["work.client_rounds"],
                    "train_steps": spans["work.train_steps"],
                    "train_samples": train_samples(algorithm, scale,
                                                   trace.dispatched)},
                "structure": goldens.structure(history),
            }
            print(f"{name} seed {spec_seed}: {traced.sha256[:16]} "
                  f"{table[name][str(spec_seed)]['work']}", flush=True)
    goldens.dump(table)
    print(f"wrote {goldens.GOLDENS_PATH.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="PracMHBench cell-level performance ledger")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=layers.RUN_SECONDS,
                        help="timed window of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="local",
                        help="suite mode: name of out/result-<label>.json")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the suite twice and compare A against B")
    parser.add_argument("--regen-goldens", action="store_true")
    parser.add_argument("--cold-start", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    host.pin_blas_threads()  # before anything imports numpy; children inherit

    if args.cold_start:
        return cold_start_child(args.workload, args.seed, args.t0)
    if args.regen_goldens:
        return regen_goldens()
    if args.selfcheck:
        import_repro()
        return selfcheck(args.seed, args.seconds)
    if args.workload is None:
        import_repro()
        run_suite(args.label, args.seed, args.seconds)
        return 0
    if args.trace:
        report = run_traced(args.workload, args.seed)
    else:
        report = run_timed(args.workload, args.seed, args.seconds)
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())

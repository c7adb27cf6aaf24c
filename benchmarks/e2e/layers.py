"""The ledger's schema in code: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is :func:`benchmark_json` written
out; a unit test keeps the two equal.  The JSON file may only carry
``name`` / ``unit`` / ``better`` (/ ``bound``) per metric, so what each
per-layer metric belongs to, which end-to-end metric it should move and on
which workloads lives here and in the README.

:func:`span_metrics` turns one traced repetition's spans into the span-derived
per-layer values; probes and run-level values are added by ``bench_e2e.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import tracing
import workloads

__all__ = ["EndToEnd", "PerLayer", "END_TO_END", "PER_LAYER", "RUN_SECONDS",
           "COMMAND", "PATHS", "benchmark_json", "span_metrics",
           "COORDINATOR_LAYERS", "from_primary_trace"]

COMMAND = ["python3", "benchmarks/e2e/bench_e2e.py"]
PATHS = ["benchmarks/e2e"]
#: the timed window of one ``--trace 0`` run (repetitions start while the
#: window is open); with cold starts, warm-up and calibration a run takes
#: ~30 s, ~35 s in the host's slow phases, which the acceptance driver's
#: budget (92 runs in 3420 s) needs.
RUN_SECONDS = 20


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: allowed relative worsening before a change counts as a regression.
    bound: float
    definition: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    #: end-to-end metrics this one should move.
    moves: tuple[str, ...] = ()
    #: workloads where the layer does most of its work.
    most: tuple[str, ...] = ()
    #: a count that must repeat exactly between two runs of the same code.
    exact: bool = False
    #: ``span`` (from the traced repetition), ``probe`` or ``run``.
    kind: str = "span"


#: bounds are set from the measured A/A spread on the reference host (README,
#: "Why calibrated seconds, and why these bounds"): ten-seed spreads of the
#: timing metrics reach 0.14 there, of ``peak_rss_mb`` 0.05.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("cell_wall_s", "s", "lower", 0.25,
             "median over timed repetitions of wall_i * CALIB_REF / calib_i "
             "(reference-host seconds)"),
    EndToEnd("cell_cpu_s", "s", "lower", 0.25,
             "same, for user+sys CPU of the process plus reaped children"),
    EndToEnd("client_rounds_per_s", "1/s", "higher", 0.25,
             "work.client_rounds / cell_wall_s"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median of five cold starts: fresh interpreter from process "
             "start through import and a one-round execute_spec, calibrated "
             "in the same child"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.15,
             "coordinator ru_maxrss after the warm-up and four timed "
             "repetitions plus workers x the largest reaped child's"),
)

_CELL = ("cell_wall_s", "cell_cpu_s")
_ENGINE = ("conv_bn", "transformer", "depthwise_pool2")
_SLICED = ("conv_bn", "depthwise_pool2", "fleet_async")


def _ops() -> tuple[PerLayer, ...]:
    where = {"conv2d": ("conv_bn", "depthwise_pool2"),
             "batch_norm": ("conv_bn", "depthwise_pool2"),
             "linear": ("transformer",), "attention": ("transformer",),
             "layer_norm": ("transformer",), "embedding": ("transformer",),
             "cross_entropy": _ENGINE, "other": _ENGINE}
    rows = []
    for op in (*tracing.NAMED_OPS, "other"):
        rows.append(PerLayer(f"autograd.op_fwd_s.{op}", "s", "lower",
                             "autograd", _CELL, where[op]))
        rows.append(PerLayer(f"autograd.op_calls.{op}", "count", "lower",
                             "autograd", _CELL, where[op], exact=True))
    return tuple(rows)


PER_LAYER: tuple[PerLayer, ...] = (
    # experiments
    PerLayer("experiments.prepare_scenario_s", "s", "lower", "experiments",
             ("setup_s", "cell_wall_s"), tuple(workloads.WORKLOADS)),
    PerLayer("experiments.execute_spec_self_s", "s", "lower", "experiments",
             ("cell_wall_s",)),
    PerLayer("experiments.spec_hash_us", "us", "lower", "experiments",
             kind="probe"),
    PerLayer("experiments.cache_put_ms", "ms", "lower", "experiments",
             kind="probe"),
    PerLayer("experiments.cache_get_ms", "ms", "lower", "experiments",
             kind="probe"),
    # data, constraints (+hw)
    PerLayer("data.load_dataset_s", "s", "lower", "data", ("setup_s",),
             ("conv_bn", "fleet_async")),
    PerLayer("constraints.build_scenario_s", "s", "lower", "constraints",
             ("setup_s",), ("conv_bn", "fleet_async")),
    # fl runtime
    PerLayer("fl.run_simulation_s", "s", "lower", "fl", ("cell_wall_s",),
             tuple(workloads.WORKLOADS)),
    PerLayer("fl.coordinator_self_s", "s", "lower", "fl", ("cell_wall_s",),
             ("fleet_async",)),
    PerLayer("fl.validate_update_s", "s", "lower", "fl", ("cell_wall_s",),
             ("fleet_async",)),
    PerLayer("fl.events", "count", "lower", "fl", (), ("fleet_async",),
             exact=True, kind="run"),
    PerLayer("fl.dropped_updates", "count", "lower", "fl", (),
             ("fleet_async",), exact=True, kind="run"),
    PerLayer("fl.stale_updates", "count", "lower", "fl", (),
             ("fleet_async",), exact=True, kind="run"),
    PerLayer("fl.quarantined_updates", "count", "lower", "fl", (),
             ("fleet_async",), exact=True, kind="run"),
    # fl.executor
    PerLayer("fl.executor.execute_s", "s", "lower", "fl.executor",
             ("cell_cpu_s",), ("depthwise_pool2",), kind="run"),
    PerLayer("fl.executor.wait_s", "s", "lower", "fl.executor",
             ("cell_wall_s",), ("depthwise_pool2",), kind="run"),
    PerLayer("fl.executor.retries", "count", "lower", "fl.executor", (),
             ("depthwise_pool2",), exact=True, kind="run"),
    PerLayer("fl.executor.pack_broadcast_s", "s", "lower", "fl.executor",
             ("cell_wall_s",), ("depthwise_pool2", "fleet_async")),
    PerLayer("fl.executor.item_bytes", "bytes", "lower", "fl.executor",
             ("cell_wall_s", "peak_rss_mb"), ("depthwise_pool2",),
             exact=True, kind="probe"),
    PerLayer("fl.executor.result_bytes", "bytes", "lower", "fl.executor",
             ("cell_wall_s", "peak_rss_mb"), ("depthwise_pool2",),
             exact=True, kind="probe"),
    PerLayer("fl.executor.busy_share", "ratio", "higher", "fl.executor",
             ("cell_wall_s",), ("depthwise_pool2",), kind="run"),
    PerLayer("fl.executor.parallel_speedup", "ratio", "higher",
             "fl.executor", ("cell_wall_s",), ("depthwise_pool2",),
             kind="run"),
    # algorithms
    PerLayer("algorithms.run_client_s", "s", "lower", "algorithms", _CELL,
             tuple(workloads.WORKLOADS)),
    PerLayer("algorithms.run_client_self_s", "s", "lower", "algorithms",
             _CELL, ("transformer",)),
    PerLayer("algorithms.build_client_model_s", "s", "lower", "algorithms",
             _CELL, _SLICED),
    PerLayer("algorithms.ingest_self_s", "s", "lower", "algorithms",
             ("cell_wall_s",), ("conv_bn", "fleet_async")),
    # models
    PerLayer("models.variant_s", "s", "lower", "models", _CELL, _SLICED),
    PerLayer("models.variant_calls", "count", "lower", "models", _CELL,
             _SLICED, exact=True),
    PerLayer("models.width_index_maps_s", "s", "lower", "models", _CELL,
             _SLICED),
    PerLayer("models.extract_substate_s", "s", "lower", "models", _CELL,
             _SLICED),
    PerLayer("models.scatter_accumulate_s", "s", "lower", "models",
             ("cell_wall_s",), _SLICED),
    PerLayer("models.finalize_mean_s", "s", "lower", "models",
             ("cell_wall_s",), _SLICED),
    # nn
    PerLayer("nn.load_state_dict_s", "s", "lower", "nn", _CELL,
             ("fleet_async", "conv_bn")),
    PerLayer("nn.state_dict_s", "s", "lower", "nn", _CELL,
             ("fleet_async", "conv_bn")),
    PerLayer("nn.optim_step_s", "s", "lower", "nn", _CELL, _ENGINE),
    PerLayer("nn.module_init_calls", "count", "lower", "nn", _CELL,
             ("fleet_async", "conv_bn"), exact=True),
    # fl.client
    PerLayer("fl.train_local_s", "s", "lower", "fl.client",
             (*_CELL, "client_rounds_per_s"), _ENGINE),
    PerLayer("fl.train_local_fwd_s", "s", "lower", "fl.client",
             (*_CELL, "client_rounds_per_s"), _ENGINE),
    # autograd
    PerLayer("autograd.backward_s", "s", "lower", "autograd", _CELL, _ENGINE),
    *_ops(),
    PerLayer("autograd.step_flops", "flops", "lower", "autograd", _CELL,
             _ENGINE, exact=True, kind="probe"),
    PerLayer("autograd.step_gemm_calls", "count", "lower", "autograd", _CELL,
             ("conv_bn", "depthwise_pool2"), exact=True, kind="probe"),
    PerLayer("autograd.step_activation_bytes", "bytes", "lower", "autograd",
             ("peak_rss_mb",), _ENGINE, exact=True, kind="probe"),
    PerLayer("autograd.step_peak_alloc_bytes", "bytes", "lower", "autograd",
             ("peak_rss_mb", "cell_wall_s"), _ENGINE, exact=True,
             kind="probe"),
    PerLayer("py.step_calls", "count", "lower", "autograd", _CELL,
             ("fleet_async",), exact=True, kind="probe"),
    # fl.evaluate
    PerLayer("fl.evaluate_s", "s", "lower", "fl.evaluate", ("cell_wall_s",),
             ("transformer",)),
    PerLayer("fl.evaluate_calls", "count", "lower", "fl.evaluate", (),
             ("transformer",), exact=True),
    # fl.serialization (none of the four cells serialise today; recorded so
    # cache-served figure rendering has a baseline)
    PerLayer("fl.serialization.history_to_json_ms", "ms", "lower",
             "fl.serialization", (), ("fleet_async",), kind="probe"),
    PerLayer("fl.serialization.history_from_json_ms", "ms", "lower",
             "fl.serialization", (), ("fleet_async",), kind="probe"),
    PerLayer("fl.serialization.history_json_bytes", "bytes", "lower",
             "fl.serialization", (), ("fleet_async",), exact=True,
             kind="probe"),
    # bookkeeping
    PerLayer("work.rounds", "count", "higher", "bookkeeping", exact=True,
             kind="run"),
    PerLayer("work.client_rounds", "count", "higher", "bookkeeping",
             exact=True),
    PerLayer("work.train_steps", "count", "higher", "bookkeeping",
             exact=True),
    PerLayer("work.train_samples", "count", "higher", "bookkeeping",
             exact=True, kind="run"),
    PerLayer("cell.raw_wall_s", "s", "lower", "bookkeeping"),
    PerLayer("cell.unattributed_s", "s", "lower", "bookkeeping",
             ("cell_wall_s",)),
    PerLayer("trace.overhead_ratio", "ratio", "lower", "bookkeeping",
             kind="run"),
    PerLayer("trace.history_identical", "bool", "higher", "bookkeeping",
             kind="run"),
    PerLayer("host.calib_s", "s", "lower", "bookkeeping", kind="run"),
    PerLayer("host.calib_spread", "ratio", "lower", "bookkeeping",
             kind="run"),
    PerLayer("check.history_exact", "bool", "higher", "bookkeeping",
             kind="run"),
)

#: layers that run on the coordinator whatever the executor.  Wrappers
#: installed in the coordinator cannot see into pool workers, so a pool
#: workload traces two repetitions: these layers' span metrics (and the
#: cell's own wall time) come from the pool repetition, everything else —
#: client-side layers, ``work.*`` and ``cell.unattributed_s`` — from the
#: traced *inline* twin.
COORDINATOR_LAYERS = frozenset({"experiments", "data", "constraints", "fl",
                                "fl.executor"})


def from_primary_trace(metric: PerLayer) -> bool:
    """Whether a span metric is read off the workload's own (pool) trace
    rather than the inline twin's; the two coincide on inline workloads."""
    return (metric.layer in COORDINATOR_LAYERS
            or metric.name == "cell.raw_wall_s")


def benchmark_json() -> dict:
    """The contract form of the schema (exactly ``BENCHMARK.json``)."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def span_metrics(spans, counts) -> dict[str, float]:
    """Every ``kind="span"`` per-layer metric from one traced repetition.

    ``*_s`` values are totals over the repetition: a name's spans that have
    no same-named ancestor, so ``super()`` chains count once.  ``*_self_s``
    and the per-op forward times are sums of self times, which is what lets
    all self times add up to the repetition's wall time.
    """
    table = tracing.totals(spans)

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return table.get(name, {}).get("calls", 0)

    below = tracing.descendant_time
    values = {
        "experiments.prepare_scenario_s":
            total("experiments.prepare_scenario"),
        "experiments.execute_spec_self_s": own("experiments.execute_spec"),
        "data.load_dataset_s": total("data.load_dataset"),
        "constraints.build_scenario_s": total("constraints.build_scenario"),
        "fl.run_simulation_s": total("fl.run_simulation"),
        "fl.coordinator_self_s": own("fl.run_simulation"),
        "fl.validate_update_s": total("fl.validate_update"),
        "fl.executor.pack_broadcast_s": total("fl.executor.pack_broadcast"),
        "algorithms.run_client_s": total("algorithms.run_client"),
        "algorithms.run_client_self_s": own("algorithms.run_client"),
        "algorithms.build_client_model_s":
            total("algorithms.build_client_model"),
        # scatter + finalize + post_aggregate: the client work the update
        # generator drains inside ingest is not ingest's own.
        "algorithms.ingest_self_s":
            total("algorithms.ingest") - below(spans, "algorithms.ingest",
                                               ("algorithms.run_client",)),
        "models.variant_s": total("models.variant"),
        "models.variant_calls": calls("models.variant"),
        "models.width_index_maps_s": total("models.width_index_maps"),
        "models.extract_substate_s": total("models.extract_substate"),
        "models.scatter_accumulate_s": total("models.scatter_accumulate"),
        "models.finalize_mean_s": total("models.finalize_mean"),
        "nn.load_state_dict_s": total("nn.load_state_dict"),
        "nn.state_dict_s": total("nn.state_dict"),
        "nn.optim_step_s": total("nn.optim_step"),
        "nn.module_init_calls": counts.get("nn.module_init", 0),
        "fl.train_local_s": total("fl.train_local"),
        # batching + forward + loss
        "fl.train_local_fwd_s":
            total("fl.train_local") - below(
                spans, "fl.train_local",
                ("autograd.backward", "nn.optim_step")),
        "autograd.backward_s": total("autograd.backward"),
        "fl.evaluate_s": total("fl.evaluate"),
        "fl.evaluate_calls": calls("fl.evaluate"),
        "work.client_rounds":
            table.get("algorithms.run_client", {}).get("outer_calls", 0),
        "work.train_steps": calls("nn.optim_step"),
        "cell.raw_wall_s": total("experiments.execute_spec"),
        # what no named leaf owns
        "cell.unattributed_s": (own("experiments.execute_spec")
                                + own("fl.run_simulation")
                                + own("algorithms.run_client")),
    }
    for op in (*tracing.NAMED_OPS, "other"):
        values[f"autograd.op_fwd_s.{op}"] = own(f"autograd.op.{op}")
        values[f"autograd.op_calls.{op}"] = calls(f"autograd.op.{op}")
    return values


if __name__ == "__main__":
    import json
    import sys
    from pathlib import Path

    target = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if "--write" in sys.argv:
        target.write_text(text)
    else:
        sys.stdout.write(text)

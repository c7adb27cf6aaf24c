"""Unit tests of the ledger's own arithmetic (no full cells: the tier-1 suite
collects this file, so it has to stay within a few seconds)."""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import compare  # noqa: E402
import goldens  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def span(name, start, end, parent=-1):
    return [name, float(start), float(end), parent]


def test_self_time_nested_and_siblings():
    spans = [span("root", 0, 10),
             span("a", 1, 4, 0),       # sibling children of root
             span("b", 5, 9, 0),
             span("leaf", 6, 8, 2)]    # nested under b
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    # the invariant the traced run relies on: self times add up to the root
    assert sum(tracing.self_times(spans)) == 10.0


def test_self_time_takes_the_union_of_overlapping_children():
    spans = [span("root", 0, 10),
             span("x", 1, 5, 0),
             span("y", 3, 7, 0),       # overlaps x on [3, 5]
             span("z", 8, 12, 0)]      # runs past the parent: clipped at 10
    assert tracing.self_times(spans)[0] == pytest.approx(10 - 6 - 2)


def test_totals_count_same_named_nesting_once():
    spans = [span("root", 0, 10),
             span("ingest", 1, 9, 0),
             span("ingest", 2, 6, 1),  # a super() chain
             span("leaf", 3, 4, 2)]
    table = tracing.totals(spans)
    assert table["ingest"]["calls"] == 2
    assert table["ingest"]["outer_calls"] == 1
    assert table["ingest"]["total_s"] == 8.0
    assert table["ingest"]["self_s"] == pytest.approx(4.0 + 3.0)
    assert table["leaf"]["total_s"] == 1.0


def test_descendant_time_takes_outermost_matches_below_the_ancestor():
    spans = [span("root", 0, 20),
             span("train", 1, 11, 0),
             span("backward", 2, 5, 1),
             span("step", 6, 8, 1),
             span("backward", 6.5, 7, 3),  # inside step: not counted again
             span("backward", 12, 15, 0)]  # outside train
    assert tracing.descendant_time(spans, "train",
                                   ("backward", "step")) == 5.0


def test_span_metrics_derive_forward_and_ingest_self_time():
    spans = [span("experiments.execute_spec", 0, 10),
             span("fl.run_simulation", 1, 10, 0),
             span("algorithms.ingest", 1, 9, 1),
             span("algorithms.run_client", 2, 7, 2),
             span("fl.train_local", 3, 7, 3),
             span("autograd.op.conv2d", 3, 4, 4),
             span("autograd.backward", 4, 6, 4),
             span("nn.optim_step", 6, 6.5, 4),
             span("models.scatter_accumulate", 7, 8, 2)]
    values = layers.span_metrics(spans, {"nn.module_init": 7})
    assert values["cell.raw_wall_s"] == 10.0
    assert values["fl.train_local_fwd_s"] == pytest.approx(4 - 2 - 0.5)
    assert values["algorithms.ingest_self_s"] == pytest.approx(8 - 5)
    assert values["autograd.op_fwd_s.conv2d"] == 1.0
    assert values["autograd.op_calls.batch_norm"] == 0
    assert values["work.client_rounds"] == 1
    assert values["nn.module_init_calls"] == 7
    # execute_spec 1 + run_simulation 1 + run_client 1
    assert values["cell.unattributed_s"] == pytest.approx(3.0)
    span_kind = {m.name for m in layers.PER_LAYER if m.kind == "span"}
    assert span_kind <= set(values)


def test_trace_events_are_complete_events_in_microseconds():
    events = tracing.to_trace_events([span("root", 5, 7),
                                      span("leaf", 5.5, 6, 0)])
    assert [e["ph"] for e in events] == ["X", "X"]
    assert events[1]["ts"] == pytest.approx(0.5e6)
    assert events[1]["dur"] == pytest.approx(0.5e6)
    assert events[1]["args"]["parent"] == 0


# ----------------------------------------------------------------------
# Statistics and calibration
# ----------------------------------------------------------------------
def test_summarize_uses_the_drivers_quartile_rule():
    values = [3.1, 2.9, 3.4, 3.0, 5.0, 3.2, 3.3, 2.8]
    summary = stats.summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summary == {"median": statistics.median(values), "q1": q1,
                       "q3": q3, "min": 2.8, "max": 5.0, "n": 8}
    assert stats.iqr_share(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert stats.summarize([4.0])["q1"] == stats.summarize([4.0])["q3"] == 4.0
    with pytest.raises(ValueError):
        stats.summarize([])


def test_calibration_keeps_the_unit_and_cancels_host_speed():
    # a host running 20 % slow stretches the cell and the calibration loop
    # alike, so the calibrated value is the reference-host time
    assert stats.calibrated(3.6, 0.06, 0.05) == pytest.approx(3.0)
    assert stats.calibrated(3.0, 0.05, 0.05) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        stats.calibrated(1.0, 0.0, 0.05)


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
WALL = next(m for m in layers.END_TO_END if m.name == "cell_wall_s")
RATE = next(m for m in layers.END_TO_END if m.name == "client_rounds_per_s")


def test_verdict_bound_and_unresolved_logic():
    bound = WALL.bound
    assert compare.verdict(1.0, 1.0 + bound / 2, WALL, spread=0.01) \
        == "unchanged"
    assert compare.verdict(1.0, 1.0 + 2 * bound, WALL, spread=0.01) \
        == "regressed"
    assert compare.verdict(1.0, 1.0 - 2 * bound, WALL, spread=0.01) \
        == "improved"
    # spread wider than the bound: never "unchanged" ...
    assert compare.verdict(1.0, 1.01, WALL, spread=2 * bound) == "unresolved"
    assert compare.verdict(1.0, 0.7, WALL, spread=2 * bound) == "unresolved"
    # ... unless every repetition of B beat every repetition of A
    assert compare.verdict(1.0, 0.7, WALL, spread=2 * bound,
                           separated=True) == "improved"
    # higher-is-better metrics worsen downwards
    assert compare.verdict(10.0, 10.0 / (1 + 2 * bound), RATE, 0.0) \
        == "regressed"
    assert compare.verdict(10.0, 12.0 * (1 + bound), RATE, 0.0) == "improved"


def _result(wall: float, counter: int = 5, spread: float = 0.01) -> dict:
    def metrics(table, value):
        return {m.name: {"value": value, "unit": m.unit} for m in table}

    end_to_end = metrics(layers.END_TO_END, 1.0)
    end_to_end["cell_wall_s"]["value"] = wall
    per_layer = metrics(layers.PER_LAYER, counter)
    return {"workloads": {"conv_bn": {
        "end_to_end": {"correct": True, "problems": [],
                       "metrics": end_to_end, "series": {},
                       "spread": {m.name: spread
                                  for m in layers.END_TO_END}},
        "per_layer": {"metrics": per_layer}}}}


def test_compare_results_gates_on_bounds_and_exact_counters():
    assert compare.compare_results(_result(1.0), _result(1.02))[1]
    lines, passed = compare.compare_results(_result(1.0), _result(1.5))
    assert not passed and any("regressed" in line for line in lines)
    # an improvement passes normally but fails the A/A self-check
    assert compare.compare_results(_result(1.0), _result(0.5))[1]
    assert not compare.compare_results(_result(1.0), _result(0.5),
                                       strict=True)[1]
    lines, passed = compare.compare_results(_result(1.0, counter=5),
                                            _result(1.0, counter=6))
    assert not passed and any("differs" in line for line in lines)
    lines, _ = compare.compare_results(_result(1.0, spread=0.5),
                                       _result(1.0, spread=0.5))
    assert any("unresolved" in line for line in lines)
    assert not any("unchanged" in line for line in lines
                   if line.startswith("cell_wall_s"))


# ----------------------------------------------------------------------
# Schema: BENCHMARK.json <-> layers.py, and the contract's limits
# ----------------------------------------------------------------------
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_equals_the_schema_in_code():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == layers.benchmark_json()


def test_schema_is_within_the_contract():
    document = layers.benchmark_json()
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert 1 <= document["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    for metric in layers.PER_LAYER:
        assert set(metric.moves) <= set(bounds)
        assert set(metric.most) <= set(workloads.WORKLOADS)


def test_result_line_has_exactly_the_contract_keys(capsys):
    import bench_e2e

    metrics = {m.name: {"value": 1.5, "unit": m.unit}
               for m in layers.END_TO_END}
    bench_e2e.print_report({
        "workload": "conv_bn", "seed": 3, "spec_seed": 92, "spec_hash": "ab",
        "trace": 0, "correct": True, "attempted": 14, "failed": 0,
        "history_exact": 1, "problems": [], "metrics": metrics,
        "series": {"cell_wall_s": stats.summarize([1.0, 2.0, 3.0])}})
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last == {"correct": True, "attempted": 14, "failed": 0,
                    "metrics": metrics}


# ----------------------------------------------------------------------
# Workloads and goldens
# ----------------------------------------------------------------------
def test_every_workload_seed_has_a_golden_with_the_pinned_spec_hash():
    table = goldens.load()
    for name, seeds in workloads.SPEC_SEEDS.items():
        assert len(set(seeds)) == len(seeds)
        for spec_seed in seeds:
            golden = table[name][str(spec_seed)]
            spec = workloads.build_spec(name, spec_seed)
            assert spec.seed == spec_seed
            assert spec.content_hash() == golden["spec_hash"], (
                f"{name} seed {spec_seed}: the workload definition changed")
            # parallelism is not part of a cell's identity
            twin = workloads.build_spec(name, spec_seed, inline=True)
            assert twin.content_hash() == golden["spec_hash"]
        assert workloads.spec_seed_for(name, len(seeds) + 1) == seeds[1 % len(
            seeds)]
    assert workloads.build_spec("depthwise_pool2", 0).executor == "process"
    assert workloads.cold_spec("conv_bn", 0).resolved_scale().num_rounds == 1


def _smoke_history(scale: float = 1.0):
    from repro.fl.history import History, RoundRecord

    history = History(algorithm="a", dataset="d")
    history.append(RoundRecord(0, 2.0, 2.0, 1.5 * scale, 0.5,
                               extras={"dropped_crash": 1},
                               events=[{"t": 0.0, "type": "upload"}]))
    history.final_device_accuracies = [0.25, 0.75]
    return history


def test_golden_check_has_an_exact_and_a_structural_tier():
    history = _smoke_history()
    text = history.to_json()
    golden = {"sha256": goldens.sha256(text),
              "structure": goldens.structure(history)}
    assert goldens.check(history, text, golden) == ("exact", None)
    assert goldens.check(history, text, None)[0] == "no-golden"

    nudged = _smoke_history(scale=1.001)        # float digits moved
    assert goldens.check(nudged, nudged.to_json(), golden)[0] == "structural"
    drifted = _smoke_history(scale=1.1)         # beyond rtol 1e-2
    assert goldens.check(drifted, drifted.to_json(), golden)[0] == "mismatch"
    rescheduled = _smoke_history()
    rescheduled.records[0].sim_time_s = 3.0     # simulated clock: exact only
    assert goldens.check(rescheduled, rescheduled.to_json(),
                         golden)[0] == "mismatch"


# ----------------------------------------------------------------------
# The wrappers, on a one-round smoke-scale cell
# ----------------------------------------------------------------------
def _bindings() -> dict:
    """Identity of every attribute a tracer may rebind: the callables of
    every ``repro`` module and the members of its classes."""
    import repro.experiments  # noqa: F401 - imports every package

    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in vars(module).items():
                if not callable(value):
                    continue  # data the program itself updates (RUN_COUNT)
                seen[(name, key)] = id(value)
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        seen[(name, key, attr)] = id(member)
    return seen


def test_tracer_restores_every_binding_and_leaves_history_identical():
    from repro.constraints import ConstraintSpec
    from repro.experiments import RunSpec, execute_spec

    spec = RunSpec("sheterofl", "cifar10",
                   ConstraintSpec(constraints=("computation",)),
                   scale="smoke", scale_overrides={"num_rounds": 1}, seed=0)
    before = _bindings()
    plain = execute_spec(spec, cache=None).history.to_json()

    tracer = tracing.Tracer()
    with tracer:
        assert _bindings() != before
        traced = tracer.timed("experiments.execute_spec", execute_spec)(
            spec, cache=None).history.to_json()
    assert _bindings() == before
    assert traced == plain

    values = layers.span_metrics(tracer.spans, tracer.counts)
    assert values["work.client_rounds"] == len(tracer.dispatched) > 0
    assert values["autograd.op_calls.conv2d"] > 0
    assert values["nn.module_init_calls"] > 0
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(
        values["cell.raw_wall_s"], rel=1e-9)
    with pytest.raises(RuntimeError):
        with tracer:
            tracer.install()
    assert _bindings() == before

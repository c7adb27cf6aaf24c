"""Runtime telemetry: metrics math, tracing, logging, and the
observation-only contract.

The load-bearing test here is byte-identity: ``History.to_json()`` must be
the same bytes with telemetry on or off, across executors and worker
counts — telemetry observes runs, it never participates in them.  The
rest pins the primitives (nearest-rank percentiles, registry merge,
Chrome-trace structure, the JSON log format) and the plumbing
(session nesting, per-client wall timings, one collector per profile at
any worker count, no telemetry files next to cache entries).
"""

import json
import logging
import os
import time

import pytest

from repro.constraints import ConstraintSpec
from repro.experiments import (RunDefaults, RunSpec, execute_spec,
                               execute_specs, run_defaults)
from repro.experiments.cache import RunCache
from repro.experiments.registry import get_artifact
from repro.experiments.runner import _execute_cell
from repro.fl import history_to_dict
from repro.fl.history import History, RoundRecord
from repro.telemetry import (Histogram, JsonLogFormatter, MetricsRegistry,
                             RunTelemetry, Span, Tracer, configure_logging,
                             get_logger, percentile, report_rows,
                             reset_logging, telemetry_session,
                             validate_chrome_trace)
from repro.telemetry import runtime as telemetry_runtime
from repro.telemetry.metrics import HISTOGRAM_VALUE_CAP

SMOKE = ConstraintSpec(constraints=("computation",))


def smoke_spec(algorithm="sheterofl", seed=0, workers=None, executor=None):
    return RunSpec(algorithm=algorithm, dataset="harbox", constraints=SMOKE,
                   scale="smoke", seed=seed, workers=workers,
                   executor=executor)


@pytest.fixture(autouse=True)
def _clean_logging():
    yield
    reset_logging()


class TestPercentiles:
    def test_nearest_rank_returns_observations(self):
        values = [15.0, 20.0, 35.0, 40.0, 50.0]
        assert percentile(values, 0) == 15.0
        assert percentile(values, 30) == 20.0
        assert percentile(values, 40) == 20.0
        assert percentile(values, 50) == 35.0
        assert percentile(values, 100) == 50.0

    def test_single_value(self):
        assert percentile([7.0], 1) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError, match="0, 100"):
            percentile([1.0], 101)
        with pytest.raises(ValueError, match="0, 100"):
            percentile([1.0], -1)


class TestHistogram:
    def test_summary(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        s = h.summary()
        assert s["count"] == 100
        assert s["min"] == 1.0 and s["max"] == 100.0
        assert s["mean"] == pytest.approx(50.5)
        assert s["p50"] == 50.0
        assert s["p90"] == 90.0
        assert s["p99"] == 99.0

    def test_empty_summary(self):
        assert Histogram().summary() == {"count": 0, "sum": 0.0}


class TestMetricsRegistry:
    def test_labeled_series_are_distinct(self):
        r = MetricsRegistry()
        r.inc("drops", 2, reason="deadline")
        r.inc("drops", 1, reason="crash")
        r.inc("drops", 3, reason="deadline")
        assert r.counter_value("drops", reason="deadline") == 5
        assert r.counter_value("drops", reason="crash") == 1
        assert r.counter_total("drops") == 6

    def test_gauges(self):
        r = MetricsRegistry()
        r.set_gauge("depth", 3)
        r.set_gauge("depth", 2)
        assert r.gauge_value("depth") == 2
        r.max_gauge("peak", 3)
        r.max_gauge("peak", 1)
        assert r.gauge_value("peak") == 3

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 1)
        b.inc("n", 2)
        a.set_gauge("g", 5)
        b.set_gauge("g", 3)
        a.observe("h", 1.0)
        b.observe("h", 9.0)
        a.merge(b)
        assert a.counter_value("n") == 3
        assert a.gauge_value("g") == 5          # gauges keep the max
        assert a.histogram("h").count == 2
        assert a.histogram("h").max == 9.0

    def test_to_from_dict_round_trip(self):
        r = MetricsRegistry()
        r.inc("items", 4, kind="process")
        r.set_gauge("speedup", 12.5, policy="sync")
        r.observe("latency", 0.25)
        r.observe("latency", 0.75)
        back = MetricsRegistry.from_dict(r.to_dict())
        assert back.to_dict() == r.to_dict()
        assert back.counter_value("items", kind="process") == 4
        assert back.histogram("latency").values == [0.25, 0.75]

    def test_round_trip_keeps_totals_past_the_value_cap(self):
        r = MetricsRegistry()
        n = HISTOGRAM_VALUE_CAP + 10
        for v in range(n):
            r.observe("wait", float(v))
        back = MetricsRegistry.from_dict(json.loads(json.dumps(r.to_dict())))
        h = back.histogram("wait")
        assert (h.count, h.min, h.max) == (n, 0.0, n - 1.0)
        assert h.mean == (n - 1) / 2
        assert len(h.values) == HISTOGRAM_VALUE_CAP
        assert back.to_dict() == r.to_dict()


class TestTracer:
    def test_span_nesting_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer", round=0):
            with tracer.span("inner", client=3):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].depth == 1
        assert by_name["outer"].depth == 0
        assert by_name["outer"].duration_s >= by_name["inner"].duration_s
        assert by_name["inner"].labels == {"client": 3}

    def test_round_trip(self):
        tracer = Tracer()
        with tracer.span("work", round=1):
            pass
        back = Tracer.from_dict(tracer.to_dict())
        assert [s.to_dict() for s in back.spans] \
            == [s.to_dict() for s in tracer.spans]

    def test_absorb_shares_epoch(self):
        parent = Tracer()
        child = Tracer(epoch=parent.epoch)
        with child.span("child_work"):
            pass
        parent.absorb(child)
        assert [s.name for s in parent.spans] == ["child_work"]
        assert parent.spans[0].start_s >= 0

    def test_chrome_events_structure(self):
        tracer = Tracer()
        with tracer.span("step", client=1):
            pass
        (event,) = tracer.chrome_events(pid=1)
        assert event["ph"] == "X" and event["pid"] == 1
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert event["args"] == {"client": 1}


class TestChromeTraceValidation:
    def _trace(self, **overrides):
        event = dict({"name": "s", "ph": "X", "pid": 1, "tid": 0,
                      "ts": 1.0, "dur": 2.0}, **overrides)
        return {"traceEvents": [event]}

    def test_valid(self):
        assert validate_chrome_trace(self._trace()) == 1

    def test_metadata_events_skip_ts(self):
        trace = {"traceEvents": [{"name": "process_name", "ph": "M",
                                  "pid": 1, "tid": 0, "args": {"name": "x"}}]}
        assert validate_chrome_trace(trace) == 1

    def test_rejects_bad_payloads(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([])
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace(self._trace(ph="Z"))
        with pytest.raises(ValueError, match="invalid ts"):
            validate_chrome_trace(self._trace(ts=-1.0))
        with pytest.raises(ValueError, match="invalid dur"):
            validate_chrome_trace(self._trace(dur=None))
        with pytest.raises(ValueError, match="lacks a name"):
            validate_chrome_trace(self._trace(name=""))

    def test_session_trace_round_trips_through_json(self):
        with telemetry_session(meta={"artifact": "test"}) as session:
            with telemetry_runtime.span("alpha", round=0):
                pass
            record = RoundRecord(round_index=0, sim_time_s=10.0,
                                 round_time_s=8.0, train_loss=1.0,
                                 extras={"dispatched": 3},
                                 events=[{"t": 1.0, "type": "upload_start",
                                          "client": 2}])
            telemetry_runtime.record_round(record)
        trace = json.loads(json.dumps(session.chrome_trace()))
        count = validate_chrome_trace(trace)
        names = [e["name"] for e in trace["traceEvents"]]
        assert "alpha" in names and "round 0" in names \
            and "upload_start" in names
        assert count == len(trace["traceEvents"])
        assert trace["otherData"]["meta"] == {"artifact": "test"}


class TestJsonLogging:
    def test_json_lines(self, capsys):
        configure_logging(level="debug", json_format=True)
        get_logger("test").info("round %d done", 3, extra={"round": 3})
        line = capsys.readouterr().err.strip()
        payload = json.loads(line)
        assert payload["message"] == "round 3 done"
        assert payload["level"] == "info"
        assert payload["logger"] == "repro.test"
        assert payload["round"] == 3
        assert isinstance(payload["ts"], float)

    def test_plain_lines_are_bare_messages(self, capsys):
        configure_logging()
        get_logger("test").info("hits=4 misses=0")
        assert capsys.readouterr().err == "hits=4 misses=0\n"

    def test_level_filtering(self, capsys):
        configure_logging(level="warning")
        get_logger("test").info("invisible")
        get_logger("test").warning("visible")
        err = capsys.readouterr().err
        assert "invisible" not in err and "visible" in err

    def test_exception_serialised(self):
        formatter = JsonLogFormatter()
        try:
            raise RuntimeError("boom")
        except RuntimeError:
            record = logging.LogRecord("repro.test", logging.ERROR, "", 0,
                                       "failed", (), __import__("sys")
                                       .exc_info())
        payload = json.loads(formatter.format(record))
        assert "RuntimeError: boom" in payload["exception"]

    def test_reconfigure_is_idempotent(self):
        configure_logging()
        configure_logging(json_format=True)
        logger = get_logger()
        managed = [h for h in logger.handlers
                   if getattr(h, "_repro_managed", False)]
        assert len(managed) == 1

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging(level="verbose")


class TestRuntimeScopes:
    def test_helpers_noop_when_disabled(self):
        assert telemetry_runtime.current() is None
        telemetry_runtime.inc("x")
        telemetry_runtime.observe("y", 1.0)
        telemetry_runtime.set_gauge("z", 2.0)
        with telemetry_runtime.span("quiet"):
            pass
        assert telemetry_runtime.current() is None

    def test_session_collects(self):
        with telemetry_session() as session:
            assert telemetry_runtime.enabled()
            telemetry_runtime.inc("n", 2)
            with telemetry_runtime.span("s"):
                pass
        assert not telemetry_runtime.enabled()
        assert session.metrics.counter_value("n") == 2
        assert [s.name for s in session.tracer.spans] == ["s"]

    def test_nested_session_is_absorbed_into_the_one_it_shadowed(self):
        with telemetry_session() as outer:
            with telemetry_session(meta={"inner": True}) as inner:
                assert telemetry_runtime.current() is inner
                telemetry_runtime.inc("n")
                with telemetry_runtime.span("inner"):
                    pass
            assert telemetry_runtime.current() is outer
            assert inner.tracer.epoch == outer.tracer.epoch
        assert inner.metrics.counter_value("n") == 1
        assert outer.metrics.counter_value("n") == 1
        assert [s.name for s in outer.tracer.spans] == ["inner"]

    def test_telemetry_round_trip(self):
        with telemetry_session(meta={"k": "v"}) as session:
            telemetry_runtime.inc("c", 3, kind="x")
            telemetry_runtime.observe("h", 1.5)
            with telemetry_runtime.span("s"):
                pass
        back = RunTelemetry.from_dict(
            json.loads(json.dumps(session.to_dict())))
        assert back.to_dict() == session.to_dict()

    def test_version_gate(self):
        with pytest.raises(ValueError, match="telemetry version"):
            RunTelemetry.from_dict({"telemetry_version": 99})


class TestObservationOnly:
    """Telemetry must never change what a run computes."""

    def _history_json(self, workers=None, executor=None, telemetry=False):
        spec = smoke_spec(workers=workers, executor=executor)
        if not telemetry:
            return execute_spec(spec, cache=None).history.to_json()
        with telemetry_session(meta={"test": "byte-identity"}):
            return execute_spec(spec, cache=None).history.to_json()

    def test_histories_byte_identical_with_telemetry(self):
        reference = self._history_json()
        assert self._history_json(telemetry=True) == reference
        assert self._history_json(workers=2, executor="process",
                                  telemetry=True) == reference

    def test_content_hash_unchanged_by_session(self):
        spec = smoke_spec()
        reference = spec.content_hash()
        with telemetry_session():
            assert smoke_spec().content_hash() == reference

    def test_session_observed_the_run(self):
        with telemetry_session() as session:
            execute_spec(smoke_spec(), cache=None)
        assert session.metrics.counter_total("aggregation.rounds") > 0
        assert session.metrics.counter_total("executor.items") > 0
        names = {s.name for s in session.tracer.spans}
        assert {"execute_spec", "run_simulation", "dispatch_round",
                "aggregate", "evaluate", "client_step"} <= names
        assert session.sim_rounds, "round timeline not recorded"
        assert session.sim_rounds[0]["wall"]["clients"] > 0
        rows = report_rows(session)
        sections = {row["section"] for row in rows}
        assert {"cache", "counter", "span", "round"} <= sections


class TestClientTimings:
    def test_in_memory_but_never_serialised(self):
        result = execute_spec(smoke_spec(), cache=None)
        record = result.history.records[0]
        timings = record.extras["client_timings"]
        assert timings, "executor should report per-client wall timings"
        for timing in timings.values():
            assert timing["execute_s"] >= 0
            assert timing["total_s"] >= timing["execute_s"] >= 0
            assert timing["wait_s"] >= 0
            assert timing["retries"] == 0
        payload = history_to_dict(result.history)
        for serialised in payload["records"]:
            assert "client_timings" not in serialised["extras"]
        restored = History.from_json(result.history.to_json())
        assert all("client_timings" not in r.extras
                   for r in restored.records)

    def test_strip_leaves_clean_extras_untouched(self):
        h = History(algorithm="a", dataset="d")
        extras = {"dispatched": 3}
        h.append(RoundRecord(round_index=0, sim_time_s=1.0, round_time_s=1.0,
                             train_loss=0.5, extras=extras))
        payload = history_to_dict(h)
        # No volatile keys -> the same dict object, not a copy.
        assert payload["records"][0]["extras"] is extras


class TestNoTelemetryFiles:
    def test_a_session_with_a_cache_leaves_only_run_entries(self, tmp_path):
        """Pooled cells hand their telemetry back instead of writing it
        next to their entries, and their puts reach the session."""
        cache = RunCache(tmp_path)
        specs = [smoke_spec(), smoke_spec(algorithm="fjord")]
        with telemetry_session() as session, \
                run_defaults(RunDefaults(workers=2)):
            execute_specs(specs, cache=cache)
            execute_specs(specs, cache=cache)
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == sorted(f"{spec.content_hash()}.json" for spec in specs)
        assert session.metrics.counter_total("cache.puts") == 2
        assert session.metrics.counter_total("cache.misses") == 2
        assert session.metrics.counter_total("cache.hits") == 2


class TestSweepWorker:
    """The grid's sweep worker, called in this process: what it hands
    back, on which timeline and track, and what it leaves alone."""

    def _payload(self, epoch=None, trace_memory=False):
        return _execute_cell(smoke_spec().to_dict(), epoch,
                             trace_memory, RunDefaults())

    def test_without_a_session_it_hands_back_no_telemetry(self):
        payload = self._payload()
        assert payload["telemetry"] is None
        assert telemetry_runtime.current() is None

    def test_its_spans_sit_on_the_given_epoch_and_its_own_track(self):
        epoch = time.perf_counter() - 100.0
        shipped = RunTelemetry.from_dict(
            self._payload(epoch=epoch)["telemetry"])
        spans = shipped.tracer.spans
        assert {"execute_spec", "run_simulation", "client_step"} \
            <= {span.name for span in spans}
        assert {span.tid for span in spans} == {os.getpid()}
        assert min(span.start_s for span in spans) >= 100.0
        assert shipped.metrics.counter_total("executor.items") > 0
        assert shipped.sim_rounds

    def test_an_inherited_collector_is_neither_nested_under_nor_grown(self):
        """A fork-started worker inherits a copy of the coordinator's
        collector: the worker's session must not be absorbed into it."""
        with telemetry_session() as inherited:
            payload = self._payload(epoch=inherited.tracer.epoch)
            assert telemetry_runtime.current() is inherited
        assert inherited.tracer.spans == []
        assert inherited.metrics.to_dict() == MetricsRegistry().to_dict()
        assert inherited.sim_rounds == []
        assert payload["telemetry"]["tracer"]["spans"]

    @pytest.mark.parametrize("trace_memory", [False, True])
    def test_memory_is_traced_when_the_coordinator_traces_it(
            self, trace_memory):
        spans = RunTelemetry.from_dict(self._payload(
            epoch=time.perf_counter(),
            trace_memory=trace_memory)["telemetry"]).tracer.spans
        (top,) = [span for span in spans if span.name == "execute_spec"]
        assert (top.memory_peak_b is not None) == trace_memory
        if trace_memory:
            assert top.memory_peak_b > 0


def _partial_overlaps(events: list[dict]) -> int:
    """Pairs of spans on one trace track that overlap without nesting
    (0.01 µs of slack for the exported rounding)."""
    tracks: dict[int, list[tuple]] = {}
    for event in events:
        tracks.setdefault(event["tid"], []).append(
            (event["ts"], event["ts"] + event["dur"]))
    return sum(a[0] < b[0] < a[1] - 0.01 and b[1] > a[1] + 0.01
               for spans in tracks.values() for a in spans for b in spans)


def _parity(rows: list[dict]) -> tuple:
    """What a profile must report alike at any worker count: span counts
    (the coordinator's ``sweep_cell`` waits aside), counters, the
    simulated round timeline and the cache rows."""
    return ({row["name"]: row["count"] for row in rows
             if row["section"] == "span" and row["name"] != "sweep_cell"},
            {row["name"]: row["value"] for row in rows
             if row["section"] == "counter"},
            [(row["round"], row["sim_time_s"], row["round_time_s"])
             for row in rows if row["section"] == "round"],
            [(row["name"], row["value"]) for row in rows
             if row["section"] == "cache"])


class TestProfileVerb:
    """``repro profile`` on a two-algorithm fig4 grid: the report counts
    what the trace holds, a pooled grid reports what an inline one does,
    and profiling changes no History."""

    ARGV = ["profile", "fig4", "--scale", "smoke", "--datasets", "harbox",
            "--algorithms", "sheterofl,fjord"]
    SPECS = dict(scale="smoke", datasets=["harbox"],
                 algorithms=["sheterofl", "fjord"])

    def _profile(self, directory, capsys, cached, workers):
        from repro.__main__ import main
        trace_path = directory / "trace.json"
        argv = self.ARGV + ["--out", "json", "--workers", str(workers),
                            "--trace-out", str(trace_path)]
        argv += (["--cache-dir", str(directory / "cache")] if cached
                 else ["--no-cache"])
        assert main(argv) == 0
        return (json.loads(capsys.readouterr().out),
                json.loads(trace_path.read_text()))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cached", [True, False])
    def test_profile_fig4_is_not_empty(self, tmp_path, capsys, cached,
                                       workers):
        rows, trace = self._profile(tmp_path, capsys, cached, workers)
        specs = get_artifact("fig4").specs(**self.SPECS)
        spans = {row["name"]: row["count"] for row in rows
                 if row["section"] == "span"}
        counters = {row["name"]: row["value"] for row in rows
                    if row["section"] == "counter"}
        assert spans["execute_spec"] == spans["run_simulation"] == len(specs)
        # A work item trains a client or scores a final evaluation.
        assert spans["client_step"] + spans["evaluate_item"] \
            == counters["executor.items{kind=inline}"] > spans["client_step"]
        assert sum(row["section"] == "round" for row in rows) \
            == spans["aggregate"] \
            == sum(spec.resolved_scale().num_rounds for spec in specs)
        events = [e for e in trace["traceEvents"] if e.get("cat") == "span"]
        assert len(events) == sum(spans.values())
        assert _partial_overlaps(events) == 0
        if workers > 1:
            reference, _ = self._profile(tmp_path / "inline", capsys,
                                         cached, 1)
            assert _parity(rows) == _parity(reference)
        stats = {row["name"]: row["value"] for row in rows
                 if row["section"] == "cache"}
        if not cached:
            return  # --no-cache performs no lookups: nothing to count
        assert stats["misses"] == stats["puts"] == len(specs)
        assert stats["lookups"] == stats["hits"] + stats["misses"]
        # Observation-only: every profiled cell's History is byte-identical
        # to an unobserved run of the same spec.
        for spec in specs:
            profiled = RunCache(tmp_path / "cache").get(spec)
            assert profiled is not None
            assert profiled.history.to_json() \
                == execute_spec(spec, cache=None).history.to_json()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_peaks_at_any_worker_count(self, capsys, workers):
        """``--memory`` gives every cell's ``execute_spec`` a peak, pooled
        cells included."""
        from repro.__main__ import main
        assert main(self.ARGV + ["--out", "json", "--no-cache", "--memory",
                                 "--workers", str(workers)]) == 0
        rows = json.loads(capsys.readouterr().out)
        (top,) = [row for row in rows if row["section"] == "span"
                  and row["name"] == "execute_spec"]
        assert top["mem_peak_kb"] > 0

    def test_scale_is_an_option_only(self, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as exited:
            main(["profile", "fig4", "demo", "--scale", "smoke"])
        assert exited.value.code == 2
        assert "unrecognized arguments: demo" in capsys.readouterr().err

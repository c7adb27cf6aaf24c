"""`repro lint` + strict mode: the determinism contracts, enforced.

Two layers under test:

* the **static rule engine** (:mod:`repro.analysis`): every rule in the
  catalog fires on a seeded fixture violation and stays quiet on the
  compliant twin; suppressions silence exactly the named rule on exactly
  the covered line and go stale loudly; the real ``src/`` tree lints
  clean; the CLI verb exits non-zero on findings and emits the stable
  ``--json`` schema.
* the **strict-mode runtime sanitizers** (:mod:`repro.fl.sanitizers`):
  broadcast freezing and the global-RNG tripwire trap violations at the
  offending line, and — the headline guarantee — a ``--strict`` run
  produces a ``History.to_json()`` byte-identical to a non-strict run
  across inline/process executors.
"""

import ast
import json
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (Finding, LintReport, PACKAGE_ROOT, all_rules,
                            rule_catalog, run_lint)
from repro.analysis.engine import ModuleSource, _index_imports
from repro.analysis.findings import parse_suppressions
from repro.analysis.rules.coverage import (HashFieldCoverage,
                                           SerializationCoverage)
from repro.analysis.rules.determinism import (NoGlobalRng,
                                              NoWallclockInState,
                                              SortedIteration)
from repro.analysis.rules.hygiene import (LoggerNaming, NoBareExcept,
                                          PureWorkItems)
from repro.constraints import ConstraintSpec
from repro.experiments import (RunDefaults, RunSpec, execute_spec,
                               run_defaults)
from repro.fl import ExecutionConfig
from repro.fl.sanitizers import (StrictModeViolation, collect_arrays,
                                 freeze_arrays, frozen_arrays, rng_tripwire)


def make_module(rel: str, source: str) -> ModuleSource:
    """Parse a fixture snippet as if it lived at ``rel`` in the package."""
    source = textwrap.dedent(source)
    module = ModuleSource(path=Path(rel), rel=rel, source=source,
                          tree=ast.parse(source),
                          suppressions=parse_suppressions(source))
    _index_imports(module)
    return module


def lint(files: dict, rules=None) -> LintReport:
    modules = [make_module(rel, src) for rel, src in files.items()]
    return run_lint(list(rules) if rules is not None else all_rules(),
                    modules=modules)


def hits(report: LintReport, rule_id: str) -> list:
    return [f for f in report.findings if f.rule == rule_id]


class TestNoGlobalRng:
    def test_numpy_global_calls_flagged(self):
        report = lint({"fl/x.py": """
            import numpy as np
            np.random.seed(0)
            vals = np.random.normal(size=3)
        """}, rules=[NoGlobalRng()])
        assert len(hits(report, "no-global-rng")) == 2

    def test_numpy_random_module_alias_flagged(self):
        report = lint({"fl/x.py": """
            import numpy.random as npr
            npr.shuffle([1, 2])
        """}, rules=[NoGlobalRng()])
        assert len(hits(report, "no-global-rng")) == 1

    def test_stdlib_random_flagged(self):
        report = lint({"fl/x.py": """
            import random
            from random import shuffle
            random.random()
            shuffle([1, 2])
        """}, rules=[NoGlobalRng()])
        assert len(hits(report, "no-global-rng")) == 2

    def test_derived_generators_clean(self):
        report = lint({"fl/x.py": """
            import random
            import numpy as np
            rng = np.random.default_rng(0)
            vals = rng.normal(size=3)
            owned = random.Random(3)
            owned.shuffle([1, 2])
        """}, rules=[NoGlobalRng()])
        assert report.findings == []

    def test_unrelated_name_not_confused_with_random_module(self):
        # a local object that happens to be called ``random`` is not the
        # stdlib module; import binding decides, not the spelling.
        report = lint({"fl/x.py": """
            random = object()
            random.choice([1])
        """}, rules=[NoGlobalRng()])
        assert report.findings == []


class TestNoWallclockInState:
    def test_wallclock_reads_flagged(self):
        report = lint({"fl/x.py": """
            import time
            import datetime
            stamp = time.time()
            today = datetime.datetime.now()
        """}, rules=[NoWallclockInState()])
        assert len(hits(report, "no-wallclock-in-state")) == 2

    def test_imported_datetime_class_flagged(self):
        report = lint({"fl/x.py": """
            from datetime import datetime
            stamp = datetime.utcnow()
        """}, rules=[NoWallclockInState()])
        assert len(hits(report, "no-wallclock-in-state")) == 1

    def test_relative_clocks_clean(self):
        report = lint({"fl/x.py": """
            import time
            start = time.perf_counter()
            tick = time.monotonic()
        """}, rules=[NoWallclockInState()])
        assert report.findings == []


class TestSortedIteration:
    def test_unordered_client_loop_flagged(self):
        report = lint({"algorithms/x.py": """
            class Algo:
                def agg(self):
                    for cid in self.clients:
                        pass
        """}, rules=[SortedIteration()])
        assert len(hits(report, "sorted-iteration")) == 1

    def test_items_and_comprehensions_flagged(self):
        report = lint({"fl/x.py": """
            class Policy:
                def drain(self):
                    done = [c for c in self._in_flight]
                    for cid, state in self._participation.items():
                        pass
        """}, rules=[SortedIteration()])
        assert len(hits(report, "sorted-iteration")) == 2

    def test_sorted_wrapper_and_reductions_clean(self):
        report = lint({"algorithms/x.py": """
            class Algo:
                def agg(self):
                    for cid in sorted(self.clients):
                        pass
                    total = sum(self.clients.values())
                    count = len(self.clients)
        """}, rules=[SortedIteration()])
        assert report.findings == []


HASHED_SPEC_TEMPLATE = """
    from dataclasses import dataclass
    from typing import ClassVar

    @dataclass(frozen=True)
    class RunSpec:
        {body}
"""


def hash_fixture(body: str) -> dict:
    return {"experiments/spec.py":
            textwrap.dedent(HASHED_SPEC_TEMPLATE).format(
                body=textwrap.indent(textwrap.dedent(body), " " * 4).strip())}


class TestHashFieldCoverage:
    def test_uncovered_field_flagged(self):
        report = lint(hash_fixture("""
            algorithm: str = "fedavg"
            workers: int = 1

            def to_dict(self):
                return {"algorithm": self.algorithm}
        """), rules=[HashFieldCoverage()])
        found = hits(report, "hash-field-coverage")
        assert len(found) == 1
        assert "RunSpec.workers" in found[0].message

    def test_serialised_and_excluded_fields_clean(self):
        report = lint(hash_fixture("""
            algorithm: str = "fedavg"
            workers: int = 1
            HASH_EXCLUDED: ClassVar[frozenset[str]] = frozenset({"workers"})

            def to_dict(self):
                return {"algorithm": self.algorithm}
        """), rules=[HashFieldCoverage()])
        assert report.findings == []

    def test_non_classvar_exclusion_flagged(self):
        # a plain-annotated HASH_EXCLUDED would itself become a dataclass
        # field and perturb the very hash it claims to manage.
        report = lint(hash_fixture("""
            algorithm: str = "fedavg"
            HASH_EXCLUDED: frozenset = frozenset()

            def to_dict(self):
                return {"algorithm": self.algorithm}
        """), rules=[HashFieldCoverage()])
        found = hits(report, "hash-field-coverage")
        assert any("ClassVar" in f.message for f in found)

    def test_stale_and_lying_exclusions_flagged(self):
        report = lint(hash_fixture("""
            algorithm: str = "fedavg"
            HASH_EXCLUDED: ClassVar[frozenset[str]] = frozenset(
                {"gone", "algorithm"})

            def to_dict(self):
                return {"algorithm": self.algorithm}
        """), rules=[HashFieldCoverage()])
        messages = " | ".join(f.message for f in
                              hits(report, "hash-field-coverage"))
        assert "stale" in messages          # 'gone' is not a field
        assert "lies" in messages           # 'algorithm' is serialised

    def test_missing_to_dict_flagged(self):
        report = lint(hash_fixture("""
            algorithm: str = "fedavg"
        """), rules=[HashFieldCoverage()])
        assert any("no to_dict" in f.message
                   for f in hits(report, "hash-field-coverage"))


HISTORY_FIXTURE = """
    from dataclasses import dataclass, field

    @dataclass
    class RoundRecord:
        round_index: int = 0
        train_loss: float = 0.0

    @dataclass
    class History:
        records: list = field(default_factory=list)
"""

CODEC_TEMPLATE = """
    VOLATILE_FIELDS = {volatile}

    def history_to_dict(history):
        return {{
            "records": [{record} for r in history.records],
        }}

    def history_from_dict(payload):
        return payload["records"], {decoded}
"""


def codec_fixture(record='{"round_index": r.round_index, '
                         '"train_loss": r.train_loss}',
                  decoded='(payload.get("round_index"), '
                          'payload.get("train_loss"))',
                  volatile="{}") -> dict:
    return {"fl/history.py": HISTORY_FIXTURE,
            "fl/serialization.py": textwrap.dedent(CODEC_TEMPLATE).format(
                record=record, decoded=decoded, volatile=volatile)}


class TestSerializationCoverage:
    def test_full_round_trip_clean(self):
        report = lint(codec_fixture(), rules=[SerializationCoverage()])
        assert report.findings == []

    def test_unencoded_field_flagged(self):
        report = lint(codec_fixture(
            record='{"round_index": r.round_index}'),
            rules=[SerializationCoverage()])
        found = hits(report, "serialization-coverage")
        assert any("RoundRecord.train_loss is not encoded" in f.message
                   for f in found)

    def test_encoded_but_not_decoded_flagged(self):
        report = lint(codec_fixture(
            decoded='payload.get("round_index")'),
            rules=[SerializationCoverage()])
        found = hits(report, "serialization-coverage")
        assert any("never read back" in f.message for f in found)

    def test_volatile_declaration_silences(self):
        report = lint(codec_fixture(
            record='{"round_index": r.round_index}',
            decoded='payload.get("round_index")',
            volatile='{"RoundRecord": frozenset({"train_loss"})}'),
            rules=[SerializationCoverage()])
        assert report.findings == []

    def test_stale_volatile_entries_flagged(self):
        report = lint(codec_fixture(
            volatile='{"RoundRecord": frozenset({"nope"}),'
                     ' "Ghost": frozenset({"x"})}'),
            rules=[SerializationCoverage()])
        messages = " | ".join(f.message for f in
                              hits(report, "serialization-coverage"))
        assert "not a field" in messages
        assert "unknown payload class" in messages

    def test_volatile_but_round_tripped_flagged(self):
        report = lint(codec_fixture(
            volatile='{"RoundRecord": frozenset({"train_loss"})}'),
            rules=[SerializationCoverage()])
        assert any("round-trips it anyway" in f.message
                   for f in hits(report, "serialization-coverage"))

    def test_missing_payload_class_flagged(self):
        files = codec_fixture()
        files["fl/history.py"] = "X = 1\n"
        report = lint(files, rules=[SerializationCoverage()])
        assert any("is missing" in f.message
                   for f in hits(report, "serialization-coverage"))


class TestPureWorkItems:
    def test_direct_global_write_flagged(self):
        report = lint({"fl/executor.py": """
            CACHE = {}

            def execute_work_item(item):
                CACHE[item.key] = item
        """}, rules=[PureWorkItems()])
        assert len(hits(report, "pure-work-items")) == 1

    def test_global_statement_and_mutator_flagged(self):
        report = lint({"fl/executor.py": """
            SEEN = []
            COUNT = 0

            def execute_work_item(item):
                global COUNT
                SEEN.append(item)
        """}, rules=[PureWorkItems()])
        assert len(hits(report, "pure-work-items")) == 2

    def test_transitive_same_module_call_flagged(self):
        report = lint({"fl/executor.py": """
            TABLE = {}

            def _memoise(key):
                TABLE[key] = key

            def execute_work_item(item):
                _memoise(item.key)
        """}, rules=[PureWorkItems()])
        assert len(hits(report, "pure-work-items")) == 1

    def test_transitive_cross_module_call_flagged(self):
        report = lint({
            "fl/executor.py": """
                from ..experiments.runner import load_dataset

                def execute_work_item(item):
                    load_dataset(item.key)
            """,
            "experiments/runner.py": """
                _DATASETS = {}

                def load_dataset(key):
                    _DATASETS[key] = key
            """}, rules=[PureWorkItems()])
        found = hits(report, "pure-work-items")
        assert len(found) == 1
        assert found[0].path == "experiments/runner.py"

    def test_function_reference_argument_is_an_edge(self):
        # a bare function reference escaping as a call argument
        # (``loader=_load``) is followed like a call: the callee may
        # invoke it on the work-item path.
        report = lint({"fl/executor.py": """
            MEMO = {}

            def _load(key):
                MEMO[key] = key

            def _build(item, loader):
                return loader(item)

            def execute_work_item(item):
                return _build(item, loader=_load)
        """}, rules=[PureWorkItems()])
        assert len(hits(report, "pure-work-items")) == 1

    def test_local_state_clean(self):
        report = lint({"fl/executor.py": """
            def execute_work_item(item):
                cache = {}
                cache[item.key] = item
                seen = []
                seen.append(item)
                return cache, seen
        """}, rules=[PureWorkItems()])
        assert report.findings == []

    def test_allow_comment_suppresses(self):
        report = lint({"fl/executor.py": """
            MEMO = {}

            def execute_work_item(item):
                # repro: allow[pure-work-items] process-local memo table;
                # keyed by content digest, so any worker computes the
                # same value.
                MEMO[item.key] = item
        """}, rules=[PureWorkItems()])
        assert report.findings == []
        assert report.stale_suppressions == []
        assert len(report.suppressed) == 1


class TestLoggerNaming:
    def test_direct_getlogger_flagged(self):
        report = lint({"fl/x.py": """
            import logging
            from logging import getLogger
            a = logging.getLogger("x")
            b = getLogger(__name__)
        """}, rules=[LoggerNaming()])
        assert len(hits(report, "logger-naming")) == 2

    def test_double_prefix_flagged(self):
        report = lint({"fl/x.py": """
            from repro.telemetry.logs import get_logger
            log = get_logger("repro.fl.executor")
        """}, rules=[LoggerNaming()])
        assert any("double-prefixes" in f.message
                   for f in hits(report, "logger-naming"))

    def test_factory_usage_clean(self):
        report = lint({"fl/x.py": """
            from repro.telemetry.logs import get_logger
            log = get_logger("fl.executor")
        """}, rules=[LoggerNaming()])
        assert report.findings == []

    def test_factory_home_module_exempt(self):
        report = lint({"telemetry/logs.py": """
            import logging

            def get_logger(name):
                return logging.getLogger("repro." + name)
        """}, rules=[LoggerNaming()])
        assert report.findings == []


class TestNoBareExcept:
    def test_bare_except_flagged_everywhere(self):
        report = lint({"viz/plot.py": """
            try:
                x = 1
            except:
                pass
        """}, rules=[NoBareExcept()])
        assert len(hits(report, "no-bare-except")) == 1

    def test_swallowed_broad_except_flagged_on_hot_paths(self):
        report = lint({"fl/x.py": """
            try:
                x = 1
            except Exception:
                pass
        """}, rules=[NoBareExcept()])
        assert len(hits(report, "no-bare-except")) == 1

    def test_reraising_broad_except_clean(self):
        report = lint({"fl/x.py": """
            try:
                x = 1
            except Exception:
                raise RuntimeError("context")
        """}, rules=[NoBareExcept()])
        assert report.findings == []

    def test_swallowed_broad_except_tolerated_off_hot_paths(self):
        report = lint({"viz/plot.py": """
            try:
                x = 1
            except Exception:
                pass
        """}, rules=[NoBareExcept()])
        assert report.findings == []


class TestSuppressions:
    def test_inline_comment_silences_own_line(self):
        report = lint({"fl/x.py": """
            import time
            stamp = time.time()  # repro: allow[no-wallclock-in-state] why
        """}, rules=[NoWallclockInState()])
        assert report.ok
        assert len(report.suppressed) == 1

    def test_standalone_comment_covers_next_code_line(self):
        report = lint({"fl/x.py": """
            import time
            # repro: allow[no-wallclock-in-state] documented epoch
            stamp = time.time()
        """}, rules=[NoWallclockInState()])
        assert report.ok

    def test_multi_line_justification_chains(self):
        report = lint({"fl/x.py": """
            import time
            # repro: allow[no-wallclock-in-state] a justification long
            # enough to need a second comment line before the code.
            stamp = time.time()
        """}, rules=[NoWallclockInState()])
        assert report.ok

    def test_blank_line_breaks_the_chain(self):
        report = lint({"fl/x.py": """
            import time
            # repro: allow[no-wallclock-in-state] detached comment

            stamp = time.time()
        """}, rules=[NoWallclockInState()])
        assert not report.ok
        assert len(report.findings) == 1
        assert len(report.stale_suppressions) == 1

    def test_suppression_is_rule_specific(self):
        report = lint({"fl/x.py": """
            import time
            stamp = time.time()  # repro: allow[no-global-rng] wrong rule
        """}, rules=[NoWallclockInState(), NoGlobalRng()])
        assert len(report.findings) == 1
        assert any("suppresses nothing" in f.message
                   for f in report.stale_suppressions)

    def test_unknown_rule_id_reported(self):
        report = lint({"fl/x.py": """
            x = 1  # repro: allow[no-such-rule] typo
        """})
        assert any("unknown rule id" in f.message
                   for f in report.stale_suppressions)
        assert not report.ok

    def test_stale_allowance_fails_the_gate(self):
        report = lint({"fl/x.py": """
            # repro: allow[no-global-rng] nothing to excuse here
            x = 1
        """})
        assert not report.ok
        assert report.findings == []
        assert len(report.stale_suppressions) == 1

    def test_allow_marker_inside_string_is_inert(self):
        report = lint({"fl/x.py": """
            DOC = "# repro: allow[no-global-rng]"
            x = 1
        """})
        assert report.ok
        assert report.stale_suppressions == []


class TestEngineAndRealTree:
    def test_catalog_has_all_eight_rules(self):
        catalog = rule_catalog()
        assert set(catalog) == {
            "no-global-rng", "no-wallclock-in-state", "hash-field-coverage",
            "serialization-coverage", "sorted-iteration", "pure-work-items",
            "logger-naming", "no-bare-except"}
        assert all(catalog.values())    # every rule states what it protects

    def test_real_tree_lints_clean(self):
        report = run_lint(all_rules())
        assert report.findings == []
        assert report.stale_suppressions == []
        assert report.ok
        # the documented allowances exist and are live, not decorative.
        assert report.suppressed
        assert report.files_scanned > 50

    def test_report_schema(self):
        report = run_lint(all_rules())
        payload = report.to_dict()
        assert payload["version"] == 1
        assert payload["ok"] is True
        assert set(payload) == {"version", "ok", "files_scanned", "rules",
                                "findings", "suppressed",
                                "stale_suppressions"}
        for item in payload["suppressed"]:
            assert set(item) == {"rule", "path", "line", "col", "message"}

    def test_findings_are_sorted_and_renderable(self):
        report = lint({"fl/x.py": """
            import time
            import numpy as np
            b = time.time()
            a = np.random.rand()
        """})
        assert report.findings == sorted(report.findings)
        rendered = report.findings[0].render()
        assert rendered.startswith("fl/x.py:")
        assert "[no-" in rendered


#: one seeded violation per rule, written to a temp tree for the CLI gate.
SEEDED_VIOLATIONS = {
    "no-global-rng": {"fl/x.py": "import numpy as np\nnp.random.seed(0)\n"},
    "no-wallclock-in-state": {"fl/x.py": "import time\nt = time.time()\n"},
    "sorted-iteration": {"fl/x.py": (
        "class A:\n    def f(self):\n"
        "        for c in self.clients:\n            pass\n")},
    "hash-field-coverage": {"experiments/spec.py": (
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass RunSpec:\n    x: int = 0\n\n"
        "    def to_dict(self):\n        return {}\n")},
    "serialization-coverage": {
        "fl/history.py": textwrap.dedent(HISTORY_FIXTURE),
        "fl/serialization.py": (
            "def history_to_dict(h):\n    return {'records': []}\n\n"
            "def history_from_dict(p):\n    return p['records']\n")},
    "pure-work-items": {"fl/executor.py": (
        "CACHE = {}\n\ndef execute_work_item(item):\n"
        "    CACHE[item] = 1\n")},
    "logger-naming": {"fl/x.py": (
        "import logging\nlog = logging.getLogger('x')\n")},
    "no-bare-except": {"fl/x.py": (
        "try:\n    x = 1\nexcept:\n    pass\n")},
}


class TestCli:
    @staticmethod
    def run_cli(*argv) -> int:
        from repro.__main__ import main
        return main(list(argv))

    def test_lint_clean_on_real_tree(self, capsys):
        rc = self.run_cli("lint")
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[-1].startswith("OK: 0 finding(s)")

    def test_lint_json_schema_and_catalog(self, capsys):
        rc = self.run_cli("lint", "--json")
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["version"] == 1
        assert payload["ok"] is True
        assert set(payload["catalog"]) == set(rule_catalog())
        assert sorted(payload["rules"]) == sorted(rule_catalog())

    @pytest.mark.parametrize("rule_id", sorted(SEEDED_VIOLATIONS))
    def test_lint_fails_on_each_seeded_violation(self, rule_id, tmp_path,
                                                 capsys):
        for rel, source in SEEDED_VIOLATIONS[rule_id].items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        rc = self.run_cli("lint", str(tmp_path), "--root", str(tmp_path))
        out = capsys.readouterr().out
        assert rc == 1
        assert f"[{rule_id}]" in out

    def test_lint_json_fails_on_violation(self, tmp_path, capsys):
        bad = tmp_path / "fl" / "x.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nnp.random.seed(0)\n")
        rc = self.run_cli("lint", str(tmp_path), "--root", str(tmp_path),
                          "--json")
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "no-global-rng"


def _scribble_on_global_state(algorithm):
    real_run_client = algorithm.run_client

    def run_client(client_id, round_index, rng, broadcast=None):
        next(iter(algorithm.global_state.values()))[...] = 0.0
        return real_run_client(client_id, round_index, rng,
                               broadcast=broadcast)

    algorithm.run_client = run_client


def _draw_from_global_rng(algorithm):
    real_run_client = algorithm.run_client

    def run_client(client_id, round_index, rng, broadcast=None):
        np.random.random()    # repro: allow[no-global-rng] seeds the very
        # violation the tripwire must catch.
        return real_run_client(client_id, round_index, rng,
                               broadcast=broadcast)

    algorithm.run_client = run_client


class TestStrictModeResolution:
    """The process default is the only way strict reaches a spec-driven
    run: the runner copies it onto the run's SimulationConfig."""

    SPEC = RunSpec(algorithm="sheterofl", dataset="harbox",
                   constraints=ConstraintSpec(constraints=("computation",)),
                   scale="smoke")

    def test_process_default_trips_on_frozen_broadcast_write(self):
        with run_defaults(RunDefaults(strict=True)):
            with pytest.raises(ValueError, match="read-only"):
                execute_spec(self.SPEC, cache=None,
                             mutate=_scribble_on_global_state)
        # the default is back off: the same write goes unnoticed.
        execute_spec(self.SPEC, cache=None, mutate=_scribble_on_global_state)

    def test_process_default_trips_on_global_rng_draw(self):
        with run_defaults(RunDefaults(strict=True)):
            with pytest.raises(StrictModeViolation, match="numpy"):
                execute_spec(self.SPEC, cache=None,
                             mutate=_draw_from_global_rng)
        execute_spec(self.SPEC, cache=None, mutate=_draw_from_global_rng)

    def test_run_defaults_nest_and_restore(self):
        from repro.experiments import runner
        before = runner._DEFAULTS
        with run_defaults(RunDefaults(strict=True)) as outer:
            assert runner._DEFAULTS is outer
            with pytest.raises(RuntimeError):
                with run_defaults(RunDefaults(workers=3)) as inner:
                    assert runner._DEFAULTS is inner and not inner.strict
                    raise RuntimeError("restore must survive exceptions")
            assert runner._DEFAULTS is outer
        assert runner._DEFAULTS is before


class TestFreezeArrays:
    def test_collect_arrays_walks_nested_payloads(self):
        a, b, c = (np.zeros(2) for _ in range(3))
        payload = {"x": a, "nested": {"y": [b, (c, 1)]}, "other": "str"}
        found = list(collect_arrays(payload))
        assert [arr is original for arr, original
                in zip(found, (a, b, c))] == [True, True, True]

    def test_frozen_arrays_traps_writes_then_restores(self):
        arr = np.zeros(4)
        with frozen_arrays({"w": arr}):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        arr[0] = 1.0    # thawed on exit
        assert arr[0] == 1.0

    def test_already_frozen_arrays_stay_frozen(self):
        arr = np.zeros(4)
        arr.flags.writeable = False
        with frozen_arrays([arr]):
            pass
        assert not arr.flags.writeable    # not ours to thaw

    def test_freeze_arrays_returns_only_flipped(self):
        writeable = np.zeros(2)
        frozen = np.zeros(2)
        frozen.flags.writeable = False
        flipped = freeze_arrays([writeable, frozen])
        try:
            assert flipped == [writeable]
        finally:
            for arr in flipped:
                arr.flags.writeable = True

    def test_nesting_is_safe_for_shared_arrays(self):
        arr = np.zeros(2)
        with frozen_arrays(arr):
            with frozen_arrays(arr):    # inner call flips nothing
                pass
            with pytest.raises(ValueError):
                arr[0] = 1.0    # outer freeze still holds
        arr[0] = 1.0


class TestRngTripwire:
    def test_trips_on_numpy_global_draw(self):
        with pytest.raises(StrictModeViolation, match="numpy"):
            with rng_tripwire("test"):
                np.random.random()    # repro: allow[no-global-rng] the test
                # seeds the very violation the tripwire must catch.

    def test_trips_on_stdlib_global_draw(self):
        import random
        with pytest.raises(StrictModeViolation, match="stdlib"):
            with rng_tripwire("test"):
                random.random()    # repro: allow[no-global-rng] seeded
                # violation under test, as above.

    def test_names_the_context(self):
        with pytest.raises(StrictModeViolation, match="my-run"):
            with rng_tripwire("my-run"):
                np.random.random()    # repro: allow[no-global-rng] seeded
                # violation under test, as above.

    def test_silent_on_derived_generators(self):
        with rng_tripwire("test"):
            rng = np.random.default_rng(0)
            rng.normal(size=8)

    def test_tripwire_itself_is_invisible(self):
        # nesting tripwires must not trip each other: the state reads
        # observe without drawing.
        with rng_tripwire("outer"):
            with rng_tripwire("inner"):
                pass


SMOKE = ConstraintSpec(constraints=("computation",))


def smoke_history(workers=None, executor=None, execution=None) -> str:
    spec = RunSpec(algorithm="sheterofl", dataset="harbox",
                   constraints=SMOKE, scale="smoke", seed=0,
                   execution=execution, workers=workers, executor=executor)
    return execute_spec(spec, cache=None).history.to_json()


class TestStrictByteIdentity:
    """The acceptance bar: strict mode observes, never perturbs."""

    def test_strict_runs_byte_identical_across_executors(self):
        baseline = smoke_history(workers=1, executor="inline")
        with run_defaults(RunDefaults(strict=True)):
            # the tripwire sweep: each strict run would raise
            # StrictModeViolation if any stage touched a global RNG, and
            # ValueError if anything wrote into a frozen broadcast.
            for workers, executor in ((1, "inline"), (2, "process")):
                assert smoke_history(workers=workers,
                                     executor=executor) == baseline, \
                    f"strict {executor}x{workers} diverged"

    def test_strict_event_runtime_byte_identical(self):
        baseline = smoke_history(execution=ExecutionConfig())
        with run_defaults(RunDefaults(strict=True)):
            strict = smoke_history(execution=ExecutionConfig())
        assert strict == baseline

    def test_strict_buffered_policy_byte_identical(self):
        execution = ExecutionConfig(policy="buffered", buffer_size=3)
        baseline = smoke_history(execution=execution)
        with run_defaults(RunDefaults(strict=True)):
            strict = smoke_history(execution=execution)
        assert strict == baseline

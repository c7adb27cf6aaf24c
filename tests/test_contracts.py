"""The cache and codec contracts, checked on the live classes.

* **Hash coverage** — every field of a content-hashed spec either changes
  ``to_dict()`` (the hash input) or is named in the class's
  ``HASH_EXCLUDED``.  A field absent from :data:`CHANGED` fails until its
  hash status is decided, so a new behaviour knob can never share its old
  run-cache entry by accident.
* **Fixed keys** — the serialised form of a removed knob is read back at
  its one value and refused at any other, by name.
* **Round-trip coverage** — ``RoundRecord`` and ``History`` built with
  every field set survive :mod:`repro.fl.serialization` field for field,
  except what ``VOLATILE_FIELDS`` declares dropped; array payloads of any
  dtype, shape and layout come back bit for bit.
* **Source hygiene** — no bare ``except:``, every logger comes from
  :func:`repro.telemetry.logs.get_logger`, and no ``.data`` is rebound
  outside the tensor and the optimiser.
"""

import ast
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.constraints import ConstraintSpec
from repro.experiments import RunSpec
from repro.fl import (ExecutionConfig, History, LocalTrainConfig, RoundRecord,
                      SimulationConfig)
from repro.fl.faults import FaultSpec
from repro.fl.serialization import (VOLATILE_FIELDS, decode_payload,
                                    encode_payload, history_from_dict,
                                    history_to_dict)

#: content-hashed dataclass -> (default-built instance, field -> a value
#: away from that instance's).
CHANGED = {
    RunSpec: (RunSpec(algorithm="sheterofl", dataset="harbox"), {
        "algorithm": "fjord", "dataset": "cifar100",
        "constraints": ConstraintSpec(constraints=("memory",)),
        "scale": "smoke", "scale_overrides": {"num_rounds": 3},
        "execution": ExecutionConfig(), "partition_scheme": "dirichlet",
        "alpha": 0.1, "num_clients": 7, "seed": 3, "tag": "ablation",
        "workers": 4, "executor": "process"}),
    ConstraintSpec: (ConstraintSpec(), {
        "constraints": ("memory", "communication"),
        "deadline_quantile": 0.5, "comm_quantile": 0.6,
        "round_deadline_s": 12.0, "comm_budget_s": 3.0,
        "tier_factors": {"16gb_gpu": 1.0}, "memory_absolute": True,
        "memory_batch_size": 16, "memory_headroom": 0.5, "local_epochs": 2,
        "availability": "markov", "availability_kwargs": {"p_off": 0.2},
        "faults": {"crash_prob": 0.1}}),
    ExecutionConfig: (ExecutionConfig(), {
        "policy": "buffered", "availability": "diurnal",
        "availability_kwargs": {"period": 4}, "deadline_s": 30.0,
        "over_select": 0.25, "buffer_size": 2, "max_concurrency": 5,
        "faults": FaultSpec(crash_prob=0.1)}),
    FaultSpec: (FaultSpec(), {
        "crash_prob": 0.1, "straggler_prob": 0.2, "straggler_factor": 2.0,
        "corrupt_prob": 0.3, "corrupt_mode": "inf",
        "corrupt_factor": 10.0}),
}


#: one case per (class, field), so a new field is a new failing case.
FIELDS = [(cls, f.name) for cls in CHANGED for f in dataclasses.fields(cls)]


class TestHashCoverage:
    @pytest.mark.parametrize("cls", list(CHANGED), ids=lambda c: c.__name__)
    def test_table_names_only_real_fields(self, cls):
        _, changed = CHANGED[cls]
        excluded = getattr(cls, "HASH_EXCLUDED", frozenset())
        names = {f.name for f in dataclasses.fields(cls)}
        assert excluded <= names, f"stale HASH_EXCLUDED: {excluded - names}"
        assert set(changed) <= names, f"stale rows: {set(changed) - names}"

    @pytest.mark.parametrize("cls,name", FIELDS,
                             ids=[f"{c.__name__}.{n}" for c, n in FIELDS])
    def test_a_field_moves_the_hash_unless_excluded(self, cls, name):
        base, changed = CHANGED[cls]
        excluded = getattr(cls, "HASH_EXCLUDED", frozenset())
        assert name in changed, f"{cls.__name__}.{name}: decide its hash status"
        variant = dataclasses.replace(base, **{name: changed[name]})
        assert getattr(variant, name) != getattr(base, name), name
        moved = variant.to_dict() != base.to_dict()
        assert moved == (name not in excluded), (
            f"{cls.__name__}.{name} {'is in' if moved else 'is not in'} "
            f"to_dict but {'' if name in excluded else 'not '}in "
            f"HASH_EXCLUDED")


class TestFloatFieldsAreFinite:
    """Every float knob of a config rejects NaN by name; ±inf too, unless
    the allowlist states what an infinite value means there."""

    BASES = {cls: base for cls, (base, _) in CHANGED.items()}
    BASES.update({LocalTrainConfig: LocalTrainConfig(),
                  SimulationConfig: SimulationConfig()})
    #: (class, field) -> what +inf means there.
    INF_ALLOWED = {
        (ExecutionConfig, "deadline_s"): "no deadline: wait for the straggler",
    }
    CASES = [(cls, f.name) for cls in BASES for f in dataclasses.fields(cls)
             if "float" in str(f.type)]

    @pytest.mark.parametrize("cls,name", CASES,
                             ids=[f"{c.__name__}.{n}" for c, n in CASES])
    def test_rejects_nonfinite(self, cls, name):
        base = self.BASES[cls]
        for value in (math.nan, math.inf, -math.inf):
            if value == math.inf and (cls, name) in self.INF_ALLOWED:
                assert getattr(dataclasses.replace(base, **{name: value}),
                               name) == math.inf
                continue
            with pytest.raises(ValueError, match=name):
                dataclasses.replace(base, **{name: value})

    def test_allowlist_names_real_float_fields(self):
        assert set(self.INF_ALLOWED) <= set(self.CASES)


#: class -> (the keys its ``to_dict`` emits at one fixed value, with that
#: value; the keys of knobs removed without one).
FIXED = {
    ExecutionConfig: ({"staleness_exponent": 0.5, "availability_seed": None,
                       "record_events": True}, ("quorum", "norm_bound")),
    FaultSpec: ({"seed": None}, ()),
}
KEYS = [(cls, name) for cls, (fixed, removed) in FIXED.items()
        for name in [*fixed, *removed]]


class TestFixedKeys:
    @pytest.mark.parametrize("cls", list(FIXED), ids=lambda c: c.__name__)
    def test_emitted_at_their_value_and_read_back(self, cls):
        fixed, removed = FIXED[cls]
        names = {f.name for f in dataclasses.fields(cls)}
        assert names.isdisjoint([*fixed, *removed])
        base = CHANGED[cls][0]
        payload = json.loads(json.dumps(base.to_dict()))
        assert {k: payload[k] for k in fixed} == fixed
        assert not set(removed) & set(payload)
        assert cls.from_dict(payload) == base

    @pytest.mark.parametrize("cls,name", KEYS,
                             ids=[f"{c.__name__}.{n}" for c, n in KEYS])
    def test_any_other_value_is_refused_by_name(self, cls, name):
        fixed, _ = FIXED[cls]
        payload = CHANGED[cls][0].to_dict()
        for value in (1.0, 7, False, "x"):
            if name in fixed and value == fixed[name]:
                continue
            with pytest.raises(ValueError, match=f"{cls.__name__}.{name}"):
                cls.from_dict({**payload, name: value})
        if name not in fixed:
            with pytest.raises(ValueError, match=name):
                cls.from_dict({**payload, name: None})


def _every_field_set(cls, **values):
    """``cls(**values)``, asserting that ``values`` names every field and
    sets each one that has a default away from it."""
    fields = dataclasses.fields(cls)
    assert set(values) == {f.name for f in fields}, (
        f"give {cls.__name__} field(s) "
        f"{sorted({f.name for f in fields} - set(values))} a non-default "
        f"value here")
    for f in fields:
        if f.default is not dataclasses.MISSING:
            assert values[f.name] != f.default, f.name
        elif f.default_factory is not dataclasses.MISSING:
            assert values[f.name] != f.default_factory(), f.name
    return cls(**values)


def same(a, b) -> bool:
    """Deep equality that tells a tuple from a list and compares arrays by
    dtype, shape and bytes (so NaNs and signed zeros count)."""
    if isinstance(a, np.ndarray):
        return (type(b) is np.ndarray and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def _assert_round_trip(original, restored):
    name = type(original).__name__
    for f in dataclasses.fields(original):
        if f.name not in VOLATILE_FIELDS.get(name, ()):
            assert same(getattr(restored, f.name),
                        getattr(original, f.name)), f"{name}.{f.name}"


class TestRoundTripCoverage:
    def test_volatile_fields_name_real_fields(self):
        classes = {cls.__name__: cls for cls in (RoundRecord, History)}
        for name, dropped in VOLATILE_FIELDS.items():
            assert set(dropped) <= {
                f.name for f in dataclasses.fields(classes[name])}, name

    def test_history_and_records(self):
        record = _every_field_set(
            RoundRecord, round_index=3, sim_time_s=12.5, round_time_s=4.25,
            train_loss=0.75, global_accuracy=0.5,
            extras={"dispatched": 4, "dropped_deadline": 1},
            events=[{"t": 1.5, "type": "arrive", "client": 2}])
        history = _every_field_set(
            History, algorithm="fjord", dataset="harbox", records=[record],
            final_device_accuracies=[0.25, 0.5])
        restored = history_from_dict(json.loads(json.dumps(
            history_to_dict(history))))
        _assert_round_trip(history, restored)
        _assert_round_trip(record, restored.records[0])


_SPECIALS = [np.nan, np.inf, -np.inf, -0.0]


@st.composite
def arrays(draw):
    """float32 / float64 / int64 arrays that are 0-d, empty or not, with
    NaN and ±inf among the floats, some of them non-contiguous views."""
    dtype = draw(st.sampled_from([np.float32, np.float64, np.int64]))
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    array = np.array(rng.standard_normal(shape) * 100, dtype=dtype)
    if array.dtype.kind == "f" and array.size:
        for value in draw(st.lists(st.sampled_from(_SPECIALS), max_size=3)):
            array[rng.random(shape) < 0.3] = value
    if draw(st.booleans()) and array.ndim:
        array = array[..., ::2] if draw(st.booleans()) else array.T
    return array


_LEAVES = st.one_of(arrays(), st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=False), st.text(max_size=4))
payloads = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=3),
    st.lists(children, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=8)


class TestPayloadRoundTrip:
    @given(payload=payloads)
    @settings(max_examples=200, deadline=None)
    def test_encode_decode(self, payload):
        wire = json.loads(json.dumps(encode_payload(payload)))
        assert same(decode_payload(wire), payload)


def test_no_bare_except_and_loggers_only_from_the_factory():
    """Every handler names what it catches; every logger comes from
    ``telemetry.logs.get_logger``, so one config governs ``repro.*``."""
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        source = path.read_text()
        bare = [node.lineno for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ExceptHandler) and node.type is None]
        assert not bare, f"{rel}:{bare}: bare except"
        if rel != "telemetry/logs.py":
            assert "getLogger(" not in source, f"{rel}: use get_logger"


#: the modules allowed to bind ``<tensor>.data``: the tensor itself, and the
#: module system that packs state into views of one flat buffer.
DATA_REBINDERS = {"autograd/tensor.py", "nn/module.py"}


def _assigned_attributes(target):
    """Attribute names a (possibly tuple / starred) assignment target binds."""
    if isinstance(target, ast.Attribute):
        yield target.attr
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _assigned_attributes(element)
    elif isinstance(target, ast.Starred):
        yield from _assigned_attributes(target.value)


def test_no_stray_data_rebinds():
    """A ``param.data = ...`` rebind would silently detach a parameter from
    its model's flat state buffer; writes go through ``param.data[...] =``."""
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in DATA_REBINDERS:
            continue
        rebinds = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, (ast.Assign, ast.AnnAssign))
                   for target in (node.targets if isinstance(node, ast.Assign)
                                  else [node.target])
                   if "data" in _assigned_attributes(target)]
        assert not rebinds, f"{rel}:{rebinds}: .data rebind"

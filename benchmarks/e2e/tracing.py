"""In-memory span tracing installed from outside the program.

The ledger's per-layer numbers come from wrapping the public functions of
each ``repro`` package *from the benchmark's own files*: nothing under
``src/`` is edited.  A wrapper is installed by rebinding the attribute each
caller resolves — every ``repro.*`` module global that is the target
function (``train_local`` is imported by name into ``algorithms/*``), and
every class in a hierarchy that defines the target method (``run_client`` /
``ingest`` are overridden in ``fedproto`` / ``fedet``) — and :meth:`Tracer.
uninstall` puts every binding back.

Spans are ``[name, start, end, parent]`` records kept in a list and written
out once, after the measurement.  Self time is a span's duration minus the
union of its children's intervals.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

__all__ = ["Tracer", "self_times", "totals", "descendant_time",
           "to_trace_events", "FUNCTION_TARGETS", "METHOD_TARGETS",
           "COUNT_TARGETS", "NAMED_OPS"]

NAME, START, END, PARENT = 0, 1, 2, 3

#: autograd ops reported under their own name; every other public op of
#: ``repro.autograd`` is reported as ``other``.
NAMED_OPS = ("conv2d", "batch_norm", "linear", "attention", "layer_norm",
             "embedding", "cross_entropy")

#: names in ``repro.autograd.__all__`` that are not tape-building ops.
_NOT_OPS = {"Tensor", "as_tensor", "is_grad_enabled", "no_grad",
            "check_gradients", "numerical_gradient", "profile",
            "ProfileReport", "plan"}

#: ``span name -> (module, function)``: module-level functions, rebound in
#: every ``repro.*`` module that imported them by name.
FUNCTION_TARGETS = {
    "experiments.prepare_scenario":
        ("repro.experiments.runner", "prepare_scenario"),
    "data.load_dataset": ("repro.data.registry", "load_dataset"),
    "constraints.build_scenario":
        ("repro.constraints.scenario", "build_scenario"),
    "fl.run_simulation": ("repro.fl.simulation", "run_simulation"),
    "fl.validate_update": ("repro.fl.aggregation", "validate_update"),
    "fl.train_local": ("repro.fl.client", "train_local"),
    "fl.evaluate": ("repro.fl.evaluate", "accuracy"),
    "models.width_index_maps": ("repro.models.slicing", "width_index_maps"),
    "models.extract_substate": ("repro.models.slicing", "extract_substate"),
    "models.scatter_accumulate":
        ("repro.models.slicing", "scatter_accumulate"),
    "models.finalize_mean": ("repro.models.slicing", "finalize_mean"),
}

#: ``span name -> (module, class, methods)``: wrapped on the class and on
#: every subclass that overrides the method.
METHOD_TARGETS = {
    "algorithms.run_client":
        ("repro.algorithms.base", "MHFLAlgorithm", ("run_client",)),
    "algorithms.ingest":
        ("repro.algorithms.base", "MHFLAlgorithm", ("ingest",)),
    "algorithms.build_client_model":
        ("repro.algorithms.base", "MHFLAlgorithm", ("build_client_model",)),
    "fl.executor.pack_broadcast":
        ("repro.algorithms.base", "MHFLAlgorithm",
         ("pack_round_broadcast", "pack_client_broadcast")),
    "models.variant": ("repro.models.base", "SliceableModel", ("variant",)),
    "nn.load_state_dict": ("repro.nn.module", "Module", ("load_state_dict",)),
    "nn.state_dict": ("repro.nn.module", "Module", ("state_dict",)),
    "nn.optim_step": ("repro.nn.optim", "Optimizer", ("step",)),
    "autograd.backward": ("repro.autograd.tensor", "Tensor", ("backward",)),
}

#: ``counter name -> (module, class, method)``: counted, not timed (the
#: call is too short and too frequent for a span to be worth its cost).
COUNT_TARGETS = {
    "nn.module_init": ("repro.nn.module", "Module", "__init__"),
}


def _subclasses(cls):
    seen, stack = [], [cls]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.append(current)
        stack.extend(current.__subclasses__())
    return seen


class Tracer:
    """Span recorder plus the bindings it replaced."""

    def __init__(self):
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: ``(client_id, version)`` of every ``run_client`` call, in order.
        self.dispatched: list[tuple[int, int]] = []
        self._stack: list[int] = []
        #: ``(owner, attribute, original)`` for :meth:`uninstall`.
        self._replaced: list[tuple] = []

    # -- recording ------------------------------------------------------
    def timed(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = clock()

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped so each call bumps ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------
    def _rebind(self, owner, attribute: str, replacement) -> None:
        self._replaced.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def wrap_function(self, name: str, module_name: str, attribute: str,
                      wrap=None) -> None:
        """Rebind ``module.attribute`` in every ``repro`` module that holds
        it; ``wrap(name, fn)`` builds the replacement (default: a span)."""
        original = getattr(sys.modules[module_name], attribute)
        wrapper = (wrap or self.timed)(name, original)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, key, wrapper)

    def wrap_method(self, name: str, module_name: str, class_name: str,
                    method: str, wrap) -> None:
        """Rebind ``method`` on the class and on every subclass that
        overrides it."""
        base = getattr(sys.modules[module_name], class_name)
        for cls in _subclasses(base):
            if method in vars(cls):
                self._rebind(cls, method, wrap(name, vars(cls)[method]))

    def record_dispatches(self) -> None:
        """Wrap ``run_client`` so each call appends its ``(client_id,
        version)`` to :attr:`dispatched` (no span; see :meth:`install`)."""
        import repro.algorithms  # noqa: F401 - defines every subclass

        dispatched = self.dispatched

        def recording(_name, fn):
            @functools.wraps(fn)
            def wrapper(algorithm, client_id, version, *args, **kwargs):
                dispatched.append((int(client_id), int(version)))
                return fn(algorithm, client_id, version, *args, **kwargs)
            return wrapper

        self.wrap_method("dispatch", "repro.algorithms.base",
                          "MHFLAlgorithm", "run_client", recording)

    def install(self) -> None:
        """Wrap every target; :mod:`repro` must already be imported."""
        if self._replaced:
            raise RuntimeError("tracer is already installed")
        import repro.autograd as ag
        import repro.experiments  # noqa: F401 - imports every package

        self.record_dispatches()
        for name, (module_name, attribute) in FUNCTION_TARGETS.items():
            self.wrap_function(name, module_name, attribute)
        for op in ag.__all__:
            if op in _NOT_OPS:
                continue
            label = op if op in NAMED_OPS else "other"
            origin = getattr(ag, op).__module__
            self.wrap_function(f"autograd.op.{label}", origin, op)
        for name, (module_name, class_name, methods) in METHOD_TARGETS.items():
            for method in methods:
                self.wrap_method(name, module_name, class_name, method,
                                  self.timed)
        for name, (module_name, class_name, method) in COUNT_TARGETS.items():
            self.wrap_method(name, module_name, class_name, method,
                              self.counted)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced (idempotent)."""
        while self._replaced:
            owner, attribute, original = self._replaced.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# Span arithmetic (pure functions over ``[name, start, end, parent]`` rows)
# ----------------------------------------------------------------------

def _union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    covered, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the union of its children's
    intervals (each clipped to the parent's own interval)."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            start = max(span[START], parent[START])
            end = min(span[END], parent[END])
            if end > start:
                children[span[PARENT]].append((start, end))
    return [span[END] - span[START] - _union_length(children.get(index, ()))
            for index, span in enumerate(spans)]


def _has_ancestor(spans, index: int, names) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def totals(spans) -> dict[str, dict]:
    """Per-name ``calls``, ``self_s`` (sum of self times), and — over the
    spans with no same-named ancestor, so recursion and ``super()`` chains
    are not counted twice — ``outer_calls`` and ``total_s`` (sum of
    durations)."""
    own = self_times(spans)
    result: dict[str, dict] = {}
    for index, span in enumerate(spans):
        entry = result.setdefault(span[NAME], {"calls": 0, "outer_calls": 0,
                                               "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[index]
        if not _has_ancestor(spans, index, (span[NAME],)):
            entry["outer_calls"] += 1
            entry["total_s"] += span[END] - span[START]
    return result


def descendant_time(spans, ancestor: str, names) -> float:
    """Time spent in spans called one of ``names`` somewhere below a span
    called ``ancestor`` (outermost matching descendants only)."""
    names = set(names)
    total = 0.0
    for index, span in enumerate(spans):
        if (span[NAME] in names and _has_ancestor(spans, index, (ancestor,))
                and not _has_ancestor(spans, index, names)):
            total += span[END] - span[START]
    return total


def to_trace_events(spans, origin: float | None = None) -> list[dict]:
    """Chrome/Perfetto trace-event form: complete ``X`` events in
    microseconds."""
    if origin is None:
        origin = spans[0][START] if spans else 0.0
    return [{"name": span[NAME], "ph": "X", "pid": 0, "tid": 0,
             "ts": (span[START] - origin) * 1e6,
             "dur": (span[END] - span[START]) * 1e6,
             "args": {"id": index, "parent": span[PARENT]}}
            for index, span in enumerate(spans)]


def write_trace(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": to_trace_events(spans),
                   "displayTimeUnit": "ms"}, handle)

"""Pluggable client-work executors: inline and process pool.

The simulation layer never trains a client directly any more; it packages
each local round as a :class:`ClientWorkItem` — a *pure, picklable* job —
and hands it to an :class:`Executor`.  Purity means the item fully
determines the result:

* the **downlink state** is an explicit ``broadcast`` payload (packed by
  :meth:`~repro.algorithms.base.MHFLAlgorithm.pack_broadcast`), never a
  read of live coordinator state that could advance mid-flight;
* **randomness** is a seed triple ``(run_seed, round, client_id)``
  (:mod:`repro.fl.seeding`), never a shared generator whose draws depend
  on dispatch order;
* the **scenario** (dataset, models, clients) is not in the item at all:
  an executor serves exactly one scenario, and a pool hands each worker
  the run's spec payload once, from which it rebuilds an identical
  replica.

Two executors implement one contract:

* :class:`InlineExecutor` — eager, in-place, zero-copy (``broadcast=None``
  reads live state); bit-for-bit the pre-executor sequential semantics and
  the reference the pool must match;
* :class:`ProcessExecutor` — process pool; each worker rebuilds the
  scenario from the spec payload on its first item and keeps it.  Client
  steps are Python-bound, so separate interpreters are what buys a
  speedup; the price is pickling broadcasts and updates.

Because items are pure and ingestion happens on the coordinator in
dispatch order, **results are identical for any executor and any worker
count** — the contract ``tests/test_parallel_exec.py`` pins byte-for-byte.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from dataclasses import dataclass

from ..telemetry import runtime as telemetry
from ..telemetry.logs import get_logger
from .seeding import client_rng

_log = get_logger("executor")

__all__ = ["ClientWorkItem", "ClientResult",
           "execute_work_item", "Executor", "InlineExecutor",
           "ProcessExecutor", "EXECUTOR_KINDS",
           "make_executor", "resolve_executor_kind", "ExecutorError",
           "TransientExecutorError", "failure_is_transient",
           "DEFAULT_RETRIES"]


class ExecutorError(RuntimeError):
    """A work item could not be executed (e.g. no scenario to rebuild).

    Permanent by default: retrying the same pure item would fail the same
    way.  Raise :class:`TransientExecutorError` for failures where a retry
    can plausibly succeed."""


class TransientExecutorError(ExecutorError):
    """An execution failure worth retrying (flaky transport, lost worker)."""


#: failure classes a bounded retry may recover from: a broken pool (worker
#: process died — the pool gets rebuilt), a transport timeout and torn IPC
#: (a dying process closes its pipe mid-read).
#: Everything else — and every plain :class:`ExecutorError` — is permanent:
#: work items are pure, so a deterministic exception would simply recur.
TRANSIENT_EXCEPTIONS = (TransientExecutorError, BrokenExecutor,
                        TimeoutError, ConnectionError, EOFError)

#: bounded-retry budget per work item for pool executors.
DEFAULT_RETRIES = 2


def failure_is_transient(error: BaseException) -> bool:
    """Transient-vs-permanent classification for executor failures."""
    return isinstance(error, TRANSIENT_EXCEPTIONS)


# ----------------------------------------------------------------------
# Work items
# ----------------------------------------------------------------------
@dataclass
class ClientWorkItem:
    """One client's local round as a self-contained, picklable job."""

    client_id: int
    #: global model version (round index) the client trains from.
    version: int
    #: the run seed; the worker derives its generator from
    #: ``(run_seed, version, client_id)``.
    run_seed: int
    #: downlink payload from ``pack_broadcast`` (``None`` = read live
    #: coordinator state; only the inline executor may do that).
    broadcast: dict | None = None
    #: repeat-dispatch counter of this client at this version (buffered
    #: policy only); part of the seed derivation so a re-dispatched client
    #: trains a fresh draw, not a replay.
    dispatch_index: int = 0


@dataclass
class ClientResult:
    """What one executed work item sends back to the coordinator."""

    client_id: int
    update: object  # ClientUpdate; typed loosely to keep pickling flat
    #: persistent per-client state (FedProto/Fed-ET personal models) the
    #: coordinator must absorb via ``apply_client_state``.
    client_state: dict | None = None
    #: wall-clock accounting for this item (``execute_s`` measured at the
    #: worker, ``wait_s``/``total_s``/``retries`` filled in by the
    #: coordinator's future wrapper).  Picklable, so process-pool workers'
    #: measurements ride back with the result; never serialised into a
    #: History (see ``VOLATILE_EXTRA_KEYS`` in :mod:`repro.fl.serialization`).
    timing: dict | None = None


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
#: this pool worker's scenario: the run's spec payload, installed once by
#: the pool initializer, and the replica built from it on the first item
#: (so a build error surfaces as that item's exception, not a broken pool).
_worker_spec: dict | None = None
_worker_replica = None


def _install_worker_spec(payload: dict | None) -> None:
    """Pool initializer: give this worker the one scenario it serves."""
    global _worker_spec
    _worker_spec = payload


def _worker_algorithm():
    """This worker's algorithm replica (built on the first item)."""
    global _worker_replica
    if _worker_replica is None:
        if _worker_spec is None:
            raise ExecutorError(
                "no rebuildable scenario in this process; runs not built "
                "from a RunSpec can only use the inline executor")
        from ..experiments.runner import build_worker_scenario
        _worker_replica = build_worker_scenario(_worker_spec).algorithm
    return _worker_replica


def execute_work_item(item: ClientWorkItem, algorithm=None) -> ClientResult:
    """Run one client's local round; the free function every executor calls.

    ``algorithm`` injects the coordinator's live object (the inline
    executor); when omitted it is this pool worker's replica of the
    scenario its initializer installed.  Either way the result is a pure
    function of the item: state comes from ``item.broadcast``
    (or, inline-only, live state that is guaranteed quiescent during the
    batch) and randomness from the derived seed.
    """
    if algorithm is None:
        algorithm = _worker_algorithm()
    rng = client_rng(item.run_seed, item.version, item.client_id,
                     item.dispatch_index)
    start = time.perf_counter()
    with telemetry.span("client_step", client=int(item.client_id),
                        version=int(item.version)):
        update = algorithm.run_client(item.client_id, item.version, rng,
                                      broadcast=item.broadcast)
    execute_s = time.perf_counter() - start
    return ClientResult(client_id=int(item.client_id), update=update,
                        client_state=algorithm.pack_client_state(
                            item.client_id),
                        timing={"execute_s": execute_s})


def _finalize_timing(result: ClientResult, total_s: float,
                     retries: int) -> None:
    """Complete a result's wall-clock record on the coordinator side:
    total submit-to-result time, the queue-wait remainder (total minus
    worker-measured execution — includes pool queueing and IPC), and how
    many transparent retries the item survived."""
    timing = result.timing if result.timing is not None else {}
    execute_s = timing.get("execute_s", 0.0)
    timing["total_s"] = total_s
    timing["wait_s"] = max(total_s - execute_s, 0.0)
    timing["retries"] = int(retries)
    result.timing = timing


def make_work_item(algorithm, client_id: int, version: int, run_seed: int,
                   needs_broadcast: bool,
                   shared_broadcast: dict | None = None,
                   dispatch_index: int = 0) -> ClientWorkItem:
    """Package one client's round for the given transport requirements.

    ``shared_broadcast`` is a round-level snapshot from
    ``pack_round_broadcast`` that synchronous dispatchers build once and
    share across the batch (the arrays are read-only in workers), so a
    round of N clients copies the global state once, not N times; only
    the small per-client part is packed here.  Without it the full
    per-client ``pack_broadcast`` is used (the buffered policy's case —
    each dispatch snapshots a different server version).
    """
    if not needs_broadcast:
        broadcast = None
    elif shared_broadcast is not None:
        broadcast = {**shared_broadcast,
                     **algorithm.pack_client_broadcast(client_id, version)}
    else:
        broadcast = algorithm.pack_broadcast(client_id, version)
    return ClientWorkItem(
        client_id=int(client_id), version=int(version),
        run_seed=int(run_seed), broadcast=broadcast,
        dispatch_index=int(dispatch_index))


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class _Immediate:
    """Resolved future: the inline executor's submit() return value."""

    __slots__ = ("_result",)

    def __init__(self, result: ClientResult):
        self._result = result

    def result(self) -> ClientResult:
        return self._result


class Executor:
    """Executor contract: ``submit`` one item, or ``run_batch`` many.

    ``needs_broadcast`` tells dispatchers whether items must carry a state
    snapshot (the pool) or may read live coordinator state (inline only —
    it executes eagerly, so the state is quiescent).
    """

    kind = "base"
    needs_broadcast = True

    def __init__(self, workers: int = 1):
        self.workers = max(1, int(workers))

    def submit(self, item: ClientWorkItem):
        raise NotImplementedError

    def run_batch(self, items) -> list[ClientResult]:
        """Execute items concurrently; results come back in *item order*
        (never completion order — aggregation order is part of the
        result)."""
        futures = [self.submit(item) for item in items]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Release pool resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InlineExecutor(Executor):
    """Eager single-process execution — the reference semantics."""

    kind = "inline"
    needs_broadcast = False

    def __init__(self, algorithm=None, workers: int = 1):
        super().__init__(workers=1)
        self.algorithm = algorithm

    def submit(self, item: ClientWorkItem):
        telemetry.inc("executor.items", kind=self.kind)
        result = execute_work_item(item, self.algorithm)
        # Eager execution: no queue wait, no retries; total == execute.
        _finalize_timing(result, result.timing["execute_s"], retries=0)
        return _Immediate(result)


class _ResilientFuture:
    """A pool future with bounded, deterministic retry.

    ``result()`` transparently re-executes the item on transient failures
    (see :data:`TRANSIENT_EXCEPTIONS`), up to the executor's ``retries``
    times.  Work items are pure, so a re-execution is byte-identical to
    what the lost attempt would have produced — hardening is invisible in
    results, it only trades wall clock for survival.  Permanent failures
    (and exhausted budgets) propagate unchanged.
    """

    __slots__ = ("_executor", "_item", "_future", "_generation", "_attempts",
                 "_submitted")

    def __init__(self, executor: "ProcessExecutor", item: ClientWorkItem,
                 future, generation: int):
        self._executor = executor
        self._item = item
        self._future = future
        self._generation = generation
        self._attempts = 0
        self._submitted = time.perf_counter()

    def result(self) -> ClientResult:
        while True:
            try:
                result = self._future.result()
                _finalize_timing(result,
                                 time.perf_counter() - self._submitted,
                                 self._attempts)
                return result
            except BaseException as error:  # noqa: BLE001 - classified below
                if (self._attempts >= self._executor.retries
                        or not failure_is_transient(error)):
                    raise
                self._attempts += 1
                telemetry.inc("executor.retries", kind=self._executor.kind)
                _log.warning(
                    "retrying client %s (attempt %d/%d) after %s",
                    self._item.client_id, self._attempts,
                    self._executor.retries, type(error).__name__)
                self._future.cancel()
                self._future, self._generation = self._executor._recover(
                    self._item, self._generation, error)


class ProcessExecutor(Executor):
    """Process pool serving one scenario: the pool initializer hands each
    worker ``algorithm.spec_payload`` once, and the worker rebuilds its
    replica from it on its first item.

    The pool is rebuildable and its futures retry.  ``_recover`` is the
    crash path: when the pool itself broke (a worker process died taking
    the pool down), it swaps in a fresh pool — exactly once per breakage,
    guarded by a generation counter so concurrent failed futures don't
    rebuild N times — and re-dispatches the caller's item; in-flight items
    each re-dispatch themselves the same way when their own ``result()``
    calls observe the breakage; a rebuilt pool runs the same initializer.
    ``_build_pool``/``_submit_raw`` are the seam the retry tests substitute
    a scripted pool through."""

    kind = "process"
    retries = DEFAULT_RETRIES

    def __init__(self, algorithm=None, workers: int = 2):
        self.spec_payload = getattr(algorithm, "spec_payload", None)
        if algorithm is not None and self.spec_payload is None:
            raise ExecutorError(
                "process executor needs a rebuildable scenario; run this "
                "simulation through a RunSpec (experiments.runner) or leave "
                "executor='auto', which runs spec-less scenarios inline")
        super().__init__(workers=workers)
        self._lock = threading.Lock()
        self._generation = 0
        self._pool = self._build_pool()

    def _build_pool(self):
        return _ProcessPool(max_workers=self.workers,
                            initializer=_install_worker_spec,
                            initargs=(self.spec_payload,))

    def _submit_raw(self, item: ClientWorkItem):
        return self._pool.submit(execute_work_item, item)

    def submit(self, item: ClientWorkItem):
        telemetry.inc("executor.items", kind=self.kind)
        with self._lock:
            return _ResilientFuture(self, item, self._submit_raw(item),
                                    self._generation)

    def _recover(self, item: ClientWorkItem, generation: int,
                 error: BaseException):
        """Re-dispatch ``item`` after ``error``, rebuilding a broken pool
        first; returns the fresh ``(future, generation)``."""
        with self._lock:
            if (isinstance(error, BrokenExecutor)
                    and generation == self._generation):
                # First observer of this breakage: replace the pool.
                try:
                    self._pool.shutdown(wait=False, cancel_futures=True)
                # Best-effort teardown of an already-broken pool; the item
                # is re-dispatched either way.
                except Exception:  # pragma: no cover - dying pools may throw
                    pass
                self._pool = self._build_pool()
                self._generation += 1
                telemetry.inc("executor.pool_rebuilds", kind=self.kind)
                _log.warning("rebuilt broken %s pool (generation %d)",
                             self.kind, self._generation)
            return self._submit_raw(item), self._generation

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


#: accepted ``executor=`` settings ("auto" resolves per run).
EXECUTOR_KINDS = ("auto", InlineExecutor.kind, ProcessExecutor.kind)


def resolve_executor_kind(kind: str | None, workers: int,
                          has_scenario: bool) -> str:
    """Resolve ``"auto"``: a process pool when there is more than one
    worker and the scenario is rebuildable from a spec, otherwise inline."""
    if kind in (None, "auto"):
        if workers <= 1:
            return "inline"
        if has_scenario:
            return "process"
        _log.info("scenario is not rebuildable from a RunSpec (hand-built "
                  "or mutated after the build), so pool workers cannot "
                  "replicate it: running clients inline instead of across "
                  "%d workers", workers)
        return "inline"
    if kind not in EXECUTOR_KINDS:
        raise ValueError(f"unknown executor {kind!r}; "
                         f"known: {EXECUTOR_KINDS}")
    return kind


def make_executor(algorithm, workers: int = 1,
                  kind: str | None = "auto") -> Executor:
    """Build the executor a simulation should use.

    The resolved kind honours the determinism contract automatically —
    whatever comes back, `History` output is identical; only wall-clock
    and memory profiles differ.
    """
    has_scenario = getattr(algorithm, "spec_payload", None) is not None
    if resolve_executor_kind(kind, workers, has_scenario) == "inline":
        return InlineExecutor(algorithm=algorithm)
    return ProcessExecutor(algorithm=algorithm, workers=workers)

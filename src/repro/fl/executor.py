"""Pluggable client-work executors: inline and process pool.

The simulation layer never trains a client directly any more; it packages
each local round as a :class:`ClientWorkItem` — a *pure, picklable* job —
and hands it to an :class:`Executor`, which sends back the
:class:`ClientResult` ``run_client`` returned: what the client computed
(its loss, weight, upload and the state the device keeps) and the item's
wall-clock record, nothing the coordinator already knows.  Purity means
the item fully determines the result:

* the **downlink state** is an explicit ``broadcast`` payload (packed by
  :meth:`~repro.algorithms.base.MHFLAlgorithm.pack_broadcast` and frozen
  where it is packed), never a read of live coordinator state that could
  advance mid-flight — under every executor, so an inline client and a
  pool client run the same code on the same arrays;
* **randomness** is a seed triple ``(run_seed, round, client_id)``
  (:mod:`repro.fl.seeding`), never a shared generator whose draws depend
  on dispatch order;
* the **scenario** (dataset, models, clients) is not in the item at all:
  an executor serves exactly one scenario, the coordinator's built
  algorithm, which a pool hands each worker once.

Two executors implement one contract:

* :class:`InlineExecutor` — eager, in the coordinator's process: the
  item runs on the coordinator's own algorithm object at submit time;
* :class:`ProcessExecutor` — process pool; its initializer installs the
  coordinator's algorithm in each worker (inherited under ``fork``,
  pickled once per worker under ``spawn`` / ``forkserver``), so a cell's
  scenario is built once, however it was built.  Client steps are
  Python-bound, so separate interpreters are what buys a speedup; the
  price is pickling broadcasts and updates.

Every accuracy is a work item too: an :class:`EvalWorkItem` names the
model to score (a task of
:meth:`~repro.algorithms.base.MHFLAlgorithm.score`) and carries the
read-only state its level's skeleton loads; the coordinator scores nothing.

A batch of items (:meth:`Executor.run_batch`; a synchronous round's is
the previous round's evaluations, then its clients in dispatch order)
comes with each item's predicted work, forward FLOPs times the samples
trained or scored.  The pool submits the largest first, so a round does
not end with one worker idle behind a large late item; inline execution
runs the items in list order.

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
from .sanitizers import freeze_arrays
from .seeding import client_rng

_log = get_logger("executor")

__all__ = ["ClientWorkItem", "ClientResult", "EvalWorkItem", "EvalResult",
           "execute_work_item", "Executor", "InlineExecutor",
           "ProcessExecutor", "EXECUTOR_KINDS",
           "make_executor", "ExecutorError",
           "TransientExecutorError", "failure_is_transient",
           "DEFAULT_RETRIES"]


class ExecutorError(RuntimeError):
    """A work item could not be executed.

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
    #: downlink payload from ``pack_broadcast``, read-only (``None`` =
    #: ``run_client`` packs its own downlink when the item runs).
    broadcast: dict | None = None
    #: repeat-dispatch counter of this client at this version (buffered
    #: policy only); part of the seed derivation so a re-dispatched client
    #: trains a fresh draw, not a replay.
    dispatch_index: int = 0


@dataclass
class ClientResult:
    """What one client's local round computed, sent back to the
    coordinator (which knows who trained, from which version, how long).

    ``payload`` is algorithm-specific (``(values, key)`` for parameter
    averaging, prototypes for FedProto, public-set predictions for Fed-ET)
    and is only interpreted by the same algorithm's ``ingest``.
    """

    train_loss: float
    #: aggregation weight (sample count for parameter averaging); the
    #: buffered policy multiplies its staleness discount in on arrival.
    weight: float
    payload: object
    #: the state the device keeps (FedProto/Fed-ET's trained vector, else
    #: ``None``), which ``apply_client_state`` absorbs.
    client_state: object = None
    #: wall-clock accounting for this item (``execute_s`` measured at the
    #: worker, ``wait_s``/``total_s``/``retries`` filled in by the
    #: coordinator's future wrapper).  Picklable, so process-pool workers'
    #: measurements ride back with the result; never serialised into a
    #: History (see ``VOLATILE_EXTRA_KEYS`` in :mod:`repro.fl.serialization`).
    timing: dict | None = None


@dataclass
class EvalWorkItem:
    """One evaluation as a picklable job: ``score(task, vector)``."""

    #: the model to score: the algorithm's task key (``task[1]``: its level).
    task: tuple
    #: the (read-only) state of that level's skeleton.
    vector: object


@dataclass
class EvalResult:
    """What one executed evaluation sends back: its accuracy and, as for
    a :class:`ClientResult`, its wall-clock record."""

    accuracy: float
    timing: dict | None = None


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
#: this pool worker's algorithm: the coordinator's, installed once by the
#: pool initializer.
_worker_algorithm = None


def _install_algorithm(algorithm) -> None:
    """Pool initializer: give this worker the one scenario it serves."""
    global _worker_algorithm
    _worker_algorithm = algorithm


def execute_work_item(item: ClientWorkItem | EvalWorkItem,
                      algorithm=None) -> ClientResult | EvalResult:
    """Run one client's local round, or score one evaluation; the free
    function every executor calls.

    ``algorithm`` injects the coordinator's live object (the inline
    executor); when omitted it is the one this pool worker's initializer
    installed.  Either way the result is a pure function of the item:
    state comes from ``item.broadcast`` or ``item.vector`` (frozen again:
    unpickling thaws them) and randomness from the derived seed.
    """
    if algorithm is None:
        algorithm = _worker_algorithm
    if isinstance(item, EvalWorkItem):
        freeze_arrays(item.vector)
        start = time.perf_counter()
        with telemetry.span("evaluate_item", task=item.task[0]):
            accuracy = algorithm.score(item.task, item.vector)
        return EvalResult(accuracy,
                          {"execute_s": time.perf_counter() - start})
    freeze_arrays(item.broadcast)
    rng = client_rng(item.run_seed, item.version, item.client_id,
                     item.dispatch_index)
    start = time.perf_counter()
    with telemetry.span("client_step", client=int(item.client_id),
                        version=int(item.version)):
        result = algorithm.run_client(item.client_id, item.version, rng,
                                      broadcast=item.broadcast)
    result.timing = {"execute_s": time.perf_counter() - start}
    return result


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
    """Package one client's round with its downlink, frozen for good.

    Every array of the downlink is a fresh copy, so it is frozen here and
    stays read-only wherever the item runs: a client that writes into what
    it was sent raises at the offending line.  ``needs_broadcast=False``
    leaves the downlink to ``run_client`` (no dispatcher asks for that).

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
    freeze_arrays(broadcast)
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
    """Executor contract: ``submit`` one item, or ``run_batch`` many."""

    kind = "base"

    def __init__(self, workers: int = 1):
        self.workers = max(1, int(workers))

    def submit(self, item: ClientWorkItem):
        raise NotImplementedError

    def run_batch(self, items, costs) -> list:
        """Execute ``items``; results come back in *item order* (never
        completion order — aggregation order is part of the result).
        ``costs`` predicts each item's work; it may only decide the order
        items start in, never what they return."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InlineExecutor(Executor):
    """Eager execution on the coordinator's own algorithm object."""

    kind = "inline"

    def __init__(self, algorithm=None, workers: int = 1):
        super().__init__(workers=1)
        self.algorithm = algorithm

    def submit(self, item: ClientWorkItem):
        telemetry.inc("executor.items", kind=self.kind)
        result = execute_work_item(item, self.algorithm)
        # Eager execution: no queue wait, no retries; total == execute.
        _finalize_timing(result, result.timing["execute_s"], retries=0)
        return _Immediate(result)

    def run_batch(self, items, costs) -> list:
        """The items in list order: nothing runs concurrently here, and
        list order keeps the first client to run the same one whatever
        the costs."""
        return [self.submit(item).result() for item in items]


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
                what = (f"evaluation {self._item.task}"
                        if isinstance(self._item, EvalWorkItem)
                        else f"client {self._item.client_id}")
                _log.warning("retrying %s (attempt %d/%d) after %s", what,
                             self._attempts, self._executor.retries,
                             type(error).__name__)
                self._future.cancel()
                self._future, self._generation = self._executor._recover(
                    self._item, self._generation, error)


class ProcessExecutor(Executor):
    """Process pool serving one scenario: the pool initializer hands each
    worker the coordinator's algorithm once.

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
        super().__init__(workers=workers)
        self.algorithm = algorithm
        self._lock = threading.Lock()
        self._generation = 0
        self._pool = self._build_pool()

    def _build_pool(self):
        return _ProcessPool(max_workers=self.workers,
                            initializer=_install_algorithm,
                            initargs=(self.algorithm,))

    def _submit_raw(self, item: ClientWorkItem):
        return self._pool.submit(execute_work_item, item)

    def submit(self, item: ClientWorkItem):
        telemetry.inc("executor.items", kind=self.kind)
        with self._lock:
            return _ResilientFuture(self, item, self._submit_raw(item),
                                    self._generation)

    def run_batch(self, items, costs) -> list:
        """Submit the items largest-cost first (a stable sort: ties keep
        list order), then collect the results in item order."""
        order = sorted(range(len(items)), key=lambda i: -costs[i])
        futures = [None] * len(items)
        for i in order:
            futures[i] = self.submit(items[i])
        return [future.result() for future in futures]

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


def make_executor(algorithm, workers: int = 1,
                  kind: str = "auto") -> Executor:
    """Build the executor a simulation should use: a process pool when
    ``kind`` is ``"process"``, or ``"auto"`` with more than one worker;
    inline otherwise.

    Whatever comes back honours the determinism contract — `History`
    output is identical; only wall-clock and memory profiles differ.
    """
    if kind == "process" or (kind == "auto" and workers > 1):
        return ProcessExecutor(algorithm=algorithm, workers=workers)
    return InlineExecutor(algorithm=algorithm)

"""Server aggregation policies: the one way a federated run executes.

Every run is an :class:`AggregationPolicy` playing client
download/train/upload events through an
:class:`~repro.fl.events.EventQueue` on the simulated clock;
:func:`repro.fl.simulation.run_simulation` only wires one up.  Two
policies cover the design space the systems literature converges on for
constrained fleets (Pfeiffer et al.'s survey; FedBuff, Nguyen et al.
AISTATS'22):

* :class:`SynchronousPolicy` — round-based aggregation with an optional
  wall-clock **deadline** (late uploads are dropped) and **over-selection**
  (dispatch extra clients so a round survives dropouts/stragglers).  With no
  deadline, no over-selection and an always-on fleet — what a run given no
  execution block resolves to — every sampled client finishes and the
  round waits for the straggler.
* :class:`BufferedPolicy` — FedBuff-style semi-asynchronous aggregation:
  the server keeps ``max_concurrency`` clients training at all times and
  aggregates whenever ``buffer_size`` updates have arrived, discounting each
  update by ``(1 + staleness) ** -0.5`` (:data:`STALENESS_EXPONENT`) where
  staleness is the number of server versions that elapsed while it was in
  flight.

Both drive the same per-client algorithm primitives (``run_client`` /
``ingest``), so every algorithm in the registry works under every policy
unchanged, and both play each client through the one lifecycle
:class:`AggregationPolicy` owns (launch, land, admit, close round), so a
device behaves the same whatever the server does with its update.  Client
work is *snapshotted* at dispatch time — the state a
client downloads is the server state at its dispatch timestamp, which is
exactly what staleness means — and handed to a pluggable
:class:`~repro.fl.executor.Executor` (inline or process pool); the
queue orders arrivals, drops and aggregations on the simulated
clock, so the History is identical for any worker count.  Every
accuracy is an executor work item too: a synchronous round is scored in
the next round's batch, anything else in a batch of its own.

:class:`ExecutionConfig` holds only what a caller sets and what changes
results (it is hashed with the spec); how a run is parallelised or
checkpointed lives on :class:`~repro.fl.simulation.SimulationConfig`.
Every policy validates every arrived update — finite numbers of the right
shape; there is no magnitude bound, so a ``scale``-corrupted upload is
aggregated — and freezes what clients may only read
(:mod:`repro.fl.sanitizers`) for every run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..telemetry import runtime as telemetry
from .availability import (AVAILABILITY_MODELS, AvailabilityModel,
                           make_availability)
from .checkpoint import make_checkpointer
from .events import (CLIENT_DROPPED, CLIENT_FAILED, DOWNLOAD_START,
                     EVAL_TICK, SERVER_AGGREGATE, TRAIN_COMPLETE,
                     UPDATE_REJECTED, UPLOAD_COMPLETE, Event, EventQueue)
from .executor import EvalWorkItem, Executor, make_work_item
from .faults import (FaultModel, FaultPlan, FaultSpec, corrupt_update,
                     is_flat_upload)
from .history import History, RoundRecord
from .sanitizers import (check_range, collect_arrays, drop_fixed_keys,
                         freeze_arrays, frozen_arrays)

__all__ = ["ExecutionConfig", "AggregationPolicy", "SynchronousPolicy",
           "BufferedPolicy", "AGGREGATION_POLICIES", "make_policy",
           "sample_count", "sample_clients", "validate_update",
           "STALENESS_EXPONENT"]

#: the fault plan of a dispatch on a healthy fleet (no fault model bound).
_HEALTHY = FaultPlan()

#: server-side work per aggregation (bookkeeping, averaging), seconds.
SERVER_OVERHEAD_S = 2.0

#: buffered: an update ``s`` server versions stale is weighted
#: ``(1 + s) ** -STALENESS_EXPONENT`` (FedBuff's square-root discount).
STALENESS_EXPONENT = 0.5


def sample_count(num_clients: int, sample_ratio: float) -> int:
    """Participants per round — the single formula behind
    :func:`sample_clients` and the policies' sampling."""
    return min(max(1, int(round(num_clients * sample_ratio))), num_clients)


def sample_clients(num_clients: int, sample_ratio: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Sample the round's participants without replacement."""
    count = sample_count(num_clients, sample_ratio)
    return rng.choice(num_clients, size=count, replace=False)


# ----------------------------------------------------------------------
# Coordinator defense: update validation
# ----------------------------------------------------------------------

def validate_update(update, resolve=None) -> str | None:
    """Judge one :class:`~repro.fl.executor.ClientResult` before it may
    enter aggregation; returns ``None`` when healthy, else a quarantine
    reason code (``"nonfinite"``, ``"shape"``, ``"malformed"``).

    Checks, in order: scalar sanity (finite loss and non-negative finite
    weight), structural sanity of a parameter-averaging ``(values, key)``
    upload when ``resolve`` (the algorithm's ``resolve_upload``) is given
    (the key resolves, ``values`` is 1-D float and exactly as long as its
    index), and NaN/Inf in any float array leaf.  Magnitude is not judged:
    a scaled or zeroed payload is finite and passes, which is exactly what
    makes silent blow-up and erasure the faults no check here catches.
    """
    try:
        loss = float(update.train_loss)
        weight = float(update.weight)
        payload = update.payload
    except (AttributeError, TypeError, ValueError):
        return "malformed"
    if not math.isfinite(weight) or weight < 0:
        return "malformed"
    flat = None
    if resolve is not None and is_flat_upload(payload):
        flat, key = payload
        try:
            bounds = resolve(key).bounds
        except (KeyError, TypeError, ValueError):
            return "shape"
        if not (isinstance(flat, np.ndarray) and flat.ndim == 1
                and flat.dtype.kind == "f" and flat.size == bounds[-1]):
            return "shape"
    if not math.isfinite(loss):
        return "nonfinite"
    if flat is None:
        # Every non-empty float array leaf of the payload, in order.
        leaves = [array for array in collect_arrays(payload)
                  if array.size and array.dtype.kind == "f"]
        flat = np.concatenate(leaves, axis=None) if leaves else None
    if flat is None or not flat.size:
        return None
    # One pass over all leaves (widening is exact).
    return None if np.isfinite(flat).all() else "nonfinite"


#: keys every serialised execution block carries at one value, so no spec
#: hash moved when the knobs they name were removed:
_FIXED_KEYS = {
    "staleness_exponent": STALENESS_EXPONENT,  # the buffered discount
    "availability_seed": None,      # the trace seed is the run seed + 7919
    "record_events": True,          # a run given a block records its events
}


@dataclass(frozen=True)
class ExecutionConfig:
    """The execution block of a simulation: how rounds actually run.

    Every field is one a caller sets.  The staleness exponent
    (:data:`STALENESS_EXPONENT`), the availability seed (run seed + 7919)
    and event recording (on unless the run was given no block) are fixed.
    """

    policy: str = "sync"                 # "sync" | "buffered"
    #: availability model name (registry in :mod:`repro.fl.availability`).
    availability: str = "always_on"
    availability_kwargs: dict = field(default_factory=dict)
    #: sync: wall-clock budget per round; updates arriving later are dropped
    #: (None = wait for the straggler).
    deadline_s: float | None = None
    #: sync: dispatch ceil(target * (1 + over_select)) clients to hedge
    #: against dropouts and stragglers.
    over_select: float = 0.0
    #: buffered: aggregate once this many updates arrived.
    buffer_size: int = 4
    #: buffered: clients kept training concurrently (None = the sync
    #: policy's per-round sample size).
    max_concurrency: int | None = None
    #: deterministic fault injection (:mod:`repro.fl.faults`); ``None`` (or
    #: an all-zero spec) is the healthy fleet.  A plain dict is accepted
    #: and coerced, so serialised configs round-trip.
    faults: FaultSpec | None = None

    def __post_init__(self):
        if self.policy not in AGGREGATION_POLICIES:
            raise ValueError(f"unknown execution policy {self.policy!r}; "
                             f"known: {sorted(AGGREGATION_POLICIES)}")
        if self.availability not in AVAILABILITY_MODELS:
            raise ValueError(f"unknown availability model "
                             f"{self.availability!r}; "
                             f"known: {sorted(AVAILABILITY_MODELS)}")
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1 (or None), "
                             f"got {self.max_concurrency!r}")
        check_range("over_select", self.over_select, "[0, inf)")
        if self.deadline_s is not None:     # inf: wait for the straggler
            check_range("deadline_s", self.deadline_s, "(0, inf]")
        if isinstance(self.faults, dict):
            object.__setattr__(self, "faults", FaultSpec.from_dict(self.faults))

    def fault_model(self, run_seed: int) -> FaultModel | None:
        """The run's seeded fault model (``None`` = healthy fleet)."""
        if self.faults is None or not self.faults.enabled:
            return None
        return FaultModel(self.faults, run_seed)

    def build_availability(self, num_clients: int,
                           sim_seed: int) -> AvailabilityModel:
        return make_availability(self.availability, num_clients,
                                 seed=sim_seed + 7919,
                                 **self.availability_kwargs)

    # ------------------------------------------------------------------
    # Serialisation (stable JSON-safe form; used by RunSpec hashing)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict; inverse of :meth:`from_dict`.

        Every field changes results, so every field is serialised — but
        ``faults`` only when enabled, and the fixed keys always at their
        one value: pre-existing configs keep their exact serialised form,
        so no cached spec hash ever moves.
        """
        payload = {
            "policy": self.policy,
            "availability": self.availability,
            "availability_kwargs": dict(self.availability_kwargs),
            "deadline_s": self.deadline_s,
            "over_select": self.over_select,
            "buffer_size": self.buffer_size,
            "max_concurrency": self.max_concurrency,
            **_FIXED_KEYS,
        }
        if self.faults is not None and self.faults.enabled:
            payload["faults"] = self.faults.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExecutionConfig":
        return cls(**drop_fixed_keys("ExecutionConfig", payload, _FIXED_KEYS,
                                     removed=("quorum", "norm_bound")))


class AggregationPolicy:
    """Base: the queue/clock plumbing and the per-client lifecycle, written
    once for every policy.

    A client's dispatch is *launched* (time segments, fault plan, then its
    fate: dropout, churn, crash, provably late — or it trains), its trained
    result *lands* (client state absorbed, straggler time and corruption
    applied), the update is *admitted* or quarantined, and a round is
    *closed* (aggregate, evaluate, write the record); :meth:`open_run` /
    :meth:`close_run` bracket the run.  A fault or availability rule
    changed here holds for both policies by construction — subclasses own
    only their schedule: who is dispatched when, and when a round closes.
    """

    name = "base"
    #: what the server index is called in ``DOWNLOAD_START`` info.
    index_key = "round"

    def __init__(self, sim_config, execution: ExecutionConfig,
                 availability: AvailabilityModel, executor: Executor):
        self.sim_config = sim_config
        self.execution = execution
        self.availability = availability
        #: client-work executor (inline or process pool).
        self.executor = executor
        self.queue = EventQueue()
        self.timeline: list[Event] = []
        #: per-client count of accepted dispatches so far.
        self._participation: dict[int, int] = {}
        #: seeded fault model, bound by :meth:`open_run` (None = healthy).
        self.faults: FaultModel | None = None
        #: the fault plan of each training client whose dispatch corrupts
        #: its upload, until :meth:`land` applies it (a slowdown is already
        #: in the segments :meth:`launch` returned).
        self._fault_plans: dict[int, FaultPlan] = {}
        #: drops since the last closed round, by reason.
        self.drops = {"dropout": 0, "churn": 0, "deadline": 0,
                      "crash": 0, "quarantined": 0}
        #: wall-clock records of results landed since the last closed round.
        self._timings: dict[int, dict] = {}
        #: a run given no execution block keeps the record format its
        #: stored results were written in — no event timeline, no
        #: ``dispatched``/``received`` extras — so cached histories and
        #: goldens do not move.  Derived from the config, never set.
        self._plain_records: bool = sim_config.execution is None

    # -- shared plumbing ------------------------------------------------
    def emit(self, event: Event) -> Event:
        if not self._plain_records:
            self.timeline.append(event)
        return event

    def take_timeline(self) -> list[dict]:
        entries = [event.timeline_entry() for event in self.timeline]
        self.timeline = []
        return entries

    def next_event(self) -> Event:
        """Pop the queue onto the timeline; a drop counts when it fires."""
        event = self.emit(self.queue.pop())
        if event.type in (CLIENT_DROPPED, CLIENT_FAILED):
            self.drops[event.info["reason"]] += 1
        return event

    def participation_index(self, client_id: int) -> int:
        """The client's k-th dispatch, counted per client — the dropout
        key, so a client's k-th participation draws the same mid-round
        dropout decision under every aggregation policy."""
        k = self._participation.get(client_id, 0)
        self._participation[client_id] = k + 1
        return k

    def sample_size(self, num_clients: int) -> int:
        return sample_count(num_clients, self.sim_config.sample_ratio)

    def is_eval_round(self, round_index: int) -> bool:
        return (round_index % self.sim_config.eval_every == 0
                or round_index == self.sim_config.num_rounds - 1)

    # -- the client lifecycle -------------------------------------------
    def launch(self, algorithm, cid: int, now: float, index: int,
               fault_dispatch: int = 0, horizon: float = math.inf):
        """Dispatch ``cid`` at ``now`` for server ``index`` and decide its
        fate on the coordinator; returns the ``(down, train, total)``
        segments of a client that must train, ``None`` for one whose fate
        is already sealed (its events are queued).

        Availability is consulted in a fixed order — dropout, then churn —
        because those draws advance its stream; injected fault plans are
        order-independent by construction.  Segments, not offsets, are
        returned: float addition does not associate and each policy places
        its own train/upload events.  ``horizon`` is the latest a
        deadline-bound policy could still accept an upload.
        """
        ctx = algorithm.clients[cid]
        down, train, up = algorithm.client_time_segments(ctx)
        plan = (self.faults.plan(index, cid, fault_dispatch)
                if self.faults is not None else _HEALTHY)
        if plan.slowdown != 1.0:
            train *= plan.slowdown
            total = train + (down + up)
        else:
            # No slowdown: keep the algorithm's own total (bit-exact
            # with the zero-fault path, overrides included).
            total = algorithm.client_round_time_s(ctx)
        self.queue.push(Event(now, DOWNLOAD_START, cid,
                              info={self.index_key: index}))
        if self.availability.drops_round(cid, self.participation_index(cid)):
            # Device killed the job after training, before upload.
            self.queue.push(Event(now + down + train, CLIENT_DROPPED, cid,
                                  info={"reason": "dropout"}))
            return None
        online_until = self.availability.online_until(cid, now)
        if online_until < now + total:
            self.queue.push(Event(min(online_until, now + total),
                                  CLIENT_DROPPED, cid,
                                  info={"reason": "churn"}))
            return None
        if plan.crash:
            # Injected fault: the device dies after training, before its
            # upload lands — the work is lost either way, so skip the
            # (expensive) local training too.
            self.queue.push(Event(now + down + train, CLIENT_FAILED, cid,
                                  info={"reason": "crash"}))
            return None
        if total > horizon:
            # Provably late: the arrival will be discarded, so skip the
            # (expensive) local training and schedule the late upload.
            self.queue.push(Event(now + total, UPLOAD_COMPLETE, cid,
                                  info={"late": True}))
            return None
        if plan.corrupt is not None:
            self._fault_plans[cid] = plan
        return down, train, total

    def land(self, algorithm, cid: int, result):
        """A trained result reaches the coordinator: absorb the client's
        state and apply its dispatch's corruption to the upload; returns
        the result."""
        if result.timing is not None:
            self._timings[cid] = result.timing
        algorithm.apply_client_state(cid, result.client_state)
        plan = self._fault_plans.pop(cid, None)
        if plan is not None:
            corrupt_update(result, plan.corrupt,
                           self.faults.spec.corrupt_factor,
                           getattr(algorithm, "resolve_upload", None))
        return result

    def verdict(self, algorithm, update) -> str | None:
        """Coordinator defense: the :func:`validate_update` reason an
        arrived update must not be aggregated (``None`` = admit)."""
        return validate_update(update,
                               getattr(algorithm, "resolve_upload", None))

    def quarantine(self, event: Event, verdict: str) -> None:
        """Refuse the upload that arrived with ``event``."""
        self.drops["quarantined"] += 1
        telemetry.inc("aggregation.quarantined", reason=verdict)
        self.emit(Event(event.time_s, UPDATE_REJECTED, event.client_id,
                        info={"reason": verdict}))

    def close_round(self, algorithm, history: History, index: int,
                    updates: list, sim_time: float, round_time: float,
                    extras: dict):
        """Aggregate ``updates`` as server round ``index`` ending at
        ``sim_time``; returns ``finish(accuracy)``, which writes the
        round's record (``extras``, then the drops since the last record,
        then client timings) with the accuracy scored from the state this
        aggregation left (``None`` off an evaluation round).

        ``finish`` reads only the timeline, drops and timings, which the
        next round's launches and batch leave alone (drops count when
        events are popped, timings when results land), so the synchronous
        policy calls it after the next round's batch."""
        with telemetry.span("aggregate", round=index):
            if updates:
                algorithm.ingest(updates, index, self.rng)
        train_loss = (float(np.mean([u.train_loss for u in updates]))
                      if updates else 0.0)
        self.emit(Event(sim_time, SERVER_AGGREGATE,
                        info={"round": index, "received": len(updates)}))

        def finish(accuracy: float | None) -> None:
            if accuracy is not None:
                self.emit(Event(sim_time, EVAL_TICK,
                                info={"round": index, "accuracy": accuracy}))
            extras.update({f"dropped_{k}": v
                           for k, v in self.drops.items() if v})
            self.drops = dict.fromkeys(self.drops, 0)
            if self._timings:
                extras["client_timings"], self._timings = self._timings, {}
            record = RoundRecord(
                round_index=index, sim_time_s=sim_time,
                round_time_s=round_time,
                train_loss=train_loss,
                global_accuracy=accuracy, extras=extras,
                events=self.take_timeline())
            history.append(record)
            telemetry.record_round(record)
            telemetry.inc("aggregation.rounds", policy=self.name)

        return finish

    # -- the run ---------------------------------------------------------
    def open_run(self, algorithm) -> History:
        """Bind the run's rng and fault model; returns its empty History."""
        self._wall_start = time.perf_counter()
        #: the coordinator's one stream: sampling, dispatch, ingestion.
        self.rng = np.random.default_rng(self.sim_config.seed)
        self.faults = self.execution.fault_model(self.sim_config.seed)
        return History(algorithm=algorithm.name,
                       dataset=algorithm.dataset_name)

    def close_run(self, algorithm, history: History, finish=None,
                  evaluate: bool = False) -> History:
        """Score the run's final evaluations, then the end-of-run gauges
        (sim-vs-wall-clock skew, queue statistics): observation-only and
        computed from values the run produced anyway.

        The final evaluations — each evaluation client's deployed model
        and, when ``evaluate``, the global accuracy of the round whose
        ``finish`` is still pending — are one executor batch
        (:meth:`run_batch`); ``finish`` then records that round."""
        with telemetry.span("evaluate", final=True):
            acc, history.final_device_accuracies, _ = self.run_batch(
                algorithm, evaluate, True)
        if finish is not None:
            finish(acc)
        if telemetry.enabled():
            wall_s = time.perf_counter() - self._wall_start
            sim_s = (history.records[-1].sim_time_s if history.records
                     else 0.0)
            telemetry.set_gauge("simulation.wall_s", wall_s,
                                policy=self.name)
            telemetry.set_gauge("simulation.sim_s", sim_s, policy=self.name)
            if wall_s > 0:
                # >1 means the simulated clock outruns the wall clock.
                telemetry.set_gauge("simulation.sim_speedup", sim_s / wall_s,
                                    policy=self.name)
            telemetry.max_gauge("events.queue_depth_max",
                                self.queue.max_depth)
            telemetry.inc("events.pushed", self.queue.pushed)
        return history

    def run_batch(self, algorithm, evaluate: bool, devices: bool = False,
                  items: list = (), costs: list = ()):
        """Score the live state's global accuracy (if ``evaluate``) and
        each evaluation client's (if ``devices``), and run client
        ``items``, as one executor batch; returns ``(accuracy, device
        accuracies, client results)``.

        The evaluation items go first: inline they run before the
        clients.  Each carries a read-only view of the state its task's
        level skeleton loads (a level's slice: a copy unless one run), and
        the global vector itself is frozen while the batch runs (freezing
        views of it would leave it writable)."""
        tasks, read = algorithm.evaluation(evaluate, devices)
        scoring = [EvalWorkItem(task, algorithm.eval_vector(task).view())
                   for task in tasks]
        freeze_arrays(*(item.vector for item in scoring))
        with frozen_arrays(getattr(algorithm, "global_vector", None)):
            batch = self.executor.run_batch(
                [*scoring, *items],
                [*(algorithm.eval_cost(task) for task in tasks), *costs])
        accuracy, accuracies = read([r.accuracy for r in batch[:len(tasks)]])
        return accuracy, accuracies, batch[len(tasks):]

    def run(self, algorithm) -> History:
        raise NotImplementedError


class SynchronousPolicy(AggregationPolicy):
    """Round-based aggregation with deadline and over-selection."""

    name = "sync"

    def run(self, algorithm) -> History:
        config = self.sim_config
        history = self.open_run(algorithm)
        rng = self.rng
        all_ids = sorted(algorithm.clients)
        sim_time = 0.0

        start_round = 0
        checkpointer = make_checkpointer(config.checkpoint)
        if checkpointer is not None:
            restored = checkpointer.maybe_resume(algorithm, rng)
            if restored is not None:
                history, start_round, sim_time, self._participation = restored

        #: ``finish`` of the last closed round, called once the next
        #: round's batch has scored it (see :meth:`_dispatch_round`), and
        #: whether it evaluates.
        pending, due = None, False
        for round_index in range(start_round, config.num_rounds):
            online = [cid for cid in all_ids
                      if self.availability.is_online(cid, sim_time)]
            while not online:
                # Idle until somebody comes back (diurnal night, churn gap).
                comeback = min(self.availability.next_online(cid, sim_time)
                               for cid in all_ids)
                if not math.isfinite(comeback) or comeback <= sim_time:
                    break
                sim_time = comeback
                online = [cid for cid in all_ids
                          if self.availability.is_online(cid, sim_time)]
            if not online:
                break

            sampled = self._sample(online, len(all_ids), rng)
            with telemetry.span("dispatch_round", round=round_index):
                received, duration = self._dispatch_round(
                    algorithm, sampled, round_index, sim_time, pending, due)
            pending = None
            for reason, count in self.drops.items():
                if count:
                    telemetry.inc("aggregation.dropped", count,
                                  reason=reason)
            round_time = duration + SERVER_OVERHEAD_S
            sim_time = sim_time + round_time
            extras = ({} if self._plain_records else
                      {"dispatched": len(sampled), "received": len(received)})
            pending = self.close_round(algorithm, history, round_index,
                                       received, sim_time, round_time,
                                       extras)
            due = self.is_eval_round(round_index)
            if checkpointer is not None and checkpointer.due(round_index):
                # The snapshot holds the round's record and the rng before
                # the next sample: finish the round first.
                pending(self.run_batch(algorithm, due)[0])
                pending, due = None, False
                checkpointer.save(algorithm, rng, history,
                                  next_round=round_index + 1,
                                  sim_time_s=sim_time,
                                  participation=self._participation)

        # The last round's evaluation is scored with the final ones.
        self.close_run(algorithm, history, pending, due)
        if checkpointer is not None:
            checkpointer.clear()
        return history

    # -- helpers --------------------------------------------------------
    def _sample(self, online: list[int], num_clients: int,
                rng: np.random.Generator) -> np.ndarray:
        target = self.sample_size(num_clients)
        extra = int(math.ceil(target * self.execution.over_select))
        count = min(target + extra, len(online))
        return rng.choice(np.asarray(online), size=count, replace=False)

    def _dispatch_round(self, algorithm, sampled, round_index: int,
                        start_s: float, pending=None, due: bool = False):
        """Train the round's clients and play their events through the
        queue; returns (received updates, round duration before server
        overhead).

        Three phases: (1) launch every sampled client in dispatch order
        (availability draws must happen in that order); (2) run every
        surviving client's work item through the executor as one batch,
        beside the previous round's evaluation if ``due``, and record that
        round (``pending``) before any result lands; (3) schedule their
        train/upload events and *settle* the round against the deadline.
        Phase 2 is where worker parallelism happens — the decisions and the
        queue never leave the coordinator, so the round is deterministic
        for any worker count.
        """
        deadline = (self.execution.deadline_s
                    if self.execution.deadline_s is not None else math.inf)
        #: the training clients' segments, in dispatch order.
        segments: dict[int, tuple[float, float, float]] = {}
        for cid in map(int, sampled):
            launched = self.launch(algorithm, cid, start_s, round_index,
                                   horizon=deadline)
            if launched is not None:
                segments[cid] = launched

        shared = algorithm.pack_round_broadcast(round_index)
        items = [make_work_item(algorithm, cid, round_index,
                                self.sim_config.seed, True,
                                shared_broadcast=shared)
                 for cid in segments]
        costs = [algorithm.client_work(algorithm.clients[cid])
                 for cid in segments]
        accuracy, _, batch = self.run_batch(algorithm, due, items=items,
                                            costs=costs)
        if pending is not None:
            pending(accuracy)
        for (cid, (down, train, total)), result in zip(segments.items(),
                                                       batch):
            update = self.land(algorithm, cid, result)
            self.queue.push(Event(start_s + (down + train), TRAIN_COMPLETE,
                                  cid))
            self.queue.push(Event(start_s + total, UPLOAD_COMPLETE, cid,
                                  info={"update": update}))

        # Settle the round against the deadline as its events fire: only
        # provably late clients were not trained, so a trained client's
        # total is within it.  Quarantines are emitted after the last
        # event, so they close the round's timeline.
        received, rejected, duration, late = {}, [], 0.0, 0
        while self.queue:
            event = self.next_event()
            if event.type in (CLIENT_DROPPED, CLIENT_FAILED):
                duration = max(duration, min(event.time_s - start_s,
                                             deadline))
            elif event.type == UPLOAD_COMPLETE:
                update = event.info.pop("update", None)
                if update is None:
                    late += 1
                    duration = max(duration, deadline)
                    continue
                # The upload landed (and consumed wall clock) whether or
                # not it survives validation.
                duration = max(duration, segments[event.client_id][2])
                verdict = self.verdict(algorithm, update)
                if verdict is not None:
                    rejected.append((event, verdict))
                else:
                    received[event.client_id] = update
        self.drops["deadline"] = late
        for event, verdict in rejected:
            self.quarantine(event, verdict)
        #: updates kept in dispatch order — a synchronous server treats the
        #: round's batch as a set, and accumulation order is part of the
        #: result (float sums do not commute bit-for-bit).
        return [received[cid] for cid in segments if cid in received], duration


class BufferedPolicy(AggregationPolicy):
    """FedBuff-style buffered semi-asynchronous aggregation."""

    name = "buffered"
    index_key = "version"

    def run(self, algorithm) -> History:
        config, execution = self.sim_config, self.execution
        history = self.open_run(algorithm)
        self._all_ids = sorted(algorithm.clients)
        self._in_flight: set[int] = set()
        self._dispatches = 0
        #: per-(version, client) dispatch counts: a client re-dispatched at
        #: an unchanged server version must train a *fresh* seed-derived
        #: draw, not a bit-identical replay of its previous round (same
        #: broadcast + same (seed, version, client) triple would otherwise
        #: double-weight one gradient in the buffer).
        self._version_dispatches: dict[tuple[int, int], int] = {}
        self._retry_pending = False
        self._concurrency = (execution.max_concurrency
                             or self.sample_size(len(self._all_ids)))
        #: hard cap on dispatches — keeps pathological fleets (e.g. dropout
        #: probability 1.0) from spinning the dispatch->drop loop forever.
        self._dispatch_budget = max(
            1000, 64 * config.num_rounds * execution.buffer_size)
        version = 0
        last_agg_time = 0.0
        buffer: list = []

        self._refill(algorithm, 0.0, version)

        while self.queue and version < config.num_rounds:
            event = self.next_event()
            now = event.time_s
            if event.type in (CLIENT_DROPPED, CLIENT_FAILED):
                self._in_flight.discard(event.client_id)
                self._refill(algorithm, now, version)
                continue
            if event.type == DOWNLOAD_START and event.client_id is None:
                # Deferred dispatch: the fleet was fully offline/busy.
                self._retry_pending = False
                self._refill(algorithm, now, version)
                continue
            if event.type != UPLOAD_COMPLETE:
                continue

            self._in_flight.discard(event.client_id)
            dispatched = event.info.pop("version")
            update = self.land(algorithm, event.client_id,
                               event.info.pop("future").result())
            verdict = self.verdict(algorithm, update)
            if verdict is not None:
                # Quarantine: the upload never reaches the buffer.
                self.quarantine(event, verdict)
                self._refill(algorithm, now, version)
                continue
            staleness = version - dispatched
            discount = float((1.0 + staleness) ** -STALENESS_EXPONENT)
            update.weight *= discount
            telemetry.observe("aggregation.staleness", staleness)
            telemetry.observe("aggregation.discount", discount)
            event.info["staleness"] = staleness
            event.info["discount"] = discount
            buffer.append((update, staleness, discount))
            self._refill(algorithm, now, version)
            if len(buffer) < execution.buffer_size:
                continue

            # Buffer full: aggregate, advance the server version.
            agg_time = now + SERVER_OVERHEAD_S
            updates, stale, discounts = zip(*buffer)
            extras = {
                "received": len(buffer),
                "stale_updates": int(sum(s > 0 for s in stale)),
                "mean_staleness": float(np.mean(stale)),
                "max_staleness": int(max(stale)),
                "mean_discount": float(np.mean(discounts)),
            }
            self.close_round(algorithm, history, version, list(updates),
                             agg_time, agg_time - last_agg_time, extras)(
                self.run_batch(algorithm, self.is_eval_round(version))[0])
            last_agg_time = agg_time
            buffer = []
            version += 1

        # Updates still in flight when the run ends are never aggregated,
        # but their training *happened* — a trained result exists for
        # every in-flight item under every executor — so absorb their
        # client state here, keeping final per-device accuracies identical
        # across executors.
        while self.queue:
            event = self.queue.pop()
            future = event.info.pop("future", None)
            if future is not None:
                result = future.result()
                algorithm.apply_client_state(event.client_id,
                                             result.client_state)

        # Drops accrued after the last aggregation would otherwise vanish;
        # fold them into the final record so dropped_counts() stays honest.
        if history.records:
            tail = history.records[-1].extras
            for reason, count in self.drops.items():
                if count:
                    key = f"dropped_{reason}"
                    tail[key] = tail.get(key, 0) + count
        return self.close_run(algorithm, history)

    # -- helpers --------------------------------------------------------
    def _refill(self, algorithm, now: float, version: int) -> None:
        """Top the in-flight pool back up to the concurrency target."""
        while len(self._in_flight) < self._concurrency:
            if not self._dispatch(algorithm, now, version):
                break

    def _dispatch(self, algorithm, now: float, version: int) -> bool:
        """Hand the next available client a job at time ``now``; returns
        False when no idle client is online (a deferred retry is queued)."""
        if self._dispatches >= self._dispatch_budget:
            return False
        idle = [cid for cid in self._all_ids if cid not in self._in_flight]
        candidates = [cid for cid in idle
                      if self.availability.is_online(cid, now)]
        if not candidates:
            if idle and not self._retry_pending:
                comeback = min(self.availability.next_online(cid, now)
                               for cid in idle)
                if math.isfinite(comeback):
                    self._retry_pending = True
                    self.queue.push(Event(max(comeback, now), DOWNLOAD_START,
                                          None, info={"deferred": True}))
            return False

        cid = int(self.rng.choice(np.asarray(candidates)))
        self._in_flight.add(cid)
        self._dispatches += 1
        # The client's k-th launch draws fault plan k: launch counts its
        # participation exactly once, after this read.
        launched = self.launch(algorithm, cid, now, version,
                               self._participation.get(cid, 0))
        if launched is None:
            return True
        down, train, total = launched
        # Submit the work item now — the broadcast snapshot taken at this
        # instant *is* the staleness semantics (the client downloads the
        # server state at its dispatch timestamp) — and resolve the future
        # when the upload event fires on the simulated clock.  The upload
        # event carries the dispatch version too; both are popped on
        # arrival, so no timeline shows them.
        repeat = self._version_dispatches.get((version, cid), 0)
        self._version_dispatches[(version, cid)] = repeat + 1
        item = make_work_item(algorithm, cid, version, self.sim_config.seed,
                              True, dispatch_index=repeat)
        # The item's downlink is frozen for its whole flight where it was
        # packed; the live global vector is guarded across the submit
        # call, which covers the inline executor's eager execution.
        with frozen_arrays(getattr(algorithm, "global_vector", None)):
            future = self.executor.submit(item)
        self.queue.push(Event(now + down + train, TRAIN_COMPLETE, cid))
        self.queue.push(Event(now + total, UPLOAD_COMPLETE, cid,
                              info={"future": future, "version": version}))
        return True


AGGREGATION_POLICIES: dict[str, type[AggregationPolicy]] = {
    SynchronousPolicy.name: SynchronousPolicy,
    BufferedPolicy.name: BufferedPolicy,
}


def make_policy(sim_config, execution: ExecutionConfig,
                availability: AvailabilityModel,
                executor: Executor) -> AggregationPolicy:
    """Instantiate the execution block's aggregation policy."""
    cls = AGGREGATION_POLICIES[execution.policy]
    return cls(sim_config, execution, availability, executor=executor)

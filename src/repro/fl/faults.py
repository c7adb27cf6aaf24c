"""Deterministic client-failure injection for federated runs.

Real fleets fail in ways availability models don't capture: devices crash
after training but before the upload lands, thermal throttling stretches a
round by integer factors, and flaky transports or broken accelerators ship
NaN/Inf/garbage updates (Abdelmoniem et al., arXiv:2102.07500).  This module
injects those failures *deterministically*: every decision for a client's
dispatch is drawn from :func:`repro.fl.seeding.fault_rng`, a pure function
of ``(run_seed, round, client_id, dispatch)``, so a fault-injected run is
byte-identical across the inline and process executors and worker counts —
the same determinism contract the healthy runtime pins.

All decisions are made and applied **coordinator-side** by the aggregation
policies (:mod:`repro.fl.aggregation`): a crash skips the client's training
and schedules a typed ``client_failed`` event; a straggler multiplies the
client's train segment on the simulated clock; corruption mutates the
update's float payload after the executor returns it (the trained result
itself stays healthy — corruption models the *transport*, and the
coordinator's validation hook is what should catch it).

A :class:`FaultSpec` travels inside :class:`~repro.fl.aggregation.
ExecutionConfig` (and, as a kwargs dict, on
:class:`~repro.constraints.spec.ConstraintSpec`), serialising only when
enabled so existing specs keep their content hashes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sanitizers import check_range, drop_fixed_keys
from .seeding import fault_rng

__all__ = ["FaultSpec", "FaultModel", "FaultPlan", "CORRUPT_MODES",
           "corrupt_update", "is_flat_upload"]

#: How a corrupted upload is mangled: non-finite payloads (``nan``/``inf``),
#: a silent magnitude blow-up (``scale``) or a silent erasure (``zero``).
#: The first two are what NaN/Inf validation catches; nothing catches the
#: latter two (validation judges no magnitude), so a ``scale`` or ``zero``
#: upload is aggregated — what an undefended server does with them.
CORRUPT_MODES = ("nan", "inf", "scale", "zero")


@dataclass(frozen=True)
class FaultSpec:
    """Per-dispatch failure probabilities and shapes (all default off)."""

    #: P(device crashes after training, before its upload lands).
    crash_prob: float = 0.0
    #: P(client is a straggler this dispatch) and the train-time multiplier
    #: applied when it is.
    straggler_prob: float = 0.0
    straggler_factor: float = 4.0
    #: P(the upload arrives corrupted) and how (see :data:`CORRUPT_MODES`).
    corrupt_prob: float = 0.0
    corrupt_mode: str = "nan"
    #: multiplier for ``corrupt_mode="scale"``.
    corrupt_factor: float = 1e6

    def __post_init__(self):
        for name in ("crash_prob", "straggler_prob", "corrupt_prob"):
            check_range(name, getattr(self, name), "[0, 1]")
        if self.corrupt_mode not in CORRUPT_MODES:
            raise ValueError(f"unknown corrupt_mode {self.corrupt_mode!r}; "
                             f"known: {CORRUPT_MODES}")
        check_range("straggler_factor", self.straggler_factor, "[1, inf)")
        check_range("corrupt_factor", self.corrupt_factor, "(-inf, inf)")

    @property
    def enabled(self) -> bool:
        return (self.crash_prob > 0 or self.straggler_prob > 0
                or self.corrupt_prob > 0)

    # ------------------------------------------------------------------
    # Serialisation (stable JSON-safe form; used by RunSpec hashing)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict; inverse of :meth:`from_dict`."""
        return {
            "crash_prob": self.crash_prob,
            "straggler_prob": self.straggler_prob,
            "straggler_factor": self.straggler_factor,
            "corrupt_prob": self.corrupt_prob,
            "corrupt_mode": self.corrupt_mode,
            "corrupt_factor": self.corrupt_factor,
            "seed": None,  # removed knob at its one value; keeps spec hashes
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        return cls(**drop_fixed_keys("FaultSpec", payload, {"seed": None}))


@dataclass(frozen=True)
class FaultPlan:
    """The drawn fate of one client dispatch."""

    crash: bool = False
    #: train-segment multiplier (1.0 = nominal speed).
    slowdown: float = 1.0
    #: corruption mode applied to the upload (None = clean).
    corrupt: str | None = None

    @property
    def clean(self) -> bool:
        return not self.crash and self.slowdown == 1.0 and self.corrupt is None


class FaultModel:
    """Draws :class:`FaultPlan` decisions from the seeded fault stream.

    Stateless by design: :meth:`plan` re-derives its generator per call, so
    consulting the model for client A never shifts client B's draws — the
    property that makes fault schedules executor- and order-independent.
    """

    def __init__(self, spec: FaultSpec, run_seed: int):
        self.spec = spec
        self.run_seed = int(run_seed)

    def plan(self, version: int, client_id: int,
             dispatch: int = 0) -> FaultPlan:
        """The fate of ``client_id``'s dispatch at server ``version``.

        Draw order is fixed (crash, straggler, corrupt) so adding a later
        probability to a profile never reshuffles the earlier decisions.
        """
        spec = self.spec
        if not spec.enabled:
            return FaultPlan()
        rng = fault_rng(self.run_seed, version, client_id, dispatch)
        crash = bool(spec.crash_prob > 0
                     and rng.random() < spec.crash_prob)
        slowdown = 1.0
        if spec.straggler_prob > 0 and rng.random() < spec.straggler_prob:
            slowdown = float(spec.straggler_factor)
        corrupt = None
        if spec.corrupt_prob > 0 and rng.random() < spec.corrupt_prob:
            corrupt = spec.corrupt_mode
        return FaultPlan(crash=crash, slowdown=slowdown, corrupt=corrupt)


def _corrupt_array(array: np.ndarray, mode: str, factor: float) -> None:
    """Mangle one float array in place according to ``mode``."""
    if mode == "nan":
        array.flat[:: max(1, array.size // 8)] = np.nan
    elif mode == "inf":
        array.flat[:: max(1, array.size // 8)] = np.inf
    elif mode == "scale":
        array *= factor
    elif mode == "zero":
        array[...] = 0.0
    else:  # pragma: no cover - guarded by FaultSpec.__post_init__
        raise ValueError(f"unknown corrupt_mode {mode!r}")


def _corrupt_payload(value, mode: str, factor: float):
    """Recursively corrupt the float-array leaves of an uplink payload.

    Integer arrays and non-array leaves pass through intact —
    corruption models numeric garbage on the wire, not a malformed message,
    so the aggregation path still parses the payload and the validation
    hook gets to judge the numbers.
    """
    if isinstance(value, np.ndarray):
        if np.issubdtype(value.dtype, np.floating):
            copy = value.copy()
            _corrupt_array(copy, mode, factor)
            return copy
        return value
    if isinstance(value, tuple):
        return tuple(_corrupt_payload(v, mode, factor) for v in value)
    if isinstance(value, dict):
        return {k: _corrupt_payload(v, mode, factor) for k, v in value.items()}
    if isinstance(value, list):
        return [_corrupt_payload(v, mode, factor) for v in value]
    return value


def is_flat_upload(payload) -> bool:
    """Whether ``payload`` is a parameter-averaging ``(values, key)``."""
    return (isinstance(payload, tuple) and len(payload) == 2
            and isinstance(payload[1], tuple))


def corrupt_update(update, mode: str, factor: float = 1e6,
                   resolve=None) -> None:
    """Corrupt a :class:`~repro.fl.executor.ClientResult` in place.

    Replaces the payload with a corrupted copy (the executor's trained
    arrays may be shared with coordinator state — e.g. the inline path —
    so they are never mutated) and, for non-finite modes, poisons the
    reported train loss the way a faulting device would.  Given the
    algorithm's ``resolve_upload``, a flat upload is mangled state entry by
    state entry, as a per-entry upload would be.
    """
    if resolve is not None and is_flat_upload(update.payload):
        values, key = update.payload
        values = values.copy()
        bounds = resolve(key).bounds
        for start, stop in zip(bounds, bounds[1:]):
            _corrupt_array(values[start:stop], mode, factor)
        update.payload = (values, key)
    else:
        update.payload = _corrupt_payload(update.payload, mode, factor)
    if mode in ("nan", "inf"):
        update.train_loss = float("nan") if mode == "nan" else float("inf")

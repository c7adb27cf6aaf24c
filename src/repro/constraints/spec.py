"""Constraint-case specifications (Section IV of the paper).

A :class:`ConstraintSpec` names the active resource constraints and how
their budgets are derived.  Budgets can be given absolutely (seconds /
bytes — the natural choice at paper scale) or *relatively*: as a quantile of
the fleet's cost for the largest pool entry, which keeps the constraint
binding at any simulation scale (our tiny models would otherwise satisfy
every absolute edge budget trivially).

Beyond the paper's three *resource* cases, a spec also names the fleet's
**availability scenario** — always-on, diurnal day/night cycles, Markov
on/off churn, or random mid-round dropout (see
:mod:`repro.fl.availability`).  Resource constraints shape *which model* a
client can train; availability shapes *whether it is there to train at
all*, and the event-driven runtime consumes both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..fl.availability import AVAILABILITY_MODELS
from ..fl.sanitizers import check_range

__all__ = ["ConstraintSpec", "CONSTRAINT_KINDS", "AVAILABILITY_KINDS"]

CONSTRAINT_KINDS = ("computation", "communication", "memory")

#: Availability scenarios: the registry names of :mod:`repro.fl.availability`.
AVAILABILITY_KINDS = tuple(AVAILABILITY_MODELS)

#: Memory budget per fleet tier, as a fraction of the pool's largest entry's
#: training memory.  Mirrors the paper's tiers: 16 GB devices train the
#: largest model, 4 GB devices a mid one, CPU-only devices the smallest.
DEFAULT_TIER_FACTORS = {"16gb_gpu": 1.05, "4gb_gpu": 0.60, "no_gpu": 0.35}


@dataclass(frozen=True)
class ConstraintSpec:
    """Which resources are limited and how tight the budgets are."""

    constraints: tuple[str, ...] = ("computation",)
    #: relative budgets: fleet quantile of the largest entry's cost.
    deadline_quantile: float = 0.35
    comm_quantile: float = 0.35
    #: absolute overrides (seconds); None = derive from quantile.
    round_deadline_s: float | None = None
    comm_budget_s: float | None = None
    #: memory case: relative tier budgets or absolute device memory.
    tier_factors: dict = field(default_factory=lambda: dict(DEFAULT_TIER_FACTORS))
    memory_absolute: bool = False
    memory_batch_size: int = 8
    memory_headroom: float = 0.8
    local_epochs: int = 1
    #: fleet availability scenario (see :data:`AVAILABILITY_KINDS`).
    availability: str = "always_on"
    availability_kwargs: dict = field(default_factory=dict)
    #: fault-injection profile as :class:`~repro.fl.faults.FaultSpec`
    #: kwargs (empty = healthy fleet).  Availability shapes whether a
    #: client is there to train; faults shape whether its work *survives*.
    faults: dict = field(default_factory=dict)

    def __post_init__(self):
        unknown = set(self.constraints) - set(CONSTRAINT_KINDS)
        if unknown:
            raise ValueError(f"unknown constraints {sorted(unknown)}; "
                             f"known: {CONSTRAINT_KINDS}")
        if self.availability not in AVAILABILITY_KINDS:
            raise ValueError(
                f"unknown availability scenario {self.availability!r}; "
                f"known: {AVAILABILITY_KINDS}")
        for name in ("deadline_quantile", "comm_quantile"):
            check_range(name, getattr(self, name), "[0, 1]")
        for name in ("round_deadline_s", "comm_budget_s", "memory_headroom"):
            if getattr(self, name) is not None:     # None: derive the budget
                check_range(name, getattr(self, name), "(0, inf)")
        if self.faults:
            from ..fl.faults import FaultSpec
            FaultSpec.from_dict(self.faults)  # validate at spec build time

    @property
    def label(self) -> str:
        """Short display label, e.g. ``"mem+comm"`` (Figure 7's x-axis).

        Availability scenarios other than always-on are appended, e.g.
        ``"comp/markov"``.
        """
        short = {"computation": "comp", "communication": "comm",
                 "memory": "mem"}
        label = "+".join(short[c] for c in self.constraints) or "none"
        if self.availability != "always_on":
            label = f"{label}/{self.availability}"
        return label

    def execution_config(self, policy: str = "sync", **overrides):
        """Build an :class:`~repro.fl.aggregation.ExecutionConfig` running
        this spec's availability scenario (and fault profile, if any)
        under the given policy."""
        from ..fl.aggregation import ExecutionConfig
        from ..fl.faults import FaultSpec
        kwargs = dict(policy=policy, availability=self.availability,
                      availability_kwargs=dict(self.availability_kwargs))
        if self.faults:
            kwargs["faults"] = FaultSpec.from_dict(self.faults)
        kwargs.update(overrides)
        return ExecutionConfig(**kwargs)

    # ------------------------------------------------------------------
    # Serialisation (stable JSON-safe form; used by RunSpec hashing)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict; inverse of :meth:`from_dict`.

        ``faults`` serialises only when non-empty: pre-existing specs keep
        their exact payload, so no cached content hash ever moves.
        """
        payload = {
            "constraints": list(self.constraints),
            "deadline_quantile": self.deadline_quantile,
            "comm_quantile": self.comm_quantile,
            "round_deadline_s": self.round_deadline_s,
            "comm_budget_s": self.comm_budget_s,
            "tier_factors": dict(self.tier_factors),
            "memory_absolute": self.memory_absolute,
            "memory_batch_size": self.memory_batch_size,
            "memory_headroom": self.memory_headroom,
            "local_epochs": self.local_epochs,
            "availability": self.availability,
            "availability_kwargs": dict(self.availability_kwargs),
        }
        if self.faults:
            payload["faults"] = dict(self.faults)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ConstraintSpec":
        payload = dict(payload)
        payload["constraints"] = tuple(payload.get("constraints",
                                                   ("computation",)))
        return cls(**payload)

"""Declarative experiment descriptions.

A :class:`RunSpec` is the full, serialisable description of one simulated
cell: *which algorithm*, *which dataset*, *under which constraint case*,
*at which scale* (with optional field overrides), *how rounds execute*,
*how data is partitioned* and *with which seed*.  Every experiment artifact
is a sweep of RunSpecs, which buys three things:

* **addressability** — :meth:`RunSpec.content_hash` is a deterministic
  digest of the canonical JSON form, so a run can be cached, looked up and
  shared across figures (:mod:`repro.experiments.cache`);
* **reproducibility** — :meth:`to_dict`/:meth:`from_dict` round-trip
  losslessly, so the exact cell a number came from can be stored next to
  the number;
* **composability** — sweeps are plain data transformations
  (:meth:`replace`), not copies of runner plumbing.

The ``tag`` field distinguishes runs whose behaviour is altered *outside*
the spec (an ablation mutating the built algorithm, a derived execution
config): callers providing such hooks must set a unique tag so the content
hash stays faithful.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace as _dc_replace
from typing import ClassVar

from ..constraints import ConstraintSpec
from ..fl.aggregation import ExecutionConfig
from ..fl.executor import EXECUTOR_KINDS
from .scales import ExperimentScale, resolve_scale

__all__ = ["RunSpec"]

#: bump when the serialised form changes incompatibly (invalidates caches).
SPEC_VERSION = 1


@dataclass(frozen=True)
class RunSpec:
    """One simulated (algorithm, dataset, constraint, scale, seed) cell."""

    algorithm: str
    dataset: str
    constraints: ConstraintSpec = field(default_factory=ConstraintSpec)
    scale: str = "demo"
    #: per-field overrides applied to the named scale preset
    #: (see :meth:`repro.experiments.scales.ExperimentScale.with_overrides`).
    scale_overrides: dict = field(default_factory=dict)
    execution: ExecutionConfig | None = None
    partition_scheme: str = "auto"
    alpha: float = 0.5
    #: overrides the scale's per-dataset client count when set.
    num_clients: int | None = None
    seed: int = 0
    #: marks out-of-spec behaviour changes (ablation mutations, derived
    #: execution configs) so they cache under their own hash.
    tag: str = ""
    #: client-work parallelism for this cell: ``workers=None`` inherits
    #: the process default (:class:`repro.experiments.runner.RunDefaults`),
    #: ``executor=None`` means ``"auto"`` (a process pool when there is
    #: more than one worker, else inline).  Parallelism cannot change
    #: results — the executor determinism contract — so neither field is
    #: serialised or hashed: the same cell caches identically at any
    #: worker count.
    workers: int | None = None
    executor: str | None = None    # "auto" | "inline" | "process"

    #: fields deliberately absent from :meth:`to_dict` and therefore from
    #: :meth:`content_hash`: execution mechanics that cannot change
    #: results.  ``tests/test_contracts.py`` checks that changing any other
    #: field changes the hash, so a new field can never be hash-invisible
    #: by accident.
    HASH_EXCLUDED: ClassVar[frozenset[str]] = frozenset({"workers",
                                                         "executor"})

    def __post_init__(self):
        if self.executor is not None and self.executor not in EXECUTOR_KINDS:
            raise ValueError(f"unknown executor {self.executor!r}; "
                             f"known: {EXECUTOR_KINDS}")

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolved_scale(self) -> ExperimentScale:
        return resolve_scale(self.scale, self.scale_overrides)

    def resolved_execution(self) -> ExecutionConfig | None:
        """The execution block the runner will actually use.

        An explicit execution wins; otherwise a non-trivial availability
        scenario or a fault profile derives the block that honours it
        (:meth:`ConstraintSpec.execution_config`).  ``None`` — a plain
        spec — runs synchronous rounds on an always-on fleet and keeps the
        block-less record format (no event timeline).
        """
        if self.execution is not None:
            return self.execution
        if (self.constraints.availability != "always_on"
                or self.constraints.faults):
            return self.constraints.execution_config()
        return None

    # ------------------------------------------------------------------
    # Sweep helpers
    # ------------------------------------------------------------------
    def replace(self, **changes) -> "RunSpec":
        return _dc_replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialisation + content addressing
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict; inverse of :meth:`from_dict`.

        ``workers``/``executor`` are deliberately absent: they are
        execution mechanics with no effect on results, so specs differing
        only in parallelism serialise, hash and cache identically
        (:meth:`from_dict` tolerates payloads that carry them anyway).
        """
        return {
            "version": SPEC_VERSION,
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "constraints": self.constraints.to_dict(),
            "scale": self.scale,
            "scale_overrides": dict(self.scale_overrides),
            "execution": (None if self.execution is None
                          else self.execution.to_dict()),
            "partition_scheme": self.partition_scheme,
            "alpha": self.alpha,
            "num_clients": self.num_clients,
            "seed": self.seed,
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunSpec":
        payload = dict(payload)
        version = payload.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(f"unsupported RunSpec version {version!r} "
                             f"(this build reads {SPEC_VERSION})")
        payload["constraints"] = ConstraintSpec.from_dict(
            payload.get("constraints", {}))
        execution = payload.get("execution")
        payload["execution"] = (None if execution is None
                                else ExecutionConfig.from_dict(execution))
        return cls(**payload)

    def content_hash(self) -> str:
        """Deterministic digest of the canonical JSON form.

        Stable across processes and sessions: the canonical form sorts keys
        and uses compact separators, so two equal specs always share a hash
        and any field change produces a new one: sha256 of the sorted-key
        compact JSON, first 24 hex chars.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]

    @property
    def label(self) -> str:
        """Short human-readable cell label (not unique — use the hash)."""
        parts = [self.algorithm, self.dataset, self.constraints.label,
                 f"{self.scale}", f"seed{self.seed}"]
        if self.tag:
            parts.append(self.tag)
        return "/".join(parts)

"""Round-by-round records of a federated run + derived metrics inputs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RoundRecord", "History"]


@dataclass
class RoundRecord:
    """One federated round's outcome."""

    round_index: int
    #: simulated wall-clock at the END of this round, seconds.
    sim_time_s: float
    #: slowest sampled client's compute+comm time this round, seconds.
    round_time_s: float
    #: mean local training loss over sampled clients.
    train_loss: float
    #: global-test accuracy (None on rounds without evaluation).
    global_accuracy: float | None = None
    #: dropped/stale-update counters and other per-round annotations
    #: (e.g. ``dispatched``/``received``/``dropped_deadline`` from the
    #: event-driven runtime).
    extras: dict = field(default_factory=dict)
    #: per-event timeline of the round (JSON-safe dicts with at least
    #: ``t`` and ``type``), recorded by the event-driven runtime.
    events: list = field(default_factory=list)


@dataclass
class History:
    """Full record of a federated run."""

    algorithm: str
    dataset: str
    records: list[RoundRecord] = field(default_factory=list)
    #: per-device accuracies measured at the end of the run.
    final_device_accuracies: list[float] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def evaluated(self) -> list[RoundRecord]:
        return [r for r in self.records if r.global_accuracy is not None]

    @property
    def final_accuracy(self) -> float:
        evaluated = self.evaluated
        if not evaluated:
            raise ValueError("run has no evaluated rounds")
        return evaluated[-1].global_accuracy

    @property
    def total_sim_time_s(self) -> float:
        """Simulated wall-clock at the end of the last recorded round.

        Raises :class:`ValueError` on an empty history — an empty run has
        no clock, and the historical ``0.0`` silently poisoned downstream
        time metrics.  Note that for a *partial* history (a run still in
        progress) this is the clock up to the last recorded round, not a
        full-run estimate; resumed (checkpointed) runs re-load their
        pre-resume rounds, so their total covers the whole run.
        """
        if not self.records:
            raise ValueError("history has no rounds; total_sim_time_s is "
                             "undefined on an empty run")
        return self.records[-1].sim_time_s

    def time_to_accuracy(self, target: float) -> float | None:
        """Simulated seconds until global accuracy first reaches ``target``.

        Returns ``None`` when the run never reaches the target (the paper's
        time-to-accuracy metric, measured on the simulated clock) and
        raises :class:`ValueError` on an empty history, where "never
        reached" would be vacuous and misleading.  On a partial history
        the answer is definitive when a crossing exists; a ``None`` only
        means "not reached *yet*" if more rounds were still to come.
        """
        if not self.records:
            raise ValueError("history has no rounds; time_to_accuracy is "
                             "undefined on an empty run")
        for record in self.records:
            if record.global_accuracy is not None \
                    and record.global_accuracy >= target:
                return record.sim_time_s
        return None

    def stability(self) -> float:
        """Variance of final per-device accuracies (paper metric iii)."""
        if not self.final_device_accuracies:
            raise ValueError("no per-device accuracies recorded")
        return float(np.var(self.final_device_accuracies))

    def dropped_counts(self) -> dict[str, int]:
        """Total dropped updates over the run, keyed by reason.

        Sums the ``dropped_*`` extras the event-driven runtime records
        (``dropout``, ``churn``, ``deadline``); empty for legacy runs.
        """
        totals: dict[str, int] = {}
        for record in self.records:
            for key, value in record.extras.items():
                if key.startswith("dropped_"):
                    reason = key[len("dropped_"):]
                    totals[reason] = totals.get(reason, 0) + int(value)
        return totals

    def stale_update_count(self) -> int:
        """Updates aggregated with staleness > 0 (buffered execution)."""
        return sum(int(r.extras.get("stale_updates", 0))
                   for r in self.records)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_json(self, indent: int | None = 1) -> str:
        """Serialise the full run — records, extras, event timelines and
        per-device accuracies — to a JSON string (see also
        :func:`repro.fl.serialization.save_history`)."""
        import json

        from .serialization import history_to_dict
        return json.dumps(history_to_dict(self), indent=indent)

    @classmethod
    def from_json(cls, payload: str) -> "History":
        """Inverse of :meth:`to_json`."""
        import json

        from .serialization import history_from_dict
        return history_from_dict(json.loads(payload))

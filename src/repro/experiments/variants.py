"""What a :class:`~repro.experiments.spec.RunSpec`'s ``tag`` changes.

A plain spec (``tag == ""``) runs exactly what its fields say.  A tag is
hashed with the spec and matched here character for character:

* ``ablation:<name>`` switches one MHFL method's distinctive mechanism
  off on the built algorithm (:data:`ABLATIONS`);
* :data:`DEADLINE_TAG` runs synchronous rounds with a deadline at the
  fleet's :data:`DEADLINE_QUANTILE` round time and :data:`OVER_SELECT`
  over-selection;
* :func:`buffered_tag` runs FedBuff-style buffered aggregation sized by
  the scale's sampled cohort.

:func:`~repro.experiments.runner.prepare_scenario` refuses any other tag
and applies :func:`variant_change` to the built algorithm, which a pool
hands its workers as it is; the runner takes the execution block from
:func:`variant_execution`, derived from the built fleet.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

__all__ = ["ABLATIONS", "Ablation", "DEADLINE_QUANTILE", "OVER_SELECT",
           "DEADLINE_TAG", "buffered_tag", "variant_change",
           "variant_execution"]


class Ablation(NamedTuple):
    algorithm: str
    dataset: str
    #: switches the mechanism off on the built algorithm, in place.
    change: Callable
    description: str


def _disable_depthfl_distill(algorithm) -> None:
    algorithm.distill_weight = 0.0


def _disable_inclusive_momentum(algorithm) -> None:
    algorithm.momentum_beta = 0.0


def _disable_fjord_sampling(algorithm) -> None:
    algorithm.pool = None   # no pool -> client trains its own width only


def _static_window(round_index: int) -> int:
    return 0


def _freeze_fedrolex_window(algorithm) -> None:
    # A module-level function, so the changed algorithm still pickles.
    algorithm.rolling_shift = _static_window


ABLATIONS = {
    "depthfl_no_distill": Ablation("depthfl", "harbox",
                                   _disable_depthfl_distill,
                                   "DepthFL without head self-distillation"),
    "inclusivefl_no_momentum": Ablation(
        "inclusivefl", "harbox", _disable_inclusive_momentum,
        "InclusiveFL without momentum distillation"),
    "fjord_no_ordered_dropout": Ablation(
        "fjord", "harbox", _disable_fjord_sampling,
        "Fjord without ordered-dropout sampling"),
    "fedrolex_static_window": Ablation(
        "fedrolex", "harbox", _freeze_fedrolex_window,
        "FedRolex with a frozen (prefix) window"),
}
_ABLATION_TAGS = {f"ablation:{name}": ablation
                  for name, ablation in ABLATIONS.items()}

#: fleet quantile of the full round time used as the deadline (drops the
#: slowest ~20% of the fleet when they are sampled).
DEADLINE_QUANTILE = 0.8
#: extra clients dispatched per deadline round to hedge the drops.
OVER_SELECT = 0.25
DEADLINE_TAG = f"async:deadline:q{DEADLINE_QUANTILE}:os{OVER_SELECT}"


def buffered_tag(spec) -> str:
    return f"async:buffered:sr{spec.resolved_scale().sample_ratio}"


def _deadline(spec, algorithm):
    return spec.constraints.execution_config(
        deadline_s=algorithm.fleet_round_time_quantile(DEADLINE_QUANTILE),
        over_select=OVER_SELECT)


def _buffered(spec, algorithm):
    target = max(1, int(round(
        algorithm.num_clients * spec.resolved_scale().sample_ratio)))
    return spec.constraints.execution_config(
        policy="buffered", buffer_size=max(1, target // 2),
        max_concurrency=target)


def _derivations(spec) -> dict[str, Callable]:
    return {DEADLINE_TAG: _deadline, buffered_tag(spec): _buffered}


def variant_change(spec) -> Callable | None:
    """The in-place algorithm change ``spec.tag`` names, if any.  Refuses,
    by name, a tag the table does not know and an ablation of another
    algorithm."""
    if not spec.tag or spec.tag in _derivations(spec):
        return None
    ablation = _ABLATION_TAGS.get(spec.tag)
    if ablation is None:
        known = sorted([*_ABLATION_TAGS, *_derivations(spec)])
        raise ValueError(f"unknown RunSpec tag {spec.tag!r}; known for "
                         f"this spec: {known}")
    if ablation.algorithm != spec.algorithm:
        raise ValueError(f"tag {spec.tag!r} applies to "
                         f"{ablation.algorithm!r}, not {spec.algorithm!r}")
    return ablation.change


def variant_execution(spec, algorithm):
    """The cell's execution block: derived from the built ``algorithm``
    when ``spec.tag`` names a derivation, else the spec's own."""
    derive = _derivations(spec).get(spec.tag)
    return (spec.resolved_execution() if derive is None
            else derive(spec, algorithm))

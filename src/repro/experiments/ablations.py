"""Ablations of each MHFL method's distinctive design choice.

Each MHFL method carries a distinctive mechanism on top of plain sub-model
averaging; these ablations switch the mechanism off and rerun the same
constrained scenario, quantifying what the mechanism actually buys:

* **DepthFL − self-distillation** — drop the mutual KL between auxiliary
  heads (``distill_weight = 0``);
* **InclusiveFL − momentum distillation** — drop the deeper-block update
  injection (``momentum_beta = 0``);
* **Fjord − ordered dropout** — train each client's own width only, never a
  sampled smaller one (reduces Fjord to SHeteroFL's static scheme);
* **FedRolex − rolling** — freeze the window at shift 0 (reduces FedRolex
  to prefix extraction).
"""

from __future__ import annotations

from ..constraints import ConstraintSpec
from .registry import register_artifact
from .runner import execute_spec
from .spec import RunSpec

__all__ = ["ABLATIONS", "rows"]


def _disable_depthfl_distill(algorithm) -> None:
    algorithm.distill_weight = 0.0


def _disable_inclusive_momentum(algorithm) -> None:
    algorithm.momentum_beta = 0.0


def _disable_fjord_sampling(algorithm) -> None:
    algorithm.pool = None   # no pool -> client trains its own width only


def _freeze_fedrolex_window(algorithm) -> None:
    algorithm.rolling_shift = lambda round_index: 0


#: name -> (algorithm, dataset, mechanism-off mutation, description)
ABLATIONS = {
    "depthfl_no_distill": ("depthfl", "harbox", _disable_depthfl_distill,
                           "DepthFL without head self-distillation"),
    "inclusivefl_no_momentum": ("inclusivefl", "harbox",
                                _disable_inclusive_momentum,
                                "InclusiveFL without momentum distillation"),
    "fjord_no_ordered_dropout": ("fjord", "harbox", _disable_fjord_sampling,
                                 "Fjord without ordered-dropout sampling"),
    "fedrolex_static_window": ("fedrolex", "harbox", _freeze_fedrolex_window,
                               "FedRolex with a frozen (prefix) window"),
}


def _run_variant(algorithm_name: str, dataset: str, scale: str, seed: int,
                 mutate=None, tag: str = "",
                 scale_overrides: dict | None = None) -> float:
    """One constrained run, optionally with the mechanism switched off.

    The ablated variant carries a ``tag`` naming the mutation, so it caches
    under its own content hash (the full variant shares its cache entry
    with every other plain run of the same cell).
    """
    spec = RunSpec(algorithm=algorithm_name, dataset=dataset,
                   constraints=ConstraintSpec(constraints=("computation",)),
                   scale=scale, scale_overrides=scale_overrides or {},
                   seed=seed, tag=tag)
    return execute_spec(spec, mutate=mutate).final_accuracy


@register_artifact("ablations", title="Ablations: what each mechanism buys")
def rows(results, scale: str = "demo", seed: int = 0,
         names: list[str] | None = None,
         scale_overrides: dict | None = None) -> list[dict]:
    out = []
    for name in (names or list(ABLATIONS)):
        algorithm, dataset, mutate, description = ABLATIONS[name]
        full = _run_variant(algorithm, dataset, scale, seed,
                            scale_overrides=scale_overrides)
        ablated = _run_variant(algorithm, dataset, scale, seed, mutate,
                               tag=f"ablation:{name}",
                               scale_overrides=scale_overrides)
        acc_full, acc_ablated = round(full, 4), round(ablated, 4)
        out.append({"ablation": name, "dataset": dataset,
                     "acc_full": acc_full,
                     "acc_ablated": acc_ablated,
                     # derived from the *rounded* fields so the row is
                     # self-consistent at any rounding boundary.
                     "mechanism_gain": round(acc_full - acc_ablated, 4),
                     "description": description})
    return out

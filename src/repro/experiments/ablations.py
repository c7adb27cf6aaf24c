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

The ablated cell is the full cell tagged ``ablation:<name>``; the change
itself lives in :data:`repro.experiments.variants.ABLATIONS`.
"""

from __future__ import annotations

from ..constraints import ConstraintSpec
from .registry import register_artifact
from .spec import RunSpec
from .variants import ABLATIONS

__all__ = ["specs", "rows"]


def specs(scale: str = "demo", seed: int = 0,
          names: list[str] | None = None,
          scale_overrides: dict | None = None) -> list[RunSpec]:
    """(full, ablated) cell pairs, one pair per ablation name."""
    cells = []
    for name in (names or list(ABLATIONS)):
        ablation = ABLATIONS[name]
        full = RunSpec(algorithm=ablation.algorithm, dataset=ablation.dataset,
                       constraints=ConstraintSpec(
                           constraints=("computation",)),
                       scale=scale, scale_overrides=scale_overrides or {},
                       seed=seed)
        cells += [full, full.replace(tag=f"ablation:{name}")]
    return cells


@register_artifact("ablations", title="Ablations: what each mechanism buys",
                   specs=specs)
def rows(results, names: list[str] | None = None, **_) -> list[dict]:
    out = []
    for i, name in enumerate(names or list(ABLATIONS)):
        full, ablated = results[2 * i:2 * i + 2]
        acc_full = round(full.final_accuracy, 4)
        acc_ablated = round(ablated.final_accuracy, 4)
        out.append({"ablation": name, "dataset": full.spec.dataset,
                     "acc_full": acc_full,
                     "acc_ablated": acc_ablated,
                     # derived from the *rounded* fields so the row is
                     # self-consistent at any rounding boundary.
                     "mechanism_gain": round(acc_full - acc_ablated, 4),
                     "description": ABLATIONS[name].description})
    return out

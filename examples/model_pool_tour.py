"""A tour of the hardware substrate — no training, runs in seconds.

Walks the pieces Section IV of the paper builds: measure paper-scale
ResNet-101 variants (params / GFLOPs / activation bytes), price them on the
Table III devices with the analytic cost model, and let the constraint
assigner pick the largest variant each sampled client trains within a round
deadline.

Run:  python examples/model_pool_tour.py
"""

from repro.algorithms import get_algorithm
from repro.constraints import ConstraintAssigner, ConstraintSpec
from repro.experiments import format_table
from repro.hw import DEFAULT_COST_MODEL, get_device, sample_fleet
from repro.models import build_model


def main() -> None:
    cm = DEFAULT_COST_MODEL
    base = build_model("resnet101", num_classes=100, seed=0, scale="paper")
    pool = get_algorithm("sheterofl").build_pool(base)

    rows = []
    for entry in pool:
        stats = entry.stats
        rows.append({
            "variant": entry.key,
            "params_M": round(stats.params_millions, 2),
            "gflops": round(stats.gflops_per_sample, 3),
            "act_MB_per_sample": round(
                stats.activation_bytes_per_sample / 2**20, 2),
            "mem_MB(b=8)": round(cm.training_memory_bytes(stats, 8) / 2**20, 1),
        })
    print(format_table(rows, title="Paper-scale ResNet-101 width pool"))
    print()

    for device_name in ("jetson_orin_nx", "jetson_nano", "raspberry_pi_4b"):
        time_full = cm.training_time_s(pool.largest.stats,
                                       get_device(device_name),
                                       num_samples=500)
        print(f"{device_name:16s} full model round = {time_full:9.1f}s")
    print()

    # The computation constraint with a fixed 900 s round deadline: every
    # client gets the largest variant it can train in time.
    fleet = sample_fleet(5, seed=0)
    assigner = ConstraintAssigner(
        ConstraintSpec(constraints=("computation",), round_deadline_s=900.0),
        pool, fleet, shard_sizes=[500] * len(fleet))
    for cap, picked in zip(fleet, assigner.assign()):
        print(f"client {cap.client_id} ({cap.tier:8s}, "
              f"{cap.compute_flops / 1e9:5.2f} GFLOP/s): largest variant "
              f"within a 900 s round = {picked.key}")


if __name__ == "__main__":
    main()

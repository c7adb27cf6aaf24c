"""Topology heterogeneity on UCI-HAR: FedProto vs Fed-ET.

Each client runs an entirely different customized CNN (the HAR family);
FedProto exchanges class prototypes, Fed-ET distils a server model from the
ensemble.  The example prints each client's architecture and the per-device
accuracies behind the stability metric.

Run:  python examples/topology_har.py
"""

from repro.constraints import ConstraintSpec
from repro.experiments import RunSpec, execute_specs, format_table


def main() -> None:
    spec = ConstraintSpec(constraints=("computation",))
    rows = []
    for result in execute_specs(
            [RunSpec(algorithm=name, dataset="ucihar", constraints=spec,
                     scale="demo", seed=0)
             for name in ("fedproto", "fedet")]):
        name = result.spec.algorithm
        print(f"{name} architecture assignment: "
              f"{result.level_distribution()}")
        accs = result.history.final_device_accuracies
        rows.append({
            "algorithm": name,
            "global_acc": round(result.final_accuracy, 4),
            "device_acc_min": round(min(accs), 4),
            "device_acc_max": round(max(accs), 4),
            "stability_var": round(result.history.stability(), 6),
        })
    print()
    print(format_table(rows, title="UCI-HAR topology heterogeneity"))


if __name__ == "__main__":
    main()

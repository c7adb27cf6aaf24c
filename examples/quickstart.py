"""Quickstart: one model-heterogeneous federated run, end to end.

Builds the HAR-BOX task, samples a heterogeneous device fleet, lets the
computation constraint assign each client the largest width variant it can
train in time, runs SHeteroFL for a few dozen rounds, and reports the four
PracMHBench metrics against the smallest-homogeneous baseline.

Run:  python examples/quickstart.py
"""

from repro.experiments import (execute_specs, expand_grid, format_table,
                               summarize_results)


def main() -> None:
    # The grid is SHeteroFL plus the FedAvg-smallest effectiveness baseline.
    specs = expand_grid(["sheterofl"], ["harbox"], ("computation",),
                        scale="demo", seeds=[0])
    rows = summarize_results(execute_specs(specs), ["sheterofl"])
    print(format_table(rows,
                       title="SHeteroFL on HAR-BOX (computation-limited)"))
    print("\nColumns: global_acc = final global-test accuracy;")
    print("tta_s = simulated seconds to the preset accuracy;")
    print("stability_var = variance of per-device accuracies (lower better);")
    print("effectiveness = gain over the smallest homogeneous FedAvg model.")


if __name__ == "__main__":
    main()

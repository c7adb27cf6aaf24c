"""Computation-limited MHFL on CIFAR-100 (the paper's Figure 4 CV column).

Compares one algorithm per heterogeneity level — SHeteroFL (width), DepthFL
(depth), Fed-ET (topology) — on ResNet-101 variants under the IMA-style
computation constraint: every client receives the largest variant it can
train inside the fleet-derived round deadline.

Run:  python examples/computation_limited_cifar100.py
"""

from repro.experiments import (execute_specs, expand_grid, format_table,
                               prepare_scenario, summarize_results)

ALGORITHMS = ["sheterofl", "depthfl", "fedet"]


def main() -> None:
    specs = expand_grid(ALGORITHMS, ["cifar100"], ("computation",),
                        scale="demo", seeds=[0])

    # Peek at the assignment the constraint produces for SHeteroFL: build
    # its scenario without running it.
    scenario, _ = prepare_scenario(specs[0])
    print("SHeteroFL capacity-level assignment under the deadline "
          f"({scenario.assigner.round_deadline_s:.0f}s):")
    for key, count in sorted(scenario.level_distribution().items()):
        print(f"  {key}: {count} clients")
    print()

    rows = summarize_results(execute_specs(specs), ALGORITHMS)
    print(format_table(rows,
                       title="CIFAR-100, computation-limited "
                             "(one algorithm per heterogeneity level)"))


if __name__ == "__main__":
    main()

"""Memory-limited MHFL on Stack Overflow with ALBERT (Figure 6's NLP column).

The memory case assigns models by device tier (16 GB GPU / 4 GB GPU /
no GPU, in market-share proportions).  The example shows the paper's key
memory-case effect: DepthFL — strong under compute/communication limits —
loses its edge because its activation-heavy variants do not fit small tiers,
while FeDepth's segment training stays feasible.

Run:  python examples/memory_limited_nlp.py
"""

from repro.experiments import (execute_specs, expand_grid, format_table,
                               summarize_results)

ALGORITHMS = ["sheterofl", "depthfl", "fedepth"]


def main() -> None:
    results = execute_specs(expand_grid(ALGORITHMS, ["stackoverflow"],
                                        ("memory",), scale="demo",
                                        seeds=[0]))

    print("Capacity levels assigned per algorithm (memory tiers binding):")
    levels = {r.spec.algorithm: r.level_distribution() for r in results}
    for name in ("depthfl", "fedepth", "sheterofl"):
        print(f"  {name:12s} {levels[name]}")
    print()

    rows = summarize_results(results, ALGORITHMS)
    print(format_table(rows,
                       title="Stack Overflow (ALBERT), memory-limited"))


if __name__ == "__main__":
    main()

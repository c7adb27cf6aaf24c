"""Find ``RunSpec`` seeds that dispatch the same work as a reference seed.

A seed decides the fleet, the partition and the sampling, so two seeds of one
cell dispatch different multisets of capacity levels and differ by up to 30 %
in wall time.  This tool computes a *work signature* per seed — which level
trained how many steps on how many samples, for every dispatched client round,
plus which levels the evaluation clients deploy — from a run with training
switched off (``max_batches=0``: dispatch, sampling, the simulated clock and
fault draws do not depend on training arithmetic).  Exact signature matches
are too rare to collect ten of (30-40 dispatches over four levels), so the
signature is priced with per-level client-round and evaluation times measured
on the reference seed's scenario, and the tool prints the seeds whose priced
work is within ``--tolerance`` of the reference seed's, with the same number
of rounds and a dispatch count within 2 %.

Pricing is linear in the counts and misses what is not (three ``conv_bn``
seeds priced within 1.1 % of seed 0 read 10 % above it in two ten-seed sets
of the benchmark), so ``--verify`` then
*measures* candidates: every round executes the reference seed's cell and
each candidate's once, in rotating order, each repetition calibrated the way
``bench_e2e.py`` calibrates one, and the tool prints each candidate's median
time as a ratio to the reference seed's.  ``workloads.SPEC_SEEDS`` holds
seed 0 and the nine candidates measured closest to it (followed by
``bench_e2e.py --regen-goldens``).

    python benchmarks/e2e/equiv_seeds.py --workload conv_bn --scan 0:400
    python benchmarks/e2e/equiv_seeds.py --workload conv_bn --verify 17,19,26
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import host  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PRICING_PASSES = 7
VERIFY_ROUNDS = 9


def work_signature(workload: str, spec_seed: int) -> dict:
    """What ``spec_seed`` dispatches: client rounds per ``level|steps|samples``
    and evaluation clients per level."""
    from repro.experiments import execute_spec

    spec = workloads.build_spec(workload, spec_seed, inline=True)
    scale = spec.resolved_scale()
    dry = spec.replace(scale_overrides={**spec.scale_overrides,
                                        "max_batches": 0,
                                        "eval_max_samples": 1})
    tracer = tracing.Tracer()
    tracer.record_dispatches()
    try:
        result = execute_spec(dry, cache=None)
    finally:
        tracer.uninstall()

    algorithm = result.scenario.algorithm
    train = Counter(
        "|".join(map(str, workloads.client_round_work(algorithm, scale, cid)))
        for cid, _ in tracer.dispatched)
    ids = sorted(algorithm.clients)
    stride = max(1, len(ids) // algorithm.eval_clients)
    evaluated = Counter(algorithm.clients[cid].entry.key
                        for cid in ids[::stride][:algorithm.eval_clients])
    return {"seed": spec_seed, "rounds": len(result.history.records),
            "eval_rounds": len(result.history.evaluated),
            "dispatches": len(tracer.dispatched),
            "train": dict(sorted(train.items())),
            "eval": dict(sorted(evaluated.items()))}


def level_prices(workload: str, spec_seed: int) -> dict:
    """Seconds per client round and per evaluation of each capacity level on
    the scenario ``spec_seed`` builds: the fastest of several passes, each
    pass visiting every level so a slow host phase hits all of them."""
    from repro.experiments import prepare_scenario
    from repro.fl.evaluate import accuracy
    from repro.fl.seeding import client_rng

    spec = workloads.build_spec(workload, spec_seed, inline=True)
    algorithm = prepare_scenario(spec)[0].algorithm
    #: algorithms without a global model evaluate every evaluation client's
    #: personal model on every evaluated round.
    per_device = hasattr(algorithm, "personal_model")
    by_level: dict[str, int] = {}
    for client_id in sorted(algorithm.clients):
        by_level.setdefault(algorithm.clients[client_id].entry.key, client_id)

    def timed(fn) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    prices: dict = {"train": {}, "eval": {}, "per_device_eval": per_device}
    for _ in range(PRICING_PASSES):
        for level, client_id in by_level.items():
            ctx = algorithm.clients[client_id]
            rng = client_rng(spec.seed, 0, client_id)
            train = timed(lambda: algorithm.run_client(client_id, 0, rng))
            deployed = (algorithm.personal_model(ctx) if per_device
                        else algorithm.build_client_model(ctx, 0, rng)[0])
            evaluate = timed(lambda: accuracy(deployed, algorithm.x_eval,
                                              algorithm.y_eval))
            for table, value in (("train", train), ("eval", evaluate)):
                prices[table][level] = min(value,
                                           prices[table].get(level, value))
    return prices


def priced_work(signature: dict, prices: dict) -> float:
    """Estimated seconds of seed-dependent work in a cell: client rounds by
    level plus evaluations of the evaluation clients' deployed variants
    (every evaluated round where the algorithm has no global model, once at
    the end otherwise; the full-model evaluation is the same for all seeds).
    """
    train = sum(count * prices["train"][key.split("|")[0]]
                for key, count in signature["train"].items())
    repeats = (signature["eval_rounds"] + 1 if prices["per_device_eval"]
               else 1)
    evaluate = repeats * sum(count * prices["eval"][key]
                             for key, count in signature["eval"].items())
    return train + evaluate


def measured_work(workload: str, spec_seeds, rounds: int) -> dict:
    """Calibrated seconds of each seed's (inline) cell: ``{seed: [one value
    per round]}``, the seeds visited in an order that rotates by one each
    round so that no seed always follows the same neighbour."""
    from repro.experiments import execute_spec

    specs = {seed: workloads.build_spec(workload, seed, inline=True)
             for seed in spec_seeds}
    order = list(specs)
    execute_spec(specs[order[0]], cache=None)  # warm-up
    times: dict = {seed: [] for seed in order}
    after = host.calibration_sample()
    for index in range(rounds):
        shift = index % len(order)
        for seed in order[shift:] + order[:shift]:
            before = after
            start = time.perf_counter()
            execute_spec(specs[seed], cache=None)
            wall_s = time.perf_counter() - start
            after = host.calibration_sample()
            times[seed].append(stats.calibrated(
                wall_s, (before + after) / 2.0, host.CALIB_REF_S))
    return times


def verify(workload: str, reference: int, candidates, rounds: int) -> None:
    times = measured_work(workload, [reference, *candidates], rounds)
    base = statistics.median(times[reference])
    print(f"{workload}: seed {reference} = {base:.3f} s "
          f"(spread {stats.iqr_share(times[reference]):.3f}, "
          f"{rounds} rounds)")
    ranked = sorted(candidates, key=lambda seed: abs(
        statistics.median(times[seed]) / base - 1))
    for seed in ranked:
        ratio = statistics.median(times[seed]) / base
        print(f"  seed {seed:4d}  x{ratio:.3f}  "
              f"(spread {stats.iqr_share(times[seed]):.3f})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--scan", default="0:160",
                        help="candidate RunSpec seeds as START:STOP")
    parser.add_argument("--reference", type=int, default=0)
    parser.add_argument("--tolerance", type=float, default=0.01,
                        help="allowed relative difference in priced work")
    parser.add_argument("--dump", action="store_true",
                        help="print every candidate's signature as JSON lines")
    parser.add_argument("--verify", metavar="SEEDS",
                        help="measure these comma-separated candidates "
                             "against the reference instead of scanning")
    args = parser.parse_args(argv)
    host.pin_blas_threads()  # before anything imports numpy
    if args.verify:
        verify(args.workload, args.reference,
               [int(part) for part in args.verify.split(",")], VERIFY_ROUNDS)
        return 0
    start, stop = (int(part) for part in args.scan.split(":"))

    prices = level_prices(args.workload, args.reference)
    print(f"prices on seed {args.reference}: {json.dumps(prices)}")
    reference = work_signature(args.workload, args.reference)
    target = priced_work(reference, prices)
    matches = []
    for seed in range(start, stop):
        signature = work_signature(args.workload, seed)
        levels = ({key.split("|")[0] for key in signature["train"]}
                  | set(signature["eval"]))
        if not levels <= set(prices["train"]):
            continue  # deploys a level the reference fleet never does
        signature["priced_s"] = priced_work(signature, prices)
        if args.dump:
            print(json.dumps(signature), flush=True)
        if (signature["rounds"] == reference["rounds"]
                and abs(signature["dispatches"] / reference["dispatches"] - 1)
                <= 0.02
                and abs(signature["priced_s"] / target - 1) <= args.tolerance):
            matches.append(seed)
    print(f"{args.workload}: priced work of seed {args.reference} = "
          f"{target:.3f} s; seeds within {args.tolerance:.1%}: "
          f"{tuple(matches)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

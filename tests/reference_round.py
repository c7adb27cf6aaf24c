"""The reference synchronous round the algorithm tests drive by hand."""

import numpy as np

from repro.fl.seeding import client_rng


def run_round(algorithm, round_index, sampled_ids, rng, run_seed=0):
    """Train ``sampled_ids`` in order, then aggregate; returns the round's
    mean train loss.

    Per-client randomness comes from the canonical
    ``(run_seed, round, client_id)`` derivation — the same streams the
    executor-backed loops use — while ``rng`` drives coordinator-side
    aggregation (e.g. Fed-ET's server distillation).
    """
    losses = []

    def updates():
        for client_id in sampled_ids:
            result = algorithm.run_client(
                client_id, round_index,
                client_rng(run_seed, round_index, client_id))
            algorithm.apply_client_state(client_id, result.client_state)
            losses.append(result.train_loss)
            yield result

    algorithm.ingest(updates(), round_index, rng)
    return float(np.mean(losses)) if losses else 0.0

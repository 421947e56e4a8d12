#!/usr/bin/env python
"""Parallelization study: find the optimal (t, p, d) split for a cluster.

A scaled-down version of the paper's §4.1/§5.1 analysis: exhaustively search
every execution configuration of Megatron-1T on a 512-GPU A100 cluster and
show (a) the best strategies found, (b) how lopsided splits lose, and (c) the
"needle in a haystack" distribution of configuration quality.
"""

import time

import numpy as np

from repro.hardware import a100_system
from repro.llm import MEGATRON_1T
from repro.search import SearchOptions, search
from repro.viz import stacked_bars, table

NPROCS = 512
BATCH = 512


def main() -> None:
    system = a100_system(NPROCS)

    start = time.perf_counter()
    result = search(
        MEGATRON_1T,
        system,
        BATCH,
        SearchOptions(max_microbatch=8),
        top_k=10,
        workers=0,
        keep_rates=True,
    )
    elapsed = time.perf_counter() - start

    print(
        f"searched {result.num_evaluated} configurations "
        f"({result.num_feasible} feasible) in {elapsed:.1f} s "
        f"({elapsed / result.num_evaluated * 1e6:.0f} us each)"
    )

    print("\nTop strategies by sample rate:")
    rows = [
        (
            s.short_name(),
            round(r.sample_rate, 2),
            round(r.batch_time, 1),
            f"{r.mfu * 100:.1f}%",
            s.recompute,
            "SP" if s.seq_par else "-",
            "shard" if s.optimizer_sharding else "-",
            s.tp_overlap,
        )
        for s, r in result.top
    ]
    print(
        table(
            ["config", "rate/s", "batch s", "MFU", "recompute", "seq", "opt", "overlap"],
            rows,
        )
    )

    best_strategy, best = result.top[0]
    print("\nBest strategy breakdown:")
    print(stacked_bars([("Batch", best.time.stacked())], unit=" s"))

    # Quality distribution: how rare are near-optimal configurations?
    rates = np.sort(result.sample_rates)
    top = rates[-1]
    within5 = int((rates > 0.95 * top).sum())
    within10 = int((rates > 0.90 * top).sum())
    spread = top / max(rates[0], 1e-9)
    print(
        f"\nspread between best and worst feasible configuration: {spread:.1f}x\n"
        f"within 5% of best: {within5} configs "
        f"({within5 / result.num_evaluated * 100:.3f}% of the space); "
        f"within 10%: {within10}"
    )


if __name__ == "__main__":
    main()

"""Fabric cluster vs single-process columnar search on the paper problem.

Acceptance demo for the distributed search fabric: the GPT-3 175B /
a100:4096 / batch-4096 joint sweep (the same ~100k-candidate space the
pruning, bounds and columnar benchmarks share), sharded across a 4-worker
local cluster — real worker processes forked from the coordinator, real
loopback HTTP, lease-based work stealing — must

* return a top-k **bit-identical** to the single-process columnar search
  (``benchmarks/test_engine_columnar.py``'s answer), and
* complete its sweep window (first lease grant -> last chunk merged, the
  steady-state cost of a long-lived cluster; worker start-up is paid
  once and excluded) faster than the single-process columnar wall-clock.

The sweep window is read from the ``fabric.done`` flight-recorder event —
the same journal operators would ship to ``repro trace``.  Measured
numbers are merged into ``BENCH_engine.json`` as ``fabric_s`` /
``fabric_total_s`` / ``fabric_speedup``.

The speedup criterion is physical, so it is gated on the hardware: four
worker processes can only beat one process when there is more than one
core to run them on.  On a single-core box the sweep does the same
arithmetic time-sliced plus protocol overhead, so the gate there is a
bounded-overhead check (sweep within 4x of the columnar baseline) and the
measured speedup is still recorded honestly.
"""

import gc
import os
import time
from pathlib import Path

from repro.engine import clear_caches
from repro.fabric import run_fabric
from repro.obs import EventJournal, read_events
from repro.search import search

from _helpers import banner, gpt3_sweep_problem, merge_bench

TOP_K = 10
WORKERS = 4
ROUNDS = 2  # best-of-N damps scheduler noise on shared CI runners
CORES = os.cpu_count() or 1


def _timed_columnar():
    llm, system, batch = gpt3_sweep_problem()
    best_t = None
    result = None
    for _ in range(ROUNDS):
        clear_caches()
        gc.collect()
        t0 = time.perf_counter()
        result = search(
            llm, system, batch, top_k=TOP_K, workers=0,
            keep_rates=False,
        )
        best_t = min(best_t, time.perf_counter() - t0) if best_t else \
            time.perf_counter() - t0
    return best_t, result


def _timed_fabric(tmp_path):
    llm, system, batch = gpt3_sweep_problem()
    best_sweep = best_total = None
    result = None
    for i in range(ROUNDS):
        clear_caches()
        gc.collect()
        events_path = tmp_path / f"fabric-events-{i}.jsonl"
        t0 = time.perf_counter()
        with EventJournal(events_path, source="fabric") as events:
            result = run_fabric(
                llm, system, batch, workers=WORKERS, top_k=TOP_K,
                events=events, timeout=600.0,
            )
        total = time.perf_counter() - t0
        done = [e for e in read_events(events_path)
                if e["kind"] == "fabric.done"][-1]
        sweep = float(done["sweep_s"])
        if best_sweep is None or sweep < best_sweep:
            best_sweep, best_total = sweep, total
    return best_sweep, best_total, result


def _run(tmp_path):
    t_col, col = _timed_columnar()
    sweep_s, total_s, fab = _timed_fabric(tmp_path)
    return t_col, col, sweep_s, total_s, fab


def test_fabric_cluster_speedup(benchmark, tmp_path):
    t_col, col, sweep_s, total_s, fab = benchmark.pedantic(
        _run, args=(tmp_path,), rounds=1, iterations=1
    )
    speedup = t_col / sweep_s

    criterion = "> 1x" if CORES >= 2 else f"overhead-bounded ({CORES} core)"
    banner(f"search fabric — GPT-3 175B, a100:4096, batch 4096, "
           f"{WORKERS} workers, top-10")
    print(f"single-process columnar  {t_col:.3f} s")
    print(f"fabric sweep window      {sweep_s:.3f} s "
          f"(total incl. worker boot {total_s:.2f} s)")
    print(f"fabric speedup           {speedup:.2f}x   (criterion: {criterion})")

    # Bit-exactness gate: the cluster-merged top-k must match the
    # single-process columnar answer entry for entry — same strategies,
    # results equal as frozen dataclasses (float fields bit-for-bit).
    identical = len(col.top) == len(fab.top) == TOP_K and all(
        s1 == s2 and r1 == r2
        for (s1, r1), (s2, r2) in zip(col.top, fab.top)
    )
    assert identical
    assert fab.num_evaluated == col.num_evaluated
    assert fab.num_feasible == col.num_feasible
    assert fab.stats is not None and fab.stats.workers == WORKERS
    assert not fab.stats.skipped and not fab.truncated

    # The distributed sweep must beat the single-process columnar search
    # wherever parallelism is physically available.  On a single-core box
    # (time-sliced workers, zero true parallelism) the gate degrades to a
    # bounded-overhead check so protocol regressions are still caught.
    if CORES >= 2:
        assert speedup > 1.0
    else:
        assert sweep_s < 4.0 * t_col

    # Merge into the engine benchmark record next to the columnar numbers
    # (run orders vary; read whatever the other benchmarks already wrote).
    # The fabric ratio is parallelism-dependent, so merge_bench refuses to
    # let a single-core run (time-sliced workers, speedup < 1 by
    # construction) overwrite numbers measured on a real multi-core host.
    merge_bench(
        Path("BENCH_engine.json"),
        "fabric",
        {
            "fabric_s": sweep_s,
            "fabric_total_s": total_s,
            "fabric_workers": WORKERS,
            "fabric_cores": CORES,
            "fabric_speedup": speedup,
            "fabric_identical_topk": identical,
            "fabric_candidates": fab.num_evaluated,
        },
        cores=CORES,
    )

#!/usr/bin/env python
"""Serving capacity planning: how much load can one replica take?

Sweeps the offered request rate against a GPT-3-sized model on 8 A100s with
continuous batching, and finds the knee where time-to-first-token departs
from the unloaded prefill latency — the practical capacity of the replica,
and the number a fleet planner multiplies by.
"""

from repro.hardware import a100_system
from repro.inference import InferenceStrategy
from repro.llm import MEGATRON_22B
from repro.serving import LengthDist, ServeWorkload, prefill_time, simulate_serve
from repro.viz import table

SYSTEM = a100_system(8)
STRATEGY = InferenceStrategy(tensor_par=8, pipeline_par=1, batch=1)
PROMPT, GEN = 1024, 128
RATES = (0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def main() -> None:
    unloaded = prefill_time(MEGATRON_22B, SYSTEM, STRATEGY.tensor_par,
                            STRATEGY.pipeline_par, PROMPT)
    print(
        f"{MEGATRON_22B.name} on 8x A100 (t=8): unloaded time to first "
        f"token {unloaded * 1e3:.0f} ms\n"
    )
    rows = []
    knee = None
    for rate in RATES:
        stats = simulate_serve(
            MEGATRON_22B,
            SYSTEM,
            STRATEGY,
            ServeWorkload(arrival_rate=rate, prompt=LengthDist.fixed(PROMPT),
                          output=LengthDist.fixed(GEN), num_requests=120,
                          seed=3),
        )
        degraded = stats.ttft_p95 > 2 * unloaded
        if degraded and knee is None:
            knee = rate
        rows.append(
            (
                rate,
                f"{stats.ttft_p50 * 1e3:.0f} ms",
                f"{stats.ttft_p95 * 1e3:.0f} ms",
                f"{stats.tpot_p95 * 1e3:.1f} ms",
                round(stats.throughput_rps, 2),
                round(stats.tokens_per_second),
                round(stats.mean_batch, 1),
                stats.max_queue,
            )
        )
    print(
        table(
            ["req/s offered", "TTFT p50", "TTFT p95", "TPOT p95",
             "req/s served", "tokens/s", "avg batch", "max queue"],
            rows,
        )
    )
    if knee:
        print(
            f"\nTTFT knee near {knee} req/s — plan fleet size as "
            f"offered_load / {knee:.1f} replicas with headroom."
        )


if __name__ == "__main__":
    main()

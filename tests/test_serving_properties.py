"""Hypothesis invariants for the serving simulator (``repro.serving``).

Fixed-seed determinism, monotone latency in offered load, KV byte
conservation, and percentile ordering — the properties docs/SERVING.md
promises — on fixed-length and on uniform-length traffic.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hardware.system import h100_system
from repro.inference import InferenceStrategy
from repro.llm.config import TINY_TEST
from repro.serving import LengthDist, ServeWorkload, simulate_serve

SYS = h100_system(4, hbm_gib=8.0)
STRAT = InferenceStrategy(tensor_par=2, pipeline_par=1, data_par=2, batch=1)

rates = st.floats(min_value=0.5, max_value=200.0,
                  allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _serve(rate, seed, n=30, max_batch=None):
    wl = ServeWorkload(
        arrival_rate=rate, prompt=LengthDist.uniform(32, 96),
        output=LengthDist.uniform(8, 24), num_requests=n, seed=seed,
    )
    return simulate_serve(TINY_TEST, SYS, STRAT, wl, max_batch=max_batch)


def _serve_fixed(rate, seed):
    wl = ServeWorkload(
        arrival_rate=rate, prompt=LengthDist.fixed(128),
        output=LengthDist.fixed(16), num_requests=25, seed=seed,
    )
    return simulate_serve(TINY_TEST, SYS, STRAT, wl)


# -- fixed-length traffic ------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(rate=rates, seed=seeds)
def test_batching_fixed_seed_determinism(rate, seed):
    assert _serve_fixed(rate, seed) == _serve_fixed(rate, seed)


@settings(max_examples=10, deadline=None)
@given(rate=st.floats(min_value=1.0, max_value=50.0), seed=seeds)
def test_batching_latency_monotone_in_rate(rate, seed):
    """More offered load never improves median TTFT (same gap draws)."""
    slow, fast = _serve_fixed(rate, seed), _serve_fixed(rate * 4.0, seed)
    assert fast.ttft_p50 >= slow.ttft_p50 * (1.0 - 1e-9)


# -- uniform-length traffic ----------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(rate=rates, seed=seeds)
def test_serve_fixed_seed_determinism(rate, seed):
    assert _serve(rate, seed) == _serve(rate, seed)


@settings(max_examples=15, deadline=None)
@given(rate=rates, seed=seeds)
def test_serve_kv_bytes_conserved(rate, seed):
    stats = _serve(rate, seed)
    assert stats.kv_allocated_bytes == stats.kv_freed_bytes
    assert stats.kv_peak_bytes <= stats.kv_allocated_bytes


@settings(max_examples=15, deadline=None)
@given(rate=rates, seed=seeds)
def test_serve_percentiles_ordered(rate, seed):
    stats = _serve(rate, seed)
    assert stats.ttft_p50 <= stats.ttft_p95 <= stats.ttft_p99
    assert stats.tpot_p50 <= stats.tpot_p95 <= stats.tpot_p99


@settings(max_examples=10, deadline=None)
@given(rate=st.floats(min_value=1.0, max_value=50.0), seed=seeds)
@example(rate=41.0, seed=0)
def test_serve_ttft_monotone_in_rate(rate, seed):
    """Scaling every interarrival gap down never improves TTFT, one request
    at a time per replica.

    The workload sampler reuses the same exponential draws across rates,
    so the faster run sees the same requests, closer together.  With a
    batch cap of one, a replica is a FIFO single server whose service
    times do not depend on arrivals: each request starts at the later of
    its arrival and its predecessor's finish (Lindley's recursion), so
    every wait, and every TTFT percentile, can only grow.  Continuous
    batching admits only at step boundaries, which compressed arrivals
    move: there a request's TTFT can fall by part of a step (at rate 41,
    seed 0, p95 goes from 7.5409e-05 s to 7.5231e-05 s), so the property
    is not stated for it (docs/SERVING.md).
    """
    slow = _serve(rate, seed, max_batch=1)
    fast = _serve(rate * 4.0, seed, max_batch=1)
    for q in ("ttft_p50", "ttft_p95", "ttft_p99"):
        assert getattr(fast, q) >= getattr(slow, q) * (1.0 - 1e-9), q

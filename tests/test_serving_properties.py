"""Hypothesis invariants for the serving simulator (``repro.serving``).

Fixed-seed determinism, monotone latency in offered load, KV byte
conservation, and percentile ordering — the properties docs/SERVING.md
promises — on fixed-length and on uniform-length traffic.
"""

from hypothesis import given, settings
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


def _serve(rate, seed, n=30):
    wl = ServeWorkload(
        arrival_rate=rate, prompt=LengthDist.uniform(32, 96),
        output=LengthDist.uniform(8, 24), num_requests=n, seed=seed,
    )
    return simulate_serve(TINY_TEST, SYS, STRAT, wl)


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
def test_serve_ttft_monotone_in_rate(rate, seed):
    """Scaling every interarrival gap down never improves p95 TTFT.

    The workload sampler reuses the same exponential draws across rates,
    so the faster run sees the same requests, closer together — each
    request's wait can only grow.
    """
    slow = _serve(rate, seed)
    fast = _serve(rate * 4.0, seed)
    assert fast.ttft_p95 >= slow.ttft_p95 * (1.0 - 1e-9)

"""Continuous-batching simulator on fixed-length traffic.

Runs :func:`repro.serving.simulate_serve` with ``LengthDist.fixed`` prompt
and output lengths — the single-replica capacity-planning case of
``examples/serving_capacity.py``.
"""

import pytest

from repro.hardware import a100_system
from repro.inference import InferenceStrategy
from repro.llm import LLMConfig
from repro.serving import LengthDist, ServeWorkload, prefill_time, simulate_serve

LLM = LLMConfig(name="srv-llm", hidden=2048, attn_heads=16, seq_size=2048,
                num_blocks=16)
SYS = a100_system(8)
STRAT = InferenceStrategy(tensor_par=8, pipeline_par=1, batch=1)


def run(rate, n=60, **kw):
    wl = ServeWorkload(arrival_rate=rate, prompt=LengthDist.fixed(512),
                       output=LengthDist.fixed(64), num_requests=n, seed=7)
    return simulate_serve(LLM, SYS, STRAT, wl, **kw)


def test_all_requests_complete():
    stats = run(5.0)
    assert stats.completed == 60
    assert stats.duration > 0
    assert stats.ttft_p50 > 0
    assert stats.ttft_p95 >= stats.ttft_p50


def test_determinism():
    assert run(5.0) == run(5.0)


def test_light_load_latency_near_single_request():
    unloaded = prefill_time(LLM, SYS, 8, 1, 512)
    stats = run(0.05)  # one request every 20 s: no queueing
    assert unloaded <= stats.ttft_p50 < 3 * unloaded
    assert stats.max_queue <= 1
    assert stats.mean_batch <= 1.5


def test_heavier_load_increases_latency_and_batch():
    light = run(0.2)
    heavy = run(20.0)
    assert heavy.ttft_p95 > light.ttft_p95
    assert heavy.mean_batch > light.mean_batch
    assert heavy.max_queue >= light.max_queue


def test_batching_raises_token_throughput():
    light = run(0.2)
    heavy = run(20.0)
    assert heavy.throughput_rps > light.throughput_rps
    assert heavy.tokens_per_second > light.tokens_per_second


def test_max_batch_caps_occupancy():
    capped = run(20.0, max_batch=2)
    assert capped.mean_batch <= 2.0 + 1e-9
    free = run(20.0)
    assert free.tokens_per_second >= capped.tokens_per_second - 1e-9


def test_oversized_request_rejected():
    from repro.llm import MEGATRON_1T

    wl = ServeWorkload(arrival_rate=1.0, num_requests=4)
    with pytest.raises(ValueError, match="unserveable deployment: weights"):
        simulate_serve(MEGATRON_1T, a100_system(2),
                       InferenceStrategy(tensor_par=2, pipeline_par=1), wl)


def test_workload_validation():
    with pytest.raises(ValueError):
        ServeWorkload(arrival_rate=0.0)
    with pytest.raises(ValueError):
        ServeWorkload(arrival_rate=1.0, num_requests=0)
    with pytest.raises(ValueError):
        run(1.0, max_batch=0)

"""Second property-test suite: invariants of the full model and searches."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.pareto import Objective, pareto_front
from repro.core import calculate
from repro.execution import ExecutionStrategy
from repro.hardware import Network, a100_system, ddr5_offload
from repro.hardware.collectives import best_time, ring_time, tree_time
from repro.inference import InferenceStrategy, calculate_inference, kv_cache_bytes
from repro.llm import LLMConfig
from repro.units import GB

BIG = a100_system(32, hbm_gib=1_000_000)
LLM = LLMConfig(name="prop2", hidden=2048, attn_heads=16, seq_size=512,
                num_blocks=8)


def feasible_strategy(t, p, mb, rc):
    d = 32 // (t * p)
    if d < 1 or 32 % (t * p):
        return None
    batch = 32
    if batch % d or (batch // d) % mb:
        return None
    return ExecutionStrategy(
        tensor_par=t, pipeline_par=p, data_par=d, batch=batch, microbatch=mb,
        recompute=rc,
    )


@given(
    t=st.sampled_from([1, 2, 4, 8]),
    p=st.sampled_from([1, 2, 4]),
    mb=st.sampled_from([1, 2, 4]),
    rc=st.sampled_from(["none", "attn_only", "full"]),
)
@settings(max_examples=40, deadline=None)
def test_batch_time_scales_superlinearly_never_sublinearly_with_model_depth(
    t, p, mb, rc
):
    """Doubling the block count at least doubles batch time (same strategy)."""
    strat = feasible_strategy(t, p, mb, rc)
    assume(strat is not None)
    deep = LLMConfig(name="deep", hidden=2048, attn_heads=16, seq_size=512,
                     num_blocks=16)
    shallow_res = calculate(LLM, BIG, strat)
    deep_res = calculate(deep, BIG, strat)
    assume(shallow_res.feasible and deep_res.feasible)
    assert deep_res.batch_time >= 1.9 * shallow_res.batch_time * (
        1 - 0.15
    )  # allowance for fixed optimizer/bubble terms


@given(
    t=st.sampled_from([1, 2, 4, 8]),
    p=st.sampled_from([1, 2, 4]),
    mb=st.sampled_from([1, 2]),
)
@settings(max_examples=30, deadline=None)
def test_recompute_never_faster(t, p, mb):
    strat = feasible_strategy(t, p, mb, "none")
    assume(strat is not None)
    none = calculate(LLM, BIG, strat)
    full = calculate(LLM, BIG, strat.evolve(recompute="full"))
    assume(none.feasible and full.feasible)
    assert full.batch_time >= none.batch_time - 1e-12


@given(
    t=st.sampled_from([1, 2, 4, 8]),
    p=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=25, deadline=None)
def test_mfu_and_rate_are_consistent(t, p):
    strat = feasible_strategy(t, p, 1, "full")
    assume(strat is not None)
    res = calculate(LLM, BIG, strat)
    assume(res.feasible)
    # Sample rate and MFU are two views of the same time: both positive,
    # MFU bounded by 1.
    assert res.sample_rate > 0
    assert 0 < res.mfu <= 1.0


@given(
    nbytes=st.floats(1e3, 1e11),
    group=st.integers(2, 1024),
)
@settings(max_examples=60, deadline=None)
def test_best_collective_never_worse_than_any_algorithm(nbytes, group):
    net = Network(name="n", size=1024, bandwidth=100 * GB, latency=2e-6)
    best = best_time(net, "all_reduce", nbytes, group)
    assert best.time <= ring_time(net, "all_reduce", nbytes, group) + 1e-15
    assert best.time <= tree_time(net, "all_reduce", nbytes, group) + 1e-15


@given(
    batch=st.integers(1, 16),
    context=st.integers(1, 4096),
    t=st.sampled_from([1, 2, 4, 8]),
)
@settings(max_examples=40, deadline=None)
def test_kv_cache_linear_in_batch_and_context(batch, context, t):
    base = kv_cache_bytes(LLM, 1, 1, t)
    assert kv_cache_bytes(LLM, batch, context, t) == pytest.approx(
        base * batch * context
    )


@given(
    batch=st.sampled_from([1, 2, 4, 8]),
    gen=st.sampled_from([0, 16, 128]),
)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_inference_latency_components_consistent(batch, gen):
    strat = InferenceStrategy(tensor_par=8, pipeline_par=1, data_par=1,
                              batch=batch)
    res = calculate_inference(LLM, a100_system(8, hbm_gib=1_000_000), strat,
                              prompt_len=256, generate_len=gen)
    assert res.feasible
    assert res.generate_time == pytest.approx(gen * res.decode_step_time)
    assert res.request_latency >= res.prefill_time


@given(
    points=st.lists(
        st.tuples(st.floats(0.1, 100), st.floats(0.1, 100)),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_pareto_front_is_mutually_nondominated(points):
    cands = [{"perf": p, "cost": c} for p, c in points]
    objs = (
        Objective("perf", key=lambda x: x["perf"], maximize=True),
        Objective("cost", key=lambda x: x["cost"], maximize=False),
    )
    front = pareto_front(cands, objs)
    assert front  # never empty for non-empty input
    from repro.analysis.pareto import dominates

    for a in front:
        for b in front:
            if a is not b:
                assert not dominates(a, b, objs) or not dominates(b, a, objs)
    # Every input is dominated by or present in the front.
    for cand in cands:
        in_front = any(cand is f for f in front)
        if not in_front:
            assert any(dominates(f, cand, objs) for f in front)


@given(
    cap_gib=st.sampled_from([1, 4, 16, 64]),
    t=st.sampled_from([2, 4, 8]),
)
@settings(max_examples=20, deadline=None)
def test_offload_never_increases_tier1_usage(cap_gib, t):
    sys_off = a100_system(8, hbm_gib=1_000_000, offload=ddr5_offload(100_000))
    base = dict(tensor_par=t, pipeline_par=1, data_par=8 // t, batch=8,
                microbatch=1, recompute="full", optimizer_sharding=True)
    resident = calculate(LLM, sys_off, ExecutionStrategy(**base))
    offloaded = calculate(
        LLM, sys_off,
        ExecutionStrategy(**base, weight_offload=True, activation_offload=True,
                          optimizer_offload=True),
    )
    assume(resident.feasible and offloaded.feasible)
    assert offloaded.mem1.total <= resident.mem1.total + 1e-9


@given(
    experts=st.sampled_from([2, 4, 8, 16]),
    k=st.sampled_from([1, 2]),
    cap=st.sampled_from([1.0, 1.25, 2.0]),
)
@settings(max_examples=25, deadline=None)
def test_moe_invariants(experts, k, cap):
    """MoE never beats its own dense backbone, and deltas are non-negative."""
    from repro.moe import MoEConfig, calculate_moe

    assume(k <= experts)
    cfg = MoEConfig(base=LLM, num_experts=experts, experts_per_token=k,
                    capacity_factor=cap)
    strat = ExecutionStrategy(tensor_par=2, pipeline_par=2, data_par=8,
                              batch=32, microbatch=1,
                              optimizer_sharding=True)
    res = calculate_moe(cfg, BIG, strat)
    assume(res.feasible)
    assert res.batch_time >= res.dense.batch_time - 1e-12
    assert res.moe_compute_time >= 0
    assert res.all_to_all_time >= 0
    assert res.expert_memory >= 0
    assert res.mem_total >= res.dense.mem1.total
    assert res.sample_rate == pytest.approx(32 / res.batch_time)


@given(
    rate=st.sampled_from([0.5, 2.0, 8.0]),
    seed=st.integers(0, 3),
)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_serving_sim_conservation(rate, seed):
    """The queueing simulator conserves requests and keeps latency above
    the unloaded floor."""
    from repro.hardware import a100_system
    from repro.inference import InferenceStrategy
    from repro.serving import (
        LengthDist,
        ServeWorkload,
        prefill_time,
        simulate_serve,
    )

    system = a100_system(8)
    strat = InferenceStrategy(tensor_par=8, pipeline_par=1, batch=1)
    wl = ServeWorkload(arrival_rate=rate, prompt=LengthDist.fixed(256),
                       output=LengthDist.fixed(32), num_requests=30, seed=seed)
    stats = simulate_serve(LLM, system, strat, wl)
    assert stats.completed == 30
    assert stats.kv_allocated_bytes == stats.kv_freed_bytes
    # No request sees its first token faster than an unloaded prefill.
    unloaded = prefill_time(LLM, system, 8, 1, 256)
    assert min(stats.ttfts) >= unloaded
    assert stats.ttft_p95 >= stats.ttft_p50

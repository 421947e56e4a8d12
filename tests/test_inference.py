"""Inference-model tests: prefill, decode, KV cache, serving metrics."""

import pytest

from repro.hardware import a100_system, h100_system
from repro.inference import (
    InferenceStrategy,
    calculate_inference,
    decode_batch_terms,
    kv_cache_bytes,
)
from repro.llm import GPT3_175B, LLMConfig
from repro.units import GiB

LLM = LLMConfig(name="serve-llm", hidden=4096, attn_heads=32, seq_size=2048,
                num_blocks=32)


def serve(system=None, llm=LLM, prompt=512, gen=128, **kw):
    base = dict(tensor_par=4, pipeline_par=2, data_par=1, batch=4)
    base.update(kw)
    strat = InferenceStrategy(**base)
    system = system or a100_system(strat.num_procs)
    return calculate_inference(llm, system, strat, prompt_len=prompt,
                               generate_len=gen)


# ---- KV cache ----------------------------------------------------------------

def test_kv_cache_formula():
    # 2 tensors x batch x context x hidden x 2 bytes x blocks / t.
    expect = 2 * 4 * 1024 * 4096 * 2 * 32 / 4
    assert kv_cache_bytes(LLM, 4, 1024, 4) == pytest.approx(expect)


def test_kv_cache_scales_linearly():
    one = kv_cache_bytes(LLM, 1, 512)
    assert kv_cache_bytes(LLM, 8, 512) == pytest.approx(8 * one)
    assert kv_cache_bytes(LLM, 1, 1024) == pytest.approx(2 * one)


def test_kv_cache_validates():
    with pytest.raises(ValueError):
        kv_cache_bytes(LLM, 0, 512)


# ---- decode block profile ------------------------------------------------------

def test_decode_profile_weight_stream_matches_block_weights():
    terms = decode_batch_terms(LLM, batch=1, tensor_par=1)
    h, f = LLM.hidden, LLM.feedforward
    expect = (4 * h * h + 2 * h * f) * 2  # all projection matrices, fp16
    assert terms.weight_read_bytes == pytest.approx(expect)


def test_decode_cache_read_grows_with_context():
    terms = decode_batch_terms(LLM, batch=1)
    short_flops, _, short_read, _ = terms.at(128)
    long_flops, _, long_read, _ = terms.at(1024)
    assert long_read == pytest.approx(8 * short_read)
    assert long_flops > short_flops


def test_decode_profile_sharded_by_tp():
    full = decode_batch_terms(LLM, batch=2, tensor_par=1)
    shard = decode_batch_terms(LLM, batch=2, tensor_par=4)
    assert shard.at(256)[0] == pytest.approx(full.at(256)[0] / 4)
    assert shard.weight_read_bytes == pytest.approx(full.weight_read_bytes / 4)
    assert full.tp_comm_count == 0
    assert shard.tp_comm_count == 2


def test_decode_profile_validates():
    with pytest.raises(ValueError):
        decode_batch_terms(LLM, batch=0)
    with pytest.raises(ValueError):
        decode_batch_terms(LLM, batch=1, tensor_par=3)


# ---- serving model ----------------------------------------------------------

def test_feasible_serving_result():
    res = serve()
    assert res.feasible
    assert res.prefill_time > 0
    assert res.decode_step_time > 0
    assert res.tokens_per_second > 0
    assert res.request_latency == pytest.approx(
        res.prefill_time + res.generate_time
    )


def test_prefill_dominates_per_token_decode():
    # Processing a 512-token prompt takes far longer than one decode step.
    res = serve()
    assert res.prefill_time > 10 * res.decode_step_time


def test_decode_is_memory_bound_so_bigger_batch_is_nearly_free():
    b1 = serve(batch=1)
    b8 = serve(batch=8)
    # 8x the tokens in much less than 8x the step time.
    assert b8.decode_step_time < 4 * b1.decode_step_time
    assert b8.tokens_per_second > 3 * b1.tokens_per_second


def test_pipelining_requests_multiplies_throughput_not_latency():
    pipe = serve(pipelined_requests=True)
    solo = serve(pipelined_requests=False)
    assert pipe.decode_step_time == pytest.approx(solo.decode_step_time)
    assert pipe.tokens_per_second == pytest.approx(2 * solo.tokens_per_second)


def test_replicas_multiply_throughput():
    one = serve()
    two = serve(data_par=2, system=a100_system(16))
    assert two.tokens_per_second == pytest.approx(2 * one.tokens_per_second)
    assert two.decode_step_time == pytest.approx(one.decode_step_time)


def test_tensor_parallel_cuts_decode_latency():
    t1 = serve(tensor_par=1, pipeline_par=2, system=a100_system(2))
    t4 = serve(tensor_par=4, pipeline_par=2, system=a100_system(8))
    assert t4.decode_step_time < t1.decode_step_time


def test_kv_cache_capacity_gates_feasibility():
    small = a100_system(8, hbm_gib=1.0)
    res = serve(system=small, batch=64, prompt=2048, gen=2048)
    assert not res.feasible
    assert "memory" in res.infeasibility


def test_gpt3_on_8xa100_serves():
    strat = InferenceStrategy(tensor_par=8, pipeline_par=1, batch=8)
    res = calculate_inference(
        GPT3_175B, a100_system(8), strat, prompt_len=2048, generate_len=256
    )
    assert res.feasible
    # ~350 GB of fp16 weights / 8 GPUs = ~44 GB/GPU.
    assert 35 * GiB < res.weights_bytes < 55 * GiB
    # A100 decode latency for 175B at t=8 is tens of milliseconds.
    assert 0.005 < res.decode_step_time < 0.2


def test_h100_decodes_faster_than_a100():
    strat = InferenceStrategy(tensor_par=8, pipeline_par=1, batch=8)
    a = calculate_inference(GPT3_175B, a100_system(8), strat, prompt_len=1024,
                            generate_len=64)
    h = calculate_inference(GPT3_175B, h100_system(8), strat, prompt_len=1024,
                            generate_len=64)
    assert h.decode_step_time < a.decode_step_time
    assert h.prefill_time < a.prefill_time


def test_strategy_validation():
    with pytest.raises(ValueError, match="system size"):
        serve(data_par=3, system=a100_system(8))
    with pytest.raises(ValueError, match="divide"):
        InferenceStrategy(tensor_par=3, pipeline_par=1).validate(
            LLM, a100_system(3)
        )
    with pytest.raises(ValueError, match="block count"):
        InferenceStrategy(tensor_par=1, pipeline_par=64).validate(
            LLM, a100_system(64)
        )
    with pytest.raises(ValueError):
        serve(prompt=0)


def test_summary_output():
    text = serve().summary()
    assert "time to first token" in text
    assert "tokens/s" in text
    small = a100_system(8, hbm_gib=0.1)
    assert "INFEASIBLE" in serve(system=small).summary()


def test_zero_generation_request():
    res = serve(gen=0)
    assert res.feasible
    assert res.generate_time == 0.0
    assert res.tokens_per_second == 0.0
    assert res.prefill_time > 0

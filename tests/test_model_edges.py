"""Edge-case tests for the core model: boundary shapes and rare regimes."""

import pytest

from repro.core import calculate
from repro.engine import in_flight_microbatches
from repro.execution import ExecutionStrategy
from repro.hardware import a100_system, ddr5_offload
from repro.llm import LLMConfig

LLM = LLMConfig(name="edge-llm", hidden=1024, attn_heads=8, seq_size=512,
                num_blocks=12)
BIG = a100_system(8, hbm_gib=1_000_000)


def run(system=BIG, llm=LLM, **kw):
    base = dict(tensor_par=2, pipeline_par=4, data_par=1, batch=8, microbatch=1)
    base.update(kw)
    return calculate(llm, system, ExecutionStrategy(**base))


# ---- in-flight microbatch accounting ------------------------------------------

def test_in_flight_single_stage_is_one():
    assert in_flight_microbatches(M=16, p=1, v=1, one_f_one_b=True) == 1.0
    assert in_flight_microbatches(M=16, p=1, v=4, one_f_one_b=False) == 1.0


def test_in_flight_1f1b_caps_at_pipeline_depth():
    assert in_flight_microbatches(M=64, p=8, v=1, one_f_one_b=True) == 8.0


def test_in_flight_fewer_microbatches_than_stages():
    assert in_flight_microbatches(M=4, p=8, v=1, one_f_one_b=True) == 4.0


def test_in_flight_gpipe_holds_everything():
    assert in_flight_microbatches(M=64, p=8, v=1, one_f_one_b=False) == 64.0


def test_in_flight_interleaving_adds_partial_set():
    v2 = in_flight_microbatches(M=64, p=8, v=2, one_f_one_b=True)
    assert v2 == pytest.approx(8 + 7 / 2)
    v4 = in_flight_microbatches(M=64, p=8, v=4, one_f_one_b=True)
    assert 8.0 < v4 < v2


# ---- boundary shapes ------------------------------------------------------------

def test_m_less_than_p_still_works():
    # Fewer microbatches than stages: a mostly-bubble pipeline, but legal.
    res = run(batch=2, pipeline_par=4, tensor_par=2, data_par=1, microbatch=1)
    assert res.feasible
    assert res.time.pp_bubble > 0


def test_batch_equals_data_par():
    res = run(batch=4, tensor_par=2, pipeline_par=1, data_par=4, microbatch=1)
    assert res.feasible
    assert res.time.pp_bubble == 0


def test_single_block_per_stage_with_max_interleaving():
    # p = blocks: one block per stage; only v = 1 is possible.
    res = run(pipeline_par=12, tensor_par=1, data_par=1, batch=8,
              system=a100_system(12, hbm_gib=1_000_000))
    assert res.feasible


def test_uneven_blocks_round_up():
    # 12 blocks on p = 5 -> busiest stage holds 3.
    sys5 = a100_system(10, hbm_gib=1_000_000)
    res = calculate(
        LLM, sys5,
        ExecutionStrategy(tensor_par=2, pipeline_par=5, data_par=1, batch=8),
    )
    assert res.feasible
    even = calculate(
        LLM, a100_system(8, hbm_gib=1_000_000),
        ExecutionStrategy(tensor_par=2, pipeline_par=4, data_par=1, batch=8),
    )
    # 5 stages x 3 blocks = 15 charged block-slots vs 4 x 3 = 12: despite
    # more hardware, the uneven split wastes the difference.
    assert res.mfu < even.mfu


def test_gpipe_memory_exceeds_1f1b():
    f1b1 = run(recompute="none", pp_1f1b=True, batch=32)
    gpipe = run(recompute="none", pp_1f1b=False, batch=32)
    assert gpipe.mem1.activation > f1b1.mem1.activation
    # Time model is schedule-agnostic for the bubble (fill+drain equal).
    assert gpipe.time.pp_bubble == pytest.approx(f1b1.time.pp_bubble)


def test_max_interleaving_equals_blocks_per_stage():
    res = run(pp_interleaving=3)  # 12 blocks / 4 stages = 3
    assert res.feasible
    over = run(pp_interleaving=4)
    assert not over.feasible


def test_offload_with_single_block_stage():
    sys_off = a100_system(12, hbm_gib=1_000_000, offload=ddr5_offload(100_000))
    res = calculate(
        LLM, sys_off,
        ExecutionStrategy(tensor_par=1, pipeline_par=12, data_par=1, batch=8,
                          weight_offload=True, activation_offload=True,
                          optimizer_offload=True),
    )
    assert res.feasible
    # A 1-block stage cannot hold a 3-block working set; it clamps.
    assert res.mem1.weight <= 3 * res.mem1.weight / 1  # sanity: finite


def test_seq_par_with_t_equal_seq_divisor_boundary():
    llm = LLMConfig(name="e2", hidden=1024, attn_heads=8, seq_size=8,
                    num_blocks=4)
    res = calculate(
        llm, BIG,
        ExecutionStrategy(tensor_par=8, pipeline_par=1, data_par=1, batch=8,
                          seq_par=True, tp_redo_sp=True),
    )
    assert res.feasible


def test_huge_microbatch_equals_local_batch():
    res = run(microbatch=8, batch=8, pipeline_par=1, tensor_par=2, data_par=4,
              system=BIG)
    assert not res.feasible or res.feasible  # must not raise
    res2 = run(microbatch=8, batch=8, tensor_par=8, pipeline_par=1, data_par=1,
               system=BIG)
    assert res2.feasible
    assert res2.time.pp_bubble == 0


def test_interleaving_one_on_deep_pipeline_bubble_dominates():
    res = run(batch=4, pipeline_par=4, tensor_par=2, microbatch=1,
              pp_interleaving=1)
    # M = 4 microbatches, p = 4: bubble fraction = (p-1)/(p-1+M) = 3/7.
    frac = res.time.pp_bubble / (
        res.time.pp_bubble + res.time.fw_pass + res.time.bw_pass
        + res.time.fw_recompute + res.time.tp_comm_exposed
    )
    assert frac == pytest.approx(3 / 7, abs=0.08)

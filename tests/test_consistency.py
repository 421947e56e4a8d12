"""Consistency-checker tests, including a broad sweep over real outputs."""

import itertools

import pytest

from repro.core import assert_consistent, calculate, check_result
from repro.core.results import (
    MemoryBreakdown,
    OffloadStats,
    PerformanceResult,
    TimeBreakdown,
)
from repro.execution import ExecutionStrategy
from repro.hardware import a100_system, ddr5_offload
from repro.llm import LLMConfig

LLM = LLMConfig(name="cons-llm", hidden=1024, attn_heads=8, seq_size=512,
                num_blocks=8)
BIG = a100_system(8, hbm_gib=1_000_000, offload=ddr5_offload(100_000))


def test_clean_result_passes():
    res = calculate(
        LLM, BIG,
        ExecutionStrategy(tensor_par=2, pipeline_par=2, data_par=2, batch=8,
                          recompute="full"),
    )
    assert check_result(res) == []
    assert_consistent(res)  # must not raise


def test_infeasible_result_rules():
    res = calculate(
        LLM, BIG,
        ExecutionStrategy(tensor_par=2, pipeline_par=2, data_par=3, batch=9),
    )
    assert not res.feasible
    assert check_result(res) == []


def test_hand_built_inconsistency_detected():
    bogus = PerformanceResult(
        llm_name="x", system_name="y", strategy_name="z", batch=8,
        time=TimeBreakdown(fw_pass=1.0, tp_comm_exposed=2.0, tp_comm_total=1.0),
        mem1=MemoryBreakdown(weight=1.0),
        offload=OffloadStats(),
        mfu=0.5,
    )
    problems = check_result(bogus)
    assert any("exposed TP" in p for p in problems)


def test_mfu_bound_detected():
    bogus = PerformanceResult(
        llm_name="x", system_name="y", strategy_name="z", batch=8,
        time=TimeBreakdown(fw_pass=1.0),
        mem1=MemoryBreakdown(weight=1.0),
        offload=OffloadStats(),
        mfu=1.5,
    )
    assert any("MFU" in p for p in check_result(bogus))
    with pytest.raises(AssertionError, match="MFU"):
        assert_consistent(bogus)


def test_sweep_of_real_configurations_all_consistent():
    """Every feasible output across a broad option sweep is internally
    consistent — the tripwire this module exists for."""
    count = 0
    for t, p, rc, sp, osh, dpo, tpo, off in itertools.product(
        (1, 2, 4, 8),
        (1, 2, 4),
        ("none", "attn_only", "full"),
        (False, True),
        (False, True),
        (False, True),
        ("none", "ring"),
        (False, True),
    ):
        d = 8 // (t * p) if t * p <= 8 and 8 % (t * p) == 0 else 0
        if d < 1:
            continue
        if sp and (t == 1 or LLM.seq_size % t):
            continue
        strat = ExecutionStrategy(
            tensor_par=t, pipeline_par=p, data_par=d, batch=8, microbatch=1,
            recompute=rc, seq_par=sp, tp_redo_sp=sp, optimizer_sharding=osh,
            dp_overlap=dpo, tp_overlap=tpo,
            weight_offload=off, activation_offload=off, optimizer_offload=off,
        )
        res = calculate(LLM, BIG, strat)
        if res.feasible:
            assert_consistent(res)
            count += 1
    assert count > 100  # the sweep genuinely exercised many configurations


def test_debug_check_env_flag(monkeypatch):
    """REPRO_DEBUG_CHECK wires the checker into every calculate() call."""
    import repro.engine.stages as stages

    monkeypatch.setattr(stages, "_DEBUG_CHECK", True)
    res = calculate(
        LLM, BIG,
        ExecutionStrategy(tensor_par=2, pipeline_par=2, data_par=2, batch=8,
                          recompute="full"),
    )
    assert res.feasible  # checker passed silently

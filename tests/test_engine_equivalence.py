"""Golden equivalence: staged engine vs. the stable ``calculate()`` wrapper.

The staged pipeline (validate -> profile -> memory plan -> comm exposure ->
time assembly) must be a pure refactoring of the analytical model: every
``PerformanceResult`` field — times, memory bytes, offload stats, MFU, and
infeasibility reasons — must be *bit-identical* whether a configuration is
evaluated one at a time through :func:`repro.core.calculate` or the scalar
oracle :func:`repro.engine.evaluate`, batched through
:func:`repro.engine.evaluate_many` (the columnar engine), or screened by the
:func:`repro.engine.check_feasible` fast path.

The grid below crosses two LLMs with >50 strategies each and spans feasible,
memory-infeasible, and structurally invalid configurations, with and without
an offload tier.
"""

import dataclasses
from itertools import product

import pytest

from repro.core import calculate
from repro.engine import check_feasible, evaluate, evaluate_many
from repro.execution import ExecutionStrategy
from repro.hardware import a100_system, ddr5_offload
from repro.llm import GPT3_175B, TINY_TEST
from repro.obs import MetricsRegistry, Tracer

SYS64 = a100_system(64)  # 80 GiB HBM: large-batch no-recompute runs overflow
OFF64 = a100_system(64, offload=ddr5_offload(512))
SYS8 = a100_system(8)


def _strategy_grid() -> list[ExecutionStrategy]:
    """>50 strategies spanning feasible, infeasible, and invalid shapes."""
    out = []
    for t, p in product((1, 2, 4, 8), (1, 2, 4, 8)):
        d = 64 // (t * p)
        for mb, recompute in product((1, 2), ("none", "full")):
            out.append(
                ExecutionStrategy(
                    tensor_par=t, pipeline_par=p, data_par=d,
                    batch=64, microbatch=mb, recompute=recompute,
                    seq_par=t > 1, tp_redo_sp=t > 1,
                    optimizer_sharding=d > 1,
                )
            )
    # Structurally invalid: t*p*d != num_procs, batch not divisible.
    out.append(ExecutionStrategy(tensor_par=8, pipeline_par=8, data_par=2,
                                 batch=64, microbatch=1))
    out.append(ExecutionStrategy(tensor_par=8, pipeline_par=8, data_par=1,
                                 batch=63, microbatch=1))
    # Offload-flagged variants (feasible only on systems with a tier 2).
    for recompute in ("none", "attn_only", "full"):
        out.append(
            ExecutionStrategy(
                tensor_par=8, pipeline_par=8, data_par=1, batch=64,
                microbatch=1, recompute=recompute, optimizer_sharding=True,
                weight_offload=True, activation_offload=True,
                optimizer_offload=True,
            )
        )
    return out


GRID = _strategy_grid()
CASES = [
    pytest.param(llm, system, id=f"{llm.name}-{system.name}-{i}")
    for i, (llm, system) in enumerate(
        [(GPT3_175B, SYS64), (GPT3_175B, OFF64), (TINY_TEST, SYS64)]
    )
]


def _as_fields(result) -> dict:
    return dataclasses.asdict(result)


@pytest.mark.parametrize("llm, system", CASES)
def test_evaluate_many_bit_identical_to_calculate(llm, system):
    assert len(GRID) > 50
    singles = [calculate(llm, system, s) for s in GRID]
    batched = evaluate_many(llm, system, GRID)
    oracle = [evaluate(llm, system, s) for s in GRID]
    assert len(batched) == len(oracle) == len(GRID)
    for strat, one, many, full in zip(GRID, singles, batched, oracle):
        label = strat.short_name()
        assert _as_fields(one) == _as_fields(many), label
        assert _as_fields(one) == _as_fields(full), label


@pytest.mark.parametrize("llm, system", CASES)
def test_infeasibility_reasons_identical(llm, system):
    singles = [calculate(llm, system, s) for s in GRID]
    batched = evaluate_many(llm, system, GRID)
    assert any(not r.feasible for r in singles)  # grid must exercise failures
    for one, many in zip(singles, batched):
        assert one.feasible == many.feasible
        assert one.infeasibility == many.infeasibility


@pytest.mark.parametrize("llm, system", CASES)
def test_check_feasible_agrees_with_full_evaluation(llm, system):
    for strat in GRID:
        report = check_feasible(llm, system, strat)
        result = calculate(llm, system, strat)
        assert bool(report) == report.feasible == result.feasible
        if not report.feasible:
            assert report.reason == result.infeasibility
            assert report.stage in ("validate", "memory")
        else:
            assert report.stage == "ok"
            # The fast path reports the same memory plan the full pipeline uses.
            assert report.mem1 == result.mem1
            assert report.tier2_bytes == result.offload.used_bytes


def test_fast_path_covers_both_failure_stages():
    stages = set()
    for strat in GRID:
        report = check_feasible(GPT3_175B, SYS64, strat)
        if not report.feasible:
            stages.add(report.stage)
    assert stages == {"validate", "memory"}


@pytest.mark.parametrize("llm, system", CASES)
def test_instrumented_evaluation_bit_identical(llm, system):
    """Tracing and metrics must observe, never perturb.

    Every result field stays bit-identical when spans and counters are
    attached, for both the single-candidate path and the batched path.
    """
    singles = [calculate(llm, system, s) for s in GRID]

    tracer = Tracer()
    metrics = MetricsRegistry()
    instrumented = [
        evaluate(llm, system, s, tracer=tracer, metrics=metrics) for s in GRID
    ]
    batched, stats = evaluate_many(llm, system, GRID, stats=True)
    for strat, one, single_inst, batch_inst in zip(
        GRID, singles, instrumented, batched
    ):
        label = strat.short_name()
        assert _as_fields(one) == _as_fields(single_inst), label
        assert _as_fields(one) == _as_fields(batch_inst), label
    # The instrumentation did run: spans and counters were recorded.
    assert len(tracer.events()) > 0
    assert metrics.value("engine.candidates") == len(GRID)
    assert stats.candidates == len(GRID)


def test_memory_stage_failures_carry_the_memory_plan():
    # Even rejected candidates report where the bytes went, which is what
    # capacity planning (repro.analysis.capacity) relies on.
    strat = ExecutionStrategy(tensor_par=1, pipeline_par=1, data_par=8,
                              batch=64, microbatch=1, recompute="none")
    report = check_feasible(GPT3_175B, SYS8, strat)
    assert not report.feasible
    assert report.stage == "memory"
    assert report.mem1 is not None
    assert report.mem1.total > SYS8.mem1.capacity

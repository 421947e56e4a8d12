"""Bit-identity oracle for the serving simulator's event loop.

``reference_replica_loop`` below is the per-step continuous-batching loop
the simulator used before its O(1)-per-iteration rewrite, kept verbatim as
a test-only reference: every decode iteration recomputes the batch's mean
context, walks every running request and adds the step to each span.
``reference_simulate_plan`` drives it exactly as ``simulate_serve`` and
``simulate_disagg`` used to.  Hypothesis checks that ``simulate_plan``
matches it field for field — per-request TTFTs and TPOTs included — on
colocated and disaggregated plans, with and without a batch cap, and on an
HBM small enough that KV pages to the offload tier.
"""

from dataclasses import fields
from typing import Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.system import System, ddr5_offload, h100_system
from repro.llm.config import TINY_TEST, LLMConfig
from repro.serving import (
    LengthDist,
    ServePlan,
    ServeStats,
    ServeWorkload,
    SLOSpec,
    candidate_plans,
    check_plan,
    kv_transfer_time,
    simulate_plan,
)
from repro.serving.simulator import (
    _assemble_stats,
    _ReplicaOutcome,
    decode_step_time,
    kv_reserve_bytes,
    prefill_time,
    weights_bytes,
)

ROOMY = h100_system(4, hbm_gib=8.0)
# HBM barely above TINY_TEST's weights: resident KV pages to DDR.
PAGING = h100_system(4, hbm_gib=0.07, offload=ddr5_offload(64.0))
SLO = SLOSpec(ttft_p95=2e-4, tpot_p95=5e-5)


def reference_replica_loop(
    llm: LLMConfig,
    system: System,
    tensor_par: int,
    pipeline_par: int,
    ids: Sequence[int],
    ready: np.ndarray,
    prompts: np.ndarray,
    outputs: np.ndarray,
    *,
    hbm_kv_budget: float,
    offload_capacity: float,
    offload_seconds_per_byte: float,
    max_batch: int | None,
    charge_prefill: bool,
    wait_in_span: bool,
) -> _ReplicaOutcome:
    """Continuous-batching loop for one replica over its request subset.

    ``ready[i]`` is when request ``i`` becomes eligible (its arrival for a
    colocated deployment; prefill-done + KV-transfer for the decode side of
    a disaggregated one).  ``charge_prefill`` stalls the batch for each
    admitted request's prefill (chunked-prefill, single-queue model);
    ``wait_in_span`` folds admission wait into the per-token span (the
    decode side of disaggregation, where TTFT was already paid upstream).
    """
    order = sorted(ids, key=lambda i: (ready[i], i))
    n = len(order)
    ttft: dict[int, float] = {}
    span: dict[int, float] = {}
    now = 0.0
    next_ready = 0
    queue: list[int] = []
    active: dict[int, int] = {}  # request id -> tokens generated
    resident: dict[int, int] = {}  # request id -> reserved KV bytes
    resident_total = 0
    done = 0
    occupancy = 0.0
    max_queue = 0
    kv_allocated = 0
    kv_freed = 0
    kv_peak = 0
    kv_offload = 0.0
    capacity = hbm_kv_budget + offload_capacity

    while done < n:
        while next_ready < n and ready[order[next_ready]] <= now:
            queue.append(order[next_ready])
            next_ready += 1
        max_queue = max(max_queue, len(queue))

        # Admit FIFO while the batch slot and the full-context KV
        # reservation fit in HBM + offload.
        while queue and (max_batch is None or len(active) < max_batch):
            rid = queue[0]
            need = kv_reserve_bytes(
                llm, int(prompts[rid] + outputs[rid]), tensor_par, pipeline_par
            )
            if resident_total + need > capacity:
                break
            queue.pop(0)
            admit = max(now, float(ready[rid]))
            wait = admit - float(ready[rid])  # exact >= 0: admit >= ready
            if charge_prefill:
                pf = prefill_time(
                    llm, system, tensor_par, pipeline_par, int(prompts[rid])
                )
                now = admit + pf
                ttft[rid] = wait + pf  # fl(wait + prefill) >= prefill
            else:
                now = admit
            span[rid] = wait if wait_in_span else 0.0
            active[rid] = 0
            resident[rid] = need
            resident_total += need
            kv_allocated += need
            kv_peak = max(kv_peak, resident_total)

        if not active:
            if next_ready < n:
                now = max(now, float(ready[order[next_ready]]))
                continue
            break

        # One decode iteration for the whole running batch.  Context is the
        # integer mean of the active requests' current lengths, which keeps
        # it >= the smallest prompt (the TPOT bound's anchor).
        ctx = sum(int(prompts[r]) + g for r, g in active.items()) // len(active)
        step = decode_step_time(
            llm, system, tensor_par, pipeline_par, len(active), ctx
        )
        # KV beyond the HBM budget pages over the offload tier each step.
        overflow = resident_total - hbm_kv_budget
        if overflow > 0:
            step += overflow * offload_seconds_per_byte
            kv_offload += overflow
        now += step
        occupancy += step * len(active)
        finished = []
        for rid in active:
            active[rid] += 1
            span[rid] += step
            if active[rid] >= int(outputs[rid]):
                finished.append(rid)
        for rid in finished:
            del active[rid]
            resident_total -= resident[rid]
            kv_freed += resident.pop(rid)
            done += 1

    return _ReplicaOutcome(
        ttft=ttft,
        span=span,
        end_time=now,
        occupancy_time=occupancy,
        max_queue=max_queue,
        kv_allocated=kv_allocated,
        kv_freed=kv_freed,
        kv_peak=kv_peak,
        kv_offload=kv_offload,
    )


def _offload(system: System) -> tuple[float, float]:
    if system.mem2 is None:
        return 0.0, 0.0
    return system.mem2.capacity, 1.0 / (
        system.mem2.bandwidth * system.mem2.efficiency
    )


def reference_simulate_plan(
    llm: LLMConfig,
    system: System,
    plan: ServePlan,
    workload: ServeWorkload,
    *,
    slo: SLOSpec | None,
    max_batch: int | None,
) -> ServeStats:
    """The pre-rewrite ``simulate_serve``/``simulate_disagg`` bodies."""
    arrivals, prompts, outputs = workload.sample()
    n = workload.num_requests
    if plan.prefill is None:
        dec, decode_system = plan.decode, system
        ready, ttft = arrivals, None
        pre_max_queue = 0
    else:
        pre, dec = plan.prefill, plan.decode
        prefill_system = system.with_num_procs(pre.num_procs)
        decode_system = system.with_num_procs(dec.num_procs)
        free = [0.0] * pre.data_par
        ttft = np.empty(n)
        ready = np.empty(n)
        pre_max_queue = 0
        for i in range(n):
            slot = min(range(pre.data_par), key=lambda s: free[s])
            start = max(float(arrivals[i]), free[slot])
            waiting = sum(1 for s in free if s > arrivals[i])
            pre_max_queue = max(pre_max_queue, waiting)
            wait = start - float(arrivals[i])
            pf = prefill_time(
                llm, prefill_system, pre.tensor_par, pre.pipeline_par,
                int(prompts[i]),
            )
            done = start + pf
            free[slot] = done
            transfer = kv_transfer_time(llm, system, int(prompts[i]))
            ttft[i] = (wait + pf) + transfer
            ready[i] = done + transfer

    t, p, d = dec.tensor_par, dec.pipeline_par, dec.data_par
    hbm_kv_budget = decode_system.mem1.capacity - weights_bytes(llm, t, p)
    offload_capacity, offload_spb = _offload(decode_system)
    outcomes = []
    for rep in range(d):
        out = reference_replica_loop(
            llm, decode_system, t, p,
            [i for i in range(n) if i % d == rep],
            ready, prompts, outputs,
            hbm_kv_budget=hbm_kv_budget,
            offload_capacity=offload_capacity,
            offload_seconds_per_byte=offload_spb,
            max_batch=max_batch,
            charge_prefill=plan.prefill is None,
            wait_in_span=plan.prefill is not None,
        )
        if ttft is not None:
            out.ttft = {i: float(ttft[i]) for i in out.span}
            out.max_queue = max(out.max_queue, pre_max_queue)
        outcomes.append(out)
    return _assemble_stats(outcomes, outputs, slo, n)


def _serveable(system: System, workload: ServeWorkload) -> list[ServePlan]:
    return [
        plan for plan in candidate_plans(TINY_TEST, system)
        if check_plan(TINY_TEST, system, plan, workload) is None
    ]


def _assert_same(got: ServeStats, want: ServeStats) -> None:
    for f in fields(ServeStats):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


@st.composite
def serve_cases(draw):
    system = draw(st.sampled_from([ROOMY, PAGING]))
    lo = draw(st.integers(16, 256))
    out_lo = draw(st.integers(1, 24))
    workload = ServeWorkload(
        arrival_rate=draw(st.floats(0.5, 1e5)),
        prompt=LengthDist.uniform(lo, lo + draw(st.integers(0, 256))),
        output=LengthDist.uniform(out_lo, out_lo + draw(st.integers(0, 24))),
        num_requests=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    plans = _serveable(system, workload)
    colocated = [p for p in plans if not p.disaggregated]
    disagg = [p for p in plans if p.disaggregated]
    pool = draw(st.sampled_from([pool for pool in (colocated, disagg) if pool]))
    plan = draw(st.sampled_from(pool))
    max_batch = draw(st.sampled_from([None, 1, 2, 3, 4]))
    return system, plan, workload, max_batch


@settings(max_examples=100, deadline=None)
@given(case=serve_cases())
def test_simulate_plan_matches_per_step_oracle(case):
    system, plan, workload, max_batch = case
    got = simulate_plan(TINY_TEST, system, plan, workload, slo=SLO,
                        max_batch=max_batch)
    want = reference_simulate_plan(TINY_TEST, system, plan, workload, slo=SLO,
                                   max_batch=max_batch)
    _assert_same(got, want)


def test_oracle_cases_include_paging_and_both_plan_kinds():
    """The property's corners are reachable: paged KV on both plan kinds."""
    workload = ServeWorkload(
        arrival_rate=1e4, prompt=LengthDist.uniform(200, 400),
        output=LengthDist.uniform(8, 32), num_requests=24, seed=5,
    )
    plans = _serveable(PAGING, workload)
    paged = {True: 0, False: 0}
    for plan in plans:
        for max_batch in (None, 2):
            got = simulate_plan(TINY_TEST, PAGING, plan, workload, slo=SLO,
                                max_batch=max_batch)
            want = reference_simulate_plan(TINY_TEST, PAGING, plan, workload,
                                           slo=SLO, max_batch=max_batch)
            _assert_same(got, want)
            paged[plan.disaggregated] += got.kv_offload_bytes > 0
    assert paged[True] > 0 and paged[False] > 0

"""Bit-identity oracle for the serving kernels' step and prefill prices.

The serving step kernel keeps each batch size's context-independent decode
terms (and its TP all-reduce and PP hop times) in a table and adds only the
per-context part on a miss; prefill prices every prompt length of a
deployment in one columnar pass
(:func:`repro.engine.batch.prefill_columns`).  The references below are
the kernels they replaced, kept verbatim as test-only oracles:
``reference_profile_decode_block`` (the one-expression decode formulas),
``reference_step`` (the per-miss ``_Kernels.step`` body on top of it) and
``reference_prefill`` (a ``build_block`` forward pass at the request batch,
summed layer by layer with the builtin ``sum()``).  Hypothesis asserts ``==`` against them over
random model shapes, tensor/pipeline degrees, batches, contexts (0
included) and prompt lengths, on systems whose TP and PP groups sit on
different networks.

CPython 3.12 made the builtin ``sum()`` of floats Neumaier-compensated.
``builtin_sum`` below is the builtin's algorithm in either form; patching
it in for ``builtins.sum`` (and ``_COMPENSATED_SUM`` alike) runs both forms
on any Python.  The serve-search golden was recorded from the scalar
kernels in both forms.
"""

import builtins
import dataclasses
import hashlib
import json
import math
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flops import layer_fw_time
from repro.engine import batch as engine_batch
from repro.hardware.system import a100_system, h100_system
from repro.inference.decode import decode_batch_terms
from repro.io import llm_from_spec, system_from_spec
from repro.llm.blocks import build_block
from repro.llm.config import LLMConfig
from repro.serving import (
    LengthDist,
    ServePlan,
    ServeWorkload,
    SLOSpec,
    candidate_plans,
    check_plan,
    kv_transfer_time,
    plan_bounds,
    prefill_time,
    serve_search,
    simulate_plan,
)
from repro.serving import simulator
from repro.serving.disagg import kv_transfer_times
from repro.serving.simulator import _Kernels, _KernelTables, _percentiles

GOLDEN = Path(__file__).parent / "golden" / "serve_search_llama2_70b_h100_16.json"
_REAL_SUM = builtins.sum


def builtin_sum(iterable, /, start=0, *, compensated):
    """CPython's builtin ``sum()``: 3.12's form if ``compensated``, else 3.11's.

    Exact ints add as ints; once the total is an exact float, exact float
    items are added plainly (3.11) or with Neumaier's running compensation,
    added back at the end when non-zero and finite (3.12); ints add as
    doubles; anything else ends the fast paths and adds generically.
    """
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, comp = result, 0.0
        for item in it:
            if type(item) is float:
                s = total + item
                if compensated:
                    if abs(total) >= abs(item):
                        comp += (total - s) + item
                    else:
                        comp += (item - s) + total
                total = s
                continue
            if isinstance(item, int):
                total += float(item)
                continue
            if comp and math.isfinite(comp):
                total += comp
            result = total + item
            break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in it:
        result = result + item
    return result


def _plain_sum(iterable, /, start=0):
    return builtin_sum(iterable, start, compensated=False)


def _compensated_sum(iterable, /, start=0):
    return builtin_sum(iterable, start, compensated=True)


@contextmanager
def sum_form(compensated: bool):
    """Run the block with the builtin ``sum()`` of one CPython form."""
    with mock.patch.object(
        builtins, "sum", _compensated_sum if compensated else _plain_sum
    ), mock.patch.object(engine_batch, "_COMPENSATED_SUM", compensated):
        yield


@contextmanager
def fresh_tables(steps=65536, step_terms=4096, prefills=4096):
    """Empty kernel tables, so every lookup below misses first."""
    with mock.patch.multiple(
        simulator,
        _STEPS=_KernelTables(steps),
        _STEP_TERMS=_KernelTables(step_terms),
        _PREFILLS=_KernelTables(prefills),
    ):
        yield


# ---------------------------------------------------------------------------
# References: the kernels before the per-batch terms and columnar prefill
# ---------------------------------------------------------------------------


def reference_profile_decode_block(llm, *, batch, context, tensor_par=1):
    h, f, a = llm.hidden, llm.feedforward, llm.attn_heads
    t, e = tensor_par, llm.bytes_per_element
    if batch < 1 or context < 1:
        raise ValueError("batch and context must be >= 1")
    if a % t or h % t or f % t:
        raise ValueError(f"tensor_par={t} must divide the model shape")

    proj_flops = 2.0 * batch * (h * 3 * h + h * h + 2 * h * f) / t
    weight_bytes = (3 * h * h + h * h + 2 * h * f) * e / t
    attn_flops = 2.0 * 2.0 * batch * context * h / t
    cache_read = 2.0 * batch * context * h * e / t
    cache_write = 2.0 * batch * h * e / t
    vector_flops = (
        7.0 * 2 * batch * h / t
        + 5.0 * batch * (a / t) * context
        + 8.0 * batch * f / t
        + 2.0 * batch * h / t
    )
    activation_bytes = batch * (6 * h + 2 * f) * e / t
    return SimpleNamespace(
        flops=proj_flops + attn_flops,
        weight_read_bytes=weight_bytes,
        cache_read_bytes=cache_read,
        cache_write_bytes=cache_write,
        activation_bytes=activation_bytes,
        traffic=weight_bytes + cache_read + cache_write + activation_bytes,
        vector_flops=vector_flops,
        tp_comm_bytes=batch * h * e,
        tp_comm_count=2 if t > 1 else 0,
    )


def _networks(system, t, p):
    tp_net = system.network_for_span(t) if t > 1 else None
    pp_net = (
        system.network_for_span(min(system.num_procs, t * p)) if p > 1 else None
    )
    return tp_net, pp_net


def reference_step(llm, system, t, p, batch, context):
    tp_net, pp_net = _networks(system, t, p)
    prof = reference_profile_decode_block(
        llm, batch=batch, context=max(context, 1), tensor_par=t
    )
    compute = system.processor.compute_time("matrix", prof.flops)
    vector = system.processor.compute_time("vector", prof.vector_flops)
    memory = system.mem1.access_time(prof.traffic)
    block = max(compute + vector, memory)
    comm = 0.0
    if t > 1:
        comm = prof.tp_comm_count * tp_net.collective_time(
            "all_reduce", prof.tp_comm_bytes, t
        )
    step = llm.num_blocks * (block + comm)
    if p > 1:
        hop_bytes = batch * llm.hidden * llm.bytes_per_element
        step += p * pp_net.collective_time("p2p", hop_bytes, 2)
    return step


def reference_block_sums(llm, system, t, prompt_len, total=sum, batch=1):
    """``(fw_block, tp_block)`` of the scalar prefill, summed with ``total``."""
    tp_net, _ = _networks(system, t, 1)
    block = build_block(
        llm.with_seq(prompt_len), microbatch=batch, tensor_par=t, seq_par=False,
    )
    fw_block = total(
        layer_fw_time(system.processor, system.mem1, l).total
        for l in block.layers
    )
    tp_block = (
        total(tp_net.collective_time(c.op, c.nbytes, t)
              for c in block.tp_comm_fw)
        if tp_net
        else 0.0
    )
    return fw_block, tp_block


def reference_prefill(llm, system, t, p, prompt_len, batch=1):
    _, pp_net = _networks(system, t, p)
    fw_block, tp_block = reference_block_sums(
        llm, system, t, prompt_len, batch=batch
    )
    total = llm.num_blocks * (fw_block + tp_block)
    if p > 1:
        p2p_bytes = batch * prompt_len * llm.hidden * llm.bytes_per_element
        total += (p - 1) * pp_net.collective_time("p2p", p2p_bytes, 2)
    return total


# ---------------------------------------------------------------------------
# Hypothesis cases
# ---------------------------------------------------------------------------


def _system(kind, nvlink, ramp):
    make = h100_system if kind == "h100" else a100_system
    system = make(32, nvlink_size=nvlink)
    if ramp:
        # Every access below 1 TiB sits on the log2 small-access ramp.
        mem1 = dataclasses.replace(system.mem1, small_access_bytes=float(1 << 40))
        system = dataclasses.replace(system, mem1=mem1)
    return system


@st.composite
def deployments(draw):
    """``(llm, system, t, p)`` with ``t`` dividing heads, hidden and ff."""
    t = draw(st.sampled_from([1, 2, 4, 8]))
    p = draw(st.sampled_from([1, 2, 4]))
    heads = t * draw(st.integers(1, 4))
    hidden = heads * draw(st.sampled_from([8, 16, 64, 128]))
    ff = draw(st.sampled_from([0, t * 16 * draw(st.integers(1, 64))]))
    llm = LLMConfig(
        name="hyp", hidden=hidden, attn_heads=heads,
        seq_size=draw(st.integers(1, 4096)),
        num_blocks=draw(st.integers(p, 96)), feedforward=ff,
        bits_per_element=draw(st.sampled_from([8, 16, 32])),
    )
    system = _system(draw(st.sampled_from(["h100", "a100"])),
                     draw(st.sampled_from([2, 4, 8])), draw(st.booleans()))
    return llm, system, t, p


@settings(max_examples=150, deadline=None)
@given(dep=deployments(),
       keys=st.lists(st.tuples(st.integers(1, 256), st.integers(0, 8192)),
                     min_size=1, max_size=8))
def test_step_matches_reference(dep, keys):
    llm, system, t, p = dep
    with fresh_tables():
        kernels = _Kernels(llm, system, t, p)
        for batch, context in keys:
            want = reference_step(llm, system, t, p, batch, context)
            assert kernels.step(batch, context) == want
            assert kernels.step(batch, context) == want  # the table hit


@settings(max_examples=100, deadline=None)
@given(dep=deployments(), batch=st.integers(1, 256),
       context=st.integers(1, 8192))
def test_decode_batch_terms_match_reference(dep, batch, context):
    llm, _, t, _ = dep
    terms = decode_batch_terms(llm, batch=batch, tensor_par=t)
    flops, vector_flops, cache_read, traffic = terms.at(context)
    got = dict(
        flops=flops, weight_read_bytes=terms.weight_read_bytes,
        cache_read_bytes=cache_read, cache_write_bytes=terms.cache_write_bytes,
        activation_bytes=terms.activation_bytes, traffic=traffic,
        vector_flops=vector_flops, tp_comm_bytes=terms.tp_comm_bytes,
        tp_comm_count=terms.tp_comm_count,
    )
    assert got == vars(reference_profile_decode_block(
        llm, batch=batch, context=context, tensor_par=t
    ))


@settings(max_examples=100, deadline=None)
@given(dep=deployments(),
       lengths=st.lists(st.integers(1, 4096), min_size=1, max_size=12))
def test_prefill_matches_reference(dep, lengths):
    llm, system, t, p = dep
    want = {n: reference_prefill(llm, system, t, p, n) for n in lengths}
    with fresh_tables():
        kernels = _Kernels(llm, system, t, p)
        assert kernels.prefill_many(lengths) == want
        assert {n: kernels.prefill(n) for n in lengths} == want  # table hits
    with fresh_tables():
        kernels = _Kernels(llm, system, t, p)
        assert {n: kernels.prefill(n) for n in lengths} == want  # one by one


@settings(max_examples=60, deadline=None)
@given(dep=deployments(), batch=st.integers(1, 64),
       prompt_len=st.integers(1, 4096))
def test_prefill_batch_matches_reference(dep, batch, prompt_len):
    """A batch-``batch`` prefill: one forward pass at that microbatch."""
    llm, system, t, p = dep
    want = reference_prefill(llm, system, t, p, prompt_len, batch)
    with fresh_tables():
        kernels = _Kernels(llm, system, t, p)
        assert kernels.prefill_batch(prompt_len, batch) == want
        if batch == 1:
            assert kernels.prefill(prompt_len) == want


@settings(max_examples=60, deadline=None)
@given(dep=deployments(),
       lengths=st.lists(st.integers(1, 4096), min_size=1, max_size=12))
def test_kv_transfer_times_match_kv_transfer_time(dep, lengths):
    llm, system, _, _ = dep
    want = {n: kv_transfer_time(llm, system, n) for n in lengths}
    with fresh_tables():
        assert kv_transfer_times(llm, system, lengths) == want
        assert kv_transfer_times(llm, system, lengths) == want


@pytest.mark.parametrize("t, prompt_len", [(3, 64), (0, 64), (2, 0)])
def test_prefill_rejects_what_the_scalar_block_rejected(t, prompt_len):
    llm = llm_from_spec("tiny-test")
    with pytest.raises(ValueError):
        reference_prefill(llm, H100_16, t, 1, prompt_len)
    with fresh_tables(), pytest.raises(ValueError):
        prefill_time(llm, H100_16, t, 1, prompt_len)


def test_cases_reach_distinct_tp_and_pp_networks():
    """The drawn systems put TP and PP groups on different networks."""
    pairs = set()
    for nvlink in (2, 4, 8):
        system = _system("h100", nvlink, False)
        for t in (2, 4, 8):
            for p in (2, 4):
                tp_net, pp_net = _networks(system, t, p)
                pairs.add(tp_net.name != pp_net.name)
    assert pairs == {True, False}


# ---------------------------------------------------------------------------
# Both forms of the builtin sum()
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(xs=st.lists(st.floats(-1e12, 1e12), max_size=20),
       ints=st.lists(st.integers(-10**6, 10**6), max_size=4))
def test_builtin_sum_model_matches_this_python(xs, ints):
    """``builtin_sum`` in this Python's form is the builtin itself."""
    here = engine_batch._COMPENSATED_SUM
    for items in (xs, ints + xs, xs + ints, ints):
        got = builtin_sum(items, compensated=here)
        want = _REAL_SUM(items)
        assert type(got) is type(want)
        assert got == want or (math.isnan(got) and math.isnan(want))


LLAMA = llm_from_spec("llama2-70b")
H100_16 = system_from_spec("h100:16")
LENGTHS = list(range(512, 2048, 19))


@pytest.mark.parametrize("compensated", [False, True], ids=["plain", "neumaier"])
@pytest.mark.parametrize("t", [1, 2, 4, 8])
def test_prefill_columns_replay_either_sum_form(compensated, t):
    """Per-layer forward times and TP events add like ``sum()`` adds them."""
    def total(terms):
        return builtin_sum(terms, compensated=compensated)

    want = [reference_block_sums(LLAMA, H100_16, t, n, total) for n in LENGTHS]
    with sum_form(compensated), fresh_tables():
        fw, tp = engine_batch.prefill_columns(
            LLAMA, H100_16, np.array(LENGTHS), t, 1
        )
        assert list(zip(fw.tolist(), tp.tolist())) == want
        kernels = _Kernels(LLAMA, H100_16, t, 1)
        assert kernels.prefill_many(LENGTHS) == {
            n: LLAMA.num_blocks * (f + c) for n, (f, c) in zip(LENGTHS, want)
        }


def test_the_two_sum_forms_differ_on_prefill():
    """The forms disagree on real prefills, so the test above has teeth."""
    differ = 0
    for n in LENGTHS:
        plain = reference_block_sums(
            LLAMA, H100_16, 8, n, lambda xs: builtin_sum(xs, compensated=False)
        )
        neumaier = reference_block_sums(
            LLAMA, H100_16, 8, n, lambda xs: builtin_sum(xs, compensated=True)
        )
        differ += plain != neumaier
    assert differ > 0


# ---------------------------------------------------------------------------
# One percentile call per sample
# ---------------------------------------------------------------------------


samples = st.one_of(
    st.lists(st.floats(0.0, 1e3, allow_subnormal=False), min_size=1,
             max_size=200),
    # Few distinct values: ties everywhere.
    st.lists(st.sampled_from([0.0, 1e-3, 0.25, 0.25 + 2**-40, 7.0]),
             min_size=1, max_size=200),
)


@settings(max_examples=200, deadline=None)
@given(xs=samples)
def test_one_percentile_call_equals_three(xs):
    x = np.array(xs)
    once = np.percentile(x, (50, 95, 99))
    for got, q in zip(once.tolist(), (50, 95, 99)):
        assert got == float(np.percentile(x, q))
    assert _percentiles(x) == tuple(float(np.percentile(x, q)) for q in (50, 95, 99))


def test_percentiles_of_single_and_empty_samples():
    assert _percentiles(np.array([0.125])) == (0.125, 0.125, 0.125)
    assert _percentiles(np.empty(0)) == (0.0, 0.0, 0.0)


def test_percentiles_of_simulated_and_bound_samples():
    """The arrays ``_assemble_stats`` and ``plan_bounds`` build."""
    llm, system = llm_from_spec("tiny-test"), h100_system(8, hbm_gib=8.0)
    workload = ServeWorkload(
        arrival_rate=200.0, prompt=LengthDist.uniform(32, 256),
        output=LengthDist.uniform(4, 24), num_requests=60, seed=9,
    )
    _, prompts, _ = workload.sample()
    plans = [plan for plan in candidate_plans(llm, system)
             if check_plan(llm, system, plan, workload) is None]
    assert any(plan.disaggregated for plan in plans)
    for plan in plans:
        stats = simulate_plan(llm, system, plan, workload)
        for name, values in (("ttft", stats.ttfts), ("tpot", stats.tpots)):
            for q in (50, 95, 99):
                assert getattr(stats, f"{name}_p{q}") == float(
                    np.percentile(np.array(values), q)
                )
        bounds = plan_bounds(llm, system, plan, workload, prompts)
        pre = plan.prefill or plan.decode
        pre_system = system.with_num_procs(pre.num_procs) if plan.prefill else system
        kernels = _Kernels(llm, pre_system, pre.tensor_par, pre.pipeline_par)
        base = [kernels.prefill(n) for n in prompts.tolist()]
        if plan.prefill is not None:
            base = [pf + kv_transfer_time(llm, system, n)
                    for pf, n in zip(base, prompts.tolist())]
        for q in (50, 95, 99):
            assert getattr(bounds, f"ttft_p{q}") == float(
                np.percentile(np.array(base), q)
            )


# ---------------------------------------------------------------------------
# serve-search against the scalar kernels' golden
# ---------------------------------------------------------------------------


def _digest(values) -> str:
    return hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()


def _record(result) -> dict:
    top = []
    for plan, stats in result.top:
        rec = {}
        for f in dataclasses.fields(stats):
            v = getattr(stats, f.name)
            rec[f.name] = (v.hex() if isinstance(v, float)
                           else _digest(v) if isinstance(v, tuple) else v)
        top.append({"plan": plan.to_dict(), "stats": rec})
    return {
        "candidates": result.num_candidates, "simulated": result.num_simulated,
        "pruned": result.num_pruned, "infeasible": result.num_infeasible,
        "violated": result.num_violated, "top": top,
    }


@pytest.mark.parametrize("compensated", [False, True], ids=["plain", "neumaier"])
@pytest.mark.parametrize("seed", [3, 7, 11])
def test_serve_search_matches_golden(compensated, seed):
    """The perfbench serve-search problem: top-k, stats and counts, bit for bit."""
    golden = json.loads(GOLDEN.read_text())["neumaier" if compensated else "plain"]
    workload = ServeWorkload(
        arrival_rate=4.0, prompt=LengthDist.uniform(512, 2048),
        output=LengthDist.uniform(64, 256), num_requests=80, seed=seed,
    )
    with sum_form(compensated), fresh_tables():
        result = serve_search(
            LLAMA, H100_16, workload, SLOSpec(ttft_p95=0.35, tpot_p95=0.04)
        )
    assert _record(result) == golden[str(seed)]
    assert [ServePlan.from_dict(e["plan"]) for e in golden[str(seed)]["top"]] == [
        plan for plan, _ in result.top
    ]

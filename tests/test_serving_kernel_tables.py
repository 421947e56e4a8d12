"""The per-batch decode-term table and the KV-transfer memo: bounded, exact.

``_STEP_TERMS`` holds one entry per ``(deployment hardware, batch size)``:
the decode step's context-independent terms with the TP all-reduce and PP
hop times.  KV-transfer times live in the prefill tables, one entry per
``(model, outer network, prompt length)``.  Both must keep their limits,
and answers must not change when entries are evicted under them, also with
threads missing and evicting concurrently.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest

from repro.hardware.system import h100_system
from repro.llm.config import TINY_TEST
from repro.serving import (
    LengthDist,
    ServeWorkload,
    candidate_plans,
    check_plan,
    kv_transfer_time,
    plan_bounds,
    simulate_plan,
)
from repro.serving import simulator
from repro.serving.disagg import kv_transfer_times
from repro.serving.simulator import _KernelTables

SYS = h100_system(8, hbm_gib=8.0)
WL = ServeWorkload(
    arrival_rate=50.0, prompt=LengthDist.uniform(32, 256),
    output=LengthDist.uniform(4, 24), num_requests=30, seed=3,
)


def _plans():
    return [
        plan for plan in candidate_plans(TINY_TEST, SYS)
        if check_plan(TINY_TEST, SYS, plan, WL) is None
    ]


def _fresh_tables(monkeypatch, step_terms=4096, prefills=4096):
    monkeypatch.setattr(simulator, "_STEPS", _KernelTables(65536))
    monkeypatch.setattr(simulator, "_STEP_TERMS", _KernelTables(step_terms))
    monkeypatch.setattr(simulator, "_PREFILLS", _KernelTables(prefills))


def _run_all(plans):
    """Bounds and simulation of every plan: every kernel table in use."""
    _, prompts, _ = WL.sample()
    return [
        (plan_bounds(TINY_TEST, SYS, plan, WL, prompts),
         simulate_plan(TINY_TEST, SYS, plan, WL))
        for plan in plans
    ]


def _transfer_entries():
    return sum(
        len(table) for hw, table in simulator._PREFILLS._tables.items()
        if hw[0] == "kv_transfer"
    )


def test_default_step_terms_limit():
    assert simulator._STEP_TERMS.limit == 4096


def test_step_terms_are_keyed_by_batch_size(monkeypatch):
    _fresh_tables(monkeypatch)
    plans = _plans()
    _run_all(plans)
    sizes = [key for table in simulator._STEP_TERMS._tables.values()
             for key in table]
    assert sizes and all(isinstance(b, int) and b >= 1 for b in sizes)
    # Far fewer batch sizes than (batch, context) steps: the point of the table.
    assert simulator._STEP_TERMS.entries() * 4 < simulator._STEPS.entries()
    # One transfer entry per distinct prompt length, shared by every split.
    assert any(plan.disaggregated for plan in plans)
    assert _transfer_entries() == len(set(WL.sample()[1].tolist()))


def test_term_table_and_transfer_memo_stay_within_bound(monkeypatch):
    """Shrunken limits force eviction; answers and the bounds both hold."""
    plans = _plans()
    _fresh_tables(monkeypatch)
    want = _run_all(plans)
    unbounded = simulator._STEP_TERMS.entries(), simulator._PREFILLS.entries()

    limits = (4, 16)
    assert unbounded[0] > 4 * limits[0] and unbounded[1] > 4 * limits[1]
    _fresh_tables(monkeypatch, *limits)
    assert _run_all(plans) == want
    assert simulator._STEP_TERMS.entries() <= limits[0]
    assert simulator._PREFILLS.entries() <= limits[1]


def test_transfer_memo_answers_survive_evicting_their_own_call():
    """A call storing more lengths than the table holds still answers all."""
    lengths = list(range(40, 60))
    want = {n: kv_transfer_time(TINY_TEST, SYS, n) for n in lengths}
    with mock.patch.object(simulator, "_PREFILLS", _KernelTables(3)):
        assert kv_transfer_times(TINY_TEST, SYS, lengths) == want
        assert simulator._PREFILLS.entries() <= 3
        assert kv_transfer_times(TINY_TEST, SYS, lengths[::-1]) == want


@pytest.mark.parametrize("limits", [(4096, 4096), (3, 12)],
                         ids=["default", "evicting"])
def test_concurrent_runs_match_serial(monkeypatch, limits):
    plans = _plans()[::2]
    _fresh_tables(monkeypatch)
    want = _run_all(plans)
    _fresh_tables(monkeypatch, *limits)
    # Four threads on two cores, switching as often as the interpreter
    # allows, each walking the plans from a different starting point: they
    # miss, store and evict in the same tables concurrently.
    starts = [k * len(plans) // 4 for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            runs = list(pool.map(_run_all, [plans[k:] + plans[:k] for k in starts],
                                 timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for k, got in zip(starts, runs):
        assert got == want[k:] + want[:k]
    assert simulator._STEP_TERMS.entries() <= limits[0]
    assert simulator._PREFILLS.entries() <= limits[1]


def test_no_registered_table_is_empty_after_deployment_sweeps(monkeypatch):
    """A table is registered by its first entry, not by being asked for:
    step-only and batch-prefill pricing leaves no empty prefill table."""
    from repro.inference.search import search_deployments
    from repro.llm.config import get_preset

    _fresh_tables(monkeypatch)
    llm = get_preset("megatron-1t")
    for n in (64, 128, 256):
        search_deployments(llm, h100_system(n))
    for tables in (simulator._STEPS, simulator._STEP_TERMS,
                   simulator._PREFILLS):
        assert all(tables._tables.values())
    assert simulator._STEPS._tables  # the sweeps did price steps

"""The serving kernels' memo tables: bounded, hardware-keyed, thread-safe."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.hardware.system import h100_system
from repro.inference import InferenceStrategy
from repro.llm.config import TINY_TEST
from repro.serving import (
    LengthDist,
    ServePlan,
    ServeWorkload,
    candidate_plans,
    check_plan,
    simulate_plan,
)
from repro.serving import simulator
from repro.serving.simulator import _KernelTables

SYS = h100_system(8, hbm_gib=8.0)
WL = ServeWorkload(
    arrival_rate=50.0, prompt=LengthDist.uniform(32, 256),
    output=LengthDist.uniform(4, 24), num_requests=30, seed=3,
)


def _strategy(t, p, d):
    return InferenceStrategy(tensor_par=t, pipeline_par=p, data_par=d)


def _plans():
    return [
        plan for plan in candidate_plans(TINY_TEST, SYS)
        if check_plan(TINY_TEST, SYS, plan, WL) is None
    ]


def _fresh_tables(monkeypatch, steps=65536, prefills=4096):
    monkeypatch.setattr(simulator, "_STEPS", _KernelTables(steps))
    monkeypatch.setattr(simulator, "_PREFILLS", _KernelTables(prefills))


def _simulate_all(plans):
    return [simulate_plan(TINY_TEST, SYS, plan, WL) for plan in plans]


def test_default_limits_match_the_kernel_cache_sizes():
    assert simulator._STEPS.limit == 65536
    assert simulator._PREFILLS.limit == 4096


def test_tables_stay_within_bound_after_overflowing_sweep(monkeypatch):
    """Shrunken limits force eviction; answers and the bound both hold."""
    plans = _plans()
    _fresh_tables(monkeypatch)
    want = _simulate_all(plans)
    unbounded = simulator._STEPS.entries(), simulator._PREFILLS.entries()

    limits = (64, 16)
    assert unbounded[0] > 4 * limits[0] and unbounded[1] > 4 * limits[1]
    _fresh_tables(monkeypatch, *limits)
    assert _simulate_all(plans) == want
    assert simulator._STEPS.entries() <= limits[0]
    assert simulator._PREFILLS.entries() <= limits[1]


def test_disagg_decode_side_shares_the_colocated_step_table(monkeypatch):
    """Systems differing only in ``num_procs`` price steps from one table."""
    _fresh_tables(monkeypatch)
    fixed = ServeWorkload(
        arrival_rate=50.0, prompt=LengthDist.fixed(128),
        output=LengthDist.fixed(16), num_requests=12, seed=0,
    )
    colocated = ServePlan(decode=_strategy(2, 2, 2))
    disagg = ServePlan(decode=_strategy(2, 2, 1), prefill=_strategy(2, 1, 2))
    for plan in (colocated, disagg):
        assert check_plan(TINY_TEST, SYS, plan, fixed) is None

    # One request per batch at fixed lengths: both plans visit the same
    # (batch, context) keys, so only the hardware key decides sharing.
    simulate_plan(TINY_TEST, SYS, colocated, fixed, max_batch=1)
    entries = simulator._STEPS.entries()
    assert entries == 16
    simulate_plan(TINY_TEST, SYS, disagg, fixed, max_batch=1)
    assert simulator._STEPS.entries() == entries


@pytest.mark.parametrize("limits", [(65536, 4096), (256, 32)],
                         ids=["default", "evicting"])
def test_concurrent_simulations_match_serial(monkeypatch, limits):
    plans = _plans()[::2]
    _fresh_tables(monkeypatch)
    want = _simulate_all(plans)
    _fresh_tables(monkeypatch, *limits)
    # Four threads on two cores, switching as often as the interpreter
    # allows, each walking the plans from a different starting point: they
    # miss, store and evict in the same tables concurrently.
    starts = [k * len(plans) // 4 for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            runs = list(pool.map(_simulate_all, [plans[k:] + plans[:k] for k in starts],
                                 timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for k, got in zip(starts, runs):
        assert got == want[k:] + want[:k]
    assert simulator._STEPS.entries() <= limits[0]
    assert simulator._PREFILLS.entries() <= limits[1]

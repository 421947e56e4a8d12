"""serve_search tests: SLO pruning oracle, checkpoints, faults, key isolation."""

import os

import pytest

from repro.cachekey import run_key
from repro.hardware.system import h100_system
from repro.llm.config import TINY_TEST
from repro.obs import EventJournal, Tracer, read_events
from repro.search import (
    CheckpointMismatch,
    FaultInjector,
    RetryPolicy,
    SearchOptions,
)
from repro.serving import (
    LengthDist,
    ServeSearchOptions,
    ServeWorkload,
    SLOSpec,
    candidate_plans,
    serve_search,
)

SYS = h100_system(4, hbm_gib=8.0)
WL = ServeWorkload(
    arrival_rate=20.0, prompt=LengthDist.uniform(64, 128),
    output=LengthDist.uniform(16, 32), num_requests=40, seed=1,
)
SLO = SLOSpec(ttft_p95=9e-5, tpot_p95=4e-5)


def _tops_equal(a, b):
    assert len(a.top) == len(b.top)
    for (pa, sa), (pb, sb) in zip(a.top, b.top):
        assert pa == pb
        assert sa == sb  # every float field, bit for bit


def test_enumeration_deterministic_and_colocated_first():
    plans = candidate_plans(TINY_TEST, SYS)
    assert plans == candidate_plans(TINY_TEST, SYS)
    first_disagg = next(
        (i for i, p in enumerate(plans) if p.disaggregated), len(plans)
    )
    assert all(not p.disaggregated for p in plans[:first_disagg])
    assert all(p.disaggregated for p in plans[first_disagg:])


def test_unconstrained_search_ranks_by_goodput():
    result = serve_search(TINY_TEST, SYS, WL, top_k=5)
    assert result.top and result.num_pruned == 0
    goodputs = [s.goodput_rps for _, s in result.top]
    assert goodputs == sorted(goodputs, reverse=True)
    assert result.best == result.top[0]


def test_pruned_equals_exhaustive_oracle():
    """SLO-bound pruning must never change the reported top-k."""
    pruned = serve_search(TINY_TEST, SYS, WL, SLO, top_k=5, prune=True)
    oracle = serve_search(TINY_TEST, SYS, WL, SLO, top_k=5, prune=False)
    assert pruned.num_pruned > 0  # the bound actually engaged
    assert oracle.num_pruned == 0
    _tops_equal(pruned, oracle)
    assert (
        pruned.num_simulated + pruned.num_pruned + pruned.num_infeasible
        == pruned.num_candidates
    )


def test_top_contains_only_slo_satisfying_plans():
    result = serve_search(TINY_TEST, SYS, WL, SLO, top_k=10)
    for _, stats in result.top:
        assert SLO.satisfied(stats)
    assert result.num_violated + result.num_pruned > 0 or result.top


def test_impossible_slo_returns_empty():
    result = serve_search(TINY_TEST, SYS, WL, SLOSpec(ttft_p95=1e-300),
                          top_k=5)
    assert result.top == []
    assert result.num_simulated == 0  # everything bound-pruned
    assert result.num_pruned == result.num_candidates - result.num_infeasible


def test_workers_do_not_change_answer():
    serial = serve_search(TINY_TEST, SYS, WL, SLO, top_k=5, collect_stats=True)
    tracer = Tracer()
    pooled = serve_search(TINY_TEST, SYS, WL, SLO, top_k=5, workers=2,
                          tracer=tracer, collect_stats=True)
    assert serial.stats.workers == 1  # workers=None is serial
    assert pooled.stats.workers == 2
    # The chunks really ran in pool processes, not one after another here.
    chunk_pids = {e["pid"] for e in tracer.events() if e["cat"] == "serve.chunk"}
    assert chunk_pids and os.getpid() not in chunk_pids
    _tops_equal(serial, pooled)
    for field in ("num_candidates", "num_simulated", "num_pruned",
                  "num_infeasible", "num_violated"):
        assert getattr(pooled, field) == getattr(serial, field)


def test_checkpoint_resume_bit_identical(tmp_path):
    journal = tmp_path / "serve.jsonl"
    base = serve_search(TINY_TEST, SYS, WL, SLO, top_k=5)
    first = serve_search(TINY_TEST, SYS, WL, SLO, top_k=5,
                         checkpoint=journal)
    _tops_equal(base, first)
    resumed = serve_search(TINY_TEST, SYS, WL, SLO, top_k=5,
                           checkpoint=journal, resume=True,
                           collect_stats=True)
    _tops_equal(base, resumed)
    assert resumed.stats is not None and resumed.stats.resumed_chunks > 0


def test_fault_injection_recovers_bit_identical():
    base = serve_search(TINY_TEST, SYS, WL, SLO, top_k=5)
    faulted = serve_search(
        TINY_TEST, SYS, WL, SLO, top_k=5,
        retry_policy=RetryPolicy(max_retries=2, backoff_base=0.0),
        fault_injector=FaultInjector(0, "exception", fail_attempts=1),
        collect_stats=True,
    )
    _tops_equal(base, faulted)
    assert faulted.stats is not None and faulted.stats.retries >= 1


def test_obs_plumbing(tmp_path):
    tracer = Tracer()
    events = EventJournal(tmp_path / "events.jsonl", source="test")
    result = serve_search(TINY_TEST, SYS, WL, SLO, top_k=3, tracer=tracer,
                          collect_stats=True, events=events)
    events.close()
    assert result.stats is not None
    assert result.stats.candidates == result.num_candidates
    assert result.stats.prune_rate > 0
    kinds = [e.get("kind") for e in read_events(tmp_path / "events.jsonl")]
    assert "serve.start" in kinds and "serve.done" in kinds
    names = [s["name"] for s in tracer.events() if s.get("ph") == "X"]
    assert any("serve" in n for n in names)


def test_serving_keys_never_collide_with_training_keys():
    """Same (llm, system): the serving extras force a different run key."""
    train = run_key(TINY_TEST, SYS, 0, SearchOptions(), kind="search")
    opts = ServeSearchOptions()
    serve = run_key(
        TINY_TEST, SYS, 0, opts, kind="serve-search",
        extra={"workload": WL.to_dict(), "slo": SLO.to_dict(), "top_k": 5},
    )
    assert train != serve
    other_wl = run_key(
        TINY_TEST, SYS, 0, opts, kind="serve-search",
        extra={"workload": ServeWorkload(arrival_rate=21.0).to_dict(),
               "slo": SLO.to_dict(), "top_k": 5},
    )
    other_slo = run_key(
        TINY_TEST, SYS, 0, opts, kind="serve-search",
        extra={"workload": WL.to_dict(), "slo": None, "top_k": 5},
    )
    assert len({serve, other_wl, other_slo}) == 3


def test_wrong_journal_key_rejected(tmp_path):
    journal = tmp_path / "serve.jsonl"
    serve_search(TINY_TEST, SYS, WL, SLO, top_k=5, checkpoint=journal)
    other = ServeWorkload(arrival_rate=99.0, num_requests=10,
                          prompt=LengthDist.fixed(64),
                          output=LengthDist.fixed(8))
    with pytest.raises(CheckpointMismatch):
        serve_search(TINY_TEST, SYS, other, SLO, top_k=5,
                     checkpoint=journal, resume=True)


def test_options_validation():
    with pytest.raises(ValueError):
        ServeSearchOptions(splits=(0.0,))
    with pytest.raises(ValueError):
        ServeSearchOptions(splits=(1.5,))
    no_disagg = serve_search(
        TINY_TEST, SYS, WL, options=ServeSearchOptions(disagg=False), top_k=3
    )
    assert all(not p.disaggregated for p, _ in no_disagg.top)

"""Execution-search engine tests (paper §5.1)."""

import os

import numpy as np
import pytest

from repro.cli import main
from repro.core import calculate
from repro.hardware import a100_system, ddr5_offload
from repro.llm import LLMConfig, TINY_TEST
from repro.obs import Tracer
from repro.search import SearchOptions, candidate_strategies, search

LLM = LLMConfig(name="search-llm", hidden=2048, attn_heads=16, seq_size=1024,
                num_blocks=16)
SYS = a100_system(16)


def small_options(**kw):
    base = dict(
        recompute=("full",),
        seq_par_modes=((False, False, False),),
        tp_overlap=("none",),
        dp_overlap=(False,),
        optimizer_sharding=(False,),
        fused_activations=(False,),
        max_microbatch=4,
    )
    base.update(kw)
    return SearchOptions(**base)


def test_candidates_cover_all_factorizations():
    opts = small_options()
    cands = list(candidate_strategies(LLM, SYS, 16, opts))
    triples = {(c.tensor_par, c.pipeline_par, c.data_par) for c in cands}
    assert all(t * p * d == 16 for t, p, d in triples)
    assert (16, 1, 1) in triples
    assert (1, 16, 1) in triples
    assert (1, 1, 16) in triples


def test_candidates_respect_max_tensor_par():
    opts = small_options(max_tensor_par=4)
    cands = list(candidate_strategies(LLM, SYS, 16, opts))
    assert all(c.tensor_par <= 4 for c in cands)


def test_candidates_prune_structural_violations():
    # heads=16 -> t=16 allowed but t must divide hidden/ff too; all satisfied
    # here, so prune only p > blocks and bad batch splits.
    opts = small_options()
    cands = list(candidate_strategies(LLM, SYS, 16, opts))
    assert all(c.pipeline_par <= LLM.num_blocks for c in cands)
    assert all(c.batch % c.data_par == 0 for c in cands)


def test_all_candidates_pass_static_validation():
    opts = small_options()
    for cand in candidate_strategies(LLM, SYS, 16, opts):
        cand.validate(LLM, SYS)  # must not raise


def test_search_returns_best_by_sample_rate():
    opts = small_options()
    res = search(LLM, SYS, 16, opts, workers=0)
    assert res.best is not None
    assert res.num_feasible > 0
    assert res.num_evaluated >= res.num_feasible
    # best is at least as fast as every retained configuration
    assert all(res.best.sample_rate >= r.sample_rate for _, r in res.top)


def test_search_best_matches_direct_evaluation():
    opts = small_options()
    res = search(LLM, SYS, 16, opts, workers=0)
    direct = calculate(LLM, SYS, res.best_strategy)
    assert direct.sample_rate == pytest.approx(res.best.sample_rate)


def test_search_rates_array_has_feasible_length():
    opts = small_options()
    res = search(LLM, SYS, 16, opts, workers=0, keep_rates=True)
    assert len(res.sample_rates) == res.num_feasible
    assert res.feasible_fraction <= 1.0


def test_search_top_k_limits_results():
    opts = small_options()
    res = search(LLM, SYS, 16, opts, workers=0, top_k=3)
    assert len(res.top) <= 3
    rates = [r.sample_rate for _, r in res.top]
    assert rates == sorted(rates, reverse=True)


def test_wider_options_never_hurt_best():
    narrow = search(LLM, SYS, 16, small_options(), workers=0)
    wide = search(
        LLM,
        SYS,
        16,
        small_options(
            recompute=("none", "attn_only", "full"),
            optimizer_sharding=(False, True),
            seq_par_modes=((False, False, False), (True, True, True)),
        ),
        workers=0,
    )
    assert wide.best.sample_rate >= narrow.best.sample_rate - 1e-9


def test_offload_modes_require_tier2_to_be_feasible():
    opts = small_options(offload_modes=((True, True, True),))
    res = search(LLM, SYS, 16, opts, workers=0)
    assert res.num_feasible == 0  # no tier-2 memory on SYS
    sys_off = a100_system(16, offload=ddr5_offload(4096))
    res2 = search(LLM, sys_off, 16, opts, workers=0)
    assert res2.num_feasible > 0


def test_parallel_search_matches_serial():
    opts = small_options()
    serial = search(LLM, SYS, 16, opts, workers=0)
    parallel = search(LLM, SYS, 16, opts, workers=2)
    assert parallel.num_evaluated == serial.num_evaluated
    assert parallel.num_feasible == serial.num_feasible
    assert parallel.best.sample_rate == pytest.approx(serial.best.sample_rate)


def test_preset_option_regimes_nest():
    base = SearchOptions.megatron_baseline()
    assert base.recompute == ("full",)
    sp = SearchOptions.seq_par_regime()
    assert (True, True, True) in sp.seq_par_modes
    full = SearchOptions.all_optimizations()
    assert len(full.recompute) == 3
    off = SearchOptions.all_with_offload()
    assert (True, True, True) in off.offload_modes


def test_no_feasible_configuration_handled():
    # One tiny processor cannot hold the model: search reports it gracefully.
    tiny_sys = a100_system(1, hbm_gib=0.001)
    res = search(TINY_TEST, tiny_sys, 4, small_options(), workers=0)
    assert res.best is None
    assert res.num_feasible == 0


def test_interleaving_values_override():
    opts = small_options(interleaving_values=(1, 2))
    cands = list(candidate_strategies(LLM, SYS, 16, opts))
    assert {c.pp_interleaving for c in cands} <= {1, 2}


def test_training_flag_propagates():
    opts = small_options(recompute=("none",), training=False)
    cands = list(candidate_strategies(LLM, SYS, 16, opts))
    assert cands and all(not c.training for c in cands)


def _max_40gib(res):
    return res.mem1.total <= 40 * 2**30


def test_constraint_filters_results():
    opts = small_options(recompute=("none", "attn_only", "full"))
    free = search(LLM, SYS, 16, opts, workers=0)
    constrained = search(LLM, SYS, 16, opts, workers=0, constraint=_max_40gib)
    assert constrained.num_feasible <= free.num_feasible
    for _, r in constrained.top:
        assert r.mem1.total <= 40 * 2**30


def test_constraint_works_in_parallel_mode():
    opts = small_options(recompute=("none", "attn_only", "full"))
    serial = search(LLM, SYS, 16, opts, workers=0, constraint=_max_40gib)
    parallel = search(LLM, SYS, 16, opts, workers=2, constraint=_max_40gib)
    assert parallel.num_feasible == serial.num_feasible


def test_impossible_constraint_empties_search():
    opts = small_options()
    res = search(LLM, SYS, 16, opts, workers=0,
                 constraint=lambda r: r.mfu > 0.999)
    assert res.best is None
    assert res.num_feasible == 0


def test_search_workers_none_matches_explicit_serial(monkeypatch, capsys):
    opts = small_options()
    auto = search(LLM, SYS, 16, opts, workers=None)
    serial = search(LLM, SYS, 16, opts, workers=0)
    assert auto.num_evaluated == serial.num_evaluated
    assert auto.num_feasible == serial.num_feasible
    assert auto.best.sample_rate == serial.best.sample_rate

    # A space of thousands of candidates on an 8-core machine still runs
    # as one serial columnar batch, and ranks exactly like the pool.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    system = a100_system(8)
    n = sum(1 for _ in candidate_strategies(TINY_TEST, system, 16))
    assert n >= 4000
    tracer = Tracer()
    auto = search(TINY_TEST, system, 16, workers=None, keep_rates=False,
                  collect_stats=True, tracer=tracer)
    assert auto.stats.workers == 1
    chunks = [e for e in tracer.events() if e.get("cat") == "search.chunk"]
    assert len(chunks) == 1
    pool = search(TINY_TEST, system, 16, workers=2, keep_rates=False)
    assert [s.to_dict() for s, _ in auto.top] == [s.to_dict() for s, _ in pool.top]
    assert [r.sample_rate for _, r in auto.top] == [r.sample_rate for _, r in pool.top]

    rc = main(["search", "tiny-test", "a100:8", "--batch", "16", "--stats"])
    assert rc == 0
    assert "1 worker)" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["serial", "pool", "checkpoint"])
def test_search_top_k_zero_keeps_rates_and_negative_raises(mode, tmp_path):
    opts = small_options(max_microbatch=16)
    kwargs = {
        "serial": {"workers": 0},
        "pool": {"workers": 2},
        "checkpoint": {"workers": 0, "checkpoint": tmp_path / "journal.jsonl"},
    }[mode]
    ref = search(LLM, SYS, 16, opts, workers=0, top_k=10, keep_rates=True)
    got = search(LLM, SYS, 16, opts, top_k=0, keep_rates=True, **kwargs)
    assert got.top == [] and got.best is None
    assert got.num_feasible == ref.num_feasible > 0
    # The rate order follows each path's evaluation stream; the histogram
    # is the multiset.
    assert np.array_equal(np.sort(got.sample_rates), np.sort(ref.sample_rates))
    with pytest.raises(ValueError, match="top_k"):
        search(LLM, SYS, 16, opts, top_k=-1, **kwargs)


def test_top_k_heap_matches_brute_force_ranking():
    opts = small_options(recompute=("none", "attn_only", "full"),
                         optimizer_sharding=(False, True))
    cands = list(candidate_strategies(LLM, SYS, 16, opts))
    brute = sorted(
        (r.sample_rate for r in (calculate(LLM, SYS, c) for c in cands)
         if r.feasible),
        reverse=True,
    )
    for top_k in (1, 5, len(brute) + 10):
        res = search(LLM, SYS, 16, opts, workers=0, top_k=top_k)
        got = [r.sample_rate for _, r in res.top]
        assert got == brute[:top_k]


def _accept_all(res):
    return True


@pytest.mark.parametrize(
    "mode", ["workers0", "workers2", "checkpoint", "events", "constraint",
             "keep_rates"],
)
def test_every_dispatch_matches_serial_columnar(mode, tmp_path, monkeypatch):
    """Every search path evaluates row ranges of the candidate columns.

    Each must give the serial columnar search's top-k and feasible count,
    without ever materializing the scalar candidate list.
    """
    from repro.obs import EventJournal
    from repro.search import execution_search

    system = a100_system(8)
    ref = search(TINY_TEST, system, 16, top_k=5, workers=None, keep_rates=False)

    def no_scalar_enumeration(*args, **kwargs):
        raise AssertionError("search() materialized candidate_strategies")

    monkeypatch.setattr(execution_search, "candidate_strategies",
                        no_scalar_enumeration)
    journal = None
    kwargs = {
        "workers0": {"workers": 0},
        "workers2": {"workers": 2},
        "checkpoint": {"workers": 0, "checkpoint": tmp_path / "journal.jsonl"},
        "events": {"workers": 0},
        "constraint": {"workers": 2, "constraint": _accept_all},
        "keep_rates": {"workers": 0, "keep_rates": True},
    }[mode]
    if mode == "events":
        journal = EventJournal(tmp_path / "events.jsonl", source="test")
        kwargs["events"] = journal
    kwargs.setdefault("keep_rates", False)
    try:
        got = search(TINY_TEST, system, 16, top_k=5, **kwargs)
    finally:
        if journal is not None:
            journal.close()
    assert got.num_evaluated == ref.num_evaluated
    assert got.num_feasible == ref.num_feasible
    assert [s for s, _ in got.top] == [s for s, _ in ref.top]
    assert [r for _, r in got.top] == [r for _, r in ref.top]
    if mode == "keep_rates":
        assert len(got.sample_rates) == got.num_feasible
    if mode == "checkpoint":
        resumed = search(TINY_TEST, system, 16, top_k=5, resume=True, **kwargs)
        assert resumed.stats.resumed_chunks > 0
        assert [s for s, _ in resumed.top] == [s for s, _ in ref.top]


def test_search_reports_true_winners_when_some_candidates_are_invalid():
    """Rows the engine rejects at validate must not shift the winners.

    Offload modes on a system without a tier-2 memory make part of the
    enumerated space invalid; the reported strategies must still be the
    ones whose rates were ranked.
    """
    opts = small_options(
        offload_modes=((False, False, False), (True, True, True))
    )
    cands = list(candidate_strategies(LLM, SYS, 16, opts))
    results = [calculate(LLM, SYS, c) for c in cands]
    assert any(not r.feasible and "offload" in r.infeasibility for r in results)
    ranked = sorted(
        (-r.sample_rate, i) for i, r in enumerate(results) if r.feasible
    )
    for workers in (0, 2):
        res = search(LLM, SYS, 16, opts, workers=workers, top_k=3,
                     keep_rates=False)
        assert [s for s, _ in res.top] == [cands[i] for _, i in ranked[:3]]
        assert all(r.feasible for _, r in res.top)


@pytest.mark.parametrize("kwargs,match", [
    pytest.param({"recompute": ("none", "bogus")}, "'bogus'", id="recompute"),
    pytest.param({"tp_overlap": ("none", "bogus")}, "'bogus'", id="tp_overlap"),
    pytest.param({"recompute": ()}, "recompute", id="empty-recompute"),
    pytest.param({"offload_modes": ()}, "offload_modes", id="empty-offload"),
    pytest.param({"interleaving_values": ()}, "interleaving_values",
                 id="empty-interleaving"),
    pytest.param({"interleaving_values": (0,)}, "interleaving_values",
                 id="interleaving-0"),
    pytest.param({"interleaving_values": (1, -2)}, "interleaving_values",
                 id="interleaving-negative"),
    pytest.param({"max_microbatch": 0}, "max_microbatch", id="max_microbatch-0"),
    pytest.param({"max_tensor_par": 0}, "max_tensor_par", id="max_tensor_par-0"),
    pytest.param({"batch": 0}, "batch", id="batch-0"),
    pytest.param({"batch": -64}, "batch", id="batch-negative"),
])
def test_search_options_reject_unknown_mode_names(kwargs, match):
    """Degenerate options (and a non-positive search batch) raise, naming
    the field, instead of yielding an empty or all-infeasible space."""
    with pytest.raises(ValueError, match=match):
        if "batch" in kwargs:
            search(LLM, SYS, kwargs["batch"], small_options())
        else:
            SearchOptions(**kwargs)

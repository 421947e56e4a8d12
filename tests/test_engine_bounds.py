"""Bound-and-prune layer: roofline lower bounds, thresholds, comm caches.

The load-bearing invariants of ``repro.engine.bounds``:

* the roofline lower bound never exceeds the fully-assembled batch time
  (checked property-based over randomized valid triples — this is what
  makes pruning lossless);
* ``prune_threshold_for_rate`` round-trips soundly through float division
  (a candidate at the returned threshold can never beat the rate floor);
* a pruned top-k search is bit-identical to an unpruned one over an
  exhaustive space;
* the engine's policy gates (constraint / keep_rates / top_k) keep pruning
  off whenever a pruned marker could corrupt the caller's outputs.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine import (
    PrunedResult,
    clear_caches,
    comm_cache_stats,
    evaluate,
    evaluate_many,
    prune_threshold_for_rate,
    roofline_lower_bound,
)
from repro.engine.context import EvalContext
from repro.engine.profile import profile_block, profile_key
from repro.engine.stages import fill_scalars, stage_memory
from repro.execution import ExecutionStrategy, factorizations
from repro.hardware import a100_system
from repro.llm import GPT3_175B, LLMConfig
from repro.obs import MetricsRegistry, PruneStats
from repro.search import SearchOptions, hill_climb, search

# Small systems keep each full evaluation fast; the big-memory variant
# exercises the timing path on shapes the 80 GiB system would reject.
SMALL = a100_system(8)
BIG = a100_system(8, hbm_gib=1_000_000)

# GPT-3 175B needs ~150 GiB/GPU at 16 GPUs for weights + optimizer state, so
# the stock 80 GiB system rejects everything; 200 GiB gives the space a real
# feasible/infeasible mix (~15% feasible) while staying fast to sweep.
GPT3_16 = a100_system(16, hbm_gib=200)

small_shapes = st.sampled_from(
    [
        (512, 8, 256, 8),
        (1024, 16, 512, 12),
        (2048, 16, 1024, 16),
        (1536, 12, 768, 6),
        (4096, 32, 2048, 24),
    ]
)


def make_llm(shape) -> LLMConfig:
    h, a, s, L = shape
    return LLMConfig(name=f"bound-{h}-{a}", hidden=h, attn_heads=a, seq_size=s,
                     num_blocks=L)


def fast_path_bound(llm, system, strategy) -> float | None:
    """Run exactly the fast path the engine runs, then bound it."""
    strategy.validate(llm, system)
    ctx = EvalContext(llm, system, strategy)
    fill_scalars(ctx)
    ctx.prof = profile_block(llm, system, *profile_key(strategy))
    stage_memory(ctx)
    if ctx.error is not None:
        return None
    return roofline_lower_bound(ctx)


# -- the soundness property ---------------------------------------------------


@given(
    shape=small_shapes,
    tpd=st.sampled_from(list(factorizations(8))),
    m=st.sampled_from([1, 2, 4]),
    v=st.sampled_from([1, 2]),
    recompute=st.sampled_from(["none", "attn_only", "full"]),
    seq_par=st.booleans(),
    tp_overlap=st.sampled_from(["none", "ring"]),
    dp_overlap=st.booleans(),
    sharding=st.booleans(),
    big_mem=st.booleans(),
    training=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_bound_never_exceeds_batch_time(
    shape, tpd, m, v, recompute, seq_par, tp_overlap, dp_overlap, sharding,
    big_mem, training,
):
    """The pruning invariant: lower bound <= batch time, in float arithmetic."""
    llm = make_llm(shape)
    system = BIG if big_mem else SMALL
    t, p, d = tpd
    batch = 8
    assume(llm.attn_heads % t == 0 and llm.hidden % t == 0)
    assume(llm.feedforward % t == 0)
    assume(p <= llm.num_blocks)
    assume(batch % d == 0 and (batch // d) % m == 0)
    assume(not seq_par or (t > 1 and llm.seq_size % t == 0))
    assume(v == 1 or p > 1)
    strategy = ExecutionStrategy(
        tensor_par=t, pipeline_par=p, data_par=d, batch=batch, microbatch=m,
        pp_interleaving=v, recompute=recompute, seq_par=seq_par,
        tp_redo_sp=seq_par, pp_rs_ag=seq_par, tp_overlap=tp_overlap,
        dp_overlap=dp_overlap, optimizer_sharding=sharding, training=training,
    )
    try:
        bound = fast_path_bound(llm, system, strategy)
    except Exception:
        assume(False)
    assume(bound is not None)
    full = evaluate(llm, system, strategy)
    assert full.feasible
    assert bound <= full.batch_time


def test_bound_sound_across_gpt3_space():
    """Every memory-feasible candidate of a real space satisfies the bound."""
    system = GPT3_16
    strategies = list(
        candidates := candidate_list(GPT3_175B, system, batch=32)
    )
    results = evaluate_many(GPT3_175B, system, strategies)
    checked = 0
    for s, r in zip(candidates, results):
        if not r.feasible:
            continue
        bound = fast_path_bound(GPT3_175B, system, s)
        assert bound is not None
        assert bound <= r.batch_time
        checked += 1
    assert checked > 0


def candidate_list(llm, system, batch):
    from repro.search import candidate_strategies

    return list(candidate_strategies(llm, system, batch, SearchOptions()))


# -- threshold round-trip -----------------------------------------------------


def test_threshold_edge_cases():
    assert prune_threshold_for_rate(64.0, 0.0) == math.inf
    assert prune_threshold_for_rate(64.0, -1.0) == math.inf
    assert prune_threshold_for_rate(64.0, math.inf) == math.inf  # 64/inf == 0
    t = prune_threshold_for_rate(64.0, 8.0)
    assert t == pytest.approx(8.0)


@given(
    batch=st.sampled_from([1.0, 8.0, 64.0, 4096.0]),
    rate=st.floats(1e-6, 1e9, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=200, deadline=None)
def test_threshold_round_trip_sound(batch, rate):
    """Anything at or above the threshold can never beat the rate floor.

    This is what makes the heap's strict `rate > floor` admission and the
    engine's `bound >= threshold` prune test exact mirror images.
    """
    t = prune_threshold_for_rate(batch, rate)
    assert batch / t <= rate
    # ...and it is tight: the nextafter bump loop never wanders more than a
    # few ulps above the naive quotient, so pruning is not conservative.
    assert t == pytest.approx(batch / rate, rel=1e-12)


# -- PrunedResult semantics ---------------------------------------------------


def test_pruned_result_marker():
    pr = PrunedResult(batch=64, lower_bound=1.5)
    assert pr.feasible is True
    assert pr.pruned is True
    assert pr.sample_rate == 0.0
    assert pr.infeasibility == ""
    # Fully-evaluated results advertise the flag too, as False.
    res = evaluate(
        GPT3_175B, GPT3_16,
        ExecutionStrategy(tensor_par=8, pipeline_par=2, data_par=1, batch=32,
                          microbatch=1, recompute="full"),
    )
    assert res.pruned is False


# -- end-to-end equivalence ---------------------------------------------------


def test_search_topk_bit_identical_with_pruning():
    """Pruned and unpruned serial searches agree on every retained entry."""
    llm = GPT3_175B
    system = GPT3_16
    base = search(llm, system, 32, top_k=8, workers=0, keep_rates=False,
                  bound_prune=False, collect_stats=True)
    pruned = search(llm, system, 32, top_k=8, workers=0, keep_rates=False,
                    bound_prune=True, collect_stats=True)
    assert base.num_evaluated == pruned.num_evaluated
    assert base.num_feasible == pruned.num_feasible
    assert len(base.top) == len(pruned.top)
    for (s1, r1), (s2, r2) in zip(base.top, pruned.top):
        assert s1 == s2
        assert r1 == r2  # frozen dataclass: every float field compared
    assert pruned.stats.engine.bound_pruned > 0
    assert base.stats.engine.bound_pruned == 0
    assert pruned.stats.engine.evaluated_full < base.stats.engine.evaluated_full


def test_pruning_disabled_with_constraint_and_rates():
    """The policy gates: constraint or keep_rates force pruning off."""
    llm = GPT3_175B
    system = GPT3_16
    constrained = search(llm, system, 32, top_k=4, workers=0, keep_rates=False,
                         constraint=_mfu_floor, collect_stats=True)
    assert constrained.stats.engine.bound_pruned == 0
    with_rates = search(llm, system, 32, top_k=4, workers=0, keep_rates=True,
                        collect_stats=True)
    assert with_rates.stats.engine.bound_pruned == 0
    # Fig. 6 contract: the histogram still covers every feasible candidate.
    assert len(with_rates.sample_rates) == with_rates.num_feasible


def _mfu_floor(res):
    return res.mfu > 0.01


def test_hill_climb_unchanged_by_pruning():
    seed = ExecutionStrategy(tensor_par=8, pipeline_par=1, data_par=1,
                             batch=16, microbatch=1, recompute="full")
    llm = GPT3_175B
    system = a100_system(8, hbm_gib=1_000_000)
    a = hill_climb(llm, system, seed, bound_prune=False)
    b = hill_climb(llm, system, seed, bound_prune=True)
    assert a is not None and b is not None
    assert a.best == b.best
    assert a.best_strategy == b.best_strategy
    assert a.evaluations == b.evaluations
    assert a.steps == b.steps


# -- metrics and caches -------------------------------------------------------


def test_prune_stats_counters_flow():
    llm = GPT3_175B
    system = GPT3_16
    strategies = candidate_list(llm, system, batch=32)
    base = evaluate_many(llm, system, strategies)
    best = sorted((r.sample_rate for r in base if r.feasible), reverse=True)
    threshold = prune_threshold_for_rate(32.0, best[0])
    mx = MetricsRegistry()
    res = evaluate_many(llm, system, strategies, prune_above=threshold,
                        metrics=mx)
    stats = PruneStats.from_metrics(mx)
    n_pruned = sum(1 for r in res if r.pruned)
    assert n_pruned > 0
    assert stats.bound_pruned == n_pruned
    assert stats.bound_evals > 0
    assert stats.candidates == len(strategies)
    # Identity: every candidate is rejected, pruned, or fully evaluated.
    assert (
        stats.rejected_validate + stats.rejected_memory
        + stats.bound_pruned + stats.evaluated_full
    ) == stats.candidates
    assert 0.0 < stats.bound_prune_rate <= 1.0
    assert "bound pruned" in stats.summary()
    merged = stats.merged(stats)
    assert merged.bound_pruned == 2 * n_pruned


def test_comm_cache_counters_and_clear():
    clear_caches()
    assert comm_cache_stats() == (0, 0)
    llm = GPT3_175B
    system = GPT3_16
    strategies = candidate_list(llm, system, batch=32)
    mx = MetricsRegistry()
    evaluate_many(llm, system, strategies, metrics=mx)
    hits, misses = comm_cache_stats()
    assert misses > 0
    assert hits + misses > 0
    stats = PruneStats.from_metrics(mx)
    assert stats.comm_cache_hits + stats.comm_cache_misses == hits + misses
    # Re-running the same space is all hits.
    mx2 = MetricsRegistry()
    evaluate_many(llm, system, strategies, metrics=mx2)
    stats2 = PruneStats.from_metrics(mx2)
    assert stats2.comm_cache_misses == 0
    assert stats2.comm_cache_hits > 0
    assert stats2.comm_cache_hit_rate == 1.0
    clear_caches()
    assert comm_cache_stats() == (0, 0)

"""Adaptive best-bound-first tiling and floor guards.

The load-bearing invariants of the adaptive search layer:

* ``batch_lower_bounds`` is **bit-identical** to the minimum of the scalar
  ``roofline_lower_bound`` over each feasible memory bucket's candidates
  (property-based over random candidate mixes whose buckets hold every
  ``tp_overlap`` mode — this is what makes tiled skipping sound);
* the tiled best-bound-first path produces bit-identical survivors and an
  identical top-k retention for *any* tile size — tiling is a speed hint,
  never a correctness input;
* non-finite rate floors (a gossiped k-th best from an empty heap arrives
  as ``-inf`` or ``nan``) are ignored everywhere they can enter: the
  threshold converters, :class:`AdaptivePlan`, the fabric chunk evaluator
  and the coordinator's gossip.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import clear_caches
from repro.engine import batch as engine_batch
from repro.engine.batch import AdaptivePlan, EvalBatch, run_batch
from repro.engine.bounds import (
    batch_lower_bounds,
    strict_prune_threshold_for_rate,
)
from repro.engine.context import EvalContext
from repro.engine.profile import profile_block, profile_key
from repro.engine.stages import fill_scalars, stage_memory
from repro.engine.bounds import roofline_lower_bound
from repro.execution import ExecutionStrategy
from repro.hardware import a100_system
from repro.llm import TINY_TEST

SYS64 = a100_system(64)

_random_strategy = st.builds(
    ExecutionStrategy,
    tensor_par=st.sampled_from([1, 2, 4, 8]),
    pipeline_par=st.sampled_from([1, 2, 4]),
    data_par=st.sampled_from([1, 2, 4, 8]),
    batch=st.sampled_from([32, 64]),
    microbatch=st.sampled_from([1, 2, 4]),
    pp_interleaving=st.sampled_from([1, 2]),
    seq_par=st.booleans(),
    tp_redo_sp=st.booleans(),
    dp_overlap=st.booleans(),
    optimizer_sharding=st.booleans(),
    recompute=st.sampled_from(["none", "attn_only", "full"]),
    training=st.booleans(),
)

# Memory buckets are not keyed on tp_overlap, so in a real space every
# bucket holds each enumerated mode; emit every strategy under all three.
_mixed_mode_strategies = st.lists(
    _random_strategy, min_size=1, max_size=10
).map(
    lambda ss: [
        dataclasses.replace(s, tp_overlap=mode)
        for s in ss
        for mode in ("none", "pipe", "ring")
    ]
)


def _scalar_bound(llm, system, strategy) -> float | None:
    """The scalar fast path's bound, exactly as the engine computes it."""
    try:
        strategy.validate(llm, system)
    except Exception:
        return None
    ctx = EvalContext(llm, system, strategy)
    fill_scalars(ctx)
    ctx.prof = profile_block(llm, system, *profile_key(strategy))
    stage_memory(ctx)
    if ctx.error is not None:
        return None
    return roofline_lower_bound(ctx)


def _build_batch(strategies) -> EvalBatch:
    cols = engine_batch.columns_from_strategies(strategies)
    return EvalBatch.from_columns(TINY_TEST, SYS64, cols)


def _top_retention(eb: EvalBatch, k: int) -> list[tuple[int, float]]:
    """The search's exact top-k retention over an evaluated batch."""
    if eb.n_s == 0 or k <= 0:
        return []
    srank = eb.stream_rank[eb.inp_s]
    keep = np.lexsort((srank, -eb.rate_s))[:k]
    return sorted(
        (int(eb.inp_s[i]), float(eb.rate_s[i])) for i in keep
    )


# -- threshold guards (satellite: non-finite floors) -------------------------


@pytest.mark.parametrize("floor", [math.nan, -math.inf, -1.0, 0.0])
@pytest.mark.parametrize("fn", [strict_prune_threshold_for_rate])
def test_threshold_nonfinite_floor_never_prunes(fn, floor):
    """nan/-inf/non-positive floors must disable pruning, not prune it all.

    An empty or all-infeasible top-k heap reports its k-th best rate as
    ``-inf`` (or ``nan`` after degenerate arithmetic); treating either as a
    real floor would produce a threshold of 0 and prune the entire space.
    """
    assert fn(64.0, floor) == math.inf


def test_strict_threshold_excludes_floor_ties():
    floor = 8.0
    t = strict_prune_threshold_for_rate(64.0, floor)
    assert 64.0 / t < floor  # strictly below: a tie can never be pruned
    # and it is the *smallest* such time (one step down ties or beats)
    assert 64.0 / math.nextafter(t, 0.0) >= floor


def test_threshold_positive_infinite_floor():
    # rate floor +inf: nothing can beat it, threshold collapses to inf
    # via the t <= 0 branch (batch / inf == 0).
    assert strict_prune_threshold_for_rate(64.0, math.inf) == math.inf


@pytest.mark.parametrize("floor", [math.nan, -math.inf, math.inf, -5.0])
def test_adaptive_plan_ignores_nonfinite_floor(floor):
    """A poisoned AdaptivePlan.floor_rate must not change the survivors."""
    strategies = [
        ExecutionStrategy(
            tensor_par=t, pipeline_par=p, data_par=d, batch=32,
            microbatch=m, recompute=rc,
        )
        for t, p, d in [(1, 1, 1), (2, 1, 2), (4, 2, 1), (1, 2, 4)]
        for m in (1, 2)
        for rc in ("none", "full")
    ]
    clear_caches()
    ref = _build_batch(strategies)
    run_batch(ref, adaptive=AdaptivePlan(top_k=3, floor_rate=0.0))
    clear_caches()
    poisoned = _build_batch(strategies)
    run_batch(poisoned, adaptive=AdaptivePlan(top_k=3, floor_rate=floor))
    assert ref.n_s == poisoned.n_s
    assert np.array_equal(ref.sidx, poisoned.sidx)
    assert np.array_equal(ref.rate_s, poisoned.rate_s)
    assert _top_retention(ref, 3) == _top_retention(poisoned, 3)


# -- property: vectorized bounds == scalar bounds ----------------------------


@given(strategies=_mixed_mode_strategies)
@settings(max_examples=25, deadline=None)
def test_batch_lower_bounds_bit_identical_to_scalar(strategies):
    """Each feasible bucket's bound is the minimum of its scalar bounds."""
    clear_caches()
    eb = _build_batch(strategies)
    engine_batch.batch_validate(eb)
    engine_batch.batch_profile(eb)
    engine_batch.batch_memory(eb)
    bounds = batch_lower_bounds(eb)
    per_bucket: dict[int, list[float]] = {}
    for j in range(int(eb.vidx.shape[0])):
        bkt = int(eb.bid[j])
        if not bool(eb.b["ok"][bkt]):
            continue
        want = _scalar_bound(TINY_TEST, SYS64, strategies[int(eb.vidx[j])])
        assert want is not None
        assert bounds[bkt] <= want
        per_bucket.setdefault(bkt, []).append(want)
    for bkt, wants in per_bucket.items():
        # Bit-identical, not approximately equal: pruning soundness rests
        # on the vectorized bound reproducing the scalar floats exactly.
        assert bounds[bkt] == min(wants)
    assert per_bucket or not any(
        _scalar_bound(TINY_TEST, SYS64, s) is not None for s in strategies
    )


# -- property: any tiling == untiled -----------------------------------------


@given(
    strategies=_mixed_mode_strategies,
    tile=st.integers(min_value=1, max_value=40),
    k=st.sampled_from([1, 3, 10]),
)
@settings(max_examples=25, deadline=None)
def test_adaptive_any_tiling_bit_identical(strategies, tile, k):
    """Tiled best-bound-first == untiled, for any tile size.

    The adaptive run may prune buckets, but every candidate it keeps must
    carry bit-identical columns, and the search's top-k retention over its
    survivors must equal the retention over the full (untiled) survivor
    set — including rate ties, which the strict threshold must never prune.
    """
    clear_caches()
    full = _build_batch(strategies)
    run_batch(full)  # untiled: every feasible candidate priced
    clear_caches()
    adap = _build_batch(strategies)
    run_batch(adap, adaptive=AdaptivePlan(top_k=k, tile_buckets=tile))

    # Survivor accounting: pruned + surviving == all feasible.
    assert adap.n_s + adap.n_pruned == full.n_s
    # A pruned candidate has no result, so streaming results must refuse.
    if adap.n_pruned:
        with pytest.raises(ValueError, match="unpruned batch"):
            list(engine_batch.iter_results(adap))

    # Surviving candidates carry bit-identical rates (and thus identical
    # comm/assembly columns upstream of them).
    pos = np.searchsorted(full.sidx, adap.sidx)
    assert np.array_equal(full.sidx[pos], adap.sidx)
    assert np.array_equal(full.rate_s[pos], adap.rate_s)
    for key in adap.cm:
        assert np.array_equal(full.cm[key][pos], adap.cm[key]), key
    for key in adap.asm:
        assert np.array_equal(full.asm[key][pos], adap.asm[key]), key

    # The retention the search applies is identical.
    assert _top_retention(full, k) == _top_retention(adap, k)


@pytest.mark.parametrize("keep_rates", [False, True])
def test_search_times_the_bound_stage_only_when_it_runs(keep_rates):
    """An adaptive search reports its bound time; full pricing has none."""
    from repro.search import search

    res = search(TINY_TEST, SYS64, 64, workers=0, top_k=3,
                 keep_rates=keep_rates, collect_stats=True)
    stages = res.stats.engine.stage_seconds
    assert list(stages)[:4] == ["validate", "profile", "memory", "bound"]
    if keep_rates:
        assert stages["bound"] == 0.0
    else:
        assert stages["bound"] > 0.0
        assert res.stats.engine.bound_evals > 0

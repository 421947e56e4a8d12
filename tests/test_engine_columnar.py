"""Columnar engine: bit-exactness against the scalar oracle, plus plumbing.

The struct-of-arrays engine (:mod:`repro.engine.batch`) promises results
**bit-identical** to the scalar :func:`repro.engine.evaluate` for any
candidate list — feasible, memory-infeasible and structurally invalid
alike — with ``evaluate`` kept as the oracle.  This suite checks that
promise on the golden equivalence grid and on Hypothesis-generated random
candidates, then covers the plumbing around the core: the small-batch
routing of ``evaluate_many``, the columnar search path, the exact-order
columnar enumerator, the NumPy version floor, cache-reset semantics, and the
cached ``System`` hash the hot comm caches key on.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    clear_caches,
    comm_cache_stats,
    evaluate,
    evaluate_many,
    iter_evaluate,
    profile_key,
)
from repro.engine import api as engine_api
from repro.engine import batch as engine_batch
from repro.engine.bounds import batch_lower_bounds
from repro.execution import ExecutionStrategy, StrategyError
from repro.hardware import a100_system, ddr5_offload
from repro.io import system_from_spec
from repro.llm import GPT3_175B, TINY_TEST, LLMConfig
from repro.obs import (
    M_COLUMNAR_BATCHES,
    M_COLUMNAR_CANDIDATES,
    MetricsRegistry,
    PruneStats,
    Tracer,
)
from repro.search import SearchOptions, candidate_strategies, search
from repro.search import columns as search_columns

from tests.test_engine_equivalence import GRID, OFF64, SYS64

CASES = [
    pytest.param(llm, system, id=f"{llm.name}-{system.name}-{i}")
    for i, (llm, system) in enumerate(
        [(GPT3_175B, SYS64), (GPT3_175B, OFF64), (TINY_TEST, SYS64)]
    )
]

# PruneStats fields the scalar oracle counts too.  It does not group
# candidates (no profile groups, buckets or bounds), and comm-cache *hits*
# legitimately differ: the columnar engine calls each kernel once per
# distinct argument tuple, so it performs fewer redundant cache lookups.
# Misses must still match exactly: both compute the same set of distinct
# kernel shapes (asserted separately below).
_ORACLE_COUNTED = (
    "candidates", "rejected_validate", "rejected_memory", "evaluated_full",
)


def _assert_comm_cache_consistent(s_stats: PruneStats, c_stats: PruneStats):
    # Same distinct kernel computations against a cleared cache...
    assert s_stats.comm_cache_misses == c_stats.comm_cache_misses
    # ...but the columnar path skips the oracle's redundant lookups.
    assert c_stats.comm_cache_hits <= s_stats.comm_cache_hits


def _fields(result) -> dict:
    return dataclasses.asdict(result)


def _oracle(llm, system, strategies):
    """``[evaluate(s) for s in strategies]`` plus the oracle's PruneStats."""
    reg = MetricsRegistry()
    results = [evaluate(llm, system, s, metrics=reg) for s in strategies]
    return results, PruneStats.from_metrics(reg)


def _columnar(llm, system, strategies):
    """Run the columnar engine itself, whatever the batch size."""
    reg = MetricsRegistry()
    cc0 = comm_cache_stats()
    eb = engine_batch.EvalBatch.from_strategies(llm, system, strategies)
    engine_batch.run_batch(eb, metrics=reg)
    results = [None] * len(strategies)
    for i, res in engine_batch.iter_results(eb):
        results[i] = res
    cc1 = comm_cache_stats()
    reg.inc("engine.comm_cache.hits", cc1[0] - cc0[0])
    reg.inc("engine.comm_cache.misses", cc1[1] - cc0[1])
    return results, PruneStats.from_metrics(reg)


def _assert_counters_match(s_stats: PruneStats, c_stats: PruneStats):
    for name in _ORACLE_COUNTED:
        assert getattr(s_stats, name) == getattr(c_stats, name), name
    _assert_comm_cache_consistent(s_stats, c_stats)


def _valid(llm, system, strategy) -> bool:
    try:
        strategy.validate(llm, system)
    except StrategyError:
        return False
    return True


# -- bit-exactness on the golden grid ---------------------------------------


def _columnar_adaptive_unbitten(llm, system, strategies):
    """Run the batch through the adaptive (pruning) path with a top-k so deep
    that no rate floor ever forms: every bound is computed, none bites."""
    eb = engine_batch.EvalBatch.from_strategies(llm, system, strategies)
    engine_batch.run_batch(
        eb, adaptive=engine_batch.AdaptivePlan(top_k=len(strategies))
    )
    assert eb.n_bound_evals == eb.n_feasible_buckets
    assert eb.n_pruned == 0
    results = [None] * len(strategies)
    for i, res in engine_batch.iter_results(eb):
        results[i] = res
    return results


@pytest.mark.parametrize("llm, system", CASES)
@pytest.mark.parametrize("prune", [False, True])
def test_columnar_bit_identical_on_grid(llm, system, prune):
    """evaluate_many == the oracle, with or without bound pruning armed.

    ``prune=True`` runs the tiled adaptive path with ``top_k`` as deep as
    the grid: bounds are computed per bucket, no floor forms so nothing is
    pruned, and nothing else may change.
    """
    assert len(GRID) >= engine_api._COLUMNAR_MIN_BATCH  # columnar path
    oracle = [evaluate(llm, system, s) for s in GRID]
    clear_caches()
    if prune:
        columnar = _columnar_adaptive_unbitten(llm, system, GRID)
    else:
        columnar = evaluate_many(llm, system, GRID)
    assert len(oracle) == len(columnar) == len(GRID)
    for strat, s, c in zip(GRID, oracle, columnar):
        assert _fields(s) == _fields(c), strat.short_name()


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33])
def test_evaluate_many_matches_oracle_at_size_floor(n):
    """Both sides of the small-batch routing equal the oracle exactly."""
    strategies = GRID[:n]
    mx = MetricsRegistry()
    results = evaluate_many(GPT3_175B, OFF64, strategies, metrics=mx)
    oracle = [evaluate(GPT3_175B, OFF64, s) for s in strategies]
    assert len(results) == n
    for strat, s, c in zip(strategies, oracle, results):
        assert _fields(s) == _fields(c), strat.short_name()
    batched = n >= engine_api._COLUMNAR_MIN_BATCH
    assert mx.value(M_COLUMNAR_BATCHES) == (1 if batched else 0)
    assert mx.value(M_COLUMNAR_CANDIDATES) == (n if batched else 0)


@pytest.mark.parametrize("llm, system", CASES)
def test_columnar_stream_order_and_threshold(llm, system):
    """iter_evaluate streams in profile-group order; the bound mask is sound."""
    oracle = [evaluate(llm, system, s) for s in GRID]
    clear_caches()
    stream = list(iter_evaluate(llm, system, GRID))
    # Stream order: validate-rejects in input order, then profile groups in
    # first-seen order with members in input order.
    groups: dict = {}
    for i, s in enumerate(GRID):
        if _valid(llm, system, s):
            groups.setdefault(profile_key(s), []).append(i)
    expected = [i for i, s in enumerate(GRID) if not _valid(llm, system, s)]
    expected += [i for members in groups.values() for i in members]
    assert [i for i, _ in stream] == expected
    for i, res in stream:
        assert _fields(res) == _fields(oracle[i])

    # The roofline bound never exceeds a candidate's true batch time, so a
    # batch-time threshold at the median feasible bound only ever masks
    # candidates whose oracle batch time reaches it (about half the buckets).
    eb = engine_batch.EvalBatch.from_strategies(llm, system, GRID)
    engine_batch.batch_validate(eb)
    engine_batch.batch_profile(eb)
    engine_batch.batch_memory(eb)
    bounds = batch_lower_bounds(eb)
    threshold = float(np.median(bounds[eb.b["ok"]]))
    masked_v = eb.feasible_v & (bounds >= threshold)[eb.bid]
    masked = eb.vidx[masked_v].tolist()
    assert masked
    assert all(oracle[i].feasible for i in masked)
    assert all(oracle[i].batch_time >= threshold for i in masked)
    with pytest.raises(ValueError, match="no threshold"):
        engine_batch.batch_prune(eb, threshold)


@pytest.mark.parametrize("llm, system", CASES)
def test_columnar_stats_counters_match_scalar(llm, system):
    clear_caches()
    s_res, s_stats = _oracle(llm, system, GRID)
    clear_caches()
    c_res, c_stats = evaluate_many(llm, system, GRID, stats=True)
    for s, c in zip(s_res, c_res):
        assert _fields(s) == _fields(c)
    # Same candidates, rejections, full evaluations, and — because the comm
    # kernels compute the same distinct scalar keys against a cleared cache —
    # the same comm-cache misses.
    _assert_counters_match(s_stats, c_stats)
    assert c_stats.profile_groups + c_stats.bucket_hits > 0
    assert c_stats.columnar_batches == 1
    assert c_stats.columnar_candidates == len(GRID)
    assert s_stats.columnar_batches == 0


# -- property test: random candidates ---------------------------------------

_random_strategy = st.builds(
    ExecutionStrategy,
    tensor_par=st.sampled_from([1, 2, 4, 8]),
    pipeline_par=st.sampled_from([1, 2, 4, 8]),
    data_par=st.sampled_from([1, 2, 4, 8, 16]),
    batch=st.sampled_from([32, 64, 96]),
    microbatch=st.sampled_from([1, 2, 3, 4]),
    pp_interleaving=st.sampled_from([1, 2]),
    seq_par=st.booleans(),
    tp_redo_sp=st.booleans(),
    pp_rs_ag=st.booleans(),
    tp_overlap=st.sampled_from(["none", "pipe", "ring"]),
    dp_overlap=st.booleans(),
    optimizer_sharding=st.booleans(),
    recompute=st.sampled_from(["none", "attn_only", "full"]),
    fused_activations=st.booleans(),
    weight_offload=st.booleans(),
    activation_offload=st.booleans(),
    optimizer_offload=st.booleans(),
)


@given(
    strategies=st.lists(_random_strategy, min_size=1, max_size=40),
    use_offload=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_columnar_property_bit_identical(strategies, use_offload):
    """Random (valid or not) candidates: columnar == oracle, field for field.

    Runs the columnar engine directly, so batches below the
    ``evaluate_many`` size floor are covered too.
    """
    system = OFF64 if use_offload else SYS64
    clear_caches()
    scalar, s_stats = _oracle(TINY_TEST, system, strategies)
    clear_caches()
    columnar, c_stats = _columnar(TINY_TEST, system, strategies)
    assert len(scalar) == len(columnar) == len(strategies)
    for strat, s, c in zip(strategies, scalar, columnar):
        assert _fields(s) == _fields(c), strat.short_name()
        assert s.feasible == c.feasible
        assert s.infeasibility == c.infeasibility
    _assert_counters_match(s_stats, c_stats)
    assert c_stats.columnar_candidates == len(strategies)


# -- columnar enumerator ----------------------------------------------------


@pytest.mark.parametrize(
    "llm, batch, opts",
    [
        (TINY_TEST, 64, SearchOptions()),
        (TINY_TEST, 96, SearchOptions(offload_modes=(
            (False, False, False), (True, True, True)))),
        (GPT3_175B, 3072, SearchOptions(max_tensor_par=8)),
    ],
    ids=["tiny", "tiny-offload", "gpt3-capped"],
)
def test_candidate_columns_matches_candidate_strategies(llm, batch, opts):
    """The vectorized enumerator reproduces candidate_strategies exactly."""
    system = a100_system(64)
    expected = list(candidate_strategies(llm, system, batch, opts))
    cols = search_columns.candidate_columns(llm, system, batch, opts)
    assert cols is not None
    want = engine_batch.columns_from_strategies(expected)
    assert set(cols) == set(want)
    for name in want:
        assert np.array_equal(cols[name], want[name]), name
    # strategy_at round-trips every row back to the original dataclass.
    eb = engine_batch.EvalBatch.from_columns(llm, system, cols)
    for i, strat in enumerate(expected):
        assert eb.strategy_at(i) == strat


# 12 heads and a 100-token sequence: t = 3, 6 and 12 fail ``t | seq``, so
# seq-par rows drop for some t > 1, not only for t = 1.
_ODD_SEQ = LLMConfig(
    name="odd-seq", hidden=768, attn_heads=12, seq_size=100, num_blocks=6,
)


def _subsets(values):
    return st.lists(
        st.sampled_from(values), min_size=1, max_size=len(values), unique=True,
    ).map(tuple)


@st.composite
def _search_options(draw):
    sp_modes = [(False, False, False), (True, True, True), (True, False, False),
                (True, True, False), (True, False, True)]
    off_modes = [(False, False, False), (True, False, False),
                 (False, True, False), (False, False, True), (True, True, True)]
    return SearchOptions(
        recompute=draw(_subsets(["none", "attn_only", "full"])),
        # Seq-par-only subsets leave no row for t = 1 (and t ∤ seq).
        seq_par_modes=draw(_subsets(sp_modes)),
        tp_overlap=draw(_subsets(["none", "pipe", "ring"])),
        dp_overlap=draw(_subsets([False, True])),
        optimizer_sharding=draw(_subsets([False, True])),
        fused_activations=draw(_subsets([False, True])),
        pp_1f1b=draw(_subsets([True, False])),
        offload_modes=draw(_subsets(off_modes)),
        max_tensor_par=draw(st.sampled_from([1, 2, 3, 4, 8, 64])),
        max_microbatch=draw(st.sampled_from([1, 2, 5, 8, 64])),
        microbatch_powers_of_two=draw(st.booleans()),
        interleaving_values=draw(
            st.none() | _subsets([1, 2, 3, 4, 8]).map(sorted).map(tuple)
        ),
        training=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None)
@given(
    problem=st.sampled_from([
        (TINY_TEST, SYS64, 64), (TINY_TEST, OFF64, 96),
        (_ODD_SEQ, a100_system(48), 48),
        (_ODD_SEQ, a100_system(48, offload=ddr5_offload(512)), 24),
    ]),
    opts=_search_options(),
)
def test_candidate_columns_property(problem, opts):
    """Any option set: the same columns, int64 and C-contiguous."""
    llm, system, batch = problem
    want = engine_batch.columns_from_strategies(
        list(candidate_strategies(llm, system, batch, opts))
    )
    cols = search_columns.candidate_columns(llm, system, batch, opts)
    assert set(cols) == set(want)
    for name in want:
        col = cols[name]
        assert col.dtype == np.int64 and col.flags.c_contiguous, name
        assert np.array_equal(col, want[name]), name


def test_candidate_columns_share_one_block():
    """Every column is a row of one allocation, released as one."""
    cols = search_columns.candidate_columns(
        GPT3_175B, a100_system(64), 64, SearchOptions()
    )
    base = cols["t"].base
    assert base is not None and base.shape == (len(cols), cols["t"].shape[0])
    assert all(col.base is base for col in cols.values())


# -- columnar search path ---------------------------------------------------


def _oracle_search(llm, system, batch, top_k):
    """Brute-force search: evaluate() over every candidate, rank, truncate."""
    candidates = list(candidate_strategies(llm, system, batch))
    results = [evaluate(llm, system, s) for s in candidates]
    feasible = [
        (-r.sample_rate, i) for i, r in enumerate(results) if r.feasible
    ]
    top = [(candidates[i], results[i]) for _, i in sorted(feasible)[:top_k]]
    rates = sorted(r.sample_rate for r in results if r.feasible)
    return top, len(feasible), rates


def _assert_same_top(want, got):
    assert len(want) == len(got)
    for (s1, r1), (s2, r2) in zip(want, got):
        assert s1 == s2
        assert _fields(r1) == _fields(r2)


@pytest.mark.parametrize("keep_rates", [False, True])
def test_search_columnar_bit_identical(keep_rates):
    top, num_feasible, rates = _oracle_search(TINY_TEST, SYS64, 64, 5)
    clear_caches()
    res = search(TINY_TEST, SYS64, 64, top_k=5, workers=0,
                 keep_rates=keep_rates)
    assert res.num_evaluated == len(list(candidate_strategies(TINY_TEST, SYS64, 64)))
    assert res.num_feasible == num_feasible
    _assert_same_top(top, res.top)
    if keep_rates:
        assert sorted(res.sample_rates.tolist()) == rates


def test_search_columnar_ignores_bound_prune_but_matches():
    """bound_prune changes only speed — the answer still matches the oracle."""
    top, num_feasible, _ = _oracle_search(TINY_TEST, SYS64, 64, 5)
    for bound_prune in (False, True):
        clear_caches()
        res = search(TINY_TEST, SYS64, 64, top_k=5, workers=0,
                     keep_rates=False, bound_prune=bound_prune)
        assert res.num_feasible == num_feasible
        _assert_same_top(top, res.top)


def test_search_columnar_stats_and_trace():
    tracer = Tracer()
    clear_caches()
    res = search(
        TINY_TEST, SYS64, 64, top_k=3, workers=0,
        collect_stats=True, tracer=tracer,
    )
    stats = res.stats
    assert stats is not None
    assert stats.engine.columnar_batches == 1
    assert stats.engine.columnar_candidates == res.num_evaluated
    assert stats.num_evaluated == res.num_evaluated
    assert stats.workers == 1
    names = {e["name"] for e in tracer.events()}
    assert "enumerate" in names
    assert "comm" in names and "assemble" in names


def test_search_chunked_workers_matches_serial():
    clear_caches()
    serial = search(TINY_TEST, SYS64, 64, top_k=5, workers=0)
    clear_caches()
    chunked = search(TINY_TEST, SYS64, 64, top_k=5, workers=2)
    assert serial.num_feasible == chunked.num_feasible
    for (s1, r1), (s2, r2) in zip(serial.top, chunked.top):
        assert s1 == s2
        assert _fields(r1) == _fields(r2)


# -- NumPy version floor (import gate) --------------------------------------


def test_numpy_floor_rejects_old_versions():
    with pytest.raises(ImportError) as exc:
        engine_batch.check_numpy_version("1.23.5")
    msg = str(exc.value)
    assert "1.24" in msg
    assert "upgrade NumPy" in msg


@pytest.mark.parametrize("version", ["1.24.0", "1.26.4", "2.1.0", "2.0.0rc1"])
def test_numpy_floor_accepts_supported_versions(version):
    engine_batch.check_numpy_version(version)


def test_numpy_floor_checks_installed_version():
    engine_batch.check_numpy_version()  # the environment itself must pass


# -- small-batch routing ----------------------------------------------------


def test_columnar_auto_routing_respects_size_floor():
    small = GRID[: engine_api._COLUMNAR_MIN_BATCH - 1]
    mx = MetricsRegistry()
    evaluate_many(TINY_TEST, SYS64, small, metrics=mx)
    assert mx.value(M_COLUMNAR_BATCHES) == 0  # under the floor: scalar
    mx2 = MetricsRegistry()
    evaluate_many(TINY_TEST, SYS64, GRID, metrics=mx2)
    assert mx2.value(M_COLUMNAR_BATCHES) == 1  # over the floor: columnar
    assert mx2.value(M_COLUMNAR_CANDIDATES) == len(GRID)


# -- cache reset (clear_caches contract) ------------------------------------


def test_clear_caches_resets_comm_cache_counters():
    clear_caches()
    assert comm_cache_stats() == (0, 0)
    evaluate_many(TINY_TEST, SYS64, GRID)
    hits, misses = comm_cache_stats()
    assert misses > 0  # a cleared cache must miss before it hits
    assert hits + misses > 0
    clear_caches()
    assert comm_cache_stats() == (0, 0)


def test_columnar_calls_each_comm_kernel_once_per_distinct_tuple():
    """An unpruned columnar batch on a cleared cache never hits a comm cache.

    Every kernel runs once per distinct argument tuple, so a real space
    (thousands of survivors sharing a few hundred kernel shapes) records
    misses only.
    """
    system = system_from_spec("a100:1024")
    cols = search_columns.candidate_columns(
        GPT3_175B, system, 4096, SearchOptions()
    )
    clear_caches()
    eb = engine_batch.EvalBatch.from_columns(GPT3_175B, system, cols)
    engine_batch.run_batch(eb)
    hits, misses = comm_cache_stats()
    assert eb.n_s > 10 * misses > 0
    assert hits == 0


# -- stats plumbing and System hash -----------------------------------------


def test_prunestats_columnar_counters_merge_and_print():
    reg = MetricsRegistry()
    reg.inc(M_COLUMNAR_BATCHES, 2)
    reg.inc(M_COLUMNAR_CANDIDATES, 100)
    stats = PruneStats.from_metrics(reg)
    assert stats.columnar_batches == 2
    assert stats.columnar_candidates == 100
    merged = stats.merged(stats)
    assert merged.columnar_batches == 4
    assert merged.columnar_candidates == 200
    assert "columnar batches" in merged.summary()


def test_system_hash_is_cached_and_consistent():
    a = a100_system(64)
    b = a100_system(64)
    off = a100_system(64, offload=ddr5_offload(512))
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(a)  # stable across calls (cached)
    assert a.__dict__.get("_hash") == hash(a)
    assert off != a  # different systems may hash apart; equality must differ

"""The comm stage and the bound price their kernels per key, exactly.

``batch_comm`` and ``batch_lower_bounds`` take the TP exposure from a
per-batch (profile group x overlap mode x training) table of lane-wise
:func:`tp_exposure`, and call the cached pp/dp/optim kernels once per
distinct key of small integer columns.  These tests hold that to the
scalar oracle: the lane-wise TP exposure equals the scalar kernel bit for
bit, a product-form batch prices every bound and comm column exactly as a
``from_strategies`` batch of the same rows does, and each kernel misses
its cache exactly as often as per-candidate ``evaluate()`` calls do.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import batch as engine_batch
from repro.engine import clear_caches, evaluate
from repro.engine import stages
from repro.engine.batch import TP_EXPOSURE_NAMES, TP_OVERLAP_NAMES, EvalBatch
from repro.engine.bounds import batch_lower_bounds
from repro.hardware import a100_system
from repro.search.columns import candidate_columns
from repro.search.faults import chunk_bounds
from tests.test_engine_columnar import _search_options
from tests.test_product_form import PROBLEMS

_PROF_NAMES = ("fw_time", "bw_time", "recompute_time",
               "tp_fw_comm", "tp_bw_comm", "tp_recompute_comm")


def _no_tax(system):
    """``system`` with every network's processor_usage at 0."""
    return replace(system, networks=tuple(
        replace(net, processor_usage=0.0) for net in system.networks))


_SYSTEMS = [a100_system(64), _no_tax(a100_system(64))]

_TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-9, float("inf"),
                     float("-inf"), float("nan")]),
    st.floats(min_value=-1e3, max_value=1e3),
)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(system=st.sampled_from(_SYSTEMS),
       lanes=st.lists(st.tuples(st.sampled_from([1, 2, 4, 8, 16, 64]),
                                st.integers(0, len(TP_OVERLAP_NAMES) - 1),
                                *[_TIMES] * len(_PROF_NAMES)),
                      min_size=1, max_size=24))
def test_lane_wise_tp_exposure_is_the_scalar_kernel(system, lanes):
    t, tpo, *times = (np.array(col) for col in zip(*lanes))
    prof = dict(zip(_PROF_NAMES, (np.asarray(x, dtype=np.float64) for x in times)))
    cols = engine_batch.tp_exposure_columns(system, t, tpo, prof)
    for i, lane in enumerate(lanes):
        want = stages.tp_exposure(
            system, lane[0], TP_OVERLAP_NAMES[lane[1]],
            SimpleNamespace(**dict(zip(_PROF_NAMES, lane[2:]))),
        )
        got = [col[i] for col in cols]
        assert np.array_equal(_bits(got), _bits(want)), (lane, got, want)


def _priced(eb: EvalBatch) -> np.ndarray:
    """Run every stage of ``eb`` unpruned; returns its bucket bounds."""
    for stage in (engine_batch.batch_validate, engine_batch.batch_profile,
                  engine_batch.batch_memory):
        stage(eb)
    bounds = batch_lower_bounds(eb)
    engine_batch.batch_prune(eb, None)
    engine_batch.batch_comm(eb)
    engine_batch.batch_assemble(eb)
    return bounds


def _assert_same_prices(llm, system, rows) -> None:
    fast = EvalBatch.from_columns(llm, system, rows)
    fast_bounds = _priced(fast)
    assert fast.product is not None
    strategies = [fast.strategy_at(i) for i in range(fast.n)]
    slow = EvalBatch.from_strategies(llm, system, strategies)
    assert np.array_equal(_bits(_priced(slow)), _bits(fast_bounds))
    assert slow.product is None
    assert list(fast.cm) == list(slow.cm)
    for name in fast.cm:
        assert np.array_equal(_bits(fast.cm[name]), _bits(slow.cm[name])), name
    for name in fast.asm:
        assert np.array_equal(_bits(fast.asm[name]), _bits(slow.asm[name])), name
    assert np.array_equal(_bits(fast.rate_s), _bits(slow.rate_s))
    if fast.n_s:
        assert set(fast.cm) >= set(TP_EXPOSURE_NAMES)


def _chunk(cols, data):
    total = int(cols["t"].shape[0])
    step = data.draw(st.integers(min_value=1, max_value=total), label="step")
    bounds = chunk_bounds(total, step)
    lo, hi = bounds[data.draw(
        st.integers(min_value=0, max_value=len(bounds) - 1), label="chunk")]
    return cols.rows(lo, hi)


@settings(max_examples=40, deadline=None)
@given(problem=st.sampled_from(PROBLEMS), opts=_search_options(),
       data=st.data())
def test_product_form_prices_like_per_row_batches(problem, opts, data):
    llm, system, batch = problem
    cols = candidate_columns(llm, system, batch, opts)
    if cols["t"].shape[0] == 0:
        return
    _assert_same_prices(llm, system, cols)
    _assert_same_prices(llm, system, _chunk(cols, data))


_KERNELS = (stages.pp_p2p_time, stages.dp_collectives, stages.optim_step_time)


def _misses() -> list[int]:
    return [fn.cache_info().misses for fn in _KERNELS]


@settings(max_examples=25, deadline=None)
@given(problem=st.sampled_from(PROBLEMS), opts=_search_options(),
       data=st.data())
def test_kernel_misses_equal_the_oracle(problem, opts, data):
    """Per kernel, a columnar batch misses once per distinct argument tuple
    -- what per-candidate ``evaluate()`` calls miss -- and never hits."""
    llm, system, batch = problem
    cols = candidate_columns(llm, system, batch, opts)
    if cols["t"].shape[0] == 0:
        return
    rows = _chunk(cols, data)
    for batch_cols in (rows, dict(rows)):
        clear_caches()
        eb = EvalBatch.from_columns(llm, system, batch_cols)
        engine_batch.run_batch(eb)
        columnar = _misses()
        assert all(fn.cache_info().hits == 0 for fn in _KERNELS)
        clear_caches()
        for i in range(eb.n):
            evaluate(llm, system, eb.strategy_at(i))
        assert columnar == _misses()
    clear_caches()

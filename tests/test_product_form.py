"""The product form keys a batch exactly like the per-row code.

``candidate_columns`` hands the engine each row's (prefix row, option row)
pair, and ``batch_validate``/``batch_profile``/``batch_memory`` read the
validity verdicts, ``M``/``bpstage``, profile-group ids and memory-bucket
ids off the two small tables.  On any option space, system and chunk slice
those must equal what the same rows give without the form: the per-row
checks and ``_factorize``'s first-seen numbering.  A second group of tests
checks that the winners' results a search builds from its survivor columns
equal the scalar ``evaluate()``'s.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import batch as engine_batch
from repro.engine import evaluate
from repro.engine.batch import (
    _GROUP_KEYS,
    EvalBatch,
    ProductColumns,
    _factorize,
)
from repro.fabric import run_fabric
from repro.hardware import a100_system, ddr5_offload
from repro.io.report import result_to_flat_dict
from repro.llm import GPT3_175B, TINY_TEST
from repro.search import SearchOptions, search
from repro.search.columns import candidate_columns
from repro.search.faults import chunk_bounds
from tests.test_chunk_resume import GOLDEN
from tests.test_engine_columnar import _ODD_SEQ, _search_options
from tests.test_engine_equivalence import OFF64, SYS64
from tests.test_fabric import BATCH, LLM, SYS, small_options

PROBLEMS = [
    (TINY_TEST, SYS64, 64),
    (TINY_TEST, OFF64, 96),
    (_ODD_SEQ, a100_system(48), 48),  # t = 3, 6, 12 fail t | seq
    (_ODD_SEQ, a100_system(48, offload=ddr5_offload(512)), 24),
]

# The memory-bucket key beyond the profile group, as the per-row code has
# always keyed it.
_BUCKET_KEYS = ("p", "d", "batch", "v", "f1b", "osh",
                "w_off", "a_off", "o_off", "training")

def _run_keys(llm, system, cols) -> EvalBatch:
    eb = EvalBatch.from_columns(llm, system, cols)
    engine_batch.batch_validate(eb)
    engine_batch.batch_profile(eb)
    engine_batch.batch_memory(eb)
    return eb


def _assert_same_keys(llm, system, rows) -> None:
    """Product-form keys of ``rows`` equal the per-row code's and the oracle's."""
    assert isinstance(rows, ProductColumns)
    fast = _run_keys(llm, system, rows)
    slow = _run_keys(llm, system, dict(rows))
    assert (fast.product is not None) == (fast.n > 0) and slow.product is None
    for name in ("valid", "M", "bpstage", "vidx", "gid", "gfirst", "bid",
                 "bfirst", "b_rep"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (fast.n_invalid, fast.n_groups, fast.n_buckets) == (
        slow.n_invalid, slow.n_groups, slow.n_buckets)
    # ``_factorize`` over the valid rows' keys is the numbering oracle.
    valid = {name: col[slow.vidx] for name, col in rows.items()}
    gid, gfirst = _factorize([valid[name] for name in _GROUP_KEYS])
    assert np.array_equal(fast.gid, gid) and np.array_equal(fast.gfirst, gfirst)
    bid, bfirst = _factorize([gid] + [valid[name] for name in _BUCKET_KEYS])
    assert np.array_equal(fast.bid, bid) and np.array_equal(fast.bfirst, bfirst)
    for name in fast.gprof:
        assert np.array_equal(fast.gprof[name], slow.gprof[name]), name
    for name in fast.b:
        assert np.array_equal(fast.b[name], slow.b[name]), name
    # Stream order is built on demand and still equals (gid, row) order.
    assert np.array_equal(fast.stream_rank, slow.stream_rank)


@settings(max_examples=60, deadline=None)
@given(problem=st.sampled_from(PROBLEMS), opts=_search_options(),
       data=st.data())
def test_product_keys_equal_per_row_keys_on_any_chunk(problem, opts, data):
    llm, system, batch = problem
    cols = candidate_columns(llm, system, batch, opts)
    total = int(cols["t"].shape[0])
    _assert_same_keys(llm, system, cols)
    if total == 0:
        return
    step = data.draw(st.integers(min_value=1, max_value=total), label="step")
    bounds = chunk_bounds(total, step)
    lo, hi = bounds[data.draw(
        st.integers(min_value=0, max_value=len(bounds) - 1), label="chunk")]
    rows = cols.rows(lo, hi)
    for name, col in rows.items():
        assert np.array_equal(col, cols[name][lo:hi]), name
    _assert_same_keys(llm, system, rows)


@pytest.mark.parametrize("lo, hi", [(0, 1), (1, 2), (37, 38), (5, 400),
                                    (95, 97), (96, 4000)])
def test_product_keys_on_cut_prefix_blocks(lo, hi):
    """Edges inside one prefix block, across two, and single rows."""
    opts = SearchOptions(offload_modes=((False, False, False), (True, True, True)))
    cols = candidate_columns(GPT3_175B, SYS64, 256, opts)
    _assert_same_keys(GPT3_175B, SYS64, cols.rows(lo, hi))


def test_product_form_slices_and_pickles():
    import pickle

    cols = candidate_columns(TINY_TEST, SYS64, 64, SearchOptions())
    pf = cols.product
    assert pf.lo == 0 and pf.hi == cols["t"].shape[0]
    rows = cols.rows(10, 50).rows(5, 20)
    assert (rows.product.lo, rows.product.hi) == (15, 30)
    for name, table in pf.prefix.items():
        assert np.array_equal(table[rows.product.prefix_idx], rows[name]), name
    for name, table in pf.options.items():
        assert np.array_equal(table[rows.product.option_idx], rows[name]), name
    back = pickle.loads(pickle.dumps(rows))
    assert isinstance(back, ProductColumns) and back.product.lo == 15
    assert all(np.array_equal(back[n], rows[n]) for n in rows)


@settings(max_examples=200, deadline=None)
@given(rates=st.lists(st.sampled_from([0.0, 1.0, 2.5, 2.5, 7.0, float("inf")]),
                      min_size=1, max_size=60),
       k=st.integers(min_value=1, max_value=64), data=st.data())
def test_best_positions_equal_the_full_tie_break_sort(rates, k, data):
    """Top-k by ``(-rate, stream rank)`` sorts only the contenders."""
    from repro.search.execution_search import _best_positions

    rate = np.asarray(rates)
    rank = np.asarray(data.draw(st.permutations(range(rate.shape[0]))))
    want = np.lexsort((rank, -rate))[:k]
    assert np.array_equal(_best_positions(rate, rank, k), want)


# -- winners' results come from the survivor columns -----------------------


def _flat(result):
    return json.dumps(result_to_flat_dict(result), sort_keys=True)


def _assert_oracle_results(llm, system, result):
    assert result.top
    for strategy, res in result.top:
        assert _flat(res) == _flat(evaluate(llm, system, strategy))


@pytest.mark.parametrize("keep_rates", [False, True], ids=["topk", "histogram"])
def test_search_winners_equal_evaluate(keep_rates):
    system = a100_system(256)
    result = search(GPT3_175B, system, 512, top_k=10, workers=0,
                    keep_rates=keep_rates)
    _assert_oracle_results(GPT3_175B, system, result)


def test_search_winners_carry_their_chunk_results(monkeypatch):
    """A fresh search prices no winner through the scalar engine."""
    from repro.search import execution_search

    def no_evaluate(*args, **kwargs):
        raise AssertionError("a winner was re-priced through evaluate()")

    monkeypatch.setattr(execution_search, "evaluate", no_evaluate)
    result = search(TINY_TEST, SYS64, 64, top_k=5, workers=0)
    assert len(result.top) == 5


def test_resumed_winners_equal_evaluate(tmp_path):
    checkpoint = tmp_path / "fabric.jsonl"
    shutil.copy(GOLDEN, checkpoint)
    result = run_fabric(LLM, SYS, BATCH, small_options(), workers=2, top_k=5,
                        spawn="thread", timeout=120,
                        checkpoint=str(checkpoint), resume=True)
    assert result.stats.resumed_chunks == 2
    _assert_oracle_results(LLM, SYS, result)

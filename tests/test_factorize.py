"""Property tests: ``engine.batch._factorize`` against an ``np.unique`` oracle.

``_factorize`` keys every profile group, memory bucket, comm cell and
distinct kernel call of the columnar engine, so its ``(ids, firsts)`` must
be exactly those of the straightforward implementation below — the
``np.unique``-based one the engine used before it grouped rows by a 16-bit
radix sort — on every path: constant columns, negative values, ranges
wide enough for rank coding, codes crossing the 16-, 32- and 62-bit
boundaries, and float64 bit patterns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import _factorize


def _oracle(cols):
    n = int(cols[0].shape[0])
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    code = np.zeros(n, dtype=np.int64)
    card = 1
    for col in cols:
        cmin = int(col.min())
        k = int(col.max()) - cmin + 1  # Python ints: no int64 wrap-around
        if k > 1 << 20:
            _, shifted = np.unique(col, return_inverse=True)
            k = int(shifted.max()) + 1
        else:
            shifted = col - cmin if cmin else col
        if card > (1 << 62) // k:
            _, code = np.unique(code, return_inverse=True)
            card = int(code.max()) + 1
        code = code * k + shifted
        card *= k
    _, firsts, inverse = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(firsts, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return rank[inverse], firsts[order]


def _assert_same(cols):
    ids, firsts = _factorize(cols)
    want_ids, want_firsts = _oracle(cols)
    assert ids.dtype == np.int64 and firsts.dtype == np.int64
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(firsts, want_firsts)


_FLOATS = np.array(
    [0.0, -0.0, 1.0, -1.0, 0.1, 1e300, -1e-300, np.inf, -np.inf, np.nan, 5e-324]
)

# Spans chosen so that products of a few columns cross 2^16, 2^32 and 2^62;
# spans above 2^20 take the rank-coding path.
_SPANS = (1, 2, 3, 255, 257, 1 << 16, (1 << 16) + 1, 1 << 20, (1 << 20) + 1,
          1 << 40, 1 << 62)


@st.composite
def _column_specs(draw):
    kind = draw(st.sampled_from(["range", "const", "float"]))
    if kind == "float":
        return ("float", draw(st.integers(1, len(_FLOATS))), None)
    span = 1 if kind == "const" else draw(st.sampled_from(_SPANS))
    lo = draw(st.sampled_from([0, 1, -1, -(1 << 30), 7, -(1 << 62)]))
    pool = draw(st.integers(1, 6))
    return ("range", pool, (lo, span))


def _column(rng, n, spec):
    kind, pool, params = spec
    if kind == "float":
        values = _FLOATS[:pool]
        return values[rng.integers(0, pool, n)].view(np.int64)
    lo, span = params
    hi = lo + span - 1
    values = np.unique(
        np.concatenate([[lo, hi], rng.integers(lo, hi, pool, endpoint=True)])
    ).astype(np.int64)
    col = values[rng.integers(0, values.shape[0], n)]
    if n >= 2:  # pin the range so the span's path is taken
        col[0], col[-1] = lo, hi
    return col


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([0, 1, 2, 3, 17, 64, 257, 1000]),
    specs=st.lists(_column_specs(), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_factorize_matches_unique_oracle(n, specs, seed):
    rng = np.random.default_rng(seed)
    _assert_same([_column(rng, n, spec) for spec in specs])


@pytest.mark.parametrize(
    "spans",
    [
        (1 << 16,),
        ((1 << 16) + 1,),
        (1 << 8, 1 << 8),
        (1 << 16, 1 << 16),
        (1 << 16, (1 << 16) + 1),
        (1 << 20, 1 << 20, 1 << 20, 1 << 3),
        (1, 1, 1),
    ],
)
def test_factorize_at_cardinality_boundaries(spans):
    """Codes at and just past one and two 16-bit digits, and beyond."""
    rng = np.random.default_rng(len(spans))
    n = 5000
    cols = []
    for span in spans:
        col = rng.integers(0, span, n)
        col[0], col[-1] = 0, span - 1
        cols.append(col.astype(np.int64))
    _assert_same(cols)
    # Heavy repetition: few distinct rows spread over the full code range.
    _assert_same([c[rng.integers(0, 8, n)] for c in cols])

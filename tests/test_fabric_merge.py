"""Property tests for the bounded top-k merge behind every chunked search.

The whole bit-identity argument of ``docs/FABRIC.md`` rests on one claim:
folding per-chunk top-k lists through
:class:`repro.search.merge.TopKMerge` is a pure function of the *set* of
offered entries — independent of how the space was partitioned into
chunks, which order chunk results arrived, and how the folds were
associated.  ``run_chunks`` and the fabric coordinator both fold through
it.  Hypothesis drives that claim across arbitrary entry sets, partitions
and permutations, and checks the result against two references:

* the total-order reference ``sorted(entries, key=(-rate, gidx))[:k]`` —
  the retention rule ``_search_columnar`` implements with ``np.lexsort``;
* an emulation of the serial scalar heap in
  ``execution_search._evaluate_chunk`` (strict ``rate > heap[0][0]``
  admission), which coincides with the total order whenever rates are
  unique — the tie-free case every real sweep of this model lands in.
"""

import heapq
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.merge import TopKMerge

# Rates drawn from a small float pool *force* exact collisions, so the
# unique-gidx tiebreak is exercised constantly rather than never.
_RATES = st.sampled_from([0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 3.125])


@st.composite
def entry_sets(draw, max_size=64):
    """A list of (rate, gidx, payload) with unique global indices."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    gidxs = draw(st.permutations(range(max_size)))[:n]
    return [(draw(_RATES), g, {"g": g}) for g in gidxs]


def _partition(entries, cuts):
    """Split a list at the given cut points into contiguous chunks."""
    bounds = [0, *sorted(set(cuts)), len(entries)]
    return [entries[a:b] for a, b in zip(bounds, bounds[1:])]


def _reference(entries, k):
    """The total-order reference: best k under ``(-rate, gidx)``."""
    ranked = sorted(entries, key=lambda e: (-e[0], e[1]))[:k]
    return [(r, g, p) for r, g, p in ranked]


def _serial_heap(entries, k):
    """The scalar chunk heap from ``execution_search._evaluate_chunk``:
    strict rate-only admission over a min-heap of ``(rate, gidx)``."""
    heap = []
    for rate, gidx, payload in entries:
        entry = (rate, gidx, payload)
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif rate > heap[0][0]:
            heapq.heapreplace(heap, entry)
    return sorted(heap, key=lambda e: (-e[0], e[1]))


@settings(max_examples=200, deadline=None)
@given(
    entries=entry_sets(),
    k=st.integers(min_value=0, max_value=12),
    cuts=st.lists(st.integers(min_value=0, max_value=64), max_size=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_merge_is_partition_and_order_invariant(entries, k, cuts, seed):
    """Any chunking, any arrival order -> the single-fold answer."""
    whole = TopKMerge(k)
    whole.extend(entries)

    chunks = _partition(entries, cuts)
    rng = random.Random(seed)
    rng.shuffle(chunks)  # arrival order is arbitrary (commutativity)
    merged = TopKMerge(k)
    for chunk in chunks:
        # Workers pre-truncate to their local top-k before shipping; the
        # coordinator must still land on the global answer.
        local = TopKMerge(k)
        local.extend(chunk)
        merged.merge(local)

    assert merged.entries() == whole.entries() == _reference(entries, k)


@settings(max_examples=100, deadline=None)
@given(
    entries=entry_sets(),
    k=st.integers(min_value=1, max_value=8),
    cuts=st.lists(st.integers(min_value=0, max_value=64), max_size=4),
)
def test_merge_is_associative(entries, k, cuts):
    """Left fold == right fold == balanced fold over the same chunks."""
    chunks = _partition(entries, cuts)
    merges = []
    for chunk in chunks:
        m = TopKMerge(k)
        m.extend(chunk)
        merges.append(m)

    def fresh():
        out = []
        for chunk in chunks:
            m = TopKMerge(k)
            m.extend(chunk)
            out.append(m)
        return out

    left = fresh()
    acc = left[0]
    for m in left[1:]:
        acc.merge(m)

    right = fresh()
    racc = right[-1]
    for m in reversed(right[:-1]):
        racc.merge(m)

    tree = fresh()
    while len(tree) > 1:
        tree = [
            tree[i].merge(tree[i + 1]) if i + 1 < len(tree) else tree[i]
            for i in range(0, len(tree), 2)
        ]

    assert acc.entries() == racc.entries() == tree[0].entries()


@settings(max_examples=150, deadline=None)
@given(
    rates=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False),
        unique=True, max_size=48,
    ),
    k=st.integers(min_value=1, max_value=10),
    cuts=st.lists(st.integers(min_value=0, max_value=48), max_size=5),
)
def test_merge_matches_serial_scalar_heap_on_unique_rates(rates, k, cuts):
    """With unique rates (every real sweep), the chunked fold reproduces
    the serial scalar heap bit-for-bit — same entries, same order."""
    entries = [(r, g, {"g": g}) for g, r in enumerate(rates)]
    merged = TopKMerge(k)
    for chunk in _partition(entries, cuts):
        local = TopKMerge(k)
        local.extend(chunk)
        merged.merge(local)
    assert merged.entries() == _serial_heap(entries, k)


def test_strict_admission_keeps_earliest_on_ties():
    """A full heap admits only a strictly better (-rate, gidx) key: a tie
    at the boundary keeps the earlier (smaller gidx) candidate."""
    m = TopKMerge(2)
    assert m.add(1.0, 5)
    assert m.add(1.0, 9)
    assert not m.add(1.0, 12)       # ties the floor, later index: rejected
    assert m.add(1.0, 3)            # ties the rate, earlier index: admitted
    assert [(r, g) for r, g, _ in m.entries()] == [(1.0, 3), (1.0, 5)]


def test_threshold_and_len():
    m = TopKMerge(3)
    assert m.threshold() is None
    m.extend([(2.0, 0, None), (1.0, 1, None), (3.0, 2, None)])
    assert len(m) == 3
    assert m.threshold() == (1.0, 1)
    assert [g for _, g, _ in m] == [2, 0, 1]


def test_k_zero_retains_nothing():
    m = TopKMerge(0)
    assert not m.add(5.0, 1)
    assert m.entries() == [] and m.threshold() is None

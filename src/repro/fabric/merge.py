"""Associative bounded top-k merge: the fabric's one piece of shared math.

Every fabric worker returns its chunk's best ``top_k`` candidates as
``(rate, gidx, payload)`` entries, where ``gidx`` is the candidate's
*global* enumeration index (chunk start + row within the chunk).  The
coordinator folds those per-chunk lists into one :class:`TopKMerge`, and
the final ranking must be **bit-identical to a single-process run** no
matter how the space was chunked, which workers answered, or in what order
results arrived.

That property comes from using a *total* order as the ranking key:
``(-rate, gidx)``.  Rates may collide exactly (two configurations whose
differing knobs are no-ops produce the same float), but global indices are
unique by construction, so any two entries compare deterministically.
Selection over a totally ordered set is a pure function of the set —
independent of partitioning and arrival order — which makes the merge
associative and commutative (property-tested across arbitrary partitions
in ``tests/test_fabric_merge.py``).

A full heap admits a new entry only when it *strictly* beats the current
k-th best under that order, so ties at the boundary keep the earliest
candidate.  ``search()`` merges its own chunks on the same order
(``execution_search._merge_tops``); see ``docs/FABRIC.md`` for the full
bit-identity argument.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Iterator

__all__ = ["TopKMerge"]


class TopKMerge:
    """A bounded best-k set over ``(rate, gidx, payload)`` entries.

    Internally a min-heap keyed ``(rate, -gidx)``: the root is the *worst*
    retained entry — lowest rate, and among equal rates the largest global
    index (ties prefer earlier candidates).  ``add`` is O(log k); ``merge``
    of another instance is O(k log k).
    """

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("k must be >= 0")
        self.k = k
        # Heap entries are (rate, -gidx, gidx, payload); the first two
        # fields form the comparison key, so payloads are never compared.
        self._heap: list[tuple[float, int, int, Any]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def add(self, rate: float, gidx: int, payload: Any = None) -> bool:
        """Offer one entry; returns True when it was retained."""
        if self.k == 0:
            return False
        entry = (float(rate), -int(gidx), int(gidx), payload)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return True
        worst = self._heap[0]
        # Strict admission, exactly like the serial heap's
        # ``rate > heap[0][0]`` test extended with the unique tiebreak.
        if entry[:2] > worst[:2]:
            heapq.heapreplace(self._heap, entry)
            return True
        return False

    def extend(self, entries: Iterable[tuple[float, int, Any]]) -> None:
        """Offer ``(rate, gidx, payload)`` entries (a chunk's top list)."""
        for rate, gidx, payload in entries:
            self.add(rate, gidx, payload)

    def merge(self, other: "TopKMerge") -> "TopKMerge":
        """Fold another merge's retained entries into this one."""
        for rate, _negg, gidx, payload in other._heap:
            self.add(rate, gidx, payload)
        return self

    def entries(self) -> list[tuple[float, int, Any]]:
        """The retained entries, best first: sorted by ``(-rate, gidx)``."""
        ranked = sorted(self._heap, key=lambda e: (-e[0], e[2]))
        return [(rate, gidx, payload) for rate, _negg, gidx, payload in ranked]

    def __iter__(self) -> Iterator[tuple[float, int, Any]]:
        return iter(self.entries())

    def threshold(self) -> tuple[float, int] | None:
        """The current admission floor ``(rate, gidx)`` once full, else None.

        A candidate must beat this ``(-rate, gidx)``-wise to be retained;
        the coordinator gossips the rate on every lease grant so workers
        prune buckets provably below it (``lease()`` → ``floor_rate``).
        """
        if self.k == 0 or len(self._heap) < self.k:
            return None
        worst = self._heap[0]
        return (worst[0], worst[2])

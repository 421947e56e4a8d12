"""Span recorder and per-stage ledger for the traced benchmark run.

Spans live in memory and are written once, when the run ends.  Each span
has a name, a start and end on the machine-wide ``perf_counter`` clock, a
parent and a trace id shared by every span of one operation.

The ledger turns the span forest into rows.  Every root span is one timed
operation and its name starts with ``op.``; the ledger's wall time is the
sum of the root durations (for concurrent clients that is lane-seconds,
one lane per client).  A span's self time is its duration minus the part
of it that its children cover.  Self time of a named span (any name not
starting with ``op.``) is that name's row; self time of an ``op.`` span is
time no named stage explains, and goes to the ``unaccounted`` row.  As
long as sibling spans do not overlap (the benchmark never records any that
do), the rows plus ``unaccounted`` add up to the wall time.
"""

from __future__ import annotations

import json
import os
import uuid
from typing import Any

OP_PREFIX = "op."


def union_s(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals; empty ones count 0."""
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


class Recorder:
    """In-memory store of finished spans."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        trace_id: str | None = None,
        **args: Any,
    ) -> int:
        """Record a finished span; returns its id."""
        if parent is not None and trace_id is None:
            trace_id = self.spans[parent]["trace_id"]
        if parent is None and not name.startswith(OP_PREFIX):
            raise ValueError(f"root span {name!r} must be an operation (op.*)")
        sid = len(self.spans)
        self.spans.append({
            "id": sid, "name": name, "start": start, "end": max(start, end),
            "parent": parent, "trace_id": trace_id or uuid.uuid4().hex,
            "args": args,
        })
        return sid

    def lay_out(
        self, parent: int, stages: list[tuple[str, float]], *, start: float | None = None
    ) -> None:
        """Add child spans of the given durations back to back.

        Used for stage times the program reports as totals (stats counters,
        a replica's timings): only the durations are measurements, the
        placement is sequential from ``start`` (default: the parent's
        start).  Children are clipped to the parent's end, so a replica
        that ran slower than the real stage can never make the ledger
        count more time than the operation took.
        """
        p = self.spans[parent]
        t = p["start"] if start is None else max(p["start"], start)
        for name, dur in stages:
            if dur <= 0.0:
                continue
            end = min(t + dur, p["end"])
            if end <= t:
                break
            self.add(name, t, end, parent=parent)
            t = end

    # -- ledger --------------------------------------------------------------

    def self_times(self) -> list[float]:
        kids: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for s in self.spans:
            covered = union_s([(max(lo, s["start"]), min(hi, s["end"]))
                               for lo, hi in kids.get(s["id"], ())])
            out.append(s["end"] - s["start"] - covered)
        return out

    def ledger(self) -> dict[str, Any]:
        """Rows of self time by span name, plus ``unaccounted`` and ``wall``."""
        rows: dict[str, float] = {}
        unaccounted = 0.0
        wall = 0.0
        for s, self_s in zip(self.spans, self.self_times()):
            if s["parent"] is None:
                wall += s["end"] - s["start"]
            if s["name"].startswith(OP_PREFIX):
                unaccounted += self_s
            else:
                rows[s["name"]] = rows.get(s["name"], 0.0) + self_s
        return {"wall_s": wall, "unaccounted_s": unaccounted,
                "rows_s": dict(sorted(rows.items()))}

    def write(self, path: str | os.PathLike, **extra: Any) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "ledger": self.ledger(), **extra},
                      fh, indent=1)

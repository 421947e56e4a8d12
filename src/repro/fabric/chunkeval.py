"""Chunk evaluation shared by fabric workers and the coordinator's fallback.

One function, one contract: evaluate the candidates with global indices
``[start, stop)`` and return a JSON-safe payload holding the chunk's
candidate count, feasible count, bounded top-k entries and (optionally) a
metrics snapshot plus trace spans.  The same code runs inside every worker
process *and* inside the coordinator when a chunk exhausts its lease
retries (the serial-fallback mirror of
:func:`repro.search.faults.run_supervised`), so a degraded cluster computes
exactly what a healthy one would.

Bit-identity: a chunk is a row range of the global candidate columns,
evaluated by the search's own row-range evaluator
(:func:`repro.search.execution_search.evaluate_rows`).  Per-candidate
results are independent of batch composition (the columnar engine's
equivalence contract), so the rates produced for rows ``[start, stop)``
are bit-identical to a whole-space run.  The shipped entries carry
``gidx = start + row`` so the coordinator's
:class:`~repro.fabric.merge.TopKMerge` ranks them on the global
``(-rate, gidx)`` total order.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from ..hardware.system import System
from ..llm.config import LLMConfig
from ..obs import MetricsRegistry, Tracer
from ..obs.stats import M_CHUNK_SECONDS
from ..search.execution_search import _evaluate_chunk

__all__ = ["evaluate_chunk", "evaluate_serve_chunk"]


def evaluate_chunk(
    llm: LLMConfig,
    system: System,
    start: int,
    stop: int,
    top_k: int,
    *,
    cols: dict,
    chunk_index: int = 0,
    instrument: bool = True,
    trace_id: str | None = None,
    floor_rate: float = 0.0,
) -> dict[str, Any]:
    """Evaluate global candidates ``[start, stop)``; return a wire payload.

    ``cols`` holds the full-space candidate columns; the slice is taken
    here so callers hold one enumeration for all their chunks.

    ``floor_rate`` is the coordinator's gossiped rate ceiling — the
    cluster-wide k-th-best rate at lease-grant time.  It seeds the chunk's
    adaptive threshold, so buckets provably below the cluster's
    already-achieved top-k are skipped without pricing a single comm
    kernel.  Lossless by construction: only candidates whose rate is
    *strictly* below the floor are skipped, and the merge could never
    retain those.  Non-finite or negative floors are ignored.

    The payload::

        {"n": int, "feasible": int,
         "top": [[rate, gidx, strategy_dict], ...],   # best first
         "floor_rate": float,   # this chunk's local k-th-best rate report
         "snapshot": metrics-snapshot | None,
         "events": [trace spans] | None,
         "elapsed_s": float}
    """
    rows = {name: arr[start:stop] for name, arr in cols.items()}
    t0 = perf_counter()
    n, feasible, top, _rates, snapshot, events = _evaluate_chunk((
        llm, system, rows, start, top_k, False, None, True, floor_rate,
        instrument, chunk_index, None, trace_id,
    ))
    elapsed = perf_counter() - t0
    # Local k-th-best report for threshold gossip: the list is ranked
    # best-first, so a full list's tail is the chunk's k-th best.
    local_floor = float(top[-1][0]) if len(top) == top_k and top else 0.0
    return {
        "n": n,
        "feasible": feasible,
        "top": [[rate, gidx, strat.to_dict()] for rate, gidx, strat in top],
        "floor_rate": local_floor,
        "snapshot": snapshot,
        "events": events,
        "elapsed_s": elapsed,
    }


def evaluate_serve_chunk(
    llm: LLMConfig,
    system: System,
    start: int,
    stop: int,
    top_k: int,
    *,
    plans: list,
    workload: Any,
    slo: Any | None = None,
    prune: bool = True,
    max_batch: int | None = None,
    chunk_index: int = 0,
    instrument: bool = True,
    trace_id: str | None = None,
) -> dict[str, Any]:
    """Simulate serve plans with global indices ``[start, stop)``.

    The serving twin of :func:`evaluate_chunk`: the same wire-payload
    shape, with goodput as the merge rate and the serve plan dict as the
    payload — so :class:`~repro.fabric.merge.TopKMerge`'s ``(-rate, gidx)``
    total order reproduces serve-search's ``(-goodput, gidx)`` ranking
    bit-identically regardless of chunking (``tests/test_fabric_serve.py``).

    The payload::

        {"n": int, "simulated": int, "pruned": int, "infeasible": int,
         "violated": int,
         "top": [[goodput, gidx, plan_dict], ...],   # best first
         "snapshot": metrics-snapshot | None,
         "events": [trace spans] | None,
         "elapsed_s": float}
    """
    from ..serving.search import _serve_chunk
    from ..serving.stats import (
        M_SERVE_CANDIDATES,
        M_SERVE_INFEASIBLE,
        M_SERVE_PRUNED,
        M_SERVE_SIMULATED,
        M_SERVE_VIOLATED,
    )

    indexed = [(gidx, plans[gidx]) for gidx in range(start, stop)]
    t0 = perf_counter()
    n, simulated, pruned, infeasible, violated, top, _snap, _ev = _serve_chunk((
        llm, system, indexed, workload, slo, top_k, False, chunk_index,
        None, prune, max_batch, trace_id,
    ))
    elapsed = perf_counter() - t0
    snapshot = events = None
    if instrument:
        registry = MetricsRegistry()
        registry.inc(M_SERVE_CANDIDATES, n)
        registry.inc(M_SERVE_SIMULATED, simulated)
        registry.inc(M_SERVE_PRUNED, pruned)
        registry.inc(M_SERVE_INFEASIBLE, infeasible)
        registry.inc(M_SERVE_VIOLATED, violated)
        registry.observe(M_CHUNK_SECONDS, elapsed)
        tracer = Tracer(trace_id=trace_id)
        tracer.add_span(
            f"serve-chunk[{chunk_index}]", "serve.chunk", t0, elapsed,
            plans=n, simulated=simulated, pruned=pruned, trace_id=trace_id,
        )
        snapshot = registry.snapshot()
        events = tracer.events()
    return {
        "n": n,
        "simulated": simulated,
        "pruned": pruned,
        "infeasible": infeasible,
        "violated": violated,
        "top": [[g, gidx, plan.to_dict()] for g, gidx, plan, _stats in top],
        "snapshot": snapshot,
        "events": events,
        "elapsed_s": elapsed,
    }

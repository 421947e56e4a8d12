"""SLO-constrained serving deployment search.

Enumerates :class:`~repro.serving.disagg.ServePlan` candidates (colocated
parallelizations plus disaggregated prefill/decode splits of the same
system), simulates each against a traffic mix, and returns the top-k by
goodput among plans that meet the SLO.  It runs its chunks through the same
driver as :mod:`repro.search.execution_search`,
:func:`~repro.search.faults.run_chunks` (layout, content-keyed checkpoint
journal with bit-identical resume, dispatch, obs spans/events, top-k
merge), and has a sound prune step of its own — the SLO lower-bound
admission test of :mod:`repro.serving.bounds` instead of the roofline
bound.

The top-k guarantee: pruning only ever skips plans whose *lower bound*
already violates the SLO; such plans could never rank (ranking admits
only SLO-satisfying plans), so the pruned search's top-k is bit-identical
to the exhaustive one.  Tests keep the exhaustive scalar path as the
oracle (``tests/test_serve_search.py``).
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from time import perf_counter

from ..hardware.system import System
from ..llm.config import LLMConfig
from ..inference.search import shardings
from ..obs import (
    EventJournal,
    MetricsRegistry,
    ProgressReporter,
    Tracer,
)
from ..obs.stats import M_CHUNK_SECONDS
from ..search.checkpoint import run_key
from ..search.faults import FaultInjector, RetryPolicy, run_chunks
from .bounds import plan_bounds, slo_admits
from .disagg import ServePlan, check_plan, simulate_plan
from .simulator import ServeStats
from .stats import (
    M_SERVE_CANDIDATES,
    M_SERVE_INFEASIBLE,
    M_SERVE_PRUNED,
    M_SERVE_SIMULATED,
    M_SERVE_VIOLATED,
    ServeSearchStats,
)
from .workload import SLOSpec, ServeWorkload


@dataclass(frozen=True)
class ServeSearchOptions:
    """Which deployment dimensions serve-search sweeps.

    ``splits`` are prefill-cluster fractions tried for disaggregated
    plans (each rounded down to a whole processor count); ``max_batch``
    caps the continuous-batching occupancy per replica.
    """

    max_tensor_par: int = 64
    disagg: bool = True
    splits: tuple[float, ...] = (0.25, 0.5)
    max_batch: int | None = None

    def __post_init__(self) -> None:
        if any(not 0.0 < f < 1.0 for f in self.splits):
            raise ValueError("splits must be fractions in (0, 1)")


@dataclass
class ServeSearchResult:
    """Outcome of one serving deployment search.

    ``top`` ranks SLO-satisfying plans by ``(-goodput_rps, enumeration
    index)`` — deterministic, so reruns, resumes, and pruned runs agree
    bit-identically.
    """

    top: list[tuple[ServePlan, ServeStats]]
    num_candidates: int
    num_simulated: int
    num_pruned: int
    num_infeasible: int
    num_violated: int
    stats: ServeSearchStats | None = None
    truncated: bool = False

    @property
    def best(self) -> tuple[ServePlan, ServeStats] | None:
        return self.top[0] if self.top else None


def candidate_plans(
    llm: LLMConfig,
    system: System,
    options: ServeSearchOptions | None = None,
) -> list[ServePlan]:
    """Every candidate plan, in deterministic enumeration order.

    Colocated plans first, then disaggregated plans grouped by split
    fraction — the enumeration index is the search's tiebreak, so this
    order is part of the result contract.
    """
    opts = options or ServeSearchOptions()
    n = system.num_procs
    plans = [
        ServePlan(decode=s) for s in shardings(llm, n, opts.max_tensor_par)
    ]
    if opts.disagg and n >= 2:
        seen_splits: set[int] = set()
        for frac in opts.splits:
            n_pre = int(n * frac)
            if n_pre < 1 or n_pre >= n or n_pre in seen_splits:
                continue
            seen_splits.add(n_pre)
            pre_side = shardings(llm, n_pre, opts.max_tensor_par)
            dec_side = shardings(llm, n - n_pre, opts.max_tensor_par)
            plans.extend(
                ServePlan(decode=dec, prefill=pre)
                for pre in pre_side
                for dec in dec_side
            )
    return plans


def _serve_chunk(
    args: tuple[
        LLMConfig, System, list[tuple[int, ServePlan]], ServeWorkload,
        SLOSpec | None, int, bool, int, FaultInjector | None, bool,
        int | None, str | None,
    ]
) -> tuple[
    int, int, int, int, int,
    list[tuple[float, int, ServePlan, ServeStats]],
    dict | None, list[dict] | None,
]:
    """Simulate one chunk of ``(enumeration index, plan)`` pairs.

    Returns ``(n, simulated, pruned, infeasible, violated, top, snapshot,
    trace_events)`` with ``top`` the chunk's SLO-satisfying plans ranked by
    ``(-goodput, gidx)`` — an associative partial result safe to merge in
    any order (the fabric's serve chunks reuse this exact contract).  The
    metrics snapshot and ``serve-chunk[i]`` span are ``None`` unless
    ``instrument`` is set.
    """
    (llm, system, indexed, workload, slo, top_k, instrument, chunk_index,
     injector, prune, max_batch, trace_id) = args
    if injector is not None:
        injector.fire(chunk_index)
    registry = MetricsRegistry() if instrument else None
    start = perf_counter()
    _, prompts, _ = workload.sample()
    heap: list[tuple[float, int, int, ServePlan, ServeStats]] = []
    simulated = pruned = infeasible = violated = 0
    # Tiled bound pass — the serving twin of the engine's best-bound-first
    # tiling: price every plan's analytic SLO lower bounds up front, admit
    # or prune on them, then simulate the survivors best-bound-first
    # (smallest latency floor first).  ServeBounds carries no goodput upper
    # bound, so the ordering is a pure locality hint here; retention uses
    # the ``(goodput, -gidx)`` total order, so any simulation order yields
    # a bit-identical top-k.
    admitted: list[tuple[float, int, ServePlan]] = []
    for gidx, plan in indexed:
        if check_plan(llm, system, plan, workload) is not None:
            infeasible += 1
            continue
        bounds = plan_bounds(llm, system, plan, workload, prompts)
        if prune and slo is not None and not slo_admits(bounds, slo):
            # The lower bound already violates a target: the real run could
            # only be worse, so the plan provably cannot rank.  Skipping the
            # simulation cannot change the top-k.
            pruned += 1
            continue
        admitted.append((bounds.ttft_p95 + bounds.tpot_p95, gidx, plan))
    admitted.sort(key=lambda e: (e[0], e[1]))
    for _bound, gidx, plan in admitted:
        try:
            stats = simulate_plan(
                llm, system, plan, workload, slo=slo, max_batch=max_batch
            )
        except ValueError:
            infeasible += 1
            continue
        simulated += 1
        if slo is not None and not slo.satisfied(stats):
            violated += 1
            continue
        goodput = stats.goodput_rps
        entry = (goodput, -gidx, gidx, plan, stats)
        if len(heap) < top_k:
            heapq.heappush(heap, entry)
        elif (goodput, -gidx) > (heap[0][0], heap[0][1]):
            heapq.heapreplace(heap, entry)
    ranked = sorted(heap, key=lambda e: (-e[0], e[2]))
    top = [(g, gidx, plan, stats) for g, _, gidx, plan, stats in ranked]
    snapshot = events = None
    if registry is not None:
        elapsed = perf_counter() - start
        registry.inc(M_SERVE_CANDIDATES, len(indexed))
        registry.inc(M_SERVE_SIMULATED, simulated)
        registry.inc(M_SERVE_PRUNED, pruned)
        registry.inc(M_SERVE_INFEASIBLE, infeasible)
        registry.inc(M_SERVE_VIOLATED, violated)
        registry.observe(M_CHUNK_SECONDS, elapsed)
        tracer = Tracer(trace_id=trace_id)
        tracer.add_span(
            f"serve-chunk[{chunk_index}]", "serve.chunk", start, elapsed,
            plans=len(indexed), simulated=simulated, pruned=pruned,
            trace_id=trace_id,
        )
        snapshot = registry.snapshot()
        events = tracer.events()
    return (
        len(indexed), simulated, pruned, infeasible, violated, top,
        snapshot, events,
    )


def _chunk_payload(result: tuple) -> dict:
    """A serve chunk result as a JSON-safe journal record.

    Stores plans plus their goodput key, not full :class:`ServeStats` —
    resume re-simulates the few journaled plans through the deterministic
    simulator, keeping the journal small and schema-stable.
    """
    n, simulated, pruned, infeasible, violated, top, snapshot, _events = result
    return {
        "n": n,
        "simulated": simulated,
        "pruned": pruned,
        "infeasible": infeasible,
        "violated": violated,
        "top": [[g, gidx, plan.to_dict()] for g, gidx, plan, _stats in top],
        "snapshot": snapshot,
    }


def _chunk_from_payload(
    llm: LLMConfig,
    system: System,
    workload: ServeWorkload,
    slo: SLOSpec | None,
    max_batch: int | None,
    payload: dict,
) -> tuple:
    """Reconstruct a serve chunk result tuple from its journal record."""
    top = []
    for _g, gidx, plan_dict in payload["top"]:
        plan = ServePlan.from_dict(plan_dict)
        stats = simulate_plan(
            llm, system, plan, workload, slo=slo, max_batch=max_batch
        )
        top.append((stats.goodput_rps, int(gidx), plan, stats))
    return (
        int(payload["n"]),
        int(payload["simulated"]),
        int(payload["pruned"]),
        int(payload["infeasible"]),
        int(payload["violated"]),
        top,
        payload.get("snapshot"),
        None,
    )


def serve_search(
    llm: LLMConfig,
    system: System,
    workload: ServeWorkload,
    slo: SLOSpec | None = None,
    options: ServeSearchOptions | None = None,
    *,
    top_k: int = 5,
    workers: int | None = None,
    prune: bool = True,
    tracer: Tracer | None = None,
    collect_stats: bool = False,
    progress: ProgressReporter | None = None,
    events: EventJournal | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    deadline: float | None = None,
    retry_policy: RetryPolicy | None = None,
    fault_injector: FaultInjector | None = None,
) -> ServeSearchResult:
    """Find the deployments that serve ``workload`` within ``slo`` best.

    Ranking is by goodput (requests completing within their per-request
    deadlines, per second) among plans whose measured percentiles satisfy
    every SLO target; with no SLO, by throughput.  ``prune`` engages the
    sound lower-bound admission test — provably-violating plans are never
    simulated, and the top-k is bit-identical to ``prune=False``.

    ``workers > 1`` simulates chunks of plans on a process pool; ``None``
    (the default), 0 or 1 runs serially in-process.  The answer is the same
    either way.

    The fault-tolerance surface (``checkpoint`` / ``resume`` /
    ``deadline`` / ``retry_policy`` / ``fault_injector``) and the
    instrumentation (``events`` / ``tracer`` / ``collect_stats`` /
    ``progress``) behave exactly like
    :func:`repro.search.execution_search.search`, through the same chunk
    driver: only more than one worker or a fault-tolerance argument cuts
    the plans into chunks, only a fault-tolerance argument makes a failing
    chunk retried or skipped instead of re-raised, checkpoints record
    completed chunks under a :func:`~repro.cachekey.run_key` that includes
    the workload and SLO (so serving journals never collide with training
    ones), and a resumed run is bit-identical to an uninterrupted one.
    """
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")
    t_start = perf_counter()
    opts = options or ServeSearchOptions()
    instrument = collect_stats or tracer is not None

    t0 = perf_counter()
    plans = candidate_plans(llm, system, opts)
    indexed = list(enumerate(plans))
    if tracer is not None:
        tracer.add_span("enumerate", "serve-search", t0, perf_counter() - t0,
                        plans=len(plans))
    key = None
    if checkpoint is not None:
        key = run_key(
            llm, system, 0, opts, kind="serve-search",
            extra={
                "workload": workload.to_dict(),
                "slo": slo.to_dict() if slo is not None else None,
                "top_k": top_k,
            },
        )

    def task(n: int, lo: int, hi: int, trace_id: str | None) -> tuple:
        return (llm, system, indexed[lo:hi], workload, slo, top_k, instrument,
                n, fault_injector, prune, opts.max_batch, trace_id)

    def decode(payload: dict) -> tuple:
        return _chunk_from_payload(llm, system, workload, slo, opts.max_batch,
                                   payload)

    run = run_chunks(
        _serve_chunk, task, len(plans), top_k=top_k, workers=workers,
        name="serve", start_fields={"plans": len(plans)}, started=t_start,
        tracer=tracer, events=events, progress=progress,
        checkpoint=checkpoint, key=key, resume=resume,
        encode=_chunk_payload, decode=decode,
        deadline=deadline, retry_policy=retry_policy,
        fault_injector=fault_injector,
    )
    results = run.results
    num_candidates = sum(r[0] for r in results)
    num_simulated = sum(r[1] for r in results)
    num_pruned = sum(r[2] for r in results)
    num_infeasible = sum(r[3] for r in results)
    num_violated = sum(r[4] for r in results)
    top = [(plan, stats) for _g, _gidx, plan, stats in run.top]

    stats = None
    if collect_stats or run.tolerant:
        # The result-level totals are exact even when chunks ran without
        # metric snapshots (a checkpointed run without --stats), so build
        # the typed summary from them directly; from_metrics() serves
        # merged-registry consumers (the fabric coordinator, the service
        # exposition).
        stats = ServeSearchStats(
            candidates=num_candidates,
            simulated=num_simulated,
            pruned=num_pruned,
            violated=num_violated,
            infeasible=num_infeasible,
            elapsed=perf_counter() - t_start,
            workers=run.workers,
            retries=run.retries,
            skipped=run.skipped,
            resumed_chunks=run.resumed,
            truncated=run.truncated,
        )
    if events is not None:
        events.emit(
            "serve.done", seconds=perf_counter() - t_start,
            plans=num_candidates, simulated=num_simulated,
            pruned=num_pruned, violated=num_violated,
            retries=run.retries, resumed=run.resumed, truncated=run.truncated,
        )
    return ServeSearchResult(
        top=top,
        num_candidates=num_candidates,
        num_simulated=num_simulated,
        num_pruned=num_pruned,
        num_infeasible=num_infeasible,
        num_violated=num_violated,
        stats=stats,
        truncated=run.truncated,
    )

"""Optimal execution search engine (paper §5.1).

Exhaustively enumerates execution configurations for a given LLM, system and
global batch size, evaluates each with the analytical model, and returns the
best performer (by sample rate) plus distribution statistics.  The
enumeration covers the full Table-1 space; :class:`SearchOptions` restricts
any dimension for scoped studies (e.g. Fig. 5's "original optimizations").

A multi-core map mirrors the paper's "minutes on a standard desktop" claim:
the per-configuration model is fast (well under a millisecond) and
configurations are independent, so the sweep parallelizes trivially.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from ..core.results import PerformanceResult
from ..engine import (
    comm_cache_stats,
    evaluate,
    evaluate_many,
    iter_evaluate,
    prune_threshold_for_rate,
)
from ..execution.strategy import ExecutionStrategy, divisors, factorizations
from ..hardware.system import System
from ..llm.config import LLMConfig
from ..obs import (
    M_COMM_CACHE_HITS,
    M_COMM_CACHE_MISSES,
    EventJournal,
    MetricsRegistry,
    ProgressReporter,
    PruneStats,
    SweepStats,
    Tracer,
)
from ..obs.stats import (
    M_BOUND_SKIPPED_BUCKETS,
    M_BOUND_TILES,
    M_CHUNK_SECONDS,
    M_SURROGATE_SEEDED,
    STAGE_NAMES,
    stage_metric,
)
from .checkpoint import CheckpointJournal, run_key
from .faults import FaultInjector, RetryPolicy, run_supervised
from .surrogate import (
    load_surrogate,
    seed_sample_size,
    store_surrogate,
    surrogate_key,
)

logger = logging.getLogger(__name__)

# Scalar path only: below this many candidates per worker, pool startup +
# pickling costs more than the evaluation itself (the per-candidate scalar
# model runs in ~tens of microseconds), so the auto heuristic stays serial.
# The pure-columnar path never consults it — see auto_workers().
MIN_STRATEGIES_PER_WORKER = 2000


@dataclass(frozen=True)
class SearchOptions:
    """Which execution dimensions to sweep (paper Table 1 "range" column).

    Each tuple lists the values tried for that dimension; fixing a dimension
    to a single value removes it from the sweep.  ``seq_par_modes`` entries
    are ``(seq_par, tp_redo_sp, pp_rs_ag)`` triples, keeping the dependent
    flags consistent by construction.
    """

    recompute: tuple[str, ...] = ("none", "attn_only", "full")
    seq_par_modes: tuple[tuple[bool, bool, bool], ...] = (
        (False, False, False),
        (True, True, True),
    )
    tp_overlap: tuple[str, ...] = ("none", "ring")
    dp_overlap: tuple[bool, ...] = (False, True)
    optimizer_sharding: tuple[bool, ...] = (False, True)
    fused_activations: tuple[bool, ...] = (False, True)
    pp_1f1b: tuple[bool, ...] = (True,)
    offload_modes: tuple[tuple[bool, bool, bool], ...] = ((False, False, False),)
    max_tensor_par: int = 64
    max_microbatch: int = 64
    microbatch_powers_of_two: bool = True
    interleaving_values: tuple[int, ...] | None = None  # None -> divisors of L/p
    training: bool = True

    @classmethod
    def megatron_baseline(cls) -> "SearchOptions":
        """The "original optimizations" regime of Fig. 5(a): full recompute,
        1F1B + microbatching, no sequence parallelism, no overlap/sharding."""
        return cls(
            recompute=("full",),
            seq_par_modes=((False, False, False),),
            tp_overlap=("none",),
            dp_overlap=(False,),
            optimizer_sharding=(False,),
            fused_activations=(False,),
        )

    @classmethod
    def seq_par_regime(cls) -> "SearchOptions":
        """Fig. 5(b): sequence parallelism + selective recompute added."""
        return cls(
            recompute=("attn_only", "full"),
            seq_par_modes=((True, True, True),),
            tp_overlap=("none",),
            dp_overlap=(False,),
            optimizer_sharding=(False,),
            fused_activations=(False,),
        )

    @classmethod
    def all_optimizations(cls) -> "SearchOptions":
        """Fig. 5(c,d): the full Table-1 space."""
        return cls()

    @classmethod
    def all_with_offload(cls) -> "SearchOptions":
        """§6: the full space plus weight+activation+optimizer offload."""
        return cls(
            offload_modes=((False, False, False), (True, True, True))
        )

    def with_offload_only(self) -> "SearchOptions":
        return replace(self, offload_modes=((True, True, True),))


@dataclass
class SearchResult:
    """Outcome of one exhaustive execution search.

    ``stats`` is populated when the search ran with ``collect_stats=True``
    or with any fault-tolerance feature active: a
    :class:`~repro.obs.SweepStats` whose engine counters are merged across
    every worker chunk and whose retry/skip/resume counters describe what
    the supervision layer did.  ``truncated`` is set when a ``deadline``
    stopped the sweep at a chunk boundary — the result is then valid but
    covers only the evaluated prefix of the space.
    """

    best: PerformanceResult | None
    best_strategy: ExecutionStrategy | None
    top: list[tuple[ExecutionStrategy, PerformanceResult]]
    num_evaluated: int
    num_feasible: int
    sample_rates: np.ndarray  # feasible configurations' sample rates
    stats: SweepStats | None = None
    truncated: bool = False

    @property
    def feasible_fraction(self) -> float:
        if self.num_evaluated == 0:
            return 0.0
        return self.num_feasible / self.num_evaluated


def candidate_strategies(
    llm: LLMConfig,
    system: System,
    batch: int,
    options: SearchOptions | None = None,
):
    """Yield every candidate :class:`ExecutionStrategy` in the option space.

    Structural constraints that need no model evaluation (t beyond the head
    count, p beyond the block count, batch divisibility) are pruned here;
    everything else is left to the model's feasibility check.
    """
    opts = options or SearchOptions()
    n = system.num_procs
    for t, p, d in factorizations(n):
        if t > min(opts.max_tensor_par, llm.attn_heads) or llm.attn_heads % t:
            continue
        if llm.hidden % t or llm.feedforward % t:
            continue
        if p > llm.num_blocks:
            continue
        if d > batch or batch % d:
            continue
        local_batch = batch // d
        microbatches = [
            m
            for m in divisors(local_batch)
            if m <= opts.max_microbatch
            and (not opts.microbatch_powers_of_two or (m & (m - 1)) == 0)
        ]
        if opts.interleaving_values is not None:
            interleavings = [
                v
                for v in opts.interleaving_values
                if v == 1 or (p > 1 and v <= math.ceil(llm.num_blocks / p))
            ]
        else:
            bpstage = math.ceil(llm.num_blocks / p)
            interleavings = [v for v in divisors(bpstage) if v == 1 or p > 1]
        for m, v in itertools.product(microbatches, interleavings):
            for rc, (sp, redo, ppsg), tpo, dpo, osh, fus, f1b, off in itertools.product(
                opts.recompute,
                opts.seq_par_modes,
                opts.tp_overlap,
                opts.dp_overlap,
                opts.optimizer_sharding,
                opts.fused_activations,
                opts.pp_1f1b,
                opts.offload_modes,
            ):
                if sp and llm.seq_size % t:
                    continue
                if sp and t == 1:
                    continue  # degenerate: SP is a no-op without TP
                yield ExecutionStrategy(
                    tensor_par=t,
                    pipeline_par=p,
                    data_par=d,
                    batch=batch,
                    microbatch=m,
                    pp_interleaving=v,
                    pp_1f1b=f1b,
                    pp_rs_ag=ppsg and sp,
                    seq_par=sp,
                    tp_redo_sp=redo and sp,
                    tp_overlap=tpo,
                    dp_overlap=dpo,
                    optimizer_sharding=osh,
                    recompute=rc,
                    fused_activations=fus,
                    weight_offload=off[0],
                    activation_offload=off[1],
                    optimizer_offload=off[2],
                    training=opts.training,
                )


def auto_workers(num_strategies: int, cpu_count: int | None = None) -> int:
    """Process count for a scalar-path sweep of ``num_strategies`` candidates.

    The heuristic: one worker per :data:`MIN_STRATEGIES_PER_WORKER`
    candidates, capped at the machine's core count and floored at one.
    Small sweeps therefore run serially *by design* — even on a many-core
    machine — because forking a pool and pickling the problem costs more
    than evaluating a few thousand sub-millisecond candidates.  Callers who
    know better pass ``workers`` explicitly.

    :func:`search` consults it only on the scalar path (a ``constraint``,
    ``columnar=False``, or a fault-tolerance feature).  When the
    pure-columnar path applies, ``workers=None`` always runs serially: the
    pool's serial prefix in the parent — enumerating ~10⁵
    :class:`ExecutionStrategy` objects and pickling them — alone takes
    5-20x longer than the whole serial columnar search (measured in
    ``docs/PERFORMANCE.md``), so no core count wins it back.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    return max(1, min(cpus, num_strategies // MIN_STRATEGIES_PER_WORKER))


def _chunk_trace_events(
    tracer: Tracer,
    chunk_index: int,
    registry: MetricsRegistry,
    start: float,
    elapsed: float,
    n_strategies: int,
    feasible: int,
) -> None:
    """Record one chunk span plus per-stage aggregate child spans.

    Per-candidate stage spans at sweep scale would dwarf the work being
    traced, so each chunk carries five synthetic child spans — one per
    pipeline stage, sized by the chunk's accumulated stage wall time and
    laid out sequentially from the chunk start.  They render as an in-chunk
    breakdown in Perfetto; only their durations (not their placement) are
    measurements.

    The chunk span carries the tracer's ``trace_id`` in its args, so spans
    shipped back from worker processes remain attributable to the
    coordinator's trace after stitching.
    """
    tracer.add_span(
        f"chunk[{chunk_index}]",
        "search.chunk",
        start,
        elapsed,
        candidates=n_strategies,
        feasible=feasible,
        trace_id=tracer.trace_id,
    )
    offset = start
    for stage in STAGE_NAMES:
        dur = registry.stage_total(stage_metric(stage))
        if dur <= 0.0:
            continue
        tracer.add_span(stage, "engine.stage", offset, dur, aggregate=True)
        offset += dur
    tiles = int(registry.value(M_BOUND_TILES))
    if tiles > 0:
        # Adaptive tiled pass: one synthetic span carrying the tile/skip/
        # seed counters, so traces show how hard the threshold bit.
        tracer.add_span(
            "adaptive", "engine.stage", start, elapsed, aggregate=True,
            bound_tiles=tiles,
            bound_skipped_buckets=int(registry.value(M_BOUND_SKIPPED_BUCKETS)),
            surrogate_seeded=int(registry.value(M_SURROGATE_SEEDED)),
        )


def _evaluate_chunk(
    args: tuple[
        LLMConfig, System, list[ExecutionStrategy], int, object, bool, int,
        FaultInjector | None, bool, float, bool | None, str | None,
    ]
) -> tuple[
    int,
    int,
    list[tuple[ExecutionStrategy, PerformanceResult]],
    list[float],
    dict | None,
    list[dict] | None,
]:
    (llm, system, strategies, top_k, constraint, instrument, chunk_index,
     injector, bound_prune, seed_floor, columnar, trace_id) = args
    if injector is not None:
        injector.fire(chunk_index)
    registry = MetricsRegistry() if instrument else None
    start = perf_counter()
    # Bounded min-heap of (rate, tiebreak, strategy, result): O(n log k) with
    # k live entries, instead of periodically re-sorting a 4k-long list.
    heap: list[tuple[float, int, ExecutionStrategy, PerformanceResult]] = []
    rates: list[float] = []
    feasible = 0
    # Bound pruning: the engine skips comm/assembly for any candidate whose
    # roofline lower bound proves its rate cannot beat the heap's current
    # k-th best.  The ceiling is a batch-time threshold derived from the
    # rate floor so that pruning exactly mirrors the heap's strict
    # `rate > heap[0][0]` admission test (see prune_threshold_for_rate) —
    # the retained top-k stays bit-identical to an unpruned run.  An
    # optional seed floor (from search()'s cheap pre-pass) tightens the
    # ceiling before this chunk's own heap fills.
    prune_above = None
    if not math.isfinite(seed_floor) or seed_floor < 0.0:
        # A gossiped/seeded floor from an empty or all-infeasible heap can
        # arrive as -inf or nan; pruning on it would discard the whole
        # chunk, so it is clamped to "no floor" here (and again inside
        # prune_threshold_for_rate).
        seed_floor = 0.0
    floor_rate = seed_floor
    if bound_prune and strategies and top_k > 0:
        batch = float(strategies[0].batch)
        ceiling = [prune_threshold_for_rate(batch, floor_rate)]

        def prune_above() -> float:
            return ceiling[0]

    for idx, res in iter_evaluate(
        llm, system, strategies, prune=True, prune_above=prune_above,
        metrics=registry, columnar=columnar,
    ):
        if res.pruned:
            # Memory-feasible, provably outside the top-k; counts toward
            # feasibility (the comm/assemble stages never reject) but has
            # no rate to record.
            feasible += 1
            continue
        if not res.feasible:
            continue
        if constraint is not None and not constraint(res):
            continue
        feasible += 1
        rate = res.sample_rate
        rates.append(rate)
        if top_k == 0:
            continue  # rates only: nothing to rank
        entry = (rate, idx, strategies[idx], res)
        if len(heap) < top_k:
            heapq.heappush(heap, entry)
        elif rate > heap[0][0]:
            heapq.heapreplace(heap, entry)
        else:
            continue
        if prune_above is not None and len(heap) == top_k:
            kth = heap[0][0]
            if kth > floor_rate:
                floor_rate = kth
                ceiling[0] = prune_threshold_for_rate(batch, floor_rate)
    ranked = sorted(heap, key=lambda entry: (-entry[0], entry[1]))
    top = [(strat, res) for _, _, strat, res in ranked]
    snapshot = events = None
    if registry is not None:
        elapsed = perf_counter() - start
        # Per-chunk latency distribution, merged into the parent registry
        # alongside the engine counters (p50/p95 straggler visibility).
        registry.observe(M_CHUNK_SECONDS, elapsed)
        # The worker's tracer adopts the coordinator's trace context, so the
        # chunk spans it ships back belong to the caller's trace_id.
        tracer = Tracer(trace_id=trace_id)
        _chunk_trace_events(
            tracer, chunk_index, registry, start, elapsed,
            len(strategies), feasible,
        )
        snapshot = registry.snapshot()
        events = tracer.events()
    return len(strategies), feasible, top, rates, snapshot, events


def _chunk_payload(result: tuple, keep_rates: bool) -> dict:
    """A chunk result as a JSON-safe journal record.

    Top-k entries store the strategy and its rate, not the full
    :class:`PerformanceResult` — resume re-evaluates the handful of
    journaled strategies through the deterministic engine, keeping the
    journal small and schema-stable.
    """
    n, feasible, top, rates, snapshot, _events = result
    return {
        "n": n,
        "feasible": feasible,
        "top": [[res.sample_rate, strat.to_dict()] for strat, res in top],
        "rates": list(rates) if keep_rates else None,
        "snapshot": snapshot,
    }


def _chunk_from_payload(llm: LLMConfig, system: System, payload: dict) -> tuple:
    """Reconstruct a chunk result tuple from its journal record."""
    top = []
    for _rate, strat_dict in payload["top"]:
        strat = ExecutionStrategy.from_dict(strat_dict)
        top.append((strat, evaluate(llm, system, strat)))
    return (
        int(payload["n"]),
        int(payload["feasible"]),
        top,
        list(payload.get("rates") or []),
        payload.get("snapshot"),
        None,
    )


def _search_columnar(
    llm: LLMConfig,
    system: System,
    batch: int,
    cols: dict,
    engine_batch,
    *,
    top_k: int,
    keep_rates: bool,
    instrument: bool,
    collect_stats: bool,
    tracer: Tracer | None,
    progress: ProgressReporter | None,
    t_start: float,
    options: SearchOptions | None = None,
    bound_prune: bool = True,
    prune_seed: int = 0,
    surrogate: bool = True,
    floor_rate: float = 0.0,
) -> SearchResult:
    """Evaluate the whole candidate space as one vectorized columnar batch.

    No chunking and no heap: the top-k is selected from the survivor rate
    column with the scalar heap's exact retention rule (ties at the k-th
    rate keep the earliest candidates in *stream* order; the returned list
    is then ordered by rate, ties by enumeration index), and only those k
    winners are materialized as :class:`ExecutionStrategy` objects and
    re-evaluated through the scalar pipeline — bit-identical by the
    engine's columnar equivalence contract, and a few microseconds each.

    When the caller needs nothing beyond the top-k (``bound_prune`` with
    ``keep_rates=False``), evaluation runs the adaptive best-bound-first
    tiled path (:class:`repro.engine.batch.AdaptivePlan`): buckets are
    visited in roofline-bound order, the running k-th-best rate tightens a
    strict threshold between tiles, and hopeless buckets never reach the
    comm stage.  An online surrogate (``surrogate=True``) picks the tile-0
    seed sample from persisted observations of previous runs —
    ``prune_seed`` sizes that sample (its stride semantics apply only to
    the scalar chunked path).  Both tiling and seeding affect speed only:
    the retained top-k stays bit-identical to the untiled, unseeded run.
    With ``keep_rates`` every candidate's rate is needed, so the batch
    runs untiled exactly as before.
    """
    eb = engine_batch.EvalBatch.from_columns(llm, system, cols)
    n = eb.n
    if progress is not None:
        progress.set_total(n)
    registry = MetricsRegistry() if instrument else None
    plan = None
    sur = sur_key = None
    do_adaptive = bool(bound_prune and not keep_rates and top_k > 0)
    if do_adaptive:
        seed_fn = on_tile = None
        if surrogate:
            sur_key = surrogate_key(llm, system, batch,
                                    options or SearchOptions())
            sur = load_surrogate(sur_key)
            seed_n = seed_sample_size(prune_seed, top_k)
            if seed_n > 0:
                def seed_fn(batch_state):
                    return sur.seed_buckets(batch_state, seed_n)

            def on_tile(tile_b, bid_s, rate_s):
                sur.observe_tile(eb, bid_s, rate_s)

        plan = engine_batch.AdaptivePlan(
            top_k=top_k, floor_rate=floor_rate,
            seed_fn=seed_fn, on_tile=on_tile,
        )
    t_run = perf_counter()
    if registry is not None:
        cc0 = comm_cache_stats()
    try:
        engine_batch.run_batch(
            eb, prune_above=None, metrics=registry, adaptive=plan
        )
    finally:
        if registry is not None:
            cc1 = comm_cache_stats()
            registry.inc(M_COMM_CACHE_HITS, cc1[0] - cc0[0])
            registry.inc(M_COMM_CACHE_MISSES, cc1[1] - cc0[1])
    if sur is not None and sur_key is not None:
        store_surrogate(sur_key, sur)
    # Bound-pruned candidates are memory-feasible by construction — the
    # comm/assemble stages never reject — so they count toward feasibility
    # exactly as on the scalar pruned path.
    num_feasible = int(eb.n_s) + int(getattr(eb, "n_pruned", 0))
    top: list[tuple[ExecutionStrategy, PerformanceResult]] = []
    if top_k > 0 and num_feasible > 0:
        srank = eb.stream_rank[eb.sidx]
        keep = np.lexsort((srank, -eb.rate_s))[:top_k]
        order = np.lexsort((eb.sidx[keep], -eb.rate_s[keep]))
        for i in keep[order]:
            strat = eb.strategy_at(int(eb.sidx[i]))
            top.append((strat, evaluate(llm, system, strat)))
    rates = np.empty(0)
    if keep_rates and num_feasible > 0:
        rates = eb.rate_s[np.argsort(eb.stream_rank[eb.sidx])]
    if progress is not None:
        progress.update(n, num_feasible)
        progress.finish()
    if tracer is not None and registry is not None:
        _chunk_trace_events(
            tracer, 0, registry, t_run, perf_counter() - t_run, n, num_feasible,
        )
    stats = None
    if collect_stats:
        stats = SweepStats(
            engine=PruneStats.from_metrics(registry),
            elapsed=perf_counter() - t_start,
            workers=1,
            num_evaluated=n,
            num_feasible=num_feasible,
            retries=0,
            skipped=(),
            resumed_chunks=0,
            truncated=False,
        )
    best_strategy, best = (top[0][0], top[0][1]) if top else (None, None)
    return SearchResult(
        best=best,
        best_strategy=best_strategy,
        top=top,
        num_evaluated=n,
        num_feasible=num_feasible,
        sample_rates=rates,
        stats=stats,
        truncated=False,
    )


def search(
    llm: LLMConfig,
    system: System,
    batch: int,
    options: SearchOptions | None = None,
    *,
    top_k: int = 10,
    workers: int | None = None,
    keep_rates: bool = True,
    constraint=None,
    bound_prune: bool = True,
    prune_seed: int = 0,
    columnar: bool | None = None,
    surrogate: bool = True,
    tracer: Tracer | None = None,
    collect_stats: bool = False,
    progress: ProgressReporter | None = None,
    events: EventJournal | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    deadline: float | None = None,
    retry_policy: RetryPolicy | None = None,
    fault_injector: FaultInjector | None = None,
) -> SearchResult:
    """Exhaustively search the execution space; return the best performer.

    Args:
        llm, system, batch: the fixed problem.
        options: sweep restrictions; defaults to the full Table-1 space.
        top_k: how many best configurations to retain; 0 keeps only the
            counts and ``sample_rates`` (negative raises ``ValueError``).
        workers: process count; 0/1 forces serial.  ``None`` runs serially
            whenever the pure-columnar path applies (see ``columnar``) and
            otherwise, on the scalar path, applies :func:`auto_workers`
            (serial below ~2k candidates per core; the measured reason for
            the split is documented there).
        keep_rates: retain every feasible sample rate (Fig. 6 histograms).
        constraint: optional predicate on feasible results — return False to
            reject a configuration (e.g. a memory or MFU floor).  Must be a
            picklable (module-level) callable when ``workers > 1``.
        bound_prune: let the engine skip the comm/timing stages for
            candidates whose roofline lower bound proves they cannot enter
            the top-k (see :mod:`repro.engine.bounds`).  The retained top-k
            is bit-identical to an unpruned run.  Only engages when the
            search needs nothing but the top-k — ``keep_rates=False``, no
            ``constraint`` — because pruned candidates carry no sample rate
            for histograms and no breakdown for a predicate to inspect.
            ``num_feasible`` still counts pruned candidates (the comm and
            assembly stages never reject).
        prune_seed: seed the prune threshold before the main pass.  On the
            scalar chunked path (``workers > 1``, ``columnar=False``,
            ``events``, a checkpoint or another fault-tolerance feature)
            this many evenly-strided candidates are evaluated serially first
            and the k-th best rate found seeds every chunk's ceiling (with
            seeding the top-k *rates* are unchanged, but a different member
            of an exact k-th-rate tie may be retained).  On the pure-columnar
            adaptive path it sizes the surrogate-picked tile-0 seed sample
            instead (0 keeps the default size, negative disables seeding)
            and the result stays fully bit-identical — seeding only reorders
            evaluation.
        columnar: route evaluation through the vectorized columnar engine
            (:mod:`repro.engine.batch`).  ``None`` (the default) engages it
            whenever it applies; ``False`` forces the scalar pipeline
            everywhere.  A search with ``workers`` ``None``, 0 or 1, no
            ``constraint`` and no fault-tolerance features runs
            *pure*-columnar: candidates are enumerated straight into NumPy
            columns and the whole space is evaluated as one struct-of-arrays
            batch, materializing only the top-k winners.  With
            ``bound_prune`` and ``keep_rates=False`` that batch runs the
            adaptive best-bound-first tiled path — buckets visited in
            roofline-bound order, a strict self-tightening threshold
            skipping hopeless buckets — which is where the engine's pruning
            pays off most (see :func:`_search_columnar`).  Explicit
            multi-worker (``workers > 1``) and supervised searches keep
            their chunked dispatch, with each chunk evaluated columnar
            inside :func:`~repro.engine.iter_evaluate`.  Results are
            bit-identical either way.
        surrogate: let the adaptive columnar path seed tile 0 from the
            online learned ranking persisted in the surrogate store (see
            :mod:`repro.search.surrogate`).  Speed-only — top-k identical
            on or off; ``--no-surrogate`` maps here.
        tracer: records enumeration/chunk/stage spans (worker events merge
            onto the parent timeline; CLOCK_MONOTONIC is machine-wide).
        collect_stats: attach a :class:`~repro.obs.SweepStats` (per-stage
            rejection counts, dedup hit rates, candidates/sec) to the
            result, aggregated across worker chunks.
        progress: fed one update per finished chunk (its total is set to
            the candidate count once enumeration finishes).
        events: a :class:`~repro.obs.EventJournal` flight recorder; the
            search emits ``search.start``/``search.done`` plus the full
            chunk lifecycle (dispatch, done, retry, timeout, fallback,
            skip, resume, truncation).  Supplying a journal engages the
            supervised chunked dispatch path — the layer where the
            lifecycle exists — so a journaled serial search is chunked
            like a checkpointed one.
        checkpoint: path of a JSONL checkpoint journal; every completed
            chunk is journaled so an interrupted sweep can be resumed.
        resume: reload ``checkpoint`` and skip already-journaled chunks
            (bit-identical to an uninterrupted run); raises
            :class:`~repro.search.checkpoint.CheckpointMismatch` when the
            journal belongs to a different problem.
        deadline: wall-clock budget in seconds (measured from this call).
            Enumeration stops cleanly at a chunk boundary once it passes
            and the partial result is flagged ``truncated=True``.
        retry_policy: per-chunk timeout / bounded-retry / backoff policy
            (see :class:`~repro.search.faults.RetryPolicy`).  A chunk that
            fails every pool retry is re-run serially; if it still fails
            its range is recorded in ``stats.skipped`` instead of aborting.
        fault_injector: deterministic test hook that makes one chunk raise,
            hang or crash (see :class:`~repro.search.faults.FaultInjector`).

    ``events`` or any of the last five arguments engages the supervised
    dispatch path (and forces chunked evaluation); without them the fast
    legacy dispatch is used and behavior is unchanged.
    """
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")
    t_start = perf_counter()
    instrument = collect_stats or tracer is not None
    fault_mode = (
        events is not None
        or checkpoint is not None
        or deadline is not None
        or retry_policy is not None
        or fault_injector is not None
    )
    # Pure-columnar dispatch: a serial, unsupervised, unconstrained search
    # never needs per-candidate scalar results, so enumerate straight into
    # NumPy columns and evaluate the whole space as one vectorized batch.
    # workers=None counts as serial here: the pool would first have to
    # enumerate and pickle scalar strategies, which alone outlasts the whole
    # columnar search (see auto_workers).  ImportError (NumPy below the
    # columnar floor) and unencodable option spaces fall back to the scalar
    # enumeration below.
    engine_batch = search_columns = None
    serial = workers is None or workers <= 1
    if serial and columnar is not False and constraint is None and not fault_mode:
        try:
            from ..engine import batch as engine_batch
            from . import columns as search_columns
        except ImportError:
            engine_batch = search_columns = None
    t0 = perf_counter()
    cols = None
    if search_columns is not None:
        cols = search_columns.candidate_columns(
            llm, system, batch, options or SearchOptions()
        )
    if cols is not None:
        if tracer is not None:
            tracer.add_span("enumerate", "search", t0, perf_counter() - t0,
                            candidates=int(cols["t"].shape[0]))
        return _search_columnar(
            llm, system, batch, cols, engine_batch,
            top_k=top_k, keep_rates=keep_rates, instrument=instrument,
            collect_stats=collect_stats, tracer=tracer,
            progress=progress, t_start=t_start,
            options=options, bound_prune=bound_prune,
            prune_seed=prune_seed, surrogate=surrogate,
        )
    strategies = list(candidate_strategies(llm, system, batch, options))
    if tracer is not None:
        tracer.add_span("enumerate", "search", t0, perf_counter() - t0,
                        candidates=len(strategies))
    if progress is not None:
        progress.set_total(len(strategies))
    if workers is None:
        workers = auto_workers(len(strategies))
    # Bound pruning engages only when the caller needs nothing beyond the
    # top-k ranking (see the docstring); the flag rides into every chunk.
    do_prune = bool(
        bound_prune and constraint is None and not keep_rates and top_k > 0
    )
    seed_floor = 0.0
    if do_prune and prune_seed > 0 and len(strategies) > 0:
        stride = max(1, len(strategies) // prune_seed)
        sample = strategies[::stride][:prune_seed]
        sample_rates = sorted(
            (r.sample_rate for r in evaluate_many(llm, system, sample)
             if r.feasible),
            reverse=True,
        )
        if len(sample_rates) >= top_k:
            seed_floor = sample_rates[top_k - 1]
    # Instrumented, progress-reporting or fault-supervised serial runs are
    # chunked too — checkpoints, deadlines and retries all operate at chunk
    # granularity; a plain serial run stays single-chunk (identical behavior
    # to the fast path).
    chunked = workers > 1 or ((instrument or progress is not None or fault_mode)
                              and len(strategies) > 1)
    step = max(len(strategies), 1)
    if chunked:
        step = math.ceil(len(strategies) / (max(workers, 1) * 4))

    journal = None
    if checkpoint is not None:
        key = run_key(
            llm, system, batch, options or SearchOptions(), kind="search",
            extra={
                "top_k": top_k,
                "keep_rates": keep_rates,
                "constraint": getattr(constraint, "__qualname__", str(constraint))
                if constraint is not None else None,
                # prune_seed can change which member of an exact rate tie is
                # retained, so a seeded journal never mixes with an unseeded
                # resume; seedless pruning is bit-identical and needs no key.
                "prune_seed": int(prune_seed) if do_prune else 0,
            },
        )
        journal = CheckpointJournal.open(
            checkpoint, key, resume=resume, events=events,
            meta={
                "step": step,
                "num_candidates": len(strategies),
                "trace_id": tracer.trace_id if tracer is not None else None,
            },
        )
        # The journal's chunk layout wins: resuming with a different worker
        # count must slice the space exactly as the original run did.
        step = int(journal.meta.get("step", step)) or step
        # So does its trace identity: a resumed run continues the original
        # trace, letting the stitched Chrome trace span both invocations.
        if tracer is not None and journal.meta.get("trace_id"):
            tracer.trace_id = str(journal.meta["trace_id"])

    chunks: list[list[ExecutionStrategy]] = [strategies]
    if chunked:
        chunks = [strategies[i : i + step] for i in range(0, len(strategies), step)]
    logger.debug(
        "search: %d candidates, %d workers, %d chunks (instrumented=%s, "
        "supervised=%s)",
        len(strategies), workers, len(chunks), instrument, fault_mode,
    )

    trace_id = tracer.trace_id if tracer is not None else None
    args = [
        (llm, system, c, top_k, constraint, instrument, n, fault_injector,
         do_prune, seed_floor, columnar, trace_id)
        for n, c in enumerate(chunks)
    ]
    truncated = False
    retries = 0
    resumed = 0
    skipped_ranges: tuple[tuple[int, int], ...] = ()
    results: list[tuple[int, int, list, list, dict | None, list | None]]
    if events is not None:
        events.emit(
            "search.start", candidates=len(strategies),
            workers=max(workers, 1), chunks=len(chunks), trace_id=trace_id,
        )
    if fault_mode:
        chunk_results: dict[int, tuple] = {}
        tasks: dict[int, tuple] = {}
        for n, a in enumerate(args):
            if journal is not None and str(n) in journal:
                chunk_results[n] = _chunk_from_payload(llm, system, journal.get(str(n)))
                resumed += 1
                if events is not None:
                    events.emit("chunk.resumed", chunk=n)
            else:
                tasks[n] = a
        if progress is not None:
            for n in sorted(chunk_results):
                progress.update(chunk_results[n][0], chunk_results[n][1])

        def _on_chunk(n: int, r: tuple) -> None:
            chunk_results[n] = r
            if journal is not None:
                journal.record(str(n), _chunk_payload(r, keep_rates))
            if progress is not None:
                progress.update(r[0], r[1])

        report = run_supervised(
            _evaluate_chunk,
            tasks,
            workers=max(workers, 1),
            policy=retry_policy,
            deadline=t_start + deadline if deadline is not None else None,
            on_result=_on_chunk,
            events=events,
            tracer=tracer,
        )
        truncated = report.truncated
        retries = report.retries
        skipped_ranges = tuple(
            (n * step, min((n + 1) * step, len(strategies)))
            for n in report.skipped
        )
        results = [chunk_results[n] for n in sorted(chunk_results)]
    elif workers > 1 and len(chunks) > 1:
        results = [None] * len(chunks)  # type: ignore[list-item]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = {pool.submit(_evaluate_chunk, a): n for n, a in enumerate(args)}
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    n = pending.pop(future)
                    results[n] = future.result()
                    if progress is not None:
                        progress.update(results[n][0], results[n][1])
    else:
        # Serial chunked dispatch runs chunks in sequence, so the prune
        # threshold can gossip forward: the running k-th-best rate across
        # completed chunks seeds the next chunk's ceiling.  Lossless for
        # the merged top-k — the merge keeps earlier chunks' members of an
        # exact k-th-rate tie, which is precisely what the earlier-chunk
        # floor prunes from later chunks.
        results = []
        gossip_heap: list[float] = []
        floor = seed_floor
        for a in args:
            if do_prune and floor > a[9]:
                a = a[:9] + (floor,) + a[10:]
            r = _evaluate_chunk(a)
            results.append(r)
            if progress is not None:
                progress.update(r[0], r[1])
            if do_prune and top_k > 0:
                for _strat, res in r[2]:
                    rate = res.sample_rate
                    if not math.isfinite(rate):
                        continue
                    if len(gossip_heap) < top_k:
                        heapq.heappush(gossip_heap, rate)
                    elif rate > gossip_heap[0]:
                        heapq.heapreplace(gossip_heap, rate)
                if len(gossip_heap) == top_k and gossip_heap[0] > floor:
                    floor = gossip_heap[0]
    if progress is not None:
        progress.finish()

    num_eval = sum(r[0] for r in results)
    num_feasible = sum(r[1] for r in results)
    merged = [sr for r in results for sr in r[2]]
    merged.sort(key=lambda sr: -sr[1].sample_rate)
    merged = merged[:top_k]
    rates = (
        np.concatenate([np.asarray(r[3], dtype=float) for r in results])
        if keep_rates and any(r[3] for r in results)
        else np.empty(0)
    )
    best_strategy, best = (merged[0][0], merged[0][1]) if merged else (None, None)

    stats = None
    if tracer is not None:
        for r in results:
            if r[5]:
                tracer.add_events(r[5])
    if collect_stats or fault_mode:
        registry = MetricsRegistry.from_snapshots(
            r[4] for r in results if r[4] is not None
        )
        stats = SweepStats(
            engine=PruneStats.from_metrics(registry),
            elapsed=perf_counter() - t_start,
            workers=max(workers, 1),
            num_evaluated=num_eval,
            num_feasible=num_feasible,
            retries=retries,
            skipped=skipped_ranges,
            resumed_chunks=resumed,
            truncated=truncated,
        )
    if events is not None:
        events.emit(
            "search.done", seconds=perf_counter() - t_start,
            evaluated=num_eval, feasible=num_feasible, retries=retries,
            resumed=resumed, truncated=truncated,
        )
    return SearchResult(
        best=best,
        best_strategy=best_strategy,
        top=merged,
        num_evaluated=num_eval,
        num_feasible=num_feasible,
        sample_rates=rates,
        stats=stats,
        truncated=truncated,
    )

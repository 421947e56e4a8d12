"""Optimal execution search engine (paper §5.1).

Exhaustively enumerates execution configurations for a given LLM, system and
global batch size, evaluates each with the analytical model, and returns the
best performer (by sample rate) plus distribution statistics.  The
enumeration covers the full Table-1 space; :class:`SearchOptions` restricts
any dimension for scoped studies (e.g. Fig. 5's "original optimizations").

The space is enumerated straight into NumPy columns
(:func:`~repro.search.columns.candidate_columns`) and every candidate is
priced as a row of the columnar engine (:mod:`repro.engine.batch`).  One
row-range evaluator, :func:`evaluate_rows`, serves every chunk of the
search (one chunk serially, several on a pool or under a checkpoint) and
of the fabric; only
the handful of winners are ever materialized as
:class:`~repro.execution.strategy.ExecutionStrategy` objects.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from ..core.results import PerformanceResult
from ..engine import batch as engine_batch
from ..engine import comm_cache_stats, evaluate
from ..engine.batch import RECOMPUTE_NAMES, TP_OVERLAP_NAMES
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
    STAGE_NAMES,
    stage_metric,
)
from .checkpoint import run_key
from .columns import candidate_columns
from .faults import ChunkRun, FaultInjector, RetryPolicy, run_chunks


@dataclass(frozen=True)
class SearchOptions:
    """Which execution dimensions to sweep (paper Table 1 "range" column).

    Each tuple lists the values tried for that dimension; fixing a dimension
    to a single value removes it from the sweep.  ``seq_par_modes`` entries
    are ``(seq_par, tp_redo_sp, pp_rs_ag)`` triples, keeping the dependent
    flags consistent by construction.  ``recompute`` and ``tp_overlap``
    entries must name modes the engine knows, no dimension tuple may be
    empty, ``max_tensor_par``/``max_microbatch`` must be positive and
    interleaving values at least 1; anything else raises ``ValueError``
    instead of silently producing an empty or all-infeasible space.
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

    def __post_init__(self) -> None:
        for name in ("recompute", "seq_par_modes", "tp_overlap", "dp_overlap",
                     "optimizer_sharding", "fused_activations", "pp_1f1b",
                     "offload_modes", "interleaving_values"):
            values = getattr(self, name)
            if values is not None and len(values) == 0:
                raise ValueError(f"{name} must not be empty")
        for name, known in (("recompute", RECOMPUTE_NAMES),
                            ("tp_overlap", TP_OVERLAP_NAMES)):
            for value in getattr(self, name):
                if value not in known:
                    raise ValueError(
                        f"unknown {name} mode {value!r}; "
                        f"expected one of {', '.join(known)}"
                    )
        for name in ("max_tensor_par", "max_microbatch"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for value in self.interleaving_values or ():
            if value < 1:
                raise ValueError(
                    f"interleaving_values entries must be >= 1, got {value}"
                )

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
    or with a fault-tolerance argument (``checkpoint``, ``deadline``,
    ``retry_policy``, ``fault_injector``): a
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
    everything else is left to the model's feasibility check.  The search
    itself enumerates :func:`~repro.search.columns.candidate_columns`, the
    columnar twin of this generator; this one stays as its readable oracle.
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
        # Adaptive tiled pass: one synthetic span carrying the tile/skip
        # counters, so traces show how hard the threshold bit.
        tracer.add_span(
            "adaptive", "engine.stage", start, elapsed, aggregate=True,
            bound_tiles=tiles,
            bound_skipped_buckets=int(registry.value(M_BOUND_SKIPPED_BUCKETS)),
        )


def evaluate_rows(
    llm: LLMConfig,
    system: System,
    rows: dict[str, np.ndarray],
    *,
    offset: int = 0,
    top_k: int,
    keep_rates: bool = False,
    constraint=None,
    bound_prune: bool = True,
    floor_rate: float = 0.0,
    metrics: MetricsRegistry | None = None,
) -> tuple[
    int, int, list[tuple[float, int, ExecutionStrategy, PerformanceResult]],
    np.ndarray | None,
]:
    """Evaluate one row range of the candidate columns as a columnar batch.

    ``rows`` holds the candidate columns of the range (a slice of
    :func:`~repro.search.columns.candidate_columns`) and ``offset`` the
    global index of its first row.  Returns ``(n, feasible, top, rates)``:

    * ``feasible`` counts memory-feasible candidates — bound-pruned ones
      included, since the comm and assembly stages never reject — or, with
      a ``constraint``, the survivors the predicate accepts;
    * ``top`` holds at most ``top_k`` ``(rate, global_index, strategy,
      result)`` entries, best first by ``(-rate, global_index)``.  Ties at
      the k-th rate keep the earliest candidates in the batch's *stream*
      order (profile group, then input row); only these winners are
      materialized, the strategy via
      :meth:`~repro.engine.batch.EvalBatch.strategy_at` and the
      :class:`~repro.core.results.PerformanceResult` from the survivor
      columns (:func:`~repro.engine.batch.survivor_results`);
    * ``rates`` is the surviving rate column in stream order when
      ``keep_rates`` is set, else ``None``.

    When only the top-k is needed (``bound_prune``, ``top_k > 0``, no
    ``keep_rates``, no ``constraint``) the batch runs the adaptive
    best-bound-first tiled path, seeded with ``floor_rate`` (e.g. the
    k-th-best rate of chunks already merged); otherwise it runs untiled and
    prices every feasible candidate.  Tiling and the floor affect speed
    only: a skipped candidate is provably strictly below the final k-th
    rate.  A ``constraint`` sees each survivor's
    :class:`~repro.core.results.PerformanceResult` and filters it before
    retention.
    """
    eb = engine_batch.EvalBatch.from_columns(llm, system, rows)
    plan = None
    if bound_prune and top_k > 0 and not keep_rates and constraint is None:
        plan = engine_batch.AdaptivePlan(top_k=top_k, floor_rate=floor_rate)
    if metrics is not None:
        cc0 = comm_cache_stats()
    try:
        engine_batch.run_batch(eb, metrics=metrics, adaptive=plan)
    finally:
        if metrics is not None:
            cc1 = comm_cache_stats()
            metrics.inc(M_COMM_CACHE_HITS, cc1[0] - cc0[0])
            metrics.inc(M_COMM_CACHE_MISSES, cc1[1] - cc0[1])
    feasible = eb.n_s + eb.n_pruned
    pos = np.arange(eb.n_s)
    if constraint is not None and eb.n_s:
        passed = np.fromiter(
            (bool(constraint(res)) for res in engine_batch.survivor_results(eb)),
            dtype=bool, count=eb.n_s,
        )
        pos = pos[passed]
        feasible = int(pos.shape[0])
    row, rate = eb.inp_s[pos], eb.rate_s[pos]
    # Survivors are in input order, so stream order is a stable sort by
    # profile group.
    order = (engine_batch.group_order(eb.gid_s[pos], eb.n_groups)
             if pos.size else pos)
    top: list[tuple[float, int, ExecutionStrategy, PerformanceResult]] = []
    if top_k > 0 and row.size:
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0])
        keep = _best_positions(rate, rank, top_k)
        keep = keep[np.lexsort((row[keep], -rate[keep]))]
        results = engine_batch.survivor_results(eb, pos[keep])
        top = [
            (float(rate[i]), offset + int(row[i]), eb.strategy_at(int(row[i])),
             res)
            for i, res in zip(keep.tolist(), results)
        ]
    rates = rate[order] if keep_rates else None
    return eb.n, int(feasible), top, rates


def _best_positions(rate: np.ndarray, rank: np.ndarray, k: int) -> np.ndarray:
    """``np.lexsort((rank, -rate))[:k]``, sorting only the contenders.

    The ``k`` best entries by ``(-rate, rank)`` all have a rate at or above
    the k-th best rate, so only those entries are sorted; the positions and
    their order are the full sort's.  (A NaN k-th rate, which the engine
    never produces, falls back to the full sort.)
    """
    neg = -rate
    if neg.shape[0] > k:
        kth = np.partition(neg, k - 1)[k - 1]
        if not np.isnan(kth):
            contenders = np.flatnonzero(neg <= kth)
            order = np.lexsort((rank[contenders], neg[contenders]))
            return contenders[order[:k]]
    return np.lexsort((rank, neg))[:k]


def _evaluate_chunk(
    args: tuple[
        LLMConfig, System, dict, int, int, bool, object, bool, float, bool,
        int, FaultInjector | None, str | None,
    ]
) -> tuple[
    int,
    int,
    np.ndarray | None,
    list[tuple[float, int, ExecutionStrategy, PerformanceResult | None]],
    dict | None,
    list[dict] | None,
]:
    """One chunk of a search: :func:`evaluate_rows` plus instrumentation.

    Returns ``(n, feasible, rates, top, snapshot, events)`` — the shape
    :func:`~repro.search.faults.run_chunks` expects; the metrics snapshot
    and ``chunk[i]`` trace spans are ``None`` unless ``instrument`` is set.
    Module-level so process pools can pickle it; ``rows`` is the chunk's
    slice of the candidate columns.
    """
    (llm, system, rows, offset, top_k, keep_rates, constraint, bound_prune,
     floor_rate, instrument, chunk_index, injector, trace_id) = args
    if injector is not None:
        injector.fire(chunk_index)
    registry = MetricsRegistry() if instrument else None
    start = perf_counter()
    n, feasible, top, rates = evaluate_rows(
        llm, system, rows, offset=offset, top_k=top_k, keep_rates=keep_rates,
        constraint=constraint, bound_prune=bound_prune, floor_rate=floor_rate,
        metrics=registry,
    )
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
            tracer, chunk_index, registry, start, elapsed, n, feasible,
        )
        snapshot = registry.snapshot()
        events = tracer.events()
    return n, feasible, rates, top, snapshot, events


def _chunk_task(
    llm: LLMConfig,
    system: System,
    cols: engine_batch.ProductColumns,
    index: int,
    lo: int,
    hi: int,
    top_k: int,
    *,
    keep_rates: bool = False,
    constraint=None,
    bound_prune: bool = True,
    floor_rate: float = 0.0,
    instrument: bool = False,
    injector: FaultInjector | None = None,
    trace_id: str | None = None,
) -> tuple:
    """The :func:`_evaluate_chunk` argument for chunk ``index``, rows ``[lo, hi)``.

    ``cols`` holds the whole space's candidate columns
    (:func:`~repro.search.columns.candidate_columns`); the chunk carries
    only its slice, product form included.  ``search()``, fabric workers
    and the fabric's serial fallback all build their chunks here.
    """
    rows = cols.rows(lo, hi)
    return (llm, system, rows, lo, top_k, keep_rates, constraint, bound_prune,
            floor_rate, instrument, index, injector, trace_id)


def _chunk_payload(result: tuple) -> dict:
    """A chunk result as a JSON-safe record: the checkpoint journal's and
    the fabric wire's one chunk encoding.

    Top-k entries store the rate, global index and strategy, not the full
    :class:`PerformanceResult` — a decoded winner is re-priced through the
    deterministic engine, keeping the record small and schema-stable.
    """
    n, feasible, rates, top, snapshot, _events = result
    return {
        "n": n,
        "feasible": feasible,
        "top": [[rate, gidx, strat.to_dict()] for rate, gidx, strat, _res in top],
        "rates": rates.tolist() if rates is not None else None,
        "snapshot": snapshot,
    }


def _chunk_from_payload(payload: dict) -> tuple:
    """Reconstruct a chunk result tuple from its record.

    Records journaled before ``rates`` existed decode with ``rates=None``;
    top-k entries decode without their result (``None``).
    """
    rates = payload.get("rates")
    return (
        int(payload["n"]),
        int(payload["feasible"]),
        np.asarray(rates, dtype=float) if rates is not None else None,
        [
            (float(rate), int(gidx), ExecutionStrategy.from_dict(strat), None)
            for rate, gidx, strat in payload["top"]
        ],
        payload.get("snapshot"),
        None,
    )


def _search_result(
    llm: LLMConfig,
    system: System,
    run: ChunkRun,
    *,
    started: float,
    with_stats: bool,
    truncated: bool,
) -> SearchResult:
    """Assemble a :class:`SearchResult` from a chunked sweep's record.

    Counts and ``sample_rates`` are summed over ``run.results`` in chunk
    order and, with ``with_stats``, a :class:`~repro.obs.SweepStats`
    merges the chunks' metric snapshots.  The ``run.top`` winners keep the
    :class:`PerformanceResult` their chunk built from its survivor columns
    (bit-identical to :func:`~repro.engine.evaluate`'s); only winners
    decoded from a checkpoint journal or the fabric wire, which arrive
    without one, are priced through ``evaluate()``.
    ``truncated`` is the caller's meaning of a partial answer: a deadline
    for ``search()``, skipped chunks for the fabric.
    """
    results = run.results
    num_eval = sum(r[0] for r in results)
    num_feasible = sum(r[1] for r in results)
    top = [
        (strat, res if res is not None else evaluate(llm, system, strat))
        for _, _, strat, res in run.top
    ]
    rates = np.concatenate(
        [np.empty(0)] + [r[2] for r in results if r[2] is not None]
    )
    best_strategy, best = top[0] if top else (None, None)
    stats = None
    if with_stats:
        registry = MetricsRegistry.from_snapshots(
            r[4] for r in results if r[4] is not None
        )
        stats = SweepStats(
            engine=PruneStats.from_metrics(registry),
            elapsed=perf_counter() - started,
            workers=run.workers,
            num_evaluated=num_eval,
            num_feasible=num_feasible,
            retries=run.retries,
            skipped=run.skipped,
            resumed_chunks=run.resumed,
            truncated=run.truncated,
        )
    return SearchResult(
        best=best,
        best_strategy=best_strategy,
        top=top,
        num_evaluated=num_eval,
        num_feasible=num_feasible,
        sample_rates=rates,
        stats=stats,
        truncated=truncated,
    )


def search(
    llm: LLMConfig,
    system: System,
    batch: int,
    options: SearchOptions | None = None,
    *,
    top_k: int = 10,
    workers: int | None = None,
    keep_rates: bool = False,
    constraint=None,
    bound_prune: bool = True,
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

    The space is enumerated as NumPy columns and evaluated as row ranges of
    the columnar engine (see :func:`evaluate_rows`); the result's ``top``
    is ranked by ``(-rate, enumeration index)``, and each winner's
    :class:`PerformanceResult` is built from the survivor columns,
    bit-identical to the scalar :func:`~repro.engine.evaluate`'s (a
    winner restored from a checkpoint journal is priced by ``evaluate()``).

    Args:
        llm, system, batch: the fixed problem.
        options: sweep restrictions; defaults to the full Table-1 space.
        top_k: how many best configurations to retain; 0 keeps only the
            counts and ``sample_rates`` (negative raises ``ValueError``).
        workers: process count; ``None``, 0 and 1 run serially.  With more
            than one worker the space is split into ``4 * workers`` row
            ranges, each shipped to a process pool as a slice of the
            columns.
        keep_rates: retain every feasible sample rate in ``sample_rates``
            (Fig. 6 histograms), in the evaluation stream order of each
            chunk.  Off by default: the histogram prices every feasible
            candidate, which turns bound pruning off.
        constraint: optional predicate on feasible results — return False to
            reject a configuration (e.g. a memory or MFU floor).  Must be a
            picklable (module-level) callable when ``workers > 1``.
        bound_prune: let the engine skip the comm/timing stages for
            candidates whose roofline lower bound proves they cannot enter
            the top-k (the adaptive best-bound-first path of
            :mod:`repro.engine.batch`).  The retained top-k is bit-identical
            to an unpruned run.  Only engages when the search needs nothing
            but the top-k — ``keep_rates=False``, no ``constraint`` —
            because pruned candidates carry no sample rate for histograms
            and no breakdown for a predicate to inspect.  ``num_feasible``
            still counts pruned candidates (the comm and assembly stages
            never reject).
        tracer: records the enumeration span and one ``chunk[i]`` span per
            chunk with per-stage children (worker events merge onto the
            parent timeline; CLOCK_MONOTONIC is machine-wide).
        collect_stats: attach a :class:`~repro.obs.SweepStats` (per-stage
            rejection counts, dedup hit rates, candidates/sec) to the
            result, aggregated across chunks.
        progress: fed one update per finished chunk (its total is set to
            the candidate count once enumeration finishes).
        events: a :class:`~repro.obs.EventJournal` flight recorder; the
            search emits ``search.start``/``search.done`` plus the full
            chunk lifecycle (dispatch, done, retry, timeout, fallback,
            skip, resume, truncation).
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

    Chunks run through :func:`~repro.search.faults.run_chunks`.  The space
    is cut into chunks only with more than one worker or a fault-tolerance
    argument (``checkpoint``, ``deadline``, ``retry_policy``,
    ``fault_injector``); ``tracer``, ``events``, ``collect_stats`` and
    ``progress`` never change the layout or the dispatch.  Without a
    fault-tolerance argument a failing chunk re-raises its exception at
    any worker count.  Chunk tops merge on the ``(-rate, global index)``
    total order, exactly like the fabric; on an exact rate tie at the k-th
    boundary a chunked search may therefore keep a different tied
    candidate than the one-range search, which prefers the earlier one in
    stream order.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")
    t_start = perf_counter()
    instrument = collect_stats or tracer is not None
    opts = options or SearchOptions()
    t0 = perf_counter()
    cols = candidate_columns(llm, system, batch, opts)
    total = int(cols["t"].shape[0])
    if tracer is not None:
        tracer.add_span("enumerate", "search", t0, perf_counter() - t0,
                        candidates=total)
    # Pruning engages only when the caller needs nothing beyond the top-k
    # ranking (see the docstring); the flag rides into every chunk.
    do_prune = bool(
        bound_prune and constraint is None and not keep_rates and top_k > 0
    )
    key = None
    if checkpoint is not None:
        key = run_key(
            llm, system, batch, opts, kind="search",
            extra={
                "top_k": top_k,
                "keep_rates": keep_rates,
                "constraint": getattr(constraint, "__qualname__", str(constraint))
                if constraint is not None else None,
            },
        )

    def task(n: int, lo: int, hi: int, trace_id: str | None) -> tuple:
        return _chunk_task(
            llm, system, cols, n, lo, hi, top_k, keep_rates=keep_rates,
            constraint=constraint, bound_prune=do_prune,
            instrument=instrument, injector=fault_injector, trace_id=trace_id,
        )

    run = run_chunks(
        _evaluate_chunk, task, total, top_k=top_k, workers=workers,
        name="search", start_fields={"candidates": total}, started=t_start,
        tracer=tracer, events=events, progress=progress,
        checkpoint=checkpoint, key=key, resume=resume,
        encode=_chunk_payload, decode=_chunk_from_payload,
        deadline=deadline, retry_policy=retry_policy,
        fault_injector=fault_injector,
    )
    result = _search_result(
        llm, system, run, started=t_start,
        with_stats=collect_stats or run.tolerant, truncated=run.truncated,
    )
    if events is not None:
        events.emit(
            "search.done", seconds=perf_counter() - t_start,
            evaluated=result.num_evaluated, feasible=result.num_feasible,
            retries=run.retries, resumed=run.resumed, truncated=run.truncated,
        )
    return result

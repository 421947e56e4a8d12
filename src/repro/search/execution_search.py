"""Optimal execution search engine (paper §5.1).

Exhaustively enumerates execution configurations for a given LLM, system and
global batch size, evaluates each with the analytical model, and returns the
best performer (by sample rate) plus distribution statistics.  The
enumeration covers the full Table-1 space; :class:`SearchOptions` restricts
any dimension for scoped studies (e.g. Fig. 5's "original optimizations").

The space is enumerated straight into NumPy columns
(:func:`~repro.search.columns.candidate_columns`) and every candidate is
priced as a row of the columnar engine (:mod:`repro.engine.batch`).  One
row-range evaluator, :func:`evaluate_rows`, serves the serial search, the
chunked (multi-worker, checkpointed, journaled) search and the fabric; only
the handful of winners are ever materialized as
:class:`~repro.execution.strategy.ExecutionStrategy` objects.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
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
from .checkpoint import CheckpointJournal, run_key
from .columns import candidate_columns
from .faults import FaultInjector, RetryPolicy, run_supervised

logger = logging.getLogger(__name__)

# Below this many candidates per worker, pool startup costs more than the
# evaluation itself, so the auto heuristic stays serial.  Only searches with
# a constraint or fault-tolerance features consult it — see auto_workers().
MIN_STRATEGIES_PER_WORKER = 2000


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


def auto_workers(num_strategies: int, cpu_count: int | None = None) -> int:
    """Process count for a sweep of ``num_strategies`` candidates.

    The heuristic: one worker per :data:`MIN_STRATEGIES_PER_WORKER`
    candidates, capped at the machine's core count and floored at one.
    Small sweeps therefore run serially *by design* — even on a many-core
    machine — because forking a pool costs more than evaluating a few
    thousand candidates.  Callers who know better pass ``workers``
    explicitly.

    :func:`search` consults it only for a search with a ``constraint`` or a
    fault-tolerance feature.  A plain top-k or histogram search with
    ``workers=None`` always runs serially: the whole serial columnar search
    takes 0.08-0.15 s on the paper problems (``docs/PERFORMANCE.md``),
    less than a pool takes to start.
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
) -> tuple[int, int, list[tuple[float, int, ExecutionStrategy]], np.ndarray | None]:
    """Evaluate one row range of the candidate columns as a columnar batch.

    ``rows`` holds the candidate columns of the range (a slice of
    :func:`~repro.search.columns.candidate_columns`) and ``offset`` the
    global index of its first row.  Returns ``(n, feasible, top, rates)``:

    * ``feasible`` counts memory-feasible candidates — bound-pruned ones
      included, since the comm and assembly stages never reject — or, with
      a ``constraint``, the survivors the predicate accepts;
    * ``top`` holds at most ``top_k`` ``(rate, global_index, strategy)``
      entries, best first by ``(-rate, global_index)``.  Ties at the k-th
      rate keep the earliest candidates in the batch's *stream* order
      (``np.lexsort((stream_rank, -rate))``); only these winners are
      materialized, via :meth:`~repro.engine.batch.EvalBatch.strategy_at`;
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
    row, rate = eb.inp_s, eb.rate_s
    if constraint is not None and eb.n_s:
        passed = np.fromiter(
            (bool(constraint(res)) for res in engine_batch.survivor_results(eb)),
            dtype=bool, count=eb.n_s,
        )
        row, rate = row[passed], rate[passed]
        feasible = int(row.shape[0])
    rank = eb.stream_rank[row]
    top: list[tuple[float, int, ExecutionStrategy]] = []
    if top_k > 0 and row.size:
        keep = np.lexsort((rank, -rate))[:top_k]
        keep = keep[np.lexsort((row[keep], -rate[keep]))]
        top = [
            (float(rate[i]), offset + int(row[i]), eb.strategy_at(int(row[i])))
            for i in keep.tolist()
        ]
    rates = rate[np.argsort(rank, kind="stable")] if keep_rates else None
    return eb.n, int(feasible), top, rates


def _evaluate_chunk(
    args: tuple[
        LLMConfig, System, dict, int, int, bool, object, bool, float, bool,
        int, FaultInjector | None, str | None,
    ]
) -> tuple[
    int,
    int,
    list[tuple[float, int, ExecutionStrategy]],
    np.ndarray | None,
    dict | None,
    list[dict] | None,
]:
    """One chunk of a search: :func:`evaluate_rows` plus instrumentation.

    Returns ``(n, feasible, top, rates, snapshot, events)`` — the metrics
    snapshot and ``chunk[i]`` trace spans are ``None`` unless
    ``instrument`` is set.  Module-level so process pools can pickle it;
    ``rows`` is the chunk's slice of the candidate columns.
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
    return n, feasible, top, rates, snapshot, events


def _chunk_payload(result: tuple) -> dict:
    """A chunk result as a JSON-safe journal record.

    Top-k entries store the rate, global index and strategy, not the full
    :class:`PerformanceResult` — the search re-evaluates the handful of
    winners through the deterministic engine, keeping the journal small
    and schema-stable.
    """
    n, feasible, top, rates, snapshot, _events = result
    return {
        "n": n,
        "feasible": feasible,
        "top": [[rate, gidx, strat.to_dict()] for rate, gidx, strat in top],
        "rates": rates.tolist() if rates is not None else None,
        "snapshot": snapshot,
    }


def _chunk_from_payload(payload: dict) -> tuple:
    """Reconstruct a chunk result tuple from its journal record."""
    rates = payload.get("rates")
    return (
        int(payload["n"]),
        int(payload["feasible"]),
        [
            (float(rate), int(gidx), ExecutionStrategy.from_dict(strat))
            for rate, gidx, strat in payload["top"]
        ],
        np.asarray(rates, dtype=float) if rates is not None else None,
        payload.get("snapshot"),
        None,
    )


def _merge_tops(tops, top_k: int) -> list[tuple[float, int, ExecutionStrategy]]:
    """The best ``top_k`` of several chunks' top lists, best first.

    Ranks on the ``(-rate, global index)`` total order of the fabric's
    :class:`~repro.fabric.merge.TopKMerge`, so the merged list is a pure
    function of the offered entries — chunk layout and arrival order
    cannot change it.
    """
    entries = itertools.chain.from_iterable(tops)
    return sorted(entries, key=lambda e: (-e[0], e[1]))[:top_k]


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
    is ranked by ``(-rate, enumeration index)`` and its winners are
    re-priced through the scalar :func:`~repro.engine.evaluate`, so every
    returned :class:`PerformanceResult` is the oracle's.

    Args:
        llm, system, batch: the fixed problem.
        options: sweep restrictions; defaults to the full Table-1 space.
        top_k: how many best configurations to retain; 0 keeps only the
            counts and ``sample_rates`` (negative raises ``ValueError``).
        workers: process count; 0/1 forces serial.  ``None`` runs serially,
            except that a search with a ``constraint`` or a fault-tolerance
            feature applies :func:`auto_workers`.  With more than one
            worker the space is split into ``4 * workers`` row ranges, each
            shipped to a process pool as a slice of the columns.
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
            skip, resume, truncation).  Supplying a journal engages the
            supervised chunked dispatch — the layer where the lifecycle
            exists — so a journaled serial search is chunked like a
            checkpointed one.
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
    chunked dispatch; without them, and with at most one worker, the whole
    space is evaluated as one row range.  Chunk tops merge on the
    ``(-rate, global index)`` total order (:func:`_merge_tops`), exactly
    like the fabric; on an exact rate tie at the k-th boundary a chunked
    search may therefore keep a different tied candidate than the
    one-range search, which prefers the earlier one in stream order.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
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
    opts = options or SearchOptions()
    t0 = perf_counter()
    cols = candidate_columns(llm, system, batch, opts)
    total = int(cols["t"].shape[0])
    if tracer is not None:
        tracer.add_span("enumerate", "search", t0, perf_counter() - t0,
                        candidates=total)
    if progress is not None:
        progress.set_total(total)
    if workers is None:
        workers = (
            auto_workers(total) if constraint is not None or fault_mode else 1
        )
    # Pruning engages only when the caller needs nothing beyond the top-k
    # ranking (see the docstring); the flag rides into every chunk.
    do_prune = bool(
        bound_prune and constraint is None and not keep_rates and top_k > 0
    )
    # Multi-worker and supervised runs are chunked — checkpoints, deadlines
    # and retries all operate at chunk granularity; everything else is one
    # row range over the whole space.
    step = max(total, 1)
    if (workers > 1 or fault_mode) and total > 1:
        step = math.ceil(total / (max(workers, 1) * 4))

    journal = None
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
        journal = CheckpointJournal.open(
            checkpoint, key, resume=resume, events=events,
            meta={
                "step": step,
                "num_candidates": total,
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

    starts = range(0, total, step) if total else [0]
    trace_id = tracer.trace_id if tracer is not None else None

    def chunk_args(n: int) -> tuple:
        lo = starts[n]
        rows = {name: arr[lo:lo + step] for name, arr in cols.items()}
        return (llm, system, rows, lo, top_k, keep_rates, constraint,
                do_prune, 0.0, instrument, n, fault_injector, trace_id)

    logger.debug(
        "search: %d candidates, %d workers, %d chunks (instrumented=%s, "
        "supervised=%s)",
        total, workers, len(starts), instrument, fault_mode,
    )
    truncated = False
    retries = 0
    resumed = 0
    skipped_ranges: tuple[tuple[int, int], ...] = ()
    results: list[tuple]
    if events is not None:
        events.emit(
            "search.start", candidates=total,
            workers=max(workers, 1), chunks=len(starts), trace_id=trace_id,
        )
    if fault_mode:
        chunk_results: dict[int, tuple] = {}
        tasks: dict[int, tuple] = {}
        for n in range(len(starts)):
            if journal is not None and str(n) in journal:
                chunk_results[n] = _chunk_from_payload(journal.get(str(n)))
                resumed += 1
                if events is not None:
                    events.emit("chunk.resumed", chunk=n)
            else:
                tasks[n] = chunk_args(n)
        if progress is not None:
            for n in sorted(chunk_results):
                progress.update(chunk_results[n][0], chunk_results[n][1])

        def _on_chunk(n: int, r: tuple) -> None:
            chunk_results[n] = r
            if journal is not None:
                journal.record(str(n), _chunk_payload(r))
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
            (n * step, min((n + 1) * step, total)) for n in report.skipped
        )
        results = [chunk_results[n] for n in sorted(chunk_results)]
    elif workers > 1 and len(starts) > 1:
        results = [None] * len(starts)  # type: ignore[list-item]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = {
                pool.submit(_evaluate_chunk, chunk_args(n)): n
                for n in range(len(starts))
            }
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    n = pending.pop(future)
                    results[n] = future.result()
                    if progress is not None:
                        progress.update(results[n][0], results[n][1])
    else:
        # Unchunked: the whole space is one row range (step == max(total, 1)).
        r = _evaluate_chunk(chunk_args(0))
        results = [r]
        if progress is not None:
            progress.update(r[0], r[1])
    if progress is not None:
        progress.finish()

    num_eval = sum(r[0] for r in results)
    num_feasible = sum(r[1] for r in results)
    top = [
        (strat, evaluate(llm, system, strat))
        for _, _, strat in _merge_tops((r[2] for r in results), top_k)
    ]
    rates = np.concatenate(
        [np.empty(0)] + [r[3] for r in results if r[3] is not None]
    )
    best_strategy, best = top[0] if top else (None, None)

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
        top=top,
        num_evaluated=num_eval,
        num_feasible=num_feasible,
        sample_rates=rates,
        stats=stats,
        truncated=truncated,
    )

"""Public entry points of the staged evaluation engine.

Three ways to run the pipeline:

* :func:`evaluate` — one candidate through every stage; the staged
  replacement for (and implementation of) ``repro.core.calculate``, and the
  scalar oracle every batched result is held bit-identical to.
* :func:`check_feasible` — the fast path: validate + profile + memory plan
  only.  Answers "does this configuration fit?" without touching a network
  or timing formula, returning the same infeasibility reason the full model
  would.
* :func:`evaluate_many` — a batched sweep primitive: runs the candidates as
  rows of the columnar engine (:mod:`repro.engine.batch`), which groups
  them by block-profile key, profiles each distinct block once, plans
  memory once per bucket, and fully evaluates only the survivors.  On
  memory-constrained spaces (where most of the Table-1 space is rejected on
  capacity) this skips the expensive comm/timing stages for the rejected
  majority.  Batches too small to pay for the columnar set-up run
  :func:`evaluate` per candidate instead.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Iterator, Sequence

from ..core.results import PerformanceResult
from ..execution.strategy import ExecutionStrategy
from ..hardware.system import System
from ..llm.config import LLMConfig
from ..obs import MetricsRegistry, PruneStats, Tracer
from ..obs.stats import (
    M_CANDIDATES,
    M_COMM_CACHE_HITS,
    M_COMM_CACHE_MISSES,
    M_EVALUATED_FULL,
    M_REJECT_MEMORY,
    M_REJECT_VALIDATE,
    stage_metric,
)
from . import batch as engine_batch
from .context import EvalContext, FeasibilityReport
from .stages import (
    comm_cache_stats,
    infeasible_result,
    stage_assemble,
    stage_comm,
    stage_memory,
    stage_profile,
    stage_validate,
)

# Version of the evaluation semantics.  Bump whenever a change makes the
# engine produce different numbers for the same (llm, system, strategy) —
# checkpoint journals embed it in their run key, so a resumed sweep can
# never silently mix results from two model revisions.
ENGINE_VERSION = 1

# The full pipeline, in execution order.  Exposed for documentation and for
# tooling that wants to run/instrument the stages one at a time.
PIPELINE = (stage_validate, stage_profile, stage_memory, stage_comm, stage_assemble)

# The fast path stops after the memory plan: everything needed to decide
# feasibility, nothing priced in seconds.
FAST_PATH = (stage_validate, stage_profile, stage_memory)

# Span/metric names per stage function, e.g. stage_memory -> "memory".
STAGE_SHORT_NAMES = {fn: fn.__name__.removeprefix("stage_") for fn in PIPELINE}

# Metric-name constants are precomputed per stage so the instrumented hot
# path never formats strings.
_STAGE_METRICS = {fn: stage_metric(name) for fn, name in STAGE_SHORT_NAMES.items()}

# Below this many candidates (and without a prune threshold) building a
# columnar batch costs more than running the scalar oracle per candidate:
# on gpt3-175b/a100:512, evaluate() takes 19 us warm per candidate against
# 0.8 ms for a one-row columnar batch, and 0.26 ms against 1.6 ms at n=8.
_COLUMNAR_MIN_BATCH = 32


def evaluate(
    llm: LLMConfig,
    system: System,
    strategy: ExecutionStrategy,
    *,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> PerformanceResult:
    """Run the full staged pipeline for one configuration.

    Returns an infeasible :class:`PerformanceResult` (never raises) when the
    strategy violates a constraint or exceeds a memory capacity, so search
    engines can sweep the space without exception handling.  Infeasible
    candidates stop at the stage that rejected them — capacity violations
    never pay for the comm/timing stages.

    ``tracer`` records one span per pipeline stage; ``metrics`` accumulates
    the ``engine.*`` counters and per-stage wall-time histograms.  Both
    default to ``None`` and the uninstrumented path pays only the initial
    branch — instrumentation never changes the arithmetic (the golden-
    equivalence suite holds instrumented results bit-identical).
    """
    ctx = EvalContext(llm, system, strategy)
    if tracer is None and metrics is None:
        for stage in PIPELINE:
            stage(ctx)
            if ctx.error is not None:
                return infeasible_result(ctx)
        return ctx.result

    if metrics is not None:
        metrics.inc(M_CANDIDATES)
        cc0 = comm_cache_stats()
    try:
        for stage in PIPELINE:
            t0 = perf_counter()
            if tracer is not None:
                with tracer.span(STAGE_SHORT_NAMES[stage], cat="engine.stage"):
                    stage(ctx)
            else:
                stage(ctx)
            if metrics is not None:
                metrics.observe(_STAGE_METRICS[stage], perf_counter() - t0)
            if ctx.error is not None:
                if metrics is not None:
                    rejected = (
                        M_REJECT_VALIDATE
                        if stage is stage_validate
                        else M_REJECT_MEMORY
                    )
                    metrics.inc(rejected)
                return infeasible_result(ctx)
        if metrics is not None:
            metrics.inc(M_EVALUATED_FULL)
        return ctx.result
    finally:
        if metrics is not None:
            cc1 = comm_cache_stats()
            metrics.inc(M_COMM_CACHE_HITS, cc1[0] - cc0[0])
            metrics.inc(M_COMM_CACHE_MISSES, cc1[1] - cc0[1])


def check_feasible(
    llm: LLMConfig, system: System, strategy: ExecutionStrategy
) -> FeasibilityReport:
    """The feasibility fast path: validate + profile + memory plan only.

    The returned report carries the infeasibility reason verbatim as the full
    model would produce it, plus the tier-1 memory breakdown whenever the
    memory plan ran (so callers can see how far over capacity a candidate
    lands, or how much headroom a feasible one has).
    """
    ctx = EvalContext(llm, system, strategy)
    stage_validate(ctx)
    if ctx.error is not None:
        return FeasibilityReport(feasible=False, reason=ctx.error, stage="validate")
    stage_profile(ctx)
    stage_memory(ctx)
    if ctx.error is not None:
        return FeasibilityReport(
            feasible=False,
            reason=ctx.error,
            stage="memory",
            mem1=ctx.mem.mem1_breakdown(),
            tier2_bytes=ctx.mem.tier2_used,
        )
    return FeasibilityReport(
        feasible=True,
        mem1=ctx.mem.mem1_breakdown(),
        tier2_bytes=ctx.mem.tier2_used,
    )


def iter_evaluate(
    llm: LLMConfig,
    system: System,
    strategies: Sequence[ExecutionStrategy],
    *,
    prune_above: float | None = None,
    metrics: MetricsRegistry | None = None,
) -> Iterator[tuple[int, PerformanceResult]]:
    """Evaluate a candidate list, yielding ``(index, result)`` pairs.

    Batches of 32 or more candidates — and every batch with a
    ``prune_above`` threshold — run as rows of the columnar engine
    (:mod:`repro.engine.batch`): grouped by block-profile key, memory
    planned once per bucket, comm/assembly priced only for the survivors.
    Results then stream in profile-group order (validate-rejects first, then
    groups in first-seen order), not input order; ``index`` maps each result
    back to ``strategies``.  Smaller batches without a threshold run
    :func:`evaluate` per candidate in input order — the scalar oracle is
    faster than building a columnar batch for a handful of candidates, and
    the results are bit-identical either way.

    ``prune_above`` engages **bound pruning**: a batch-time threshold in
    seconds.  After the memory stage, each feasible bucket's roofline lower
    bound (:func:`~repro.engine.bounds.batch_lower_bounds`) is computed
    once; candidates whose bound is ``>= prune_above`` skip the
    comm/assembly stages and yield a shared
    :class:`~repro.engine.bounds.PrunedResult` marker (``feasible=True,
    pruned=True, sample_rate == 0.0``).  Because the bound never exceeds
    the true batch time, a threshold at the caller's k-th-best batch time
    (see :func:`~repro.engine.bounds.prune_threshold_for_rate`) makes
    pruning lossless for top-k selection.  Constraint-filtered or
    rate-histogram callers should leave it ``None`` since pruned candidates
    carry no timing breakdown.

    With ``metrics`` attached, the ``engine.*`` counters (candidates,
    per-stage rejections, profile groups, memory buckets and their hit
    counts, bounds computed/pruned, comm-kernel cache hits/misses) and
    per-stage wall-time histograms accumulate into the registry.
    ``metrics=None`` (the default) costs only untaken branches.
    """
    mx = metrics
    if prune_above is None and len(strategies) < _COLUMNAR_MIN_BATCH:
        # evaluate() does its own comm-cache delta accounting.
        for i, strategy in enumerate(strategies):
            yield i, evaluate(llm, system, strategy, metrics=mx)
        return
    if mx is not None:
        cc0 = comm_cache_stats()
    try:
        eb = engine_batch.EvalBatch.from_strategies(llm, system, strategies)
        engine_batch.run_batch(eb, prune_above=prune_above, metrics=mx)
        yield from engine_batch.iter_results(eb)
    finally:
        if mx is not None:
            cc1 = comm_cache_stats()
            mx.inc(M_COMM_CACHE_HITS, cc1[0] - cc0[0])
            mx.inc(M_COMM_CACHE_MISSES, cc1[1] - cc0[1])


def evaluate_many(
    llm: LLMConfig,
    system: System,
    strategies: Iterable[ExecutionStrategy],
    *,
    prune_above: float | None = None,
    metrics: MetricsRegistry | None = None,
    stats: bool = False,
) -> list[PerformanceResult] | tuple[list[PerformanceResult], PruneStats]:
    """Evaluate many candidates; results align with the input order.

    Runs :func:`iter_evaluate` and puts the results back in input order.
    Outputs are identical to mapping :func:`evaluate` (and therefore the
    legacy ``calculate``) over the list, including infeasibility reasons —
    except under an explicit ``prune_above`` batch-time threshold, where
    memory-feasible candidates whose roofline lower bound already exceeds
    the threshold come back as lightweight
    :class:`~repro.engine.bounds.PrunedResult` markers.

    ``stats=True`` returns ``(results, PruneStats)`` instead of discarding
    the pruning bookkeeping: how many profile groups formed, how many
    candidates shared a memory bucket, and how many were short-circuited by
    a shared rejection.  ``metrics`` accumulates into a caller-owned
    registry (e.g. one shared across a hill-climb); pass both to get the
    stats of this call while also feeding the larger aggregate.
    """
    strategies = list(strategies)
    # With stats requested, accumulate into a fresh registry so the returned
    # PruneStats covers exactly this call, then fold into the caller's.
    reg = MetricsRegistry() if stats else metrics
    results: list[PerformanceResult | None] = [None] * len(strategies)
    for i, result in iter_evaluate(
        llm, system, strategies, prune_above=prune_above, metrics=reg
    ):
        results[i] = result
    if stats:
        if metrics is not None:
            metrics.merge(reg.snapshot())
        return results, PruneStats.from_metrics(reg)
    return results

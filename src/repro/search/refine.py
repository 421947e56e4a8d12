"""Local-search refinement: hill climbing through the execution space.

The exhaustive engine (§5.1) is exact but grows combinatorially.  For
interactive use, this module hill-climbs from a seed strategy: each move
perturbs one dimension (shifting parallelism between t/p/d while preserving
the processor count, scaling the microbatch or interleaving, toggling one
optimization) and keeps the best feasible neighbour until no move improves.

Exhaustive search remains the ground truth; the test suite checks that
multi-start hill climbing lands within a few percent of it on small spaces.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

from ..core.results import PerformanceResult
from ..engine import evaluate, evaluate_many, prune_threshold_for_rate
from ..execution.strategy import ExecutionStrategy
from ..hardware.system import System
from ..llm.config import LLMConfig
from ..obs import NULL_SPAN, MetricsRegistry, Tracer
from .checkpoint import CheckpointJournal, run_key

logger = logging.getLogger(__name__)

# Refine-layer metric names (the engine's own counters accumulate alongside
# these in the same registry).
M_REFINE_STEPS = "refine.steps"
M_REFINE_EVALUATIONS = "refine.evaluations"
M_REFINE_SEEDS = "refine.seeds"


@dataclass(frozen=True)
class RefineResult:
    """Outcome of one hill-climbing run."""

    best: PerformanceResult
    best_strategy: ExecutionStrategy
    evaluations: int
    steps: int


def neighbours(strategy: ExecutionStrategy) -> list[ExecutionStrategy]:
    """All single-move perturbations of a strategy.

    Moves preserve ``t * p * d`` so every neighbour targets the same system;
    infeasible neighbours are rejected later by the model, not here.
    """
    t, p, d = strategy.tensor_par, strategy.pipeline_par, strategy.data_par
    out: list[ExecutionStrategy] = []

    # Shift a factor of 2 between any ordered pair of parallelism modes.
    for src, dst in (
        ("t", "p"), ("t", "d"), ("p", "t"), ("p", "d"), ("d", "t"), ("d", "p")
    ):
        vals = {"t": t, "p": p, "d": d}
        if vals[src] % 2:
            continue
        vals[src] //= 2
        vals[dst] *= 2
        out.append(
            strategy.evolve(
                tensor_par=vals["t"], pipeline_par=vals["p"], data_par=vals["d"]
            )
        )

    # Microbatch and interleaving scaling.
    for m in (strategy.microbatch * 2, strategy.microbatch // 2):
        if m >= 1:
            out.append(strategy.evolve(microbatch=m))
    for v in (strategy.pp_interleaving * 2, strategy.pp_interleaving // 2):
        if v >= 1:
            out.append(strategy.evolve(pp_interleaving=v))

    # Single-flag toggles and mode steps.
    out.append(strategy.evolve(optimizer_sharding=not strategy.optimizer_sharding))
    out.append(strategy.evolve(dp_overlap=not strategy.dp_overlap))
    out.append(strategy.evolve(fused_activations=not strategy.fused_activations))
    if strategy.seq_par:
        out.append(
            strategy.evolve(seq_par=False, tp_redo_sp=False, pp_rs_ag=False)
        )
    else:
        out.append(strategy.evolve(seq_par=True, tp_redo_sp=True))
    modes = ("none", "attn_only", "full")
    idx = modes.index(strategy.recompute)
    for j in (idx - 1, idx + 1):
        if 0 <= j < len(modes):
            out.append(strategy.evolve(recompute=modes[j]))
    overlaps = ("none", "pipe", "ring")
    oidx = overlaps.index(strategy.tp_overlap)
    for j in (oidx - 1, oidx + 1):
        if 0 <= j < len(overlaps):
            out.append(strategy.evolve(tp_overlap=overlaps[j]))

    return out


def hill_climb(
    llm: LLMConfig,
    system: System,
    seed: ExecutionStrategy,
    *,
    max_steps: int = 100,
    bound_prune: bool = True,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> RefineResult | None:
    """Greedy ascent on sample rate from a seed strategy.

    Returns ``None`` when the seed itself is infeasible and no neighbour is
    feasible either.

    ``bound_prune`` lets each neighbourhood evaluation skip the comm/timing
    stages for moves whose roofline lower bound proves they cannot beat the
    current rate — the climb's trajectory and answer are unchanged because
    the admission test (strictly better than current) would reject those
    moves anyway.

    ``tracer`` wraps the climb in a ``hill_climb`` span with one
    ``refine.step`` child per accepted move; ``metrics`` accumulates the
    ``refine.*`` counters plus the engine's own counters for every batched
    neighbourhood evaluation.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    climb_span = (
        tracer.span("hill_climb", cat="refine", seed=seed.short_name())
        if tracer is not None
        else None
    )
    if climb_span is not None:
        climb_span.__enter__()
    try:
        result = _hill_climb_inner(
            llm, system, seed, max_steps=max_steps, bound_prune=bound_prune,
            tracer=tracer, metrics=metrics,
        )
    finally:
        if climb_span is not None:
            climb_span.__exit__(None, None, None)
    return result


def _hill_climb_inner(
    llm: LLMConfig,
    system: System,
    seed: ExecutionStrategy,
    *,
    max_steps: int,
    bound_prune: bool,
    tracer: Tracer | None,
    metrics: MetricsRegistry | None,
) -> RefineResult | None:
    current_strategy = seed
    current = evaluate(llm, system, seed, metrics=metrics)
    evaluations = 1
    if not current.feasible:
        # Try to bootstrap from any feasible neighbour.
        for cand in neighbours(seed):
            res = evaluate(llm, system, cand, metrics=metrics)
            evaluations += 1
            if res.feasible:
                current_strategy, current = cand, res
                break
        else:
            if metrics is not None:
                metrics.inc(M_REFINE_EVALUATIONS, evaluations)
            return None

    steps = 0
    for _ in range(max_steps):
        # One batched engine call per step: the neighbourhood shares block
        # profiles heavily (only t/m/recompute moves change the profile) and
        # memory-infeasible moves are pruned before any timing work.
        moves = neighbours(current_strategy)
        # A move is only accepted when strictly better than the current
        # rate, so a prune threshold at exactly that rate is lossless:
        # bound-pruned moves (rate provably <= current) come back with
        # sample_rate 0.0 and fail the admission test like any non-improving
        # neighbour would.
        prune_above = (
            prune_threshold_for_rate(
                float(current_strategy.batch), current.sample_rate
            )
            if bound_prune and current.sample_rate > 0.0
            else None
        )
        span = (
            tracer.span("refine.step", cat="refine", moves=len(moves))
            if tracer is not None
            else NULL_SPAN
        )
        with span:
            best_move: tuple[ExecutionStrategy, PerformanceResult] | None = None
            for cand, res in zip(
                moves,
                evaluate_many(
                    llm, system, moves, prune_above=prune_above,
                    metrics=metrics,
                ),
            ):
                evaluations += 1
                if res.feasible and res.sample_rate > current.sample_rate and (
                    best_move is None or res.sample_rate > best_move[1].sample_rate
                ):
                    best_move = (cand, res)
        if best_move is None:
            break
        current_strategy, current = best_move
        steps += 1

    if metrics is not None:
        metrics.inc(M_REFINE_EVALUATIONS, evaluations)
        metrics.inc(M_REFINE_STEPS, steps)
    logger.debug(
        "hill climb from %s: %d steps, %d evaluations",
        seed.short_name(), steps, evaluations,
    )
    return RefineResult(
        best=current,
        best_strategy=current_strategy,
        evaluations=evaluations,
        steps=steps,
    )


def multi_start(
    llm: LLMConfig,
    system: System,
    seeds: list[ExecutionStrategy],
    *,
    max_steps: int = 100,
    bound_prune: bool = True,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    events=None,
) -> RefineResult | None:
    """Hill climb from several seeds, returning the overall best.

    ``bound_prune`` is forwarded to every :func:`hill_climb` (see there;
    the refined answer is unchanged either way).

    ``checkpoint`` journals each finished climb so an interrupted
    multi-start can ``resume`` and skip completed seeds; a restored climb's
    best strategy is re-evaluated through the deterministic engine and its
    journaled evaluation/step counts are restored, so the resumed answer
    matches an uninterrupted run.  ``events`` (an
    :class:`~repro.obs.EventJournal`) flight-records torn journal lines
    found while resuming.
    """
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")
    journal = None
    if checkpoint is not None:
        key = run_key(
            llm, system, 0, None, kind="refine",
            extra={
                "seeds": [s.to_dict() for s in seeds],
                "max_steps": max_steps,
            },
        )
        journal = CheckpointJournal.open(
            checkpoint, key, resume=resume, events=events, meta={"llm": llm.name},
        )
    best: RefineResult | None = None
    total_evals = 0
    if metrics is not None:
        metrics.inc(M_REFINE_SEEDS, len(seeds))
    for i, seed in enumerate(seeds):
        record_id = f"seed={i}"
        if journal is not None and record_id in journal:
            res = _climb_from_payload(llm, system, journal.get(record_id))
        else:
            res = hill_climb(
                llm, system, seed, max_steps=max_steps,
                bound_prune=bound_prune, tracer=tracer, metrics=metrics,
            )
            if journal is not None:
                journal.record(record_id, _climb_payload(res))
        if res is None:
            continue
        total_evals += res.evaluations
        if best is None or res.best.sample_rate > best.best.sample_rate:
            best = RefineResult(
                best=res.best,
                best_strategy=res.best_strategy,
                evaluations=total_evals,
                steps=res.steps,
            )
        else:
            best = RefineResult(
                best=best.best,
                best_strategy=best.best_strategy,
                evaluations=total_evals,
                steps=best.steps,
            )
    return best


def _climb_payload(res: RefineResult | None) -> dict | None:
    if res is None:
        return None
    return {
        "strategy": res.best_strategy.to_dict(),
        "rate": res.best.sample_rate,
        "evaluations": res.evaluations,
        "steps": res.steps,
    }


def _climb_from_payload(
    llm: LLMConfig, system: System, payload: dict | None
) -> RefineResult | None:
    if payload is None:
        return None
    strategy = ExecutionStrategy.from_dict(payload["strategy"])
    return RefineResult(
        best=evaluate(llm, system, strategy),
        best_strategy=strategy,
        evaluations=int(payload["evaluations"]),
        steps=int(payload["steps"]),
    )

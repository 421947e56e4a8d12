"""Optimal system-size search (paper §5.2) and scaling studies (Figs. 7, 10, 11).

For every candidate system size (multiples of 8 GPUs in the paper) the full
execution space is searched and the best performer recorded.  The resulting
perf-vs-size curve exposes the "efficiency cliffs": sudden drops where an LLM's
shape does not map evenly onto the processor count.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from ..execution.strategy import ExecutionStrategy
from ..hardware.system import System
from ..llm.config import LLMConfig
from ..obs import EventJournal, ProgressReporter, SweepStats, Tracer
from ..obs.stats import PruneStats
from .checkpoint import CheckpointJournal, run_key
from .execution_search import SearchOptions, search

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScalingPoint:
    """Best achievable performance at one system size."""

    num_procs: int
    sample_rate: float
    batch_time: float
    mfu: float
    strategy: ExecutionStrategy | None
    feasible: bool
    stats: SweepStats | None = field(default=None, compare=False)

    @property
    def per_proc_rate(self) -> float:
        return self.sample_rate / self.num_procs if self.num_procs else 0.0


@dataclass
class ScalingCurve:
    """A perf-vs-system-size sweep for one LLM.

    ``truncated`` is set when a wall-clock deadline stopped the sweep at a
    size boundary; ``points`` then covers only the sizes completed in time.
    """

    llm_name: str
    points: list[ScalingPoint]
    truncated: bool = False

    def sizes(self) -> np.ndarray:
        return np.array([p.num_procs for p in self.points])

    def rates(self) -> np.ndarray:
        return np.array([p.sample_rate for p in self.points])

    def relative_scaling(self) -> np.ndarray:
        """Per-processor efficiency relative to the best point (Fig. 7 y-axis).

        A value of 1.0 means perfect scaling; efficiency cliffs appear as
        points well below their neighbours.
        """
        per_proc = np.array([p.per_proc_rate for p in self.points])
        peak = per_proc.max() if len(per_proc) and per_proc.max() > 0 else 1.0
        return per_proc / peak

    def cliff_depths(self) -> np.ndarray:
        """Drop of each point below the running envelope of ``relative_scaling``."""
        rel = self.relative_scaling()
        envelope = np.maximum.accumulate(rel)
        return envelope - rel

    def total_stats(self) -> SweepStats | None:
        """Merged sweep statistics across every instrumented size."""
        stats = [p.stats for p in self.points if p.stats is not None]
        return SweepStats.merge(stats) if stats else None


def best_at_size(
    llm: LLMConfig,
    system_factory: Callable[[int], System],
    num_procs: int,
    batch: int,
    options: SearchOptions | None = None,
    *,
    workers: int | None = None,
    bound_prune: bool = True,
    tracer: Tracer | None = None,
    collect_stats: bool = False,
    events: EventJournal | None = None,
) -> ScalingPoint:
    """Search the execution space at one system size.

    ``workers`` is forwarded to :func:`repro.search.search`; the default
    ``None`` (like 0 or 1) runs each per-size search serially as one
    columnar batch, with or without ``events``.
    ``bound_prune`` is forwarded too, and bites hard here: the inner search
    keeps only the single best configuration (``top_k=1``, no rate
    histogram), the exact regime where roofline bound pruning skips the
    comm/timing stages for almost the whole feasible space.  ``tracer`` and
    ``collect_stats`` instrument the inner search; the point's
    :class:`~repro.obs.SweepStats` lands on ``ScalingPoint.stats``.
    ``events`` threads a flight-recorder journal into the inner search
    (which records its chunk lifecycle; see :func:`repro.search.search`)
    without changing how it runs.
    """
    system = system_factory(num_procs)
    result = search(
        llm, system, batch, options, workers=workers, keep_rates=False, top_k=1,
        bound_prune=bound_prune, tracer=tracer,
        collect_stats=collect_stats, events=events,
    )
    if result.best is None:
        return ScalingPoint(
            num_procs=num_procs,
            sample_rate=0.0,
            batch_time=float("inf"),
            mfu=0.0,
            strategy=None,
            feasible=False,
            stats=result.stats,
        )
    return ScalingPoint(
        num_procs=num_procs,
        sample_rate=result.best.sample_rate,
        batch_time=result.best.batch_time,
        mfu=result.best.mfu,
        strategy=result.best_strategy,
        feasible=True,
        stats=result.stats,
    )


def scaling_sweep(
    llm: LLMConfig,
    system_factory: Callable[[int], System],
    sizes: Sequence[int],
    batch: int,
    options: SearchOptions | None = None,
    *,
    workers: int | None = None,
    bound_prune: bool = True,
    tracer: Tracer | None = None,
    collect_stats: bool = False,
    progress: ProgressReporter | None = None,
    events: EventJournal | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    deadline: float | None = None,
) -> ScalingCurve:
    """Best performance at each system size (one Fig. 7 / Fig. 10 panel).

    ``workers`` is honored by every inner per-size search (``None``, 0 or
    1 = serial; N = process count, so a Fig. 7 sweep over thousands of
    processors can use the whole machine).  ``bound_prune`` reaches every
    inner search (see :func:`best_at_size`; the curve is identical either
    way).

    With a ``tracer``, each per-size search is wrapped in a ``size=N`` span
    (chunk and stage spans of the inner searches nest beneath it);
    ``collect_stats`` records a :class:`~repro.obs.SweepStats` per point
    (merge them with :meth:`ScalingCurve.total_stats`); ``progress`` ticks
    once per completed size, with feasibility as the success count.
    ``events`` records a ``sweep.size`` flight-recorder event per completed
    size (plus the inner searches' chunk lifecycle) and ``sweep.truncated``
    / ``chunk.resumed`` markers for deadline stops and journal restores.

    ``checkpoint`` journals each completed size so an interrupted sweep can
    ``resume`` without redoing finished sizes (restored points carry
    ``stats=None``).  ``deadline`` is a wall-clock budget in seconds; when
    it passes the sweep stops cleanly at a size boundary and the returned
    curve is flagged ``truncated=True``.
    """
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")
    if progress is not None:
        progress.set_total(len(sizes))
        progress.unit = "sizes"
    logger.debug("scaling sweep: %s over %d sizes", llm.name, len(sizes))
    journal = None
    if checkpoint is not None and sizes:
        key = run_key(
            llm, system_factory(max(sizes)), batch,
            options or SearchOptions(), kind="sweep",
            extra={"sizes": [int(n) for n in sizes]},
        )
        journal = CheckpointJournal.open(
            checkpoint, key, resume=resume, events=events, meta={"llm": llm.name},
        )
    t_start = perf_counter()
    points = []
    truncated = False
    span = tracer.span if tracer is not None else None
    for n in sizes:
        record_id = f"size={n}"
        if journal is not None and record_id in journal:
            points.append(_point_from_payload(journal.get(record_id)))
            if events is not None:
                events.emit("chunk.resumed", size=int(n))
            if progress is not None:
                progress.update(1, int(points[-1].feasible))
            continue
        if deadline is not None and perf_counter() - t_start >= deadline:
            truncated = True
            logger.warning("scaling sweep deadline hit; stopping before size %d", n)
            if events is not None:
                events.emit("sweep.truncated", next_size=int(n))
            break
        t_size = perf_counter()
        if span is not None:
            with span(f"size={n}", cat="sweep.size"):
                point = best_at_size(llm, system_factory, n, batch, options,
                                     workers=workers, bound_prune=bound_prune,
                                     tracer=tracer,
                                     collect_stats=collect_stats, events=events)
        else:
            point = best_at_size(llm, system_factory, n, batch, options,
                                 workers=workers, bound_prune=bound_prune,
                                 collect_stats=collect_stats, events=events)
        if events is not None:
            events.emit(
                "sweep.size", size=int(n), seconds=perf_counter() - t_size,
                feasible=bool(point.feasible),
            )
        points.append(point)
        if journal is not None:
            journal.record(record_id, _point_payload(point))
        if progress is not None:
            progress.update(1, int(point.feasible))
    if progress is not None:
        progress.finish()
    return ScalingCurve(llm_name=llm.name, points=points, truncated=truncated)


def _point_payload(point: ScalingPoint) -> dict:
    return {
        "num_procs": point.num_procs,
        "sample_rate": point.sample_rate,
        "batch_time": point.batch_time,
        "mfu": point.mfu,
        "strategy": point.strategy.to_dict() if point.strategy is not None else None,
        "feasible": point.feasible,
    }


def _point_from_payload(payload: dict) -> ScalingPoint:
    strategy = payload.get("strategy")
    return ScalingPoint(
        num_procs=int(payload["num_procs"]),
        sample_rate=float(payload["sample_rate"]),
        batch_time=float(payload["batch_time"]),
        mfu=float(payload["mfu"]),
        strategy=ExecutionStrategy.from_dict(strategy) if strategy else None,
        feasible=bool(payload["feasible"]),
        # A marker SweepStats: no engine work happened, but total_stats()
        # should still report that this size came from the journal.
        stats=SweepStats(engine=PruneStats(), elapsed=0.0, resumed_chunks=1),
    )


def offload_speedups(
    baseline: ScalingCurve, offloaded: ScalingCurve
) -> list[tuple[int, float]]:
    """Relative speedup from offloading at each size (Fig. 11).

    Returns ``(size, speedup_percent)``; ``inf`` marks sizes only feasible
    with offloading (the paper's "infinite speedup" points).
    """
    out: list[tuple[int, float]] = []
    for b, o in zip(baseline.points, offloaded.points):
        if b.num_procs != o.num_procs:
            raise ValueError("curves must cover identical size grids")
        if not o.feasible:
            continue
        if not b.feasible or b.sample_rate == 0:
            out.append((b.num_procs, float("inf")))
        else:
            out.append((b.num_procs, (o.sample_rate / b.sample_rate - 1.0) * 100.0))
    return out

"""Batch-size scaling analysis.

The global batch is the one application knob the system designer does not
control but must plan around: small batches starve the pipeline (few
microbatches to amortize the bubble and communication), large batches raise
activation pressure.  This module sweeps the batch size with a fixed or
re-searched strategy and reports the efficiency curve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from ..engine import evaluate_many
from ..execution.strategy import ExecutionStrategy
from ..hardware.system import System
from ..llm.config import LLMConfig
from ..search.execution_search import SearchOptions, search


@dataclass(frozen=True)
class BatchPoint:
    """Best (or fixed-strategy) performance at one global batch size."""

    batch: int
    sample_rate: float
    batch_time: float
    mfu: float
    strategy: ExecutionStrategy | None

    @property
    def feasible(self) -> bool:
        return self.strategy is not None


def batch_sweep_fixed(
    llm: LLMConfig,
    system: System,
    strategy: ExecutionStrategy,
    batches: Sequence[int],
) -> list[BatchPoint]:
    """Scale the batch with a fixed parallelization (d, t, p unchanged).

    Batches that the strategy cannot divide are reported infeasible rather
    than skipped, so the caller sees the exact usable set.

    The whole sweep is one batched engine call: every point shares the same
    block profile (the microbatch is fixed), so the profile is computed once
    and memory-infeasible batches never reach the timing stages.
    """
    for batch in batches:
        if batch < 1:
            raise ValueError("batch sizes must be positive")
    strats = [replace(strategy, batch=batch) for batch in batches]
    points = []
    for batch, strat, res in zip(
        batches, strats, evaluate_many(llm, system, strats)
    ):
        points.append(
            BatchPoint(
                batch=batch,
                sample_rate=res.sample_rate,
                batch_time=res.batch_time if res.feasible else float("inf"),
                mfu=res.mfu,
                strategy=strat if res.feasible else None,
            )
        )
    return points


def batch_sweep_searched(
    llm: LLMConfig,
    system: System,
    batches: Sequence[int],
    options: SearchOptions | None = None,
    *,
    workers: int | None = 0,
) -> list[BatchPoint]:
    """Re-search the best strategy at every batch size."""
    points = []
    for batch in batches:
        if batch < 1:
            raise ValueError("batch sizes must be positive")
        result = search(llm, system, batch, options, top_k=1, workers=workers,
                        keep_rates=False)
        if result.best is None:
            points.append(
                BatchPoint(batch=batch, sample_rate=0.0, batch_time=float("inf"),
                           mfu=0.0, strategy=None)
            )
        else:
            points.append(
                BatchPoint(
                    batch=batch,
                    sample_rate=result.best.sample_rate,
                    batch_time=result.best.batch_time,
                    mfu=result.best.mfu,
                    strategy=result.best_strategy,
                )
            )
    return points

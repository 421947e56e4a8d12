"""The core analytical performance model (paper §2.4) — stable wrapper.

Given the three specifications — LLM, system, execution strategy — a single
call to :func:`calculate` returns the full time and resource estimation.  The
implementation lives in :mod:`repro.engine`, which decomposes the calculation
into five composable stages (validate → profile → memory plan → comm
exposure → time assembly); this module keeps the historical entry point.

Sweep-shaped callers should prefer the engine's batched API
(:func:`repro.engine.evaluate_many`) or the feasibility fast path
(:func:`repro.engine.check_feasible`) over per-candidate ``calculate`` loops.
"""

from __future__ import annotations

from ..engine.api import evaluate
from ..execution.strategy import ExecutionStrategy
from ..hardware.system import System
from ..llm.config import LLMConfig
from .results import PerformanceResult


def calculate(
    llm: LLMConfig, system: System, strategy: ExecutionStrategy
) -> PerformanceResult:
    """Run the full analytical model for one configuration.

    Returns an infeasible :class:`PerformanceResult` (never raises) when the
    strategy violates a constraint or exceeds a memory capacity, so search
    engines can sweep the space without exception handling.  With
    ``REPRO_DEBUG_CHECK`` set, every assembled result is run through the
    internal-consistency checker (:mod:`repro.engine.stages`).
    """
    return evaluate(llm, system, strategy)

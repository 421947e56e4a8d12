"""Search engines: execution-space, system-size and budgeted system search.

Long-running sweeps are fault-tolerant: :mod:`repro.search.checkpoint`
journals completed chunks for ``resume``, and :mod:`repro.search.faults`
supervises worker dispatch (retry with backoff, per-chunk timeout, skip
ranges, wall-clock deadlines).  See ``docs/RELIABILITY.md``.
"""

from .checkpoint import CheckpointJournal, CheckpointMismatch, run_key
from .cost import (
    BudgetEntry,
    DDR5_PRICES,
    H100_BASE_PRICE,
    HBM3_PRICES,
    SystemDesign,
    all_designs,
    budget_table,
    evaluate_design,
)
from .execution_search import (
    SearchOptions,
    SearchResult,
    candidate_strategies,
    search,
)
from .faults import (
    FaultInjected,
    FaultInjector,
    RetryPolicy,
    SupervisionReport,
    run_supervised,
)
from .system_search import (
    ScalingCurve,
    ScalingPoint,
    best_at_size,
    offload_speedups,
    scaling_sweep,
)

__all__ = [
    "BudgetEntry",
    "CheckpointJournal",
    "CheckpointMismatch",
    "DDR5_PRICES",
    "FaultInjected",
    "FaultInjector",
    "H100_BASE_PRICE",
    "HBM3_PRICES",
    "RetryPolicy",
    "SupervisionReport",
    "ScalingCurve",
    "ScalingPoint",
    "SearchOptions",
    "SearchResult",
    "SystemDesign",
    "all_designs",
    "best_at_size",
    "budget_table",
    "candidate_strategies",
    "evaluate_design",
    "offload_speedups",
    "run_key",
    "run_supervised",
    "scaling_sweep",
    "search",
]

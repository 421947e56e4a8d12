"""Staged evaluation engine: the analytical model as composable phases.

The monolithic ``calculate()`` of ``repro.core.model`` is implemented here as
an explicit five-stage pipeline over an :class:`EvalContext`::

    validate -> profile -> memory plan -> comm exposure -> time assembly

On top of the stages sit a feasibility fast path (:func:`check_feasible`) and
a batched sweep primitive (:func:`evaluate_many`) that groups candidates by
block-profile key and fully evaluates only memory-feasible survivors.
``repro.core.calculate`` remains the stable single-configuration wrapper.

The bound-and-prune layer (:mod:`repro.engine.bounds`) adds an analytic
roofline lower bound on batch time computed from fast-path artifacts alone;
searches pass a ``prune_above`` threshold to :func:`evaluate_many` /
:func:`iter_evaluate` to skip the comm/assembly stages for candidates that
provably cannot enter the current top-k.

The columnar engine (:mod:`repro.engine.batch`) is the batched path: it
runs the same stages over NumPy struct-of-arrays, and
``evaluate_many``/``iter_evaluate`` send every batch of 32 or more
candidates (or any batch with a ``prune_above`` threshold) through it.
Smaller batches run :func:`evaluate`, the scalar oracle the columnar
results are held bit-identical to.
"""

from .api import (
    ENGINE_VERSION,
    FAST_PATH,
    PIPELINE,
    STAGE_SHORT_NAMES,
    check_feasible,
    evaluate,
    evaluate_many,
    iter_evaluate,
)
from .bounds import (
    PrunedResult,
    batch_lower_bounds,
    prune_threshold_for_rate,
    roofline_lower_bound,
)
from .context import CommExposure, EvalContext, FeasibilityReport, MemoryPlan
from .profile import BlockProfile, profile_block, profile_key
from .profile import clear_caches as _clear_profile_caches
from .stages import (
    clear_comm_caches,
    comm_cache_stats,
    exposed_and_tax,
    in_flight_microbatches,
    infeasible_result,
    stage_assemble,
    stage_comm,
    stage_memory,
    stage_profile,
    stage_validate,
)

from .batch import EvalBatch


def clear_caches() -> None:
    """Drop every process-global engine cache.

    Clears both the block-profile caches and the comm-kernel caches —
    benchmarks call this between phases so each measures cold-cache work.
    """
    _clear_profile_caches()
    clear_comm_caches()


__all__ = [
    "BlockProfile",
    "CommExposure",
    "ENGINE_VERSION",
    "EvalBatch",
    "EvalContext",
    "FAST_PATH",
    "FeasibilityReport",
    "MemoryPlan",
    "PIPELINE",
    "PrunedResult",
    "STAGE_SHORT_NAMES",
    "batch_lower_bounds",
    "check_feasible",
    "clear_caches",
    "clear_comm_caches",
    "comm_cache_stats",
    "evaluate",
    "evaluate_many",
    "exposed_and_tax",
    "in_flight_microbatches",
    "infeasible_result",
    "iter_evaluate",
    "profile_block",
    "profile_key",
    "prune_threshold_for_rate",
    "roofline_lower_bound",
    "stage_assemble",
    "stage_comm",
    "stage_memory",
    "stage_profile",
    "stage_validate",
]

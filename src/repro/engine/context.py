"""Explicit evaluation state threaded through the staged engine.

An :class:`EvalContext` carries one candidate configuration through the
pipeline ``validate -> profile -> memory plan -> comm exposure -> time
assembly``.  Each stage reads the fields earlier stages produced and fills in
its own block; a stage that detects infeasibility sets :attr:`EvalContext.error`
and the pipeline stops.  Keeping the strategy-derived scalars (``t/p/d/v/M``,
blocks per stage, element size) in one place means no stage recomputes them
and the hand-off between stages is inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.results import MemoryBreakdown
from ..execution.strategy import ExecutionStrategy
from ..hardware.system import System
from ..llm.config import LLMConfig
from .profile import BlockProfile


@dataclass(frozen=True)
class MemoryPlan:
    """Output of the memory-planning stage: what lives where, per device.

    The ``*_res`` fields are tier-1-resident bytes (offloading shrinks them to
    a working set); ``tier2_used`` is the offload tier's footprint.  The raw
    floats are kept alongside so the feasibility fast path never has to build
    a :class:`~repro.core.results.MemoryBreakdown` for a rejected candidate.
    """

    weight_res: float
    act_res: float
    grad_res: float
    act_grad_res: float
    opt_res: float
    mem1_total: float
    tier2_used: float
    opt_bytes: float  # optimizer state per device (post-sharding)
    opt_shard: int
    in_flight: float  # microbatches stashed simultaneously per stage

    def mem1_breakdown(self) -> MemoryBreakdown:
        # Memoized: batched sweeps share one plan across every candidate in a
        # memory bucket, so the breakdown is built (and validated) once.
        bd = self.__dict__.get("_breakdown")
        if bd is None:
            bd = MemoryBreakdown(
                weight=self.weight_res,
                activation=self.act_res,
                weight_grad=self.grad_res,
                activation_grad=self.act_grad_res,
                optimizer=self.opt_res,
            )
            self.__dict__["_breakdown"] = bd
        return bd


@dataclass(frozen=True)
class CommExposure:
    """Output of the comm-exposure stage: every time component except totals.

    All values are seconds.  ``t_f_mb`` / ``t_b_mb`` are per-microbatch stage
    times (forward and backward+recompute) with exposed TP communication and
    overlap tax folded in, as the pipeline-bubble and p2p models require.
    """

    tp_fw_exp: float
    tp_fw_tax: float
    tp_bw_exp: float
    tp_bw_tax: float
    tp_rc_exp: float
    tp_rc_tax: float
    t_f_mb: float
    t_b_mb: float
    pp_total: float
    pp_exposed: float
    pp_bubble: float
    dp_total: float
    dp_exposed: float
    dp_tax: float
    optim_time: float
    offload_total: float
    offload_exposed: float
    required_bw: float


@dataclass
class EvalContext:
    """One candidate's state as it moves through the stage pipeline."""

    llm: LLMConfig
    system: System
    strategy: ExecutionStrategy

    # Set by any stage that rejects the candidate; downstream stages must not
    # run once this is non-None.
    error: str | None = None

    # -- strategy-derived scalars (stage_validate) ---------------------------
    t: int = 0  # tensor-parallel degree
    p: int = 0  # pipeline-parallel degree
    d: int = 0  # data-parallel degree
    v: int = 0  # pipeline interleaving
    M: int = 0  # microbatches per flush
    L: int = 0  # transformer blocks
    bpstage: int = 0  # blocks on the busiest pipeline stage
    b: int = 0  # microbatch size
    e: float = 0.0  # bytes per element
    training: bool = True

    # -- stage outputs -------------------------------------------------------
    prof: BlockProfile | None = None
    mem: MemoryPlan | None = None
    comm: CommExposure | None = None
    fac: dict | None = None  # per-block factors (stages.block_factors)
    result: object | None = None  # PerformanceResult once assembled


@dataclass(frozen=True)
class FeasibilityReport:
    """Result of the fast path: feasibility without any timing work.

    ``stage`` names the stage that rejected the candidate (``"validate"`` or
    ``"memory"``) or is ``"ok"``.  ``mem1`` carries the tier-1 breakdown
    whenever the memory plan ran (even for capacity rejections, so callers
    can see *how far over* a candidate is).
    """

    feasible: bool
    reason: str = ""
    stage: str = "ok"
    mem1: MemoryBreakdown | None = None
    tier2_bytes: float = 0.0

    def __bool__(self) -> bool:
        return self.feasible

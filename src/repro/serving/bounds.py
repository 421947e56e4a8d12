"""Sound lower bounds for SLO-constrained serve-search pruning.

Mirrors the ``engine/bounds.py`` discipline: a candidate may be skipped
only when a *provable* lower bound on its latency already violates the
SLO, so pruning can never change the reported top-k.  The proofs lean on
IEEE-754 round-to-nearest monotonicity and on the simulator's deliberate
arithmetic shapes (see :mod:`repro.serving.simulator`):

* **TTFT.**  The simulator computes each request's TTFT as
  ``fl(wait + prefill)`` (colocated) or ``fl(fl(wait + prefill) + transfer)``
  (disaggregated) with ``wait >= 0`` exact, so every measured TTFT
  dominates the same request's ``prefill`` (resp. ``fl(prefill + transfer)``)
  sample.  Element-wise domination is preserved by order statistics, and
  ``np.percentile``'s linear interpolation is a convex combination of
  order statistics — so the percentile of the prefill-only samples
  (computed with the *same* ``np.percentile`` call) lower-bounds the
  measured TTFT percentile.

* **TPOT.**  Every decode step costs at least
  ``decode_step_time(batch=1, context=min_prompt)``: the step model is
  monotone non-decreasing in batch and context, the simulator's integer
  context mean never drops below the smallest prompt, and paging only
  adds.  A request's span is an fl-sum of ``m`` such steps (plus
  non-negative waits), so ``fl(span / m) >= s_min * (1 - eps)^(m+1)`` with
  ``eps = 2**-53``.  :data:`TPOT_SAFETY` = ``1 - 2**-30`` absorbs that
  rounding slack for any ``m`` up to ~8M output tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hardware.system import System
from ..llm.config import LLMConfig
from .disagg import ServePlan, kv_transfer_times
from .simulator import _Kernels, _percentiles
from .workload import SLOSpec, ServeWorkload

__all__ = ["TPOT_SAFETY", "ServeBounds", "plan_bounds", "slo_admits"]

# Multiplicative slack absorbing fl-summation/division rounding in the
# simulator's per-request span accounting (sound for spans of up to ~2^23
# steps; see the module docstring).
TPOT_SAFETY = 1.0 - 2.0**-30


@dataclass(frozen=True)
class ServeBounds:
    """Provable lower bounds on one plan's measured serving percentiles."""

    ttft_p50: float
    ttft_p95: float
    ttft_p99: float
    tpot_p95: float

    def violated(self, slo: SLOSpec) -> tuple[str, ...]:
        """SLO targets this plan provably cannot meet."""
        out = []
        for name, limit in (
            ("ttft_p50", slo.ttft_p50),
            ("ttft_p95", slo.ttft_p95),
            ("ttft_p99", slo.ttft_p99),
            ("tpot_p95", slo.tpot_p95),
        ):
            if limit is not None and getattr(self, name) > limit:
                out.append(name)
        return tuple(out)


def plan_bounds(
    llm: LLMConfig,
    system: System,
    plan: ServePlan,
    workload: ServeWorkload,
    prompts: np.ndarray | None = None,
) -> ServeBounds:
    """Lower-bound a plan's TTFT percentiles and per-token latency.

    ``prompts`` may carry the workload's pre-sampled prompt lengths to
    avoid re-sampling inside tight search loops.
    """
    if prompts is None:
        _, prompts, _ = workload.sample()

    dec = plan.decode
    if plan.prefill is None:
        pre = dec
        pre_system = system
        decode_system = system
    else:
        pre = plan.prefill
        pre_system = system.with_num_procs(pre.num_procs)
        decode_system = system.with_num_procs(dec.num_procs)

    # Price each distinct prompt once, in one pass, from the simulator's own
    # tables.
    lengths = np.unique(prompts).tolist()
    floor_by_len = _Kernels(
        llm, pre_system, pre.tensor_par, pre.pipeline_par
    ).prefill_many(lengths)
    if plan.prefill is not None:
        # Same fl shape as the simulator's per-request floor: pf, or
        # fl(pf + transfer) for disaggregated plans.
        transfer = kv_transfer_times(llm, system, lengths)
        floor_by_len = {n: pf + transfer[n] for n, pf in floor_by_len.items()}
    base = np.array([floor_by_len[n] for n in prompts.tolist()], dtype=float)
    ttft_p50, ttft_p95, ttft_p99 = _percentiles(base)

    min_prompt = int(prompts.min())
    step_floor = _Kernels(
        llm, decode_system, dec.tensor_par, dec.pipeline_par
    ).step(1, min_prompt)
    return ServeBounds(
        ttft_p50=ttft_p50,
        ttft_p95=ttft_p95,
        ttft_p99=ttft_p99,
        tpot_p95=step_floor * TPOT_SAFETY,
    )


def slo_admits(bounds: ServeBounds, slo: SLOSpec | None) -> bool:
    """False iff the plan *provably* violates the SLO (safe to prune)."""
    if slo is None or not slo.constrained:
        return True
    return not bounds.violated(slo)

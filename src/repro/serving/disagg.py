"""Disaggregated prefill/decode serving plans.

A :class:`ServePlan` is serve-search's unit of candidate: either a
colocated deployment (one :class:`~repro.inference.model.InferenceStrategy`
doing both phases on the whole system) or a disaggregated one — a prefill
cluster and a decode cluster carved out of the same system spec, joined by
KV-cache transfer costed through the existing network model (the
outermost — inter-cluster — tier, point-to-point).

Disaggregation model (documented in ``docs/SERVING.md``):

* The prefill cluster runs ``prefill.data_par`` replicas as FCFS servers;
  a request's prefill starts on the earliest-free replica.
* Finished prompts ship their KV cache (the full-model footprint for the
  prompt length) to the decode cluster over the outer network; TTFT for a
  disaggregated plan is ``fl(fl(wait + prefill) + transfer)`` — the fl-sum
  shape that keeps the percentile bound in :mod:`repro.serving.bounds`
  sound.
* The decode cluster runs the same continuous-batching loop as a
  colocated deployment, with arrivals replaced by KV-ready times and
  admission wait folded into the per-token span (the first token was
  already produced upstream).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Iterable, Mapping

from ..hardware.system import System
from ..inference.decode import kv_cache_bytes
from ..llm.config import LLMConfig
from . import simulator
from .simulator import (
    ServeStats,
    _assemble_stats,
    _Kernels,
    _replica_loop,
    check_serveability,
    kv_reserve_bytes,
    weights_bytes,
)
from ..inference.model import InferenceStrategy
from .workload import SLOSpec, ServeWorkload

__all__ = ["ServePlan", "simulate_plan", "simulate_disagg", "check_plan",
           "kv_transfer_time", "kv_transfer_times"]


@dataclass(frozen=True)
class ServePlan:
    """One serving deployment candidate: colocated or disaggregated."""

    decode: InferenceStrategy
    prefill: InferenceStrategy | None = None

    @property
    def disaggregated(self) -> bool:
        return self.prefill is not None

    @property
    def prefill_procs(self) -> int:
        return self.prefill.num_procs if self.prefill is not None else 0

    @property
    def total_procs(self) -> int:
        return self.decode.num_procs + self.prefill_procs

    def short_name(self) -> str:
        if self.prefill is None:
            return self.decode.short_name()
        return f"pre[{self.prefill.short_name()}]+dec[{self.decode.short_name()}]"

    def to_dict(self) -> dict[str, Any]:
        return {
            "decode": asdict(self.decode),
            "prefill": asdict(self.prefill) if self.prefill else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServePlan":
        prefill = data.get("prefill")
        return cls(
            decode=InferenceStrategy(**data["decode"]),
            prefill=InferenceStrategy(**prefill) if prefill else None,
        )


def kv_transfer_time(llm: LLMConfig, system: System, prompt_len: int) -> float:
    """Prefill→decode KV handoff over the inter-cluster network tier."""
    nbytes = kv_cache_bytes(llm, 1, prompt_len, 1)
    return system.networks[-1].collective_time("p2p", nbytes, 2)


def kv_transfer_times(
    llm: LLMConfig, system: System, prompt_lens: Iterable[int]
) -> dict[int, float]:
    """:func:`kv_transfer_time` of each distinct prompt length.

    Memoized per ``(llm, outer network, prompt length)`` in the simulator's
    bounded prefill tables, so every plan of a search, whatever its
    split, shares one transfer price per prompt length.
    """
    tables = simulator._PREFILLS
    hw = ("kv_transfer", llm, system.networks[-1])
    table = tables.table(hw)
    out: dict[int, float] = {}
    for n in prompt_lens:
        tr = table.get(n)
        if tr is None:
            tr = tables.store(hw, table, n, kv_transfer_time(llm, system, n))
        out[n] = tr
    return out


def check_plan(
    llm: LLMConfig,
    system: System,
    plan: ServePlan,
    workload: ServeWorkload,
) -> str | None:
    """Why a plan could never serve the workload, or ``None`` if it can."""
    if plan.total_procs != system.num_procs:
        return (
            f"plan uses {plan.total_procs} processors, system has "
            f"{system.num_procs}"
        )
    if plan.prefill is None:
        return check_serveability(llm, system, plan.decode, workload)

    pre, dec = plan.prefill, plan.decode
    t, p = pre.tensor_par, pre.pipeline_par
    if llm.attn_heads % t or llm.hidden % t or llm.feedforward % t:
        return f"prefill tensor_par={t} must divide the model shape"
    if p > llm.num_blocks:
        return f"prefill pipeline_par={p} exceeds {llm.num_blocks} blocks"
    weights = weights_bytes(llm, t, p)
    need = weights + kv_reserve_bytes(llm, workload.prompt.max_len, t, p)
    if need >= system.mem1.capacity:
        return (
            f"prefill stage needs {need / 2**30:.1f} GiB, HBM is "
            f"{system.mem1.capacity / 2**30:.1f} GiB"
        )
    decode_system = system.with_num_procs(dec.num_procs)
    return check_serveability(llm, decode_system, dec, workload)


def simulate_disagg(
    llm: LLMConfig,
    system: System,
    plan: ServePlan,
    workload: ServeWorkload,
    *,
    slo: SLOSpec | None = None,
    max_batch: int | None = None,
) -> ServeStats:
    """Simulate a disaggregated prefill/decode deployment.

    Raises:
        ValueError: if the plan cannot serve even one request.
    """
    if plan.prefill is None:
        raise ValueError("simulate_disagg requires a disaggregated plan")
    reason = check_plan(llm, system, plan, workload)
    if reason is not None:
        raise ValueError(f"unserveable plan: {reason}")

    pre, dec = plan.prefill, plan.decode
    prefill_kernels = _Kernels(
        llm, system.with_num_procs(pre.num_procs), pre.tensor_par,
        pre.pipeline_par,
    )
    decode_system = system.with_num_procs(dec.num_procs)
    arrivals, prompts, outputs = (a.tolist() for a in workload.sample())
    n = workload.num_requests
    prefill = prefill_kernels.prefill_many(prompts)
    transfer = kv_transfer_times(llm, system, prefill)

    # ---- prefill cluster: d_pre FCFS replicas --------------------------------
    free = [0.0] * pre.data_par
    ttft = [0.0] * n
    ready = [0.0] * n
    pre_max_queue = 0
    for i in range(n):
        slot = min(range(pre.data_par), key=lambda s: free[s])
        start = max(arrivals[i], free[slot])
        waiting = sum(1 for s in free if s > arrivals[i])
        pre_max_queue = max(pre_max_queue, waiting)
        wait = start - arrivals[i]  # exact >= 0: start >= arrival
        pf = prefill[prompts[i]]
        done = start + pf
        free[slot] = done
        tr = transfer[prompts[i]]
        ttft[i] = (wait + pf) + tr  # fl((wait+pf)+tr) >= fl(pf+tr)
        ready[i] = done + tr

    # ---- decode cluster: continuous batching over KV-ready times -------------
    t, p, d = dec.tensor_par, dec.pipeline_par, dec.data_par
    kernels = _Kernels(llm, decode_system, t, p)
    hbm_kv_budget = decode_system.mem1.capacity - weights_bytes(llm, t, p)
    if decode_system.mem2 is not None:
        offload_capacity = decode_system.mem2.capacity
        offload_spb = 1.0 / (
            decode_system.mem2.bandwidth * decode_system.mem2.efficiency
        )
    else:
        offload_capacity = 0.0
        offload_spb = 0.0

    outcomes = []
    for rep in range(d):
        out = _replica_loop(
            kernels,
            [i for i in range(n) if i % d == rep],
            ready, prompts, outputs,
            hbm_kv_budget=hbm_kv_budget,
            offload_capacity=offload_capacity,
            offload_seconds_per_byte=offload_spb,
            max_batch=max_batch,
            charge_prefill=False,
            wait_in_span=True,
        )
        out.ttft = {i: ttft[i] for i in out.span}
        out.max_queue = max(out.max_queue, pre_max_queue)
        outcomes.append(out)
    return _assemble_stats(outcomes, outputs, slo, n)


def simulate_plan(
    llm: LLMConfig,
    system: System,
    plan: ServePlan,
    workload: ServeWorkload,
    *,
    slo: SLOSpec | None = None,
    max_batch: int | None = None,
) -> ServeStats:
    """Simulate any :class:`ServePlan` (dispatches on disaggregation)."""
    if plan.prefill is None:
        from .simulator import simulate_serve

        return simulate_serve(
            llm, system, plan.decode, workload, slo=slo, max_batch=max_batch
        )
    return simulate_disagg(
        llm, system, plan, workload, slo=slo, max_batch=max_batch
    )

"""Analytical inference (serving) model.

A request is served in two phases: *prefill* (the prompt moves through the
model as a full sequence, compute-bound, identical to a training forward
pass) and *decode* (one token per step over a growing KV cache,
memory-bound).  With pipeline parallelism, independent request batches are
interleaved across stages, so throughput scales with ``p`` while per-token
latency does not.  Both phases and the memory footprint are priced by the
serving simulator's kernels (:mod:`repro.serving.simulator`), so this model
and the simulator give one answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.system import System
from ..llm.config import LLMConfig
from .decode import decode_batch_terms
from .results import InferenceResult


@dataclass(frozen=True)
class InferenceStrategy:
    """How a model is deployed for serving.

    Attributes:
        tensor_par: TP degree within a serving replica.
        pipeline_par: PP degree within a replica.
        data_par: number of independent replicas (throughput multiplier).
        batch: concurrent sequences per replica.
        pipelined_requests: keep ``pipeline_par`` batches in flight so every
            stage is busy (throughput mode); otherwise a single batch ping-
            pongs through the pipeline (latency mode).
    """

    tensor_par: int
    pipeline_par: int
    data_par: int = 1
    batch: int = 1
    pipelined_requests: bool = True

    @property
    def num_procs(self) -> int:
        return self.tensor_par * self.pipeline_par * self.data_par

    def short_name(self) -> str:
        return f"t{self.tensor_par}p{self.pipeline_par}d{self.data_par}b{self.batch}"

    def validate(self, llm: LLMConfig, system: System) -> None:
        if min(self.tensor_par, self.pipeline_par, self.data_par) < 1:
            raise ValueError("t, p, d must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.num_procs != system.num_procs:
            raise ValueError(
                f"t*p*d = {self.num_procs} != system size {system.num_procs}"
            )
        if llm.attn_heads % self.tensor_par or llm.hidden % self.tensor_par:
            raise ValueError("tensor_par must divide the model shape")
        if self.pipeline_par > llm.num_blocks:
            raise ValueError("pipeline_par exceeds the block count")


def calculate_inference(
    llm: LLMConfig,
    system: System,
    strategy: InferenceStrategy,
    *,
    prompt_len: int = 2048,
    generate_len: int = 256,
) -> InferenceResult:
    """Estimate serving statistics for one deployment.

    Returns an infeasible result (never raises) for capacity violations, so
    deployment searches can sweep freely; genuine misconfiguration (shape
    mismatches) raises ``ValueError``.
    """
    strategy.validate(llm, system)
    if prompt_len < 1 or generate_len < 0:
        raise ValueError("prompt_len >= 1 and generate_len >= 0 required")

    # Imported here: the serving package imports InferenceStrategy from
    # this module.
    from ..serving.simulator import _Kernels, kv_reserve_bytes, weights_bytes

    t, p, d = strategy.tensor_par, strategy.pipeline_par, strategy.data_par
    B = strategy.batch
    # Pipelined serving keeps p request batches in flight: one batch-step
    # completes per stage-time.
    effective_batches = p if (strategy.pipelined_requests and p > 1) else 1

    weights = weights_bytes(llm, t, p)
    cache = float(
        kv_reserve_bytes(llm, prompt_len + generate_len, t, p) * B
        * effective_batches
    )
    transient = 2 * decode_batch_terms(llm, batch=B, tensor_par=t).activation_bytes
    total = weights + cache + transient
    if total > system.mem1.capacity:
        return InferenceResult.infeasible(
            llm.name,
            system.name,
            strategy.short_name(),
            B,
            prompt_len,
            generate_len,
            f"memory {total / 2**30:.1f} GiB exceeds capacity "
            f"{system.mem1.capacity / 2**30:.1f} GiB",
        )

    kernels = _Kernels(llm, system, t, p)
    # Decode is priced at mid-generation context.
    step = kernels.step(B, prompt_len + max(generate_len, 1) // 2)
    return InferenceResult(
        llm_name=llm.name,
        system_name=system.name,
        strategy_name=strategy.short_name(),
        batch=B,
        prompt_len=prompt_len,
        generate_len=generate_len,
        prefill_time=kernels.prefill_batch(prompt_len, B),
        decode_step_time=step,
        generate_time=generate_len * step,
        tokens_per_second=(
            B * effective_batches * d / step if step > 0 and generate_len > 0
            else 0.0
        ),
        weights_bytes=weights,
        kv_cache_bytes=cache,
        mem_used=total,
    )

"""Decode-phase (autoregressive generation) block model.

Training and prefill process whole sequences; generation processes one token
per step while attending over a growing KV cache.  The decode block is
memory-bandwidth-bound: every step re-reads the block's weights and the
entire cache, so its analytical profile differs sharply from the training
block (GEMV-shaped ops, latency-dominated TP collectives).

The paper includes inference optimizations in its survey (§2.3, refs [1, 35]);
this module provides the decode-side substrate for those analyses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..llm.config import LLMConfig


@dataclass(frozen=True)
class DecodeBatchTerms:
    """The context-independent figures of a decode step at one batch size.

    A step's figures are these plus the per-context part :meth:`at` adds,
    in the order the one-expression formulas would round them.  The
    serving step kernel keeps one of these per batch size and calls
    :meth:`at` per context, so every decode formula exists once.
    """

    hidden: int
    tensor_par: int
    bytes_per_element: float
    # The per-context formulas' leading factors, already rounded as they
    # would be: attention FLOPs are ``attn_flops_coef * c * h / t``, cache
    # reads ``cache_read_coef * c * h * e / t``, softmax FLOPs
    # ``softmax_coef * c``.
    attn_flops_coef: float
    cache_read_coef: float
    softmax_coef: float
    proj_flops: float
    norm_flops: float
    gelu_flops: float
    residual_flops: float
    weight_read_bytes: float
    cache_write_bytes: float
    activation_bytes: float
    tp_comm_bytes: float
    tp_comm_count: int

    def at(self, context: int) -> tuple[float, float, float, float]:
        """``(flops, vector_flops, cache_read_bytes, traffic)`` at ``context``."""
        h, t = self.hidden, self.tensor_par
        # Attention over the cache: QK^T and AV, each 2 * B * c * h / t FLOPs.
        attn_flops = self.attn_flops_coef * context * h / t
        # K and V, full context.
        cache_read = self.cache_read_coef * context * h * self.bytes_per_element / t
        return (
            self.proj_flops + attn_flops,
            self.norm_flops + self.softmax_coef * context + self.gelu_flops
            + self.residual_flops,
            cache_read,
            self.weight_read_bytes + cache_read + self.cache_write_bytes
            + self.activation_bytes,
        )


def kv_cache_bytes(
    llm: LLMConfig, batch: int, context: int, tensor_par: int = 1
) -> float:
    """KV-cache footprint per processor for the whole model.

    Two tensors (K and V) of shape ``[batch, context, hidden/t]`` per block.
    """
    if batch < 1 or context < 0 or tensor_par < 1:
        raise ValueError("batch >= 1, context >= 0, tensor_par >= 1 required")
    per_block = 2.0 * batch * context * llm.hidden * llm.bytes_per_element / tensor_par
    return per_block * llm.num_blocks


def decode_batch_terms(
    llm: LLMConfig, *, batch: int, tensor_par: int = 1
) -> DecodeBatchTerms:
    """The context-independent part of a decode step's block profile.

    Raises:
        ValueError: on non-positive batch or non-dividing ``t``.
    """
    h, f, a = llm.hidden, llm.feedforward, llm.attn_heads
    t, e = tensor_par, llm.bytes_per_element
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if a % t or h % t or f % t:
        raise ValueError(f"tensor_par={t} must divide the model shape")

    # GEMV-shaped projections: QKV (h x 3h/t), out (h/t x h), MLP (h x f/t,
    # f/t x h).  FLOPs are 2 * B * (in x out); weights stream once per step.
    # Element-wise work: 2 LNs, softmax over [B, a/t, c], GeLU over [B, f/t],
    # dropouts disabled at inference.
    return DecodeBatchTerms(
        hidden=h,
        tensor_par=t,
        bytes_per_element=e,
        attn_flops_coef=2.0 * 2.0 * batch,
        cache_read_coef=2.0 * batch,
        softmax_coef=5.0 * batch * (a / t),
        proj_flops=2.0 * batch * (h * 3 * h + h * h + 2 * h * f) / t,
        norm_flops=7.0 * 2 * batch * h / t,
        gelu_flops=8.0 * batch * f / t,
        residual_flops=2.0 * batch * h / t,  # residual adds
        weight_read_bytes=(3 * h * h + h * h + 2 * h * f) * e / t,
        cache_write_bytes=2.0 * batch * h * e / t,  # append one K and one V row
        activation_bytes=batch * (6 * h + 2 * f) * e / t,  # transient tensors
        tp_comm_bytes=batch * h * e,
        tp_comm_count=2 if t > 1 else 0,
    )

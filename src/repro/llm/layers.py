"""Layer-level decomposition of a transformer block (paper Fig. 1).

Each :class:`Layer` carries the analytical quantities the performance model
needs: forward/backward FLOPs, forward/backward memory traffic, persistent
footprints (weights, weight gradients, optimizer state) and the activation
bytes that must be *stashed* between the forward and backward pass.

The stash accounting follows Korthikanti et al. '22 ("Reducing Activation
Recomputation in Large Transformer Models"), which the paper builds on: with
no recomputation, one block stashes ``s*b*h*(34 + 5*a*s/h)`` bytes at fp16
(tensor parallelism and sequence parallelism divide the terms they shard).

The layer builders are arithmetic only, so their size arguments may be
Python numbers or NumPy columns: the columnar engine builds one
:class:`Layer` whose fields are columns, one lane per block key.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Engine(enum.Enum):
    """Which processor datapath executes a layer (paper §2.2)."""

    MATRIX = "matrix"
    VECTOR = "vector"


class Role(enum.Enum):
    """Functional role, used by recompute and fusion rules."""

    NORM = "norm"
    GEMM = "gemm"
    BATCH_MM = "batch_mm"
    SOFTMAX = "softmax"
    DROPOUT = "dropout"
    ACTIVATION = "activation"  # GeLU
    ADD = "add"  # residual connection


# FLOPs charged per element for the vector (element-wise) layers.
_VECTOR_FLOPS_PER_ELEMENT: dict[Role, float] = {
    Role.NORM: 7.0,  # mean, variance, normalize, scale+shift
    Role.SOFTMAX: 5.0,  # max, sub, exp, sum, div
    Role.DROPOUT: 2.0,  # rng compare + mask multiply
    Role.ACTIVATION: 8.0,  # tanh-approximated GeLU
    Role.ADD: 1.0,
}


@dataclass(frozen=True)
class Layer:
    """One operation inside a transformer block.

    All sizes are **bytes per microbatch per block on one processor** (i.e.
    already divided by the tensor-parallel degree where the op is sharded).
    The numeric fields may be columns (see the module docstring); only
    Python numbers are range-checked.

    Attributes:
        name: identifier such as ``"attn_qkv_gemm"``.
        engine: matrix or vector datapath.
        role: functional role, drives recompute/fusion interactions.
        flops_fw: forward-pass FLOPs.
        flops_bw: backward-pass FLOPs (GEMMs: input-grad + weight-grad).
        traffic_fw: forward memory traffic (activations in/out + weights).
        traffic_bw: backward memory traffic.
        weight_bytes: persistent weight footprint.
        weight_grad_bytes: persistent gradient footprint (same dtype).
        optimizer_bytes: Adam state (fp32 master + two moments).
        stash_bytes: activation bytes kept from forward for the backward pass.
        output_bytes: size of the layer's output tensor (used for transient
            activation-gradient working-set accounting).
        attn_only: True for the layers re-executed under *selective* (attention
            -only) recomputation.
        fusible: True if activation fusion removes this layer's stash and
            input traffic (element-wise ops fused into their producer GEMM).
    """

    name: str
    engine: Engine
    role: Role
    flops_fw: float
    flops_bw: float
    traffic_fw: float
    traffic_bw: float
    weight_bytes: float = 0.0
    weight_grad_bytes: float = 0.0
    optimizer_bytes: float = 0.0
    stash_bytes: float = 0.0
    output_bytes: float = 0.0
    attn_only: bool = False
    fusible: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.flops_fw, (int, float)):
            return  # a layer of columns
        for attr in (
            "flops_fw",
            "flops_bw",
            "traffic_fw",
            "traffic_bw",
            "weight_bytes",
            "weight_grad_bytes",
            "optimizer_bytes",
            "stash_bytes",
            "output_bytes",
        ):
            if getattr(self, attr) < 0:
                raise ValueError(f"layer {self.name}: {attr} must be non-negative")


def gemm_layer(
    name: str,
    m: int,
    n: int,
    k: int,
    *,
    bytes_per_element: int,
    batch: int = 1,
    bias: bool = True,
    stash_bytes: float = 0.0,
    attn_only: bool = False,
    weights: bool = True,
) -> Layer:
    """Build a (possibly batched) GEMM layer ``[m,k] x [k,n] -> [m,n]``.

    ``batch`` models batched matrix multiplies (one GEMM per attention head);
    batched MMs carry no weights (both operands are activations), so a
    layer without weights is a :attr:`Role.BATCH_MM`.
    """
    e = bytes_per_element
    flops = 2.0 * batch * m * n * k
    in_bytes = batch * (m * k + k * n) * e
    out_bytes = batch * m * n * e
    w_elems = (k * n + (n if bias else 0)) if weights else 0
    w_bytes = w_elems * e
    # Backward: input-grad GEMM + (for weighted layers) weight-grad GEMM.
    flops_bw = flops * 2.0
    traffic_fw = in_bytes + out_bytes + (w_bytes if weights else 0.0)
    # bw reads the output grad twice (dgrad, wgrad), the stashed input and the
    # weights; writes input grad and weight grads.
    traffic_bw = 2 * out_bytes + in_bytes + 2.0 * w_bytes
    return Layer(
        name=name,
        engine=Engine.MATRIX,
        role=Role.GEMM if weights else Role.BATCH_MM,
        flops_fw=flops,
        flops_bw=flops_bw,
        traffic_fw=traffic_fw,
        traffic_bw=traffic_bw,
        weight_bytes=w_bytes,
        weight_grad_bytes=w_bytes,
        optimizer_bytes=w_elems * 12.0,  # fp32 master + Adam m, v
        stash_bytes=stash_bytes,
        output_bytes=out_bytes,
        attn_only=attn_only,
    )


def elementwise_layer(
    name: str,
    role: Role,
    elements: float,
    *,
    bytes_per_element: int,
    inputs: int = 1,
    weight_elements: float = 0.0,
    stash_bytes: float = 0.0,
    attn_only: bool = False,
    fusible: bool = False,
) -> Layer:
    """Build an element-wise (vector-engine) layer over ``elements`` values."""
    e = bytes_per_element
    flops = _VECTOR_FLOPS_PER_ELEMENT[role] * elements
    traffic_fw = (inputs + 1) * elements * e + weight_elements * e
    # Backward of element-wise ops: read output grad + stashed context, write
    # input grad(s); roughly symmetric with forward.
    traffic_bw = (inputs + 1) * elements * e + 2.0 * weight_elements * e
    return Layer(
        name=name,
        engine=Engine.VECTOR,
        role=role,
        flops_fw=flops,
        flops_bw=flops,
        traffic_fw=traffic_fw,
        traffic_bw=traffic_bw,
        weight_bytes=weight_elements * e,
        weight_grad_bytes=weight_elements * e,
        optimizer_bytes=weight_elements * 12.0,
        stash_bytes=stash_bytes,
        output_bytes=elements * e,
        attn_only=attn_only,
        fusible=fusible,
    )

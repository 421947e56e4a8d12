"""Transformer-block construction (paper Fig. 1) under a sharding strategy.

:func:`build_block` lays out the full layer sequence of one transformer block
— attention (LN, QKV GEMM, QK^T, softmax, dropout, AV, output GEMM, dropout,
residual) followed by the MLP (LN, GEMM, GeLU, GEMM, dropout, residual) — with
every analytical quantity already sharded for a given tensor-parallel degree
and sequence-parallelism setting.

The block also records the tensor-parallel communication events Megatron
issues around it: two all-reduces per pass without sequence parallelism, or
reduce-scatter + all-gather pairs with it (same ring traffic), plus the extra
backward all-gather of the "TP redo for SP" optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from ..arith import pmax, pmin, select, total
from .config import LLMConfig
from .layers import Layer, Role, elementwise_layer, gemm_layer


@dataclass(frozen=True)
class Collective:
    """One communication event on the tensor-parallel network.

    ``group`` is the participating rank count; ``None`` means the whole
    tensor-parallel group (2-D grids communicate along one grid dimension,
    i.e. over sqrt(t) ranks).
    """

    op: str  # 'all_reduce' | 'reduce_scatter' | 'all_gather' | 'p2p'
    nbytes: float
    group: int | None = None

    def __post_init__(self) -> None:
        if self.op not in ("all_reduce", "reduce_scatter", "all_gather", "p2p"):
            raise ValueError(f"unknown collective op {self.op!r}")
        if self.nbytes < 0:
            raise ValueError("collective size must be non-negative")
        if self.group is not None and self.group < 1:
            raise ValueError("collective group must be >= 1")


@dataclass(frozen=True)
class TransformerBlock:
    """One transformer block's layers plus its communication schedule.

    All per-layer quantities are per **microbatch** on one processor.
    """

    layers: tuple[Layer, ...]
    input_bytes: float  # block input activation (stash under full recompute)
    tp_comm_fw: tuple[Collective, ...]
    tp_comm_bw: tuple[Collective, ...]
    pp_activation_bytes: float  # point-to-point tensor between pipeline stages

    # -- aggregations --------------------------------------------------------

    def flops_fw(self) -> float:
        return total([l.flops_fw for l in self.layers])

    def flops_bw(self) -> float:
        return total([l.flops_bw for l in self.layers])

    def weight_bytes(self) -> float:
        return total([l.weight_bytes for l in self.layers])

    def weight_grad_bytes(self) -> float:
        return total([l.weight_grad_bytes for l in self.layers])

    def optimizer_bytes(self) -> float:
        return total([l.optimizer_bytes for l in self.layers])

    def stash_bytes(self, recompute: str) -> float:
        """Activation bytes stashed per microbatch under a recompute mode.

        ``"none"``   — everything is stashed (34*s*b*h + 5*a*s^2*b at fp16).
        ``"attn_only"`` — the attention-core tensors (softmax output, attention
        dropout mask/output) are recomputed instead of stashed.
        ``"full"``   — only the block input is stashed.
        """
        if recompute not in ("none", "attn_only", "full"):
            raise ValueError(f"unknown recompute mode {recompute!r}")
        return stash_bytes(self, recompute == "full", recompute == "attn_only")

    def recompute_flops(self, recompute: str) -> float:
        """Extra forward FLOPs replayed during the backward pass."""
        if recompute == "none":
            return 0.0
        if recompute == "attn_only":
            return sum(l.flops_fw for l in self.layers if l.attn_only)
        if recompute == "full":
            return self.flops_fw()
        raise ValueError(f"unknown recompute mode {recompute!r}")

    def max_output_bytes(self) -> float:
        """Largest transient tensor — the activation-gradient working set."""
        return reduce(pmax, [l.output_bytes for l in self.layers])


def stash_bytes(block: TransformerBlock, full, attn):
    """:meth:`TransformerBlock.stash_bytes` with the mode as two flags.

    ``full`` and ``attn`` (attention-only recompute) may be columns; both
    running sums are kept, in layer order, and the mode picks one.
    """
    kept = every = 0.0
    for l in block.layers:
        every = every + l.stash_bytes
        if not (l.attn_only and l.role in (Role.SOFTMAX, Role.DROPOUT)):
            kept = kept + l.stash_bytes
    return select(full, block.input_bytes, select(attn, kept, every))


def build_block(
    cfg: LLMConfig,
    *,
    microbatch: int,
    tensor_par: int,
    seq_par: bool = False,
    fused_activations: bool = False,
    tp_redo_sp: bool = False,
    tp_mode: str = "1d",
) -> TransformerBlock:
    """Construct one sharded transformer block.

    Args:
        cfg: the LLM hyperparameters.
        microbatch: microbatch size ``b`` (samples per pipeline slot).
        tensor_par: tensor-parallel degree ``t``; must divide ``attn_heads``,
            ``hidden`` and ``feedforward``.
        seq_par: enable Megatron sequence parallelism — shards the residual
            stream (layernorms, dropouts, residual adds) over ``t``.
        fused_activations: fuse element-wise layers into their producer GEMMs,
            removing their input traffic and duplicate stash copies.
        tp_redo_sp: with sequence parallelism, re-all-gather stashed (sharded)
            activations in the backward pass (adds one AG per block).
        tp_mode: ``"1d"`` is Megatron's column/row split (two all-reduces per
            pass); ``"2d"`` distributes each GEMM over a sqrt(t) x sqrt(t)
            grid (Optimus/SUMMA style, paper §6 ref [35]) — per-GEMM
            collectives shrink to ``1/sqrt(t)`` of the residual stream and
            activations shard fully, at the cost of two collectives per GEMM.

    Raises:
        ValueError: if the shape is not evenly divisible by ``tensor_par``,
            or ``tp_mode="2d"`` is combined with ``seq_par`` / a non-square
            ``tensor_par``.
    """
    h, f, a = cfg.hidden, cfg.feedforward, cfg.attn_heads
    b, t = microbatch, tensor_par
    if b <= 0:
        raise ValueError(f"microbatch must be positive, got {b}")
    if t <= 0:
        raise ValueError(f"tensor_par must be positive, got {t}")
    if a % t or h % t or f % t:
        raise ValueError(
            f"tensor_par={t} must divide attn_heads={a}, hidden={h}, feedforward={f}"
        )
    if tp_mode not in ("1d", "2d"):
        raise ValueError(f"unknown tp_mode {tp_mode!r}")
    two_d = tp_mode == "2d"
    grid = math.isqrt(t)
    if two_d:
        if seq_par:
            raise ValueError("2d tensor parallelism shards sequences itself; "
                             "it cannot combine with seq_par")
        if t > 1 and grid * grid != t:
            raise ValueError(f"2d tensor parallelism needs a square degree, got {t}")

    layers, input_bytes = block_layers(cfg, b, t, bool(seq_par) or two_d,
                                       bool(fused_activations))
    fw, bw = tp_schedule(cfg, b, t, bool(seq_par), bool(tp_redo_sp), two_d,
                         grid)
    return TransformerBlock(
        layers=tuple(layers),
        input_bytes=input_bytes,
        tp_comm_fw=tuple(Collective(op, n, g) for op, n, g, on in fw if on),
        tp_comm_bw=tuple(Collective(op, n, g) for op, n, g, on in bw if on),
        # Pipeline point-to-point tensor: the residual stream, sharded over
        # t when sequence parallelism (or the 2-D grid) keeps it scattered
        # ("PP RS+AG" handles re-gather).
        pp_activation_bytes=input_bytes,
    )


def block_layers(cfg: LLMConfig, b, t, shard, fused, s=None):
    """The 15 sharded layers of one block and the block's input bytes.

    ``b`` (microbatch), ``t`` (tensor-parallel degree), ``shard`` (sequence
    parallelism or the 2-D grid shards the residual stream) and ``fused``
    may be columns, one lane per block; ``s`` (default ``cfg.seq_size``)
    may be a column of sequence lengths.
    """
    h, f, a = cfg.hidden, cfg.feedforward, cfg.attn_heads
    s = cfg.seq_size if s is None else s
    e = cfg.bytes_per_element
    # The residual-stream (non-TP-sharded) element-wise layers, and with SP
    # (or a 2-D grid) every stash tensor, kept in sharded form (re-gathered
    # in the backward pass): the shard divides those terms by t
    # (Korthikanti '22 §5; Xu et al. Optimus).
    div = select(shard, t, 1)
    resid_elems = b * s * h / div
    bsh = b * s * h
    heads_local = a // t
    layers: list[Layer] = []

    def ew(name, role, elems, **kw):
        layers.append(
            elementwise_layer(name, role, elems, bytes_per_element=e, **kw)
        )

    # ---- attention ----------------------------------------------------------
    ew(
        "attn_ln",
        Role.NORM,
        resid_elems,
        weight_elements=2 * h,
        stash_bytes=bsh * e / div,
    )
    layers.append(
        gemm_layer(
            "attn_qkv_gemm",
            b * s,
            3 * h // t,
            h,
            bytes_per_element=e,
            stash_bytes=bsh * e / div,
        )
    )
    layers.append(
        gemm_layer(
            "attn_qk_bmm",
            s,
            s,
            h // a,
            batch=b * heads_local,
            bytes_per_element=e,
            weights=False,
            bias=False,
            stash_bytes=2 * bsh * e / t,  # Q and K
            attn_only=True,
        )
    )
    attn_score_elems = b * heads_local * s * s
    ew(
        "attn_softmax",
        Role.SOFTMAX,
        attn_score_elems,
        stash_bytes=attn_score_elems * e,
        attn_only=True,
    )
    ew(
        "attn_dropout",
        Role.DROPOUT,
        attn_score_elems,
        stash_bytes=attn_score_elems * (1 + e),  # 1-byte mask + output copy
        attn_only=True,
        fusible=True,
    )
    layers.append(
        gemm_layer(
            "attn_av_bmm",
            s,
            h // a,
            s,
            batch=b * heads_local,
            bytes_per_element=e,
            weights=False,
            bias=False,
            stash_bytes=bsh * e / t,  # V
            attn_only=True,
        )
    )
    layers.append(
        gemm_layer(
            "attn_out_gemm",
            b * s,
            h,
            h // t,
            bytes_per_element=e,
            stash_bytes=bsh * e / t,
        )
    )
    ew(
        "attn_out_dropout",
        Role.DROPOUT,
        resid_elems,
        stash_bytes=bsh / div,  # 1-byte mask
        fusible=True,
    )
    ew("attn_residual", Role.ADD, resid_elems, inputs=2)

    # ---- MLP ----------------------------------------------------------------
    ew(
        "mlp_ln",
        Role.NORM,
        resid_elems,
        weight_elements=2 * h,
        stash_bytes=bsh * e / div,
    )
    layers.append(
        gemm_layer(
            "mlp_fc1_gemm",
            b * s,
            f // t,
            h,
            bytes_per_element=e,
            stash_bytes=bsh * e / div,
        )
    )
    mlp_inner_elems = b * s * f / t
    ew(
        "mlp_gelu",
        Role.ACTIVATION,
        mlp_inner_elems,
        stash_bytes=mlp_inner_elems * e,
        fusible=True,
    )
    layers.append(
        gemm_layer(
            "mlp_fc2_gemm",
            b * s,
            h,
            f // t,
            bytes_per_element=e,
            stash_bytes=mlp_inner_elems * e,
        )
    )
    ew(
        "mlp_dropout",
        Role.DROPOUT,
        resid_elems,
        stash_bytes=bsh / div,
        fusible=True,
    )
    ew("mlp_residual", Role.ADD, resid_elems, inputs=2)

    if fused is not False:  # True, or a column fusing lane by lane
        layers = [_fuse(l, fused) for l in layers]
    return layers, bsh * e / div


def tp_schedule(cfg: LLMConfig, b, t, seq_par, tp_redo_sp, two_d, grid, s=None):
    """Every tensor-parallel collective of one block, in issue order.

    Returns ``(fw, bw)`` lists of ``(op, nbytes, group, on)`` events over
    all three schedules -- Megatron's all-reduces, the sequence-parallel
    reduce-scatter/all-gather pairs (plus the redo all-gather) and the
    2-D grid's gathers -- where ``on`` says whether the event is in the
    block's schedule and ``group`` ``None`` means the whole TP group.
    ``grid`` is ``isqrt(t)``.  Arguments may be columns (``s`` as in
    :func:`block_layers`); a lane's own events keep their order, so its
    time is the :func:`~repro.arith.total` of the events priced ``0.0``
    where off.
    """
    h, f, e = cfg.hidden, cfg.feedforward, cfg.bytes_per_element
    s = cfg.seq_size if s is None else s
    ar_bytes = b * s * h * e
    flat = select(two_d, False, t > 1)
    ar = select(seq_par, False, flat)  # two all-reduces per pass
    sp = select(seq_par, flat, False)
    redo = select(tp_redo_sp, sp, False)
    fw = [("all_reduce", ar_bytes, None, ar)] * 2 + [
        ("all_gather", ar_bytes, None, sp),  # before QKV GEMM
        ("reduce_scatter", ar_bytes, None, sp),  # after out projection
        ("all_gather", ar_bytes, None, sp),  # before MLP fc1
        ("reduce_scatter", ar_bytes, None, sp),  # after MLP fc2
    ]
    bw = [("all_reduce", ar_bytes, None, ar)] * 2 + [
        ("reduce_scatter", ar_bytes, None, sp),
        ("all_gather", ar_bytes, None, sp),
        ("reduce_scatter", ar_bytes, None, sp),
        ("all_gather", ar_bytes, None, sp),
        ("all_gather", ar_bytes, None, redo),
    ]
    # SUMMA-style grid distribution: every weight GEMM gathers a row of its
    # activation operand AND a column of its weight operand along one grid
    # dimension.  Moving weight tiles is 2-D's hidden cost — at small grids
    # (or small microbatches) it outweighs the 1/sqrt(t) activation saving,
    # reproducing the paper's §6 observation that multi-dimensional
    # distribution only wins at larger TP degrees.
    on = select(two_d, t > 1, False)
    gemm_inputs = (ar_bytes, ar_bytes, ar_bytes, b * s * f * e)  # qkv/out/fc1/fc2
    gemm_weights = (3 * h * h * e, h * h * e, h * f * e, f * h * e)
    grid_events = []
    for act, w in zip(gemm_inputs, gemm_weights):
        grid_events.append(("all_gather", act / grid, grid, on))
        grid_events.append(("all_gather", w / grid, grid, on))
    return fw + grid_events, bw + grid_events


def _fuse(layer: Layer, fused) -> Layer:
    """Apply activation fusion where ``fused`` holds: fused element-wise ops
    stream out of their producer GEMM, so they re-read no input and keep
    only a 1-byte mask (for dropouts) or nothing (GeLU output recomputed in
    the fused backward)."""
    if not layer.fusible:
        return layer
    out = layer.output_bytes
    if layer.role is Role.DROPOUT:
        # Keep only the mask byte per element.
        new_stash = pmin(layer.stash_bytes, out / 2)  # e==2 output -> 1 byte/elem
    else:
        new_stash = 0.0
    return Layer(
        name=layer.name + "_fused",
        engine=layer.engine,
        role=layer.role,
        flops_fw=layer.flops_fw,
        flops_bw=layer.flops_bw,
        traffic_fw=select(fused, out, layer.traffic_fw),  # only the streamed output write
        traffic_bw=select(fused, out, layer.traffic_bw),
        weight_bytes=layer.weight_bytes,
        weight_grad_bytes=layer.weight_grad_bytes,
        optimizer_bytes=layer.optimizer_bytes,
        stash_bytes=select(fused, new_stash, layer.stash_bytes),
        output_bytes=out,
        attn_only=layer.attn_only,
        fusible=False,
    )

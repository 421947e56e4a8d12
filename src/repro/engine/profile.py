"""Stage 2 of the staged engine: profile one sharded transformer block.

The transformer's regular structure means one sharded block profiled once can
be reused for every block and microbatch of a configuration — and, across a
sweep, for every *candidate* that shares the same block-level parameters.
:func:`profile_key` extracts exactly those parameters from an
:class:`~repro.execution.strategy.ExecutionStrategy`, so batched evaluation
(:func:`repro.engine.evaluate_many`) can group candidates and profile each
distinct block once.

:func:`block_base` and :func:`profile_from_base` are the profile's
formulas; the scalar :func:`profile_block` and the columnar engine's
``profile_columns`` both compute through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..core.flops import layer_bw_time, layer_fw_time
from ..execution.strategy import ExecutionStrategy
from ..hardware.system import System
from ..arith import select, total
from ..llm.blocks import build_block, stash_bytes
from ..llm.config import LLMConfig


@dataclass(frozen=True)
class BlockProfile:
    """Cached per-block timing and footprint figures (per microbatch)."""

    fw_time: float
    bw_time: float
    recompute_time: float
    fw_hbm_idle: float  # portion of fw window with tier-1 memory idle
    bw_hbm_idle: float
    flops_fw: float
    flops_bw: float
    weight_bytes: float
    weight_grad_bytes: float
    optimizer_bytes: float
    stash_bytes: float
    input_bytes: float
    act_grad_bytes: float
    tp_fw_comm: float
    tp_bw_comm: float
    tp_recompute_comm: float


def profile_key(
    strategy: ExecutionStrategy,
) -> tuple[int, int, bool, bool, bool, str, str]:
    """The block-level parameters that determine a strategy's profile.

    Two strategies with equal keys share one :class:`BlockProfile` on a given
    (LLM, system); everything else (p, d, batch, overlap, offload, ...) only
    affects the later stages.  The tuple matches :func:`profile_block`'s
    argument order after ``(llm, system)``.
    """
    return (
        strategy.microbatch,
        strategy.tensor_par,
        strategy.seq_par,
        strategy.fused_activations,
        strategy.tp_redo_sp,
        strategy.recompute,
        strategy.tp_mode,
    )


@dataclass(frozen=True)
class _BlockBase:
    """The recompute-independent core of a block profile.

    The recompute mode changes neither the block structure nor any
    per-layer roofline time — only which forward times are *replayed* and
    which activations are stashed.  Factoring this core out and caching it
    on the build key alone means the three recompute modes of one sharding
    share a single :func:`~repro.llm.blocks.build_block` and one per-layer
    timing sweep (a ~3x cut in profile work across a full search space).
    ``attn_fw_time`` is the running sum of the attention-core layers'
    forward times, which selective recompute replays.
    """

    block: object
    fw_time: float
    bw_time: float
    fw_hbm_idle: float
    bw_hbm_idle: float
    attn_fw_time: float
    tp_fw_comm: float
    tp_bw_comm: float
    flops_fw: float
    flops_bw: float
    weight_bytes: float
    weight_grad_bytes: float
    optimizer_bytes: float
    act_grad_bytes: float


def block_base(block, fw, bw, tp_fw_comm, tp_bw_comm) -> _BlockBase:
    """A block's :class:`_BlockBase` from its layers' roofline times.

    ``fw``/``bw`` hold each layer's forward/backward
    :class:`~repro.core.flops.OpTime`, in layer order; the times add up as
    running sums in that order.  Every argument may hold columns (one lane
    per block key), as the columnar profile passes them.
    """
    fw_time = bw_time = fw_idle = bw_idle = attn_time = 0.0
    for layer, f, b in zip(block.layers, fw, bw):
        fw_time = fw_time + f.total
        bw_time = bw_time + b.total
        fw_idle = fw_idle + (f.total - f.memory)
        bw_idle = bw_idle + (b.total - b.memory)
        if layer.attn_only:
            attn_time = attn_time + f.total
    return _BlockBase(
        block=block,
        fw_time=fw_time,
        bw_time=bw_time,
        fw_hbm_idle=fw_idle,
        bw_hbm_idle=bw_idle,
        attn_fw_time=attn_time,
        tp_fw_comm=tp_fw_comm,
        tp_bw_comm=tp_bw_comm,
        flops_fw=block.flops_fw(),
        flops_bw=block.flops_bw(),
        weight_bytes=block.weight_bytes(),
        weight_grad_bytes=block.weight_grad_bytes(),
        optimizer_bytes=block.optimizer_bytes(),
        act_grad_bytes=2.0 * block.max_output_bytes(),
    )


def profile_from_base(base: _BlockBase, full, attn) -> BlockProfile:
    """The profile of ``base`` under full (``full``) or attention-only
    (``attn``) recompute; the flags may be columns."""
    return BlockProfile(
        fw_time=base.fw_time,
        bw_time=base.bw_time,
        recompute_time=select(full, base.fw_time, select(attn, base.attn_fw_time, 0.0)),
        fw_hbm_idle=base.fw_hbm_idle,
        bw_hbm_idle=base.bw_hbm_idle,
        flops_fw=base.flops_fw,
        flops_bw=base.flops_bw,
        weight_bytes=base.weight_bytes,
        weight_grad_bytes=base.weight_grad_bytes,
        optimizer_bytes=base.optimizer_bytes,
        stash_bytes=stash_bytes(base.block, full, attn),
        input_bytes=base.block.input_bytes,
        act_grad_bytes=base.act_grad_bytes,
        tp_fw_comm=base.tp_fw_comm,
        tp_bw_comm=base.tp_bw_comm,
        # Full recompute replays the forward pass communication as well;
        # the attention core contains no TP boundary, so selective
        # recompute adds none.
        tp_recompute_comm=select(full, base.tp_fw_comm, 0.0),
    )


@lru_cache(maxsize=262144)
def _layer_times(proc, hbm, layer):
    """Memoized (forward, backward) roofline times of one layer.

    Layers are frozen dataclasses, so identical shards reached from
    different block keys (e.g. ``m=2, t=2`` vs ``m=1, t=1`` produce the
    same per-processor GEMM) hash equal and share one roofline evaluation.
    Pure memoization — values are whatever :func:`layer_fw_time` /
    :func:`layer_bw_time` return.
    """
    return layer_fw_time(proc, hbm, layer), layer_bw_time(proc, hbm, layer)


@lru_cache(maxsize=65536)
def _block_base(
    llm: LLMConfig,
    system: System,
    microbatch: int,
    tensor_par: int,
    seq_par: bool,
    fused: bool,
    tp_redo_sp: bool,
    tp_mode: str,
) -> _BlockBase:
    block = build_block(
        llm,
        microbatch=microbatch,
        tensor_par=tensor_par,
        seq_par=seq_par,
        fused_activations=fused,
        tp_redo_sp=tp_redo_sp,
        tp_mode=tp_mode,
    )
    proc, hbm = system.processor, system.mem1
    times = [_layer_times(proc, hbm, layer) for layer in block.layers]
    tp_net = system.network_for_span(tensor_par) if tensor_par > 1 else None

    def comm_time(events) -> float:
        if tp_net is None:
            return 0.0
        return total([
            tp_net.collective_time(ev.op, ev.nbytes, ev.group or tensor_par)
            for ev in events
        ])

    return block_base(
        block, [f for f, _ in times], [b for _, b in times],
        comm_time(block.tp_comm_fw), comm_time(block.tp_comm_bw),
    )


@lru_cache(maxsize=65536)
def profile_block(
    llm: LLMConfig,
    system: System,
    microbatch: int,
    tensor_par: int,
    seq_par: bool,
    fused: bool,
    tp_redo_sp: bool,
    recompute: str,
    tp_mode: str = "1d",
) -> BlockProfile:
    """Profile one sharded transformer block on one processor."""
    if recompute not in ("none", "attn_only", "full"):
        raise ValueError(f"unknown recompute mode {recompute!r}")
    base = _block_base(
        llm, system, microbatch, tensor_par, seq_par, fused, tp_redo_sp,
        tp_mode,
    )
    return profile_from_base(base, recompute == "full", recompute == "attn_only")


def clear_caches() -> None:
    """Drop every memoized block profile (e.g. between calibration passes)."""
    profile_block.cache_clear()
    _block_base.cache_clear()
    _layer_times.cache_clear()

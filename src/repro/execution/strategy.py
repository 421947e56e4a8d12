"""Execution strategy: how an LLM is mapped onto a system (paper §2.3).

An :class:`ExecutionStrategy` captures the (t, p, d) parallelization split and
every software optimization of Table 1: microbatching, 1F1B and interleaved
pipeline scheduling, PP RS+AG, sequence parallelism and its TP redo, TP
communication overlap, DP overlap, optimizer sharding, activation recompute,
fused layers, and the three tensor-offload switches.

Feasibility constraints (§2.3's "range" column, plus shape-divisibility rules)
are enforced by :meth:`ExecutionStrategy.validate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterator

from ..hardware.system import System
from ..llm.config import LLMConfig

RECOMPUTE_MODES = ("none", "attn_only", "full")
TP_OVERLAP_MODES = ("none", "pipe", "ring")
TP_MODES = ("1d", "2d")

_INT_FIELDS = ("tensor_par", "pipeline_par", "data_par", "batch", "microbatch",
               "pp_interleaving")
_MODE_FIELDS = (("recompute", RECOMPUTE_MODES), ("tp_overlap", TP_OVERLAP_MODES),
                ("tp_mode", TP_MODES))


class StrategyError(ValueError):
    """An execution strategy that violates a feasibility constraint."""


@dataclass(frozen=True)
class ExecutionStrategy:
    """A complete software configuration for training (or inference).

    Attributes:
        tensor_par: TP degree ``t`` (1..attn_heads).
        pipeline_par: PP degree ``p`` (1..blocks).
        data_par: DP degree ``d`` (1..batch).
        batch: global batch size in samples.
        microbatch: microbatch size ``m`` (1..batch/d).
        pp_interleaving: interleaved-schedule chunk count ``v``
            (1..blocks/p); 1 means no interleaving.
        pp_1f1b: use the 1F1B schedule (limits in-flight microbatches to
            ``p`` instead of the full microbatch count).
        pp_rs_ag: scatter pipeline point-to-point tensors across the TP
            group (reduce-scatter + all-gather around the p2p, [20]).
        seq_par: Megatron sequence parallelism [20].
        tp_redo_sp: re-gather sharded stashes in the backward pass (requires
            ``seq_par``).
        tp_mode: ``"1d"`` (Megatron column/row split) or ``"2d"`` (Optimus-
            style grid distribution; needs a square ``tensor_par`` and no
            ``seq_par`` — see paper §6's discussion of multi-dimensional
            GEMM distribution).
        tp_overlap: hide TP collectives behind GEMMs: ``"none"``, ``"pipe"``
            (pipelined chunks) or ``"ring"`` (fine-grained ring overlap).
        dp_overlap: overlap DP gradient communication with the backward pass.
        optimizer_sharding: ZeRO-1 optimizer-state sharding across DP.
        recompute: activation recomputation mode.
        fused_activations: fuse element-wise layers into producer GEMMs.
        weight_offload / activation_offload / optimizer_offload: stash the
            corresponding tensors in the tier-2 memory (§6).
        training: True for training, False for inference (forward only).
    """

    tensor_par: int
    pipeline_par: int
    data_par: int
    batch: int
    microbatch: int = 1
    pp_interleaving: int = 1
    pp_1f1b: bool = True
    pp_rs_ag: bool = False
    seq_par: bool = False
    tp_redo_sp: bool = False
    tp_mode: str = "1d"
    tp_overlap: str = "none"
    dp_overlap: bool = False
    optimizer_sharding: bool = False
    recompute: str = "none"
    fused_activations: bool = False
    weight_offload: bool = False
    activation_offload: bool = False
    optimizer_offload: bool = False
    training: bool = True

    def __post_init__(self) -> None:
        """Reject ill-typed fields: the one boundary every strategy passes.

        Counts must be ints (not bools or floats), switches bools and modes
        known names; a well-typed strategy that cannot run is left to
        :meth:`validate`, which reports it as infeasible.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _INT_FIELDS:
                if type(value) is not int:
                    raise StrategyError(f"{f.name} must be an integer, got {value!r}")
            elif f.type == "bool" and type(value) is not bool:
                raise StrategyError(f"{f.name} must be true or false, got {value!r}")
        for name, known in _MODE_FIELDS:
            if getattr(self, name) not in known:
                raise StrategyError(
                    f"unknown {name} {getattr(self, name)!r}; expected one of "
                    + ", ".join(known)
                )

    # -- derived quantities ---------------------------------------------------

    @property
    def num_procs(self) -> int:
        return self.tensor_par * self.pipeline_par * self.data_par

    @property
    def local_batch(self) -> int:
        """Samples processed by one data-parallel replica per batch."""
        return self.batch // self.data_par

    @property
    def num_microbatches(self) -> int:
        """Microbatches per pipeline flush (``batch / (d * m)``)."""
        return self.local_batch // self.microbatch

    @property
    def offloading(self) -> bool:
        return self.weight_offload or self.activation_offload or self.optimizer_offload

    def blocks_per_stage(self, num_blocks: int) -> int:
        """Transformer blocks held by the busiest pipeline stage."""
        return math.ceil(num_blocks / self.pipeline_par)

    def blocks_per_chunk(self, num_blocks: int) -> int:
        """Blocks per interleaving chunk on the busiest stage."""
        return math.ceil(self.blocks_per_stage(num_blocks) / self.pp_interleaving)

    # -- validation -----------------------------------------------------------

    def validate(self, llm: LLMConfig, system: System) -> None:
        """Raise :class:`StrategyError` on any infeasible combination."""
        t, p, d = self.tensor_par, self.pipeline_par, self.data_par
        if min(t, p, d) < 1:
            raise StrategyError("t, p, d must all be >= 1")
        if self.num_procs != system.num_procs:
            raise StrategyError(
                f"t*p*d = {self.num_procs} != system size {system.num_procs}"
            )
        if t > llm.attn_heads:
            raise StrategyError(f"t={t} exceeds attn_heads={llm.attn_heads}")
        if llm.attn_heads % t or llm.hidden % t or llm.feedforward % t:
            raise StrategyError(f"t={t} does not evenly divide the model shape")
        if p > llm.num_blocks:
            raise StrategyError(f"p={p} exceeds num_blocks={llm.num_blocks}")
        if d > self.batch:
            raise StrategyError(f"d={d} exceeds batch={self.batch}")
        if self.batch % d:
            raise StrategyError(f"d={d} does not divide batch={self.batch}")
        if self.microbatch < 1 or self.local_batch % self.microbatch:
            raise StrategyError(
                f"microbatch={self.microbatch} does not divide local batch "
                f"{self.local_batch}"
            )
        v = self.pp_interleaving
        if v < 1 or v > self.blocks_per_stage(llm.num_blocks):
            raise StrategyError(
                f"interleaving v={v} outside 1..blocks/p="
                f"{self.blocks_per_stage(llm.num_blocks)}"
            )
        if v > 1 and p == 1:
            raise StrategyError("interleaving requires pipeline parallelism (p > 1)")
        if self.tp_mode == "2d":
            if self.seq_par:
                raise StrategyError("tp_mode='2d' cannot combine with seq_par")
            r = math.isqrt(t)
            if t > 1 and r * r != t:
                raise StrategyError(f"tp_mode='2d' needs a square t, got {t}")
        if self.seq_par and llm.seq_size % t:
            raise StrategyError(f"seq_par requires t={t} to divide seq={llm.seq_size}")
        if self.tp_redo_sp and not self.seq_par:
            raise StrategyError("tp_redo_sp requires seq_par")
        if self.pp_rs_ag and not self.seq_par:
            raise StrategyError("pp_rs_ag operates on sequence-sharded tensors")
        if self.offloading and not system.has_offload:
            raise StrategyError("offloading requires a tier-2 memory (system.mem2)")
        if not self.training and self.recompute != "none":
            raise StrategyError("inference never recomputes activations")

    def is_valid(self, llm: LLMConfig, system: System) -> bool:
        try:
            self.validate(llm, system)
        except StrategyError:
            return False
        return True

    # -- convenience ----------------------------------------------------------

    def evolve(self, **kwargs) -> "ExecutionStrategy":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def short_name(self) -> str:
        return (
            f"t{self.tensor_par}p{self.pipeline_par}d{self.data_par}"
            f"m{self.microbatch}v{self.pp_interleaving}"
        )

    def to_dict(self) -> dict:
        return {
            "tensor_par": self.tensor_par,
            "pipeline_par": self.pipeline_par,
            "data_par": self.data_par,
            "batch": self.batch,
            "microbatch": self.microbatch,
            "pp_interleaving": self.pp_interleaving,
            "pp_1f1b": self.pp_1f1b,
            "pp_rs_ag": self.pp_rs_ag,
            "seq_par": self.seq_par,
            "tp_redo_sp": self.tp_redo_sp,
            "tp_mode": self.tp_mode,
            "tp_overlap": self.tp_overlap,
            "dp_overlap": self.dp_overlap,
            "optimizer_sharding": self.optimizer_sharding,
            "recompute": self.recompute,
            "fused_activations": self.fused_activations,
            "weight_offload": self.weight_offload,
            "activation_offload": self.activation_offload,
            "optimizer_offload": self.optimizer_offload,
            "training": self.training,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionStrategy":
        return cls(**data)


def factorizations(n: int) -> Iterator[tuple[int, int, int]]:
    """All ordered triples (t, p, d) with ``t * p * d == n``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for t in range(1, n + 1):
        if n % t:
            continue
        rest = n // t
        for p in range(1, rest + 1):
            if rest % p:
                continue
            yield t, p, rest // p


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of ``n``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]

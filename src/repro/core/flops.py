"""Per-operation processing model (paper §2.2).

Each computational operation is fed to a processing model that determines its
duration from both the raw compute time (FLOPs through the matrix or vector
engine at its size-dependent efficiency) and the raw memory-access time
(traffic through tier-1 memory).  The two are assumed to overlap (roofline),
so the operation takes the maximum of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arith import pmax
from ..hardware.memory import MemoryTier
from ..hardware.processor import Processor
from ..llm.layers import Layer


@dataclass(frozen=True)
class OpTime:
    """Timing detail of one operation."""

    total: float
    compute: float
    memory: float

    @property
    def compute_bound(self) -> bool:
        return self.compute >= self.memory


def roofline(compute, memory) -> OpTime:
    """An op whose compute and memory access overlap: the longer one binds.

    ``compute`` and ``memory`` may be float64 columns (one lane per op).
    """
    return OpTime(total=pmax(compute, memory), compute=compute, memory=memory)


def op_time(
    processor: Processor,
    mem: MemoryTier,
    flops: float,
    traffic: float,
    engine: str,
) -> OpTime:
    """Roofline time of one op: ``max(compute_time, memory_time)``."""
    return roofline(processor.compute_time(engine, flops), mem.access_time(traffic))


def layer_fw_time(processor: Processor, mem: MemoryTier, layer: Layer) -> OpTime:
    """Forward-pass time of one layer."""
    return op_time(processor, mem, layer.flops_fw, layer.traffic_fw, layer.engine.value)


def layer_bw_time(processor: Processor, mem: MemoryTier, layer: Layer) -> OpTime:
    """Backward-pass time of one layer."""
    return op_time(processor, mem, layer.flops_bw, layer.traffic_bw, layer.engine.value)

"""Result structures returned by the performance model (paper §2.4).

The model outputs total performance (batch time, sample rate, MFU), a time
breakdown (forward, backward, recompute, optimizer, pipeline bubble, exposed
TP/PP/DP communication, exposed offload), and a memory breakdown per tier
(weights, activations, gradients, optimizer state) — mirroring Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..arith import select
from ..units import human_bytes, human_time


def sample_rate(batch, batch_time):
    """Samples per second of ``batch_time`` (``0.0`` for no time); takes
    floats or columns."""
    busy = batch_time > 0
    return select(busy, batch / select(busy, batch_time, 1.0), 0.0)


@dataclass(frozen=True)
class TimeBreakdown:
    """Where one training batch's time goes (seconds, per device).

    The ``*_comm_exposed`` fields are the portions blocking computation; the
    matching ``*_comm_total`` fields record the full time on the wire.
    ``batch_time`` is the sum of the exposed components.
    """

    fw_pass: float = 0.0
    bw_pass: float = 0.0
    fw_recompute: float = 0.0
    optim_step: float = 0.0
    pp_bubble: float = 0.0
    tp_comm_exposed: float = 0.0
    pp_comm_exposed: float = 0.0
    dp_comm_exposed: float = 0.0
    offload_exposed: float = 0.0
    overlap_tax: float = 0.0  # compute slowdown from driving the network
    tp_comm_total: float = 0.0
    pp_comm_total: float = 0.0
    dp_comm_total: float = 0.0
    offload_total: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"TimeBreakdown.{f.name} must be non-negative")

    @property
    def batch_time(self) -> float:
        return (
            self.fw_pass
            + self.bw_pass
            + self.fw_recompute
            + self.optim_step
            + self.pp_bubble
            + self.tp_comm_exposed
            + self.pp_comm_exposed
            + self.dp_comm_exposed
            + self.offload_exposed
            + self.overlap_tax
        )

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def stacked(self) -> list[tuple[str, float]]:
        """The Fig. 3 / Fig. 4 stacked-bar components, in plot order."""
        return [
            ("FW pass", self.fw_pass),
            ("BW pass", self.bw_pass),
            ("Optim step", self.optim_step),
            ("PP bubble", self.pp_bubble),
            ("FW recompute", self.fw_recompute),
            ("TP comm", self.tp_comm_exposed),
            ("PP comm", self.pp_comm_exposed),
            ("DP comm", self.dp_comm_exposed),
            ("Offload", self.offload_exposed),
            ("Overlap tax", self.overlap_tax),
        ]


@dataclass(frozen=True)
class MemoryBreakdown:
    """Bytes resident per device, by data type (the Fig. 3 HBM chart)."""

    weight: float = 0.0
    activation: float = 0.0
    weight_grad: float = 0.0
    activation_grad: float = 0.0
    optimizer: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"MemoryBreakdown.{f.name} must be non-negative")

    @property
    def total(self) -> float:
        return (
            self.weight
            + self.activation
            + self.weight_grad
            + self.activation_grad
            + self.optimizer
        )

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def stacked(self) -> list[tuple[str, float]]:
        return [
            ("Weight", self.weight),
            ("Activation", self.activation),
            ("Weight gradients", self.weight_grad),
            ("Activation gradients", self.activation_grad),
            ("Optimizer space", self.optimizer),
        ]


@dataclass(frozen=True)
class OffloadStats:
    """Tier-2 memory usage and the bandwidth needed for seamless offload."""

    used_bytes: float = 0.0
    required_bandwidth: float = 0.0  # bytes/s for fully-hidden transfers (Eq. 1)

    def __post_init__(self) -> None:
        if self.used_bytes < 0 or self.required_bandwidth < 0:
            raise ValueError("offload stats must be non-negative")


@dataclass(frozen=True)
class PerformanceResult:
    """Complete output of one performance calculation."""

    llm_name: str
    system_name: str
    strategy_name: str
    batch: int
    time: TimeBreakdown
    mem1: MemoryBreakdown
    offload: OffloadStats
    mfu: float
    feasible: bool = True
    infeasibility: str = ""

    @property
    def batch_time(self) -> float:
        return self.time.batch_time

    @property
    def sample_rate(self) -> float:
        """Samples processed per second of training."""
        return sample_rate(self.batch, self.batch_time) if self.feasible else 0.0

    def summary(self) -> str:
        """Multi-line human-readable report (the Fig. 3-style output)."""
        lines = [
            f"{self.llm_name} on {self.system_name} [{self.strategy_name}]",
        ]
        if not self.feasible:
            lines.append(f"  INFEASIBLE: {self.infeasibility}")
            return "\n".join(lines)
        lines.append(
            f"  batch time {human_time(self.batch_time)}  "
            f"sample rate {self.sample_rate:.1f}/s  MFU {self.mfu * 100:.2f}%"
        )
        for label, val in self.time.stacked():
            if val > 0:
                lines.append(
                    f"    {label:<16} {human_time(val):>10}"
                    f"  ({val / self.batch_time * 100:5.1f}%)"
                )
        lines.append(f"  HBM used {human_bytes(self.mem1.total)}")
        for label, val in self.mem1.stacked():
            if val > 0:
                lines.append(
                    f"    {label:<20} {human_bytes(val):>12}"
                    f"  ({val / self.mem1.total * 100:5.1f}%)"
                )
        if self.offload.used_bytes > 0:
            lines.append(
                f"  offload used {human_bytes(self.offload.used_bytes)}"
                f"  required BW {self.offload.required_bandwidth / 1e9:.1f} GB/s"
            )
        return "\n".join(lines)

    @classmethod
    def infeasible(
        cls, llm_name: str, system_name: str, strategy_name: str, batch: int, reason: str
    ) -> "PerformanceResult":
        return cls(
            llm_name=llm_name,
            system_name=system_name,
            strategy_name=strategy_name,
            batch=batch,
            time=TimeBreakdown(),
            mem1=MemoryBreakdown(),
            offload=OffloadStats(),
            mfu=0.0,
            feasible=False,
            infeasibility=reason,
        )

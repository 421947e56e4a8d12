"""Network model (paper §2.2).

Each processor connects to an arbitrary number of networks; each network has a
domain size, per-processor bandwidth, latency, efficiency, a specification of
how it executes each collective operation (which is also how in-network
collective offload is modeled), and a *processor usage* figure: the fraction
of the processor's compute consumed when driving the network at full
bandwidth (used to model the slowdown from overlapping communication with
computation — e.g. ~15% of cores for NCCL over NVLink, ~2% for InfiniBand).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

COLLECTIVE_OPS = ("all_reduce", "reduce_scatter", "all_gather", "broadcast", "p2p")


@dataclass(frozen=True)
class Network:
    """One network tier.

    Attributes:
        name: e.g. ``"nvlink3"`` or ``"ib-hdr"``.
        size: number of endpoints in one domain of this network.
        bandwidth: per-processor injection bandwidth, bytes/s per direction.
        latency: per-message latency, seconds.
        efficiency: achievable fraction of peak bandwidth for large messages.
        processor_usage: fraction of processor compute consumed at full
            network utilization (overlap tax).
        in_network_collectives: if True, reductions happen in the fabric
            (e.g. SHARP), so an all-reduce moves each byte once instead of
            ``2(n-1)/n`` times.
        small_message_bytes: per-step messages below this size achieve
            reduced bandwidth efficiency (protocol and pipelining overheads),
            ramping log-linearly down to ``min_efficiency`` at 4 KiB.
        op_handling: per-operation algorithm overrides, as ``(op, algorithm)``
            pairs — the paper's "specification of how [the network] handles
            each specific operation".  Algorithms: ``"ring"`` (default),
            ``"tree"``, ``"in_network"``, or ``"best"`` (pick the fastest).
    """

    name: str
    size: int
    bandwidth: float
    latency: float = 2e-6
    efficiency: float = 0.85
    processor_usage: float = 0.0
    in_network_collectives: bool = False
    small_message_bytes: float = 4 << 20  # 4 MiB
    min_efficiency: float = 0.20
    op_handling: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"{self.name}: size must be >= 1")
        if self.bandwidth <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive")
        if self.latency < 0:
            raise ValueError(f"{self.name}: latency must be non-negative")
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"{self.name}: efficiency must be in (0, 1]")
        if not 0 <= self.processor_usage < 1:
            raise ValueError(f"{self.name}: processor_usage must be in [0, 1)")
        if self.small_message_bytes <= 0:
            raise ValueError(f"{self.name}: small_message_bytes must be positive")
        if not 0 < self.min_efficiency <= self.efficiency:
            raise ValueError(f"{self.name}: min_efficiency must be in (0, efficiency]")
        for op, alg in self.op_handling:
            if op not in COLLECTIVE_OPS:
                raise ValueError(f"{self.name}: unknown op {op!r} in op_handling")
            if alg not in ("ring", "tree", "in_network", "best"):
                raise ValueError(f"{self.name}: unknown algorithm {alg!r}")

    @property
    def effective_bandwidth(self) -> float:
        return self.bandwidth * self.efficiency

    def message_bandwidth(self, message_bytes: float) -> float:
        """Achieved bandwidth for one per-step message of ``message_bytes``."""
        if message_bytes <= 0:
            return self.effective_bandwidth
        if message_bytes >= self.small_message_bytes:
            eff = self.efficiency
        else:
            lo, hi = math.log2(4096.0), math.log2(self.small_message_bytes)
            frac = (math.log2(max(message_bytes, 4096.0)) - lo) / (hi - lo)
            eff = self.min_efficiency + frac * (self.efficiency - self.min_efficiency)
        return self.bandwidth * eff

    def collective_time(self, op: str, nbytes: float, group: int) -> float:
        """Time for one collective of ``nbytes`` payload over ``group`` ranks.

        Ring algorithms (the NCCL default at these scales):
          * all-reduce moves ``2 * (g-1)/g`` of the payload per processor,
            or once with in-network reduction;
          * reduce-scatter / all-gather / broadcast move ``(g-1)/g``;
          * p2p moves the payload once.
        Latency is charged per algorithm step.
        """
        if op not in COLLECTIVE_OPS:
            raise ValueError(f"unknown collective {op!r}")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if group < 1:
            raise ValueError("group must be >= 1")
        if group == 1 and op != "p2p":
            return 0.0
        if nbytes == 0:
            return 0.0

        override = dict(self.op_handling).get(op) if self.op_handling else None
        if override is not None and op != "p2p":
            from . import collectives as _alg

            if override == "ring":
                return _alg.ring_time(self, op, nbytes, group)
            if override == "tree":
                return _alg.tree_time(self, op, nbytes, group)
            if override == "in_network":
                return _alg.in_network_time(self, op, nbytes, group)
            return _alg.best_time(self, op, nbytes, group).time

        if op == "p2p":
            steps = 1
            volume = nbytes
            message = nbytes
        elif op == "all_reduce":
            if self.in_network_collectives:
                steps = 1
                volume = nbytes
                message = nbytes
            else:
                steps = 2 * (group - 1)
                volume = 2.0 * nbytes * (group - 1) / group
                message = nbytes / group
        else:  # reduce_scatter / all_gather / broadcast
            steps = group - 1
            volume = nbytes * (group - 1) / group
            message = nbytes / group
        return volume / self.message_bandwidth(message) + steps * self.latency

    def required_processor_fraction(self, busy_fraction: float) -> float:
        """Compute tax when the network is busy ``busy_fraction`` of the time."""
        if not 0 <= busy_fraction <= 1:
            raise ValueError("busy_fraction must be in [0, 1]")
        return self.processor_usage * busy_fraction

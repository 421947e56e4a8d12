"""JSON serialization of the three specifications (LLM, system, execution).

Mirrors the reference tool's spec-file workflow: every study is reproducible
from three human-editable JSON documents.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from ..execution.strategy import ExecutionStrategy
from ..fsutil import atomic_write_text
from ..hardware.memory import MemoryTier
from ..hardware.network import Network
from ..hardware.processor import EfficiencyCurve, Processor
from ..hardware.system import System
from ..llm.config import LLMConfig


# ---------------------------------------------------------------------------
# System <-> dict
# ---------------------------------------------------------------------------

def curve_to_dict(curve: EfficiencyCurve) -> list[list[float]]:
    return [[f, e] for f, e in curve.points]


def curve_from_dict(data: list[list[float]]) -> EfficiencyCurve:
    return EfficiencyCurve(points=tuple((float(f), float(e)) for f, e in data))


def system_to_dict(system: System) -> dict[str, Any]:
    proc = system.processor
    out: dict[str, Any] = {
        "name": system.name,
        "num_procs": system.num_procs,
        "processor": {
            "name": proc.name,
            "matrix_flops": proc.matrix_flops,
            "vector_flops": proc.vector_flops,
            "matrix_efficiency": curve_to_dict(proc.matrix_efficiency),
            "vector_efficiency": curve_to_dict(proc.vector_efficiency),
        },
        "mem1": _tier_to_dict(system.mem1),
        "networks": [_net_to_dict(n) for n in system.networks],
    }
    if system.mem2 is not None:
        out["mem2"] = _tier_to_dict(system.mem2)
    return out


def system_from_dict(data: dict[str, Any]) -> System:
    proc_d = data["processor"]
    processor = Processor(
        name=proc_d["name"],
        matrix_flops=proc_d["matrix_flops"],
        vector_flops=proc_d["vector_flops"],
        matrix_efficiency=curve_from_dict(proc_d["matrix_efficiency"]),
        vector_efficiency=curve_from_dict(proc_d["vector_efficiency"]),
    )
    return System(
        name=data["name"],
        num_procs=data["num_procs"],
        processor=processor,
        mem1=_tier_from_dict(data["mem1"]),
        networks=tuple(_net_from_dict(n) for n in data["networks"]),
        mem2=_tier_from_dict(data["mem2"]) if "mem2" in data else None,
    )


def _tier_to_dict(tier: MemoryTier) -> dict[str, Any]:
    return {
        "name": tier.name,
        "capacity": tier.capacity,
        "bandwidth": tier.bandwidth,
        "efficiency": tier.efficiency,
        "small_access_bytes": tier.small_access_bytes,
        "min_efficiency": tier.min_efficiency,
    }


def _tier_from_dict(data: dict[str, Any]) -> MemoryTier:
    return MemoryTier(**data)


def _net_to_dict(net: Network) -> dict[str, Any]:
    return {
        "name": net.name,
        "size": net.size,
        "bandwidth": net.bandwidth,
        "latency": net.latency,
        "efficiency": net.efficiency,
        "processor_usage": net.processor_usage,
        "in_network_collectives": net.in_network_collectives,
    }


def _net_from_dict(data: dict[str, Any]) -> Network:
    return Network(**data)


# ---------------------------------------------------------------------------
# File round-trips
# ---------------------------------------------------------------------------

def save_llm(llm: LLMConfig, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(llm.to_dict(), indent=2) + "\n")


def load_llm(path: str | Path) -> LLMConfig:
    return LLMConfig.from_dict(json.loads(Path(path).read_text()))


def save_system(system: System, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(system_to_dict(system), indent=2) + "\n")


def load_system(path: str | Path) -> System:
    return system_from_dict(json.loads(Path(path).read_text()))


def save_strategy(strategy: ExecutionStrategy, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(strategy.to_dict(), indent=2) + "\n")


def load_strategy(path: str | Path) -> ExecutionStrategy:
    return ExecutionStrategy.from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Spec strings — the shorthand accepted by the CLI and the service API
# ---------------------------------------------------------------------------

def llm_from_spec(spec: str | dict) -> LLMConfig:
    """Resolve an LLM spec: a full dict, a preset name, or a JSON file path."""
    if isinstance(spec, dict):
        return LLMConfig.from_dict(spec)
    if Path(spec).suffix == ".json" and Path(spec).exists():
        return load_llm(spec)
    from ..llm.config import get_preset

    return get_preset(spec)


def system_from_spec(spec: str | dict) -> System:
    """Resolve a system spec: a full dict, a JSON file path, or shorthand.

    The shorthand is the CLI's ``<kind>:<n>[:<hbm_gib>[:<ddr_gib>]]`` form,
    e.g. ``a100:4096`` or ``h100:512:80:512``.  Raises :class:`ValueError`
    on an unknown kind, a non-finite or non-positive HBM size, or a
    non-finite or negative DDR size, so HTTP callers get a 400, not a
    process exit.
    """
    if isinstance(spec, dict):
        return system_from_dict(spec)
    if Path(spec).suffix == ".json" and Path(spec).exists():
        return load_system(spec)
    from ..hardware.system import (
        a100_system,
        ddr5_offload,
        h100_system,
        h200_system,
        v100_system,
    )

    factories = {
        "v100": (v100_system, 32.0),
        "a100": (a100_system, 80.0),
        "h100": (h100_system, 80.0),
        "h200": (h200_system, 141.0),
    }
    parts = str(spec).split(":")
    kind = parts[0]
    if kind not in factories or len(parts) < 2:
        raise ValueError(
            f"unknown system spec {spec!r} (want one of {sorted(factories)}, "
            "e.g. a100:4096 or h100:512:80:512)"
        )
    factory, default_hbm = factories[kind]
    try:
        n = int(parts[1])
        hbm = float(parts[2]) if len(parts) > 2 else default_hbm
        ddr = float(parts[3]) if len(parts) > 3 else 0.0
    except ValueError:
        raise ValueError(f"malformed system spec {spec!r}") from None
    if not (math.isfinite(hbm) and hbm > 0):
        raise ValueError(
            f"system spec {spec!r}: HBM must be finite and > 0 GiB, got {hbm}"
        )
    if not (math.isfinite(ddr) and ddr >= 0):
        raise ValueError(
            f"system spec {spec!r}: DDR must be finite and >= 0 GiB, got {ddr}"
        )
    offload = ddr5_offload(ddr) if ddr > 0 else None
    return factory(n, hbm_gib=hbm, offload=offload)

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


def _check_number(value: Any, what: str, *, zero_ok: bool = False,
                  unit: str = "") -> None:
    """Raise ``ValueError`` unless ``value`` is a finite number above 0
    (at least 0 with ``zero_ok``)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and math.isfinite(value)
            and (value >= 0 if zero_ok else value > 0)):
        bound = ">= 0" if zero_ok else "> 0"
        raise ValueError(f"{what} must be finite and {bound}{unit}, got {value!r}")


def check_system(system: System) -> System:
    """Return ``system`` once its magnitudes are usable, else raise.

    Peak flops, every memory bandwidth and network bandwidth and latency,
    and the tier-1 capacity must be finite and > 0; a tier-2 capacity
    must be finite and >= 0.  The one check behind every system spec
    (:func:`system_from_dict`, and so a JSON file, the service and the
    fabric wire, and the shorthand of :func:`system_from_spec`), so a
    NaN or infinite field is a ``ValueError`` (an HTTP 400, an
    ``error: …`` exit), never a silently priced system.
    """
    name = system.name
    proc = system.processor
    _check_number(proc.matrix_flops, f"{name}: processor matrix_flops")
    _check_number(proc.vector_flops, f"{name}: processor vector_flops")
    _check_number(system.mem1.capacity, f"{name}: mem1 capacity")
    _check_number(system.mem1.bandwidth, f"{name}: mem1 bandwidth")
    if system.mem2 is not None:
        _check_number(system.mem2.capacity, f"{name}: mem2 capacity",
                      zero_ok=True)
        _check_number(system.mem2.bandwidth, f"{name}: mem2 bandwidth")
    for net in system.networks:
        _check_number(net.bandwidth, f"{name}: network {net.name} bandwidth")
        _check_number(net.latency, f"{name}: network {net.name} latency")
    return system


def system_from_dict(data: dict[str, Any]) -> System:
    """Build a :class:`System` from its dict form; raises ``ValueError``
    on a field :func:`check_system` rejects."""
    proc_d = data["processor"]
    processor = Processor(
        name=proc_d["name"],
        matrix_flops=proc_d["matrix_flops"],
        vector_flops=proc_d["vector_flops"],
        matrix_efficiency=curve_from_dict(proc_d["matrix_efficiency"]),
        vector_efficiency=curve_from_dict(proc_d["vector_efficiency"]),
    )
    return check_system(System(
        name=data["name"],
        num_procs=data["num_procs"],
        processor=processor,
        mem1=_tier_from_dict(data["mem1"]),
        networks=tuple(_net_from_dict(n) for n in data["networks"]),
        mem2=_tier_from_dict(data["mem2"]) if "mem2" in data else None,
    ))


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
    on an unknown kind, a non-finite or non-positive HBM size, a
    non-finite or negative DDR size, or (any form) a system
    :func:`check_system` rejects, so HTTP callers get a 400, not a process
    exit.
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
    _check_number(hbm, f"system spec {spec!r}: HBM", unit=" GiB")
    _check_number(ddr, f"system spec {spec!r}: DDR", zero_ok=True, unit=" GiB")
    offload = ddr5_offload(ddr) if ddr > 0 else None
    return check_system(factory(n, hbm_gib=hbm, offload=offload))

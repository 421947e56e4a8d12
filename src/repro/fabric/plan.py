"""Chunk planning and problem serialization for the search fabric.

The coordinator owns the *plan*: the candidate space is the exact row
sequence :func:`repro.search.columns.candidate_columns` emits (the same
order as :func:`repro.search.execution_search.candidate_strategies`),
sliced into contiguous ``[start, stop)`` chunks.  A chunk is identified by its index
into that plan; the plan itself is identified by the content-addressed
:func:`fabric_run_key` over the full problem, so a worker that joined the
wrong cluster — or a checkpoint journal from a different problem — is
rejected instead of silently mixing results.

Workers receive the problem over the wire as plain JSON (the same spec
dicts the evaluation service accepts) and re-enumerate the space locally;
enumeration is deterministic, so coordinator and every worker agree on
what global index ``i`` means without ever shipping candidate lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any

from ..cachekey import run_key
from ..hardware.system import System
from ..llm.config import LLMConfig
from ..search.columns import candidate_columns
from ..search.execution_search import SearchOptions

__all__ = [
    "ChunkSpec",
    "enumerate_space",
    "enumerate_serve_space",
    "fabric_run_key",
    "options_from_dict",
    "options_to_dict",
    "plan_chunks",
    "serve_fabric_run_key",
    "serve_options_from_dict",
    "serve_options_to_dict",
]

# The coordinator slices the space into this many chunks per expected
# worker: enough granularity for stealing to rebalance after a death,
# coarse enough that per-chunk HTTP round-trips stay negligible.
CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class ChunkSpec:
    """One contiguous slice ``[start, stop)`` of the candidate sequence."""

    index: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start

    def to_dict(self) -> dict[str, int]:
        return {"index": self.index, "start": self.start, "stop": self.stop}


def plan_chunks(
    total: int, workers: int, *, step: int | None = None
) -> list[ChunkSpec]:
    """Slice ``total`` candidates into contiguous chunks.

    ``step`` (the chunk size) wins when given — a resumed run must reuse
    the journaled layout; otherwise it is derived from the expected worker
    count exactly like ``search()`` derives its pool chunking.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    if step is None:
        step = math.ceil(total / (max(workers, 1) * CHUNKS_PER_WORKER))
    step = max(int(step), 1)
    return [
        ChunkSpec(index=i, start=start, stop=min(start + step, total))
        for i, start in enumerate(range(0, total, step))
    ]


def fabric_run_key(
    llm: LLMConfig,
    system: System,
    batch: int,
    options: SearchOptions,
    *,
    top_k: int,
) -> str:
    """The content key a fabric run (and its checkpoint journal) lives under.

    ``kind="fabric"`` keeps fabric journals from ever being confused with
    plain-search journals for the same problem; the chunk ``step`` stays
    out of the key (it lives in the journal *meta*, like ``search()``'s)
    so a resume with a different worker count still matches and simply
    reuses the original layout.
    """
    return run_key(llm, system, batch, options, kind="fabric",
                   extra={"top_k": int(top_k)})


def options_to_dict(options: SearchOptions) -> dict[str, Any]:
    """A :class:`SearchOptions` as a JSON-safe dict (tuples become lists)."""
    return {f.name: getattr(options, f.name) for f in fields(SearchOptions)}


def options_from_dict(data: dict[str, Any]) -> SearchOptions:
    """Rebuild a :class:`SearchOptions` from its JSON form.

    JSON turned every tuple into a list (and the nested mode triples into
    lists of lists); restore the dataclass's tuple-of-tuples shape so the
    rebuilt options hash and compare like the original — and produce a
    byte-identical :func:`fabric_run_key`.
    """
    kwargs: dict[str, Any] = {}
    for f in fields(SearchOptions):
        if f.name not in data:
            continue
        value = data[f.name]
        if isinstance(value, list):
            value = tuple(
                tuple(item) if isinstance(item, list) else item
                for item in value
            )
        kwargs[f.name] = value
    return SearchOptions(**kwargs)


def serve_fabric_run_key(
    llm: LLMConfig,
    system: System,
    options: "Any",
    workload: "Any",
    slo: "Any | None",
    *,
    top_k: int,
) -> str:
    """Content key for a fabric-sharded serve-search.

    ``kind="fabric-serve"`` keeps these journals apart from both training
    fabric runs and single-process serve-search journals; the workload and
    SLO ride in the extras so serving keys can never collide with training
    keys for the same (llm, system).
    """
    return run_key(
        llm, system, 0, options, kind="fabric-serve",
        extra={
            "workload": workload.to_dict(),
            "slo": slo.to_dict() if slo is not None else None,
            "top_k": int(top_k),
        },
    )


def serve_options_to_dict(options: "Any") -> dict[str, Any]:
    """A :class:`~repro.serving.ServeSearchOptions` as a JSON-safe dict."""
    from ..serving.search import ServeSearchOptions

    return {f.name: getattr(options, f.name) for f in fields(ServeSearchOptions)}


def serve_options_from_dict(data: dict[str, Any]) -> "Any":
    """Rebuild :class:`~repro.serving.ServeSearchOptions` from JSON form."""
    from ..serving.search import ServeSearchOptions

    kwargs: dict[str, Any] = {}
    for f in fields(ServeSearchOptions):
        if f.name not in data:
            continue
        value = data[f.name]
        if isinstance(value, list):
            value = tuple(value)
        kwargs[f.name] = value
    return ServeSearchOptions(**kwargs)


def enumerate_serve_space(
    llm: LLMConfig,
    system: System,
    options: "Any",
) -> tuple[list, int]:
    """Enumerate the serve-plan sequence once: ``(plans, total)``.

    Deterministic (see :func:`repro.serving.candidate_plans`), so
    coordinator and workers agree on what global index ``i`` means without
    shipping plan lists over the wire.
    """
    from ..serving.search import candidate_plans

    plans = candidate_plans(llm, system, options)
    return plans, len(plans)


def enumerate_space(
    llm: LLMConfig,
    system: System,
    batch: int,
    options: SearchOptions,
) -> tuple[dict, int]:
    """Enumerate the candidate space once, as columns: ``(cols, total)``.

    The vectorized enumerator takes milliseconds even for ~100k-candidate
    spaces and is deterministic, so global index ``i`` means the same
    candidate on the coordinator and on every worker.
    """
    cols = candidate_columns(llm, system, batch, options)
    return cols, int(cols["t"].shape[0])

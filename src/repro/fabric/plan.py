"""The fabric's problem statement on the wire, and its run key.

Workers receive the problem over the wire as plain JSON (the same spec
dicts the evaluation service accepts) and re-enumerate the candidate
space locally with :func:`repro.search.columns.candidate_columns`;
enumeration is deterministic, so coordinator and every worker agree on
what global index ``i`` means without ever shipping candidate lists.  The
problem is identified by the content-addressed :func:`fabric_run_key`, so
a worker that joined the wrong cluster — or a checkpoint journal from a
different problem — is rejected instead of silently mixing results.
Chunks are laid out by the search's own rule
(:func:`repro.search.faults.chunk_bounds`).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any

from ..cachekey import run_key
from ..hardware.system import System
from ..llm.config import LLMConfig
from ..search.execution_search import SearchOptions

__all__ = ["fabric_run_key", "options_from_dict", "options_to_dict"]


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

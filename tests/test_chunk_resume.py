"""Resume from any chunk prefix: ``search()`` and the fabric, one property.

Both paths lay out, journal and restore their chunks with the same code
(:func:`repro.search.faults.open_chunk_journal`), so one property covers
them: a journal holding chunks ``[0, k)`` of an uninterrupted run resumes
to that run's top-k and counts, for every ``k``.  A fabric checkpoint
recorded by an earlier release (``tests/golden/fabric_checkpoint.jsonl``,
whose records carry no ``rates`` key) must keep resuming to the same
answer; re-record it only when ``ENGINE_VERSION`` changes the run key.
"""

import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import run_fabric
from repro.search import search
from repro.search.checkpoint import CheckpointJournal
from tests.test_fabric import BATCH, LLM, SYS, reference, small_options, tops

GOLDEN = Path(__file__).parent / "golden" / "fabric_checkpoint.jsonl"


def _search(**kw):
    return search(LLM, SYS, BATCH, small_options(), top_k=5, workers=0, **kw)


def _fabric(**kw):
    return run_fabric(LLM, SYS, BATCH, small_options(), workers=2, top_k=5,
                      spawn="thread", timeout=120, **kw)


RUNS = {"search": _search, "fabric": _fabric}


@pytest.fixture(scope="module")
def journals(tmp_path_factory):
    """Each path's full journal from one uninterrupted checkpointed run."""
    root = tmp_path_factory.mktemp("journals")
    full = {}
    for path, run in RUNS.items():
        checkpoint = root / f"{path}.jsonl"
        run(checkpoint=str(checkpoint))
        full[path] = CheckpointJournal.load(checkpoint)
    return full


@pytest.mark.parametrize("path", sorted(RUNS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_any_chunk_prefix_resumes_to_the_uninterrupted_answer(
        path, journals, data):
    full = journals[path]
    chunks = math.ceil(full.meta["num_candidates"] / full.meta["step"])
    k = data.draw(st.integers(min_value=0, max_value=chunks), label="k")
    ref = reference()
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "prefix.jsonl"
        prefix = CheckpointJournal(checkpoint, full.key, full.meta)
        for rid, record in full.records().items():
            if int(rid) < k:
                prefix.record(rid, record)
        prefix.flush()
        result = RUNS[path](checkpoint=str(checkpoint), resume=True)
    assert result.stats.resumed_chunks == k
    assert result.num_evaluated == ref.num_evaluated
    assert result.num_feasible == ref.num_feasible
    assert tops(result) == tops(ref)


def test_fabric_checkpoint_from_an_earlier_release_still_resumes(tmp_path):
    checkpoint = tmp_path / "fabric.jsonl"
    shutil.copy(GOLDEN, checkpoint)
    old = CheckpointJournal.load(checkpoint)
    assert len(old) == 2
    assert all("rates" not in record for record in old.records().values())
    ref = reference()
    result = _fabric(checkpoint=str(checkpoint), resume=True)
    assert result.stats.resumed_chunks == 2
    assert result.num_evaluated == ref.num_evaluated
    assert result.num_feasible == ref.num_feasible
    assert result.top == ref.top

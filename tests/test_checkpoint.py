"""Checkpoint journal: keys, persistence, mismatch, and resume properties."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import a100_system
from repro.llm import LLMConfig
from repro.search import (
    CheckpointJournal,
    CheckpointMismatch,
    SearchOptions,
    run_key,
    search,
)

LLM = LLMConfig(name="ckpt-llm", hidden=2048, attn_heads=16, seq_size=1024,
                num_blocks=16)
SYS = a100_system(16)


def small_options(**kw):
    base = dict(
        recompute=("full",),
        seq_par_modes=((False, False, False),),
        tp_overlap=("none",),
        dp_overlap=(False,),
        optimizer_sharding=(False,),
        fused_activations=(False,),
        max_microbatch=4,
    )
    base.update(kw)
    return SearchOptions(**base)


# ---------------------------------------------------------------------------
# run_key
# ---------------------------------------------------------------------------

def test_run_key_is_deterministic():
    a = run_key(LLM, SYS, 32, small_options())
    b = run_key(LLM, SYS, 32, small_options())
    assert a == b and len(a) == 64


def test_run_key_sensitive_to_every_input():
    base = run_key(LLM, SYS, 32, small_options())
    other_llm = LLMConfig(name="ckpt-llm", hidden=4096, attn_heads=16,
                          seq_size=1024, num_blocks=16)
    assert run_key(other_llm, SYS, 32, small_options()) != base
    assert run_key(LLM, a100_system(32), 32, small_options()) != base
    assert run_key(LLM, SYS, 64, small_options()) != base
    assert run_key(LLM, SYS, 32, small_options(max_microbatch=2)) != base
    assert run_key(LLM, SYS, 32, small_options(), kind="sweep") != base
    assert run_key(LLM, SYS, 32, small_options(), extra={"top_k": 5}) != base


# ---------------------------------------------------------------------------
# journal persistence
# ---------------------------------------------------------------------------

def test_journal_roundtrip(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = CheckpointJournal.open(path, "key-1", meta={"step": 7})
    journal.record("0", {"n": 3})
    journal.record("1", {"n": 4})

    loaded = CheckpointJournal.load(path)
    assert loaded is not None
    assert loaded.key == "key-1"
    assert loaded.meta == {"step": 7}
    assert loaded.records() == {"0": {"n": 3}, "1": {"n": 4}}
    assert "0" in loaded and "2" not in loaded
    assert len(loaded) == 2
    assert list(loaded.ids()) == ["0", "1"]


def test_journal_file_is_always_complete_jsonl(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = CheckpointJournal.open(path, "key-1")
    journal.record("0", [1.5, 2.5])
    lines = path.read_text().splitlines()
    parsed = [json.loads(line) for line in lines]  # every line parses
    assert parsed[0]["kind"] == "calculon-journal"
    assert parsed[1] == {"kind": "record", "id": "0", "data": [1.5, 2.5]}


def test_resume_key_mismatch_raises(tmp_path):
    path = tmp_path / "j.jsonl"
    CheckpointJournal.open(path, "key-1").record("0", 1)
    with pytest.raises(CheckpointMismatch):
        CheckpointJournal.open(path, "key-2", resume=True)


def test_open_without_resume_starts_over(tmp_path):
    path = tmp_path / "j.jsonl"
    CheckpointJournal.open(path, "key-1").record("0", 1)
    fresh = CheckpointJournal.open(path, "key-1")
    assert len(fresh) == 0
    assert len(CheckpointJournal.load(path)) == 0


def test_resume_missing_file_is_fresh(tmp_path):
    journal = CheckpointJournal.open(tmp_path / "absent.jsonl", "k", resume=True)
    assert len(journal) == 0


def test_resume_adopts_journal_meta(tmp_path):
    path = tmp_path / "j.jsonl"
    CheckpointJournal.open(path, "k", meta={"step": 26})
    resumed = CheckpointJournal.open(path, "k", resume=True, meta={"step": 13})
    assert resumed.meta == {"step": 26}  # the journal's layout wins


def test_load_tolerates_malformed_lines(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = CheckpointJournal.open(path, "k")
    journal.record("0", 1)
    journal.record("1", 2)
    text = path.read_text()
    path.write_text(text + "{not json\n\n" + '{"kind": "mystery"}\n')
    loaded = CheckpointJournal.load(path)
    assert loaded.records() == {"0": 1, "1": 2}


def test_load_headerless_file_is_none(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text('{"kind": "record", "id": "0", "data": 1}\n')
    assert CheckpointJournal.load(path) is None


# ---------------------------------------------------------------------------
# property: record-line order never matters
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    records=st.dictionaries(
        st.text(alphabet="abc0123456789", min_size=1, max_size=4),
        st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=8)),
        max_size=8,
    ),
    seed=st.randoms(use_true_random=False),
)
def test_journal_merge_is_order_independent(tmp_path_factory, records, seed):
    tmp_path = tmp_path_factory.mktemp("journal")
    path = tmp_path / "j.jsonl"
    journal = CheckpointJournal(path, "k", meta={"m": 1})
    for rid, data in records.items():
        journal._records[rid] = data
    journal.flush()

    header, *record_lines = path.read_text().splitlines()
    seed.shuffle(record_lines)
    path.write_text("\n".join([header, *record_lines]) + "\n")

    loaded = CheckpointJournal.load(path)
    assert loaded.records() == records


# ---------------------------------------------------------------------------
# property: resuming after ANY prefix reproduces the full result
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One uninterrupted checkpointed search + its journal lines."""
    path = tmp_path_factory.mktemp("ref") / "ref.jsonl"
    result = search(LLM, SYS, batch=32, options=small_options(), workers=0,
                    top_k=5, keep_rates=True, checkpoint=path)
    return result, path.read_text().splitlines()


@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_resume_after_any_prefix_is_bit_identical(tmp_path_factory, full_run,
                                                  data):
    ref, lines = full_run
    header, record_lines = lines[0], lines[1:]
    keep = data.draw(
        st.integers(min_value=0, max_value=len(record_lines)), label="prefix"
    )

    # Simulate a run interrupted after `keep` journaled chunks.
    tmp_path = tmp_path_factory.mktemp("resume")
    path = tmp_path / "partial.jsonl"
    path.write_text("\n".join([header, *record_lines[:keep]]) + "\n")

    got = search(LLM, SYS, batch=32, options=small_options(), workers=0,
                 top_k=5, keep_rates=True, checkpoint=path, resume=True)

    assert got.num_evaluated == ref.num_evaluated
    assert got.num_feasible == ref.num_feasible
    assert np.array_equal(got.sample_rates, ref.sample_rates)
    assert [s.to_dict() for s, _ in got.top] == [s.to_dict() for s, _ in ref.top]
    assert [r.sample_rate for _, r in got.top] == [
        r.sample_rate for _, r in ref.top
    ]
    assert got.best.sample_rate == ref.best.sample_rate
    assert got.stats is not None and got.stats.resumed_chunks == keep
    assert not got.truncated

"""End-to-end: kill a checkpointed search mid-run, resume, compare.

This is the scenario the journal exists for: the process *dies* (not an
exception — ``os._exit``, like the OOM killer) halfway through a sweep, and
a fresh process with ``resume=True`` completes it bit-identically to a run
that was never interrupted.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.hardware import a100_system
from repro.llm import LLMConfig
from repro.search import CheckpointJournal, SearchOptions, search

LLM = LLMConfig(name="e2e-llm", hidden=2048, attn_heads=16, seq_size=1024,
                num_blocks=16)
SYS = a100_system(16)
REPO = Path(__file__).resolve().parent.parent

# Serial supervised runs slice the space into exactly 4 chunks
# (``ceil(len / (max(workers, 1) * 4))``); crashing on chunk 2 leaves
# chunks 0 and 1 in the journal — a genuine half-finished run.
CRASH_CHUNK = 2
EXIT_CODE = 23

_SCRIPT = """
import sys
from repro.llm import LLMConfig
from repro.hardware import a100_system
from repro.search import FaultInjector, search, SearchOptions

llm = LLMConfig(name="e2e-llm", hidden=2048, attn_heads=16, seq_size=1024,
                num_blocks=16)
opts = SearchOptions(
    recompute=("full",), seq_par_modes=((False, False, False),),
    tp_overlap=("none",), dp_overlap=(False,), optimizer_sharding=(False,),
    fused_activations=(False,), max_microbatch=4)
injector = FaultInjector({chunk}, mode="crash", exit_code={exit_code})
search(llm, a100_system(16), batch=32, options=opts, workers=0,
       top_k=5, keep_rates=True, checkpoint=sys.argv[1],
       fault_injector=injector)
print("UNEXPECTED: survived the crash")
"""


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


def test_crash_then_resume_matches_uninterrupted(tmp_path):
    journal_path = tmp_path / "journal.jsonl"

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         _SCRIPT.format(chunk=CRASH_CHUNK, exit_code=EXIT_CODE),
         str(journal_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == EXIT_CODE, proc.stderr
    assert "UNEXPECTED" not in proc.stdout

    # The crash left a valid partial journal: exactly the pre-crash chunks.
    partial = CheckpointJournal.load(journal_path)
    assert partial is not None
    assert sorted(partial.ids()) == [str(n) for n in range(CRASH_CHUNK)]

    ref = search(LLM, SYS, batch=32, options=small_options(), workers=0,
                 top_k=5, keep_rates=True, checkpoint=tmp_path / "ref.jsonl")
    got = search(LLM, SYS, batch=32, options=small_options(), workers=0,
                 top_k=5, keep_rates=True, checkpoint=journal_path,
                 resume=True)

    assert got.stats is not None and got.stats.resumed_chunks == CRASH_CHUNK
    assert got.num_evaluated == ref.num_evaluated
    assert got.num_feasible == ref.num_feasible
    assert np.array_equal(got.sample_rates, ref.sample_rates)
    assert [s.to_dict() for s, _ in got.top] == [s.to_dict() for s, _ in ref.top]
    assert [r.sample_rate for _, r in got.top] == [
        r.sample_rate for _, r in ref.top
    ]
    assert got.best.sample_rate == ref.best.sample_rate


# ---------------------------------------------------------------------------
# CLI fault flags
# ---------------------------------------------------------------------------

def test_cli_search_deadline_then_resume(tmp_path, capsys):
    journal = tmp_path / "cli.jsonl"
    rc = main(
        ["search", "megatron-22b", "a100:16", "--batch", "32",
         "--options", "baseline", "--top", "3", "--workers", "0",
         "--checkpoint", str(journal), "--deadline", "0"]
    )
    captured = capsys.readouterr()
    # Nothing was evaluated before the deadline, so the CLI reports "no
    # feasible configuration" (exit 1) — but warns and leaves the journal.
    assert rc == 1
    assert "deadline hit" in captured.err
    assert journal.exists()

    rc = main(
        ["search", "megatron-22b", "a100:16", "--batch", "32",
         "--options", "baseline", "--top", "3", "--workers", "0",
         "--checkpoint", str(journal), "--resume"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "deadline hit" not in captured.err
    assert "config" in captured.out


def test_cli_resume_requires_checkpoint():
    with pytest.raises(SystemExit, match="--resume requires --checkpoint"):
        main(["search", "megatron-22b", "a100:16", "--batch", "32",
              "--options", "baseline", "--workers", "0", "--resume"])


def test_cli_sweep_checkpoint(tmp_path, capsys):
    journal = tmp_path / "sweep.jsonl"
    rc = main(
        ["sweep", "megatron-22b", "a100:8", "--batch", "32",
         "--max-size", "16", "--step", "8", "--options", "baseline",
         "--checkpoint", str(journal)]
    )
    assert rc == 0
    assert "rel scaling" in capsys.readouterr().out
    assert journal.exists()
    rc = main(
        ["sweep", "megatron-22b", "a100:8", "--batch", "32",
         "--max-size", "16", "--step", "8", "--options", "baseline",
         "--checkpoint", str(journal), "--resume"]
    )
    assert rc == 0
    assert "resumed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# packaging metadata
# ---------------------------------------------------------------------------

def test_version_matches_pyproject():
    import repro

    text = (REPO / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert repro.__version__ == match.group(1)

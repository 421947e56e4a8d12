"""The training model's floats against a bit-exact golden.

The scalar oracle (:func:`repro.engine.evaluate`) and the columnar engine
price every layer and stage through the same formula functions, so the
equivalence suites, which compare one against the other, cannot see a
formula drift.  This golden can: it stores, as ``float.hex``, every
:func:`~repro.engine.profile.profile_block` field and every
:class:`PerformanceResult` time, memory, offload and MFU field of a fixed
grid, every infeasibility reason, the columnar ``survivor_results`` of the
same grid and the winners of a product-form ``search()``.

The grid crosses every block-level mode (recompute x seq-par/redo/2-D TP x
fusion x TP overlap) with five pipeline layouts (no pipeline, 1F1B,
interleaved, GPipe, a non-square ``t`` that 2-D TP rejects), and cycles the
stage-level modes (DP overlap / optimizer sharding, each offload switch,
training or inference) through those rows, on two systems with a tier-2
memory.  Each field is recorded as one digest over the grid's rows (with a
readable sample of rows beside it), in both builtin-``sum()`` forms
(CPython 3.11's plain sum, 3.12's Neumaier-compensated one), as the
inference and serve-search goldens are.

Regenerate (only when a formula is meant to change) with::

    PYTHONPATH=src python -m tests.test_model_golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.engine import EvalBatch, clear_caches, evaluate, profile_block
from repro.engine.batch import run_batch, survivor_results
from repro.engine.profile import BlockProfile
from repro.execution import ExecutionStrategy
from repro.io import llm_from_spec, system_from_spec
from repro.search import SearchOptions, search

from .test_serving_kernels import sum_form

GOLDEN = Path(__file__).parent / "golden" / "model_grid.json"

FORMS = {"plain": False, "neumaier": True}

# name -> (llm preset, system spec, global batch, microbatch)
PROBLEMS = {
    "tiny-test/a100:16:0.02:0.06": ("tiny-test", "a100:16:0.02:0.06", 32, 2),
    "megatron-22b/h100:16:80:96": ("megatron-22b", "h100:16:80:96", 32, 1),
}

RECOMPUTES = ("none", "attn_only", "full")
# (seq_par, tp_redo_sp, tp_mode)
BLOCK_MODES = {
    "1d": (False, False, "1d"),
    "sp": (True, False, "1d"),
    "sp+redo": (True, True, "1d"),
    "2d": (False, False, "2d"),
}
TP_OVERLAPS = ("none", "pipe", "ring")
# (t, p, d, interleaving, 1F1B) on 16 processors
PIPES = {
    "p1": (4, 1, 4, 1, True),
    "1f1b": (4, 2, 2, 1, True),
    "interleave": (4, 2, 2, 2, True),
    "gpipe": (1, 4, 4, 1, False),
    "t2": (2, 2, 4, 1, True),
}
# (dp_overlap, optimizer_sharding)
DP_MODES = ((False, False), (True, False), (False, True), (True, True))
# (weight, activation, optimizer) offload
OFFLOADS = ((False, False, False), (True, False, False), (False, True, False),
            (False, False, True), (True, True, True))
STAGE_MODES = tuple(itertools.product(DP_MODES, OFFLOADS, (True, False)))


def grid(batch: int, microbatch: int) -> list[ExecutionStrategy]:
    """Every block-level mode x pipeline layout, stage modes cycled through."""
    out = []
    combos = itertools.product(RECOMPUTES, BLOCK_MODES.values(), (False, True),
                               TP_OVERLAPS, PIPES.values())
    for i, (rc, (sp, redo, tpm), fus, tpo, pipe) in enumerate(combos):
        t, p, d, v, f1b = pipe
        (dpo, osh), (w_off, a_off, o_off), training = (
            STAGE_MODES[(7 * i) % len(STAGE_MODES)]
        )
        out.append(ExecutionStrategy(
            tensor_par=t, pipeline_par=p, data_par=d, batch=batch,
            microbatch=microbatch, pp_interleaving=v, pp_1f1b=f1b,
            pp_rs_ag=redo and p > 1, seq_par=sp, tp_redo_sp=redo, tp_mode=tpm,
            tp_overlap=tpo, dp_overlap=dpo, optimizer_sharding=osh,
            recompute=rc if training else "none", fused_activations=fus,
            weight_offload=w_off, activation_offload=a_off,
            optimizer_offload=o_off, training=training,
        ))
    return out


def result_fields(result) -> dict[str, str]:
    """Every float of a result as ``float.hex``, plus its verdict."""
    out = {"feasible": str(result.feasible), "reason": result.infeasibility,
           "mfu": result.mfu.hex()}
    for part in ("time", "mem1", "offload"):
        for field in dataclasses.fields(getattr(result, part)):
            out[f"{part}.{field.name}"] = getattr(result, part).__dict__[
                field.name].hex()
    return out


def profile_fields(prof: BlockProfile) -> dict[str, str]:
    return {f.name: getattr(prof, f.name).hex()
            for f in dataclasses.fields(BlockProfile)}


def digests(records: list[dict[str, str]]) -> dict[str, str]:
    """One SHA-256 per field over that field's values, row by row."""
    return {
        name: hashlib.sha256(
            "\n".join(r[name] for r in records).encode()
        ).hexdigest()[:32]
        for name in records[0]
    }


def record_problem(name: str) -> dict:
    llm_name, system_spec, batch, microbatch = PROBLEMS[name]
    llm, system = llm_from_spec(llm_name), system_from_spec(system_spec)
    strategies = grid(batch, microbatch)
    scalar = [evaluate(llm, system, s) for s in strategies]
    rows = [result_fields(r) for r in scalar]

    keys = sorted({(s.microbatch, s.tensor_par, s.seq_par, s.fused_activations,
                    s.tp_redo_sp, s.recompute, s.tp_mode)
                   for s, r in zip(strategies, scalar) if r.feasible})
    profiles = [profile_fields(profile_block(llm, system, *k)) for k in keys]

    eb = run_batch(EvalBatch.from_strategies(llm, system, strategies))
    columnar = [result_fields(r) for r in survivor_results(eb)]

    found = search(llm, system, batch, SearchOptions.all_with_offload(),
                   top_k=3)
    return {
        "rows": len(rows),
        "feasible": sum(r.feasible for r in scalar),
        "reasons": dict(sorted(Counter(
            r.infeasibility for r in scalar if not r.feasible).items())),
        "results": digests(rows),
        "sample": {strategies[i].short_name() + f"#{i}": rows[i]
                   for i in range(0, len(rows), 45)},
        "profiles": digests(profiles),
        "profile_keys": len(keys),
        "columnar": {
            "survivors": len(columnar),
            "rows": [int(i) for i in eb.inp_s.tolist()],
            "results": digests(columnar),
        },
        "search": {
            "evaluated": found.num_evaluated,
            "feasible": found.num_feasible,
            "top": [{"strategy": s.to_dict(), "result": result_fields(r)}
                    for s, r in found.top],
        },
    }


def record_form(compensated: bool) -> dict:
    with sum_form(compensated):
        clear_caches()
        try:
            return {name: record_problem(name) for name in PROBLEMS}
        finally:
            clear_caches()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("form", FORMS)
def test_model_matches_golden(golden, form):
    got = record_form(FORMS[form])
    for name in PROBLEMS:
        want = golden[form][name]
        for key in want:
            assert got[name][key] == want[key], (form, name, key)


def test_golden_covers_every_mode_and_verdict(golden):
    problems = golden["plain"]
    for rec in problems.values():
        assert rec["rows"] == len(grid(32, 1))
        assert 0 < rec["feasible"] < rec["rows"]
        assert rec["columnar"]["survivors"] == rec["feasible"]
        assert rec["search"]["top"]
    reasons = " ".join(r for rec in problems.values() for r in rec["reasons"])
    for needle in ("tier-1 memory", "tier-2 memory", "square t"):
        assert needle in reasons, needle
    stages = {s for s in STAGE_MODES}
    cycled = {STAGE_MODES[(7 * i) % len(STAGE_MODES)]
              for i in range(len(grid(32, 1)))}
    assert cycled == stages


def test_the_two_sum_forms_differ_somewhere(golden):
    """The neumaier half is not a copy of the plain one."""
    assert golden["plain"] != golden["neumaier"]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    data = {form: record_form(compensated) for form, compensated in FORMS.items()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

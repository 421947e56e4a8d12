"""`calculate_inference`, `repro inference` and `repro deployments` against a golden.

The golden was recorded from the inference model's own decode-step,
prefill, weight and KV-cache formulas, before they were replaced by the
serving kernels (``_Kernels.step``, :func:`repro.engine.batch.prefill_columns`
at the request batch, ``weights_bytes`` and ``kv_reserve_bytes``).  Every
:class:`InferenceResult` field is stored as ``float.hex`` (ints and strings
as themselves), the deployment sweeps as a digest over every candidate's
result, and the two verbs' stdout byte for byte.  Each record exists in
both builtin-``sum()`` forms (CPython 3.11's plain sum, 3.12's
Neumaier-compensated one), as in the serve-search golden.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.inference import (
    InferenceStrategy,
    calculate_inference,
    candidate_deployments,
    search_deployments,
)
from repro.io import llm_from_spec, system_from_spec

from .test_serving_kernels import fresh_tables, sum_form

GOLDEN = Path(__file__).parent / "golden" / "inference_verbs.json"

# name -> (llm, bits, system, (t, p, d, batch), prompt, generate, latency mode)
CASES = {
    "gpt3-175b/a100:16/t8p2d1b8": (
        "gpt3-175b", 16, "a100:16", (8, 2, 1, 8), 2048, 256, False),
    "llama2-70b/h100:8/t4p1d2b1": (
        "llama2-70b", 16, "h100:8", (4, 1, 2, 1), 2048, 256, False),
    "llama2-70b/h100:8/t8p1d1b16": (
        "llama2-70b", 16, "h100:8", (8, 1, 1, 16), 2048, 256, False),
    "megatron-22b/a100:8/t2p4d1b8/latency": (
        "megatron-22b", 16, "a100:8", (2, 4, 1, 8), 2048, 256, True),
    "megatron-22b/a100:8/t2p4d1b8/pipelined": (
        "megatron-22b", 16, "a100:8", (2, 4, 1, 8), 2048, 256, False),
    "megatron-1t/a100:8/t8p1d1b8/infeasible": (
        "megatron-1t", 16, "a100:8", (8, 1, 1, 8), 2048, 256, False),
    "gpt3-175b/a100:16/t8p2d1b8/gen0": (
        "gpt3-175b", 16, "a100:16", (8, 2, 1, 8), 2048, 0, False),
    "llama2-70b/h100:8/t8p1d1b4/prompt128gen0": (
        "llama2-70b", 16, "h100:8", (8, 1, 1, 4), 128, 0, False),
    "llama2-70b-8bit/h100:8/t4p2d1b16": (
        "llama2-70b", 8, "h100:8", (4, 2, 1, 16), 512, 64, False),
    "llama2-70b-32bit/h100:8/t4p2d1b16": (
        "llama2-70b", 32, "h100:8", (4, 2, 1, 16), 512, 64, False),
}

INFERENCE_ARGV = {
    "gpt3-175b": ["inference", "gpt3-175b", "a100:16", "--tp", "8", "--pp", "2"],
    "llama2-70b-b16": ["inference", "llama2-70b", "h100:8", "--tp", "8",
                       "--batch", "16"],
    "megatron-22b-latency": ["inference", "megatron-22b", "a100:8", "--tp", "2",
                             "--pp", "4", "--latency-mode"],
    "megatron-1t-infeasible": ["inference", "megatron-1t", "a100:8"],
    "gen0": ["inference", "gpt3-175b", "a100:16", "--tp", "8", "--pp", "2",
             "--generate", "0"],
}

# name -> (llm, system, prompt, generate)
SWEEPS = {
    "megatron-22b/a100:8": ("megatron-22b", "a100:8", 2048, 256),
    "llama2-70b/h100:16/512-64": ("llama2-70b", "h100:16", 512, 64),
}

DEPLOYMENTS_ARGV = {
    "megatron-22b/a100:8": ["deployments", "megatron-22b", "a100:8"],
    "llama2-70b/h100:16/512-64": ["deployments", "llama2-70b", "h100:16",
                                  "--prompt", "512", "--generate", "64"],
    "megatron-1t/a100:8": ["deployments", "megatron-1t", "a100:8"],
}

FORMS = {"plain": False, "neumaier": True}


def _llm(name, bits):
    llm = llm_from_spec(name)
    return llm if bits == 16 else dataclasses.replace(llm, bits_per_element=bits)


def _fields(result) -> dict:
    return {
        f.name: (v.hex() if isinstance(v, float) else v)
        for f in dataclasses.fields(result)
        for v in (getattr(result, f.name),)
    }


def record_case(name) -> dict:
    llm, bits, system, (t, p, d, batch), prompt, generate, latency = CASES[name]
    strategy = InferenceStrategy(tensor_par=t, pipeline_par=p, data_par=d,
                                 batch=batch, pipelined_requests=not latency)
    return _fields(calculate_inference(
        _llm(llm, bits), system_from_spec(system), strategy,
        prompt_len=prompt, generate_len=generate,
    ))


def record_sweep(name) -> dict:
    llm, system, prompt, generate = SWEEPS[name]
    llm, system = llm_from_spec(llm), system_from_spec(system)
    results = [
        calculate_inference(llm, system, s, prompt_len=prompt,
                            generate_len=generate)
        for s in candidate_deployments(llm, system)
    ]
    front = search_deployments(llm, system, prompt_len=prompt,
                               generate_len=generate)
    return {
        "candidates": len(results),
        "feasible": sum(1 for r in results if r.feasible),
        "digest": hashlib.sha256(json.dumps(
            [_fields(r) for r in results], sort_keys=True
        ).encode()).hexdigest(),
        "front": [_fields(point.result) for point in front],
    }


def record_cli(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    return {"rc": rc, "stdout": out.getvalue()}


def record_all() -> dict:
    """Every record in both ``sum()`` forms, as the golden file stores it."""
    golden = {}
    for form, compensated in FORMS.items():
        with sum_form(compensated), fresh_tables():
            golden[form] = {
                "cases": {name: record_case(name) for name in CASES},
                "sweeps": {name: record_sweep(name) for name in SWEEPS},
                "inference": {name: record_cli(argv)
                              for name, argv in INFERENCE_ARGV.items()},
                "deployments": {name: record_cli(argv)
                                for name, argv in DEPLOYMENTS_ARGV.items()},
            }
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", CASES)
def test_inference_result_matches_golden(golden, form, name):
    with sum_form(FORMS[form]), fresh_tables():
        assert record_case(name) == golden[form]["cases"][name]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", SWEEPS)
def test_deployment_sweep_matches_golden(golden, form, name):
    with sum_form(FORMS[form]), fresh_tables():
        assert record_sweep(name) == golden[form]["sweeps"][name]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", INFERENCE_ARGV)
def test_inference_verb_stdout_matches_golden(golden, form, name):
    with sum_form(FORMS[form]), fresh_tables():
        assert record_cli(INFERENCE_ARGV[name]) == golden[form]["inference"][name]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", DEPLOYMENTS_ARGV)
def test_deployments_verb_stdout_matches_golden(golden, form, name):
    with sum_form(FORMS[form]), fresh_tables():
        assert record_cli(DEPLOYMENTS_ARGV[name]) == golden[form]["deployments"][name]


def test_golden_covers_feasible_and_infeasible_results(golden):
    cases = golden["plain"]["cases"]
    assert not cases["megatron-1t/a100:8/t8p1d1b8/infeasible"]["feasible"]
    assert sum(c["feasible"] for c in cases.values()) == len(cases) - 1
    assert golden["plain"]["deployments"]["megatron-1t/a100:8"]["rc"] == 1

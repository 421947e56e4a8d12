"""`calculate_inference` and the serving simulator price a deployment alike.

Both go through the serving kernels; Hypothesis checks the figures agree
with ``==`` over the shipped models, small pools, batches and request
shapes.  Each side runs on empty kernel tables, so neither reads a price
the other stored.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import a100_system, h100_system
from repro.inference import InferenceStrategy, calculate_inference
from repro.inference.search import shardings
from repro.llm.config import iter_presets
from repro.serving import decode_step_time, prefill_time, weights_bytes

from .test_serving_kernels import fresh_tables

MODELS = list(iter_presets())


@st.composite
def deployments(draw):
    """``(llm, system, strategy)``: a valid sharding of a pool big enough to fit."""
    llm = draw(st.sampled_from(MODELS))
    make = draw(st.sampled_from([a100_system, h100_system]))
    system = make(draw(st.sampled_from([1, 2, 4, 8, 16])), hbm_gib=1e6)
    sharding = draw(st.sampled_from(shardings(llm, system.num_procs, 64)))
    strategy = InferenceStrategy(
        tensor_par=sharding.tensor_par, pipeline_par=sharding.pipeline_par,
        data_par=sharding.data_par, batch=draw(st.sampled_from([1, 2, 8, 64])),
        pipelined_requests=draw(st.booleans()),
    )
    return llm, system, strategy


@settings(max_examples=120, deadline=None)
@given(dep=deployments(), prompt_len=st.integers(1, 4096),
       generate_len=st.integers(0, 1024))
def test_inference_prices_like_serving(dep, prompt_len, generate_len):
    llm, system, strategy = dep
    t, p, batch = strategy.tensor_par, strategy.pipeline_par, strategy.batch
    with fresh_tables():
        res = calculate_inference(llm, system, strategy, prompt_len=prompt_len,
                                  generate_len=generate_len)
    assert res.feasible
    context = prompt_len + max(generate_len, 1) // 2
    with fresh_tables():
        assert res.decode_step_time == decode_step_time(
            llm, system, t, p, batch, context
        )
    if batch == 1:
        with fresh_tables():
            assert res.prefill_time == prefill_time(llm, system, t, p, prompt_len)
    assert res.weights_bytes == weights_bytes(llm, t, p)

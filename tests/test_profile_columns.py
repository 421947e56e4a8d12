"""Columnar profile stage: bit-identical to the scalar ``profile_block``.

``batch_profile`` prices every profile group's block in one vectorized pass
(:func:`repro.engine.batch.profile_columns`) instead of building a block per
group.  The scalar :func:`repro.engine.profile.profile_block` stays the
oracle: every ``gprof`` column must equal the scalar field with ``==`` for
random LLM shapes, efficiency curves, memory tiers (including the
small-access ramp) and every sharding/fusion/recompute/TP-mode key.
"""

import dataclasses
import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.profile as profile_mod
import repro.llm.blocks as blocks_mod
from repro.engine import batch as engine_batch
from repro.engine.profile import profile_block
from repro.execution import ExecutionStrategy
from repro.hardware import a100_system
from repro.hardware.processor import EfficiencyCurve
from repro.llm import GPT3_175B, LLMConfig

RECOMPUTES = ("none", "attn_only", "full")


def _system(num_procs, curve, ramp):
    system = a100_system(num_procs)
    if curve is not None:
        proc = dataclasses.replace(
            system.processor,
            matrix_efficiency=EfficiencyCurve.flat(curve),
            vector_efficiency=EfficiencyCurve.flat(curve / 2),
        )
        system = dataclasses.replace(system, processor=proc)
    if ramp:
        # Every access below 1 TiB sits on the log2 small-access ramp.
        mem1 = dataclasses.replace(system.mem1, small_access_bytes=float(1 << 40))
        system = dataclasses.replace(system, mem1=mem1)
    return system


def _grid(llm, tps, microbatches, num_procs):
    """Every valid profile key over ``tps`` x ``microbatches`` as strategies."""
    out = []
    for t, m, sp, redo, fus, rc, mode in itertools.product(
        tps, microbatches, (False, True), (False, True), (False, True),
        RECOMPUTES, ("1d", "2d"),
    ):
        if redo and not sp:
            continue
        if mode == "2d" and (sp or math.isqrt(t) ** 2 != t):
            continue
        if sp and llm.seq_size % t:
            continue
        d = num_procs // t
        out.append(ExecutionStrategy(
            tensor_par=t, pipeline_par=1, data_par=d, batch=m * d,
            microbatch=m, seq_par=sp, tp_redo_sp=redo, tp_mode=mode,
            fused_activations=fus, recompute=rc,
        ))
    return out


def _profiled(llm, system, strategies):
    eb = engine_batch.EvalBatch.from_strategies(llm, system, strategies)
    engine_batch.batch_validate(eb)
    assert eb.n_invalid == 0
    engine_batch.batch_profile(eb)
    return eb


def _assert_matches_oracle(llm, system, strategies, eb):
    assert set(eb.gprof) == set(engine_batch._PROF_FIELDS)
    firsts = {}
    for row, g in enumerate(eb.gid.tolist()):
        firsts.setdefault(g, strategies[int(eb.vidx[row])])
    assert len(firsts) == eb.n_groups
    for g, s in firsts.items():
        prof = profile_block(
            llm, system, s.microbatch, s.tensor_par, s.seq_par,
            s.fused_activations, s.tp_redo_sp, s.recompute, s.tp_mode,
        )
        for name in engine_batch._PROF_FIELDS:
            assert eb.gprof[name][g] == getattr(prof, name), (name, s)


@st.composite
def shapes(draw):
    """A random LLM plus tensor-parallel degrees dividing its shape."""
    t_max = draw(st.sampled_from([1, 2, 4, 8]))
    heads = t_max * draw(st.integers(1, 3))
    head_dim = draw(st.sampled_from([8, 24, 64, 80]))
    hidden = heads * head_dim
    llm = LLMConfig(
        name="rand",
        hidden=hidden,
        attn_heads=heads,
        seq_size=t_max * draw(st.integers(1, 96)),
        num_blocks=draw(st.integers(1, 4)),
        feedforward=hidden * draw(st.integers(1, 5)),
        bits_per_element=draw(st.sampled_from([8, 16, 32])),
    )
    tps = [t for t in (1, 2, 4, 8) if t <= t_max]
    return llm, tps, t_max


@given(
    shape=shapes(),
    microbatches=st.lists(st.integers(1, 12), min_size=1, max_size=2, unique=True),
    curve=st.one_of(st.none(), st.floats(0.05, 1.0)),
    ramp=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_profile_columns_equal_scalar_profile(shape, microbatches, curve, ramp):
    llm, tps, t_max = shape
    system = _system(t_max, curve, ramp)
    strategies = _grid(llm, tps, microbatches, t_max)
    eb = _profiled(llm, system, strategies)
    _assert_matches_oracle(llm, system, strategies, eb)


def test_profile_columns_equal_scalar_profile_at_gpt3_scale():
    system = a100_system(64)
    strategies = _grid(GPT3_175B, [1, 2, 4, 8, 16, 32], [1, 4, 32], 64)
    eb = _profiled(GPT3_175B, system, strategies)
    assert eb.n_groups == len(strategies)
    _assert_matches_oracle(GPT3_175B, system, strategies, eb)


def test_batch_profile_builds_no_block_or_scalar_profile(monkeypatch):
    llm, system = GPT3_175B, a100_system(64)
    strategies = _grid(llm, [1, 2, 4, 8, 16], [1, 2], 64)
    assert len(strategies) >= 32
    expected = _profiled(llm, system, strategies).gprof

    def boom(*args, **kwargs):
        raise AssertionError("batch_profile must not build a block per group")

    monkeypatch.setattr(profile_mod, "profile_block", boom)
    monkeypatch.setattr(profile_mod, "_block_base", boom)
    monkeypatch.setattr(profile_mod, "build_block", boom)
    monkeypatch.setattr(blocks_mod, "build_block", boom)
    got = _profiled(llm, system, strategies).gprof
    for name in engine_batch._PROF_FIELDS:
        np.testing.assert_array_equal(got[name], expected[name])


@given(st.lists(
    st.one_of(st.floats(0.0, 1e17), st.floats(0.0, 1e-3), st.just(0.0)),
    min_size=1, max_size=12,
))
@settings(max_examples=200, deadline=None)
def test_builtin_sum_matches_python_sum(values):
    # The scalar profile aggregates with sum(), whose rounding depends on
    # the Python version (compensated from 3.12 on); the columns follow.
    cols = [np.array([v, v / 3.0]) for v in values]
    got = engine_batch._builtin_sum(cols)
    assert got[0] == sum(values)
    assert got[1] == sum(v / 3.0 for v in values)

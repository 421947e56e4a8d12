"""Per-layer profiling tests."""

import pytest

from repro.core import hottest_layers, profile_layers
from repro.execution import ExecutionStrategy
from repro.hardware import a100_system
from repro.llm import LLMConfig

LLM = LLMConfig(name="lr-llm", hidden=4096, attn_heads=32, seq_size=2048,
                num_blocks=8)
SYS = a100_system(8, hbm_gib=1_000_000)


def strat(**kw):
    base = dict(tensor_par=8, pipeline_par=1, data_par=1, batch=8, microbatch=1)
    base.update(kw)
    return ExecutionStrategy(**base)


def test_profiles_cover_all_block_layers():
    profiles = profile_layers(LLM, SYS, strat())
    assert len(profiles) == 15
    names = [p.name for p in profiles]
    assert names[0] == "attn_ln"
    assert "mlp_fc2_gemm" in names


def test_gemms_dominate_time():
    profiles = profile_layers(LLM, SYS, strat())
    gemm_time = sum(p.total_time for p in profiles if p.engine == "matrix")
    total = sum(p.total_time for p in profiles)
    assert gemm_time / total > 0.5


def test_layer_times_sum_to_block_profile():
    from repro.engine import profile_block

    profiles = profile_layers(LLM, SYS, strat())
    prof = profile_block(LLM, SYS, 1, 8, False, False, False, "none", "1d")
    assert sum(p.fw_time for p in profiles) == pytest.approx(prof.fw_time)
    assert sum(p.bw_time for p in profiles) == pytest.approx(prof.bw_time)


def test_large_gemms_compute_bound_elementwise_memory_bound():
    profiles = {p.name: p for p in profile_layers(LLM, SYS, strat(microbatch=4))}
    assert profiles["mlp_fc1_gemm"].fw_compute_bound
    assert not profiles["attn_ln"].fw_compute_bound
    assert not profiles["mlp_dropout"].fw_compute_bound


def test_hottest_layers_sorted():
    profiles = profile_layers(LLM, SYS, strat())
    hot = hottest_layers(profiles, 3)
    assert len(hot) == 3
    assert hot[0].total_time >= hot[1].total_time >= hot[2].total_time
    assert all("gemm" in p.name for p in hot)


def test_hottest_layers_validation():
    profiles = profile_layers(LLM, SYS, strat())
    with pytest.raises(ValueError):
        hottest_layers(profiles, 0)


def test_invalid_strategy_raises():
    with pytest.raises(ValueError):
        profile_layers(LLM, SYS, strat(data_par=3))


def test_fusion_changes_profile():
    plain = {p.name: p for p in profile_layers(LLM, SYS, strat())}
    fused = {p.name: p for p in profile_layers(
        LLM, SYS, strat(fused_activations=True))}
    assert "mlp_gelu_fused" in fused
    assert fused["mlp_gelu_fused"].fw_time <= plain["mlp_gelu"].fw_time


def test_cli_layers_subcommand(capsys):
    from repro.cli import main

    rc = main(["layers", "megatron-22b", "a100:16", "--tp", "8", "--pp", "2",
               "--batch", "16"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mlp_fc1_gemm" in out
    assert "hottest layers" in out


def test_cli_layers_invalid(capsys):
    from repro.cli import main

    rc = main(["layers", "megatron-22b", "a100:16", "--tp", "8", "--pp", "3",
               "--batch", "16"])
    assert rc == 1
    assert "error" in capsys.readouterr().out

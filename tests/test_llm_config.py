"""LLM configuration tests (paper §2.1)."""

import pytest

from repro.llm import (
    GPT3_175B,
    LLMConfig,
    MEGATRON_1T,
    MEGATRON_22B,
    TURING_530B,
    get_preset,
    iter_presets,
)


def test_gpt3_parameter_count_is_approximately_175b():
    # 96 blocks x 12288 hidden reproduces the published ~175e9 parameters.
    assert GPT3_175B.total_parameters == pytest.approx(175e9, rel=0.03)


def test_megatron_1t_parameter_count():
    assert MEGATRON_1T.total_parameters == pytest.approx(1.0e12, rel=0.03)


def test_turing_530b_parameter_count():
    assert TURING_530B.total_parameters == pytest.approx(530e9, rel=0.03)


def test_megatron_22b_parameter_count():
    assert MEGATRON_22B.total_parameters == pytest.approx(22e9, rel=0.1)


def test_feedforward_defaults_to_4x_hidden():
    cfg = LLMConfig(name="x", hidden=1024, attn_heads=16, seq_size=128, num_blocks=2)
    assert cfg.feedforward == 4096


def test_explicit_feedforward_is_kept():
    cfg = LLMConfig(
        name="x", hidden=1024, attn_heads=16, seq_size=128, num_blocks=2, feedforward=2048
    )
    assert cfg.feedforward == 2048


def test_attn_size_divides_hidden():
    assert GPT3_175B.attn_size == 12288 // 96


def test_hidden_must_divide_by_heads():
    with pytest.raises(ValueError, match="divisible"):
        LLMConfig(name="bad", hidden=1000, attn_heads=7, seq_size=128, num_blocks=2)


@pytest.mark.parametrize("field", ["hidden", "attn_heads", "seq_size", "num_blocks"])
def test_positive_hyperparameters_required(field):
    kwargs = dict(name="bad", hidden=512, attn_heads=8, seq_size=128, num_blocks=2)
    kwargs[field] = 0
    with pytest.raises(ValueError):
        LLMConfig(**kwargs)


@pytest.mark.parametrize("field, value", [
    ("num_blocks", 8.5), ("attn_heads", True), ("seq_size", float("inf")),
    ("hidden", "512"), ("vocab_size", -5), ("feedforward", -4),
    ("feedforward", 0.0),
])
def test_shape_fields_must_be_integers_at_least_one(field, value):
    kwargs = dict(name="bad", hidden=512, attn_heads=8, seq_size=128, num_blocks=2)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        LLMConfig(**kwargs)


def test_unsupported_precision_rejected():
    with pytest.raises(ValueError, match="precision"):
        LLMConfig(
            name="bad", hidden=512, attn_heads=8, seq_size=128, num_blocks=2,
            bits_per_element=12,
        )


def test_block_parameters_formula():
    cfg = LLMConfig(name="x", hidden=8, attn_heads=2, seq_size=4, num_blocks=1)
    h, f = 8, 32
    expected = (h * 3 * h + 3 * h + h * h + h) + (h * f + f + f * h + h) + 4 * h
    assert cfg.block_parameters == expected


def test_with_seq_returns_modified_copy():
    longer = GPT3_175B.with_seq(4096)
    assert longer.seq_size == 4096
    assert GPT3_175B.seq_size == 2048
    assert longer.hidden == GPT3_175B.hidden


def test_dict_roundtrip():
    again = LLMConfig.from_dict(GPT3_175B.to_dict())
    assert again == GPT3_175B


def test_get_preset_known_and_unknown():
    assert get_preset("gpt3-175b") is GPT3_175B
    with pytest.raises(KeyError, match="unknown LLM preset"):
        get_preset("nope")


def test_iter_presets_contains_paper_models():
    names = {m.name for m in iter_presets()}
    assert {"gpt3-175b", "turing-530b", "megatron-1t", "megatron-22b"} <= names


def test_bytes_per_element():
    assert GPT3_175B.bytes_per_element == 2


def test_palm_540b_scale():
    from repro.llm import PALM_540B

    # PaLM's published 540B count includes SwiGLU/multi-query deltas; the
    # standard-transformer equivalent preserves the scale within ~15%.
    assert PALM_540B.total_parameters == pytest.approx(540e9, rel=0.15)
    assert PALM_540B.vocab_size == 256000


def test_bloom_176b_scale():
    from repro.llm import BLOOM_176B

    assert BLOOM_176B.total_parameters == pytest.approx(176e9, rel=0.05)

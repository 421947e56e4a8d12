"""LLM application configuration (paper §2.1).

The model structure follows the Megatron framework: a stack of identical
transformer blocks (Fig. 1), each a multi-head attention block followed by an
MLP block, with layer normalization, dropout and residual connections.  The
hyperparameters below fully determine the compute, communication and memory
footprint analyzed by the performance model.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Iterator

# Shape hyperparameters that must be integers >= 1.
_SHAPE_FIELDS = ("hidden", "attn_heads", "seq_size", "num_blocks",
                 "feedforward", "vocab_size")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class LLMConfig:
    """Hyperparameters of a transformer-based LLM.

    Attributes:
        name: human-readable identifier, e.g. ``"gpt3-175b"``.
        hidden: embedding / hidden dimension (``h``).
        feedforward: MLP intermediate dimension; Megatron uses ``4 * hidden``.
        attn_heads: number of attention heads (``a``); must divide ``hidden``.
        seq_size: input sequence length in tokens (``s``).
        num_blocks: number of transformer blocks (``L``).
        vocab_size: vocabulary size used for the embedding / LM head;
            only affects total parameter counts reported for context.
        bits_per_element: numeric precision of activations/weights during
            training (16 for fp16/bf16 mixed precision, as in Megatron).
    """

    name: str
    hidden: int
    attn_heads: int
    seq_size: int
    num_blocks: int
    feedforward: int = 0
    vocab_size: int = 51200
    bits_per_element: int = 16

    def __post_init__(self) -> None:
        # Every path that builds a config (presets, from_dict, JSON files,
        # service bodies) passes through here: shape fields are integers
        # >= 1, never bools, floats or infinities.
        if _is_int(self.feedforward) and self.feedforward == 0:
            object.__setattr__(self, "feedforward", 4 * self.hidden)
        for field in _SHAPE_FIELDS:
            value = getattr(self, field)
            if not _is_int(value):
                raise ValueError(
                    f"{self.name}: {field} must be an integer, got {value!r}"
                )
            if value < 1:
                raise ValueError(f"{self.name}: {field} must be >= 1, got {value}")
        if self.hidden % self.attn_heads != 0:
            raise ValueError(
                f"{self.name}: hidden ({self.hidden}) must be divisible by "
                f"attn_heads ({self.attn_heads})"
            )
        if self.bits_per_element not in (8, 16, 32):
            raise ValueError(f"{self.name}: unsupported precision {self.bits_per_element}")

    @property
    def attn_size(self) -> int:
        """Per-head attention dimension (``hidden / attn_heads``)."""
        return self.hidden // self.attn_heads

    @property
    def bytes_per_element(self) -> int:
        return self.bits_per_element // 8

    @property
    def block_parameters(self) -> int:
        """Weight + bias + layernorm parameters of one transformer block.

        Attention: QKV projection ``h x 3h`` (+3h bias), output projection
        ``h x h`` (+h bias).  MLP: ``h x ff`` (+ff) and ``ff x h`` (+h).
        Two LayerNorms contribute ``2 * 2h``.
        """
        h, f = self.hidden, self.feedforward
        attn = h * 3 * h + 3 * h + h * h + h
        mlp = h * f + f + f * h + h
        norms = 4 * h
        return attn + mlp + norms

    @property
    def embedding_parameters(self) -> int:
        """Token embedding table (shared with the LM head in Megatron/GPT)."""
        return self.vocab_size * self.hidden + self.seq_size * self.hidden

    @property
    def total_parameters(self) -> int:
        """Full model parameter count (blocks + embeddings + final norm)."""
        return self.num_blocks * self.block_parameters + self.embedding_parameters + 2 * self.hidden

    def with_seq(self, seq_size: int) -> "LLMConfig":
        """Return a copy with a different sequence length."""
        return replace(self, seq_size=seq_size)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "hidden": self.hidden,
            "feedforward": self.feedforward,
            "attn_heads": self.attn_heads,
            "seq_size": self.seq_size,
            "num_blocks": self.num_blocks,
            "vocab_size": self.vocab_size,
            "bits_per_element": self.bits_per_element,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LLMConfig":
        return cls(**data)


# ---------------------------------------------------------------------------
# Presets — sizes follow the papers cited in the evaluation:
#   Megatron-22B/175B/530B/1T per Korthikanti et al. '22 and Narayanan et al.
#   '21 (the validation configurations of Table 2 and studies of §§4-7).
# ---------------------------------------------------------------------------

_PRESETS: dict[str, LLMConfig] = {}


def _register(cfg: LLMConfig) -> LLMConfig:
    _PRESETS[cfg.name] = cfg
    return cfg


MEGATRON_22B = _register(
    LLMConfig(name="megatron-22b", hidden=6144, attn_heads=64, seq_size=2048, num_blocks=48)
)
GPT3_175B = _register(
    LLMConfig(name="gpt3-175b", hidden=12288, attn_heads=96, seq_size=2048, num_blocks=96)
)
TURING_530B = _register(
    LLMConfig(name="turing-530b", hidden=20480, attn_heads=128, seq_size=2048, num_blocks=105)
)
MEGATRON_1T = _register(
    LLMConfig(name="megatron-1t", hidden=25600, attn_heads=160, seq_size=2048, num_blocks=128)
)
CHINCHILLA_70B = _register(
    LLMConfig(name="chinchilla-70b", hidden=8192, attn_heads=64, seq_size=2048, num_blocks=80)
)
LLAMA2_70B = _register(
    LLMConfig(name="llama2-70b", hidden=8192, attn_heads=64, seq_size=4096, num_blocks=80)
)
GPT2_1P5B = _register(
    LLMConfig(name="gpt2-1.5b", hidden=1600, attn_heads=25, seq_size=1024, num_blocks=48)
)
# PaLM-540B (paper §1: 2,572 zettaFLOP, >8M TPU-hours).  PaLM uses multi-query
# attention and SwiGLU; we model the standard-transformer equivalent with the
# published width/depth, which preserves the compute/memory scale.
PALM_540B = _register(
    LLMConfig(name="palm-540b", hidden=18432, attn_heads=48, seq_size=2048,
              num_blocks=118, vocab_size=256000)
)
BLOOM_176B = _register(
    LLMConfig(name="bloom-176b", hidden=14336, attn_heads=112, seq_size=2048,
              num_blocks=70, vocab_size=250880)
)
TINY_TEST = _register(
    LLMConfig(name="tiny-test", hidden=512, attn_heads=8, seq_size=256, num_blocks=8)
)


def get_preset(name: str) -> LLMConfig:
    """Look up a named preset; raises ``KeyError`` with the known names."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown LLM preset {name!r}; known: {sorted(_PRESETS)}") from None


def iter_presets() -> Iterator[LLMConfig]:
    """Iterate over all registered LLM presets."""
    return iter(_PRESETS.values())

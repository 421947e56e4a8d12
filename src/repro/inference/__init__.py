"""Inference (serving) model: prefill + KV-cache decode phases."""

from .decode import DecodeBlockProfile, kv_cache_bytes, profile_decode_block
from .model import InferenceStrategy, calculate_inference
from .results import InferenceResult
from .search import DeploymentPoint, candidate_deployments, search_deployments

__all__ = [
    "DecodeBlockProfile",
    "DeploymentPoint",
    "candidate_deployments",
    "search_deployments",
    "InferenceResult",
    "InferenceStrategy",
    "calculate_inference",
    "kv_cache_bytes",
    "profile_decode_block",
]

"""Inference (serving) model: prefill + KV-cache decode phases."""

from .decode import DecodeBatchTerms, decode_batch_terms, kv_cache_bytes
from .model import InferenceStrategy, calculate_inference
from .results import InferenceResult
from .search import DeploymentPoint, candidate_deployments, search_deployments

__all__ = [
    "DecodeBatchTerms",
    "DeploymentPoint",
    "candidate_deployments",
    "search_deployments",
    "InferenceResult",
    "InferenceStrategy",
    "calculate_inference",
    "decode_batch_terms",
    "kv_cache_bytes",
]

"""Serving-deployment search: the inference counterpart of §5.1.

Given a model, a pool of processors and a request shape, enumerate the
(t, p, d, batch) deployment space and return the feasible frontier between
latency and throughput (no single "best" exists for serving — interactive
workloads buy latency, batch workloads buy tokens per second per GPU).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING, Sequence

from ..analysis.pareto import Objective, pareto_front
from ..execution.strategy import factorizations
from ..hardware.system import System
from ..llm.config import LLMConfig
from .model import InferenceStrategy, calculate_inference
from .results import InferenceResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import EventJournal, MetricsRegistry, Tracer


@dataclass(frozen=True)
class DeploymentPoint:
    """One evaluated serving deployment."""

    strategy: InferenceStrategy
    result: InferenceResult

    @property
    def tokens_per_second_per_proc(self) -> float:
        return self.result.tokens_per_second / self.strategy.num_procs


def shardings(
    llm: LLMConfig, num_procs: int, max_tensor_par: int
) -> list[InferenceStrategy]:
    """Valid (t, p, d) shardings of ``num_procs`` for this model, at batch 1.

    The one deployment enumeration: :func:`candidate_deployments` crosses
    it with batch sizes and serve-search builds its plans from it.
    """
    out = []
    for t, p, d in factorizations(num_procs):
        if t > min(max_tensor_par, llm.attn_heads) or llm.attn_heads % t:
            continue
        if llm.hidden % t or llm.feedforward % t:
            continue
        if p > llm.num_blocks:
            continue
        out.append(InferenceStrategy(tensor_par=t, pipeline_par=p, data_par=d))
    return out


def candidate_deployments(
    llm: LLMConfig,
    system: System,
    *,
    batches: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    max_tensor_par: int = 64,
):
    """Yield every (t, p, d, batch) deployment for the processor pool."""
    for strategy in shardings(llm, system.num_procs, max_tensor_par):
        for batch in batches:
            yield replace(strategy, batch=batch)


def search_deployments(
    llm: LLMConfig,
    system: System,
    *,
    prompt_len: int = 2048,
    generate_len: int = 256,
    batches: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    max_tensor_par: int = 64,
    tracer: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
    events: "EventJournal | None" = None,
) -> list[DeploymentPoint]:
    """Evaluate every deployment; return the latency/throughput Pareto front.

    The front is sorted fastest-decode first.  An empty list means nothing
    fits (e.g. the model's weights exceed the pool's total HBM).

    Observability mirrors the training search: ``tracer`` records one
    ``search_deployments`` span, ``metrics`` counts candidates and feasible
    deployments (``deploy.candidates`` / ``deploy.feasible``), and
    ``events`` brackets the sweep with ``deployments.start`` /
    ``deployments.done`` journal lines.
    """
    t0 = perf_counter()
    if events is not None:
        events.emit(
            "deployments.start", llm=llm.name, system=system.name,
            prompt_len=prompt_len, generate_len=generate_len,
        )
    candidates = 0
    points = []
    for strat in candidate_deployments(
        llm, system, batches=batches, max_tensor_par=max_tensor_par
    ):
        candidates += 1
        res = calculate_inference(
            llm, system, strat, prompt_len=prompt_len, generate_len=generate_len
        )
        if res.feasible and res.tokens_per_second > 0:
            points.append(DeploymentPoint(strategy=strat, result=res))
    if metrics is not None:
        from ..serving.stats import M_DEPLOY_CANDIDATES, M_DEPLOY_FEASIBLE

        metrics.inc(M_DEPLOY_CANDIDATES, candidates)
        metrics.inc(M_DEPLOY_FEASIBLE, len(points))
    objectives = (
        Objective("latency", key=lambda p: p.result.decode_step_time,
                  maximize=False),
        Objective("throughput", key=lambda p: p.result.tokens_per_second,
                  maximize=True),
    )
    front = pareto_front(points, objectives)
    front.sort(key=lambda p: p.result.decode_step_time)
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.add_span(
            "search_deployments", "inference.search", t0, elapsed,
            candidates=candidates, feasible=len(points), front=len(front),
        )
    if events is not None:
        events.emit(
            "deployments.done", seconds=elapsed, candidates=candidates,
            feasible=len(points), front=len(front),
        )
    return front

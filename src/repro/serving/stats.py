"""Serving-search metric names and typed run summaries.

Mirrors :mod:`repro.obs.stats`: the serve-search hot path only bumps
counters on an attached :class:`~repro.obs.metrics.MetricsRegistry`;
:class:`ServeSearchStats` reads them back afterwards as a typed summary.
The same ``serving.*`` names are incremented by the evaluation service's
``POST /serve`` endpoint, so they surface as ``repro_serving_*`` on the
Prometheus ``/metrics`` exposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

# The service-side serving metrics live with the engine's metric names, so
# the evaluation service imports them without loading this package.
from ..obs.stats import M_SERVE_REQUESTS, M_SERVE_SECONDS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..obs.metrics import MetricsRegistry

# -- serve-search metric names (``repro_serving_*`` after exposition) ---------
M_SERVE_CANDIDATES = "serving.candidates"
M_SERVE_SIMULATED = "serving.simulated"
M_SERVE_PRUNED = "serving.slo_pruned"
M_SERVE_VIOLATED = "serving.slo_violated"
M_SERVE_INFEASIBLE = "serving.infeasible"

# -- inference deployment search ----------------------------------------------
M_DEPLOY_CANDIDATES = "deploy.candidates"
M_DEPLOY_FEASIBLE = "deploy.feasible"

__all__ = [
    "M_SERVE_CANDIDATES",
    "M_SERVE_SIMULATED",
    "M_SERVE_PRUNED",
    "M_SERVE_VIOLATED",
    "M_SERVE_INFEASIBLE",
    "M_SERVE_REQUESTS",
    "M_SERVE_SECONDS",
    "M_DEPLOY_CANDIDATES",
    "M_DEPLOY_FEASIBLE",
    "ServeSearchStats",
]


@dataclass(frozen=True)
class ServeSearchStats:
    """What one serve-search actually did, with fault-layer context.

    ``pruned`` counts candidates whose sound SLO lower bound already
    violated a target (they were never simulated — that is what keeps the
    search fast); ``violated`` counts candidates that *were* simulated and
    missed the SLO; ``infeasible`` counts candidates that could not hold
    even one request.  ``simulated + pruned + infeasible == candidates``
    for an untruncated run with no skipped chunks.
    """

    candidates: int = 0
    simulated: int = 0
    pruned: int = 0
    violated: int = 0
    infeasible: int = 0
    elapsed: float = 0.0
    workers: int = 1
    retries: int = 0
    skipped: tuple[tuple[int, int], ...] = ()
    resumed_chunks: int = 0
    truncated: bool = False

    @classmethod
    def from_metrics(
        cls,
        reg: "MetricsRegistry",
        *,
        elapsed: float = 0.0,
        workers: int = 1,
        retries: int = 0,
        skipped: tuple[tuple[int, int], ...] = (),
        resumed_chunks: int = 0,
        truncated: bool = False,
    ) -> "ServeSearchStats":
        return cls(
            candidates=int(reg.value(M_SERVE_CANDIDATES)),
            simulated=int(reg.value(M_SERVE_SIMULATED)),
            pruned=int(reg.value(M_SERVE_PRUNED)),
            violated=int(reg.value(M_SERVE_VIOLATED)),
            infeasible=int(reg.value(M_SERVE_INFEASIBLE)),
            elapsed=elapsed,
            workers=workers,
            retries=retries,
            skipped=skipped,
            resumed_chunks=resumed_chunks,
            truncated=truncated,
        )

    @property
    def prune_rate(self) -> float:
        """Fraction of serveable candidates skipped by the SLO bound."""
        pool = self.simulated + self.pruned
        return self.pruned / pool if pool else 0.0

    @property
    def num_skipped(self) -> int:
        return sum(stop - start for start, stop in self.skipped)

    @classmethod
    def merge(cls, items: Iterable["ServeSearchStats"]) -> "ServeSearchStats":
        items = list(items)
        if not items:
            return cls()
        return cls(
            candidates=sum(s.candidates for s in items),
            simulated=sum(s.simulated for s in items),
            pruned=sum(s.pruned for s in items),
            violated=sum(s.violated for s in items),
            infeasible=sum(s.infeasible for s in items),
            elapsed=sum(s.elapsed for s in items),
            workers=max(s.workers for s in items),
            retries=sum(s.retries for s in items),
            skipped=tuple(r for s in items for r in s.skipped),
            resumed_chunks=sum(s.resumed_chunks for s in items),
            truncated=any(s.truncated for s in items),
        )

    def summary(self) -> str:
        lines = [
            f"candidate plans       {self.candidates:,}",
            f"simulated             {self.simulated:,} "
            f"in {self.elapsed:.2f} s ({self.workers} "
            f"worker{'s' if self.workers != 1 else ''})",
            f"slo-bound pruned      {self.pruned:,} "
            f"({self.prune_rate * 100:.1f}% of serveable)",
            f"slo violated          {self.violated:,} (simulated, missed SLO)",
            f"infeasible            {self.infeasible:,}",
        ]
        if self.resumed_chunks:
            lines.append(f"resumed from journal  {self.resumed_chunks:,} chunks")
        if self.retries:
            lines.append(f"chunk retries         {self.retries:,}")
        if self.skipped:
            ranges = ", ".join(f"[{a}, {b})" for a, b in self.skipped)
            lines.append(
                f"skipped ranges        {ranges} ({self.num_skipped:,} plans)"
            )
        if self.truncated:
            lines.append("truncated             deadline hit; results are partial")
        return "\n".join(lines)

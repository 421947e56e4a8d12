"""Structured summaries of instrumented runs: pruning and sweep statistics.

The engine increments the ``engine.*`` metrics named here while evaluating
with a :class:`~repro.obs.metrics.MetricsRegistry` attached;
:class:`PruneStats` reads them back as a typed summary of one
``evaluate_many`` call, and :class:`SweepStats` wraps that with wall-clock
context (elapsed time, worker count, search-level feasibility) for
attachment to a :class:`~repro.search.SearchResult`.

Both are frozen dataclasses assembled *after* the hot path finishes — the
sweep itself only touches counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .metrics import MetricsRegistry

# The pipeline stages, in execution order: repro.engine.PIPELINE's five plus
# the columnar search's lower bound, timed only when a top-k prunes.
STAGE_NAMES = ("validate", "profile", "memory", "bound", "comm", "assemble")

# -- engine metric names ------------------------------------------------------
M_CANDIDATES = "engine.candidates"
M_REJECT_VALIDATE = "engine.rejected.validate"
M_REJECT_MEMORY = "engine.rejected.memory"
M_SHARED_INFEASIBLE = "engine.memory.shared_infeasible"
M_PROFILE_GROUPS = "engine.profile.groups"
M_MEMORY_BUCKETS = "engine.memory.buckets"
M_BUCKET_HITS = "engine.memory.bucket_hits"
M_EVALUATED_FULL = "engine.evaluated_full"
M_BOUND_EVALS = "engine.bound.evals"
M_BOUND_PRUNED = "engine.bound.pruned"
M_BOUND_TILES = "engine.bound.tiles"
M_BOUND_SKIPPED_BUCKETS = "engine.bound.skipped_buckets"
M_COMM_CACHE_HITS = "engine.comm_cache.hits"
M_COMM_CACHE_MISSES = "engine.comm_cache.misses"
M_COLUMNAR_BATCHES = "engine.columnar.batches"
M_COLUMNAR_CANDIDATES = "engine.columnar.candidates"

# -- search metric names ------------------------------------------------------
# Histogram of per-chunk wall seconds, observed inside each worker and merged
# into the parent registry with the engine counters.
M_CHUNK_SECONDS = "search.chunk.seconds"

# -- service-side serving metric names ----------------------------------------
# Bumped by the evaluation service's ``POST /serve``; defined here, not in
# ``repro.serving.stats`` (which re-exports them), so the service imports
# them without loading the serving package.
M_SERVE_REQUESTS = "serving.requests"
M_SERVE_SECONDS = "serving.seconds"


def stage_metric(stage: str) -> str:
    """Histogram name recording wall seconds spent in ``stage``."""
    return f"engine.stage.{stage}.seconds"


@dataclass(frozen=True)
class PruneStats:
    """What one batched ``evaluate_many`` call (or search) actually did.

    ``shared_infeasible`` counts candidates short-circuited by an already-
    rejected memory bucket (they never allocated an evaluation context);
    ``bucket_hits`` counts every candidate served an existing memory plan or
    rejection, feasible or not.  ``stage_seconds`` is aggregate wall time
    per pipeline stage (one sample per stage per columnar batch, one per
    candidate for small batches run through the scalar ``evaluate``).

    The bound-and-prune layer adds four counters: ``bound_evals`` roofline
    lower bounds computed (one per feasible memory bucket when a top-k
    search runs the adaptive path), ``bound_pruned`` feasible candidates
    skipped because their bound already reached the running threshold
    (they are *not* part of ``evaluated_full`` — they never ran the comm or
    assembly stages), and ``comm_cache_hits`` / ``comm_cache_misses`` from
    the process-global comm kernel caches
    (:func:`repro.engine.stages.comm_cache_stats`).

    The columnar engine adds two more: ``columnar_batches`` struct-of-
    arrays batches executed and ``columnar_candidates`` candidates those
    batches covered (the remaining ``candidates`` were small batches run
    through the scalar :func:`~repro.engine.evaluate`).

    The adaptive best-bound-first layer adds ``bound_tiles`` bucket-ordered
    tiles executed and ``bound_skipped_buckets`` memory buckets whose comm
    and assembly stages never ran because their sound lower bound already
    exceeded the tightening threshold (their candidates are a subset of
    ``bound_pruned``).  ``surrogate_seeded`` is always 0: the engine no
    longer seeds tile 0 out of bound order, and the field stays so readers
    of older stats keep working.
    """

    candidates: int = 0
    rejected_validate: int = 0
    rejected_memory: int = 0
    shared_infeasible: int = 0
    profile_groups: int = 0
    memory_buckets: int = 0
    bucket_hits: int = 0
    evaluated_full: int = 0
    bound_evals: int = 0
    bound_pruned: int = 0
    bound_tiles: int = 0
    bound_skipped_buckets: int = 0
    surrogate_seeded: int = 0
    comm_cache_hits: int = 0
    comm_cache_misses: int = 0
    columnar_batches: int = 0
    columnar_candidates: int = 0
    stage_seconds: Mapping[str, float] = field(default_factory=dict)

    @classmethod
    def from_metrics(cls, reg: "MetricsRegistry") -> "PruneStats":
        return cls(
            candidates=int(reg.value(M_CANDIDATES)),
            rejected_validate=int(reg.value(M_REJECT_VALIDATE)),
            rejected_memory=int(reg.value(M_REJECT_MEMORY)),
            shared_infeasible=int(reg.value(M_SHARED_INFEASIBLE)),
            profile_groups=int(reg.value(M_PROFILE_GROUPS)),
            memory_buckets=int(reg.value(M_MEMORY_BUCKETS)),
            bucket_hits=int(reg.value(M_BUCKET_HITS)),
            evaluated_full=int(reg.value(M_EVALUATED_FULL)),
            bound_evals=int(reg.value(M_BOUND_EVALS)),
            bound_pruned=int(reg.value(M_BOUND_PRUNED)),
            bound_tiles=int(reg.value(M_BOUND_TILES)),
            bound_skipped_buckets=int(reg.value(M_BOUND_SKIPPED_BUCKETS)),
            comm_cache_hits=int(reg.value(M_COMM_CACHE_HITS)),
            comm_cache_misses=int(reg.value(M_COMM_CACHE_MISSES)),
            columnar_batches=int(reg.value(M_COLUMNAR_BATCHES)),
            columnar_candidates=int(reg.value(M_COLUMNAR_CANDIDATES)),
            stage_seconds=MappingProxyType(
                {s: reg.stage_total(stage_metric(s)) for s in STAGE_NAMES}
            ),
        )

    # -- derived rates -------------------------------------------------------

    @property
    def validated(self) -> int:
        """Candidates that survived structural validation."""
        return self.candidates - self.rejected_validate

    @property
    def rejected(self) -> int:
        return self.rejected_validate + self.rejected_memory

    @property
    def profile_dedup_rate(self) -> float:
        """Fraction of validated candidates that shared another's profile."""
        if self.validated == 0:
            return 0.0
        return 1.0 - self.profile_groups / self.validated

    @property
    def bucket_hit_rate(self) -> float:
        """Fraction of validated candidates served a memoized memory plan."""
        if self.validated == 0:
            return 0.0
        return self.bucket_hits / self.validated

    @property
    def bound_prune_rate(self) -> float:
        """Fraction of memory-feasible candidates skipped by bound pruning."""
        survivors = self.evaluated_full + self.bound_pruned
        if survivors == 0:
            return 0.0
        return self.bound_pruned / survivors

    @property
    def comm_cache_hit_rate(self) -> float:
        lookups = self.comm_cache_hits + self.comm_cache_misses
        if lookups == 0:
            return 0.0
        return self.comm_cache_hits / lookups

    def merged(self, other: "PruneStats") -> "PruneStats":
        seconds = dict(self.stage_seconds)
        for k, v in other.stage_seconds.items():
            seconds[k] = seconds.get(k, 0.0) + v
        return PruneStats(
            candidates=self.candidates + other.candidates,
            rejected_validate=self.rejected_validate + other.rejected_validate,
            rejected_memory=self.rejected_memory + other.rejected_memory,
            shared_infeasible=self.shared_infeasible + other.shared_infeasible,
            profile_groups=self.profile_groups + other.profile_groups,
            memory_buckets=self.memory_buckets + other.memory_buckets,
            bucket_hits=self.bucket_hits + other.bucket_hits,
            evaluated_full=self.evaluated_full + other.evaluated_full,
            bound_evals=self.bound_evals + other.bound_evals,
            bound_pruned=self.bound_pruned + other.bound_pruned,
            bound_tiles=self.bound_tiles + other.bound_tiles,
            bound_skipped_buckets=(
                self.bound_skipped_buckets + other.bound_skipped_buckets
            ),
            comm_cache_hits=self.comm_cache_hits + other.comm_cache_hits,
            comm_cache_misses=self.comm_cache_misses + other.comm_cache_misses,
            columnar_batches=self.columnar_batches + other.columnar_batches,
            columnar_candidates=self.columnar_candidates + other.columnar_candidates,
            stage_seconds=MappingProxyType(seconds),
        )

    def summary(self) -> str:
        lines = [
            f"candidates            {self.candidates:,}",
            f"rejected: validate    {self.rejected_validate:,}",
            f"rejected: memory      {self.rejected_memory:,} "
            f"({self.shared_infeasible:,} shared a bucket rejection)",
            f"fully evaluated       {self.evaluated_full:,}",
            f"profile groups        {self.profile_groups:,} "
            f"({self.profile_dedup_rate * 100:.1f}% dedup)",
            f"memory buckets        {self.memory_buckets:,} "
            f"({self.bucket_hit_rate * 100:.1f}% hit rate)",
        ]
        if self.bound_evals or self.bound_pruned:
            lines.append(
                f"bound pruned          {self.bound_pruned:,} "
                f"({self.bound_prune_rate * 100:.1f}% of feasible, "
                f"{self.bound_evals:,} bounds computed)"
            )
        if self.bound_tiles:
            lines.append(
                f"adaptive tiles        {self.bound_tiles:,} "
                f"({self.bound_skipped_buckets:,} buckets skipped)"
            )
        if self.comm_cache_hits or self.comm_cache_misses:
            lines.append(
                f"comm kernel cache     {self.comm_cache_hits:,} hits / "
                f"{self.comm_cache_misses:,} misses "
                f"({self.comm_cache_hit_rate * 100:.1f}% hit rate)"
            )
        if self.columnar_batches:
            lines.append(
                f"columnar batches      {self.columnar_batches:,} "
                f"({self.columnar_candidates:,} candidates)"
            )
        total = sum(self.stage_seconds.values())
        if total > 0:
            per = "  ".join(
                f"{s} {self.stage_seconds.get(s, 0.0):.3f}s" for s in STAGE_NAMES
            )
            lines.append(f"stage wall time       {per}")
        return "\n".join(lines)


@dataclass(frozen=True)
class SweepStats:
    """One sweep's engine statistics plus wall-clock context.

    ``num_evaluated`` / ``num_feasible`` are the *search-level* figures: a
    result constraint can reject engine-feasible candidates, while bound
    pruning counts candidates as feasible without fully evaluating them —
    so ``num_feasible`` relates to ``engine.evaluated_full +
    engine.bound_pruned``, not to ``evaluated_full`` alone.

    The fault-tolerance fields describe what the supervision layer did:
    ``retries`` counts chunk re-attempts (including serial fallback runs),
    ``skipped`` lists the candidate-index ranges ``[start, stop)`` of
    chunks that failed every retry and were dropped from the sweep,
    ``resumed_chunks`` counts chunks restored from a checkpoint journal
    instead of evaluated, and ``truncated`` is set when a ``--deadline``
    stopped the sweep at a chunk boundary.
    """

    engine: PruneStats
    elapsed: float
    workers: int = 1
    num_evaluated: int = 0
    num_feasible: int = 0
    retries: int = 0
    skipped: tuple[tuple[int, int], ...] = ()
    resumed_chunks: int = 0
    truncated: bool = False

    @property
    def num_skipped(self) -> int:
        """Candidates lost to skipped ranges."""
        return sum(stop - start for start, stop in self.skipped)

    @property
    def candidates_per_sec(self) -> float:
        return self.num_evaluated / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def feasible_fraction(self) -> float:
        return self.num_feasible / self.num_evaluated if self.num_evaluated else 0.0

    @classmethod
    def merge(cls, items: Iterable["SweepStats"]) -> "SweepStats":
        """Combine stats from sequential sweeps (e.g. one per system size)."""
        items = list(items)
        if not items:
            return cls(engine=PruneStats(), elapsed=0.0)
        engine = items[0].engine
        for s in items[1:]:
            engine = engine.merged(s.engine)
        return cls(
            engine=engine,
            elapsed=sum(s.elapsed for s in items),
            workers=max(s.workers for s in items),
            num_evaluated=sum(s.num_evaluated for s in items),
            num_feasible=sum(s.num_feasible for s in items),
            retries=sum(s.retries for s in items),
            skipped=tuple(r for s in items for r in s.skipped),
            resumed_chunks=sum(s.resumed_chunks for s in items),
            truncated=any(s.truncated for s in items),
        )

    def summary(self) -> str:
        head = (
            f"evaluated {self.num_evaluated:,} candidates in {self.elapsed:.2f} s "
            f"({self.candidates_per_sec:,.0f} candidates/s, {self.workers} "
            f"worker{'s' if self.workers != 1 else ''})\n"
            f"feasible              {self.num_feasible:,} "
            f"({self.feasible_fraction * 100:.1f}%)"
        )
        fault_lines = []
        if self.resumed_chunks:
            fault_lines.append(f"resumed from journal  {self.resumed_chunks:,} chunks")
        if self.retries:
            fault_lines.append(f"chunk retries         {self.retries:,}")
        if self.skipped:
            ranges = ", ".join(f"[{a}, {b})" for a, b in self.skipped)
            fault_lines.append(
                f"skipped ranges        {ranges} ({self.num_skipped:,} candidates)"
            )
        if self.truncated:
            fault_lines.append("truncated             deadline hit; results are partial")
        tail = ("\n" + "\n".join(fault_lines)) if fault_lines else ""
        return head + "\n" + self.engine.summary() + tail

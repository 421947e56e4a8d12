"""Observability: tracing spans, metrics, progress, and sweep summaries.

This package is the instrumentation layer the staged engine
(:mod:`repro.engine`), the search engines (:mod:`repro.search`) and the CLI
thread their telemetry through:

* :class:`Tracer` — context-manager span tracing with Chrome
  ``trace_event`` JSON export (``chrome://tracing`` / Perfetto), free when
  disabled;
* :class:`MetricsRegistry` — counters and wall-time histograms whose
  snapshots merge associatively across ``ProcessPoolExecutor`` workers;
* :class:`ProgressReporter` — throttled candidates/sec / ETA / feasible-
  fraction reporting;
* :class:`PruneStats` / :class:`SweepStats` — typed summaries of what a
  batched evaluation or full search actually did.

Everything here is standalone stdlib code: the obs layer never imports the
model, so any subsystem can adopt it without dependency cycles.
"""

from .events import (
    EVENT_KINDS,
    EVENTS_VERSION,
    EventJournal,
    read_events,
    validate_events,
    validate_events_file,
)
from .metrics import Counter, Histogram, MetricsRegistry
from .progress import ProgressReporter
from .prometheus import escape_label_value, prometheus_name, render_prometheus
from .stats import (
    M_BOUND_EVALS,
    M_BOUND_PRUNED,
    M_BOUND_SKIPPED_BUCKETS,
    M_BOUND_TILES,
    M_BUCKET_HITS,
    M_CANDIDATES,
    M_COLUMNAR_BATCHES,
    M_COLUMNAR_CANDIDATES,
    M_COMM_CACHE_HITS,
    M_COMM_CACHE_MISSES,
    M_EVALUATED_FULL,
    M_MEMORY_BUCKETS,
    M_PROFILE_GROUPS,
    M_REJECT_MEMORY,
    M_REJECT_VALIDATE,
    M_SHARED_INFEASIBLE,
    STAGE_NAMES,
    PruneStats,
    SweepStats,
    stage_metric,
)
from .trace import (
    NULL_SPAN,
    TRACE_HEADER,
    TraceContext,
    Tracer,
    new_trace_id,
    validate_trace,
    validate_trace_file,
)

__all__ = [
    "Counter",
    "EVENT_KINDS",
    "EVENTS_VERSION",
    "EventJournal",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "ProgressReporter",
    "PruneStats",
    "STAGE_NAMES",
    "SweepStats",
    "TRACE_HEADER",
    "TraceContext",
    "Tracer",
    "M_BOUND_EVALS",
    "M_BOUND_PRUNED",
    "M_BOUND_SKIPPED_BUCKETS",
    "M_BOUND_TILES",
    "M_BUCKET_HITS",
    "M_CANDIDATES",
    "M_COLUMNAR_BATCHES",
    "M_COLUMNAR_CANDIDATES",
    "M_COMM_CACHE_HITS",
    "M_COMM_CACHE_MISSES",
    "M_EVALUATED_FULL",
    "M_MEMORY_BUCKETS",
    "M_PROFILE_GROUPS",
    "M_REJECT_MEMORY",
    "M_REJECT_VALIDATE",
    "M_SHARED_INFEASIBLE",
    "escape_label_value",
    "new_trace_id",
    "prometheus_name",
    "read_events",
    "render_prometheus",
    "stage_metric",
    "validate_events",
    "validate_events_file",
    "validate_trace",
    "validate_trace_file",
]

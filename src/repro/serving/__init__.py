"""SLO-constrained serving co-design (`repro serve-search`).

Turns the per-block inference model into a serving-system co-designer: a
deterministic continuous-batching simulator with KV paging/offload
(:mod:`.simulator`), disaggregated prefill/decode plans joined by KV
transfer over the network model (:mod:`.disagg`), sound percentile SLO
bounds for prune-safe admission (:mod:`.bounds`), and a checkpointable,
fault-supervised deployment search (:mod:`.search`).

Not to be confused with :mod:`repro.service` — the persistent HTTP
*evaluation service* behind ``repro serve``.  This package models
hypothetical serving *deployments*; see ``docs/SERVING.md`` vs
``docs/SERVICE.md``.
"""

from .bounds import TPOT_SAFETY, ServeBounds, plan_bounds, slo_admits
from .disagg import (
    ServePlan,
    check_plan,
    kv_transfer_time,
    simulate_disagg,
    simulate_plan,
)
from .search import (
    ServeSearchOptions,
    ServeSearchResult,
    candidate_plans,
    serve_search,
)
from .simulator import (
    ServeStats,
    check_serveability,
    decode_step_time,
    kv_reserve_bytes,
    prefill_time,
    simulate_serve,
    weights_bytes,
)
from .stats import (
    M_DEPLOY_CANDIDATES,
    M_DEPLOY_FEASIBLE,
    M_SERVE_CANDIDATES,
    M_SERVE_INFEASIBLE,
    M_SERVE_PRUNED,
    M_SERVE_REQUESTS,
    M_SERVE_SECONDS,
    M_SERVE_SIMULATED,
    M_SERVE_VIOLATED,
    ServeSearchStats,
)
from .workload import LengthDist, SLOSpec, ServeWorkload

__all__ = [
    "TPOT_SAFETY",
    "ServeBounds",
    "plan_bounds",
    "slo_admits",
    "ServePlan",
    "check_plan",
    "kv_transfer_time",
    "simulate_disagg",
    "simulate_plan",
    "ServeSearchOptions",
    "ServeSearchResult",
    "candidate_plans",
    "serve_search",
    "ServeStats",
    "check_serveability",
    "decode_step_time",
    "kv_reserve_bytes",
    "prefill_time",
    "simulate_serve",
    "weights_bytes",
    "M_DEPLOY_CANDIDATES",
    "M_DEPLOY_FEASIBLE",
    "M_SERVE_CANDIDATES",
    "M_SERVE_INFEASIBLE",
    "M_SERVE_PRUNED",
    "M_SERVE_REQUESTS",
    "M_SERVE_SECONDS",
    "M_SERVE_SIMULATED",
    "M_SERVE_VIOLATED",
    "ServeSearchStats",
    "LengthDist",
    "SLOSpec",
    "ServeWorkload",
]

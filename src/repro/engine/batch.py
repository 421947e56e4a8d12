"""Columnar (struct-of-arrays) evaluation core: the staged engine over NumPy.

The scalar pipeline in :mod:`repro.engine.stages` evaluates one candidate per
Python call; at sweep scale (10^5..10^6 candidates) interpreter dispatch
around the closed-form arithmetic dominates the wall clock.  This module runs
the same five stages over a whole batch of candidates at once::

    batch_validate -> batch_profile -> batch_memory -> batch_comm -> batch_assemble

with one parallel NumPy float64/int64 array per scalar the pipeline carries
(t/p/d/v/M, blocks-per-stage, every per-stage output) and infeasibility
carried as mask updates instead of early returns.

Bit-exactness contract
----------------------
The scalar pipeline stays the oracle: for any candidate list the columnar
path produces results **bit-identical** to :func:`repro.engine.evaluate`
mapped over the list.  Three disciplines make that hold:

* every float expression mirrors the scalar code's structure and evaluation
  order — NumPy elementwise float64 ops round exactly like CPython floats,
  and NumPy never fuses or reassociates an explicit expression;
* conditional accumulation is emulated as ``acc + np.where(mask, term, 0.0)``
  — adding ``+0.0`` is a bit-exact identity for every non-negative IEEE-754
  value, so masked-out lanes keep the exact partial sums the scalar early
  returns would have produced;
* the comm kernels (:func:`~repro.engine.stages.tp_exposure`,
  :func:`~repro.engine.stages.pp_p2p_time`, ...) are *not* vectorized: they
  are called once per distinct argument tuple with Python scalar keys, so
  they return exactly the floats the scalar pipeline computes.

Candidates are factorized into profile groups and memory buckets (numbered
in first-seen order), the memory plan and roofline bound are computed once
per bucket, and result objects are materialized only for survivors —
rejected/pruned buckets share one frozen result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

NUMPY_MIN_VERSION = (1, 24)


def check_numpy_version(version: str | None = None) -> None:
    """Raise ``ImportError`` when ``version`` is older than NumPy 1.24.

    Runs at import time with the installed ``numpy.__version__`` so the
    columnar engine fails with a clear message instead of a cryptic dtype or
    ufunc error deep inside a sweep.
    """
    v = np.__version__ if version is None else version
    parts: list[int] = []
    for token in v.split(".")[:2]:
        digits = ""
        for ch in token:
            if ch.isdigit():
                digits += ch
            else:
                break
        parts.append(int(digits) if digits else 0)
    while len(parts) < 2:
        parts.append(0)
    if tuple(parts) < NUMPY_MIN_VERSION:
        floor = ".".join(str(x) for x in NUMPY_MIN_VERSION)
        raise ImportError(
            f"repro.engine.batch requires NumPy >= {floor} (found {v}); "
            "upgrade NumPy"
        )


check_numpy_version()

from ..core.results import (  # noqa: E402
    MemoryBreakdown,
    OffloadStats,
    PerformanceResult,
    TimeBreakdown,
)
from ..execution.strategy import ExecutionStrategy, StrategyError  # noqa: E402
from ..hardware.system import System  # noqa: E402
from ..llm.config import LLMConfig  # noqa: E402
from ..obs import MetricsRegistry  # noqa: E402
from ..obs.stats import (  # noqa: E402
    M_BOUND_EVALS,
    M_BOUND_PRUNED,
    M_BOUND_SKIPPED_BUCKETS,
    M_BOUND_TILES,
    M_BUCKET_HITS,
    M_CANDIDATES,
    M_COLUMNAR_BATCHES,
    M_COLUMNAR_CANDIDATES,
    M_EVALUATED_FULL,
    M_MEMORY_BUCKETS,
    M_PROFILE_GROUPS,
    M_REJECT_MEMORY,
    M_REJECT_VALIDATE,
    M_SHARED_INFEASIBLE,
    stage_metric,
)
from .bounds import (  # noqa: E402
    PrunedResult,
    batch_lower_bounds,
    strict_prune_threshold_for_rate,
)
from .context import EvalContext  # noqa: E402
from .profile import profile_block  # noqa: E402
from .stages import (  # noqa: E402
    OFFLOAD_WORKING_BLOCKS,
    dp_collectives,
    infeasible_result,
    optim_step_time,
    pp_p2p_time,
    tp_exposure,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .profile import BlockProfile

_M_VALIDATE = stage_metric("validate")
_M_PROFILE = stage_metric("profile")
_M_MEMORY = stage_metric("memory")
_M_COMM = stage_metric("comm")
_M_ASSEMBLE = stage_metric("assemble")

# Categorical strategy fields, encoded as small ints; unknown values encode
# as -1 and fail batch_validate exactly like the scalar validate() would.
RECOMPUTE_NAMES = ("none", "attn_only", "full")
TP_OVERLAP_NAMES = ("none", "pipe", "ring")
TP_MODE_NAMES = ("1d", "2d")
_RECOMPUTE_CODES = {name: i for i, name in enumerate(RECOMPUTE_NAMES)}
_TP_OVERLAP_CODES = {name: i for i, name in enumerate(TP_OVERLAP_NAMES)}
_TP_MODE_CODES = {name: i for i, name in enumerate(TP_MODE_NAMES)}

# Column name -> ExecutionStrategy field, in the strategy's declared order.
COLUMN_FIELDS = (
    ("t", "tensor_par"),
    ("p", "pipeline_par"),
    ("d", "data_par"),
    ("batch", "batch"),
    ("m", "microbatch"),
    ("v", "pp_interleaving"),
    ("f1b", "pp_1f1b"),
    ("rs_ag", "pp_rs_ag"),
    ("sp", "seq_par"),
    ("redo", "tp_redo_sp"),
    ("tpm", "tp_mode"),
    ("tpo", "tp_overlap"),
    ("dpo", "dp_overlap"),
    ("osh", "optimizer_sharding"),
    ("rc", "recompute"),
    ("fus", "fused_activations"),
    ("w_off", "weight_offload"),
    ("a_off", "activation_offload"),
    ("o_off", "optimizer_offload"),
    ("training", "training"),
)
COLUMN_NAMES = tuple(name for name, _field in COLUMN_FIELDS)
_CODE_MAPS = {"tpm": _TP_MODE_CODES, "tpo": _TP_OVERLAP_CODES, "rc": _RECOMPUTE_CODES}

# BlockProfile fields lifted into per-group float columns.
_PROF_FIELDS = (
    "fw_time", "bw_time", "recompute_time", "fw_hbm_idle", "bw_hbm_idle",
    "flops_fw", "flops_bw", "weight_bytes", "weight_grad_bytes",
    "optimizer_bytes", "stash_bytes", "act_grad_bytes",
    "tp_fw_comm", "tp_bw_comm", "tp_recompute_comm",
)

_ZERO_OFFLOAD = OffloadStats()


def columns_from_strategies(
    strategies: Sequence[ExecutionStrategy],
) -> dict[str, np.ndarray]:
    """Transpose a strategy list into int64 columns (struct-of-arrays)."""
    if not strategies:
        return {name: np.empty(0, dtype=np.int64) for name in COLUMN_NAMES}
    from operator import attrgetter

    getter = attrgetter(*(field for _name, field in COLUMN_FIELDS))
    rows = [getter(s) for s in strategies]
    out: dict[str, np.ndarray] = {}
    for name, col in zip(COLUMN_NAMES, zip(*rows)):
        codes = _CODE_MAPS.get(name)
        if codes is not None:
            col = [codes.get(x, -1) for x in col]
        out[name] = np.asarray(col, dtype=np.int64)
    return out


def _factorize(cols: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids for the distinct rows of ``cols``, in first-seen order.

    Returns ``(ids, firsts)``: per-row group id in ``[0, G)`` numbered by
    first occurrence, and for each id the row index of its first member.
    Columns are packed into one int64 code per row — small non-negative
    value ranges are used directly as digits (no ``np.unique`` pass), wide
    ranges fall back to rank coding, and the running code is re-compacted
    whenever the next digit could overflow 63 bits.
    """
    n = int(cols[0].shape[0])
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    code = np.zeros(n, dtype=np.int64)
    card = 1
    for col in cols:
        cmin = int(col.min())
        shifted = col - cmin if cmin else col
        k = int(shifted.max()) + 1
        if k > 1 << 20:
            _, shifted = np.unique(col, return_inverse=True)
            k = int(shifted.max()) + 1
        if card > (1 << 62) // k:
            _, code = np.unique(code, return_inverse=True)
            card = int(code.max()) + 1
        code = code * k + shifted
        card *= k
    _, firsts, inverse = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(firsts, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return rank[inverse], firsts[order]


class EvalBatch:
    """Struct-of-arrays state for one columnar evaluation.

    Like :class:`~repro.engine.context.EvalContext`, an ``EvalBatch`` starts
    with the inputs and each batch stage fills in its own output block — but
    every field is an array over all candidates (``valid``, ``M``,
    ``bpstage``), over valid candidates (``gid``, ``bid``), over buckets
    (``b[...]``) or over survivors (``cm``/``asm``).  Build one with
    :meth:`from_strategies` (keeps the objects for exact infeasibility
    messages) or :meth:`from_columns` (pure-columnar callers, e.g. the
    search enumerator, which materialize strategies only on demand).
    """

    def __init__(
        self,
        llm: LLMConfig,
        system: System,
        cols: dict[str, np.ndarray],
        strategies: Sequence[ExecutionStrategy] | None = None,
    ):
        self.llm = llm
        self.system = system
        self.cols = cols
        self.strategies = strategies
        self.n = int(cols["t"].shape[0])
        self.threshold: float | None = None
        self.bounds: np.ndarray | None = None
        self._rejected_cache: dict[int, PerformanceResult] = {}
        self._pruned_cache: dict[int, PrunedResult] = {}

    @classmethod
    def from_strategies(
        cls,
        llm: LLMConfig,
        system: System,
        strategies: Sequence[ExecutionStrategy],
    ) -> "EvalBatch":
        strategies = list(strategies)
        return cls(llm, system, columns_from_strategies(strategies), strategies)

    @classmethod
    def from_columns(
        cls, llm: LLMConfig, system: System, cols: dict[str, np.ndarray]
    ) -> "EvalBatch":
        return cls(llm, system, cols)

    def strategy_at(self, i: int) -> ExecutionStrategy:
        """Materialize candidate ``i`` as an :class:`ExecutionStrategy`."""
        if self.strategies is not None:
            return self.strategies[i]
        c = self.cols

        def decode(names: tuple[str, ...], code: int) -> str:
            return names[code] if 0 <= code < len(names) else f"?{code}"

        return ExecutionStrategy(
            tensor_par=int(c["t"][i]),
            pipeline_par=int(c["p"][i]),
            data_par=int(c["d"][i]),
            batch=int(c["batch"][i]),
            microbatch=int(c["m"][i]),
            pp_interleaving=int(c["v"][i]),
            pp_1f1b=bool(c["f1b"][i]),
            pp_rs_ag=bool(c["rs_ag"][i]),
            seq_par=bool(c["sp"][i]),
            tp_redo_sp=bool(c["redo"][i]),
            tp_mode=decode(TP_MODE_NAMES, int(c["tpm"][i])),
            tp_overlap=decode(TP_OVERLAP_NAMES, int(c["tpo"][i])),
            dp_overlap=bool(c["dpo"][i]),
            optimizer_sharding=bool(c["osh"][i]),
            recompute=decode(RECOMPUTE_NAMES, int(c["rc"][i])),
            fused_activations=bool(c["fus"][i]),
            weight_offload=bool(c["w_off"][i]),
            activation_offload=bool(c["a_off"][i]),
            optimizer_offload=bool(c["o_off"][i]),
            training=bool(c["training"][i]),
        )


# ---------------------------------------------------------------------------
# Stage 1: validate
# ---------------------------------------------------------------------------


def batch_validate(eb: EvalBatch) -> EvalBatch:
    """Vectorized :meth:`ExecutionStrategy.validate` plus scalar derivation.

    Produces ``eb.valid`` (the conjunction of every scalar validate check)
    and the derived ``M`` / ``bpstage`` integer columns.  Lanes that fail
    any check keep flowing with safe (clamped) divisors; their derived
    values are garbage but masked out of every later stage.
    """
    llm, system, c = eb.llm, eb.system, eb.cols
    t, p, d = c["t"], c["p"], c["d"]
    batch, m, v = c["batch"], c["m"], c["v"]
    safe_t = np.maximum(t, 1)
    safe_p = np.maximum(p, 1)
    safe_d = np.maximum(d, 1)
    safe_m = np.maximum(m, 1)
    local = batch // safe_d
    bpstage = (llm.num_blocks + safe_p - 1) // safe_p

    ok = (t >= 1) & (p >= 1) & (d >= 1)
    # Individually bounding each factor by the system size first keeps the
    # int64 product from overflowing (any factor beyond num_procs already
    # fails the product check in exact arithmetic).
    ok &= (t <= system.num_procs) & (p <= system.num_procs) & (d <= system.num_procs)
    ok &= t * p * d == system.num_procs
    ok &= t <= llm.attn_heads
    ok &= (llm.attn_heads % safe_t == 0) & (llm.hidden % safe_t == 0)
    ok &= llm.feedforward % safe_t == 0
    ok &= p <= llm.num_blocks
    ok &= (d <= batch) & (batch % safe_d == 0)
    ok &= (m >= 1) & (local % safe_m == 0)
    ok &= (v >= 1) & (v <= bpstage)
    ok &= ~((v > 1) & (p == 1))
    ok &= (c["rc"] >= 0) & (c["tpo"] >= 0) & (c["tpm"] >= 0)
    sp = c["sp"] != 0
    is2d = c["tpm"] == 1
    ok &= ~(is2d & sp)
    # Floor square root via float sqrt with a +/-1 integer correction.
    r = np.sqrt(safe_t.astype(np.float64)).astype(np.int64)
    r = np.where((r + 1) * (r + 1) <= safe_t, r + 1, r)
    r = np.where(r * r > safe_t, r - 1, r)
    ok &= ~(is2d & (t > 1) & (r * r != t))
    ok &= ~(sp & (llm.seq_size % safe_t != 0))
    ok &= ~((c["redo"] != 0) & ~sp)
    ok &= ~((c["rs_ag"] != 0) & ~sp)
    offloading = (c["w_off"] | c["a_off"] | c["o_off"]) != 0
    if not system.has_offload:
        ok &= ~offloading
    training = c["training"] != 0
    ok &= ~(~training & (c["rc"] != 0))

    eb.valid = ok
    eb.M = local // safe_m
    eb.bpstage = bpstage
    eb.n_invalid = int(eb.n - np.count_nonzero(ok))
    return eb


# ---------------------------------------------------------------------------
# Stage 2: profile
# ---------------------------------------------------------------------------


def batch_profile(eb: EvalBatch) -> EvalBatch:
    """Factorize valid candidates into profile groups; profile each once.

    Groups are keyed by the :func:`~repro.engine.profile.profile_key`
    fields and numbered in first-seen order, which fixes the stream order
    results come out in.  The profile computation
    itself stays scalar — one (cached) :func:`profile_block` call per group
    — and its float fields are lifted into per-group columns.
    """
    c = eb.cols
    vidx = np.flatnonzero(eb.valid)
    eb.vidx = vidx
    nv = int(vidx.shape[0])
    eb.n_valid = nv
    gcols = [c[name][vidx] for name in ("m", "t", "sp", "fus", "redo", "rc", "tpm")]
    gid, gfirst = _factorize(gcols)
    eb.gid = gid
    eb.n_groups = int(gfirst.shape[0])

    profiles: list[BlockProfile] = []
    for rep in gfirst:
        i = int(vidx[rep])
        profiles.append(
            profile_block(
                eb.llm,
                eb.system,
                int(c["m"][i]),
                int(c["t"][i]),
                bool(c["sp"][i]),
                bool(c["fus"][i]),
                bool(c["redo"][i]),
                RECOMPUTE_NAMES[int(c["rc"][i])],
                TP_MODE_NAMES[int(c["tpm"][i])],
            )
        )
    eb.profiles = profiles
    eb.gprof = {
        name: np.array([getattr(prof, name) for prof in profiles], dtype=np.float64)
        for name in _PROF_FIELDS
    }

    # Scalar stream order: validate-rejects first (input order), then groups
    # in first-seen order with members in input order within each group.
    order_v = np.argsort(gid, kind="stable")
    eb.order_v = order_v
    eb.stream_order = np.concatenate(
        [np.flatnonzero(~eb.valid), vidx[order_v]]
    ).astype(np.int64)
    eb.stream_rank = np.empty(eb.n, dtype=np.int64)
    eb.stream_rank[eb.stream_order] = np.arange(eb.n, dtype=np.int64)
    return eb


# ---------------------------------------------------------------------------
# Stage 3: memory plan
# ---------------------------------------------------------------------------


def batch_memory(eb: EvalBatch) -> EvalBatch:
    """Per-bucket memory plans and capacity masks, vectorized.

    Buckets refine profile groups by the memory-relevant fields (p, d,
    batch, v, 1F1B, sharding, the offload switches, training), numbered in
    first-seen order.  Every plan quantity is computed once per bucket with
    the exact expression structure of :func:`~repro.engine.stages.stage_memory`,
    so plan floats — and the derived capacity verdicts — are bit-identical
    to the scalar plans.
    """
    c, vidx, gid = eb.cols, eb.vidx, eb.gid
    system = eb.system
    bcols = [gid] + [
        c[name][vidx]
        for name in (
            "p", "d", "batch", "v", "f1b", "osh",
            "w_off", "a_off", "o_off", "training",
        )
    ]
    bid, bfirst = _factorize(bcols)
    eb.bid = bid
    n_b = int(bfirst.shape[0])
    eb.n_buckets = n_b
    rep = vidx[bfirst] if n_b else np.empty(0, dtype=np.int64)
    eb.b_rep = rep

    b: dict[str, np.ndarray] = {"group": gid[bfirst] if n_b else np.empty(0, np.int64)}
    for name in ("t", "p", "d", "batch", "m", "v", "f1b", "osh",
                 "w_off", "a_off", "o_off", "training"):
        b[name] = c[name][rep]
    b["M"] = eb.M[rep]
    b["bp"] = eb.bpstage[rep]
    eb.b = b

    def gp(field: str) -> np.ndarray:
        return eb.gprof[field][b["group"]]

    bp = b["bp"]
    training = b["training"] != 0
    osh = b["osh"] != 0
    w_off = b["w_off"] != 0
    a_off = b["a_off"] != 0
    o_off = b["o_off"] != 0

    opt_shard = np.where(osh, b["d"], np.int64(1))
    opt_bytes = bp * gp("optimizer_bytes") / opt_shard

    # in_flight_microbatches, lane-wise.
    p_f = b["p"].astype(np.float64)
    v_f = b["v"].astype(np.float64)
    M_f = b["M"].astype(np.float64)
    one_v = b["v"] == 1
    base = np.where(one_v, p_f, p_f + (p_f - 1.0) / v_f)
    val = np.where(one_v, M_f, M_f + (p_f - 1.0) / v_f)
    in_flight = np.where(
        b["p"] == 1, 1.0, np.where(b["f1b"] != 0, np.minimum(val, base), M_f)
    )

    stash_total = gp("stash_bytes") * bp * in_flight
    weight_total = bp * gp("weight_bytes")
    grad_total = np.where(training, bp * gp("weight_grad_bytes"), 0.0)

    weight_res = np.where(
        w_off, np.minimum(bp, OFFLOAD_WORKING_BLOCKS) * gp("weight_bytes"),
        weight_total,
    )
    tier2_used = np.where(w_off, weight_total, 0.0)
    act_offloaded = training & a_off
    act_res = np.where(
        act_offloaded,
        np.minimum(bp * in_flight, OFFLOAD_WORKING_BLOCKS) * gp("stash_bytes"),
        np.where(training, stash_total, gp("stash_bytes")),
    )
    tier2_used = tier2_used + np.where(act_offloaded, stash_total, 0.0)
    opt_offloaded = training & o_off
    opt_res = np.where(
        opt_offloaded,
        np.minimum(bp, 1) * gp("optimizer_bytes") / opt_shard,
        np.where(training, opt_bytes, 0.0),
    )
    grad_res = np.where(
        opt_offloaded,
        np.minimum(bp, OFFLOAD_WORKING_BLOCKS) * gp("weight_grad_bytes"),
        grad_total,
    )
    tier2_used = tier2_used + np.where(
        opt_offloaded, opt_bytes + grad_total / opt_shard, 0.0
    )
    act_grad_res = np.where(training, gp("act_grad_bytes"), 0.0)
    mem1_total = weight_res + act_res + grad_res + act_grad_res + opt_res

    tier1_over = mem1_total > system.mem1.capacity
    if system.mem2 is not None:
        tier2_over = ~tier1_over & (tier2_used > system.mem2.capacity)
    else:
        tier2_over = np.zeros(n_b, dtype=bool)
    bucket_ok = ~tier1_over & ~tier2_over

    b.update(
        opt_shard=opt_shard, opt_bytes=opt_bytes, in_flight=in_flight,
        weight_res=weight_res, act_res=act_res, grad_res=grad_res,
        act_grad_res=act_grad_res, opt_res=opt_res, mem1_total=mem1_total,
        tier2_used=tier2_used, tier1_over=tier1_over, ok=bucket_ok,
    )
    eb.feasible_v = bucket_ok[bid]
    eb.n_rejected_memory = int(eb.n_valid - np.count_nonzero(eb.feasible_v))
    n_rejected_buckets = int(n_b - np.count_nonzero(bucket_ok))
    eb.n_shared_infeasible = eb.n_rejected_memory - n_rejected_buckets
    eb.n_feasible_buckets = int(np.count_nonzero(bucket_ok))
    return eb


# ---------------------------------------------------------------------------
# Bound pruning (between memory and comm)
# ---------------------------------------------------------------------------


def batch_prune(eb: EvalBatch, threshold: float | None) -> EvalBatch:
    """Apply the roofline bound as a vectorized mask over feasible buckets.

    ``threshold`` is the already-resolved ``prune_above`` value (a batch
    time in seconds) or ``None`` to disable pruning.  Bounds are computed
    once per feasible bucket (via
    :func:`~repro.engine.bounds.batch_lower_bounds`, which reuses the cached
    scalar ``optim_step_time`` kernel), and every candidate of a bucket
    whose bound reaches the threshold is masked out of the comm/assembly
    stages.
    """
    eb.threshold = threshold
    n_b = eb.n_buckets
    if threshold is None:
        eb.bounds = None
        eb.pruned_b = np.zeros(n_b, dtype=bool)
        eb.n_bound_evals = 0
    else:
        eb.bounds = batch_lower_bounds(eb)
        eb.pruned_b = eb.b["ok"] & (eb.bounds >= threshold)
        eb.n_bound_evals = eb.n_feasible_buckets
    pruned_v = eb.pruned_b[eb.bid]
    eb.pruned_v = pruned_v
    eb.n_pruned = int(np.count_nonzero(pruned_v))
    eb.surv_v = eb.feasible_v & ~pruned_v
    eb.n_survivors = int(np.count_nonzero(eb.surv_v))
    return eb


# ---------------------------------------------------------------------------
# Stage 4: comm exposure
# ---------------------------------------------------------------------------


def batch_comm(eb: EvalBatch) -> EvalBatch:
    """Price communication for every survivor, vectorized per component.

    The cached comm kernels run once per *distinct argument tuple* among the
    survivors: :func:`tp_exposure` per (group, tp_overlap) cell,
    :func:`pp_p2p_time` per (bucket, pp_rs_ag) cell with ``p > 1``,
    :func:`dp_collectives` and :func:`optim_step_time` per unique kernel
    shape across the surviving buckets that need them.  Every kernel is
    deterministic in its arguments, so deduplicating the per-candidate
    calls changes no value; outputs are gathered onto survivor
    lanes and all per-candidate arithmetic runs elementwise, mirroring
    :func:`~repro.engine.stages.stage_comm` term for term.
    """
    b, c, llm, system = eb.b, eb.cols, eb.llm, eb.system
    sidx = np.flatnonzero(eb.surv_v)
    eb.sidx = sidx
    inp_s = eb.vidx[sidx] if sidx.size else np.empty(0, dtype=np.int64)
    eb.inp_s = inp_s
    n_s = int(sidx.shape[0])
    eb.n_s = n_s
    cm: dict[str, np.ndarray] = {}
    eb.cm = cm
    if n_s == 0:
        return eb

    gid_s = eb.gid[sidx]
    bid_s = eb.bid[sidx]
    eb.gid_s, eb.bid_s = gid_s, bid_s
    tpo_s = c["tpo"][inp_s]
    dpo_s = c["dpo"][inp_s] != 0
    rs_ag_s = c["rs_ag"][inp_s]
    surv_b = np.zeros(eb.n_buckets, dtype=bool)
    surv_b[bid_s] = True
    eb.surv_b = surv_b

    def gps(field: str) -> np.ndarray:
        return eb.gprof[field][gid_s]

    p_s = b["p"][bid_s]
    d_s = b["d"][bid_s]
    v_s = b["v"][bid_s]
    M_s = b["M"][bid_s]
    bp_s = b["bp"][bid_s]
    tr_s = (b["training"] != 0)[bid_s]
    v_f = v_s.astype(np.float64)

    # ---- per-block TP communication exposure (per group x overlap cell) -----
    cell_ids, cell_first = _factorize([gid_s, tpo_s])
    tp_cells = np.empty((int(cell_first.shape[0]), 6), dtype=np.float64)
    for ci, pos in enumerate(cell_first):
        g = int(gid_s[pos])
        tp_cells[ci] = tp_exposure(
            system, int(b["t"][bid_s[pos]]), TP_OVERLAP_NAMES[int(tpo_s[pos])],
            eb.profiles[g],
        )
    tp6 = tp_cells[cell_ids]
    tp_fw_exp, tp_fw_tax = tp6[:, 0], tp6[:, 1]
    tp_bw_exp, tp_bw_tax = tp6[:, 2], tp6[:, 3]
    tp_rc_exp, tp_rc_tax = tp6[:, 4], tp6[:, 5]

    # ---- per-microbatch stage times ------------------------------------------
    t_f_mb = bp_s * (gps("fw_time") + tp_fw_exp + tp_fw_tax)
    t_b_mb = np.where(
        tr_s,
        bp_s
        * (
            gps("bw_time")
            + gps("recompute_time")
            + tp_bw_exp
            + tp_bw_tax
            + tp_rc_exp
            + tp_rc_tax
        ),
        0.0,
    )

    # ---- pipeline point-to-point (per bucket x rs_ag cell, p > 1) ------------
    p2p = np.zeros(n_s, dtype=np.float64)
    pmask = p_s > 1
    if np.any(pmask):
        sub = np.flatnonzero(pmask)
        pcell_ids, pcell_first = _factorize([bid_s[sub], rs_ag_s[sub]])
        pcell_vals = np.empty(int(pcell_first.shape[0]), dtype=np.float64)
        for ci, pos in enumerate(pcell_first):
            j = int(sub[pos])
            bkt = int(bid_s[j])
            full_act = (
                int(b["m"][bkt]) * llm.seq_size * llm.hidden * llm.bytes_per_element
            )
            pcell_vals[ci] = pp_p2p_time(
                system, int(b["t"][bkt]), int(b["p"][bkt]), full_act,
                bool(rs_ag_s[j]),
            )
        p2p[sub] = pcell_vals[pcell_ids]
    crossings = v_s * np.where(tr_s, 2, 1)
    pp_total = np.where(pmask, (M_s * crossings) * p2p, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        chunk_f = t_f_mb / v_f
        chunk_b = np.where(tr_s, t_b_mb / v_f, 0.0)
    Mv = M_s * v_s
    pp_exposed = Mv * np.maximum(0.0, p2p - chunk_f)
    pp_exposed = pp_exposed + np.where(tr_s, Mv * np.maximum(0.0, p2p - chunk_b), 0.0)
    pp_exposed = pp_exposed + (p_s - 1) * p2p
    pp_exposed = np.where(pmask, pp_exposed, 0.0)

    # ---- pipeline bubble ------------------------------------------------------
    pp_bubble = np.where(pmask, (p_s - 1) * ((t_f_mb + t_b_mb) / v_f), 0.0)

    # ---- data-parallel gradient communication (per surviving bucket) ---------
    dmask = tr_s & (d_s > 1)
    dp_rs_b = np.zeros(eb.n_buckets, dtype=np.float64)
    dp_ag_b = np.zeros(eb.n_buckets, dtype=np.float64)
    dp_tot_b = np.zeros(eb.n_buckets, dtype=np.float64)
    dp_pu_b = np.zeros(eb.n_buckets, dtype=np.float64)
    dp_buckets = surv_b & (b["training"] != 0) & (b["d"] > 1)
    dpb = np.flatnonzero(dp_buckets)
    if dpb.size:
        # Many buckets share one (t, p, d, grad_bytes, osh) collective shape;
        # the kernel is deterministic in its arguments, so calling it once
        # per distinct shape and scattering changes no value.
        grad_bytes_b = (
            b["bp"][dpb] * eb.gprof["weight_grad_bytes"][b["group"][dpb]]
        )
        dmemo: dict = {}
        dvals = np.empty((dpb.shape[0], 4), dtype=np.float64)
        for j, key in enumerate(
            zip(
                b["t"][dpb].tolist(),
                b["p"][dpb].tolist(),
                b["d"][dpb].tolist(),
                grad_bytes_b.tolist(),
                (b["osh"][dpb] != 0).tolist(),
            )
        ):
            val = dmemo.get(key)
            if val is None:
                t_i, p_i, d_i = key[0], key[1], key[2]
                rs, ag, tot = dp_collectives(
                    system, t_i, p_i, d_i, key[3], key[4]
                )
                dp_net = system.network_for_span(
                    min(system.num_procs, t_i * p_i * d_i)
                )
                val = (rs, ag, tot, dp_net.processor_usage)
                dmemo[key] = val
            dvals[j] = val
        dp_rs_b[dpb] = dvals[:, 0]
        dp_ag_b[dpb] = dvals[:, 1]
        dp_tot_b[dpb] = dvals[:, 2]
        dp_pu_b[dpb] = dvals[:, 3]
    rs_s = dp_rs_b[bid_s]
    ag_s = dp_ag_b[bid_s]
    tot_s = dp_tot_b[bid_s]
    pu_s = dp_pu_b[bid_s]
    blocks = bp_s * v_s
    blocks_f = blocks.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        win_bw = np.where(blocks > 1, t_b_mb * (blocks_f - 1.0) / blocks_f, 0.0)
        exp_rs = np.maximum(0.0, rs_s - win_bw)
        tax_rs = (rs_s - exp_rs) * pu_s / (1.0 - pu_s)
        dp_exp_ov = np.maximum(rs_s / blocks_f, exp_rs)
        win_fw = np.where(blocks > 1, t_f_mb * (blocks_f - 1.0) / blocks_f, 0.0)
        exp_ag = np.maximum(0.0, ag_s - win_fw)
        tax_ag = (ag_s - exp_ag) * pu_s / (1.0 - pu_s)
        has_ag = ag_s > 0
        dp_exp_ov = dp_exp_ov + np.where(
            has_ag, np.maximum(ag_s / blocks_f, exp_ag), 0.0
        )
    tax_total = tax_rs + np.where(has_ag, tax_ag, 0.0)
    overlapped = dpo_s & (bp_s > 0)
    dp_exposed = np.where(dmask, np.where(overlapped, dp_exp_ov, tot_s), 0.0)
    dp_tax = np.where(dmask & overlapped, tax_total, 0.0)
    dp_total = np.where(dmask, tot_s, 0.0)

    # ---- optimizer step (per surviving training bucket) ----------------------
    opt_time_b = np.zeros(eb.n_buckets, dtype=np.float64)
    trb = np.flatnonzero(surv_b & (b["training"] != 0))
    if trb.size:
        # Same dedup as batch_lower_bounds: one kernel call per distinct
        # (opt_bytes, traffic, tier) triple, identical op order lane-wise.
        g_b = b["group"][trb]
        opt_bytes_b = b["opt_bytes"][trb]
        traffic_b = 2.0 * opt_bytes_b + b["bp"][trb] * (
            eb.gprof["weight_grad_bytes"][g_b] + eb.gprof["weight_bytes"][g_b]
        ) / b["opt_shard"][trb]
        use2_b = (
            (b["o_off"][trb] != 0)
            if system.mem2 is not None
            else np.zeros(trb.shape[0], dtype=bool)
        )
        omemo: dict = {}
        ovals = np.empty(trb.shape[0], dtype=np.float64)
        for j, key in enumerate(
            zip(opt_bytes_b.tolist(), traffic_b.tolist(), use2_b.tolist())
        ):
            val = omemo.get(key)
            if val is None:
                val = optim_step_time(system, key[0], key[1], key[2])
                omemo[key] = val
            ovals[j] = val
        opt_time_b[trb] = ovals
    optim_time = np.where(tr_s, opt_time_b[bid_s], 0.0)

    # ---- offload traffic, bandwidth requirement, exposure --------------------
    w_off_s = (b["w_off"] != 0)[bid_s]
    a_off_s = (b["a_off"] != 0)[bid_s]
    o_off_s = (b["o_off"] != 0)[bid_s]
    off_mask = (w_off_s | a_off_s | o_off_s) & (system.mem2 is not None)
    offload_total = np.zeros(n_s, dtype=np.float64)
    offload_exposed = np.zeros(n_s, dtype=np.float64)
    required_bw = np.zeros(n_s, dtype=np.float64)
    if np.any(off_mask):
        mem2_bw = system.mem2.effective_bandwidth(float("inf"))
        stash_s = gps("stash_bytes")
        wbytes_s = gps("weight_bytes")
        wgrad_s = gps("weight_grad_bytes")
        bytes_fw = np.where(a_off_s, stash_s, 0.0) + np.where(w_off_s, wbytes_s, 0.0)
        bytes_bw = (
            np.where(a_off_s, stash_s, 0.0)
            + np.where(w_off_s, wbytes_s, 0.0)
            + np.where(o_off_s, wgrad_s, 0.0)
        )
        win_fw_o = gps("fw_time") + tp_fw_exp
        win_bw_o = gps("bw_time") + gps("recompute_time") + tp_bw_exp + tp_rc_exp
        idle_fw = gps("fw_hbm_idle") + tp_fw_exp
        idle_bw = gps("bw_hbm_idle") + tp_bw_exp + tp_rc_exp
        with np.errstate(divide="ignore", invalid="ignore"):
            need_fw = (bytes_fw > 0) & (win_fw_o > 0)
            required_bw = np.where(
                need_fw, np.maximum(required_bw, bytes_fw / win_fw_o), required_bw
            )
            need_bw = tr_s & (bytes_bw > 0) & (win_bw_o > 0)
            required_bw = np.where(
                need_bw, np.maximum(required_bw, bytes_bw / win_bw_o), required_bw
            )
        n_fw = M_s * bp_s
        n_bw = np.where(tr_s, n_fw, np.int64(0))
        offload_total = (n_fw * bytes_fw + n_bw * bytes_bw) / mem2_bw
        offload_exposed = n_fw * np.maximum(0.0, bytes_fw / mem2_bw - idle_fw)
        offload_exposed = offload_exposed + n_bw * np.maximum(
            0.0, bytes_bw / mem2_bw - idle_bw
        )
        offload_total = np.where(off_mask, offload_total, 0.0)
        offload_exposed = np.where(off_mask, offload_exposed, 0.0)
        required_bw = np.where(off_mask, required_bw, 0.0)

    cm.update(
        tp_fw_exp=tp_fw_exp, tp_fw_tax=tp_fw_tax, tp_bw_exp=tp_bw_exp,
        tp_bw_tax=tp_bw_tax, tp_rc_exp=tp_rc_exp, tp_rc_tax=tp_rc_tax,
        t_f_mb=t_f_mb, t_b_mb=t_b_mb, pp_total=pp_total, pp_exposed=pp_exposed,
        pp_bubble=pp_bubble, dp_total=dp_total, dp_exposed=dp_exposed,
        dp_tax=dp_tax, optim_time=optim_time, offload_total=offload_total,
        offload_exposed=offload_exposed, required_bw=required_bw,
    )
    return eb


# ---------------------------------------------------------------------------
# Stage 5: time assembly
# ---------------------------------------------------------------------------


def batch_assemble(eb: EvalBatch) -> EvalBatch:
    """Fold comm/plan columns into per-survivor time-breakdown columns."""
    asm: dict[str, np.ndarray] = {}
    eb.asm = asm
    n_s = eb.n_s
    eb.rate_s = np.empty(0, dtype=np.float64)
    if n_s == 0:
        return eb
    b, cm = eb.b, eb.cm
    gid_s, bid_s = eb.gid_s, eb.bid_s

    def gps(field: str) -> np.ndarray:
        return eb.gprof[field][gid_s]

    M_s = b["M"][bid_s]
    bp_s = b["bp"][bid_s]
    tr_s = (b["training"] != 0)[bid_s]
    Mb = M_s * bp_s

    asm["fw_pass"] = Mb * gps("fw_time")
    asm["bw_pass"] = np.where(tr_s, Mb * gps("bw_time"), 0.0)
    asm["fw_recompute"] = np.where(tr_s, Mb * gps("recompute_time"), 0.0)
    asm["optim_step"] = cm["optim_time"]
    asm["pp_bubble"] = cm["pp_bubble"]
    asm["tp_comm_exposed"] = Mb * (
        cm["tp_fw_exp"] + np.where(tr_s, cm["tp_bw_exp"] + cm["tp_rc_exp"], 0.0)
    )
    asm["pp_comm_exposed"] = cm["pp_exposed"]
    asm["dp_comm_exposed"] = cm["dp_exposed"]
    asm["offload_exposed"] = cm["offload_exposed"]
    asm["overlap_tax"] = (
        Mb * (cm["tp_fw_tax"] + np.where(tr_s, cm["tp_bw_tax"] + cm["tp_rc_tax"], 0.0))
        + cm["dp_tax"]
    )
    asm["tp_comm_total"] = Mb * (
        gps("tp_fw_comm")
        + np.where(tr_s, gps("tp_bw_comm") + gps("tp_recompute_comm"), 0.0)
    )
    asm["pp_comm_total"] = cm["pp_total"]
    asm["dp_comm_total"] = cm["dp_total"]
    asm["offload_total"] = cm["offload_total"]

    # batch_time: the first ten fields, summed in TimeBreakdown field order.
    batch_time = (
        asm["fw_pass"]
        + asm["bw_pass"]
        + asm["fw_recompute"]
        + asm["optim_step"]
        + asm["pp_bubble"]
        + asm["tp_comm_exposed"]
        + asm["pp_comm_exposed"]
        + asm["dp_comm_exposed"]
        + asm["offload_exposed"]
        + asm["overlap_tax"]
    )
    asm["batch_time"] = batch_time

    useful_flops = (
        (gps("flops_fw") + np.where(tr_s, gps("flops_bw"), 0.0))
        * b["t"][bid_s] * eb.llm.num_blocks * M_s * b["d"][bid_s]
    )
    peak = eb.system.processor.matrix_flops * eb.system.num_procs
    positive = batch_time > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        asm["mfu"] = np.where(positive, useful_flops / (batch_time * peak), 0.0)
        eb.rate_s = np.where(
            positive, b["batch"][bid_s] / batch_time, 0.0
        )
    return eb


# ---------------------------------------------------------------------------
# Adaptive best-bound-first tiling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptivePlan:
    """Configuration for the tiled best-bound-first ``run_batch`` path.

    ``top_k`` is the search's retention depth: the running k-th-best rate
    over everything evaluated so far becomes the rate floor that
    :func:`~repro.engine.bounds.strict_prune_threshold_for_rate` converts
    into a batch-time ceiling between tiles.  ``floor_rate`` pre-seeds the
    floor (e.g. from threshold gossip between chunks); non-finite or
    negative values are ignored, never trusted.
    """

    top_k: int
    floor_rate: float = 0.0
    tile_buckets: int = 64  # initial tile; doubles per tile (speed only)


# Ceiling for the geometric tile growth in batch_adaptive: large enough to
# amortize per-tile fixed costs, small enough that a late floor tightening
# still skips work.
_TILE_BUCKETS_MAX = 1024


def _strict_thresholds(
    eb: EvalBatch, bucket_ids: np.ndarray, floor: float
) -> np.ndarray:
    """Per-bucket strict batch-time ceilings for a rate ``floor``.

    One :func:`strict_prune_threshold_for_rate` call per distinct batch
    size among ``bucket_ids`` (a search space usually has exactly one).
    """
    bvals = eb.b["batch"][bucket_ids].astype(np.float64)
    out = np.empty(bvals.shape[0], dtype=np.float64)
    for val in np.unique(bvals):
        out[bvals == val] = strict_prune_threshold_for_rate(float(val), floor)
    return out


def batch_adaptive(
    eb: EvalBatch,
    plan: AdaptivePlan,
    metrics: MetricsRegistry | None = None,
) -> EvalBatch:
    """Best-bound-first tiled replacement for prune + comm + assemble.

    Requires ``batch_memory`` to have run.  Computes the roofline bound for
    every feasible memory bucket up front, orders buckets best-bound-first,
    and runs the comm/assembly stages tile by tile: after each tile the
    running ``top_k``-th best rate tightens a strict batch-time ceiling and
    every remaining bucket whose sound bound reaches it is skipped outright
    (its candidates become bound-pruned without ever touching the comm
    stage).  Because a skipped candidate's rate is provably *strictly*
    below the running floor — and the floor only ever rises toward the
    final k-th best — the stitched survivor columns yield a top-k
    bit-identical to the untiled call under the search's ``lexsort``
    retention.  Tile size and visit order affect only speed.

    Per-tile survivor columns are concatenated and re-sorted by survivor
    index, so ``sidx``/``cm``/``asm``/``rate_s`` land in the same canonical
    order the untiled ``batch_comm``/``batch_assemble`` produce and every
    downstream consumer (``iter_results``, materialization, top-k
    selection) works unchanged.
    """
    timed = metrics is not None
    t_comm = 0.0
    t_asm = 0.0
    eb.threshold = None
    eb.bounds = batch_lower_bounds(eb)
    eb.n_bound_evals = eb.n_feasible_buckets
    bounds = eb.bounds
    b = eb.b
    fb = np.flatnonzero(b["ok"])
    order = fb[np.argsort(bounds[fb], kind="stable")]

    k = max(int(plan.top_k), 0)
    tile_n = max(int(plan.tile_buckets), 1)
    floor = float(plan.floor_rate)
    if not math.isfinite(floor) or floor < 0.0:
        # Gossiped floors from empty/all-infeasible heaps arrive as -inf or
        # nan; a non-finite floor must never prune (mirrors the guard in
        # prune_threshold_for_rate).
        floor = 0.0
    top_rates = np.empty(0, dtype=np.float64)
    parts: list[tuple[np.ndarray, ...]] = []
    cm_parts: list[dict[str, np.ndarray]] = []
    asm_parts: list[dict[str, np.ndarray]] = []
    tiles = 0
    n_skipped = 0
    skipped_b = np.zeros(eb.n_buckets, dtype=bool)
    remaining = order
    filtered_floor = 0.0  # floor the remaining set was last filtered at
    # One strict-threshold call per distinct batch size per floor change
    # (spaces usually have exactly one); the per-bucket inverse map turns
    # that into a vectorized per-bucket ceiling.
    ubatch, ubinv = (
        np.unique(b["batch"].astype(np.float64), return_inverse=True)
        if eb.n_buckets
        else (np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64))
    )
    while remaining.size:
        if k > 0 and floor > filtered_floor:
            thr_u = np.fromiter(
                (strict_prune_threshold_for_rate(float(v), floor)
                 for v in ubatch),
                dtype=np.float64, count=ubatch.shape[0],
            )
            thr = thr_u[ubinv.ravel()[remaining]]
            drop = bounds[remaining] >= thr
            filtered_floor = floor
            if drop.any():
                dropped = remaining[drop]
                skipped_b[dropped] = True
                n_skipped += int(dropped.shape[0])
                remaining = remaining[~drop]
                if remaining.size == 0:
                    break
        tile_b = remaining[:tile_n]
        remaining = remaining[tile_n:]
        # Geometric growth: the floor converges within the first few tiles,
        # after which small tiles only multiply the fixed per-tile cost of
        # the comm/assembly passes.  Partitioning is correctness-neutral
        # (any tile size yields bit-identical survivors), so later tiles
        # double in size up to a cap.
        tile_n = min(tile_n * 2, _TILE_BUCKETS_MAX)
        tile_mask = np.zeros(eb.n_buckets, dtype=bool)
        tile_mask[tile_b] = True
        eb.surv_v = eb.feasible_v & tile_mask[eb.bid]
        t0 = perf_counter() if timed else 0.0
        batch_comm(eb)
        if timed:
            t1 = perf_counter()
            t_comm += t1 - t0
            t0 = t1
        batch_assemble(eb)
        if timed:
            t_asm += perf_counter() - t0
        tiles += 1
        if eb.n_s:
            parts.append((eb.sidx, eb.inp_s, eb.gid_s, eb.bid_s, eb.rate_s))
            cm_parts.append(eb.cm)
            asm_parts.append(eb.asm)
            if k > 0:
                cand = np.concatenate([top_rates, eb.rate_s])
                if cand.shape[0] > k:
                    cand = np.partition(cand, cand.shape[0] - k)[-k:]
                top_rates = cand
                if top_rates.shape[0] == k:
                    new_floor = float(top_rates.min())
                    if new_floor > floor:
                        floor = new_floor

    # -- final pruned/survivor state (mirrors batch_prune's shapes) ----------
    eb.pruned_b = skipped_b
    pruned_v = skipped_b[eb.bid]
    eb.pruned_v = pruned_v
    eb.n_pruned = int(np.count_nonzero(pruned_v))
    eb.surv_v = eb.feasible_v & ~pruned_v
    eb.n_survivors = int(np.count_nonzero(eb.surv_v))
    eb.n_tiles = tiles
    eb.n_skipped_buckets = n_skipped
    eb.floor_rate = floor

    # -- stitch per-tile survivor columns into canonical sidx order ---------
    if parts:
        all_sidx = np.concatenate([p[0] for p in parts])
        order_s = np.argsort(all_sidx, kind="stable")
        eb.sidx = all_sidx[order_s]
        eb.inp_s = np.concatenate([p[1] for p in parts])[order_s]
        eb.gid_s = np.concatenate([p[2] for p in parts])[order_s]
        eb.bid_s = np.concatenate([p[3] for p in parts])[order_s]
        eb.rate_s = np.concatenate([p[4] for p in parts])[order_s]
        eb.n_s = int(eb.sidx.shape[0])
        eb.cm = {
            key: np.concatenate([part[key] for part in cm_parts])[order_s]
            for key in cm_parts[0]
        }
        eb.asm = {
            key: np.concatenate([part[key] for part in asm_parts])[order_s]
            for key in asm_parts[0]
        }
        surv_b = np.zeros(eb.n_buckets, dtype=bool)
        surv_b[eb.bid_s] = True
        eb.surv_b = surv_b
    else:
        eb.sidx = np.empty(0, dtype=np.int64)
        eb.inp_s = np.empty(0, dtype=np.int64)
        eb.n_s = 0
        eb.cm = {}
        eb.asm = {}
        eb.rate_s = np.empty(0, dtype=np.float64)
        eb.surv_b = np.zeros(eb.n_buckets, dtype=bool)
    if timed:
        metrics.observe(_M_COMM, t_comm)
        metrics.observe(_M_ASSEMBLE, t_asm)
    return eb


# ---------------------------------------------------------------------------
# Orchestration, counters, materialization
# ---------------------------------------------------------------------------


def run_batch(
    eb: EvalBatch,
    *,
    prune_above: float | None = None,
    metrics: MetricsRegistry | None = None,
    adaptive: AdaptivePlan | None = None,
) -> EvalBatch:
    """Run every batch stage in order; apply counters and stage timings.

    ``prune_above`` is a batch-time threshold in seconds (or ``None``).
    Passing an :class:`AdaptivePlan` replaces the prune/comm/assemble tail
    with the best-bound-first tiled path (:func:`batch_adaptive`);
    ``prune_above`` is ignored in that case — the plan's self-tightening
    threshold subsumes it.  Counters land on ``metrics`` under the
    ``engine.*`` names; stage wall-time histograms are observed once per
    stage with the aggregate duration (the scalar :func:`evaluate` observes
    once per candidate — totals are comparable, sample counts are not).
    """
    mx = metrics
    timed = mx is not None
    t0 = perf_counter() if timed else 0.0
    batch_validate(eb)
    if timed:
        t1 = perf_counter()
        mx.observe(_M_VALIDATE, t1 - t0)
        t0 = t1
    batch_profile(eb)
    if timed:
        t1 = perf_counter()
        mx.observe(_M_PROFILE, t1 - t0)
        t0 = t1
    batch_memory(eb)
    if timed:
        t1 = perf_counter()
        mx.observe(_M_MEMORY, t1 - t0)
    if adaptive is not None:
        # Bounds stay untimed (like the scalar bound evals); the tiled
        # comm/assemble loop observes its aggregate durations internally.
        batch_adaptive(eb, adaptive, metrics=mx)
    else:
        batch_prune(eb, prune_above)  # untimed, like the scalar bound evals
        if timed:
            t0 = perf_counter()
        batch_comm(eb)
        if timed:
            t1 = perf_counter()
            mx.observe(_M_COMM, t1 - t0)
            t0 = t1
        batch_assemble(eb)
        if timed:
            mx.observe(_M_ASSEMBLE, perf_counter() - t0)
    if mx is not None:
        mx.inc(M_CANDIDATES, float(eb.n))
        mx.inc(M_REJECT_VALIDATE, float(eb.n_invalid))
        mx.inc(M_PROFILE_GROUPS, float(eb.n_groups))
        mx.inc(M_MEMORY_BUCKETS, float(eb.n_buckets))
        mx.inc(M_BUCKET_HITS, float(eb.n_valid - eb.n_buckets))
        mx.inc(M_REJECT_MEMORY, float(eb.n_rejected_memory))
        mx.inc(M_SHARED_INFEASIBLE, float(eb.n_shared_infeasible))
        if prune_above is not None or adaptive is not None:
            mx.inc(M_BOUND_EVALS, float(eb.n_bound_evals))
            mx.inc(M_BOUND_PRUNED, float(eb.n_pruned))
        if adaptive is not None:
            mx.inc(M_BOUND_TILES, float(eb.n_tiles))
            mx.inc(M_BOUND_SKIPPED_BUCKETS, float(eb.n_skipped_buckets))
        mx.inc(M_EVALUATED_FULL, float(eb.n_survivors))
        mx.inc(M_COLUMNAR_BATCHES)
        mx.inc(M_COLUMNAR_CANDIDATES, float(eb.n))
    return eb


def _bucket_name(eb: EvalBatch, bkt: int) -> str:
    b = eb.b
    return (
        f"t{int(b['t'][bkt])}p{int(b['p'][bkt])}d{int(b['d'][bkt])}"
        f"m{int(b['m'][bkt])}v{int(b['v'][bkt])}"
    )


def _rejected_result(eb: EvalBatch, bkt: int) -> PerformanceResult:
    """The shared infeasible result of a capacity-rejected bucket."""
    hit = eb._rejected_cache.get(bkt)
    if hit is not None:
        return hit
    b, system = eb.b, eb.system
    if bool(b["tier1_over"][bkt]):
        reason = (
            f"tier-1 memory {float(b['mem1_total'][bkt]) / 2**30:.1f} GiB "
            f"exceeds capacity {system.mem1.capacity / 2**30:.1f} GiB"
        )
    else:
        reason = (
            f"tier-2 memory {float(b['tier2_used'][bkt]) / 2**30:.1f} GiB "
            f"exceeds capacity {system.mem2.capacity / 2**30:.1f} GiB"
        )
    result = PerformanceResult.infeasible(
        llm_name=eb.llm.name,
        system_name=system.name,
        strategy_name=_bucket_name(eb, bkt),
        batch=int(b["batch"][bkt]),
        reason=reason,
    )
    eb._rejected_cache[bkt] = result
    return result


def _pruned_result(eb: EvalBatch, bkt: int) -> PrunedResult:
    """The shared pruned marker of a bound-pruned bucket."""
    hit = eb._pruned_cache.get(bkt)
    if hit is None:
        hit = PrunedResult(
            batch=int(eb.b["batch"][bkt]), lower_bound=float(eb.bounds[bkt])
        )
        eb._pruned_cache[bkt] = hit
    return hit


def _invalid_result(eb: EvalBatch, i: int) -> PerformanceResult:
    """The scalar-exact infeasible result for a validate-rejected candidate."""
    strategy = eb.strategy_at(i)
    try:
        strategy.validate(eb.llm, eb.system)
    except StrategyError as err:
        ctx = EvalContext(eb.llm, eb.system, strategy, error=str(err))
        return infeasible_result(ctx)
    raise RuntimeError(
        f"columnar validate rejected candidate {i} "
        "but the scalar validate accepts it"
    )


def survivor_results(eb: EvalBatch) -> list[PerformanceResult]:
    """Build one PerformanceResult per survivor, in survivor order.

    Entry ``k`` belongs to input row ``eb.inp_s[k]`` and has rate
    ``eb.rate_s[k]``.  Per-bucket components (strategy name, memory
    breakdown) are shared across a bucket's survivors; non-offload
    survivors share one zero OffloadStats.
    """
    asm, b = eb.asm, eb.b
    n_s = eb.n_s
    if n_s == 0:
        return []
    llm_name, system_name = eb.llm.name, eb.system.name
    cols = [
        asm[f].tolist()
        for f in (
            "fw_pass", "bw_pass", "fw_recompute", "optim_step", "pp_bubble",
            "tp_comm_exposed", "pp_comm_exposed", "dp_comm_exposed",
            "offload_exposed", "overlap_tax", "tp_comm_total", "pp_comm_total",
            "dp_comm_total", "offload_total",
        )
    ]
    mfu_l = asm["mfu"].tolist()
    bid_l = eb.bid_s.tolist()
    req_bw_l = eb.cm["required_bw"].tolist()
    batch_l = b["batch"].tolist()
    tier2_l = b["tier2_used"].tolist()
    names: dict[int, str] = {}
    mem1s: dict[int, MemoryBreakdown] = {}
    results: list[PerformanceResult] = []
    for k in range(n_s):
        bkt = bid_l[k]
        name = names.get(bkt)
        if name is None:
            name = _bucket_name(eb, bkt)
            names[bkt] = name
            mem1s[bkt] = MemoryBreakdown(
                weight=float(b["weight_res"][bkt]),
                activation=float(b["act_res"][bkt]),
                weight_grad=float(b["grad_res"][bkt]),
                activation_grad=float(b["act_grad_res"][bkt]),
                optimizer=float(b["opt_res"][bkt]),
            )
        tier2 = tier2_l[bkt]
        req_bw = req_bw_l[k]
        offload = (
            OffloadStats(used_bytes=tier2, required_bandwidth=req_bw)
            if tier2 != 0.0 or req_bw != 0.0
            else _ZERO_OFFLOAD
        )
        results.append(
            PerformanceResult(
                llm_name=llm_name,
                system_name=system_name,
                strategy_name=name,
                batch=batch_l[bkt],
                time=TimeBreakdown(*(col[k] for col in cols)),
                mem1=mem1s[bkt],
                offload=offload,
                mfu=mfu_l[k],
            )
        )
    return results


def iter_results(eb: EvalBatch) -> Iterator[tuple[int, PerformanceResult]]:
    """Yield ``(input_index, result)`` in stream order.

    Validate-rejects first (input order), then profile groups in first-seen
    order with members in input order — the order
    ``repro.engine.iter_evaluate`` streams batched results in.
    """
    for i in np.flatnonzero(~eb.valid).tolist():
        yield i, _invalid_result(eb, i)
    if eb.n_valid == 0:
        return
    survivors = survivor_results(eb)
    pos_in_surv = np.full(eb.n_valid, -1, dtype=np.int64)
    if eb.n_s:
        pos_in_surv[eb.sidx] = np.arange(eb.n_s, dtype=np.int64)
    # Per valid candidate: 0 = bucket rejected, 1 = bucket pruned, 2 = survivor.
    status = np.where(
        eb.feasible_v, np.where(eb.pruned_v, np.int64(1), np.int64(2)), np.int64(0)
    )
    vidx_l = eb.vidx.tolist()
    bid_l = eb.bid.tolist()
    status_l = status.tolist()
    pos_l = pos_in_surv.tolist()
    for pos in eb.order_v.tolist():
        i = vidx_l[pos]
        st = status_l[pos]
        if st == 2:
            yield i, survivors[pos_l[pos]]
        elif st == 0:
            yield i, _rejected_result(eb, bid_l[pos])
        else:
            yield i, _pruned_result(eb, bid_l[pos])


__all__ = [
    "COLUMN_FIELDS",
    "COLUMN_NAMES",
    "AdaptivePlan",
    "EvalBatch",
    "NUMPY_MIN_VERSION",
    "RECOMPUTE_NAMES",
    "TP_MODE_NAMES",
    "TP_OVERLAP_NAMES",
    "batch_adaptive",
    "batch_assemble",
    "batch_comm",
    "batch_memory",
    "batch_profile",
    "batch_prune",
    "batch_validate",
    "check_numpy_version",
    "columns_from_strategies",
    "iter_results",
    "run_batch",
    "survivor_results",
]

"""Roofline lower bounds on batch time, from fast-path artifacts only.

Search spends most of its time pricing communication for candidates that
cannot possibly beat the current top-k.  This module computes an analytic
**lower bound** on a candidate's batch time using only what the feasibility
fast path already produced — the block profile (whose per-layer times are
themselves roofline maxima of FLOPs/throughput and bytes/bandwidth) and the
memory plan — so a search can discard hopeless candidates *before* the
comm/assembly stages run.

The bound is provably ``<= TimeBreakdown.batch_time`` **in float
arithmetic**, not just in exact math: each component either reproduces the
assembled field's expression bit-for-bit (forward/backward/recompute compute,
optimizer step) or replaces it with a smaller float (pipeline bubble without
exposed TP communication), and components are summed left-to-right in the
same order as ``batch_time`` sums its fields.  Since IEEE-754
round-to-nearest addition and positive multiplication are monotone, every
partial sum of the bound is <= the corresponding partial sum of the true
batch time, and the remaining ``batch_time`` fields are all non-negative.
``docs/PERFORMANCE.md`` walks through the derivation.

That inequality is what makes pruning *exact*: a candidate is skipped only
when even its lower bound is too slow to be retained by the search, so
the surviving top-k is bit-identical to an unpruned run (see
:func:`prune_threshold_for_rate` for the rate/time conversion that keeps the
float round-trip sound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from .context import EvalContext
from .stages import optim_step_time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .batch import EvalBatch


@dataclass(frozen=True)
class PrunedResult:
    """Marker yielded for a candidate skipped by bound pruning.

    A pruned candidate passed validation and the memory plan (it *is*
    feasible) but its roofline lower bound already exceeds the caller's
    ``prune_above`` threshold, so the comm/assembly stages never ran and no
    timing breakdown exists.  ``sample_rate`` reports 0.0 so ranking code
    treats it as "never the best"; ``lower_bound`` is the proven minimum
    batch time.  One instance is shared by every candidate pruned from the
    same memory bucket, so the object carries no per-candidate identity —
    callers map results back to strategies by index.
    """

    batch: int
    lower_bound: float

    feasible: ClassVar[bool] = True
    pruned: ClassVar[bool] = True
    infeasibility: ClassVar[str] = ""

    @property
    def sample_rate(self) -> float:
        return 0.0


def roofline_lower_bound(ctx: EvalContext) -> float:
    """A lower bound on batch time from validate/profile/memory output only.

    Components, in ``TimeBreakdown.batch_time`` summation order:

    * forward compute ``M * bpstage * fw_time`` — *equal* to ``fw_pass``;
    * backward and recompute compute — equal to ``bw_pass``/``fw_recompute``;
    * the optimizer step — equal to ``optim_step`` (the same cached
      :func:`~repro.engine.stages.optim_step_time` the comm stage calls);
    * a pipeline-bubble underestimate ``(p-1) * (t_f + t_b) / v`` built from
      compute times alone (the true bubble adds exposed TP communication and
      overlap tax to each per-microbatch stage time).

    Exposed TP/PP/DP communication, offload stalls and overlap tax are
    bounded below by zero.  Everything read here is constant across a memory
    bucket, so batched evaluation computes the bound once per bucket.

    Requires a context that completed the fast path feasibly (``prof`` and
    ``mem`` set, ``error`` None).
    """
    prof, mem = ctx.prof, ctx.mem
    M, bpstage, v, p = ctx.M, ctx.bpstage, ctx.v, ctx.p
    lb = M * bpstage * prof.fw_time
    if ctx.training:
        lb = lb + M * bpstage * prof.bw_time
        lb = lb + M * bpstage * prof.recompute_time
        traffic = (
            2.0 * mem.opt_bytes
            + bpstage
            * (prof.weight_grad_bytes + prof.weight_bytes)
            / mem.opt_shard
        )
        use_mem2 = bool(
            ctx.strategy.optimizer_offload and ctx.system.mem2 is not None
        )
        lb = lb + optim_step_time(ctx.system, mem.opt_bytes, traffic, use_mem2)
    if p > 1:
        t_f = bpstage * prof.fw_time
        t_b = (
            bpstage * (prof.bw_time + prof.recompute_time)
            if ctx.training
            else 0.0
        )
        lb = lb + (p - 1) * ((t_f + t_b) / v)
    return lb


def batch_lower_bounds(eb: "EvalBatch") -> np.ndarray:
    """Per-memory-bucket :func:`roofline_lower_bound`, vectorized.

    Returns one float64 lower bound per bucket of a columnar
    :class:`~repro.engine.batch.EvalBatch` that has completed
    ``batch_memory``.  Every term mirrors the scalar bound's expression
    structure and summation order, so feasible buckets get bit-identical
    bounds; entries of capacity-rejected buckets are meaningless (the
    caller masks them out) and their optimizer-step kernel is *not*
    invoked — :func:`optim_step_time` is invoked once per *distinct*
    feasible ``(opt_bytes, traffic, tier)`` triple.  Many buckets share one
    optimizer shape, and the kernel is deterministic in its arguments, so
    deduplicating the calls changes no bound value.
    """
    b = eb.b

    def gp(field: str) -> np.ndarray:
        return eb.gprof[field][b["group"]]

    Mb = b["M"] * b["bp"]
    tr = b["training"] != 0
    fw = gp("fw_time")
    bw = gp("bw_time")
    rc = gp("recompute_time")
    lb = Mb * fw
    lb = lb + np.where(tr, Mb * bw, 0.0)
    lb = lb + np.where(tr, Mb * rc, 0.0)
    opt_t = np.zeros(eb.n_buckets, dtype=np.float64)
    idx = np.flatnonzero(b["ok"] & tr)
    if idx.size:
        g = b["group"][idx]
        wg = eb.gprof["weight_grad_bytes"][g]
        w = eb.gprof["weight_bytes"][g]
        opt_bytes = b["opt_bytes"][idx]
        # Same expression structure and operation order as the scalar
        # bound's per-bucket arithmetic, lane-wise — values bit-identical.
        traffic = 2.0 * opt_bytes + b["bp"][idx] * (wg + w) / b["opt_shard"][idx]
        use2 = (
            (b["o_off"][idx] != 0)
            if eb.system.mem2 is not None
            else np.zeros(idx.shape[0], dtype=bool)
        )
        keys = np.empty((idx.shape[0], 3), dtype=np.float64)
        keys[:, 0] = opt_bytes
        keys[:, 1] = traffic
        keys[:, 2] = use2
        uniq, inv = np.unique(keys, axis=0, return_inverse=True)
        vals = np.fromiter(
            (
                optim_step_time(eb.system, float(u[0]), float(u[1]), bool(u[2]))
                for u in uniq
            ),
            dtype=np.float64,
            count=uniq.shape[0],
        )
        opt_t[idx] = vals[inv.ravel()]
    lb = lb + opt_t
    t_f = b["bp"] * fw
    t_b = np.where(tr, b["bp"] * (bw + rc), 0.0)
    lb = lb + np.where(b["p"] > 1, (b["p"] - 1) * ((t_f + t_b) / b["v"]), 0.0)
    return lb


def prune_threshold_for_rate(batch: float, rate_floor: float) -> float:
    """The smallest batch time whose sample rate cannot beat ``rate_floor``.

    A top-k search retains a candidate over a full list only when
    ``fl(batch / batch_time) > rate_floor``.  Because float division is inexact, pruning directly on
    ``batch_time >= batch / rate_floor`` could discard a candidate whose
    *rounded* rate still exceeds the floor by an ulp.  This returns a
    threshold ``T`` with ``fl(batch / T) <= rate_floor``; division is
    antitone in the denominator, so every ``batch_time >= T`` (and hence
    every lower bound ``>= T``) yields a rate ``<= rate_floor`` — the search
    would have rejected it anyway, making pruning provably lossless.

    ``rate_floor <= 0`` disables pruning (returns ``inf``), and so does any
    non-finite floor: an empty or all-infeasible top-k reports its k-th-best
    rate as ``-inf`` (or ``nan`` after degenerate arithmetic), and treating
    either as a real floor would prune the entire space.
    """
    if math.isnan(rate_floor) or rate_floor <= 0.0:
        return math.inf
    t = batch / rate_floor
    if t <= 0.0 or math.isnan(t):
        return math.inf
    while not math.isinf(t) and batch / t > rate_floor:
        t = math.nextafter(t, math.inf)
    return t


def strict_prune_threshold_for_rate(batch: float, rate_floor: float) -> float:
    """The smallest batch time whose sample rate is *strictly* below the floor.

    :func:`prune_threshold_for_rate` is exact when candidates are priced in
    stream order, so that ties break by arrival order (``hill_climb``'s
    strictly-better moves, a fixed ``prune_above``).  Tiled
    best-bound-first evaluation processes candidates *out* of stream order,
    so a tie at the floor must never be pruned — the final ``lexsort`` tie
    break might still retain it.  This variant keeps bumping until
    ``fl(batch / T) < rate_floor`` strictly, so every pruned candidate's
    rate is provably below the current k-th best and can never enter the
    top-k under any tile order.  The cost is that candidates tying the
    floor exactly are evaluated in full — a negligible population.

    Inherits the non-finite-floor guard (returns ``inf``).
    """
    t = prune_threshold_for_rate(batch, rate_floor)
    while not math.isinf(t) and batch / t >= rate_floor:
        t = math.nextafter(t, math.inf)
    return t

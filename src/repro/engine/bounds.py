"""Roofline lower bounds on batch time, from fast-path artifacts only.

Search spends most of its time pricing communication for candidates that
cannot possibly beat the current top-k.  This module computes an analytic
**lower bound** on a candidate's batch time using only what the feasibility
fast path already produced — the block profile (whose per-layer times are
themselves roofline maxima of FLOPs/throughput and bytes/bandwidth) and the
memory plan — plus the cached TP-exposure kernel, which reads nothing
else.  A search can thus discard hopeless candidates *before* the
PP/DP/offload comm and assembly work runs.

The bound is provably ``<= TimeBreakdown.batch_time`` **in float
arithmetic**, not just in exact math: its first six components reproduce
the assembled fields' expressions bit-for-bit (forward/backward/recompute
compute, optimizer step, pipeline bubble, exposed TP communication), the
seventh (the TP part of the overlap tax) is a float no larger than
``overlap_tax``, and components are summed left-to-right in the same order
as ``batch_time`` sums its fields.  Since IEEE-754 round-to-nearest
addition and positive multiplication are monotone, the bound's partial sum
equals the true one through ``tp_comm_exposed``, the true sum only grows
over the non-negative PP/DP/offload terms, and adding the smaller tax to
the smaller partial sum keeps it smaller.  ``docs/PERFORMANCE.md`` walks
through the derivation.

That inequality is what makes pruning *exact*: a candidate is skipped only
when even its lower bound is too slow to be retained by the search, so
the surviving top-k is bit-identical to an unpruned run (see
:func:`strict_prune_threshold_for_rate` for the rate/time conversion that
keeps the float round-trip sound).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .context import EvalContext
from .stages import TPTimes, optim_step_time, tp_exposure

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .batch import EvalBatch


def roofline_lower_bound(ctx: EvalContext) -> float:
    """A lower bound on batch time from validate/profile/memory output only.

    Components, in ``TimeBreakdown.batch_time`` summation order:

    * forward compute ``M * bpstage * fw_time`` — *equal* to ``fw_pass``;
    * backward and recompute compute — equal to ``bw_pass``/``fw_recompute``;
    * the optimizer step — equal to ``optim_step`` (the same cached
      :func:`~repro.engine.stages.optim_step_time` the comm stage calls);
    * the pipeline bubble ``(p-1) * (t_f + t_b) / v`` with the per-microbatch
      stage times including TP exposure and tax — equal to ``pp_bubble``;
    * exposed TP communication — equal to ``tp_comm_exposed``;
    * the TP part of the overlap tax — at most ``overlap_tax``, which adds
      the (non-negative) DP tax.

    The TP figures come from the cached
    :func:`~repro.engine.stages.tp_exposure` for the candidate's own
    ``tp_overlap``, the call ``stage_comm`` makes.  Exposed PP/DP
    communication and offload stalls are bounded below by zero.

    Requires a context that completed the fast path feasibly (``prof`` and
    ``mem`` set, ``error`` None).
    """
    prof, mem = ctx.prof, ctx.mem
    M, bpstage, v, p = ctx.M, ctx.bpstage, ctx.v, ctx.p
    training = ctx.training
    fw_exp, fw_tax, bw_exp, bw_tax, rc_exp, rc_tax = tp_exposure(
        ctx.system, ctx.t, ctx.strategy.tp_overlap, TPTimes.of(prof)
    )
    lb = M * bpstage * prof.fw_time
    if training:
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
        t_f = bpstage * (prof.fw_time + fw_exp + fw_tax)
        t_b = (
            bpstage
            * (
                prof.bw_time
                + prof.recompute_time
                + bw_exp
                + bw_tax
                + rc_exp
                + rc_tax
            )
            if training
            else 0.0
        )
        lb = lb + (p - 1) * ((t_f + t_b) / v)
    lb = lb + M * bpstage * (fw_exp + (bw_exp + rc_exp if training else 0.0))
    return lb + M * bpstage * (fw_tax + (bw_tax + rc_tax if training else 0.0))


def batch_lower_bounds(eb: "EvalBatch") -> np.ndarray:
    """Per-memory-bucket lower bounds, vectorized.

    Returns one float64 lower bound per bucket of a columnar
    :class:`~repro.engine.batch.EvalBatch` that has completed
    ``batch_memory``.  Buckets are not keyed on ``tp_overlap``, so a
    bucket's candidates may differ in the TP terms: its bound is the
    minimum of :func:`roofline_lower_bound` over the overlap modes present
    among its candidates.  That is bit-equal to the minimum of those
    candidates' scalar bounds, since every term mirrors the scalar
    expression structure and summation order.  Capacity-rejected buckets
    get ``+inf`` and invoke no kernel.

    :func:`tp_exposure` runs once per distinct (group, mode) key and
    :func:`optim_step_time` once per distinct ``(opt_bytes, traffic, tier)``;
    both are cached, so the comm stage then hits the same entries.
    """
    # Imported here: repro.engine.batch imports this module at load time.
    from .batch import (
        TP_OVERLAP_NAMES,
        _factorize,
        _input_rows,
        _optim_times,
        _tp_exposures,
    )

    b = eb.b
    n_b = eb.n_buckets

    def gp(field: str) -> np.ndarray:
        return eb.gprof[field][b["group"]]

    Mb = b["M"] * b["bp"]
    tr = b["training"] != 0
    fw = gp("fw_time")
    bw = gp("bw_time")
    rc = gp("recompute_time")
    base = Mb * fw
    base = base + np.where(tr, Mb * bw, 0.0)
    base = base + np.where(tr, Mb * rc, 0.0)
    opt_t = np.zeros(n_b, dtype=np.float64)
    idx = np.flatnonzero(b["ok"] & tr)
    if idx.size:
        opt_t[idx] = _optim_times(eb, idx)
    base = base + opt_t

    # Overlap modes present per feasible bucket (a bucket is feasible or
    # rejected as a whole, so these are its feasible candidates' modes).
    fv = eb.feasible_v
    present = np.zeros((n_b, len(TP_OVERLAP_NAMES)), dtype=bool)
    present[eb.bid[fv], eb.cols["tpo"][_input_rows(eb, fv)]] = True
    lb = np.full(n_b, np.inf)
    for mode in np.flatnonzero(present.any(axis=0)):
        rows = np.flatnonzero(present[:, mode])
        g = b["group"][rows]
        gi, gfirst = _factorize([g])
        tp = _tp_exposures(
            eb, g[gfirst], b["t"][rows[gfirst]], np.full(gfirst.shape[0], mode)
        )[gi]
        fw_exp, fw_tax, bw_exp, bw_tax, rc_exp, rc_tax = tp.T
        r_tr, r_Mb, bp, p = tr[rows], Mb[rows], b["bp"][rows], b["p"][rows]
        t_f = bp * (fw[rows] + fw_exp + fw_tax)
        t_b = np.where(
            r_tr,
            bp * (bw[rows] + rc[rows] + bw_exp + bw_tax + rc_exp + rc_tax),
            0.0,
        )
        m_lb = base[rows] + np.where(
            p > 1, (p - 1) * ((t_f + t_b) / b["v"][rows]), 0.0
        )
        m_lb = m_lb + r_Mb * (fw_exp + np.where(r_tr, bw_exp + rc_exp, 0.0))
        m_lb = m_lb + r_Mb * (fw_tax + np.where(r_tr, bw_tax + rc_tax, 0.0))
        lb[rows] = np.minimum(lb[rows], m_lb)
    return lb


def strict_prune_threshold_for_rate(batch: float, rate_floor: float) -> float:
    """The smallest batch time whose sample rate is *strictly* below the floor.

    Because float division is inexact, pruning directly on
    ``batch_time >= batch / rate_floor`` could discard a candidate whose
    *rounded* rate still reaches the floor.  This returns the smallest
    threshold ``T`` with ``fl(batch / T) < rate_floor``; division is
    antitone in the denominator, so every ``batch_time >= T`` (and hence
    every lower bound ``>= T``) yields a rate strictly below the floor.
    Strictness matters: tiled best-bound-first evaluation processes
    candidates *out* of stream order, so a rate tying the floor must never
    be pruned — the final ``lexsort`` tie break might still retain it.
    Every pruned candidate's rate is provably below the current k-th best
    and can never enter the top-k under any tile order; candidates tying
    the floor exactly are evaluated in full, a negligible population.

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
    while not math.isinf(t) and batch / t >= rate_floor:
        t = math.nextafter(t, math.inf)
    return t

"""Roofline lower bounds on batch time, from fast-path artifacts only.

Search spends most of its time pricing communication for candidates that
cannot possibly beat the current top-k.  This module computes an analytic
**lower bound** on a candidate's batch time using only what the feasibility
fast path already produced — the block profile (whose per-layer times are
themselves roofline maxima of FLOPs/throughput and bytes/bandwidth) and the
memory plan — plus the TP exposure, which reads nothing else.  A search
can thus discard hopeless candidates *before* the PP/DP/offload comm and
assembly work runs.

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
from .stages import optim_step_time, tp_exposure

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

    The TP figures come from :func:`~repro.engine.stages.tp_exposure` for
    the candidate's own ``tp_overlap``, the call ``stage_comm`` makes.
    Exposed PP/DP communication and offload stalls are bounded below by
    zero.

    Requires a context that completed the fast path feasibly (``prof`` and
    ``mem`` set, ``error`` None).
    """
    prof, mem = ctx.prof, ctx.mem
    M, bpstage, v, p = ctx.M, ctx.bpstage, ctx.v, ctx.p
    training = ctx.training
    fw_exp, fw_tax, bw_exp, bw_tax, rc_exp, rc_tax = tp_exposure(
        ctx.system, ctx.t, ctx.strategy.tp_overlap, prof
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
    among its candidates (:func:`~repro.engine.batch.bucket_modes`).  That
    is bit-equal to the minimum of those candidates' scalar bounds, since
    every term mirrors the scalar expression structure and summation
    order.  Capacity-rejected buckets get ``+inf``.

    The TP terms are gathered from the batch's (group x overlap mode)
    table of lane-wise :func:`tp_exposure` (``_cell_table``), and the
    optimizer step from its per-bucket :func:`optim_step_time` column
    (``_optim_column``), which the comm stage then reuses.
    """
    # Imported here: repro.engine.batch imports this module at load time.
    from .batch import _N_TPO, _cell_table, _optim_column, bucket_modes

    b = eb.b
    lb = np.full(eb.n_buckets, np.inf)
    fb = np.flatnonzero(b["ok"])
    if fb.size == 0:
        return lb
    g = b["group"][fb]
    bp, p, v = b["bp"][fb], b["p"][fb], b["v"][fb]
    Mb = b["M"][fb] * bp
    tab = _cell_table(eb)
    cell0 = g * (2 * _N_TPO) + (b["training"][fb] != 0)  # mode 0's cell
    base = Mb * tab["fw"][cell0]
    base = base + Mb * tab["bw"][cell0]
    base = base + Mb * tab["rc"][cell0]
    base = base + _optim_column(eb)[fb]

    modes = bucket_modes(eb)[fb]
    for mode in range(_N_TPO):
        sel = np.flatnonzero(modes & (1 << mode))
        if sel.size == 0:
            continue
        every = sel.size == fb.size

        def pick(x: np.ndarray) -> np.ndarray:
            return x if every else x[sel]

        cell = pick(cell0) + 2 * mode
        r_bp, r_p, r_Mb = pick(bp), pick(p), pick(Mb)
        t_f = r_bp * tab["f"][cell]
        t_b = r_bp * tab["b"][cell]
        m_lb = pick(base) + np.where(
            r_p > 1, (r_p - 1) * ((t_f + t_b) / pick(v)), 0.0
        )
        m_lb = m_lb + r_Mb * tab["exp"][cell]
        m_lb = m_lb + r_Mb * tab["tax"][cell]
        rows = pick(fb)
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

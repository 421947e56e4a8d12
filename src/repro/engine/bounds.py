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

from ..arith import select
from .context import EvalContext
from .stages import block_factors, optimizer_time, tp_exposure

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
    tp = tp_exposure(ctx.system, ctx.t, ctx.strategy.tp_overlap, ctx.prof)
    fac = block_factors(ctx.prof, tp, ctx.training)
    Mb = ctx.M * ctx.bpstage
    compute = compute_bound(Mb, fac, optimizer_time(ctx))
    return lower_bound(compute, Mb, ctx.bpstage, ctx.p, ctx.v, fac)


def compute_bound(Mb, fac, optim):
    """The bound's first four terms: forward, backward and recompute compute
    and the optimizer step (``optim``, ``0.0`` without training).

    ``fac`` is :func:`~repro.engine.stages.block_factors` of the candidate's
    cell and ``Mb`` is ``M * bpstage``; the terms are the assembled fields'
    expressions, summed in ``TimeBreakdown.batch_time`` order.  Every
    argument may be a column.
    """
    lb = Mb * fac["fw"]
    lb = lb + Mb * fac["bw"]
    lb = lb + Mb * fac["rc"]
    return lb + optim


def lower_bound(lb, Mb, bpstage, p, v, fac):
    """:func:`compute_bound`'s sum ``lb`` plus the pipeline bubble, the
    exposed TP time and its tax, in ``TimeBreakdown.batch_time`` order."""
    t_f, t_b = bpstage * fac["f"], bpstage * fac["b"]
    lb = lb + select(p > 1, (p - 1) * ((t_f + t_b) / v), 0.0)
    lb = lb + Mb * fac["exp"]
    return lb + Mb * fac["tax"]


def batch_lower_bounds(eb: "EvalBatch") -> np.ndarray:
    """Per-memory-bucket lower bounds, vectorized.

    Returns one float64 lower bound per bucket of a columnar
    :class:`~repro.engine.batch.EvalBatch` that has completed
    ``batch_memory``.  Buckets are not keyed on ``tp_overlap``, so a
    bucket's candidates may differ in the TP terms: its bound is the
    minimum of :func:`lower_bound` over the overlap modes present among
    its candidates (:func:`~repro.engine.batch.bucket_modes`), which is
    the minimum of those candidates' scalar bounds; the
    :func:`compute_bound` terms do not depend on the mode.
    Capacity-rejected buckets get ``+inf``.

    The per-block factors are gathered from the batch's (group x overlap
    mode x training) cell table (``_cell_table``), and the optimizer step
    from its per-bucket :func:`optim_step_time` column (``_optim_column``),
    which the comm stage then reuses.
    """
    # Imported here: repro.engine.batch imports this module at load time.
    from .batch import _N_TPO, _cell_table, _Fields, _optim_column, bucket_modes

    b = eb.b
    lb = np.full(eb.n_buckets, np.inf)
    fb = np.flatnonzero(b["ok"])
    if fb.size == 0:
        return lb
    tab = _cell_table(eb)
    cell0 = b["group"][fb] * (2 * _N_TPO) + (b["training"][fb] != 0)  # mode 0's cell
    bp, p, v = b["bp"][fb], b["p"][fb], b["v"][fb]
    Mb = b["M"][fb] * bp
    compute = compute_bound(Mb, _Fields(tab, cell0), _optim_column(eb)[fb])

    modes = bucket_modes(eb)[fb]
    for mode in range(_N_TPO):
        sel = np.flatnonzero(modes & (1 << mode))
        if sel.size == 0:
            continue
        every = sel.size == fb.size

        def pick(x: np.ndarray) -> np.ndarray:
            return x if every else x[sel]

        m_lb = lower_bound(pick(compute), pick(Mb), pick(bp), pick(p),
                           pick(v), _Fields(tab, pick(cell0) + 2 * mode))
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

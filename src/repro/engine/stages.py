"""The five stages of the analytical model (paper §2.4), as pure functions.

Each stage takes an :class:`~repro.engine.context.EvalContext`, reads what
earlier stages produced, and fills in its own output block::

    validate -> profile -> memory plan -> comm exposure -> time assembly

The split preserves the monolithic model's arithmetic expression-for-
expression (the golden-equivalence test holds the outputs bit-identical), but
makes two things possible that the monolith could not do:

* a **feasibility fast path** — validate + profile + memory plan answers
  "does this fit?" without touching a single network or timing formula;
* **batched evaluation** — candidates sharing a block profile are grouped so
  the profile (and its cache lookup) is paid once per group.

The stage formulas (:func:`memory_plan`, :func:`exposed_and_tax`,
:func:`block_factors`, :func:`pp_exposure`, :func:`dp_exposure`,
:func:`offload_exposure`, :func:`assemble_times`, ...) take floats or
float64 columns (see :mod:`repro.arith`): the stages call them on one
candidate's floats and :mod:`repro.engine.batch` on columns, so the two
paths share one definition of every formula.

The model captures the interactions the paper calls out explicitly:

* DP communication may overlap the backward pass, but the all-gather phase of
  sharded optimizer state never overlaps the optimizer step;
* offload traffic is throttled while tier-1 (HBM) memory is in active use —
  only HBM-idle portions of a block's execution window hide transfers;
* driving a network at full bandwidth taxes the processor
  (``Network.processor_usage``), degrading overlapped computation;
* recomputation replays forward compute *and* forward TP communication.
"""

from __future__ import annotations

import os
from functools import lru_cache

from ..core.results import (
    MemoryBreakdown,
    OffloadStats,
    PerformanceResult,
    TimeBreakdown,
)
from ..arith import pmax, pmin, select
from ..execution.strategy import StrategyError
from .context import CommExposure, EvalContext, MemoryPlan
from .profile import profile_block, profile_key

# Fraction of a block's compute window usable to hide TP collectives.
TP_OVERLAP_WINDOW = {"none": 0.0, "pipe": 0.5, "ring": 0.8}

# Blocks of working set kept resident when a tensor class is offloaded:
# the block being computed plus one prefetch and one writeback buffer (Fig. 8).
OFFLOAD_WORKING_BLOCKS = 3

# When REPRO_DEBUG_CHECK is set, every assembled result is run through the
# internal-consistency checker (repro.core.consistency) before returning —
# a tripwire for development; off by default for search throughput.
_DEBUG_CHECK = bool(os.environ.get("REPRO_DEBUG_CHECK"))

# Shared empty components for infeasible results: PerformanceResult is frozen,
# so every rejected candidate can carry the same zeroed breakdowns instead of
# re-validating fresh ones (a measurable cost at sweep scale).
_EMPTY_TIME = TimeBreakdown()
_EMPTY_MEM = MemoryBreakdown()
_EMPTY_OFFLOAD = OffloadStats()


def infeasible_result(ctx: EvalContext) -> PerformanceResult:
    """Package ``ctx.error`` as the model's standard infeasible result."""
    assert ctx.error is not None
    return PerformanceResult(
        llm_name=ctx.llm.name,
        system_name=ctx.system.name,
        strategy_name=ctx.strategy.short_name(),
        batch=ctx.strategy.batch,
        time=_EMPTY_TIME,
        mem1=_EMPTY_MEM,
        offload=_EMPTY_OFFLOAD,
        mfu=0.0,
        feasible=False,
        infeasibility=ctx.error,
    )


# ---------------------------------------------------------------------------
# Stage 1: validate
# ---------------------------------------------------------------------------


def stage_validate(ctx: EvalContext) -> EvalContext:
    """Check structural feasibility and derive the strategy scalars."""
    try:
        ctx.strategy.validate(ctx.llm, ctx.system)
    except StrategyError as err:
        ctx.error = str(err)
        return ctx
    fill_scalars(ctx)
    return ctx


def fill_scalars(ctx: EvalContext) -> None:
    """Derive the per-candidate scalars from an already-validated strategy."""
    strategy, llm = ctx.strategy, ctx.llm
    ctx.t = strategy.tensor_par
    ctx.p = strategy.pipeline_par
    ctx.d = strategy.data_par
    ctx.v = strategy.pp_interleaving
    ctx.M = strategy.num_microbatches
    ctx.L = llm.num_blocks
    ctx.bpstage = strategy.blocks_per_stage(llm.num_blocks)
    ctx.b = strategy.microbatch
    ctx.e = llm.bytes_per_element
    ctx.training = strategy.training


# ---------------------------------------------------------------------------
# Stage 2: profile
# ---------------------------------------------------------------------------


def stage_profile(ctx: EvalContext) -> EvalContext:
    """Attach the (cached) single-block profile for this candidate."""
    if ctx.error is not None:
        return ctx
    ctx.prof = profile_block(ctx.llm, ctx.system, *profile_key(ctx.strategy))
    return ctx


# ---------------------------------------------------------------------------
# Stage 3: memory plan
# ---------------------------------------------------------------------------


def stage_memory(ctx: EvalContext) -> EvalContext:
    """Account residency per tier and reject capacity violations.

    Everything here depends only on the block profile and the strategy
    scalars — no network or timing state — which is what makes the
    feasibility fast path possible.
    """
    if ctx.error is not None:
        return ctx
    strategy, system = ctx.strategy, ctx.system
    ctx.mem = plan = memory_plan(
        ctx.prof, ctx.bpstage, ctx.M, ctx.p, ctx.v, strategy.pp_1f1b, ctx.d,
        strategy.optimizer_sharding, strategy.weight_offload,
        strategy.activation_offload, strategy.optimizer_offload, ctx.training,
    )
    ctx.error = capacity_error(system, plan.mem1_total, plan.tier2_used)
    return ctx


def capacity_error(system, mem1_total: float, tier2_used: float) -> str | None:
    """Why a plan does not fit the system's memory tiers, or ``None``."""
    if mem1_total > system.mem1.capacity:
        return (
            f"tier-1 memory {mem1_total / 2**30:.1f} GiB exceeds capacity "
            f"{system.mem1.capacity / 2**30:.1f} GiB"
        )
    if system.mem2 is not None and tier2_used > system.mem2.capacity:
        return (
            f"tier-2 memory {tier2_used / 2**30:.1f} GiB exceeds capacity "
            f"{system.mem2.capacity / 2**30:.1f} GiB"
        )
    return None


def memory_plan(prof, bpstage, M, p, v, one_f_one_b, d, sharded, w_off,
                a_off, o_off, training) -> MemoryPlan:
    """Residency per tier of one memory bucket (one stage's blocks).

    ``prof`` is anything with the block profile's byte fields; every
    argument may be a column (one lane per bucket).
    """
    opt_shard = select(sharded, d, 1)
    opt_bytes = bpstage * prof.optimizer_bytes / opt_shard

    in_flight = in_flight_microbatches(M, p, v, one_f_one_b)
    stash_total = prof.stash_bytes * bpstage * in_flight
    weight_total = bpstage * prof.weight_bytes
    grad_total = select(training, bpstage * prof.weight_grad_bytes, 0.0)
    act_off = training & a_off
    opt_off = training & o_off

    weight_res = select(
        w_off, pmin(bpstage, OFFLOAD_WORKING_BLOCKS) * prof.weight_bytes,
        weight_total,
    )
    act_res = select(
        act_off,
        pmin(bpstage * in_flight, OFFLOAD_WORKING_BLOCKS) * prof.stash_bytes,
        select(training, stash_total, prof.stash_bytes),
    )
    opt_res = select(
        opt_off, pmin(bpstage, 1) * prof.optimizer_bytes / opt_shard,
        select(training, opt_bytes, 0.0),
    )
    grad_res = select(
        opt_off, pmin(bpstage, OFFLOAD_WORKING_BLOCKS) * prof.weight_grad_bytes,
        grad_total,
    )
    # With the distributed (sharded) optimizer, gradients are
    # reduce-scattered before being stashed, so the tier-2 copy is sharded
    # across the data-parallel group.
    tier2_used = select(w_off, weight_total, 0.0)
    tier2_used = tier2_used + select(act_off, stash_total, 0.0)
    tier2_used = tier2_used + select(
        opt_off, opt_bytes + grad_total / opt_shard, 0.0
    )
    act_grad_res = select(training, prof.act_grad_bytes, 0.0)
    return MemoryPlan(
        weight_res=weight_res,
        act_res=act_res,
        grad_res=grad_res,
        act_grad_res=act_grad_res,
        opt_res=opt_res,
        # Summed in MemoryBreakdown.total's field order so the fast path
        # agrees with the assembled breakdown to the last bit.
        mem1_total=weight_res + act_res + grad_res + act_grad_res + opt_res,
        tier2_used=tier2_used,
        opt_bytes=opt_bytes,
        opt_shard=opt_shard,
        in_flight=in_flight,
    )


def in_flight_microbatches(M, p, v, one_f_one_b):
    """Microbatches whose activations are simultaneously stashed per stage.

    1F1B bounds in-flight microbatches by the pipeline depth ``p``; the
    interleaved variant stores an extra ``(p-1)/v`` partial set (Korthikanti
    et al. '22, Eq. 6).  Without 1F1B (GPipe-style), every microbatch of the
    flush is live at the fill peak.
    """
    spread = (p - 1) / v
    flush = select(v == 1, M * 1.0, M + spread)
    depth = select(v == 1, p * 1.0, p + spread)
    return select(p == 1, 1.0, select(one_f_one_b, pmin(flush, depth), M * 1.0))


# ---------------------------------------------------------------------------
# Stage 4: comm exposure
# ---------------------------------------------------------------------------


def exposed_and_tax(comm, window, pu, has_net=True):
    """Split a communication time into exposed part + compute-slowdown tax.

    ``window`` is the compute time available for hiding.  The hidden portion
    steals ``pu`` (the network's ``processor_usage``) of the processor,
    slowing concurrent compute by ``pu / (1 - pu)`` of the hidden duration.
    Without a network (``has_net`` false) nothing hides.
    """
    exposed = pmax(0.0, comm - window)
    tax = select(pu > 0, (comm - exposed) * pu / (1.0 - pu), 0.0)
    bare = select(has_net, comm <= 0, True)
    return select(bare, pmax(comm, 0.0), exposed), select(bare, 0.0, tax)


# -- cross-candidate comm memoization -----------------------------------------
# The collective and optimizer kernels of stage_comm are pure functions of a
# small key: the (hashable, frozen) System plus a handful of exact scalars.
# Sweeps over batch/microbatch/overlap knobs repeat identical collective
# timings thousands of times, and the service's micro-batches repeat them
# across requests, so each of those kernels is wrapped in a bounded
# per-process lru_cache (the same pattern as profile_block).  Results are
# bit-identical to inline computation: every input that affects the value is
# part of the key and the arithmetic inside is unchanged.
# tp_exposure is not cached: it is three exposed_and_tax calls, cheaper than
# hashing its key, and the columnar engine prices it as array arithmetic.

_COMM_CACHE_SIZE = 65536


def tp_exposure(system, t: int, tp_overlap: str, prof):
    """Exposed time + overlap tax of the fw/bw/recompute TP collectives.

    ``prof`` is anything with the block profile's ``fw_time``, ``bw_time``,
    ``recompute_time`` and ``tp_*_comm`` fields.
    """
    tp_net = system.network_for_span(t) if t > 1 else None
    pu = tp_net.processor_usage if tp_net is not None else 0.0
    return tp_exposure_terms(TP_OVERLAP_WINDOW[tp_overlap], pu,
                             tp_net is not None, prof)


def tp_exposure_terms(win_frac, pu, has_net, prof) -> tuple:
    """:func:`tp_exposure` given the overlap window fraction and the TP
    network's ``processor_usage`` (``has_net`` false when ``t == 1``)."""
    out = ()
    for comm, time in ((prof.tp_fw_comm, prof.fw_time),
                       (prof.tp_bw_comm, prof.bw_time),
                       (prof.tp_recompute_comm, prof.recompute_time)):
        out += exposed_and_tax(comm, win_frac * time, pu, has_net)
    return out


@lru_cache(maxsize=_COMM_CACHE_SIZE)
def pp_p2p_time(system, t: int, p: int, full_act: float, rs_ag: bool) -> float:
    """One pipeline-stage boundary crossing of a ``full_act``-byte activation."""
    pp_net = system.network_for_span(min(system.num_procs, t * p))
    tp_net = system.network_for_span(t) if t > 1 else None
    pp_bytes = full_act / t if rs_ag else full_act
    p2p = pp_net.collective_time("p2p", pp_bytes, 2)
    if rs_ag and tp_net is not None:
        # Re-gather / scatter around the transfer rides the TP network.
        p2p += tp_net.collective_time("all_gather", full_act, t)
        p2p += tp_net.collective_time("reduce_scatter", full_act, t)
    return p2p


@lru_cache(maxsize=_COMM_CACHE_SIZE)
def dp_collectives(
    system, t: int, p: int, d: int, grad_bytes: float, sharded: bool
) -> tuple[float, float, float]:
    """(reduce, all-gather, total) time of the gradient exchange."""
    dp_net = system.network_for_span(min(system.num_procs, t * p * d))
    if sharded:
        rs = dp_net.collective_time("reduce_scatter", grad_bytes, d)
        ag = dp_net.collective_time("all_gather", grad_bytes, d)
        return rs, ag, rs + ag
    rs = dp_net.collective_time("all_reduce", grad_bytes, d)
    return rs, 0.0, rs


def optim_traffic(opt_bytes, bpstage, prof, opt_shard):
    """Bytes the optimizer step moves: state read+write, grads and weights."""
    return (
        2.0 * opt_bytes
        + bpstage * (prof.weight_grad_bytes + prof.weight_bytes) / opt_shard
    )


@lru_cache(maxsize=_COMM_CACHE_SIZE)
def optim_step_time(
    system, opt_bytes: float, traffic: float, use_mem2: bool
) -> float:
    """Optimizer-step time: vector FLOPs vs. state traffic, whichever binds.

    Shared by :func:`stage_comm` and the roofline lower bound
    (:func:`repro.engine.bounds.roofline_lower_bound`), so both compute the
    exact same float for the same candidate.
    """
    params = opt_bytes / 12.0
    opt_flops = 12.0 * params  # Adam: moments, bias-correct, apply
    opt_mem = system.mem2 if use_mem2 else system.mem1
    compute_t = system.processor.compute_time("vector", opt_flops)
    return max(compute_t, traffic / opt_mem.effective_bandwidth(traffic))


_COMM_CACHED = (pp_p2p_time, dp_collectives, optim_step_time)


def comm_cache_stats() -> tuple[int, int]:
    """(hits, misses) summed over every comm kernel cache in this process."""
    hits = misses = 0
    for fn in _COMM_CACHED:
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def clear_comm_caches() -> None:
    for fn in _COMM_CACHED:
        fn.cache_clear()


def optimizer_time(ctx: EvalContext) -> float:
    """The candidate's optimizer step (``0.0`` without training), through
    the cached :func:`optim_step_time`."""
    if not ctx.training:
        return 0.0
    mem, system = ctx.mem, ctx.system
    use_mem2 = bool(ctx.strategy.optimizer_offload and system.mem2 is not None)
    traffic = optim_traffic(mem.opt_bytes, ctx.bpstage, ctx.prof, mem.opt_shard)
    return optim_step_time(system, mem.opt_bytes, traffic, use_mem2)


def block_factors(prof, tp, training) -> dict:
    """Per-block figures of one (profile, overlap mode, training) cell.

    ``tp`` is :func:`tp_exposure`'s six outputs.  ``f`` and ``b`` are the
    forward and backward(+recompute) block times with TP exposure and tax,
    which :func:`stage_comm` scales by ``bpstage``; ``fw``, ``bw``, ``rc``
    (compute), ``exp``/``tax`` (exposed TP time and its tax), ``tpc`` (TP
    traffic) and ``flops`` (useful FLOPs) are what :func:`stage_assemble`
    scales by ``M * bpstage``.  Terms only training adds are ``0.0``
    without it.
    """
    fw_exp, fw_tax, bw_exp, bw_tax, rc_exp, rc_tax = tp
    return {
        "f": prof.fw_time + fw_exp + fw_tax,
        "b": select(training, prof.bw_time + prof.recompute_time + bw_exp
                    + bw_tax + rc_exp + rc_tax, 0.0),
        "fw": prof.fw_time,
        "bw": select(training, prof.bw_time, 0.0),
        "rc": select(training, prof.recompute_time, 0.0),
        "exp": fw_exp + select(training, bw_exp + rc_exp, 0.0),
        "tax": fw_tax + select(training, bw_tax + rc_tax, 0.0),
        "tpc": prof.tp_fw_comm + select(
            training, prof.tp_bw_comm + prof.tp_recompute_comm, 0.0),
        "flops": prof.flops_fw + select(training, prof.flops_bw, 0.0),
    }


def pp_exposure(p2p, M, p, v, t_f_mb, t_b_mb, training):
    """(total, exposed, bubble) of the pipeline given one crossing's time.

    In the 1F1B steady state the asynchronous sends/receives hide behind
    the per-chunk compute of other microbatches; a crossing is exposed only
    when the transfer outlasts the chunk it overlaps.  The (p-1) fill (and
    drain) crossings of the prologue/epilogue are serial and always exposed.
    """
    crossings = v * select(training, 2, 1)  # fw (+ bw) per chunk boundary
    pp_total = M * crossings * p2p
    chunk_f = t_f_mb / v
    chunk_b = select(training, t_b_mb / v, 0.0)
    Mv = M * v
    exposed = Mv * pmax(0.0, p2p - chunk_f)
    exposed = exposed + select(training, Mv * pmax(0.0, p2p - chunk_b), 0.0)
    exposed = exposed + (p - 1) * p2p  # pipeline fill hand-offs
    bubble = (p - 1) * ((t_f_mb + t_b_mb) / v)
    piped = p > 1
    return (select(piped, pp_total, 0.0), select(piped, exposed, 0.0),
            select(piped, bubble, 0.0))


def dp_exposure(rs, ag, dp_total, pu, blocks, t_f_mb, t_b_mb, overlap):
    """(exposed, tax) of the gradient exchange of ``blocks`` blocks.

    Overlapped, the gradient reduction hides layer-wise behind the last
    microbatch's backward pass (Fig. 2b); the final block's communication
    is always exposed.  With optimizer sharding, the weight all-gather
    never overlaps the optimizer step itself but hides behind the next
    iteration's forward pass (ZeRO prefetch).
    """
    many = blocks > 1
    win_bw = select(many, t_b_mb * (blocks - 1) / blocks, 0.0)
    exp_rs, tax = exposed_and_tax(rs, win_bw, pu)
    exposed = pmax(rs / blocks, exp_rs)
    has_ag = ag > 0
    win_fw = select(many, t_f_mb * (blocks - 1) / blocks, 0.0)
    exp_ag, tax_ag = exposed_and_tax(ag, win_fw, pu)
    exposed = exposed + select(has_ag, pmax(ag / blocks, exp_ag), 0.0)
    tax = tax + select(has_ag, tax_ag, 0.0)
    return select(overlap, exposed, dp_total), select(overlap, tax, 0.0)


def offload_exposure(prof, tp, M, bpstage, training, w_off, a_off, o_off,
                     mem2_bw):
    """(total, exposed, required bandwidth) of the tier-2 offload traffic.

    Offload traffic is throttled while tier-1 memory is in active use: only
    the HBM-idle portions of a block's window (and its exposed TP
    communication) hide transfers.
    """
    tp_fw_exp, _, tp_bw_exp, _, tp_rc_exp, _ = tp
    act = select(a_off, prof.stash_bytes, 0.0)
    wts = select(w_off, prof.weight_bytes, 0.0)
    bytes_fw = act + wts
    bytes_bw = act + wts + select(o_off, prof.weight_grad_bytes, 0.0)
    win_fw = prof.fw_time + tp_fw_exp  # HBM idles during exposed comm too
    win_bw = prof.bw_time + prof.recompute_time + tp_bw_exp + tp_rc_exp
    idle_fw = prof.fw_hbm_idle + tp_fw_exp
    idle_bw = prof.bw_hbm_idle + tp_bw_exp + tp_rc_exp
    need_fw = (bytes_fw > 0) & (win_fw > 0)
    need_bw = training & (bytes_bw > 0) & (win_bw > 0)
    required = select(need_fw, pmax(0.0, bytes_fw / select(need_fw, win_fw, 1.0)), 0.0)
    required = select(
        need_bw, pmax(required, bytes_bw / select(need_bw, win_bw, 1.0)), required
    )
    n_fw = M * bpstage
    n_bw = select(training, n_fw, 0)
    offload_total = (n_fw * bytes_fw + n_bw * bytes_bw) / mem2_bw
    exposed = n_fw * pmax(0.0, bytes_fw / mem2_bw - idle_fw)
    exposed = exposed + n_bw * pmax(0.0, bytes_bw / mem2_bw - idle_bw)
    return offload_total, exposed, required


def stage_comm(ctx: EvalContext) -> EvalContext:
    """Price every communication/overlap component and the optimizer step.

    The PP, DP and optimizer kernels go through the process-global caches
    (:func:`pp_p2p_time`, :func:`dp_collectives`, :func:`optim_step_time`),
    which persist across calls and are shared with the columnar engine;
    the exposure formulas are the ones the columnar engine runs on columns.
    """
    if ctx.error is not None:
        return ctx
    llm, system, strategy, prof = ctx.llm, ctx.system, ctx.strategy, ctx.prof
    t, p, d, v, M = ctx.t, ctx.p, ctx.d, ctx.v, ctx.M
    bpstage, training = ctx.bpstage, ctx.training

    tp = tp_exposure(system, t, strategy.tp_overlap, prof)
    fac = block_factors(prof, tp, training)
    t_f_mb = bpstage * fac["f"]
    t_b_mb = bpstage * fac["b"]

    p2p = 0.0
    if p > 1:
        full_act = ctx.b * llm.seq_size * llm.hidden * ctx.e
        p2p = pp_p2p_time(system, t, p, full_act, strategy.pp_rs_ag)
    pp_total, pp_exposed, pp_bubble = pp_exposure(
        p2p, M, p, v, t_f_mb, t_b_mb, training
    )

    dp_total = dp_exposed = dp_tax = 0.0
    if training and d > 1:
        dp_net = system.network_for_span(min(system.num_procs, t * p * d))
        rs, ag, dp_total = dp_collectives(
            system, t, p, d, bpstage * prof.weight_grad_bytes,
            strategy.optimizer_sharding,
        )
        dp_exposed, dp_tax = dp_exposure(
            rs, ag, dp_total, dp_net.processor_usage, bpstage * v, t_f_mb,
            t_b_mb, strategy.dp_overlap and bpstage > 0,
        )

    optim_time = optimizer_time(ctx)

    offload_total = offload_exposed = required_bw = 0.0
    if strategy.offloading and system.mem2 is not None:
        offload_total, offload_exposed, required_bw = offload_exposure(
            prof, tp, M, bpstage, training, strategy.weight_offload,
            strategy.activation_offload, strategy.optimizer_offload,
            system.mem2.effective_bandwidth(float("inf")),
        )

    ctx.comm = CommExposure(
        *tp,
        t_f_mb=t_f_mb,
        t_b_mb=t_b_mb,
        pp_total=pp_total,
        pp_exposed=pp_exposed,
        pp_bubble=pp_bubble,
        dp_total=dp_total,
        dp_exposed=dp_exposed,
        dp_tax=dp_tax,
        optim_time=optim_time,
        offload_total=offload_total,
        offload_exposed=offload_exposed,
        required_bw=required_bw,
    )
    ctx.fac = fac
    return ctx


# ---------------------------------------------------------------------------
# Stage 5: time assembly
# ---------------------------------------------------------------------------


def assemble_times(Mb, fac, comm) -> dict:
    """The :class:`TimeBreakdown` fields, in field order, from the per-block
    factors (:func:`block_factors`), ``Mb = M * bpstage`` and the comm stage's
    outputs (anything with :class:`CommExposure`'s fields)."""
    return {
        "fw_pass": Mb * fac["fw"],
        "bw_pass": Mb * fac["bw"],
        "fw_recompute": Mb * fac["rc"],
        "optim_step": comm.optim_time,
        "pp_bubble": comm.pp_bubble,
        "tp_comm_exposed": Mb * fac["exp"],
        "pp_comm_exposed": comm.pp_exposed,
        "dp_comm_exposed": comm.dp_exposed,
        "offload_exposed": comm.offload_exposed,
        "overlap_tax": Mb * fac["tax"] + comm.dp_tax,
        "tp_comm_total": Mb * fac["tpc"],
        "pp_comm_total": comm.pp_total,
        "dp_comm_total": comm.dp_total,
        "offload_total": comm.offload_total,
    }


def model_flops_utilization(flops, t, L, M, d, batch_time, peak):
    """Useful FLOPs (a block's ``flops`` factor over every block, microbatch
    and replica) per second of batch time, as a share of ``peak``."""
    positive = batch_time > 0
    useful = flops * t * L * M * d
    return select(positive, useful / select(positive, batch_time * peak, 1.0), 0.0)


def stage_assemble(ctx: EvalContext) -> EvalContext:
    """Fold the stage outputs into the final :class:`PerformanceResult`."""
    if ctx.error is not None:
        return ctx
    comm, mem, system = ctx.comm, ctx.mem, ctx.system
    time = TimeBreakdown(**assemble_times(ctx.M * ctx.bpstage, ctx.fac, comm))
    result = PerformanceResult(
        llm_name=ctx.llm.name,
        system_name=system.name,
        strategy_name=ctx.strategy.short_name(),
        batch=ctx.strategy.batch,
        time=time,
        mem1=mem.mem1_breakdown(),
        offload=OffloadStats(
            used_bytes=mem.tier2_used, required_bandwidth=comm.required_bw
        ),
        mfu=model_flops_utilization(
            ctx.fac["flops"], ctx.t, ctx.L, ctx.M, ctx.d, time.batch_time,
            system.processor.matrix_flops * system.num_procs,
        ),
    )
    if _DEBUG_CHECK:
        from ..core.consistency import assert_consistent

        assert_consistent(result)
    ctx.result = result
    return ctx

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
from ..execution.strategy import StrategyError
from ..hardware.network import Network
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
    prof, strategy, system = ctx.prof, ctx.strategy, ctx.system
    bpstage, training = ctx.bpstage, ctx.training

    opt_shard = ctx.d if strategy.optimizer_sharding else 1
    opt_bytes = bpstage * prof.optimizer_bytes / opt_shard

    in_flight = in_flight_microbatches(ctx.M, ctx.p, ctx.v, strategy.pp_1f1b)
    stash_total = prof.stash_bytes * bpstage * in_flight
    weight_total = bpstage * prof.weight_bytes
    grad_total = bpstage * prof.weight_grad_bytes if training else 0.0

    tier2_used = 0.0
    if strategy.weight_offload:
        weight_res = min(bpstage, OFFLOAD_WORKING_BLOCKS) * prof.weight_bytes
        tier2_used += weight_total
    else:
        weight_res = weight_total
    if training and strategy.activation_offload:
        act_res = min(bpstage * in_flight, OFFLOAD_WORKING_BLOCKS) * prof.stash_bytes
        tier2_used += stash_total
    else:
        act_res = stash_total if training else prof.stash_bytes
    if training and strategy.optimizer_offload:
        opt_res = min(bpstage, 1) * prof.optimizer_bytes / opt_shard
        grad_res = min(bpstage, OFFLOAD_WORKING_BLOCKS) * prof.weight_grad_bytes
        # With the distributed (sharded) optimizer, gradients are
        # reduce-scattered before being stashed, so the tier-2 copy is
        # sharded across the data-parallel group.
        tier2_used += opt_bytes + grad_total / opt_shard
    else:
        opt_res = opt_bytes if training else 0.0
        grad_res = grad_total

    act_grad_res = prof.act_grad_bytes if training else 0.0
    # Summed in MemoryBreakdown.total's field order so the fast path agrees
    # with the assembled breakdown to the last bit.
    mem1_total = weight_res + act_res + grad_res + act_grad_res + opt_res

    ctx.mem = MemoryPlan(
        weight_res=weight_res,
        act_res=act_res,
        grad_res=grad_res,
        act_grad_res=act_grad_res,
        opt_res=opt_res,
        mem1_total=mem1_total,
        tier2_used=tier2_used,
        opt_bytes=opt_bytes,
        opt_shard=opt_shard,
        in_flight=in_flight,
    )

    if mem1_total > system.mem1.capacity:
        ctx.error = (
            f"tier-1 memory {mem1_total / 2**30:.1f} GiB exceeds capacity "
            f"{system.mem1.capacity / 2**30:.1f} GiB"
        )
    elif system.mem2 is not None and tier2_used > system.mem2.capacity:
        ctx.error = (
            f"tier-2 memory {tier2_used / 2**30:.1f} GiB exceeds capacity "
            f"{system.mem2.capacity / 2**30:.1f} GiB"
        )
    return ctx


def in_flight_microbatches(M: int, p: int, v: int, one_f_one_b: bool) -> float:
    """Microbatches whose activations are simultaneously stashed per stage.

    1F1B bounds in-flight microbatches by the pipeline depth ``p``; the
    interleaved variant stores an extra ``(p-1)/v`` partial set (Korthikanti
    et al. '22, Eq. 6).  Without 1F1B (GPipe-style), every microbatch of the
    flush is live at the fill peak.
    """
    if p == 1:
        return 1.0
    if not one_f_one_b:
        return float(M)
    base = float(p) if v == 1 else p + (p - 1) / v
    return min(float(M) if v == 1 else M + (p - 1) / v, base)


# ---------------------------------------------------------------------------
# Stage 4: comm exposure
# ---------------------------------------------------------------------------


def exposed_and_tax(
    comm: float, window: float, net: Network | None
) -> tuple[float, float]:
    """Split a communication time into exposed part + compute-slowdown tax.

    ``window`` is the compute time available for hiding.  The hidden portion
    steals ``processor_usage`` of the processor, slowing concurrent compute by
    ``pu / (1 - pu)`` of the hidden duration.
    """
    if net is None or comm <= 0:
        return max(comm, 0.0), 0.0
    exposed = max(0.0, comm - window)
    hidden = comm - exposed
    pu = net.processor_usage
    tax = hidden * pu / (1.0 - pu) if pu > 0 else 0.0
    return exposed, tax


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
    win_frac = TP_OVERLAP_WINDOW[tp_overlap]
    tp_fw_exp, tp_fw_tax = exposed_and_tax(
        prof.tp_fw_comm, win_frac * prof.fw_time, tp_net
    )
    tp_bw_exp, tp_bw_tax = exposed_and_tax(
        prof.tp_bw_comm, win_frac * prof.bw_time, tp_net
    )
    tp_rc_exp, tp_rc_tax = exposed_and_tax(
        prof.tp_recompute_comm, win_frac * prof.recompute_time, tp_net
    )
    return tp_fw_exp, tp_fw_tax, tp_bw_exp, tp_bw_tax, tp_rc_exp, tp_rc_tax


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


def stage_comm(ctx: EvalContext) -> EvalContext:
    """Price every communication/overlap component and the optimizer step.

    The PP, DP and optimizer kernels go through the process-global caches
    (:func:`pp_p2p_time`, :func:`dp_collectives`, :func:`optim_step_time`),
    which persist across calls and are shared with the columnar engine.
    """
    if ctx.error is not None:
        return ctx
    llm, system, strategy, prof = ctx.llm, ctx.system, ctx.strategy, ctx.prof
    t, p, d, v, M = ctx.t, ctx.p, ctx.d, ctx.v, ctx.M
    bpstage, e, b, training = ctx.bpstage, ctx.e, ctx.b, ctx.training

    # ---- per-block TP communication exposure --------------------------------
    tp_fw_exp, tp_fw_tax, tp_bw_exp, tp_bw_tax, tp_rc_exp, tp_rc_tax = (
        tp_exposure(system, t, strategy.tp_overlap, prof)
    )

    # ---- per-microbatch stage times ------------------------------------------
    t_f_mb = bpstage * (prof.fw_time + tp_fw_exp + tp_fw_tax)
    if training:
        t_b_mb = bpstage * (
            prof.bw_time
            + prof.recompute_time
            + tp_bw_exp
            + tp_bw_tax
            + tp_rc_exp
            + tp_rc_tax
        )
    else:
        t_b_mb = 0.0

    # ---- pipeline point-to-point ---------------------------------------------
    # In the 1F1B steady state the asynchronous sends/receives hide behind the
    # per-chunk compute of other microbatches; a crossing is exposed only when
    # the transfer outlasts the chunk it overlaps.  The (p-1) fill (and drain)
    # crossings of the prologue/epilogue are serial and always exposed.
    pp_total = pp_exposed = 0.0
    if p > 1:
        full_act = b * llm.seq_size * llm.hidden * e
        p2p = pp_p2p_time(system, t, p, full_act, strategy.pp_rs_ag)
        crossings = v * (2 if training else 1)  # fw (+ bw) per chunk boundary
        pp_total = M * crossings * p2p
        chunk_f = t_f_mb / v
        chunk_b = t_b_mb / v if training else 0.0
        pp_exposed = M * v * max(0.0, p2p - chunk_f)
        if training:
            pp_exposed += M * v * max(0.0, p2p - chunk_b)
        pp_exposed += (p - 1) * p2p  # pipeline fill hand-offs

    # ---- pipeline bubble -------------------------------------------------------
    if p > 1:
        chunk = (t_f_mb + t_b_mb) / v
        pp_bubble = (p - 1) * chunk
    else:
        pp_bubble = 0.0

    # ---- data-parallel gradient communication ---------------------------------
    dp_total = dp_exposed = dp_tax = 0.0
    if training and d > 1:
        dp_net = system.network_for_span(min(system.num_procs, t * p * d))
        grad_bytes = bpstage * prof.weight_grad_bytes
        rs, ag, dp_total = dp_collectives(
            system, t, p, d, grad_bytes, strategy.optimizer_sharding
        )
        if strategy.dp_overlap and bpstage > 0:
            # The gradient reduction overlaps layer-wise with the last
            # microbatch's backward pass (Fig. 2b); the final block's
            # communication is always exposed.  With optimizer sharding, the
            # weight all-gather never overlaps the optimizer step itself but
            # hides behind the next iteration's forward pass (ZeRO prefetch).
            blocks = bpstage * v
            win_bw = t_b_mb * (blocks - 1) / blocks if blocks > 1 else 0.0
            exp_rs, tax_rs = exposed_and_tax(rs, win_bw, dp_net)
            dp_exposed = max(rs / blocks, exp_rs)
            dp_tax = tax_rs
            if ag > 0:
                win_fw = t_f_mb * (blocks - 1) / blocks if blocks > 1 else 0.0
                exp_ag, tax_ag = exposed_and_tax(ag, win_fw, dp_net)
                dp_exposed += max(ag / blocks, exp_ag)
                dp_tax += tax_ag
        else:
            dp_exposed = dp_total

    # ---- optimizer step ---------------------------------------------------------
    optim_time = 0.0
    opt_bytes = ctx.mem.opt_bytes
    if training:
        traffic = (
            2.0 * opt_bytes
            + bpstage
            * (prof.weight_grad_bytes + prof.weight_bytes)
            / ctx.mem.opt_shard
        )
        use_mem2 = bool(strategy.optimizer_offload and system.mem2 is not None)
        optim_time = optim_step_time(system, opt_bytes, traffic, use_mem2)

    # ---- offload traffic, bandwidth requirement, exposure -------------------------
    offload_total = offload_exposed = 0.0
    required_bw = 0.0
    if strategy.offloading and system.mem2 is not None:
        mem2_bw = system.mem2.effective_bandwidth(float("inf"))
        bytes_fw = (prof.stash_bytes if strategy.activation_offload else 0.0) + (
            prof.weight_bytes if strategy.weight_offload else 0.0
        )
        bytes_bw = (
            (prof.stash_bytes if strategy.activation_offload else 0.0)
            + (prof.weight_bytes if strategy.weight_offload else 0.0)
            + (prof.weight_grad_bytes if strategy.optimizer_offload else 0.0)
        )
        win_fw = prof.fw_time + tp_fw_exp  # HBM idles during exposed comm too
        win_bw = prof.bw_time + prof.recompute_time + tp_bw_exp + tp_rc_exp
        # Throttled overlap: only HBM-idle portions of the window hide traffic.
        idle_fw = prof.fw_hbm_idle + tp_fw_exp
        idle_bw = prof.bw_hbm_idle + tp_bw_exp + tp_rc_exp
        if bytes_fw > 0 and win_fw > 0:
            required_bw = max(required_bw, bytes_fw / win_fw)
        if training and bytes_bw > 0 and win_bw > 0:
            required_bw = max(required_bw, bytes_bw / win_bw)
        n_fw = M * bpstage
        n_bw = M * bpstage if training else 0
        offload_total = (n_fw * bytes_fw + n_bw * bytes_bw) / mem2_bw
        offload_exposed = n_fw * max(0.0, bytes_fw / mem2_bw - idle_fw)
        offload_exposed += n_bw * max(0.0, bytes_bw / mem2_bw - idle_bw)

    ctx.comm = CommExposure(
        tp_fw_exp=tp_fw_exp,
        tp_fw_tax=tp_fw_tax,
        tp_bw_exp=tp_bw_exp,
        tp_bw_tax=tp_bw_tax,
        tp_rc_exp=tp_rc_exp,
        tp_rc_tax=tp_rc_tax,
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
    return ctx


# ---------------------------------------------------------------------------
# Stage 5: time assembly
# ---------------------------------------------------------------------------


def stage_assemble(ctx: EvalContext) -> EvalContext:
    """Fold the stage outputs into the final :class:`PerformanceResult`."""
    if ctx.error is not None:
        return ctx
    prof, comm, mem = ctx.prof, ctx.comm, ctx.mem
    M, bpstage, training = ctx.M, ctx.bpstage, ctx.training

    time = TimeBreakdown(
        fw_pass=M * bpstage * prof.fw_time,
        bw_pass=M * bpstage * prof.bw_time if training else 0.0,
        fw_recompute=M * bpstage * prof.recompute_time if training else 0.0,
        optim_step=comm.optim_time,
        pp_bubble=comm.pp_bubble,
        tp_comm_exposed=M
        * bpstage
        * (comm.tp_fw_exp + (comm.tp_bw_exp + comm.tp_rc_exp if training else 0.0)),
        pp_comm_exposed=comm.pp_exposed,
        dp_comm_exposed=comm.dp_exposed,
        offload_exposed=comm.offload_exposed,
        overlap_tax=M
        * bpstage
        * (comm.tp_fw_tax + (comm.tp_bw_tax + comm.tp_rc_tax if training else 0.0))
        + comm.dp_tax,
        tp_comm_total=M
        * bpstage
        * (
            prof.tp_fw_comm
            + (prof.tp_bw_comm + prof.tp_recompute_comm if training else 0.0)
        ),
        pp_comm_total=comm.pp_total,
        dp_comm_total=comm.dp_total,
        offload_total=comm.offload_total,
    )

    useful_flops = (
        (prof.flops_fw + (prof.flops_bw if training else 0.0))
        * ctx.t * ctx.L * M * ctx.d
    )
    peak = ctx.system.processor.matrix_flops * ctx.system.num_procs
    mfu = useful_flops / (time.batch_time * peak) if time.batch_time > 0 else 0.0

    result = PerformanceResult(
        llm_name=ctx.llm.name,
        system_name=ctx.system.name,
        strategy_name=ctx.strategy.short_name(),
        batch=ctx.strategy.batch,
        time=time,
        mem1=mem.mem1_breakdown(),
        offload=OffloadStats(
            used_bytes=mem.tier2_used, required_bandwidth=comm.required_bw
        ),
        mfu=mfu,
    )
    if _DEBUG_CHECK:
        from ..core.consistency import assert_consistent

        assert_consistent(result)
    ctx.result = result
    return ctx

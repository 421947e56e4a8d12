"""Deterministic continuous-batching serving simulator.

Drives the analytical per-block inference model
(:mod:`repro.inference.decode`) with seeded Poisson arrivals and
iteration-level scheduling, and measures what a capacity planner needs:
TTFT percentiles, per-output-token latency, goodput under per-request
deadlines, and KV-cache pressure (resident peak, host-offload traffic).

Three properties are load-bearing and deliberately engineered:

* **Determinism.**  All randomness comes from the workload's seeded
  sample; the event loop itself is sequential float arithmetic.  The same
  ``(llm, system, plan, workload)`` always produces a bit-identical
  :class:`ServeStats` — serve-search's top-k guarantee rests on this.

* **Bound soundness.**  TTFT is accumulated as ``fl(wait + prefill)``
  with ``wait = fl(admit − arrival) ≥ 0`` — never as a
  ``completion − arrival`` subtraction — so every measured TTFT is
  ``≥`` its request's pure prefill time under IEEE-754 round-to-nearest
  monotonicity.  Per-request decode spans are fl-sums of non-negative
  step times.  :mod:`repro.serving.bounds` builds its prune-safe lower
  bounds directly on these inequalities.

* **Exact KV conservation.**  KV reservations are tracked in integer
  bytes (``tensor_par`` divides ``hidden``, so per-request reservations
  are exact), which makes ``kv_allocated_bytes == kv_freed_bytes`` an
  exact invariant rather than a float-tolerance one — Hypothesis checks
  it in ``tests/test_serving_properties.py``.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add
from typing import Iterable, Sequence, TypeVar

import numpy as np

from ..engine.batch import prefill_columns
from ..hardware.system import System
from ..llm.blocks import build_block
from ..llm.config import LLMConfig
from ..inference.decode import DecodeBatchTerms, decode_batch_terms
from ..inference.model import InferenceStrategy
from .workload import SLOSpec, ServeWorkload

__all__ = [
    "ServeStats",
    "simulate_serve",
    "prefill_time",
    "decode_step_time",
    "weights_bytes",
    "kv_reserve_bytes",
]


# ---------------------------------------------------------------------------
# Analytical kernels, memoized per deployment hardware (shared by the
# simulator, serving/bounds.py and inference/model.py — sharing the exact
# float pipeline is what keeps the SLO bounds sound).
# ---------------------------------------------------------------------------


_V = TypeVar("_V")


class _KernelTables:
    """Bounded memo tables for serving kernels, one plain dict per hardware key.

    A caller fetches its table once (per plan or replica loop) and reads it
    with ``dict.get`` on the hot path.  Misses go through :meth:`store`,
    which registers the caller's table on its first entry and holds
    ``limit`` on the total entries across every table by evicting the
    oldest stored entry (FIFO) and unregistering a table once it is empty,
    so no registered table is ever empty.  Every mutation runs under one
    lock and readers only ``get``, so tables are safe to share between
    threads (the HTTP service simulates plans concurrently).
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._tables: dict[tuple, dict] = {}
        self._order: deque[tuple[tuple, dict, object]] = deque()
        self._lock = threading.Lock()

    def table(self, hw: tuple) -> dict:
        """The registered table of ``hw``, or a new one registered on its
        first :meth:`store`."""
        table = self._tables.get(hw)
        return {} if table is None else table

    def store(self, hw: tuple, table: dict, key: object, value: _V) -> _V:
        with self._lock:
            if len(self._order) >= self.limit:
                old_hw, old_table, old_key = self._order.popleft()
                old_table.pop(old_key, None)
                if not old_table and self._tables.get(old_hw) is old_table:
                    del self._tables[old_hw]
            if not table:
                # First entry: register the table (hashing the hardware
                # key once per table, not once per store).
                self._tables.setdefault(hw, table)
            table[key] = value
            self._order.append((hw, table, key))
        return value

    def entries(self) -> int:
        """Entries currently held across every registered table."""
        with self._lock:
            return sum(len(t) for t in self._tables.values())


# Entry limits of the kernels' tables.  The prefill limit covers the
# per-(t, prompt) block costs, the per-(t, p, prompt) prefill times and the
# per-prompt KV transfer times of :mod:`repro.serving.disagg`; ``_STEPS``
# holds one entry per ``(batch, context)`` and ``_STEP_TERMS`` one per
# batch size: the step's context-independent terms.
_STEPS = _KernelTables(65536)
_STEP_TERMS = _KernelTables(4096)
_PREFILLS = _KernelTables(4096)


class _Kernels:
    """Step and prefill tables of one ``(model, hardware, t, p)`` deployment.

    Keyed on exactly what the kernels read — the processor, HBM tier and the
    networks serving the tensor- and pipeline-parallel groups — and not on
    the whole :class:`System`, so systems that differ only in ``num_procs``
    (the two halves of a disaggregated plan, resized with
    :meth:`System.with_num_procs`) share one table.
    """

    __slots__ = ("llm", "system", "processor", "hbm", "tp_net", "pp_net",
                 "tensor_par", "pipeline_par", "block_key", "prefill_key",
                 "step_key", "blocks", "prefills", "steps", "step_terms")

    def __init__(
        self, llm: LLMConfig, system: System, tensor_par: int, pipeline_par: int
    ) -> None:
        t, p = tensor_par, pipeline_par
        self.llm, self.tensor_par, self.pipeline_par = llm, t, p
        self.system = system  # priced from; never part of a table key
        self.processor, self.hbm = system.processor, system.mem1
        self.tp_net = system.network_for_span(t) if t > 1 else None
        self.pp_net = (
            system.network_for_span(min(system.num_procs, t * p)) if p > 1
            else None
        )
        self.block_key = (llm, self.processor, self.hbm, self.tp_net, t)
        self.step_key = self.block_key + (self.pp_net, p)
        # Without pipeline hops a prefill is its block cost: one table.
        self.prefill_key = self.step_key if p > 1 else self.block_key
        self.blocks = _PREFILLS.table(self.block_key)
        self.prefills = (_PREFILLS.table(self.prefill_key) if p > 1
                         else self.blocks)
        self.steps = _STEPS.table(self.step_key)
        self.step_terms = _STEP_TERMS.table(self.step_key)

    def prefill(self, prompt_len: int) -> float:
        """One request's prefill latency: a batch-1 forward pass over the prompt."""
        total = self.prefills.get(prompt_len)
        if total is None:
            total = self.prefill_many((prompt_len,))[prompt_len]
        return total

    def prefill_many(self, prompt_lens: Iterable[int]) -> dict[int, float]:
        """:meth:`prefill` of each distinct prompt length.

        Block costs missing from the table are priced together, one lane
        per prompt length, in a single
        :func:`~repro.engine.batch.prefill_columns` pass.  The answer is
        returned rather than read back, since storing it may already have
        evicted part of it from a full table.
        """
        p = self.pipeline_par
        prefills, blocks = self.prefills, self.blocks
        out: dict[int, float] = {}
        block_cost: dict[int, float] = {}
        cold: list[int] = []
        for n in dict.fromkeys(prompt_lens):
            total = prefills.get(n)
            if total is not None:
                out[n] = total
                continue
            cost = blocks.get(n)
            if cost is None:
                cold.append(n)
            else:
                block_cost[n] = cost
        if cold:
            for n, cost in zip(cold, self._block_costs(cold, 1)):
                block_cost[n] = _PREFILLS.store(self.block_key, blocks, n, cost)
        for n, total in block_cost.items():
            if p > 1:
                total += self._prefill_hops(n)
                _PREFILLS.store(self.prefill_key, prefills, n, total)
            out[n] = total
        return out

    def prefill_batch(self, prompt_len: int, batch: int) -> float:
        """Prefill latency of ``batch`` prompts of ``prompt_len`` tokens at once.

        One forward pass at microbatch ``batch``; not kept in the tables,
        which hold batch-1 prices only.
        """
        (total,) = self._block_costs((prompt_len,), batch)
        if self.pipeline_par > 1:
            total += self._prefill_hops(batch * prompt_len)
        return total

    def _block_costs(self, prompt_lens: Sequence[int], batch: int) -> list[float]:
        """All blocks' forward and TP forward-communication time per prompt length."""
        fw, tp = prefill_columns(
            self.llm, self.system, prompt_lens, self.tensor_par, batch
        )
        blocks = self.llm.num_blocks
        return [blocks * (f + c) for f, c in zip(fw.tolist(), tp.tolist())]

    def _prefill_hops(self, tokens: int) -> float:
        """The ``p - 1`` activation hops of ``tokens`` prompt tokens."""
        nbytes = tokens * self.llm.hidden * self.llm.bytes_per_element
        return (self.pipeline_par - 1) * self.pp_net.collective_time("p2p", nbytes, 2)

    def _batch_terms(self, batch: int) -> tuple[DecodeBatchTerms, float, float]:
        """A decode batch size's step terms, TP all-reduces and PP hops."""
        llm, t, p = self.llm, self.tensor_par, self.pipeline_par
        terms = decode_batch_terms(llm, batch=batch, tensor_par=t)
        comm = hop = 0.0
        if t > 1:
            comm = terms.tp_comm_count * self.tp_net.collective_time(
                "all_reduce", terms.tp_comm_bytes, t
            )
        if p > 1:
            hop_bytes = batch * llm.hidden * llm.bytes_per_element
            hop = p * self.pp_net.collective_time("p2p", hop_bytes, 2)
        return _STEP_TERMS.store(
            self.step_key, self.step_terms, batch, (terms, comm, hop)
        )

    def step(self, batch: int, context: int) -> float:
        """One decode iteration for ``batch`` sequences at ``context`` length."""
        step = self.steps.get((batch, context))
        if step is not None:
            return step
        entry = self.step_terms.get(batch)
        terms, comm, hop = entry if entry is not None else self._batch_terms(batch)
        flops, vector_flops, _, traffic = terms.at(max(context, 1))
        compute = self.processor.compute_time("matrix", flops)
        vector = self.processor.compute_time("vector", vector_flops)
        memory = self.hbm.access_time(traffic)
        step = self.llm.num_blocks * (max(compute + vector, memory) + comm)
        if self.pipeline_par > 1:
            step += hop
        return _STEPS.store(self.step_key, self.steps, (batch, context), step)


def prefill_time(
    llm: LLMConfig, system: System, tensor_par: int, pipeline_par: int,
    prompt_len: int,
) -> float:
    """One request's prefill latency: a batch-1 forward pass over the prompt."""
    return _Kernels(llm, system, tensor_par, pipeline_par).prefill(prompt_len)


def decode_step_time(
    llm: LLMConfig, system: System, tensor_par: int, pipeline_par: int,
    batch: int, context: int,
) -> float:
    """One decode iteration for ``batch`` sequences at ``context`` length.

    Monotone non-decreasing in both ``batch`` and ``context`` (FLOPs,
    memory traffic, and collective payloads all grow with them) — the
    property the TPOT lower bound in :mod:`repro.serving.bounds` relies on.
    """
    return _Kernels(llm, system, tensor_par, pipeline_par).step(batch, context)


@lru_cache(maxsize=1024)
def weights_bytes(llm: LLMConfig, tensor_par: int, pipeline_par: int) -> float:
    """Per-processor weight footprint for a (t, p)-sharded deployment."""
    bpstage = math.ceil(llm.num_blocks / pipeline_par)
    block = build_block(llm, microbatch=1, tensor_par=tensor_par, seq_par=False)
    return bpstage * block.weight_bytes()


def kv_reserve_bytes(
    llm: LLMConfig, context: int, tensor_par: int, pipeline_par: int
) -> int:
    """Per-processor KV reservation for one request at full ``context``.

    Integer-exact: K and V rows of ``hidden / t`` elements per block over
    the ``ceil(L / p)`` blocks hosted per pipeline stage.
    """
    bpstage = -(-llm.num_blocks // pipeline_par)
    return (
        2 * context * llm.hidden * int(llm.bytes_per_element) * bpstage
        // tensor_par
    )


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeStats:
    """Measured behaviour of one simulated serving deployment."""

    completed: int
    duration: float
    throughput_rps: float
    tokens_per_second: float
    ttft_p50: float
    ttft_p95: float
    ttft_p99: float
    tpot_p50: float
    tpot_p95: float
    tpot_p99: float
    goodput_rps: float  # completed-in-SLO requests per second
    good_requests: int
    mean_batch: float  # average decode-batch occupancy
    max_queue: int
    kv_allocated_bytes: int
    kv_freed_bytes: int
    kv_peak_bytes: int  # per-replica peak KV residency
    kv_offload_bytes: float  # bytes streamed over the offload tier
    ttfts: tuple[float, ...]  # per-request, arrival order
    tpots: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.completed < 0 or self.duration < 0:
            raise ValueError("stats must be non-negative")

    def summary(self) -> dict[str, float]:
        return {
            "completed": self.completed,
            "throughput_rps": self.throughput_rps,
            "goodput_rps": self.goodput_rps,
            "tokens_per_second": self.tokens_per_second,
            "ttft_p50": self.ttft_p50,
            "ttft_p95": self.ttft_p95,
            "ttft_p99": self.ttft_p99,
            "tpot_p95": self.tpot_p95,
            "mean_batch": self.mean_batch,
            "max_queue": self.max_queue,
            "kv_peak_gib": self.kv_peak_bytes / 2**30,
            "kv_offload_gib": self.kv_offload_bytes / 2**30,
        }


def _percentiles(values: np.ndarray) -> tuple[float, float, float]:
    """The p50/p95/p99 of ``values`` from one ``np.percentile`` call.

    Element-wise equal to one call per quantile (each quantile is
    interpolated on its own over the same sorted array); all zero when
    ``values`` is empty.
    """
    if not values.size:
        return 0.0, 0.0, 0.0
    return tuple(np.percentile(values, (50, 95, 99)).tolist())


# ---------------------------------------------------------------------------
# Event loop
# ---------------------------------------------------------------------------


@dataclass
class _ReplicaOutcome:
    ttft: dict[int, float]
    span: dict[int, float]  # fl-sum of decode step times (+ waits, disagg)
    end_time: float
    occupancy_time: float
    max_queue: int
    kv_allocated: int
    kv_freed: int
    kv_peak: int
    kv_offload: float


def _replica_loop(
    kernels: _Kernels,
    ids: Sequence[int],
    ready: Sequence[float],
    prompts: Sequence[int],
    outputs: Sequence[int],
    *,
    hbm_kv_budget: float,
    offload_capacity: float,
    offload_seconds_per_byte: float,
    max_batch: int | None,
    charge_prefill: bool,
    wait_in_span: bool,
) -> _ReplicaOutcome:
    """Continuous-batching loop for one replica over its request subset.

    ``ready[i]`` is when request ``i`` becomes eligible (its arrival for a
    colocated deployment; prefill-done + KV-transfer for the decode side of
    a disaggregated one).  ``charge_prefill`` stalls the batch for each
    admitted request's prefill (chunked-prefill, single-queue model);
    ``wait_in_span`` folds admission wait into the per-token span (the
    decode side of disaggregation, where TTFT was already paid upstream).

    Each decode iteration does O(1) Python work: the batch's context total
    is a running exact integer, requests finish through an index of the
    iteration they end on (fixed at admission), and a request's span is
    summed once, at completion, over its own slice of the step times —
    the same fl-sum in the same order as adding each step as it happens.
    """
    llm, t, p = kernels.llm, kernels.tensor_par, kernels.pipeline_par
    step_table, prefill_table = kernels.steps, kernels.prefills
    order = sorted(ids, key=lambda i: (ready[i], i))
    n = len(order)
    need = {i: kv_reserve_bytes(llm, prompts[i] + outputs[i], t, p) for i in order}
    ttft: dict[int, float] = {}
    span: dict[int, float] = {}
    steps: list[float] = []  # every decode iteration's time, in order
    first_step: dict[int, int] = {}  # request id -> its first iteration
    ends: dict[int, list[int]] = {}  # iterations done -> requests finishing
    now = 0.0
    next_ready = 0
    queue: deque[int] = deque()
    batch = 0
    context_total = 0  # sum of the running requests' current lengths
    resident_total = 0
    done = 0
    occupancy = 0.0
    max_queue = 0
    kv_allocated = 0
    kv_freed = 0
    kv_peak = 0
    kv_offload = 0.0
    capacity = hbm_kv_budget + offload_capacity

    while done < n:
        while next_ready < n and ready[order[next_ready]] <= now:
            queue.append(order[next_ready])
            next_ready += 1
        max_queue = max(max_queue, len(queue))

        # Admit FIFO while the batch slot and the full-context KV
        # reservation fit in HBM + offload.
        while queue and (max_batch is None or batch < max_batch):
            rid = queue[0]
            if resident_total + need[rid] > capacity:
                break
            queue.popleft()
            admit = max(now, ready[rid])
            wait = admit - ready[rid]  # exact >= 0: admit >= ready
            if charge_prefill:
                pf = prefill_table.get(prompts[rid])
                if pf is None:
                    pf = kernels.prefill(prompts[rid])
                now = admit + pf
                ttft[rid] = wait + pf  # fl(wait + prefill) >= prefill
            else:
                now = admit
            span[rid] = wait if wait_in_span else 0.0
            first_step[rid] = len(steps)
            ends.setdefault(len(steps) + outputs[rid], []).append(rid)
            batch += 1
            context_total += prompts[rid]
            resident_total += need[rid]
            kv_allocated += need[rid]
            kv_peak = max(kv_peak, resident_total)

        if not batch:
            if next_ready < n:
                now = max(now, ready[order[next_ready]])
                continue
            break

        # One decode iteration for the whole running batch.  Context is the
        # integer mean of the active requests' current lengths, which keeps
        # it >= the smallest prompt (the TPOT bound's anchor).
        ctx = context_total // batch
        step = step_table.get((batch, ctx))
        if step is None:
            step = kernels.step(batch, ctx)
        # KV beyond the HBM budget pages over the offload tier each step.
        overflow = resident_total - hbm_kv_budget
        if overflow > 0:
            step += overflow * offload_seconds_per_byte
            kv_offload += overflow
        now += step
        occupancy += step * batch
        steps.append(step)
        context_total += batch
        for rid in ends.pop(len(steps), ()):
            span[rid] = reduce(add, steps[first_step[rid]:], span[rid])
            context_total -= prompts[rid] + outputs[rid]
            batch -= 1
            resident_total -= need[rid]
            kv_freed += need[rid]
            done += 1

    return _ReplicaOutcome(
        ttft=ttft,
        span=span,
        end_time=now,
        occupancy_time=occupancy,
        max_queue=max_queue,
        kv_allocated=kv_allocated,
        kv_freed=kv_freed,
        kv_peak=kv_peak,
        kv_offload=kv_offload,
    )


def check_serveability(
    llm: LLMConfig,
    system: System,
    strategy: InferenceStrategy,
    workload: ServeWorkload,
) -> str | None:
    """Why one request could never be served, or ``None`` if it can.

    The same test gates both :func:`simulate_serve` (raises) and
    serve-search candidate screening (counts infeasible without raising).
    """
    t, p = strategy.tensor_par, strategy.pipeline_par
    if llm.attn_heads % t or llm.hidden % t or llm.feedforward % t:
        return f"tensor_par={t} must divide the model shape"
    if p > llm.num_blocks:
        return f"pipeline_par={p} exceeds {llm.num_blocks} blocks"
    weights = weights_bytes(llm, t, p)
    if weights >= system.mem1.capacity:
        return (
            f"weights {weights / 2**30:.1f} GiB exceed HBM "
            f"{system.mem1.capacity / 2**30:.1f} GiB"
        )
    worst = kv_reserve_bytes(
        llm, workload.prompt.max_len + workload.output.max_len, t, p
    )
    budget = system.mem1.capacity - weights
    budget += system.mem2.capacity if system.mem2 is not None else 0.0
    if worst > budget:
        return (
            f"one request's KV cache ({worst / 2**30:.1f} GiB) exceeds the "
            f"{budget / 2**30:.1f} GiB KV budget"
        )
    return None


def simulate_serve(
    llm: LLMConfig,
    system: System,
    strategy: InferenceStrategy,
    workload: ServeWorkload,
    *,
    slo: SLOSpec | None = None,
    max_batch: int | None = None,
) -> ServeStats:
    """Simulate continuous-batching serving for a colocated deployment.

    ``strategy.data_par`` replicas each run the continuous-batching loop
    over their round-robin share of the traffic; ``tensor_par`` and
    ``pipeline_par`` shard the model within a replica.  KV reservations
    beyond HBM page to the system's ``mem2`` offload tier, costing every
    decode step the overflow's transfer time.

    Raises:
        ValueError: if even a single request cannot fit.
    """
    strategy.validate(llm, system)
    if max_batch is not None and max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    reason = check_serveability(llm, system, strategy, workload)
    if reason is not None:
        raise ValueError(f"unserveable deployment: {reason}")

    t, p, d = strategy.tensor_par, strategy.pipeline_par, strategy.data_par
    arrivals, prompts, outputs = (a.tolist() for a in workload.sample())
    kernels = _Kernels(llm, system, t, p)
    kernels.prefill_many(prompts)  # every prompt length in one pass
    hbm_kv_budget = system.mem1.capacity - weights_bytes(llm, t, p)
    if system.mem2 is not None:
        offload_capacity = system.mem2.capacity
        offload_seconds_per_byte = 1.0 / (
            system.mem2.bandwidth * system.mem2.efficiency
        )
    else:
        offload_capacity = 0.0
        offload_seconds_per_byte = 0.0

    outcomes = [
        _replica_loop(
            kernels,
            [i for i in range(workload.num_requests) if i % d == rep],
            arrivals, prompts, outputs,
            hbm_kv_budget=hbm_kv_budget,
            offload_capacity=offload_capacity,
            offload_seconds_per_byte=offload_seconds_per_byte,
            max_batch=max_batch,
            charge_prefill=True,
            wait_in_span=False,
        )
        for rep in range(d)
    ]
    return _assemble_stats(outcomes, outputs, slo, workload.num_requests)


def _assemble_stats(
    outcomes: Sequence[_ReplicaOutcome],
    outputs: Sequence[int],
    slo: SLOSpec | None,
    num_requests: int,
) -> ServeStats:
    ttft_by_id: dict[int, float] = {}
    span_by_id: dict[int, float] = {}
    for out in outcomes:
        ttft_by_id.update(out.ttft)
        span_by_id.update(out.span)

    completed_ids = sorted(span_by_id)
    ttfts = tuple(ttft_by_id[i] for i in completed_ids)
    tpots = tuple(span_by_id[i] / int(outputs[i]) for i in completed_ids)
    ttft_arr = np.array(ttfts) if ttfts else np.empty(0)
    tpot_arr = np.array(tpots) if tpots else np.empty(0)

    ttft_p50, ttft_p95, ttft_p99 = _percentiles(ttft_arr)
    tpot_p50, tpot_p95, tpot_p99 = _percentiles(tpot_arr)
    duration = max((o.end_time for o in outcomes), default=0.0)
    duration = duration if duration > 0 else 1e-12
    completed = len(completed_ids)
    total_tokens = int(sum(int(outputs[i]) for i in completed_ids))
    if slo is None:
        good = completed
    else:
        good = sum(
            1 for i in completed_ids
            if slo.request_is_good(ttft_by_id[i], span_by_id[i] / int(outputs[i]))
        )
    return ServeStats(
        completed=completed,
        duration=duration,
        throughput_rps=completed / duration,
        tokens_per_second=total_tokens / duration,
        ttft_p50=ttft_p50,
        ttft_p95=ttft_p95,
        ttft_p99=ttft_p99,
        tpot_p50=tpot_p50,
        tpot_p95=tpot_p95,
        tpot_p99=tpot_p99,
        goodput_rps=good / duration,
        good_requests=good,
        mean_batch=sum(o.occupancy_time for o in outcomes) / duration,
        max_queue=max((o.max_queue for o in outcomes), default=0),
        kv_allocated_bytes=sum(o.kv_allocated for o in outcomes),
        kv_freed_bytes=sum(o.kv_freed for o in outcomes),
        kv_peak_bytes=max((o.kv_peak for o in outcomes), default=0),
        kv_offload_bytes=float(sum(o.kv_offload for o in outcomes)),
        ttfts=ttfts,
        tpots=tpots,
    )

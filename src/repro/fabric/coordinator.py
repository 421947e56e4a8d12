"""The fabric coordinator: lease-based work stealing over search chunks.

The coordinator owns one sweep.  It plans the chunk layout
(:func:`~repro.fabric.plan.plan_chunks`), journals completed chunks through
:class:`~repro.search.checkpoint.CheckpointJournal` (same format, same
resume semantics as ``search(checkpoint=...)``), and hands chunks to
workers over a **pull** protocol:

* ``POST /fabric/register`` — a worker announces itself and receives the
  problem (LLM/system specs, options, chunk step, the content-addressed
  :func:`~repro.fabric.plan.fabric_run_key`) plus the coordinator's
  ``trace_id``.  Workers re-enumerate the space locally, so the wire
  carries specs, never candidate lists.
* ``POST /chunk/lease`` — a worker asks for work.  The coordinator grants
  the next pending chunk under a wall-clock lease, tells callers to
  ``wait`` while the worker barrier or outstanding leases hold, and
  answers ``done`` when every chunk is merged.
* ``POST /chunk/result`` — a worker posts a finished chunk payload
  (:func:`~repro.fabric.chunkeval.evaluate_chunk`'s wire form).  Results
  are idempotent: a stale duplicate (the lease already expired and another
  worker re-ran the chunk) is acknowledged and discarded — the engine is
  deterministic, so both copies are byte-equal anyway.

**Lease state machine** (see ``docs/FABRIC.md``): a chunk is ``pending`` →
``leased`` → ``done``; an expired lease returns the chunk to ``pending``
(emitting ``lease.expire``, and ``worker.dead`` the first time a worker
loses one), and the next grant to a *different* worker is a steal
(``lease.steal``).  Each grant counts as one attempt; a chunk that exhausts
``RetryPolicy.max_retries + 1`` attempts is evaluated inline by the
coordinator (``chunk.serial_fallback``, exactly like ``run_supervised``)
or — with ``serial_fallback=False`` — dropped into ``stats.skipped``.

Reaping is lazy: expiry is checked whenever any worker calls in (a live
cluster polls constantly, so leases are reclaimed within one poll
interval), and :meth:`FabricCoordinator.result` sweeps once more while
waiting so a fully dead cluster still degrades to the serial fallback.

The merged answer is bit-identical to single-process ``search()`` — the
per-chunk columnar slices are bit-identical by the engine's batch-
composition contract, and :class:`~repro.fabric.merge.TopKMerge` ranks on
the total order ``(-rate, global index)``, making the fold associative and
commutative (the bit-identity argument is laid out in ``docs/FABRIC.md``).
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any

import numpy as np

from ..execution.strategy import ExecutionStrategy
from ..hardware.system import System
from ..io.specs import system_to_dict
from ..llm.config import LLMConfig
from ..obs import (
    EventJournal,
    MetricsRegistry,
    PruneStats,
    SweepStats,
    Tracer,
    escape_label_value,
)
from ..search.checkpoint import CheckpointJournal
from ..search.execution_search import SearchOptions, SearchResult
from ..search.faults import RetryPolicy
from .chunkeval import evaluate_chunk
from .merge import TopKMerge
from .plan import (
    ChunkSpec,
    enumerate_space,
    fabric_run_key,
    options_to_dict,
    plan_chunks,
)

logger = logging.getLogger(__name__)

FABRIC_VERSION = 1

# How long a worker may sit on a chunk before its lease is reclaimed.  The
# GPT-3 demo chunk runs in tens of milliseconds; real sweeps stay well
# under this, and a SIGKILLed worker costs at most one lease window.
DEFAULT_LEASE_TIMEOUT = 30.0

# What callers are told to sleep between /chunk/lease polls while waiting.
DEFAULT_POLL_S = 0.02

# -- fabric metric names ------------------------------------------------------
M_F_CHUNKS_DONE = "fabric.chunks.done"
M_F_CHUNKS_FALLBACK = "fabric.chunks.serial_fallback"
M_F_CHUNKS_SKIPPED = "fabric.chunks.skipped"
M_F_LEASES_GRANTED = "fabric.leases.granted"
M_F_LEASES_EXPIRED = "fabric.leases.expired"
M_F_LEASES_STOLEN = "fabric.leases.stolen"
M_F_WORKERS_JOINED = "fabric.workers.joined"
M_F_WORKERS_DEAD = "fabric.workers.dead"
M_F_CHUNK_SECONDS = "fabric.chunk.seconds"


class FabricError(RuntimeError):
    """A protocol violation the HTTP layer maps to a 4xx answer."""


@dataclass
class _Lease:
    chunk: ChunkSpec
    worker: str
    granted: float
    deadline: float


@dataclass
class _Worker:
    worker_id: str
    name: str
    pid: int | None
    joined: float
    chunks: int = 0
    candidates: int = 0
    dead: bool = False


@dataclass
class _ChunkState:
    spec: ChunkSpec
    attempts: int = 0
    last_worker: str | None = None
    done: bool = False
    skipped: bool = False
    fallback: bool = False


class FabricCoordinator:
    """Shards one search across leased chunks and merges the answers.

    Thread-safe: every mutation happens under one lock (HTTP handler
    threads call :meth:`register`/:meth:`lease`/:meth:`submit`
    concurrently).  The rare serial-fallback evaluation runs inline under
    the lock — a degraded cluster prefers correctness over concurrency.
    """

    def __init__(
        self,
        llm: LLMConfig,
        system: System,
        batch: int,
        options: SearchOptions | None = None,
        *,
        top_k: int = 10,
        expected_workers: int = 1,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        retry_policy: RetryPolicy | None = None,
        checkpoint: str | None = None,
        resume: bool = False,
        metrics: MetricsRegistry | None = None,
        events: EventJournal | None = None,
        tracer: Tracer | None = None,
    ):
        if expected_workers < 1:
            raise ValueError("expected_workers must be >= 1")
        self.llm = llm
        self.system = system
        self.batch = batch
        self.options = options or SearchOptions()
        self.top_k = int(top_k)
        self.expected_workers = int(expected_workers)
        self.lease_timeout = float(lease_timeout)
        self.policy = retry_policy or RetryPolicy()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events
        self.tracer = tracer
        # Per-chunk instrumentation (metrics snapshot + trace spans) roughly
        # doubles a chunk's cost; workers only pay it when a tracer is
        # actually collecting the spans on this side.
        self.instrument = tracer is not None
        self.key = fabric_run_key(llm, system, batch, self.options,
                                  top_k=self.top_k)

        self._cols, self.total = enumerate_space(
            llm, system, batch, self.options
        )

        step = None
        self.journal = None
        if checkpoint is not None:
            self.journal = CheckpointJournal.open(
                checkpoint, self.key, resume=resume,
                meta={
                    "step": None,
                    "num_candidates": self.total,
                    "trace_id": tracer.trace_id if tracer is not None else None,
                },
                events=events,
            )
            # The journal's chunk layout wins on resume — chunk ids must
            # mean the same [start, stop) ranges the original run recorded.
            step = self.journal.meta.get("step") or None
            if tracer is not None and self.journal.meta.get("trace_id"):
                tracer.trace_id = str(self.journal.meta["trace_id"])

        chunks = plan_chunks(self.total, self.expected_workers, step=step)
        if self.journal is not None:
            self.journal.meta["step"] = chunks[0].size if chunks else self.total
            self.journal.flush()

        self._lock = threading.Lock()
        self._chunks = {c.index: _ChunkState(spec=c) for c in chunks}
        self._pending: list[int] = [c.index for c in chunks]
        self._leases: dict[int, _Lease] = {}
        self._workers: dict[str, _Worker] = {}
        self._merge = TopKMerge(self.top_k)
        self._snapshots: list[dict] = []
        self._num_evaluated = 0
        self._num_feasible = 0
        self._retries = 0
        self._resumed = 0
        self._done_event = threading.Event()
        self._t_start = perf_counter()
        self._t_first_grant: float | None = None
        self._t_done: float | None = None

        if self.journal is not None and resume:
            self._adopt_journal()
        self._emit(
            "fabric.start", key=self.key[:16], candidates=self.total,
            chunks=len(chunks), step=chunks[0].size if chunks else 0,
            expected_workers=self.expected_workers, resumed=self._resumed,
        )
        self._maybe_finish_locked()

    # -- internal helpers ----------------------------------------------------

    def _emit(self, kind: str, **fields: Any) -> None:
        if self.events is not None:
            self.events.emit(kind, **fields)

    def _adopt_journal(self) -> None:
        """Fold already-journaled chunk payloads into the merge state."""
        for rid, payload in self.journal.records().items():
            state = self._chunks.get(int(rid))
            if state is None or not isinstance(payload, dict):
                continue
            self._absorb(state, payload, worker=None)
            state.done = True
            if int(rid) in self._pending:
                self._pending.remove(int(rid))
            self._resumed += 1
            self._emit("chunk.resumed", chunk=int(rid),
                       start=state.spec.start, stop=state.spec.stop)

    def _absorb(self, state: _ChunkState, payload: dict,
                *, worker: str | None) -> None:
        """Merge one chunk payload into the top-k, counters and journal."""
        self._num_evaluated += int(payload.get("n", 0))
        self._num_feasible += int(payload.get("feasible", 0))
        self._merge.extend(
            (float(rate), int(gidx), strat_dict)
            for rate, gidx, strat_dict in payload.get("top") or []
        )
        snapshot = payload.get("snapshot")
        if snapshot:
            self._snapshots.append(snapshot)
        if self.tracer is not None and payload.get("events"):
            label = f"worker {worker}" if worker else "worker"
            self.tracer.add_events(payload["events"], label=label)

    def _gossip_floor_locked(self) -> float:
        """The cluster's current k-th-best rate, clamped safe for the wire.

        This is the threshold-gossip payload: a full merge heap proves the
        cluster already holds ``top_k`` candidates at or above this rate,
        so workers may skip buckets whose sound upper bound falls strictly
        below it.  ``0.0`` (no pruning) while the heap is short or the
        threshold is non-finite — an empty or poisoned merge must never
        tighten anyone's ceiling.
        """
        entry = self._merge.threshold()
        if entry is None:
            return 0.0
        rate = float(entry[0])
        if not np.isfinite(rate) or rate < 0.0:
            return 0.0
        return rate

    def _reap_expired_locked(self) -> None:
        now = perf_counter()
        for index in [i for i, l in self._leases.items() if now > l.deadline]:
            lease = self._leases.pop(index)
            self.metrics.inc(M_F_LEASES_EXPIRED)
            self._emit(
                "lease.expire", chunk=index, worker=lease.worker,
                held_s=now - lease.granted, timeout_s=self.lease_timeout,
            )
            worker = self._workers.get(lease.worker)
            if worker is not None and not worker.dead:
                # One expired lease is taken as death: live workers renew by
                # finishing chunks well inside the lease window.
                worker.dead = True
                self.metrics.inc(M_F_WORKERS_DEAD)
                self._emit("worker.dead", worker=lease.worker,
                           name=worker.name, chunk=index)
            self._pending.insert(0, index)
            logger.warning(
                "lease on chunk %d expired (worker %s); re-queued",
                index, lease.worker,
            )

    def _fallback_locked(self, state: _ChunkState) -> None:
        """Retries exhausted: evaluate inline, or skip the chunk's range."""
        spec = state.spec
        if self.policy.serial_fallback:
            self.metrics.inc(M_F_CHUNKS_FALLBACK)
            self._emit("chunk.serial_fallback", chunk=spec.index,
                       start=spec.start, stop=spec.stop)
            logger.warning(
                "chunk %d failed %d leases; evaluating inline",
                spec.index, state.attempts,
            )
            payload = evaluate_chunk(
                self.llm, self.system, spec.start, spec.stop, self.top_k,
                cols=self._cols,
                chunk_index=spec.index, instrument=self.instrument,
                trace_id=self.tracer.trace_id if self.tracer else None,
                floor_rate=self._gossip_floor_locked(),
            )
            state.fallback = True
            self._complete_locked(state, payload, worker=None)
        else:
            state.skipped = True
            state.done = True
            self.metrics.inc(M_F_CHUNKS_SKIPPED)
            self._emit("chunk.skipped", chunk=spec.index,
                       start=spec.start, stop=spec.stop)
            logger.error(
                "chunk %d failed %d leases; range [%d, %d) skipped",
                spec.index, state.attempts, spec.start, spec.stop,
            )
            self._maybe_finish_locked()

    def _complete_locked(self, state: _ChunkState, payload: dict,
                         *, worker: str | None) -> None:
        self._absorb(state, payload, worker=worker)
        state.done = True
        self.metrics.inc(M_F_CHUNKS_DONE)
        if payload.get("elapsed_s") is not None:
            self.metrics.observe(M_F_CHUNK_SECONDS, float(payload["elapsed_s"]))
        if self.journal is not None:
            record = {k: payload.get(k) for k in
                      ("n", "feasible", "top", "snapshot")}
            self.journal.record(str(state.spec.index), record)
        self._emit(
            "merge.chunk", chunk=state.spec.index, worker=worker,
            feasible=int(payload.get("feasible", 0)),
            n=int(payload.get("n", 0)),
            retained=len(self._merge),
        )
        self._maybe_finish_locked()

    def _maybe_finish_locked(self) -> None:
        if not self._pending and not self._leases and all(
            s.done for s in self._chunks.values()
        ):
            self._finish_locked()

    def _finish_locked(self) -> None:
        if self._done_event.is_set():
            return
        self._t_done = perf_counter()
        self._emit(
            "fabric.done", key=self.key[:16],
            evaluated=self._num_evaluated, feasible=self._num_feasible,
            sweep_s=self.sweep_seconds,
        )
        self._done_event.set()

    # -- protocol ------------------------------------------------------------

    def register(self, name: str, pid: int | None = None) -> dict:
        """A worker joins; returns its id plus the full problem statement."""
        with self._lock:
            worker_id = f"{name}#{len(self._workers)}"
            self._workers[worker_id] = _Worker(
                worker_id=worker_id, name=str(name), pid=pid,
                joined=perf_counter(),
            )
            self.metrics.inc(M_F_WORKERS_JOINED)
            self._emit("worker.join", worker=worker_id, name=str(name),
                       worker_pid=pid)
            step = next(iter(self._chunks.values())).spec.size \
                if self._chunks else self.total
            return {
                "worker_id": worker_id,
                "fabric_version": FABRIC_VERSION,
                "key": self.key,
                "trace_id": self.tracer.trace_id if self.tracer else None,
                "instrument": self.instrument,
                "poll_s": DEFAULT_POLL_S,
                "problem": {
                    "llm": self.llm.to_dict(),
                    "system": system_to_dict(self.system),
                    "batch": self.batch,
                    "options": options_to_dict(self.options),
                    "top_k": self.top_k,
                    "total": self.total,
                    "step": step,
                },
            }

    def lease(self, worker_id: str) -> dict:
        """Grant the next pending chunk, or say wait/done."""
        with self._lock:
            if worker_id not in self._workers:
                raise FabricError(f"unknown worker {worker_id!r}; register first")
            self._reap_expired_locked()
            if self._done_event.is_set():
                return {"status": "done"}
            # Barrier: chunk sizing assumed expected_workers pullers; handing
            # the whole space to an early bird would serialize the sweep.
            if len(self._workers) < self.expected_workers:
                return {"status": "wait", "poll_s": DEFAULT_POLL_S,
                        "reason": "waiting for workers"}
            while self._pending:
                index = self._pending.pop(0)
                state = self._chunks[index]
                state.attempts += 1
                if state.attempts > self.policy.max_retries + 1:
                    self._fallback_locked(state)
                    if self._done_event.is_set():
                        return {"status": "done"}
                    continue
                if state.attempts > 1:
                    self._retries += 1
                now = perf_counter()
                if self._t_first_grant is None:
                    self._t_first_grant = now
                self._leases[index] = _Lease(
                    chunk=state.spec, worker=worker_id,
                    granted=now, deadline=now + self.lease_timeout,
                )
                self.metrics.inc(M_F_LEASES_GRANTED)
                stolen = (
                    state.last_worker is not None
                    and state.last_worker != worker_id
                )
                if stolen:
                    self.metrics.inc(M_F_LEASES_STOLEN)
                    self._emit("lease.steal", chunk=index, worker=worker_id,
                               previous=state.last_worker)
                state.last_worker = worker_id
                # Threshold gossip: every grant carries the cluster-wide
                # k-th-best rate so far.  Chunks already absorbed tighten
                # the ceiling for every chunk still to run.
                floor = self._gossip_floor_locked()
                self._emit(
                    "lease.grant", chunk=index, worker=worker_id,
                    start=state.spec.start, stop=state.spec.stop,
                    attempt=state.attempts, stolen=stolen,
                    floor_rate=floor,
                )
                return {
                    "status": "lease",
                    "chunk": state.spec.to_dict(),
                    "attempt": state.attempts,
                    "deadline_s": self.lease_timeout,
                    "floor_rate": floor,
                }
            if self._leases:
                return {"status": "wait", "poll_s": DEFAULT_POLL_S,
                        "reason": "chunks in flight"}
            self._maybe_finish_locked()
            return {"status": "done"}

    def submit(self, worker_id: str, chunk_index: int, payload: dict,
               key: str | None = None) -> dict:
        """Accept one finished chunk; idempotent for stale duplicates."""
        if key is not None and key != self.key:
            raise FabricError(
                f"result for run {key[:12]}… does not belong to this "
                f"fabric ({self.key[:12]}…)"
            )
        if not isinstance(payload, dict) or "n" not in payload:
            raise FabricError("malformed chunk payload")
        with self._lock:
            state = self._chunks.get(int(chunk_index))
            if state is None:
                raise FabricError(f"no such chunk {chunk_index}")
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.chunks += 1
                worker.candidates += int(payload.get("n", 0))
                # A result proves life even if a lease expired meanwhile.
                worker.dead = False
            if state.done:
                # The lease expired, another worker re-ran the chunk, and
                # the original finally answered (or vice versa).  The engine
                # is deterministic, so the copies agree; drop this one.
                self._emit("merge.chunk", chunk=int(chunk_index),
                           worker=worker_id, stale=True)
                return {"status": "stale"}
            lease = self._leases.pop(int(chunk_index), None)
            if lease is None:
                # Expired but not yet re-granted: accept — the work is done.
                if int(chunk_index) in self._pending:
                    self._pending.remove(int(chunk_index))
            self._complete_locked(state, payload, worker=worker_id)
            return {"status": "ok", "done": self._done_event.is_set()}

    # -- results & introspection ---------------------------------------------

    @property
    def done(self) -> bool:
        return self._done_event.is_set()

    @property
    def sweep_seconds(self) -> float | None:
        """First lease grant → last merge; None before both exist.

        This is the honest distributed-sweep window: it excludes worker
        process boot (amortized in a long-lived cluster) but includes every
        lease round-trip, evaluation and merge.
        """
        if self._t_done is None:
            return None
        start = self._t_first_grant if self._t_first_grant is not None \
            else self._t_start
        return self._t_done - start

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the sweep completes; reaps leases while waiting.

        Sweeping here (not just in :meth:`lease`) matters when *every*
        worker died: nobody polls, so the coordinator itself must notice
        the expiries and run its serial fallbacks.
        """
        deadline = None if timeout is None else perf_counter() + timeout
        while not self._done_event.wait(timeout=0.05):
            with self._lock:
                self._reap_expired_locked()
                if not self._leases and self._pending and self._workers and \
                        all(w.dead for w in self._workers.values()):
                    # Cluster-wide death: drain the queue serially.
                    while self._pending and not self._done_event.is_set():
                        index = self._pending.pop(0)
                        state = self._chunks[index]
                        state.attempts = self.policy.max_retries + 2
                        self._fallback_locked(state)
                    self._maybe_finish_locked()
            if deadline is not None and perf_counter() > deadline:
                return self._done_event.is_set()
        return True

    def result(self, timeout: float | None = None) -> SearchResult:
        """The merged :class:`SearchResult`, bit-identical to ``search()``.

        Waits for completion, then materializes the winners: each retained
        ``(rate, gidx, strategy_dict)`` entry is rebuilt and re-evaluated
        through the deterministic scalar engine — the same re-evaluation
        ``search()`` performs, so the ``PerformanceResult`` objects
        (not just the rates) match the single-process answer exactly.
        """
        if not self.wait(timeout=timeout):
            raise TimeoutError("fabric sweep did not complete in time")
        top: list[tuple[ExecutionStrategy, Any]] = []
        from ..engine import evaluate

        for _rate, _gidx, strat_dict in self._merge.entries():
            strat = ExecutionStrategy.from_dict(dict(strat_dict))
            top.append((strat, evaluate(self.llm, self.system, strat)))
        registry = MetricsRegistry.from_snapshots(self._snapshots)
        skipped = tuple(
            (s.spec.start, s.spec.stop)
            for s in sorted(self._chunks.values(), key=lambda s: s.spec.index)
            if s.skipped
        )
        stats = SweepStats(
            engine=PruneStats.from_metrics(registry),
            elapsed=perf_counter() - self._t_start,
            workers=max(len(self._workers), 1),
            num_evaluated=self._num_evaluated,
            num_feasible=self._num_feasible,
            retries=self._retries,
            skipped=skipped,
            resumed_chunks=self._resumed,
            truncated=False,
        )
        best_strategy, best = (top[0][0], top[0][1]) if top else (None, None)
        return SearchResult(
            best=best,
            best_strategy=best_strategy,
            top=top,
            num_evaluated=self._num_evaluated,
            num_feasible=self._num_feasible,
            sample_rates=np.empty(0),
            stats=stats,
            truncated=bool(skipped),
        )

    def status(self) -> dict:
        with self._lock:
            self._reap_expired_locked()
            states = self._chunks.values()
            return {
                "fabric_version": FABRIC_VERSION,
                "key": self.key,
                "candidates": self.total,
                "chunks": len(self._chunks),
                "done_chunks": sum(s.done for s in states),
                "pending": len(self._pending),
                "leased": len(self._leases),
                "skipped": sum(s.skipped for s in states),
                "fallbacks": sum(s.fallback for s in states),
                "workers": {
                    w.worker_id: {
                        "name": w.name, "pid": w.pid, "chunks": w.chunks,
                        "candidates": w.candidates, "dead": w.dead,
                    }
                    for w in self._workers.values()
                },
                "expected_workers": self.expected_workers,
                "done": self._done_event.is_set(),
                "sweep_s": self.sweep_seconds,
            }

    def worker_metric_lines(self) -> list[str]:
        """Per-worker Prometheus series for the coordinator's ``/metrics``.

        ``render_prometheus`` has no label support (its name mangler would
        squash the braces), so these labeled gauges are assembled here and
        appended verbatim to the service exposition.
        """
        lines = []
        with self._lock:
            workers = sorted(self._workers.values(), key=lambda w: w.worker_id)
            for metric, attr in (
                ("repro_fabric_worker_chunks", "chunks"),
                ("repro_fabric_worker_candidates", "candidates"),
            ):
                for w in workers:
                    label = escape_label_value(w.worker_id)
                    lines.append(
                        f'{metric}{{worker="{label}"}} {getattr(w, attr)}'
                    )
        return lines

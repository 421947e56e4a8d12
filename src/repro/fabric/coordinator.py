"""The fabric coordinator: lease-based work stealing over search chunks.

The coordinator owns one sweep's leases; everything else about the sweep
is the search pipeline's own code.  The chunk layout and the checkpoint
journal come from :func:`~repro.search.faults.open_chunk_journal` (same
format, same resume semantics as ``search(checkpoint=...)``), chunks are
evaluated by ``execution_search._evaluate_chunk`` on the task tuple
``search()`` builds, results travel in the journal's record encoding,
winners fold through :class:`~repro.search.merge.TopKMerge`, and the
:class:`~repro.search.execution_search.SearchResult` is assembled by
``search()``'s own ``_search_result``.  Chunks are handed to workers over
a **pull** protocol:

* ``POST /fabric/register`` — a worker announces itself and receives the
  problem (LLM/system specs, options, chunk step, the content-addressed
  :func:`~repro.fabric.plan.fabric_run_key`) plus the coordinator's
  ``trace_id``.  Workers re-enumerate the space locally, so the wire
  carries specs, never candidate lists.
* ``POST /chunk/lease`` — a worker asks for work.  The coordinator grants
  the next pending chunk under a wall-clock lease, tells callers to
  ``wait`` while the worker barrier or outstanding leases hold, and
  answers ``done`` when every chunk is merged.
* ``POST /chunk/result`` — a worker posts a finished chunk: the journal
  record of ``execution_search._chunk_payload`` plus ``events`` and
  ``elapsed_s``.  Results are idempotent: a stale duplicate (the lease
  already expired and another worker re-ran the chunk) is acknowledged
  and discarded — the engine is deterministic, so both copies are
  byte-equal anyway.

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
composition contract, and the merge ranks on the total order ``(-rate,
global index)``, making the fold associative and commutative (the
bit-identity argument is laid out in ``docs/FABRIC.md``).
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any

import numpy as np

from ..hardware.system import System
from ..io.specs import system_to_dict
from ..llm.config import LLMConfig
from ..obs import EventJournal, MetricsRegistry, Tracer, escape_label_value
from ..search.columns import candidate_columns
from ..search.execution_search import (
    SearchOptions,
    SearchResult,
    _chunk_from_payload,
    _chunk_payload,
    _chunk_task,
    _evaluate_chunk,
    _search_result,
)
from ..search.faults import ChunkRun, RetryPolicy, chunk_step, open_chunk_journal
from ..search.merge import TopKMerge
from .plan import fabric_run_key, options_to_dict

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
    index: int
    start: int
    stop: int
    attempts: int = 0
    last_worker: str | None = None
    done: bool = False
    skipped: bool = False
    fallback: bool = False

    def to_dict(self) -> dict[str, int]:
        return {"index": self.index, "start": self.start, "stop": self.stop}


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

        self.cols = candidate_columns(llm, system, batch, self.options)
        self.total = int(self.cols["t"].shape[0])
        self.journal, bounds, restored = open_chunk_journal(
            self.total, chunk_step(self.total, self.expected_workers),
            checkpoint=checkpoint, key=self.key, resume=resume,
            decode=_chunk_from_payload, tracer=tracer, events=events,
        )
        self.step = bounds[0][1] - bounds[0][0]

        self._lock = threading.Lock()
        self._chunks = {n: _ChunkState(n, lo, hi)
                        for n, (lo, hi) in enumerate(bounds)}
        self._pending: list[int] = [n for n in self._chunks
                                    if n not in restored]
        self._leases: dict[int, _Lease] = {}
        self._workers: dict[str, _Worker] = {}
        self._merge = TopKMerge(self.top_k)
        self._results: dict[int, tuple] = {}
        self._retries = 0
        self._resumed = len(restored)
        self._done_event = threading.Event()
        self._t_start = perf_counter()
        self._t_first_grant: float | None = None
        self._t_done: float | None = None

        for n, result in restored.items():
            self._absorb(n, result, worker=None)
            self._chunks[n].done = True
        self._emit(
            "fabric.start", key=self.key[:16], candidates=self.total,
            chunks=len(bounds), step=self.step,
            expected_workers=self.expected_workers, resumed=self._resumed,
        )
        self._maybe_finish_locked()

    # -- internal helpers ----------------------------------------------------

    def _emit(self, kind: str, **fields: Any) -> None:
        if self.events is not None:
            self.events.emit(kind, **fields)

    def _absorb(self, index: int, result: tuple, *, worker: str | None) -> None:
        """Merge one chunk result into the top-k and stitch its trace spans."""
        self._results[index] = result
        self._merge.extend((e[0], e[1], e) for e in result[3])
        if self.tracer is not None and result[-1]:
            label = f"worker {worker}" if worker else "worker"
            self.tracer.add_events(result[-1], label=label)

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
        if self.policy.serial_fallback:
            self.metrics.inc(M_F_CHUNKS_FALLBACK)
            self._emit("chunk.serial_fallback", chunk=state.index,
                       start=state.start, stop=state.stop)
            logger.warning(
                "chunk %d failed %d leases; evaluating inline",
                state.index, state.attempts,
            )
            t0 = perf_counter()
            result = _evaluate_chunk(_chunk_task(
                self.llm, self.system, self.cols, state.index, state.start,
                state.stop, self.top_k,
                floor_rate=self._gossip_floor_locked(),
                instrument=self.instrument,
                trace_id=self.tracer.trace_id if self.tracer else None,
            ))
            state.fallback = True
            self._complete_locked(state, result, worker=None,
                                  elapsed=perf_counter() - t0)
        else:
            state.skipped = True
            state.done = True
            self.metrics.inc(M_F_CHUNKS_SKIPPED)
            self._emit("chunk.skipped", chunk=state.index,
                       start=state.start, stop=state.stop)
            logger.error(
                "chunk %d failed %d leases; range [%d, %d) skipped",
                state.index, state.attempts, state.start, state.stop,
            )
            self._maybe_finish_locked()

    def _complete_locked(self, state: _ChunkState, result: tuple, *,
                         worker: str | None, elapsed: float | None) -> None:
        self._absorb(state.index, result, worker=worker)
        state.done = True
        self.metrics.inc(M_F_CHUNKS_DONE)
        if elapsed is not None:
            self.metrics.observe(M_F_CHUNK_SECONDS, elapsed)
        if self.journal is not None:
            self.journal.record(str(state.index), _chunk_payload(result))
        self._emit(
            "merge.chunk", chunk=state.index, worker=worker,
            feasible=result[1], n=result[0], retained=len(self._merge),
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
            evaluated=sum(r[0] for r in self._results.values()),
            feasible=sum(r[1] for r in self._results.values()),
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
                    "step": self.step,
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
                    worker=worker_id, granted=now,
                    deadline=now + self.lease_timeout,
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
                    start=state.start, stop=state.stop,
                    attempt=state.attempts, stolen=stolen,
                    floor_rate=floor,
                )
                return {
                    "status": "lease",
                    "chunk": state.to_dict(),
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
        try:
            result = _chunk_from_payload(payload)[:-1] + (payload.get("events"),)
            elapsed = payload.get("elapsed_s")
            elapsed = None if elapsed is None else float(elapsed)
        except (AttributeError, KeyError, TypeError, ValueError):
            raise FabricError("malformed chunk payload") from None
        with self._lock:
            state = self._chunks.get(int(chunk_index))
            if state is None:
                raise FabricError(f"no such chunk {chunk_index}")
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.chunks += 1
                worker.candidates += result[0]
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
            self._complete_locked(state, result, worker=worker_id,
                                  elapsed=elapsed)
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

        Waits for completion, then assembles the result with ``search()``'s
        own ``_search_result``: winners evaluated inline keep their result
        and winners decoded from the wire or the journal are priced through
        the scalar engine, so the ``PerformanceResult`` objects (not just
        the rates) match the single-process answer exactly.  ``truncated``
        means chunks were skipped; their ranges are in ``stats.skipped``.
        """
        if not self.wait(timeout=timeout):
            raise TimeoutError("fabric sweep did not complete in time")
        skipped = tuple(
            (s.start, s.stop) for _, s in sorted(self._chunks.items())
            if s.skipped
        )
        run = ChunkRun(
            results=[r for _, r in sorted(self._results.items())],
            top=[e for _rate, _gidx, e in self._merge.entries()],
            workers=max(len(self._workers), 1),
            tolerant=True,
            retries=self._retries,
            resumed=self._resumed,
            skipped=skipped,
        )
        return _search_result(self.llm, self.system, run,
                              started=self._t_start, with_stats=True,
                              truncated=bool(skipped))

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

"""Micro-batched dispatch: queued requests ride one ``evaluate_many`` call.

The staged engine's batched entry point amortizes work across candidates —
profile-group dedup, shared memory buckets, shared infeasible results — but
an HTTP service naturally receives candidates one at a time.  The
:class:`MicroBatcher` closes that gap: requests land on a queue, a single
dispatch thread collects everything that arrives within a short window (or
up to ``max_batch``), groups the batch by (LLM, system) pair, and feeds
each group through :func:`repro.engine.evaluate_many` as one engine call.
Callers block on a per-request :class:`~concurrent.futures.Future`, so
latency cost is bounded by the window while concurrent bursts — exactly the
near-duplicate what-if queries an interactive co-design session produces —
are evaluated with sweep efficiency.
"""

from __future__ import annotations

import logging
import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Any, Callable

from ..engine import evaluate_many
from ..execution.strategy import ExecutionStrategy
from ..hardware.system import System
from ..llm.config import LLMConfig
from ..obs import (
    M_BOUND_EVALS,
    M_BOUND_PRUNED,
    M_BOUND_SKIPPED_BUCKETS,
    M_BOUND_TILES,
    M_COLUMNAR_BATCHES,
    M_COLUMNAR_CANDIDATES,
    M_COMM_CACHE_HITS,
    M_COMM_CACHE_MISSES,
    EventJournal,
    MetricsRegistry,
)

logger = logging.getLogger(__name__)

# -- dispatch metric names ----------------------------------------------------
M_BATCHES = "service.dispatch.batches"
M_BATCH_SIZE = "service.dispatch.batch_size"
M_BATCH_SECONDS = "service.dispatch.batch_seconds"
M_ENGINE_CALLS = "service.dispatch.engine_calls"
M_DISPATCHED = "service.dispatch.requests"

# Queue poll interval while idle; only bounds shutdown latency.
_TICK = 0.05


@dataclass
class EvalJob:
    """One queued evaluation: the parsed triple plus its rendezvous future."""

    llm: LLMConfig
    system: System
    strategy: ExecutionStrategy
    group: Any
    future: "Future[Any]" = field(default_factory=Future)


class MicroBatcher:
    """Collects queued jobs for ``window`` seconds and batch-evaluates them.

    ``window=0`` degrades to per-arrival dispatch (whatever is already
    queued still shares a batch).  ``engine`` is injectable for tests that
    count or slow down engine calls; it must have ``evaluate_many``'s
    signature and input-order result alignment.  The default engine runs
    micro-batches of 32 or more through the vectorized columnar path and
    smaller ones through the scalar :func:`~repro.engine.evaluate`.
    ``events`` is an optional :class:`~repro.obs.EventJournal` flight
    recorder; every dispatched micro-batch appends one ``batch.dispatch``
    event (size, group count, wall seconds).
    """

    def __init__(
        self,
        *,
        window: float = 0.002,
        max_batch: int = 64,
        metrics: MetricsRegistry | None = None,
        engine: Callable[..., list] | None = None,
        events: EventJournal | None = None,
    ):
        if window < 0:
            raise ValueError("window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.window = window
        self.max_batch = max_batch
        self.events = events
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Pre-register the engine's bound/comm-cache/columnar counters so
        # /metrics exposes them from the first scrape.  The service never
        # passes a prune_above threshold (every request needs its real
        # result), so engine_bound_pruned and the adaptive tile/skip
        # counters stay 0 here; the comm-cache counters accumulate real
        # hit/miss deltas from every batched dispatch, and the columnar
        # counters record how many micro-batches rode the vectorized path.
        for name in (
            M_BOUND_EVALS, M_BOUND_PRUNED, M_BOUND_TILES,
            M_BOUND_SKIPPED_BUCKETS,
            M_COMM_CACHE_HITS, M_COMM_CACHE_MISSES,
            M_COLUMNAR_BATCHES, M_COLUMNAR_CANDIDATES,
        ):
            self.metrics.inc(name, 0.0)
        self._engine = engine if engine is not None else evaluate_many
        self._queue: "queue.Queue[EvalJob]" = queue.Queue()
        self._pending = 0
        self._pending_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MicroBatcher":
        if self._thread is not None:
            raise RuntimeError("batcher already started")
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-service-dispatch", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Stop the dispatch thread; with ``drain`` finish queued work first.

        Without ``drain``, jobs still queued when the thread exits get a
        :class:`RuntimeError` on their futures so no caller blocks forever.
        """
        if self._thread is None:
            return
        if drain:
            self.join()
        self._stop_event.set()
        self._thread.join()
        self._thread = None
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            job.future.set_exception(RuntimeError("service dispatch stopped"))
            self._job_done()

    def join(self) -> None:
        """Block until every submitted job has been dispatched and resolved."""
        while self.depth:
            sleep(0.005)

    @property
    def depth(self) -> int:
        """Jobs submitted but not yet resolved (queued + being evaluated)."""
        with self._pending_lock:
            return self._pending

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        llm: LLMConfig,
        system: System,
        strategy: ExecutionStrategy,
        *,
        group: Any,
    ) -> "Future[Any]":
        """Queue one evaluation; the future resolves to a PerformanceResult.

        ``group`` must be equal for jobs that can share an engine call —
        i.e. a fingerprint of the (LLM, system) pair; the strategy is the
        per-candidate axis ``evaluate_many`` batches over.
        """
        if self._thread is None:
            raise RuntimeError("batcher not started")
        job = EvalJob(llm, system, strategy, group)
        with self._pending_lock:
            self._pending += 1
        self.metrics.inc(M_DISPATCHED)
        self._queue.put(job)
        return job.future

    def _job_done(self) -> None:
        with self._pending_lock:
            self._pending -= 1

    # -- dispatch loop -------------------------------------------------------

    def _run(self) -> None:
        while not self._stop_event.is_set():
            try:
                first = self._queue.get(timeout=_TICK)
            except queue.Empty:
                continue
            batch = [first]
            # Collect until the window closes, the batch fills, or the
            # queue momentarily empties after the window.
            end = perf_counter() + self.window
            while len(batch) < self.max_batch:
                remaining = end - perf_counter()
                if remaining <= 0:
                    # Window over: still absorb whatever is already queued.
                    try:
                        batch.append(self._queue.get_nowait())
                        continue
                    except queue.Empty:
                        break
                try:
                    batch.append(self._queue.get(timeout=remaining))
                except queue.Empty:
                    break
            self._dispatch(batch)

    def _dispatch(self, batch: list[EvalJob]) -> None:
        t0 = perf_counter()
        self.metrics.inc(M_BATCHES)
        self.metrics.observe(M_BATCH_SIZE, len(batch))
        groups: dict[Any, list[EvalJob]] = {}
        for job in batch:
            groups.setdefault(job.group, []).append(job)
        for jobs in groups.values():
            self.metrics.inc(M_ENGINE_CALLS)
            try:
                results = self._engine(
                    jobs[0].llm,
                    jobs[0].system,
                    [job.strategy for job in jobs],
                    metrics=self.metrics,
                )
            except BaseException as err:  # engine bugs must not hang callers
                logger.exception("batched evaluation failed")
                for job in jobs:
                    job.future.set_exception(err)
                    self._job_done()
                continue
            for job, result in zip(jobs, results):
                job.future.set_result(result)
                self._job_done()
        elapsed = perf_counter() - t0
        self.metrics.observe(M_BATCH_SECONDS, elapsed)
        if self.events is not None:
            self.events.emit(
                "batch.dispatch", size=len(batch), groups=len(groups),
                seconds=elapsed,
            )

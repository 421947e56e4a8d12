"""Fault supervision for long-running sweeps: retry, timeout, degrade, stop.

A Fig.-6-scale search dispatches thousands of independent chunks to a
process pool over minutes or hours.  At that scale worker failures stop
being exceptional: a chunk can OOM, a worker can be killed by the OS, a
machine can wedge.  :func:`run_supervised` wraps chunk dispatch with the
supervision policy the search engines share:

* **bounded retry with exponential backoff** — a failed chunk is retried up
  to :attr:`RetryPolicy.max_retries` times, waiting
  ``backoff_base * backoff_factor**attempt`` (capped at ``backoff_max``)
  between attempts;
* **per-chunk timeout** — with :attr:`RetryPolicy.timeout` set, a chunk
  running longer than the budget is presumed hung: the pool is torn down
  (hung workers are terminated), innocent in-flight chunks are re-queued
  without an attempt penalty, and the hung chunk is charged one attempt;
* **graceful degradation** — a chunk that exhausts its pool retries is
  re-run serially in the parent process (``serial_fallback``); if it still
  fails it is recorded as *skipped* and the sweep continues, so one
  poisoned range cannot abort an hours-long campaign;
* **wall-clock deadline** — enumeration stops cleanly at a chunk boundary
  once the deadline passes; chunks never started are reported as
  *pending* and the caller flags its result ``truncated``.

:class:`FaultInjector` is the deterministic test hook behind all of this:
it makes the Nth chunk raise, hang, or kill its process, for the first
``fail_attempts`` attempts, so every recovery path above is exercisable in
tests and CI without flaky timing games.

:func:`run_chunks` is the one chunk driver of the searches built on top
(``search()`` and ``serve_search()``): it owns the chunk layout
(:func:`chunk_step`, :func:`chunk_bounds`), checkpoint resume and record
(:func:`open_chunk_journal`), progress, dispatch through
:func:`run_supervised`, skipped ranges, trace stitching and the
``(-rate, global index)`` top-k merge (:class:`~repro.search.merge.TopKMerge`).
Retries, fallback and skipping engage only when the caller asked for fault
tolerance; otherwise the first failing chunk re-raises, at any worker
count.  The fabric coordinator lays out, journals and merges its chunks
with the same three pieces.
"""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Mapping

from .checkpoint import CheckpointJournal
from .merge import TopKMerge

logger = logging.getLogger(__name__)

# Poll interval of the supervision loop.  Failures are rare; completions are
# harvested with ``wait(..., FIRST_COMPLETED)``, so the tick only bounds how
# quickly timeouts and backoff expiries are noticed.
TICK = 0.05

# Chunks cut per worker: enough for the pool (or the fabric's work
# stealing) to rebalance around a straggler or a retried chunk, few enough
# that per-chunk dispatch stays negligible.
CHUNKS_PER_WORKER = 4


class FaultInjected(RuntimeError):
    """The error a :class:`FaultInjector` raises in ``exception`` mode."""


@dataclass(frozen=True)
class RetryPolicy:
    """How chunk failures are retried, backed off, timed out and degraded.

    ``max_retries`` counts *re*-tries: a chunk is attempted at most
    ``max_retries + 1`` times in the pool before degradation kicks in.
    ``timeout`` is seconds of wall clock per chunk attempt (``None``
    disables hang detection).  ``serial_fallback`` controls the final
    in-parent re-run; disable it when a hang is suspected (a serial re-run
    of a hanging chunk would hang the parent).
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    timeout: float | None = None
    serial_fallback: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_max < 0:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")

    def delay(self, attempt: int) -> float:
        """Backoff before re-attempt ``attempt + 1`` (``attempt`` is 0-based)."""
        return min(self.backoff_max, self.backoff_base * self.backoff_factor**attempt)

    def delays(self) -> list[float]:
        """The full backoff schedule, one entry per allowed retry."""
        return [self.delay(a) for a in range(self.max_retries)]


class FaultInjector:
    """Deterministically fail one chunk: raise, hang, or kill the process.

    ``fire(chunk_index)`` is called by the chunk evaluator at the start of
    every attempt; it does nothing unless ``chunk_index`` matches.  The
    first ``fail_attempts`` matching attempts fail in the configured
    ``mode``; later attempts succeed, which is how retry-then-recover paths
    are tested.  Attempts are counted in-process by default; pass a
    ``state_path`` (one byte is appended per attempt) to count across
    processes — a pickled injector cannot carry mutable state back from a
    pool worker.
    """

    MODES = ("exception", "hang", "crash")

    def __init__(
        self,
        chunk_index: int,
        mode: str = "exception",
        *,
        fail_attempts: int = 1,
        state_path: str | os.PathLike | None = None,
        hang_seconds: float = 3600.0,
        exit_code: int = 23,
    ):
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.chunk_index = chunk_index
        self.mode = mode
        self.fail_attempts = fail_attempts
        self.state_path = os.fspath(state_path) if state_path is not None else None
        self.hang_seconds = hang_seconds
        self.exit_code = exit_code
        self._local_attempts = 0

    def _next_attempt(self) -> int:
        if self.state_path is None:
            n = self._local_attempts
            self._local_attempts += 1
            return n
        # O_APPEND keeps the count monotonic even when attempts land in
        # different worker processes.
        fd = os.open(self.state_path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o600)
        try:
            n = os.fstat(fd).st_size
            os.write(fd, b"x")
        finally:
            os.close(fd)
        return n

    def fire(self, chunk_index: int) -> None:
        """Fail (or not) according to the configured mode and attempt count."""
        if chunk_index != self.chunk_index:
            return
        attempt = self._next_attempt()
        if attempt >= self.fail_attempts:
            return
        if self.mode == "exception":
            raise FaultInjected(
                f"injected failure on chunk {chunk_index} (attempt {attempt})"
            )
        if self.mode == "hang":
            time.sleep(self.hang_seconds)
            return
        os._exit(self.exit_code)  # "crash": die without cleanup, like a SIGKILL


@dataclass
class SupervisionReport:
    """What :func:`run_supervised` actually ran, retried, skipped or left."""

    results: dict[int, Any] = field(default_factory=dict)
    skipped: list[int] = field(default_factory=list)
    pending: list[int] = field(default_factory=list)
    retries: int = 0
    truncated: bool = False


def run_supervised(
    fn: Callable[[Any], Any],
    tasks: Mapping[int, Any],
    *,
    workers: int,
    policy: RetryPolicy | None = None,
    deadline: float | None = None,
    on_result: Callable[[int, Any], None] | None = None,
    events: Any | None = None,
    tracer: Any | None = None,
    reraise: bool = False,
) -> SupervisionReport:
    """Run ``fn(tasks[i])`` for every task under the supervision policy.

    ``tasks`` maps a chunk index to the (picklable) argument for ``fn``;
    results land in :attr:`SupervisionReport.results` keyed the same way.
    ``deadline`` is an absolute ``time.perf_counter()`` instant — tasks not
    yet started when it passes are left in ``pending`` and the report is
    flagged ``truncated``.  ``on_result`` is invoked in the parent, in
    completion order, as each chunk finishes (this is where the search
    layer journals checkpoints and ticks progress).

    ``events`` is an optional :class:`~repro.obs.EventJournal`: the
    supervisor records the chunk lifecycle (dispatch, done, retry, timeout,
    serial fallback, skip, deadline truncation) as it happens.  ``tracer``
    is an optional :class:`~repro.obs.Tracer`: a chunk that *fails* still
    gets a span — closed here by the supervisor, since a crashed or hung
    worker never returns its own trace events — so failed attempts are
    visible on the timeline, not silent gaps.

    ``workers <= 1`` runs serially in-process: retries and backoff apply,
    but a crash-mode fault kills the caller (there is no isolation to fall
    back on) and ``timeout`` cannot interrupt a hung chunk.

    ``reraise`` turns supervision off: the first failing task re-raises
    its own exception (after the pool is torn down) instead of being
    retried, degraded or skipped.
    """
    policy = policy or RetryPolicy()
    report = SupervisionReport()
    if workers <= 1:
        _run_serial(fn, tasks, policy, deadline, on_result, report, events,
                    tracer, reraise)
    else:
        _run_pool(fn, tasks, workers, policy, deadline, on_result, report,
                  events, tracer, reraise)
    report.skipped.sort()
    report.pending.sort()
    return report


def _emit(events, kind: str, **fields: Any) -> None:
    """Journal one supervision event; a ``None`` journal costs a branch."""
    if events is not None:
        events.emit(kind, **fields)


def _close_failed_span(tracer, index: int, started: float, err: BaseException,
                       attempt: int) -> None:
    """Record the span of a failed chunk attempt on the supervisor's lane.

    The worker that owned the attempt may be dead (crash) or hung
    (timeout), so its own span was never closed; the supervisor knows the
    dispatch instant and the failure instant and closes the span itself.
    """
    if tracer is not None:
        tracer.add_span(
            f"chunk[{index}] failed", "search.fault", started,
            perf_counter() - started,
            chunk=index, attempt=attempt, error=repr(err),
        )


def _record(report, on_result, index, result) -> None:
    report.results[index] = result
    if on_result is not None:
        on_result(index, result)


def _run_serial(fn, tasks, policy, deadline, on_result, report,
                events=None, tracer=None, reraise=False) -> None:
    order = sorted(tasks)
    # Timing calls are gated on instrumentation being attached: the serial
    # loop must not consume extra perf_counter() reads when uninstrumented
    # (tests pin deadline behavior to a fake clock, and the fast path stays
    # fast).
    instrumented = events is not None or tracer is not None
    for pos, index in enumerate(order):
        if deadline is not None and perf_counter() >= deadline:
            report.truncated = True
            report.pending.extend(order[pos:])
            _emit(events, "sweep.truncated", pending=len(order) - pos)
            return
        for attempt in range(policy.max_retries + 1):
            started = perf_counter() if instrumented else 0.0
            _emit(events, "chunk.dispatch", chunk=index, attempt=attempt,
                  mode="serial")
            try:
                result = fn(tasks[index])
            except Exception as err:
                _close_failed_span(tracer, index, started, err, attempt)
                if reraise:
                    raise
                logger.warning(
                    "chunk %d failed (attempt %d/%d): %s",
                    index, attempt + 1, policy.max_retries + 1, err,
                )
                if attempt < policy.max_retries:
                    report.retries += 1
                    _emit(events, "chunk.retry", chunk=index, attempt=attempt,
                          error=repr(err))
                    time.sleep(policy.delay(attempt))
                    continue
                report.skipped.append(index)
                _emit(events, "chunk.skipped", chunk=index, error=repr(err))
                break
            else:
                _record(report, on_result, index, result)
                if events is not None:
                    events.emit("chunk.done", chunk=index,
                                seconds=perf_counter() - started)
                break


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even if its workers are hung or dead."""
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already-dead process races
            pass


def _run_pool(fn, tasks, workers, policy, deadline, on_result, report,
              events=None, tracer=None, reraise=False) -> None:
    queue: list[int] = sorted(tasks)
    attempts: dict[int, int] = {}
    not_before: dict[int, float] = {}
    pool = ProcessPoolExecutor(max_workers=workers)
    inflight: dict[Any, tuple[int, float]] = {}

    def fail(index: int, err: BaseException, started: float) -> None:
        attempt = attempts.get(index, 0)
        _close_failed_span(tracer, index, started, err, attempt)
        if reraise:
            raise err  # the ``finally`` below tears the pool down first
        logger.warning(
            "chunk %d failed (attempt %d/%d): %s",
            index, attempt + 1, policy.max_retries + 1, err,
        )
        kind = "chunk.timeout" if isinstance(err, TimeoutError) else "chunk.retry"
        if attempt < policy.max_retries:
            attempts[index] = attempt + 1
            report.retries += 1
            _emit(events, kind, chunk=index, attempt=attempt, error=repr(err))
            not_before[index] = perf_counter() + policy.delay(attempt)
            queue.append(index)
            return
        _emit(events, kind, chunk=index, attempt=attempt, error=repr(err),
              exhausted=True)
        if policy.serial_fallback:
            # Last resort before giving up on the range: out of the pool,
            # in the parent, where no pickling or worker state is involved.
            logger.warning("chunk %d: retries exhausted, re-running serially", index)
            report.retries += 1
            _emit(events, "chunk.serial_fallback", chunk=index)
            serial_start = perf_counter()
            try:
                _record(report, on_result, index, fn(tasks[index]))
                if events is not None:
                    events.emit("chunk.done", chunk=index,
                                mode="serial_fallback",
                                seconds=perf_counter() - serial_start)
                return
            except Exception as serial_err:
                logger.error("chunk %d failed serially too: %s", index, serial_err)
                _close_failed_span(tracer, index, serial_start, serial_err,
                                   attempt + 1)
        report.skipped.append(index)
        _emit(events, "chunk.skipped", chunk=index, error=repr(err))

    def submit(index: int) -> bool:
        nonlocal pool
        try:
            future = pool.submit(fn, tasks[index])
        except BrokenProcessPool:
            _kill_pool(pool)
            pool = ProcessPoolExecutor(max_workers=workers)
            future = pool.submit(fn, tasks[index])
        inflight[future] = (index, perf_counter())
        _emit(events, "chunk.dispatch", chunk=index,
              attempt=attempts.get(index, 0), mode="pool")
        return True

    try:
        while queue or inflight:
            now = perf_counter()
            if deadline is not None and now >= deadline and queue:
                report.truncated = True
                report.pending.extend(queue)
                _emit(events, "sweep.truncated", pending=len(queue))
                queue.clear()
            while queue and len(inflight) < workers:
                ready = next(
                    (i for i in queue if now >= not_before.get(i, 0.0)), None
                )
                if ready is None:
                    break
                queue.remove(ready)
                submit(ready)
            if not inflight:
                if queue:
                    time.sleep(TICK)  # everything eligible is backing off
                    continue
                break

            done, _ = wait(set(inflight), timeout=TICK, return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                index, started = inflight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool as err:
                    broken = True
                    fail(index, err, started)
                except Exception as err:
                    fail(index, err, started)
                else:
                    _record(report, on_result, index, result)
                    if events is not None:
                        events.emit("chunk.done", chunk=index,
                                    seconds=perf_counter() - started)
            if broken:
                # A dead worker poisons every future in the pool; siblings are
                # charged an attempt too (the crasher is indistinguishable).
                for future, (index, started) in list(inflight.items()):
                    del inflight[future]
                    fail(index, BrokenProcessPool("sibling worker died"), started)
                _kill_pool(pool)
                pool = ProcessPoolExecutor(max_workers=workers)

            if policy.timeout is not None and inflight:
                now = perf_counter()
                hung = [
                    (future, index, started)
                    for future, (index, started) in inflight.items()
                    if now - started > policy.timeout
                ]
                if hung:
                    # No portable way to kill one pool worker: tear the pool
                    # down, charge the hung chunks an attempt, and re-queue
                    # the innocent in-flight chunks without penalty.
                    for future, index, _started in hung:
                        del inflight[future]
                    for future, (index, _started) in list(inflight.items()):
                        del inflight[future]
                        queue.insert(0, index)
                    _kill_pool(pool)
                    pool = ProcessPoolExecutor(max_workers=workers)
                    for _future, index, started in hung:
                        fail(index, TimeoutError(
                            f"chunk exceeded {policy.timeout:.3g}s timeout"
                        ), started)
    finally:
        _kill_pool(pool)


def chunk_step(total: int, workers: int, step: int | None = None) -> int:
    """Chunk size for ``total`` candidates spread over ``workers``.

    ``ceil(total / (workers * CHUNKS_PER_WORKER))``, at least 1.  A given
    ``step`` wins: a resumed run must slice the space exactly as the
    journaled run did.
    """
    if step is None:
        step = math.ceil(total / (max(workers, 1) * CHUNKS_PER_WORKER))
    return max(int(step), 1)


def chunk_bounds(total: int, step: int) -> list[tuple[int, int]]:
    """The ``[lo, hi)`` ranges of ``step`` candidates covering ``[0, total)``.

    Chunk ``n`` is ``bounds[n]``; an empty space is still one (empty)
    chunk.  The one layout rule of :func:`run_chunks` and of the fabric.
    """
    return [(lo, min(lo + step, total)) for lo in range(0, max(total, 1), step)]


def open_chunk_journal(
    total: int,
    step: int,
    *,
    checkpoint: str | os.PathLike | None,
    key: str | None,
    resume: bool,
    decode: Callable[[Any], Any] | None,
    tracer: Any | None = None,
    events: Any | None = None,
) -> tuple[CheckpointJournal | None, list[tuple[int, int]], dict[int, Any]]:
    """Open a sweep's checkpoint journal; return it, the layout and what it holds.

    Returns ``(journal, bounds, restored)``.  Without ``checkpoint`` there
    is no journal, ``bounds`` is :func:`chunk_bounds` of ``step`` and
    nothing is restored.  With it, the journal is opened under run key
    ``key`` with meta ``step``, ``num_candidates`` and ``trace_id``.  On
    resume the journal's ``step`` wins, so chunk ids keep meaning the
    ranges the original run recorded; a ``tracer`` adopts the journal's
    ``trace_id``, so the stitched trace spans both invocations; and every
    journaled chunk is decoded into ``restored`` (chunk index → result),
    each with a ``chunk.resumed`` event.
    """
    if checkpoint is None:
        return None, chunk_bounds(total, step), {}
    journal = CheckpointJournal.open(
        checkpoint, key, resume=resume, events=events,
        meta={
            "step": step,
            "num_candidates": total,
            "trace_id": tracer.trace_id if tracer is not None else None,
        },
    )
    step = int(journal.meta.get("step") or step)
    if tracer is not None and journal.meta.get("trace_id"):
        tracer.trace_id = str(journal.meta["trace_id"])
    bounds = chunk_bounds(total, step)
    restored: dict[int, Any] = {}
    for n, (lo, hi) in enumerate(bounds):
        if str(n) in journal:
            restored[n] = decode(journal.get(str(n)))
            if events is not None:
                events.emit("chunk.resumed", chunk=n, start=lo, stop=hi)
    return journal, bounds, restored


@dataclass
class ChunkRun:
    """What :func:`run_chunks` ran, in chunk order, plus the merged top-k.

    ``tolerant`` records whether a fault-tolerance argument was given (only
    then are chunks retried, skipped or left pending); ``skipped`` holds
    the ``[start, stop)`` ranges of chunks that failed for good.
    """

    results: list[Any]
    top: list[tuple]
    workers: int
    tolerant: bool
    retries: int = 0
    resumed: int = 0
    skipped: tuple[tuple[int, int], ...] = ()
    truncated: bool = False


def run_chunks(
    fn: Callable[[Any], tuple],
    task: Callable[[int, int, int, str | None], Any],
    total: int,
    *,
    top_k: int,
    workers: int | None,
    name: str,
    start_fields: Mapping[str, Any],
    started: float,
    tracer: Any | None = None,
    events: Any | None = None,
    progress: Any | None = None,
    checkpoint: str | os.PathLike | None = None,
    key: str | None = None,
    resume: bool = False,
    encode: Callable[[tuple], Any] | None = None,
    decode: Callable[[Any], tuple] | None = None,
    deadline: float | None = None,
    retry_policy: RetryPolicy | None = None,
    fault_injector: FaultInjector | None = None,
) -> ChunkRun:
    """Drive one search's chunks from layout to merged top-k.

    The search supplies its chunk function ``fn`` and ``task(index, lo,
    hi, trace_id)``, which builds ``fn``'s (picklable) argument for global
    candidates ``[lo, hi)``.  ``fn`` returns a tuple ``(n, ok, ..., top,
    snapshot, trace_events)``: ``n`` candidates of which ``ok`` count as
    progress successes, and ``top`` entries ``(rate, global index, ...)``.

    * **Layout.**  The space is one chunk unless ``workers > 1`` or a
      fault-tolerance argument (``checkpoint``, ``deadline``,
      ``retry_policy``, ``fault_injector``) is given; then chunks are
      :func:`chunk_step` candidates long, and a resumed journal's ``step``
      wins.  ``tracer``, ``events`` and ``progress`` never change the
      layout or the dispatch.
    * **Journal.**  With ``checkpoint`` (under run key ``key``) journaled
      chunks are restored through ``decode`` instead of re-run
      (:func:`open_chunk_journal`), and every finished chunk is recorded
      through ``encode``.
    * **Dispatch.**  :func:`run_supervised`, serial for ``workers <= 1``,
      else on a process pool.  Only a tolerant run retries, degrades,
      skips and honours ``deadline`` (seconds from ``started``); otherwise
      the first failing chunk re-raises.
    * **Merge.**  Worker trace events join ``tracer``; ``top`` is the best
      ``top_k`` entries of every chunk, folded through
      :class:`~repro.search.merge.TopKMerge` on the ``(-rate, global
      index)`` total order, so neither the layout nor
      the arrival order changes it (up to ties at a chunk's own k-th rate,
      which the chunk breaks by its evaluation order).

    ``events`` additionally gets ``<name>.start`` (``start_fields`` plus
    workers, chunks and trace_id) and the chunk lifecycle; the caller
    emits its own ``<name>.done``.
    """
    workers = max(workers or 1, 1)
    tolerant = (checkpoint is not None or deadline is not None
                or retry_policy is not None or fault_injector is not None)
    step = chunk_step(total, workers) if workers > 1 or tolerant else max(total, 1)
    if progress is not None:
        progress.set_total(total)
    journal, bounds, results = open_chunk_journal(
        total, step, checkpoint=checkpoint, key=key, resume=resume,
        decode=decode, tracer=tracer, events=events,
    )
    trace_id = tracer.trace_id if tracer is not None else None
    logger.debug("%s: %d candidates, %d workers, %d chunks (tolerant=%s)",
                 name, total, workers, len(bounds), tolerant)
    if events is not None:
        events.emit(f"{name}.start", **start_fields, workers=workers,
                    chunks=len(bounds), trace_id=trace_id)
    tasks = {n: task(n, lo, hi, trace_id)
             for n, (lo, hi) in enumerate(bounds) if n not in results}
    resumed = len(results)
    if progress is not None:
        for n in sorted(results):
            progress.update(results[n][0], results[n][1])

    def on_result(n: int, r: tuple) -> None:
        results[n] = r
        if journal is not None:
            journal.record(str(n), encode(r))
        if progress is not None:
            progress.update(r[0], r[1])

    report = run_supervised(
        fn, tasks, workers=workers, policy=retry_policy,
        deadline=started + deadline if deadline is not None else None,
        on_result=on_result, events=events, tracer=tracer,
        reraise=not tolerant,
    )
    if progress is not None:
        progress.finish()
    ordered = [results[n] for n in sorted(results)]
    if tracer is not None:
        for r in ordered:
            if r[-1]:
                tracer.add_events(r[-1])
    merge = TopKMerge(top_k)
    for r in ordered:
        merge.extend((e[0], e[1], e) for e in r[-3])
    return ChunkRun(
        results=ordered,
        top=[e for _rate, _gidx, e in merge.entries()],
        workers=workers,
        tolerant=tolerant,
        retries=report.retries,
        resumed=resumed,
        skipped=tuple(bounds[n] for n in report.skipped),
        truncated=report.truncated,
    )

"""Run a complete fabric cluster on one machine: coordinator + N workers.

:func:`run_fabric` is the one-call form behind ``repro fabric --workers N``:
it builds a :class:`~repro.fabric.server.FabricHTTPServer` on a loopback
port, forks ``N`` worker processes from the coordinator (each runs the
:class:`~repro.fabric.worker.FabricWorker` loop over real HTTP, i.e.
exactly what an external ``repro fabric --join <url>`` node runs against
a remote coordinator, minus a second interpreter boot), waits for the
merged result, and tears everything down.  Workers that die are
survivable by construction — their leases expire and the survivors steal
the chunks — so teardown only has to reap whatever is still alive.

The fork happens while the coordinator is still single-threaded: after
the server socket listens and the space is enumerated, before the
evaluation service's dispatch thread and the ``serve_forever`` thread
start.  A forked worker reuses the coordinator's enumerated columns.
Where ``fork`` is unavailable, or the calling process already runs
threads of its own, the same worker body runs under ``spawn`` and
enumerates the space itself.

For tests that want the protocol without process start-up,
``spawn="thread"`` runs each worker loop in a daemon thread over real
HTTP to the same server.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import socket
import threading
from time import perf_counter

from ..search.execution_search import SearchResult
from .server import make_fabric_server
from .worker import FabricWorker

logger = logging.getLogger(__name__)

__all__ = ["run_fabric"]



def run_fabric(
    llm,
    system,
    batch,
    options=None,
    *,
    workers: int = 4,
    top_k: int = 10,
    host: str = "127.0.0.1",
    port: int = 0,
    lease_timeout: float | None = None,
    retry_policy=None,
    checkpoint: str | None = None,
    resume: bool = False,
    events=None,
    tracer=None,
    timeout: float = 600.0,
    spawn: str = "process",
    worker_env: dict[str, str] | None = None,
) -> SearchResult:
    """Shard one search across a local cluster; return the merged result.

    ``spawn="process"`` (default) forks each worker from this process
    (``spawn`` start method where fork is unavailable or the caller runs
    threads); ``spawn="thread"``
    runs the worker loops in-process (same wire protocol, no start-up
    cost).  ``worker_env`` is applied to each worker process's
    environment — the fault-drill hooks (``REPRO_FABRIC_CRASH_AT_LEASE``)
    ride in this way.

    The result carries ``stats`` (worker-merged engine counters) and the
    coordinator's sweep window is exposed on the returned result as
    ``result.stats.elapsed`` includes enumeration and merge; callers that
    want the lease-to-merge window read the coordinator via the
    ``fabric.done`` event's ``sweep_s`` field or
    :attr:`FabricCoordinator.sweep_seconds` (the benchmark does).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if spawn not in ("process", "thread"):
        raise ValueError("spawn must be 'process' or 'thread'")
    server = make_fabric_server(
        llm, system, batch, options,
        host=host, port=port, top_k=top_k,
        expected_workers=workers,
        lease_timeout=lease_timeout,
        retry_policy=retry_policy,
        checkpoint=checkpoint, resume=resume,
        events=events, tracer=tracer,
    )
    url = f"http://{host}:{server.port}"
    serve_thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.005},
        daemon=True, name="fabric-coordinator",
    )
    procs: list[multiprocessing.Process] = []
    threads: list[threading.Thread] = []
    t_boot = perf_counter()
    try:
        if spawn == "process":
            # The server listens, but it neither serves nor dispatches
            # until serve_forever runs below, so no thread of ours exists.
            method = _start_method()
            ctx = multiprocessing.get_context(method)
            listener = server.socket if method == "fork" else None
            # A forked child inherits the enumerated columns; a spawned one
            # would receive them pickled, so it enumerates instead.
            cols = server.coordinator.cols if method == "fork" else None
            for i in range(workers):
                proc = ctx.Process(
                    target=_local_worker,
                    args=(url, f"local-{i}", worker_env or {}, listener, cols),
                    name=f"fabric-worker-{i}", daemon=True,
                )
                proc.start()
                procs.append(proc)
        serve_thread.start()
        if spawn == "thread":
            def _loop(i: int) -> None:
                try:
                    FabricWorker(url, name=f"thread-{i}").run()
                except Exception:
                    logger.exception("in-thread fabric worker %d died", i)

            for i in range(workers):
                t = threading.Thread(target=_loop, args=(i,), daemon=True,
                                     name=f"fabric-worker-{i}")
                t.start()
                threads.append(t)
        result = server.coordinator.result(timeout=timeout)
        result_total_s = perf_counter() - t_boot
        logger.info(
            "fabric sweep done: %d candidates, sweep %.3fs, total %.3fs",
            result.num_evaluated,
            server.coordinator.sweep_seconds or -1.0, result_total_s,
        )
        return result
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        for t in threads:
            t.join(timeout=5.0)
        if serve_thread.is_alive():
            server.shutdown()
        server.server_close()
        server.service.stop(drain=False)


def _start_method() -> str:
    """``fork`` from a single-threaded process, else ``spawn``.

    A forked child skips the interpreter boot and imports.  It is safe only
    while no other thread can hold a lock at the fork, so a caller that
    already runs threads, or a platform without fork, gets children that
    boot their own interpreter.
    """
    if ("fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1):
        return "fork"
    return "spawn"


def _local_worker(url: str, name: str, env: dict[str, str],
                  listener: socket.socket | None, cols=None) -> None:
    """Body of one local worker process: what ``repro fabric --join`` runs.

    ``listener`` is the coordinator's listening socket, inherited by fork;
    the worker only ever connects to it, so its copy is closed first.
    ``cols`` are the coordinator's candidate columns, inherited by fork,
    so the worker skips enumeration (it still checks the run key and the
    candidate count on registering).
    """
    if listener is not None:
        listener.close()
    os.environ.update(env)
    FabricWorker(url, name=name, columns=cols).run()

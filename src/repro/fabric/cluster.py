"""Run a complete fabric cluster on one machine: coordinator + N workers.

:func:`run_fabric` is the one-call form behind ``repro fabric --workers N``:
it boots a :class:`~repro.fabric.server.FabricHTTPServer` on a loopback
port, spawns ``N`` worker subprocesses (each runs
``python -m repro fabric --join <url>``, i.e. exactly what an external
node would run against a remote coordinator), waits for the merged result,
and tears everything down.  Workers that die are survivable by
construction — their leases expire and the survivors steal the chunks —
so teardown only has to reap whatever is still alive.

For tests that want the protocol without process-spawn latency,
``spawn="thread"`` runs each :class:`~repro.fabric.worker.FabricWorker`
loop in a daemon thread over real HTTP to the same server.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
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

    ``spawn="process"`` (default) launches each worker as a fresh
    ``python -m repro fabric --join`` subprocess; ``spawn="thread"`` runs
    the worker loops in-process (same wire protocol, no boot cost).
    ``worker_env`` adds environment variables to spawned workers — the
    fault-drill hooks (``REPRO_FABRIC_CRASH_AT_LEASE``) ride in this way.

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
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True, name="fabric-coordinator",
    )
    serve_thread.start()
    procs: list[subprocess.Popen] = []
    threads: list[threading.Thread] = []
    t_boot = perf_counter()
    try:
        if spawn == "process":
            env = {**os.environ, **(worker_env or {})}
            env["PYTHONPATH"] = _pythonpath(env)
            for i in range(workers):
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "fabric",
                     "--join", url, "--name", f"local-{i}"],
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                ))
        else:
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
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
        for t in threads:
            t.join(timeout=5.0)
        server.shutdown()
        server.server_close()
        server.service.stop(drain=False)


def _pythonpath(env: dict[str, str]) -> str:
    """Ensure spawned workers can import ``repro`` from a src/ checkout."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    current = env.get("PYTHONPATH")
    if not current:
        return src
    if src in current.split(os.pathsep):
        return current
    return src + os.pathsep + current

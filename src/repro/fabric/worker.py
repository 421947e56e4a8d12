"""A fabric worker: join a coordinator, pull leases, evaluate, post results.

A worker is a thin loop over :class:`~repro.service.client.ServiceClient`'s
transport (same retry/backoff machinery the query CLI uses):

1. ``POST /fabric/register`` → worker id, the problem spec, the
   coordinator's ``trace_id``;
2. re-enumerate the candidate space locally (enumeration is deterministic,
   so global indices agree with the coordinator by construction) and
   verify the content key matches — a worker pointed at the wrong cluster
   refuses instead of polluting the merge;
3. loop ``POST /chunk/lease`` → evaluate the ``[start, stop)`` slice with
   :func:`~repro.fabric.chunkeval.evaluate_chunk` → ``POST /chunk/result``
   until the coordinator answers ``done``.

Every chunk payload carries a metrics snapshot and trace spans stamped
with the coordinator's ``trace_id``, so ``repro trace`` renders the whole
cluster as one timeline.

Two environment hooks make cluster fault drills deterministic (the fabric
twin of :class:`~repro.search.faults.FaultInjector`):

* ``REPRO_FABRIC_CRASH_AT_LEASE=k`` — ``os._exit(23)`` immediately after
  acquiring the k-th lease (1-based): a held lease dies with the process.
* ``REPRO_FABRIC_HOLD_AT_LEASE=k`` — print ``HOLDING chunk=<i>`` on stdout
  after acquiring the k-th lease and sleep forever; the CI harness SIGKILLs
  the worker mid-lease at a known point.
"""

from __future__ import annotations

import logging
import os
import sys
import time
from typing import Any

from ..io.specs import llm_from_spec, system_from_spec
from ..service.client import ServiceClient
from .chunkeval import evaluate_chunk
from .plan import fabric_run_key, options_from_dict

logger = logging.getLogger(__name__)

__all__ = ["FabricWorker", "run_worker"]

ENV_CRASH_AT_LEASE = "REPRO_FABRIC_CRASH_AT_LEASE"
ENV_HOLD_AT_LEASE = "REPRO_FABRIC_HOLD_AT_LEASE"


class FabricWorker:
    """One pull-loop participant of a fabric cluster."""

    def __init__(
        self,
        base_url: str,
        *,
        name: str | None = None,
        client: ServiceClient | None = None,
    ):
        self.client = client if client is not None else ServiceClient(base_url)
        self.name = name or f"worker-{os.getpid()}"
        self.worker_id: str | None = None
        self.key: str | None = None
        self.trace_id: str | None = None
        self.instrument = True
        self.chunks_done = 0
        self._llm = None
        self._system = None
        self._cols = None
        self._top_k = 0
        self._poll_s = 0.02

    # -- join ----------------------------------------------------------------

    def register(self) -> dict:
        """Join the cluster and rebuild the problem from the wire spec."""
        reply = self.client.post(
            "/fabric/register", {"name": self.name, "pid": os.getpid()}
        )
        problem = reply["problem"]
        self._llm = llm_from_spec(problem["llm"])
        self._system = system_from_spec(problem["system"])
        options = options_from_dict(problem["options"])
        self._top_k = int(problem["top_k"])
        key = fabric_run_key(
            self._llm, self._system, int(problem["batch"]), options,
            top_k=self._top_k,
        )
        if key != reply["key"]:
            raise RuntimeError(
                f"problem key mismatch: coordinator says "
                f"{reply['key'][:12]}…, local enumeration gives {key[:12]}… "
                "(engine or spec version skew between nodes?)"
            )
        from .plan import enumerate_space

        self._cols, total = enumerate_space(
            self._llm, self._system, int(problem["batch"]), options
        )
        if total != int(problem["total"]):
            raise RuntimeError(
                f"enumeration disagrees with coordinator: "
                f"{total} candidates locally vs {problem['total']}"
            )
        self.worker_id = reply["worker_id"]
        self.key = key
        self.trace_id = reply.get("trace_id")
        self.instrument = bool(reply.get("instrument", True))
        self._poll_s = float(reply.get("poll_s") or self._poll_s)
        logger.info(
            "joined fabric as %s (%d candidates, top_k=%d)",
            self.worker_id, total, self._top_k,
        )
        return reply

    # -- pull loop -----------------------------------------------------------

    def _fault_hooks(self, chunk_index: int) -> None:
        crash_at = int(os.environ.get(ENV_CRASH_AT_LEASE) or 0)
        hold_at = int(os.environ.get(ENV_HOLD_AT_LEASE) or 0)
        lease_no = self.chunks_done + 1
        if crash_at and lease_no == crash_at:
            logger.warning("fault hook: crashing at lease %d", lease_no)
            os._exit(23)
        if hold_at and lease_no == hold_at:
            # The harness greps stdout for this line, then SIGKILLs us: a
            # deterministic "worker wedged mid-lease" without timing games.
            print(f"HOLDING chunk={chunk_index}", flush=True)  # noqa: T201
            while True:
                time.sleep(3600)

    def run(self, *, max_chunks: int | None = None) -> int:
        """Pull and evaluate until the coordinator says done.

        Returns the number of chunks this worker completed.  ``max_chunks``
        lets tests stop a worker early (its leases then expire and are
        stolen by the survivors).
        """
        if self.worker_id is None:
            self.register()
        while True:
            if max_chunks is not None and self.chunks_done >= max_chunks:
                return self.chunks_done
            reply = self.client.post("/chunk/lease", {"worker": self.worker_id})
            status = reply.get("status")
            if status == "done":
                return self.chunks_done
            if status == "wait":
                time.sleep(float(reply.get("poll_s") or self._poll_s))
                continue
            chunk = reply["chunk"]
            self._fault_hooks(int(chunk["index"]))
            payload = self.evaluate(
                chunk, floor_rate=float(reply.get("floor_rate") or 0.0)
            )
            self.client.post(
                "/chunk/result",
                {
                    "worker": self.worker_id,
                    "chunk": int(chunk["index"]),
                    "key": self.key,
                    "payload": payload,
                },
            )
            self.chunks_done += 1

    def evaluate(self, chunk: dict, *, floor_rate: float = 0.0) -> dict[str, Any]:
        return evaluate_chunk(
            self._llm, self._system,
            int(chunk["start"]), int(chunk["stop"]), self._top_k,
            cols=self._cols,
            chunk_index=int(chunk["index"]),
            instrument=self.instrument,
            trace_id=self.trace_id,
            floor_rate=floor_rate,
        )


def run_worker(
    url: str,
    *,
    name: str | None = None,
) -> int:
    """CLI entry: join ``url``, work until done, return chunk count."""
    worker = FabricWorker(url, name=name)
    worker.register()
    done = worker.run()
    logger.info("fabric worker %s finished %d chunks", worker.name, done)
    return done


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - thin
    import argparse

    parser = argparse.ArgumentParser(description="repro fabric worker")
    parser.add_argument("url")
    parser.add_argument("--name")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr)
    run_worker(args.url, name=args.name)
    return 0

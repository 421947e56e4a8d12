"""HTTP face of the fabric coordinator: a service server grown four routes.

The coordinator node IS a ``repro.service`` server — same handler plumbing,
same ``EvaluationService`` (so ``/evaluate``, ``/healthz``, ``/presets``
keep working against the coordinator), same ``MetricsRegistry`` — extended
with the fabric protocol:

========================  =====================================================
``POST /fabric/register`` join the cluster; body ``{"name", "pid"}``;
                          returns worker id + problem + ``trace_id``
``POST /chunk/lease``     body ``{"worker"}``; returns a chunk lease, or
                          ``{"status": "wait"|"done"}``
``POST /chunk/result``    body ``{"worker", "chunk", "key", "payload"}``;
                          idempotent (stale duplicates acknowledged)
``GET  /fabric/status``   chunk/lease/worker table for humans and tests
========================  =====================================================

``GET /metrics`` is the service exposition plus the coordinator's
per-worker labeled gauges (``repro_fabric_worker_chunks{worker="..."}``).
"""

from __future__ import annotations

import logging

from ..obs import EventJournal, MetricsRegistry, Tracer
from ..service.server import (
    BadRequest,
    EvaluationService,
    ServiceHTTPServer,
    _Handler,
)
from .coordinator import FabricCoordinator, FabricError

logger = logging.getLogger(__name__)

__all__ = ["FabricHTTPServer", "make_fabric_server"]


class _FabricHandler(_Handler):
    @property
    def coordinator(self) -> FabricCoordinator:
        return self.server.coordinator  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        if path == "/fabric/status":
            self._send_json(200, self.coordinator.status())
        elif path == "/metrics":
            body = self.service.metrics_text()
            extra = self.coordinator.worker_metric_lines()
            if extra:
                body = body.rstrip("\n") + "\n" + "\n".join(extra) + "\n"
            raw = body.encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)
        else:
            super().do_GET()

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        if path not in ("/fabric/register", "/chunk/lease", "/chunk/result"):
            super().do_POST()
            return
        try:
            payload = self._read_body()
            if not isinstance(payload, dict):
                raise BadRequest("request body must be a JSON object")
            if path == "/fabric/register":
                response = self.coordinator.register(
                    str(payload.get("name") or "worker"),
                    pid=payload.get("pid"),
                )
            elif path == "/chunk/lease":
                response = self.coordinator.lease(str(payload.get("worker")))
            else:
                if "chunk" not in payload or "payload" not in payload:
                    raise BadRequest(
                        "/chunk/result needs 'chunk' and 'payload' fields"
                    )
                response = self.coordinator.submit(
                    str(payload.get("worker")),
                    int(payload["chunk"]),
                    payload["payload"],
                    key=payload.get("key"),
                )
        except BadRequest as err:
            self._send_error_json(err)
        except FabricError as err:
            self._send_json(409, {"error": str(err)})
        except Exception as err:  # pragma: no cover - defensive
            logger.exception("unhandled error serving %s", path)
            self._send_json(500, {"error": str(err)})
        else:
            self._send_json(200, response)


class FabricHTTPServer(ServiceHTTPServer):
    """A :class:`ServiceHTTPServer` that also owns a fabric coordinator."""

    def __init__(
        self,
        address: tuple[str, int],
        service: EvaluationService,
        coordinator: FabricCoordinator,
    ):
        super().__init__(address, service, handler=_FabricHandler)
        self.coordinator = coordinator


def make_fabric_server(
    llm,
    system,
    batch,
    options=None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    top_k: int = 10,
    expected_workers: int = 1,
    lease_timeout: float | None = None,
    retry_policy=None,
    checkpoint: str | None = None,
    resume: bool = False,
    events: EventJournal | None = None,
    tracer: Tracer | None = None,
) -> FabricHTTPServer:
    """Assemble coordinator + evaluation service + HTTP server (not serving).

    The evaluation service shares the coordinator's :class:`MetricsRegistry`
    and events journal, so one ``/metrics`` scrape covers both roles.
    """
    from .coordinator import DEFAULT_LEASE_TIMEOUT

    metrics = MetricsRegistry()
    coordinator = FabricCoordinator(
        llm, system, batch, options,
        top_k=top_k,
        expected_workers=expected_workers,
        lease_timeout=(
            DEFAULT_LEASE_TIMEOUT if lease_timeout is None else lease_timeout
        ),
        retry_policy=retry_policy,
        checkpoint=checkpoint,
        resume=resume,
        metrics=metrics,
        events=events,
        tracer=tracer,
    )
    service = EvaluationService(metrics=metrics, events=events)
    service.start()
    return FabricHTTPServer((host, port), service, coordinator)

"""The evaluation service: a long-lived daemon around the staged engine.

``repro.service`` converts the batch tool into shared infrastructure: a
process that stays up, remembers every evaluation it has ever done, and
serves interactive what-if queries over a stdlib-only HTTP JSON API.

:class:`EvaluationService` is the transport-free core (tests drive it
directly); :class:`ServiceHTTPServer` + :func:`serve` wrap it in a
``ThreadingHTTPServer``.  The request path composes three mechanisms:

* **content-addressed caching** — the request's (LLM, system, strategy)
  triple is hashed with :func:`repro.cachekey.run_key` (engine version
  included) and looked up in the two-tier :class:`ResultCache`; hits never
  touch the engine;
* **in-flight coalescing** — concurrent identical misses rendezvous on one
  future: the first requester (the *leader*) evaluates, every follower
  waits and shares the answer, so N identical queries cost one engine call;
* **micro-batched dispatch** — leader misses queue into the
  :class:`~repro.service.dispatch.MicroBatcher`, which feeds a short
  arrival window of distinct candidates through ``evaluate_many`` to
  exploit profile-group and memory-bucket dedup across *different* queries.

Capacity is bounded: when the dispatch backlog reaches ``max_pending`` the
service answers 503 with a ``Retry-After`` hint instead of queueing without
limit, and a draining server (SIGTERM) finishes in-flight work while
rejecting new evaluations.  See ``docs/SERVICE.md``.

``POST /serve`` runs the serving-deployment simulator
(:func:`repro.serving.simulate_plan`) for one plan/workload/SLO triple.
It shares the content-addressed cache (``kind="service.serve"`` keys) and
draining behaviour, but evaluates synchronously in the handler thread —
one simulation is one cohesive discrete-event run, so there is nothing for
the micro-batcher to dedup.  See ``docs/SERVING.md``.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter, sleep
from typing import Any

from ..cachekey import content_key, run_key
from ..execution.strategy import ExecutionStrategy, StrategyError
from ..io.report import result_to_flat_dict
from ..io.specs import llm_from_spec, system_from_spec, system_to_dict
from ..llm.config import iter_presets
from ..obs import (
    TRACE_HEADER,
    EventJournal,
    MetricsRegistry,
    TraceContext,
    Tracer,
    render_prometheus,
)
from ..serving.stats import M_SERVE_REQUESTS, M_SERVE_SECONDS
from .cache import (
    M_CACHE_HIT_DISK,
    M_CACHE_HIT_MEMORY,
    M_CACHE_MISS,
    ResultCache,
)
from .dispatch import MicroBatcher

logger = logging.getLogger(__name__)

SERVICE_VERSION = 1

# -- service metric names -----------------------------------------------------
M_REQUESTS = "service.requests"
M_COALESCED = "service.coalesced"
M_REJECT_OVERLOAD = "service.rejected.overload"
M_REJECT_DRAINING = "service.rejected.draining"
M_BAD_REQUESTS = "service.rejected.bad_request"
M_REQUEST_SECONDS = "service.request.seconds"


class ServiceError(RuntimeError):
    """Base of the errors the HTTP layer maps onto status codes."""

    status = 500


class BadRequest(ServiceError):
    """Malformed payload or unresolvable spec."""

    status = 400


class Overloaded(ServiceError):
    """The dispatch backlog is full; retry after ``retry_after`` seconds."""

    status = 503

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class Draining(Overloaded):
    """The server is shutting down gracefully; new evaluations are refused."""


class EvaluationService:
    """Transport-agnostic request pipeline: cache → coalesce → micro-batch."""

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        batcher: MicroBatcher | None = None,
        metrics: MetricsRegistry | None = None,
        max_pending: int = 256,
        request_timeout: float = 60.0,
        events: EventJournal | None = None,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.events = events
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = cache if cache is not None else ResultCache(metrics=self.metrics)
        self.batcher = (
            batcher if batcher is not None else MicroBatcher(metrics=self.metrics)
        )
        self.max_pending = max_pending
        self.request_timeout = request_timeout
        self._inflight: dict[str, "Future[dict]"] = {}
        self._inflight_lock = threading.Lock()
        self._draining = threading.Event()
        self._started = perf_counter()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "EvaluationService":
        self.batcher.start()
        return self

    def begin_drain(self) -> None:
        """Refuse new evaluations; queued and in-flight work still completes."""
        self._draining.set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self, timeout: float | None = None) -> bool:
        """Block until the backlog empties; True when fully drained."""
        deadline = None if timeout is None else perf_counter() + timeout
        while self.batcher.depth or self._inflight:
            if deadline is not None and perf_counter() > deadline:
                return False
            sleep(0.01)
        return True

    def stop(self, *, drain: bool = True) -> None:
        self.begin_drain()
        if drain:
            self.drain(timeout=self.request_timeout)
        self.batcher.stop(drain=drain)

    # -- request parsing -----------------------------------------------------

    def _parse(self, payload: Any) -> tuple[Any, Any, list[ExecutionStrategy], bool]:
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        for field in ("llm", "system"):
            if field not in payload:
                raise BadRequest(f"missing required field {field!r}")
        try:
            llm = llm_from_spec(payload["llm"])
            system = system_from_spec(payload["system"])
        except (ValueError, KeyError, TypeError) as err:
            raise BadRequest(f"unresolvable spec: {err}") from None
        if "strategies" in payload:
            raw, many = payload["strategies"], True
            if not isinstance(raw, list) or not raw:
                raise BadRequest("'strategies' must be a non-empty list")
        elif "strategy" in payload:
            raw, many = [payload["strategy"]], False
        else:
            raise BadRequest("missing required field 'strategy' (or 'strategies')")
        strategies = []
        for entry in raw:
            try:
                strategies.append(ExecutionStrategy.from_dict(dict(entry)))
            except (StrategyError, TypeError, ValueError) as err:
                raise BadRequest(f"bad execution strategy: {err}") from None
        return llm, system, strategies, many

    def _emit(self, kind: str, **fields: Any) -> None:
        if self.events is not None:
            self.events.emit(kind, **fields)

    # -- evaluation ----------------------------------------------------------

    def evaluate_payload(
        self, payload: Any, *, trace_context: TraceContext | None = None
    ) -> dict:
        """Serve one ``POST /evaluate`` or ``/evaluate_many`` body.

        With a ``trace_context`` (deserialized from the ``X-Repro-Trace``
        header), the request is wrapped in a ``service.request`` span in a
        tracer that joins the caller's trace, and the span events ride back
        on the response under a top-level ``"trace"`` key — the client
        merges them into its own tracer, so the stitched Chrome trace shows
        the server's lane next to the coordinator's (both clocks are the
        same machine-wide ``perf_counter``).
        """
        t0 = perf_counter()
        self.metrics.inc(M_REQUESTS)
        llm, system, strategies, many = self._parse(payload)
        group = content_key(
            {"llm": llm.to_dict(), "system": system_to_dict(system)}
        )
        entries = []
        try:
            for strategy in strategies:
                key = run_key(
                    llm, system, strategy.batch, strategy, kind="service.evaluate"
                )
                entries.append(self._resolve(key, llm, system, strategy, group))
            results = [self._finish(entry) for entry in entries]
        except BaseException as err:
            # A failure anywhere in the request — a mid-request rejection
            # (e.g. backlog full on the 3rd of 5 strategies) or a _finish
            # error on an earlier entry — must not strand leaders that are
            # still registered: settle their rendezvous futures so coalesced
            # followers (and later identical queries) fail fast instead of
            # waiting forever on a future nobody will resolve.  _settle is
            # a no-op for entries that already settled.
            for entry in entries:
                if entry[1] == "miss":
                    self._settle(entry[0], error=err)
            raise
        elapsed = perf_counter() - t0
        self.metrics.observe(M_REQUEST_SECONDS, elapsed)
        sources = [r["cache"] for r in results]
        self._emit(
            "request.done", seconds=elapsed, strategies=len(strategies),
            hits=sum(s in ("memory", "disk") for s in sources),
            coalesced=sources.count("coalesced"),
            misses=sources.count("miss"),
            trace_id=trace_context.trace_id if trace_context else None,
        )
        out = {"results": results, "count": len(results)} if many else results[0]
        if trace_context is not None:
            tracer = Tracer(trace_id=trace_context.trace_id)
            tracer.add_span(
                "evaluate", "service.request", t0, elapsed,
                strategies=len(strategies), cache=",".join(sources),
                trace_id=tracer.trace_id,
            )
            out["trace"] = {"trace_id": tracer.trace_id, "events": tracer.events()}
        return out

    def _resolve(self, key, llm, system, strategy, group):
        """Phase 1 of one keyed evaluation: hit, follow, or lead.

        Returns ``(key, source, value)`` where ``value`` is the payload for
        a cache hit, the shared future for a coalesced follower, or the
        engine future for the leader.  Leaders submit *before* any waiting
        happens so the whole request batch can share one dispatch window.
        """
        tier = self.cache.tier(key)
        if tier is not None:
            value = self.cache.get(key)
            if value is not None:
                self._emit("cache.hit", tier=tier, key=key[:16])
                return key, tier, value
        with self._inflight_lock:
            shared = self._inflight.get(key)
            if shared is not None:
                self.metrics.inc(M_COALESCED)
                self._emit("coalesce", key=key[:16])
                return key, "coalesced", shared
            if self.draining:
                self.metrics.inc(M_REJECT_DRAINING)
                self._emit("draining.reject", key=key[:16])
                raise Draining("server is draining; no new evaluations")
            if self.batcher.depth >= self.max_pending:
                self.metrics.inc(M_REJECT_OVERLOAD)
                self._emit(
                    "backpressure.reject", key=key[:16],
                    depth=self.batcher.depth, max_pending=self.max_pending,
                )
                raise Overloaded(
                    f"dispatch backlog full ({self.max_pending} pending)"
                )
            shared = Future()
            self._inflight[key] = shared
        # tier() moves no counters, so count the miss here: one per leader
        # (followers coalesce; they never consulted the cache).
        self.metrics.inc(M_CACHE_MISS)
        self._emit("cache.miss", key=key[:16])
        try:
            engine_future = self.batcher.submit(llm, system, strategy, group=group)
        except BaseException as err:
            self._settle(key, error=err)
            raise
        return key, "miss", (shared, engine_future)

    def _finish(self, entry) -> dict:
        """Phase 2: turn a resolve entry into a response payload."""
        key, source, value = entry
        if source in ("memory", "disk"):
            return self._respond(key, source, value)
        if source == "coalesced":
            try:
                payload = value.result(timeout=self.request_timeout)
            except ServiceError:
                raise
            except BaseException as err:
                raise ServiceError(f"evaluation failed: {err}") from err
            return self._respond(key, "coalesced", payload["result"])
        shared, engine_future = value
        try:
            result = engine_future.result(timeout=self.request_timeout)
            flat = result_to_flat_dict(result)
            try:
                self.cache.put(key, flat)
            except Exception:
                # A cache-write failure (disk full, permissions) must not
                # fail the request: the result is in hand, serve it uncached.
                logger.exception("cache put failed for %s…", key[:12])
            payload = self._respond(key, "miss", flat)
        except BaseException as err:
            # Settle on every exit path — engine failure, future timeout,
            # anything else — so followers never inherit a future nobody
            # will resolve.
            self._settle(key, error=err)
            raise ServiceError(f"evaluation failed: {err}") from err
        self._settle(key, payload=payload)
        return payload

    # -- serving simulation (POST /serve) ------------------------------------

    def _parse_serve(self, payload: Any):
        """Validate a ``/serve`` body into typed serving objects."""
        from ..serving import ServePlan, ServeWorkload, SLOSpec

        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        for field in ("llm", "system", "plan", "workload"):
            if field not in payload:
                raise BadRequest(f"missing required field {field!r}")
        try:
            llm = llm_from_spec(payload["llm"])
            system = system_from_spec(payload["system"])
        except (ValueError, KeyError, TypeError) as err:
            raise BadRequest(f"unresolvable spec: {err}") from None
        try:
            plan = ServePlan.from_dict(dict(payload["plan"]))
        except (KeyError, TypeError, ValueError) as err:
            raise BadRequest(f"bad serve plan: {err}") from None
        try:
            workload = ServeWorkload.from_dict(dict(payload["workload"]))
        except (KeyError, TypeError, ValueError) as err:
            raise BadRequest(f"bad serve workload: {err}") from None
        slo = None
        if payload.get("slo") is not None:
            try:
                slo = SLOSpec.from_dict(dict(payload["slo"]))
            except (TypeError, ValueError) as err:
                raise BadRequest(f"bad slo spec: {err}") from None
        max_batch = payload.get("max_batch")
        if max_batch is not None:
            try:
                max_batch = int(max_batch)
            except (TypeError, ValueError):
                raise BadRequest("'max_batch' must be an integer") from None
            if max_batch < 1:
                raise BadRequest("'max_batch' must be >= 1")
        return llm, system, plan, workload, slo, max_batch

    def serve_payload(
        self, payload: Any, *, trace_context: TraceContext | None = None
    ) -> dict:
        """Serve one ``POST /serve`` body: simulate one serving deployment.

        The simulator is deterministic, so results are content-cacheable
        exactly like engine evaluations — the key hashes the plan, the
        workload and the SLO under ``kind="service.serve"``, which can
        never collide with ``service.evaluate`` keys for the same specs.
        """
        from dataclasses import asdict

        from ..serving import simulate_plan

        t0 = perf_counter()
        self.metrics.inc(M_REQUESTS)
        self.metrics.inc(M_SERVE_REQUESTS)
        llm, system, plan, workload, slo, max_batch = self._parse_serve(payload)
        key = run_key(
            llm, system, 0, plan, kind="service.serve",
            extra={
                "workload": workload.to_dict(),
                "slo": slo.to_dict() if slo is not None else None,
                "max_batch": max_batch,
            },
        )
        source = flat = None
        tier = self.cache.tier(key)
        if tier is not None:
            flat = self.cache.get(key)
            if flat is not None:
                source = tier
                self._emit("cache.hit", tier=tier, key=key[:16])
        if flat is None:
            if self.draining:
                self.metrics.inc(M_REJECT_DRAINING)
                self._emit("draining.reject", key=key[:16])
                raise Draining("server is draining; no new evaluations")
            self.metrics.inc(M_CACHE_MISS)
            self._emit("cache.miss", key=key[:16])
            try:
                stats = simulate_plan(
                    llm, system, plan, workload, slo=slo, max_batch=max_batch
                )
            except ValueError as err:
                raise BadRequest(f"unserveable plan: {err}") from None
            flat = asdict(stats)
            # Per-request latency vectors are simulation internals; the
            # percentile fields already summarize them for clients.
            flat.pop("ttfts", None)
            flat.pop("tpots", None)
            flat["plan"] = plan.to_dict()
            flat["slo_satisfied"] = slo.satisfied(stats) if slo else True
            flat["slo_violations"] = list(slo.violations(stats)) if slo else []
            try:
                self.cache.put(key, flat)
            except Exception:
                logger.exception("cache put failed for %s…", key[:12])
            source = "miss"
        elapsed = perf_counter() - t0
        self.metrics.observe(M_REQUEST_SECONDS, elapsed)
        self.metrics.observe(M_SERVE_SECONDS, elapsed)
        self._emit(
            "serve.done", seconds=elapsed, cache=source,
            goodput_rps=flat.get("goodput_rps"),
            trace_id=trace_context.trace_id if trace_context else None,
        )
        out = self._respond(key, source, flat)
        if trace_context is not None:
            tracer = Tracer(trace_id=trace_context.trace_id)
            tracer.add_span(
                "serve", "service.request", t0, elapsed,
                cache=source, trace_id=tracer.trace_id,
            )
            out["trace"] = {"trace_id": tracer.trace_id, "events": tracer.events()}
        return out

    def _settle(self, key: str, *, payload: dict | None = None, error=None) -> None:
        """Resolve and retire the in-flight rendezvous future for ``key``."""
        with self._inflight_lock:
            shared = self._inflight.pop(key, None)
        if shared is None:
            return
        if error is not None:
            shared.set_exception(error)
        else:
            shared.set_result(payload)

    def _respond(self, key: str, source: str, flat: dict) -> dict:
        return {
            "key": key,
            "cache": source,
            "engine_version": _engine_version(),
            "result": flat,
        }

    # -- introspection endpoints ---------------------------------------------

    def healthz_payload(self) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "service_version": SERVICE_VERSION,
            "engine_version": _engine_version(),
            "uptime_s": perf_counter() - self._started,
            "pending": self.batcher.depth,
            "inflight_keys": len(self._inflight),
            "cache": {
                "memory_entries": len(self.cache),
                "disk_entries": self.cache.disk_entries(),
                "capacity": self.cache.capacity,
            },
        }

    def presets_payload(self) -> dict:
        return {
            "presets": [
                {
                    "name": m.name,
                    "hidden": m.hidden,
                    "attn_heads": m.attn_heads,
                    "num_blocks": m.num_blocks,
                    "parameters": m.total_parameters,
                }
                for m in iter_presets()
            ]
        }

    def cache_hit_ratio(self) -> float:
        """Lifetime fraction of keyed lookups served from cache (0.0 cold)."""
        hits = self.metrics.value(M_CACHE_HIT_MEMORY) + self.metrics.value(
            M_CACHE_HIT_DISK
        )
        lookups = hits + self.metrics.value(M_CACHE_MISS)
        return hits / lookups if lookups else 0.0

    def metrics_text(self) -> str:
        return render_prometheus(
            self.metrics,
            gauges={
                "service.uptime.seconds": perf_counter() - self._started,
                "service.pending": float(self.batcher.depth),
                "service.inflight_keys": float(len(self._inflight)),
                "service.backlog.limit": float(self.max_pending),
                "service.cache.memory_entries": float(len(self.cache)),
                "service.cache.hit_ratio": self.cache_hit_ratio(),
                "service.draining": 1.0 if self.draining else 0.0,
            },
        )


def _engine_version() -> int:
    from ..engine import ENGINE_VERSION

    return ENGINE_VERSION


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    # Holding the whole request in memory is fine: strategy dicts are tiny.
    max_body = 8 * 2**20
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> EvaluationService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        logger.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: dict, headers: dict | None = None) -> None:
        body = (json.dumps(payload, indent=1) + "\n").encode("utf-8")
        close = self.close_connection
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            # A route set close_connection (e.g. it refused to read an
            # oversized body): tell the client, don't just drop the socket.
            self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, err: ServiceError) -> None:
        headers = {}
        if isinstance(err, Overloaded):
            headers["Retry-After"] = f"{err.retry_after:g}"
        self._send_json(err.status, {"error": str(err)}, headers)

    def _read_body(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # The body's extent is unknowable, so the connection cannot be
            # resynchronized for keep-alive: close it after responding.
            self.close_connection = True
            raise BadRequest("malformed Content-Length header") from None
        if length <= 0:
            raise BadRequest("empty request body")
        if length > self.max_body:
            # Rejecting without reading leaves the body on the socket, where
            # HTTP/1.1 keep-alive would parse it as the next request; close
            # the connection instead of draining max_body+ bytes.
            self.close_connection = True
            raise BadRequest("request body too large")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as err:
            raise BadRequest(f"request body is not valid JSON: {err}") from None

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._send_json(200, self.service.healthz_payload())
        elif path == "/presets":
            self._send_json(200, self.service.presets_payload())
        elif path == "/metrics":
            body = self.service.metrics_text().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self._send_json(404, {"error": f"no such endpoint {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        if path not in ("/evaluate", "/evaluate_many", "/serve"):
            self._send_json(404, {"error": f"no such endpoint {path!r}"})
            return
        trace_context = None
        header = self.headers.get(TRACE_HEADER)
        if header:
            try:
                trace_context = TraceContext.from_header(header)
            except ValueError:
                logger.debug("ignoring malformed %s header: %r", TRACE_HEADER, header)
        try:
            payload = self._read_body()
            if path == "/serve":
                response = self.service.serve_payload(
                    payload, trace_context=trace_context
                )
            else:
                if path == "/evaluate_many" and isinstance(payload, dict):
                    if "strategies" not in payload:
                        raise BadRequest("/evaluate_many needs a 'strategies' list")
                response = self.service.evaluate_payload(
                    payload, trace_context=trace_context
                )
        except BadRequest as err:
            self.service.metrics.inc(M_BAD_REQUESTS)
            self._send_error_json(err)
        except ServiceError as err:
            self._send_error_json(err)
        except Exception as err:  # pragma: no cover - defensive
            logger.exception("unhandled error serving %s", path)
            self._send_error_json(ServiceError(str(err)))
        else:
            self._send_json(200, response)


class ServiceHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that owns an :class:`EvaluationService`."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: EvaluationService,
        handler: type[_Handler] = _Handler,
    ):
        super().__init__(address, handler)
        self.service = service

    @property
    def port(self) -> int:
        return self.server_address[1]

    def drain_and_shutdown(self, timeout: float | None = None) -> None:
        """Graceful stop: refuse new work, finish the backlog, exit."""
        self.service.begin_drain()
        self.service.drain(timeout=timeout)
        self.service.stop(drain=True)
        self.shutdown()


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    cache_dir: str | None = None,
    cache_entries: int = 4096,
    max_pending: int = 256,
    batch_window: float = 0.002,
    max_batch: int = 64,
    request_timeout: float = 60.0,
    events_path: str | None = None,
) -> ServiceHTTPServer:
    """Assemble cache + batcher + service + HTTP server (not yet serving).

    ``events_path`` opens a flight-recorder :class:`~repro.obs.EventJournal`
    there (shared by the request pipeline and the dispatcher; closed by
    :func:`serve` on exit).
    """
    metrics = MetricsRegistry()
    events = (
        EventJournal(events_path, source="server") if events_path else None
    )
    cache = ResultCache(cache_entries, cache_dir, metrics=metrics, events=events)
    batcher = MicroBatcher(
        window=batch_window, max_batch=max_batch, metrics=metrics,
        events=events,
    )
    service = EvaluationService(
        cache=cache,
        batcher=batcher,
        metrics=metrics,
        max_pending=max_pending,
        request_timeout=request_timeout,
        events=events,
    )
    service.start()
    return ServiceHTTPServer((host, port), service)


def serve(server: ServiceHTTPServer, *, install_signal_handlers: bool = True) -> None:
    """Run ``server`` until SIGTERM/SIGINT, then drain gracefully.

    In-flight and queued evaluations finish (bounded by the service's
    request timeout); new evaluations get 503 while the drain runs.
    """
    if install_signal_handlers:

        def _graceful(signum: int, frame: Any) -> None:
            logger.info("signal %d: draining", signum)
            threading.Thread(
                target=server.drain_and_shutdown,
                kwargs={"timeout": server.service.request_timeout},
                daemon=True,
            ).start()

        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
        if server.service.events is not None:
            server.service.events.close()

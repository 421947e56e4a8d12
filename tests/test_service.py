"""The evaluation service: caching, coalescing, batching, HTTP, drain.

Most tests drive the transport-free :class:`EvaluationService` directly;
the HTTP tests start a real ``ThreadingHTTPServer`` on an ephemeral port
and talk to it through :class:`ServiceClient`; the final end-to-end test
boots ``python -m repro serve`` in a subprocess, queries it with the CLI,
and SIGTERMs it to prove the graceful drain path.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import repro.engine as engine_mod
from repro.engine import evaluate, evaluate_many
from repro.execution import ExecutionStrategy
from repro.obs import MetricsRegistry
from repro.search import RetryPolicy
from repro.service import (
    BadRequest,
    Draining,
    EvaluationService,
    MicroBatcher,
    Overloaded,
    RequestFailed,
    ResultCache,
    ServiceClient,
    ServiceError,
    make_server,
)
from repro.service.server import M_COALESCED

REPO = Path(__file__).resolve().parent.parent

STRATEGY = ExecutionStrategy(
    tensor_par=8, pipeline_par=8, data_par=1, batch=64, recompute="full"
)


def _payload(strategy=STRATEGY, **over):
    body = {"llm": "gpt3-175b", "system": "a100:64"}
    if strategy is not None:
        body["strategy"] = strategy.to_dict()
    body.update(over)
    if body.get("strategy") is None:
        body.pop("strategy", None)
    return body


class CountingEngine:
    """An ``evaluate_many`` wrapper that counts calls and can run slowly."""

    def __init__(self, delay=0.0):
        self.calls = 0
        self.candidates = 0
        self.delay = delay
        self._lock = threading.Lock()

    def __call__(self, llm, system, strategies, **kwargs):
        with self._lock:
            self.calls += 1
            self.candidates += len(strategies)
        if self.delay:
            time.sleep(self.delay)
        return evaluate_many(llm, system, strategies, **kwargs)


def make_service(engine=None, **kw):
    metrics = MetricsRegistry()
    batcher = MicroBatcher(window=0.002, metrics=metrics, engine=engine)
    service = EvaluationService(
        cache=kw.pop("cache", ResultCache(capacity=64, metrics=metrics)),
        batcher=batcher,
        metrics=metrics,
        request_timeout=20.0,
        **kw,
    )
    return service.start()


# ---------------------------------------------------------------------------
# Service core
# ---------------------------------------------------------------------------

def test_cold_then_warm_hits_cache_and_matches_engine():
    engine = CountingEngine()
    service = make_service(engine)
    try:
        cold = service.evaluate_payload(_payload())
        warm = service.evaluate_payload(_payload())
    finally:
        service.stop()
    assert cold["cache"] == "miss"
    assert warm["cache"] == "memory"
    assert engine.calls == 1
    assert cold["key"] == warm["key"]
    assert cold["result"] == warm["result"]
    # The served numbers are the engine's numbers.
    from repro.io import llm_from_spec, system_from_spec

    direct = evaluate(
        llm_from_spec("gpt3-175b"), system_from_spec("a100:64"), STRATEGY
    )
    assert warm["result"]["feasible"] == direct.feasible
    assert warm["result"]["sample_rate"] == pytest.approx(direct.sample_rate)


def test_concurrent_identical_requests_coalesce_to_one_engine_call():
    engine = CountingEngine(delay=0.25)
    service = make_service(engine)
    results, errors = [], []
    barrier = threading.Barrier(8)

    def worker():
        try:
            barrier.wait(timeout=5)
            results.append(service.evaluate_payload(_payload()))
        except Exception as err:  # pragma: no cover - failure reporting
            errors.append(err)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        service.stop()
    assert not errors
    assert len(results) == 8
    # Exactly one engine evaluation for eight identical concurrent queries.
    assert engine.calls == 1
    assert engine.candidates == 1
    sources = sorted(r["cache"] for r in results)
    assert sources.count("miss") == 1
    assert service.metrics.value(M_COALESCED) == 7
    assert len({json.dumps(r["result"], sort_keys=True) for r in results}) == 1


def test_micro_batch_merges_distinct_strategies_into_one_engine_call():
    engine = CountingEngine()
    service = make_service(engine)
    strategies = [STRATEGY.evolve(microbatch=m) for m in (1, 2, 4, 8)]
    try:
        response = service.evaluate_payload(
            _payload(strategies=[s.to_dict() for s in strategies], strategy=None)
        )
    finally:
        service.stop()
    assert response["count"] == 4
    assert engine.calls == 1  # one evaluate_many for the whole batch
    assert engine.candidates == 4
    assert [r["cache"] for r in response["results"]] == ["miss"] * 4


def test_duplicate_strategies_in_one_batch_coalesce():
    engine = CountingEngine()
    service = make_service(engine)
    try:
        response = service.evaluate_payload(
            _payload(
                strategies=[STRATEGY.to_dict(), STRATEGY.to_dict()], strategy=None
            )
        )
    finally:
        service.stop()
    assert [r["cache"] for r in response["results"]] == ["miss", "coalesced"]
    assert engine.candidates == 1
    assert response["results"][0]["result"] == response["results"][1]["result"]


def test_cache_key_changes_with_engine_version(monkeypatch):
    engine = CountingEngine()
    service = make_service(engine)
    try:
        first = service.evaluate_payload(_payload())
        monkeypatch.setattr(engine_mod, "ENGINE_VERSION", engine_mod.ENGINE_VERSION + 1)
        second = service.evaluate_payload(_payload())
    finally:
        service.stop()
    # Same query, new engine semantics: the old entry must not be served.
    assert first["key"] != second["key"]
    assert second["cache"] == "miss"
    assert engine.calls == 2


def test_disk_tier_survives_service_restart(tmp_path):
    engine = CountingEngine()
    metrics = MetricsRegistry()
    service = make_service(
        engine, cache=ResultCache(capacity=64, cache_dir=tmp_path, metrics=metrics)
    )
    try:
        cold = service.evaluate_payload(_payload())
    finally:
        service.stop()

    engine2 = CountingEngine()
    reborn = make_service(
        engine2, cache=ResultCache(capacity=64, cache_dir=tmp_path)
    )
    try:
        warm = reborn.evaluate_payload(_payload())
    finally:
        reborn.stop()
    assert warm["cache"] == "disk"
    assert engine2.calls == 0
    assert warm["result"] == cold["result"]


def test_backpressure_raises_overloaded():
    engine = CountingEngine(delay=0.5)
    service = make_service(engine, max_pending=1)
    first_done = []

    def leader():
        first_done.append(service.evaluate_payload(_payload()))

    t = threading.Thread(target=leader)
    try:
        t.start()
        deadline = time.perf_counter() + 5
        while service.batcher.depth < 1:
            assert time.perf_counter() < deadline, "leader never queued"
            time.sleep(0.005)
        other = STRATEGY.evolve(microbatch=2)
        with pytest.raises(Overloaded) as exc:
            service.evaluate_payload(_payload(strategy=other))
        assert exc.value.status == 503
        assert exc.value.retry_after > 0
    finally:
        t.join(timeout=10)
        service.stop()
    assert len(first_done) == 1


def test_draining_refuses_new_work_but_finishes_inflight():
    engine = CountingEngine(delay=0.3)
    service = make_service(engine)
    results = []

    def leader():
        results.append(service.evaluate_payload(_payload()))

    t = threading.Thread(target=leader)
    try:
        t.start()
        deadline = time.perf_counter() + 5
        while service.batcher.depth < 1:
            assert time.perf_counter() < deadline
            time.sleep(0.005)
        service.begin_drain()
        with pytest.raises(Draining):
            service.evaluate_payload(_payload(strategy=STRATEGY.evolve(microbatch=2)))
        assert service.drain(timeout=10)
    finally:
        t.join(timeout=10)
        service.stop()
    # The in-flight request completed despite the drain.
    assert len(results) == 1 and results[0]["result"]["feasible"] is not None
    # Cache hits are still served while draining.
    warm = service.evaluate_payload(_payload())
    assert warm["cache"] == "memory"


def test_bad_requests_are_rejected():
    service = make_service()
    try:
        with pytest.raises(BadRequest):
            service.evaluate_payload(["not", "an", "object"])
        with pytest.raises(BadRequest):
            service.evaluate_payload({"llm": "gpt3-175b"})
        with pytest.raises(BadRequest):
            service.evaluate_payload(_payload(llm="no-such-model"))
        with pytest.raises(BadRequest):
            service.evaluate_payload(_payload(system="q100:64"))
        with pytest.raises(BadRequest):
            service.evaluate_payload(
                {"llm": "gpt3-175b", "system": "a100:64", "strategy": {"bogus": 1}}
            )
        with pytest.raises(BadRequest):
            service.evaluate_payload(_payload(strategies=[], strategy=None))
    finally:
        service.stop()


class FailingEngine:
    """An ``evaluate_many`` stand-in that always explodes."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, llm, system, strategies, **kwargs):
        with self._lock:
            self.calls += 1
        raise RuntimeError("engine exploded")


def test_engine_failure_settles_every_inflight_key():
    # A multi-strategy request whose batch fails must settle *all* its
    # rendezvous futures — including entries after the one whose _finish
    # raised — so the keys stay retryable instead of wedging forever.
    engine = FailingEngine()
    service = make_service(engine)
    strategies = [STRATEGY.to_dict(), STRATEGY.evolve(microbatch=2).to_dict()]
    try:
        with pytest.raises(ServiceError):
            service.evaluate_payload(_payload(strategies=strategies, strategy=None))
        assert service._inflight == {}
        # The second key leads a fresh evaluation rather than coalescing
        # onto a dead future and timing out.
        with pytest.raises(ServiceError):
            service.evaluate_payload(
                _payload(strategy=STRATEGY.evolve(microbatch=2))
            )
        assert engine.calls >= 2
        assert service.drain(timeout=10)
    finally:
        service.stop()


class ExplodingCache(ResultCache):
    """A cache whose disk tier is broken: every put raises."""

    def put(self, key, value):
        raise OSError("disk full")


def test_cache_put_failure_still_serves_result_and_settles():
    engine = CountingEngine()
    service = make_service(engine, cache=ExplodingCache(capacity=4))
    try:
        response = service.evaluate_payload(_payload())
        assert response["cache"] == "miss"
        assert response["result"]["feasible"] is not None
        assert service._inflight == {}
    finally:
        service.stop()


def test_healthz_and_presets_payloads():
    service = make_service()
    try:
        health = service.healthz_payload()
        assert health["status"] == "ok"
        assert health["cache"]["memory_entries"] == 0
        presets = service.presets_payload()["presets"]
        assert any(p["name"] == "gpt3-175b" for p in presets)
        service.evaluate_payload(_payload())
        assert service.healthz_payload()["cache"]["memory_entries"] == 1
    finally:
        service.stop()


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------

@pytest.fixture()
def http_server(tmp_path):
    server = make_server(port=0, cache_dir=str(tmp_path / "cache"), batch_window=0.002)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.service.stop()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_http_end_to_end(http_server):
    client = ServiceClient(f"http://127.0.0.1:{http_server.port}")
    assert client.healthz()["status"] == "ok"
    assert any(p["name"] == "gpt3-175b" for p in client.presets())

    cold = client.evaluate("gpt3-175b", "a100:64", STRATEGY)
    warm = client.evaluate("gpt3-175b", "a100:64", STRATEGY)
    assert cold["cache"] == "miss"
    assert warm["cache"] == "memory"
    assert warm["result"]["feasible"] is True

    many = client.evaluate_many(
        "gpt3-175b", "a100:64", [STRATEGY, STRATEGY.evolve(microbatch=2)]
    )
    assert [r["cache"] for r in many] == ["memory", "miss"]

    text = client.metrics_text()
    assert "# TYPE repro_service_requests counter" in text
    assert client.metric_value("repro_service_cache_hit_memory") >= 2.0
    assert client.metric_value("repro_service_dispatch_engine_calls") >= 1.0

    # The engine's bound/comm-cache counters are pre-registered by the
    # MicroBatcher: the service never bound-prunes (every request needs its
    # real result), while the comm kernel caches see real traffic.
    assert "# TYPE repro_engine_bound_pruned counter" in text
    assert client.metric_value("repro_engine_bound_pruned") == 0.0
    # The adaptive tile/skip counters ride the same pre-registration
    # and likewise stay 0 on the request path (no top-k search here).
    for name in ("repro_engine_bound_tiles",
                 "repro_engine_bound_skipped_buckets"):
        assert f"# TYPE {name} counter" in text
        assert client.metric_value(name) == 0.0
    assert (
        client.metric_value("repro_engine_comm_cache_hits")
        + client.metric_value("repro_engine_comm_cache_misses")
    ) >= 1.0

    # Request latency is a real Prometheus histogram family with cumulative
    # buckets, and the hit-ratio / backlog gauges describe current state.
    assert "# TYPE repro_service_request_seconds histogram" in text
    assert 'repro_service_request_seconds_bucket{le="+Inf"}' in text
    assert client.metric_value("repro_service_request_seconds_count") >= 3.0
    assert client.metric_value("repro_service_request_seconds_sum") > 0.0
    assert 0.0 < client.metric_value("repro_service_cache_hit_ratio") < 1.0
    assert client.metric_value("repro_service_backlog_limit") == 256.0
    assert "# TYPE repro_service_pending gauge" in text
    assert "# TYPE repro_service_inflight_keys gauge" in text
    assert client.metric_value("repro_service_dispatch_batch_seconds_count") >= 1.0


def test_http_trace_header_merges_server_spans(http_server):
    from repro.obs import Tracer, validate_trace

    client = ServiceClient(f"http://127.0.0.1:{http_server.port}")
    tracer = Tracer()
    with tracer.span("query", cat="service.client"):
        first = client.evaluate("gpt3-175b", "a100:64", STRATEGY, tracer=tracer)
        second = client.evaluate_many(
            "gpt3-175b", "a100:64", [STRATEGY], tracer=tracer
        )
    # The trace payload is popped before the caller sees the response.
    assert "trace" not in first
    assert all("trace" not in r for r in second)

    trace = tracer.to_chrome()
    validate_trace(trace)
    assert trace["otherData"]["trace_id"] == tracer.trace_id
    server_spans = [
        e for e in trace["traceEvents"]
        if e.get("ph") == "X" and e.get("cat") == "service.request"
    ]
    assert len(server_spans) == 2
    assert all(
        s["args"]["trace_id"] == tracer.trace_id for s in server_spans
    )
    # The client-side "query" span is on the same timeline (one timebase).
    client_spans = [
        e for e in trace["traceEvents"]
        if e.get("ph") == "X" and e.get("cat") == "service.client"
    ]
    assert len(client_spans) == 1
    q = client_spans[0]
    for s in server_spans:
        assert q["ts"] <= s["ts"] and s["ts"] + s["dur"] <= q["ts"] + q["dur"]


def test_http_untraced_request_has_no_trace_key(http_server):
    client = ServiceClient(f"http://127.0.0.1:{http_server.port}")
    response = client.evaluate("gpt3-175b", "a100:64", STRATEGY)
    assert "trace" not in response


def test_http_error_mapping(http_server):
    client = ServiceClient(f"http://127.0.0.1:{http_server.port}")
    with pytest.raises(RequestFailed) as exc:
        client.evaluate("no-such-model", "a100:64", STRATEGY)
    assert exc.value.status == 400
    with pytest.raises(RequestFailed) as exc:
        client._request("GET", "/nope")
    assert exc.value.status == 404


def test_http_oversized_body_closes_keepalive_connection(http_server):
    # The handler refuses to read an oversized body; it must then close the
    # keep-alive connection (advertised via Connection: close) so the unread
    # bytes cannot be parsed as the next request on the same socket.
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", http_server.port, timeout=10)
    try:
        conn.putrequest("POST", "/evaluate")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(8 * 2**20 + 1))
        conn.endheaders()
        # Junk that a desynced server would misparse as a pipelined request.
        conn.send(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        resp = conn.getresponse()
        assert resp.status == 400
        assert resp.getheader("Connection") == "close"
        resp.read()
    finally:
        conn.close()


def test_http_concurrent_identical_queries_coalesce(http_server):
    client = ServiceClient(f"http://127.0.0.1:{http_server.port}")
    strategy = STRATEGY.evolve(microbatch=4)
    barrier = threading.Barrier(6)
    results, errors = [], []

    def worker():
        try:
            barrier.wait(timeout=5)
            results.append(client.evaluate("gpt3-175b", "a100:64", strategy))
        except Exception as err:  # pragma: no cover - failure reporting
            errors.append(err)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=15)
    assert not errors
    sources = [r["cache"] for r in results]
    assert sources.count("miss") == 1
    assert all(s in ("miss", "coalesced", "memory") for s in sources)
    assert len({r["key"] for r in results}) == 1


class _FlakyHandler(BaseHTTPRequestHandler):
    failures = 2
    seen = 0

    def do_GET(self):  # noqa: N802
        cls = type(self)
        cls.seen += 1
        if cls.seen <= cls.failures:
            body = b'{"error": "try later"}'
            self.send_response(503)
            self.send_header("Retry-After", "0.01")
        else:
            body = b'{"status": "ok"}'
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_client_retries_503_with_backoff():
    _FlakyHandler.seen = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}",
            retry=RetryPolicy(max_retries=3, backoff_base=0.01, backoff_max=0.05),
        )
        assert client.healthz()["status"] == "ok"
        assert _FlakyHandler.seen == 3
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_client_gives_up_when_service_never_answers():
    from repro.service import ServiceUnavailable

    client = ServiceClient(
        "http://127.0.0.1:1",  # nothing listens on port 1
        retry=RetryPolicy(max_retries=1, backoff_base=0.01, backoff_max=0.01),
        timeout=0.5,
    )
    with pytest.raises(ServiceUnavailable):
        client.healthz()


# ---------------------------------------------------------------------------
# CLI / process end-to-end: serve, query, SIGTERM drain
# ---------------------------------------------------------------------------

def test_serve_query_sigterm_end_to_end(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(tmp_path / "cache")],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )
    try:
        line = proc.stderr.readline()
        assert "http://" in line, f"unexpected banner: {line!r}"
        url = "http://" + line.split("http://", 1)[1].split()[0]

        def query(fmt):
            return subprocess.run(
                [sys.executable, "-m", "repro", "query", "gpt3-175b", "a100:64",
                 "--batch", "64", "--recompute", "full", "--url", url,
                 "--format", fmt],
                capture_output=True,
                text=True,
                env=env,
                cwd=str(tmp_path),
                timeout=60,
            )
        cold = query("json")
        assert cold.returncode == 0, cold.stderr
        assert json.loads(cold.stdout)["cache"] == "miss"
        warm = query("json")
        assert json.loads(warm.stdout)["cache"] == "memory"
        text = query("text")
        assert "cache: memory" in text.stdout
        assert "batch time" in text.stdout

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

"""service-mix: a closed loop of clients against ``repro serve``.

The target is a ``python -m repro serve --port 0`` subprocess with a fresh
disk cache directory and an in-memory tier smaller than the working set.
Requests come from a seeded generator over gpt3-175b / a100:512 /
batch 1024 (104,256 strategies):

* a fixed pool of strategies, loaded once before timing through
  ``/evaluate_many``, is re-asked with Zipf popularity, so the popular head
  is served from the memory tier and the tail from the disk tier;
* first-seen strategies are misses that write to the disk tier;
* a small share are ``/evaluate_many`` batches of first-seen strategies.

Each client waits for its reply before sending the next request, and there
are at most ``nproc`` of them (two on a multi-core host).  A request's
latency runs from send to parsed body; a non-2xx status (503 backpressure
included), a timeout or a broken connection is a failed operation.

The traced run also reads ``/metrics`` before and after the loop and
replays the same request sequence through an in-process
``EvaluationService.evaluate_payload`` to split each round trip into
pipeline and HTTP time.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
from time import perf_counter, sleep

from common import ROOT, Context, child_env, median, percentile

LLM = "gpt3-175b"
SYSTEM = "a100:512"
BATCH = 1024
POOL = 1000
SMOKE_POOL = 100
# The traffic shares below are assumptions, not measurements: no recorded
# traffic of the service exists to fit them to.  Each is sized only by the
# path it has to exercise in every run:
# * the pool is four times the memory tier (``cache_entries``), and Zipf
#   popularity with exponent 1.1 keeps its head in memory and sends the
#   tail to the disk tier, so both tiers serve reads;
# * one request in five is a first-seen strategy, about 200 misses and disk
#   writes per 1,000 requests: enough for a miss median of its own
#   (``service.miss_ms``);
# * 3 % are ``/evaluate_many`` batches of 8 fresh strategies, the
#   micro-batching path without letting batches dominate the loop.
# The query metrics are medians over this mix; hit, disk-hit and miss
# latency are reported apart as per-layer metrics.
ZIPF_S = 1.1
FRESH_SHARE = 0.2
MANY_SHARE = 0.03
MANY_SIZE = 8
WARM_BATCH = 50
PROBE_REQUESTS = 1600
FOCUS_REQUESTS = 20_000  # more than a run can send
CHUNK = 100  # requests per unit
REPLICA_REQUESTS = 1500
REQUEST_TIMEOUT_S = 30.0
SAMPLE_CHECKS = 20


def pool_size(ctx: Context) -> int:
    return SMOKE_POOL if ctx.smoke else POOL


def cache_entries(ctx: Context) -> int:
    """The in-memory tier holds a quarter of the pool: the tail hits disk."""
    return pool_size(ctx) // 4


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, ctx: Context, cache_dir: str, timeout: float):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--cache-dir", cache_dir,
             "--cache-entries", str(cache_entries(ctx))],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        lines: queue.Queue[str | None] = queue.Queue()

        def pump() -> None:
            for line in self.proc.stderr:
                lines.put(line)
            lines.put(None)

        self._pump = threading.Thread(target=pump, daemon=True)
        self._pump.start()
        self.port = None
        deadline = perf_counter() + timeout
        try:
            while self.port is None:
                line = lines.get(timeout=max(deadline - perf_counter(), 0.01))
                if line is None:
                    raise RuntimeError("repro serve exited before its banner")
                m = re.search(r"service on http://[\d.]+:(\d+)", line)
                if m:
                    self.port = int(m.group(1))
            while True:
                try:
                    status, body = request(self.port, "GET", "/healthz", None, 5.0)
                    if status == 200 and json.loads(body).get("status") == "ok":
                        break
                except OSError:
                    pass
                if perf_counter() > deadline:
                    raise RuntimeError("repro serve never became healthy")
                sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """SIGTERM drains and exits; anything still alive after that is killed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self._pump.join(timeout=5.0)
        self.proc.stderr.close()


def request(port: int, method: str, path: str, payload,
            timeout: float) -> tuple[int, bytes]:
    """One HTTP exchange on a fresh connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def spawn_time(ctx: Context) -> float | None:
    """Server spawn to first healthy ``/healthz`` with a fresh cache dir, or None."""
    ctx.op()
    cache_dir = os.path.join(ctx.scratch, "setup-cache")
    t = perf_counter()
    try:
        server = Server(ctx, cache_dir, timeout=min(60.0, ctx.time_left()))
    except (RuntimeError, OSError, queue.Empty) as err:
        ctx.fail(f"repro serve start: {err!r}")
        return None
    wall = perf_counter() - t
    server.stop()
    shutil.rmtree(cache_dir, ignore_errors=True)
    return wall


class Mix:
    """The seeded request sequence and the strategies it draws from."""

    def __init__(self, ctx: Context, n_requests: int):
        from repro.engine.batch import EvalBatch
        from repro.io import llm_from_spec, system_from_spec
        from repro.search import SearchOptions
        from repro.search.columns import candidate_columns

        self.llm, self.system = llm_from_spec(LLM), system_from_spec(SYSTEM)
        rng = ctx.rng("service-mix")
        pool_n = pool_size(ctx)
        # Row i of the columns is candidate i of candidate_strategies(), so
        # picks decode without building all 104,256 strategy objects.
        space = EvalBatch.from_columns(self.llm, self.system, candidate_columns(
            self.llm, self.system, BATCH, SearchOptions()))
        fresh_per_req = FRESH_SHARE + MANY_SHARE * MANY_SIZE
        n_fresh = min(space.n - pool_n, int(n_requests * fresh_per_req * 1.5) + 64)
        chosen = [space.strategy_at(i).to_dict()
                  for i in rng.sample(range(space.n), pool_n + n_fresh)]
        self.pool, fresh = chosen[:pool_n], chosen[pool_n:]
        cum, total = [], 0.0
        for k in range(pool_n):
            total += 1.0 / (k + 1) ** ZIPF_S
            cum.append(total)
        ranks = range(pool_n)
        self.requests: list[tuple[str, dict]] = []
        nxt = 0
        for _ in range(n_requests):
            r = rng.random()
            if r < MANY_SHARE:
                if nxt + MANY_SIZE > len(fresh):
                    break
                body = {"strategies": fresh[nxt:nxt + MANY_SIZE]}
                nxt += MANY_SIZE
                self.requests.append(("/evaluate_many", self._payload(body)))
            elif r < MANY_SHARE + FRESH_SHARE:
                if nxt >= len(fresh):
                    break
                self.requests.append(("/evaluate", self._payload({"strategy": fresh[nxt]})))
                nxt += 1
            else:
                k = rng.choices(ranks, cum_weights=cum)[0]
                self.requests.append(("/evaluate", self._payload({"strategy": self.pool[k]})))

    def _payload(self, body: dict) -> dict:
        return {"llm": LLM, "system": SYSTEM, **body}

    def warmup(self) -> list[dict]:
        return [self._payload({"strategies": self.pool[i:i + WARM_BATCH]})
                for i in range(0, len(self.pool), WARM_BATCH)]


def _client_loop(ctx: Context, port: int, mix: Mix, limit: int, state: dict,
                 records: list, keep: set[int], bodies: dict) -> None:
    # One connection per request, as the program's own urllib client does.
    while ctx.time_left() > 5.0:
        with state["lock"]:
            i = state["next"]
            if i >= limit:
                return
            state["next"] = i + 1
        path, payload = mix.requests[i]
        ctx.op()
        t0 = perf_counter()
        try:
            status, raw = request(port, "POST", path, payload, REQUEST_TIMEOUT_S)
            body = json.loads(raw) if status == 200 else None
        except (OSError, http.client.HTTPException, ValueError) as err:
            ctx.fail(f"service request {i}: {err!r}")
            continue
        t1 = perf_counter()
        if body is None:
            ctx.fail(f"service request {i}: HTTP {status}")
            continue
        # Only the sampled bodies are kept: thousands of full result dicts
        # would slow every later in-process measurement through the GC.
        records.append((i, t0, t1, body.get("cache")))
        if i in keep:
            bodies[i] = body


def _scrape(port: int) -> dict[str, float]:
    status, raw = request(port, "GET", "/metrics", None, REQUEST_TIMEOUT_S)
    if status != 200:
        raise OSError(f"/metrics answered HTTP {status}")
    out = {}
    for line in raw.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


def _metrics_layers(before: dict, after: dict) -> dict[str, float]:
    def d(name: str) -> float:
        return after.get(f"repro_{name}", 0.0) - before.get(f"repro_{name}", 0.0)

    mem, disk, miss = d("service_cache_hit_memory"), d("service_cache_hit_disk"), \
        d("service_cache_miss")
    batches = d("service_dispatch_batch_size_count")
    return {
        "service.memory_hits": mem,
        "service.disk_hits": disk,
        "service.misses": miss,
        "service.hit_ratio": (mem + disk) / max(mem + disk + miss, 1.0),
        "service.engine_calls": d("service_dispatch_engine_calls"),
        "service.mean_batch": d("service_dispatch_batch_size_sum") / max(batches, 1.0),
        "service.coalesced": d("service_coalesced"),
        "service.rejected": d("service_rejected_overload")
        + d("service_rejected_draining"),
    }


def _replica(ctx: Context, mix: Mix, count: int) -> list[float]:
    """Per-request ``evaluate_payload`` seconds for the first ``count`` requests."""
    from repro.obs import MetricsRegistry
    from repro.service import EvaluationService, MicroBatcher, ResultCache

    cache_dir = os.path.join(ctx.scratch, "replica-cache")
    metrics = MetricsRegistry()
    svc = EvaluationService(
        cache=ResultCache(cache_entries(ctx), cache_dir, metrics=metrics),
        batcher=MicroBatcher(metrics=metrics), metrics=metrics,
    ).start()
    try:
        for payload in mix.warmup():
            svc.evaluate_payload(payload)
        out = []
        for _, payload in mix.requests[:count]:
            t = perf_counter()
            svc.evaluate_payload(payload)
            out.append(perf_counter() - t)
        return out
    finally:
        svc.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)


def _check_sample(ctx: Context, mix: Mix, bodies: dict) -> None:
    """A seeded sample of responses must equal ``evaluate`` field for field."""
    from repro import ExecutionStrategy, evaluate
    from repro.io.report import result_to_flat_dict

    for i, body in sorted(bodies.items()):
        _, payload = mix.requests[i]
        strategies = payload.get("strategies") or [payload["strategy"]]
        results = body["results"] if "results" in body else [body]
        ctx.check(len(results) == len(strategies), f"service request {i}: count")
        for strat, got in zip(strategies, results):
            want = result_to_flat_dict(evaluate(mix.llm, mix.system,
                                                ExecutionStrategy.from_dict(strat)))
            ctx.check(json.dumps(got["result"], sort_keys=True)
                      == json.dumps(want, sort_keys=True),
                      f"service request {i}: response differs from evaluate")


class Service:
    """service-mix operations, one chunk of closed-loop requests per unit.

    The server is started and loaded before the first unit and stopped by
    ``close``; between chunks it idles, so its requests can interleave
    with other components' operations.
    """

    def __init__(self, ctx: Context, focus: bool, clients: int):
        self.ctx, self.focus, self.clients = ctx, focus, clients
        n = CHUNK if ctx.smoke else (FOCUS_REQUESTS if focus else PROBE_REQUESTS)
        self.mix = Mix(ctx, n)
        self.probe_units = math.ceil(min(n, PROBE_REQUESTS) / CHUNK)
        self.done = 0
        self.records: list = []
        self.bodies: dict = {}
        self.keep = set(ctx.rng("service-check").sample(
            range(min(len(self.mix.requests), PROBE_REQUESTS)), SAMPLE_CHECKS))
        self.state = {"lock": threading.Lock(), "next": 0}
        self.loop_s = 0.0
        self.scaled_loop_s = 0.0
        self.scaled: list[float] = []  # latencies scaled by their chunk's host speed
        self.before: dict = {}
        self.after: dict = {}
        self.server = None
        cache_dir = os.path.join(ctx.scratch, "service-cache")
        ctx.op()
        try:
            self.server = Server(ctx, cache_dir, timeout=min(60.0, ctx.time_left()))
            for payload in self.mix.warmup():
                ctx.op()
                status, _ = request(self.server.port, "POST", "/evaluate_many",
                                    payload, REQUEST_TIMEOUT_S)
                if status != 200:
                    ctx.fail(f"service warm-up: HTTP {status}")
            if ctx.traced:
                self.before = _scrape(self.server.port)
        except (RuntimeError, OSError, queue.Empty) as err:
            ctx.fail(f"repro serve start: {err!r}")
            self.close()

    def unit(self) -> None:
        self.done += 1
        if self.server is None:
            return
        limit = min(self.state["next"] + CHUNK, len(self.mix.requests))
        threads = [threading.Thread(target=_client_loop, args=(
            self.ctx, self.server.port, self.mix, limit, self.state, self.records,
            self.keep, self.bodies)) for _ in range(self.clients)]
        first = len(self.records)
        before = self.ctx.speed.before()
        t0 = perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        loop_s = perf_counter() - t0
        scale = self.ctx.speed.scale(before)
        self.loop_s += loop_s
        self.scaled_loop_s += loop_s * scale
        self.scaled.extend((t1 - t0) * scale for _, t0, t1, _ in self.records[first:])

    def finish(self) -> None:
        ctx = self.ctx
        while self.done < self.probe_units and ctx.time_left() > 15.0:
            self.unit()
        if ctx.traced and self.server is not None:
            try:
                self.after = _scrape(self.server.port)
            except OSError as err:
                ctx.fail(f"service /metrics: {err!r}")
        self.close()
        if not self.records:
            return
        for target, lat, loop_s in ((ctx.e2e, self.scaled, self.scaled_loop_s),
                                    (ctx.raw, [t1 - t0 for _, t0, t1, _ in self.records],
                                     self.loop_s)):
            target["query_p50_ms"] = 1e3 * median(lat)
            target["query_p99_ms"] = 1e3 * percentile(lat, 99.0)
            target["query_qps"] = len(lat) / loop_s
        _check_sample(ctx, self.mix, self.bodies)
        if ctx.traced and self.after:
            for name, value in _metrics_layers(self.before, self.after).items():
                ctx.layer(name, value)
            _trace(ctx, self.mix, self.records)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
            shutil.rmtree(os.path.join(self.ctx.scratch, "service-cache"),
                          ignore_errors=True)


def _trace(ctx: Context, mix: Mix, records: list) -> None:
    by_source: dict[str, list[float]] = {}
    for _, t0, t1, source in records:
        if source is not None:
            by_source.setdefault(source, []).append(t1 - t0)
    for source, name in (("memory", "service.hit_ms"), ("disk", "service.disk_hit_ms"),
                         ("miss", "service.miss_ms")):
        if by_source.get(source):
            ctx.layer(name, 1e3 * median(by_source[source]))
    count = min(len(mix.requests), 100 if ctx.smoke else REPLICA_REQUESTS)
    pipe = _replica(ctx, mix, count)
    ctx.layer("service.pipeline_ms", 1e3 * median(pipe))
    http_s = []
    rec = ctx.recorder
    for i, t0, t1, _ in records:
        if i < count:
            http_s.append(t1 - t0 - pipe[i])
            root = rec.add("op.query", t0, t1, index=i)
            rec.lay_out(root, [("service.pipeline", pipe[i]),
                               ("service.http", t1 - t0 - pipe[i])])
    if http_s:
        ctx.layer("service.http_ms", 1e3 * median(http_s))

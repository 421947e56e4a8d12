"""The observability layer: tracer, metrics, progress, and sweep stats.

Covers the properties the instrumentation must guarantee:

* span nesting and ordering survive the round trip to Chrome trace JSON;
* a disabled tracer allocates nothing on the hot path (one shared no-op
  context manager, zero recorded events);
* metrics merging is associative and commutative, so aggregation across
  ``ProcessPoolExecutor`` worker chunks is independent of chunk order and
  worker count;
* the emitted trace matches the Chrome ``trace_event`` schema (golden key
  set per phase);
* ``evaluate_many(stats=True)`` returns pruning counters consistent with
  the results, and an instrumented ``search`` aggregates correctly with
  ``workers > 1``.
"""

import json
from itertools import product

import pytest

from repro.engine import evaluate_many
from repro.execution import ExecutionStrategy
from repro.hardware import a100_system
from repro.llm import GPT3_175B
from repro.obs import (
    NULL_SPAN,
    MetricsRegistry,
    ProgressReporter,
    PruneStats,
    SweepStats,
    Tracer,
    validate_trace,
    validate_trace_file,
)
from repro.obs.stats import STAGE_NAMES
from repro.search import SearchOptions, search


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def test_span_nesting_and_ordering():
    tracer = Tracer()
    with tracer.span("outer", cat="test"):
        with tracer.span("first", cat="test"):
            pass
        with tracer.span("second", cat="test"):
            pass
    events = tracer.events()
    by_name = {e["name"]: e for e in events}
    assert set(by_name) == {"outer", "first", "second"}
    outer, first, second = by_name["outer"], by_name["first"], by_name["second"]
    # Children close before the parent, so they are recorded first.
    assert [e["name"] for e in events] == ["first", "second", "outer"]
    # Timestamp containment is what trace viewers use for nesting.
    assert outer["ts"] <= first["ts"]
    assert first["ts"] + first["dur"] <= second["ts"] + second["dur"]
    assert second["ts"] + second["dur"] <= outer["ts"] + outer["dur"]


def test_span_args_recorded():
    tracer = Tracer()
    with tracer.span("work", cat="test", items=3):
        pass
    (event,) = tracer.events()
    assert event["args"] == {"items": 3}
    assert event["cat"] == "test"


def test_disabled_tracer_is_allocation_free():
    tracer = Tracer(enabled=False)
    # The same shared no-op context manager every time: nothing allocated.
    spans = {id(tracer.span(f"s{i}")) for i in range(10)}
    assert spans == {id(NULL_SPAN)}
    with tracer.span("anything"):
        pass
    tracer.instant("mark")
    tracer.add_span("agg", "cat", 0.0, 1.0)
    assert tracer.events() == []


def test_to_chrome_rebases_and_labels_processes():
    tracer = Tracer()
    with tracer.span("a"):
        pass
    obj = tracer.to_chrome()
    xs = [e for e in obj["traceEvents"] if e["ph"] == "X"]
    ms = [e for e in obj["traceEvents"] if e["ph"] == "M"]
    assert min(e["ts"] for e in xs) == 0.0
    assert any(e["name"] == "process_name" for e in ms)


def test_trace_file_roundtrip(tmp_path):
    tracer = Tracer()
    with tracer.span("stage", cat="engine.stage"):
        pass
    path = tracer.write(tmp_path / "trace.json")
    assert validate_trace_file(path) == []
    loaded = json.loads(path.read_text())
    assert loaded["displayTimeUnit"] == "ms"


# ---------------------------------------------------------------------------
# Trace schema (golden key check)
# ---------------------------------------------------------------------------


def test_golden_trace_schema_keys():
    tracer = Tracer()
    with tracer.span("s", cat="c", detail=1):
        pass
    obj = tracer.to_chrome()
    (x,) = [e for e in obj["traceEvents"] if e["ph"] == "X"]
    # The golden key set every complete event must carry.
    assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(x)
    assert isinstance(x["ts"], float) and isinstance(x["dur"], float)
    assert validate_trace(obj) == []


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda e: e.pop("dur"), "missing key 'dur'"),
        (lambda e: e.update(ts="soon"), "key 'ts' has type"),
        (lambda e: e.update(ph="Q"), "unknown phase"),
        (lambda e: e.update(dur=-1.0), "negative duration"),
    ],
)
def test_validate_trace_rejects_malformed_events(mutate, fragment):
    tracer = Tracer()
    with tracer.span("s"):
        pass
    obj = tracer.to_chrome()
    event = next(e for e in obj["traceEvents"] if e["ph"] == "X")
    mutate(event)
    errors = validate_trace(obj)
    assert errors and fragment in errors[0]


def test_validate_trace_rejects_non_objects():
    assert validate_trace([]) != []
    assert validate_trace({"notTraceEvents": []}) != []
    assert validate_trace_file("/nonexistent/trace.json") != []


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _registry(counter_vals, observations) -> MetricsRegistry:
    reg = MetricsRegistry()
    for name, v in counter_vals.items():
        reg.inc(name, v)
    for name, xs in observations.items():
        for x in xs:
            reg.observe(name, x)
    return reg


def test_metrics_merge_associative_across_simulated_chunks():
    # Three "worker chunk" registries with overlapping and disjoint names.
    # Binary-exact observations so merge-order float drift cannot mask the
    # structural property under test.
    a = _registry({"c": 2, "only_a": 1}, {"h": [0.125, 0.25]})
    b = _registry({"c": 5}, {"h": [0.5], "only_b": [1.0]})
    c = _registry({"c": 1, "only_a": 3}, {"h": [0.0625, 4.0]})
    snaps = [r.snapshot() for r in (a, b, c)]

    left = MetricsRegistry()
    left.merge(snaps[0])
    left.merge(snaps[1])
    left.merge(snaps[2])

    inner = MetricsRegistry()
    inner.merge(snaps[1])
    inner.merge(snaps[2])
    right = MetricsRegistry()
    right.merge(snaps[0])
    right.merge(inner.snapshot())

    reversed_order = MetricsRegistry.from_snapshots(reversed(snaps))

    for merged in (right, reversed_order):
        assert merged.snapshot() == left.snapshot()
    h = left.histograms["h"]
    assert h.count == 5
    assert h.min == 0.0625 and h.max == 4.0
    assert h.total == 0.125 + 0.25 + 0.5 + 0.0625 + 4.0
    assert left.value("c") == 8
    assert left.value("only_a") == 4


def test_histogram_summary_stats():
    reg = MetricsRegistry()
    for x in (0.5, 1.5, 2.0, 4.0):
        reg.observe("t", x)
    h = reg.histograms["t"]
    assert h.count == 4
    assert h.mean == pytest.approx(2.0)
    assert sum(h.buckets.values()) == 4


# ---------------------------------------------------------------------------
# Progress
# ---------------------------------------------------------------------------


def test_progress_rates_and_eta():
    now = [0.0]
    reports = []
    p = ProgressReporter(
        total=100, callback=reports.append, min_interval=0.0, clock=lambda: now[0]
    )
    now[0] = 2.0
    p.update(40, feasible=10)
    assert p.rate == pytest.approx(20.0)
    assert p.eta == pytest.approx(3.0)
    assert p.feasible_fraction == pytest.approx(0.25)
    now[0] = 5.0
    p.update(60, feasible=5)
    p.finish()
    assert p.done == 100 and p.feasible == 15
    assert p.eta == pytest.approx(0.0)
    assert len(reports) == 3


def test_progress_throttles_callbacks():
    now = [0.0]
    reports = []
    p = ProgressReporter(
        total=1000, callback=reports.append, min_interval=1.0, clock=lambda: now[0]
    )
    for _ in range(10):
        now[0] += 0.05  # well under min_interval
        p.update(1)
    assert len(reports) <= 1  # at most the first tick reports


def test_progress_status_line_mentions_throughput():
    now = [0.0]
    p = ProgressReporter(total=10, callback=lambda _: None, clock=lambda: now[0])
    now[0] = 1.0
    p.update(5, feasible=2)
    line = p.status_line()
    assert "5/10" in line and "/s" in line and "feasible" in line


# ---------------------------------------------------------------------------
# Engine stats and instrumented search
# ---------------------------------------------------------------------------

SYS64 = a100_system(64)


def _grid():
    # At least 32 candidates, so evaluate_many runs them as one columnar
    # batch (smaller batches run the scalar evaluate() per candidate).
    out = []
    for t, p in ((1, 8), (2, 4), (4, 2), (8, 1), (8, 8)):
        d = 64 // (t * p)
        for mb, recompute in product((1, 2, 4), ("none", "attn_only", "full")):
            out.append(
                ExecutionStrategy(
                    tensor_par=t, pipeline_par=p, data_par=d,
                    batch=64, microbatch=mb, recompute=recompute,
                )
            )
    # One structurally-invalid candidate (t*p*d != system size) so the
    # validate-rejection path is exercised alongside memory rejections.
    out.append(
        ExecutionStrategy(
            tensor_par=64, pipeline_par=2, data_par=1,
            batch=64, microbatch=1, recompute="full",
        )
    )
    return out


def test_evaluate_many_stats_consistent_with_results():
    grid = _grid()
    results, stats = evaluate_many(GPT3_175B, SYS64, grid, stats=True)
    assert isinstance(stats, PruneStats)
    assert stats.candidates == len(grid)
    n_feasible = sum(r.feasible for r in results)
    assert stats.evaluated_full == n_feasible
    assert stats.rejected_validate == sum(
        not r.feasible and "exceeds capacity" not in r.infeasibility
        for r in results
    )
    assert stats.rejected_memory == sum(
        not r.feasible and "exceeds capacity" in r.infeasibility for r in results
    )
    assert stats.rejected_validate >= 1  # the invalid-product candidate
    assert stats.candidates == (
        stats.rejected_validate + stats.rejected_memory + stats.evaluated_full
    )
    assert 0 < stats.profile_groups <= stats.validated
    assert stats.memory_buckets + stats.bucket_hits == stats.validated
    # Stage wall time was observed for every stage that ran.
    assert stats.stage_seconds["validate"] > 0
    assert stats.stage_seconds["profile"] > 0


def test_evaluate_many_stats_feeds_caller_registry():
    grid = _grid()
    reg = MetricsRegistry()
    _, first = evaluate_many(GPT3_175B, SYS64, grid, stats=True, metrics=reg)
    _, second = evaluate_many(GPT3_175B, SYS64, grid, stats=True, metrics=reg)
    # Each PruneStats covers exactly its own call ...
    assert first.candidates == second.candidates == len(grid)
    # ... while the caller's registry accumulates both.
    total = PruneStats.from_metrics(reg)
    assert total.candidates == 2 * len(grid)


def test_search_collect_stats_serial_and_parallel_agree():
    opts = SearchOptions.megatron_baseline()
    # keep_rates prices every feasible candidate, so the full-evaluation
    # count does not depend on how chunks tighten the prune threshold.
    serial = search(GPT3_175B, SYS64, 64, opts, workers=0, keep_rates=True,
                    collect_stats=True)
    parallel = search(GPT3_175B, SYS64, 64, opts, workers=2, keep_rates=True,
                      collect_stats=True)
    for res in (serial, parallel):
        assert res.stats is not None
        assert res.stats.engine.candidates == res.num_evaluated
        assert res.stats.num_feasible == res.num_feasible
        assert res.stats.elapsed > 0
        assert res.stats.candidates_per_sec > 0
    # Counter aggregation across workers matches the serial ground truth
    # (profile groups/buckets are per-chunk, so only totals must agree).
    assert parallel.stats.engine.candidates == serial.stats.engine.candidates
    assert parallel.stats.engine.evaluated_full == serial.stats.engine.evaluated_full
    assert (
        parallel.stats.engine.rejected_memory == serial.stats.engine.rejected_memory
    )
    assert parallel.num_feasible == serial.num_feasible
    assert parallel.best.sample_rate == serial.best.sample_rate
    summary = parallel.stats.summary()
    assert "candidates/s" in summary and "dedup" in summary


def test_search_trace_covers_stages_and_chunks(tmp_path):
    tracer = Tracer()
    search(
        GPT3_175B, SYS64, 64, SearchOptions.megatron_baseline(),
        workers=0, tracer=tracer,
    )
    path = tracer.write(tmp_path / "sweep.json")
    assert validate_trace_file(path) == []
    names = {e["name"] for e in tracer.events()}
    assert set(STAGE_NAMES) <= names  # every pipeline stage, the bound too
    assert "enumerate" in names
    assert any(n.startswith("chunk[") for n in names)


def test_search_uninstrumented_attaches_no_stats():
    res = search(GPT3_175B, SYS64, 64, SearchOptions.megatron_baseline(), workers=0)
    assert res.stats is None


def test_sweep_stats_merge():
    engine = PruneStats(candidates=10, rejected_memory=4, evaluated_full=6)
    a = SweepStats(engine=engine, elapsed=1.0, workers=2,
                   num_evaluated=10, num_feasible=6)
    b = SweepStats(engine=engine, elapsed=3.0, workers=1,
                   num_evaluated=10, num_feasible=2)
    merged = SweepStats.merge([a, b])
    assert merged.num_evaluated == 20
    assert merged.num_feasible == 8
    assert merged.elapsed == pytest.approx(4.0)
    assert merged.workers == 2
    assert merged.engine.candidates == 20
    assert SweepStats.merge([]).num_evaluated == 0


def test_registry_concurrent_increments_lose_nothing():
    # The service increments one registry from HTTP handler threads and the
    # dispatch thread; first-touch creation and += must both be locked.
    import threading

    reg = MetricsRegistry()
    n_threads, per_thread = 8, 2000

    def worker():
        for _ in range(per_thread):
            reg.inc("race.counter")
            reg.observe("race.histogram", 1.0)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert reg.value("race.counter") == n_threads * per_thread
    snap = reg.snapshot()
    assert snap["histograms"]["race.histogram"]["count"] == n_threads * per_thread


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


def test_prometheus_names_are_prefixed_and_sanitized():
    from repro.obs import prometheus_name

    assert prometheus_name("service.requests") == "repro_service_requests"
    assert prometheus_name("engine-comm cache") == "repro_engine_comm_cache"
    assert prometheus_name("7start") == "repro__7start"
    # Idempotent: an already-prefixed name is not double-prefixed.
    assert prometheus_name("repro_service_requests") == "repro_service_requests"
    assert prometheus_name(prometheus_name("a.b")) == prometheus_name("a.b")


def test_prometheus_label_escaping():
    from repro.obs import escape_label_value

    assert escape_label_value('say "hi"') == 'say \\"hi\\"'
    assert escape_label_value("a\\b") == "a\\\\b"
    assert escape_label_value("line1\nline2") == "line1\\nline2"
    assert escape_label_value("plain") == "plain"


def test_prometheus_histogram_family_is_cumulative():
    from repro.obs import render_prometheus

    reg = MetricsRegistry()
    for x in (0.3, 0.6, 0.7, 1.5, 3.0):
        reg.observe("stage.seconds", x)
    reg.inc("hits", 2)
    text = render_prometheus(reg, gauges={"depth": 4.0})

    assert "# TYPE repro_hits counter" in text
    assert "repro_hits 2" in text
    assert "# TYPE repro_depth gauge" in text
    assert "# TYPE repro_stage_seconds histogram" in text
    assert "repro_stage_seconds_sum 6.1" in text
    assert "repro_stage_seconds_count 5" in text

    # Bucket series must be cumulative and ordered, ending at +Inf == count.
    buckets = []
    for line in text.splitlines():
        if line.startswith("repro_stage_seconds_bucket"):
            le = line.split('le="')[1].split('"')[0]
            buckets.append((le, int(line.rsplit(" ", 1)[1])))
    counts = [c for _, c in buckets]
    assert counts == sorted(counts)
    assert buckets[-1] == ("+Inf", 5)
    # 0.3 -> (0.25, 0.5]; 0.6, 0.7 -> (0.5, 1]; 1.5 -> (1, 2]; 3.0 -> (2, 4].
    assert ("0.5", 1) in buckets and ("1", 3) in buckets
    assert ("2", 4) in buckets and ("4", 5) in buckets


def test_histogram_quantiles_bounded_by_extremes():
    from repro.obs import Histogram

    h = Histogram()
    for x in (0.001, 0.002, 0.5, 1.5, 3.0):
        h.observe(x)
    assert h.quantile(0.0) == pytest.approx(0.001)
    assert h.quantile(1.0) == pytest.approx(3.0)
    assert 0.001 <= h.quantile(0.5) <= 3.0
    assert h.quantile(0.5) <= h.quantile(0.95) <= h.quantile(0.99)
    with pytest.raises(ValueError):
        h.quantile(1.5)
    assert Histogram().quantile(0.5) == 0.0


def test_histogram_merge_associative_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.obs import Histogram

    def build(values):
        h = Histogram()
        for v in values:
            h.observe(v)
        return h

    def merged(*hs):
        out = Histogram()
        for h in hs:
            out.merge(h)
        return out

    samples = st.lists(
        st.floats(min_value=1e-9, max_value=1e9, allow_nan=False),
        max_size=30,
    )

    @settings(max_examples=60, deadline=None)
    @given(samples, samples, samples)
    def check(a, b, c):
        ha, hb, hc = build(a), build(b), build(c)
        left = merged(merged(ha, hb), hc)
        right = merged(ha, merged(hb, hc))
        # Exactly associative in structure; the float running sum is
        # associative only up to rounding.
        assert left.count == right.count
        assert left.buckets == right.buckets
        assert left.min == right.min and left.max == right.max
        assert left.total == pytest.approx(right.total)
        # And merging matches observing everything in one histogram.
        direct = build(a + b + c)
        assert left.count == direct.count
        assert left.buckets == direct.buckets
        assert left.total == pytest.approx(direct.total)

    check()


# ---------------------------------------------------------------------------
# Progress hardening
# ---------------------------------------------------------------------------


def test_progress_eta_never_divides_by_zero():
    now = [0.0]
    p = ProgressReporter(total=10, callback=lambda _: None, clock=lambda: now[0])
    # No completions yet and no elapsed time: no estimate, no exception.
    assert p.eta is None
    assert p.rate == 0.0
    # Completions with a stalled clock: rate 0 -> still no estimate.
    p.update(5)
    assert p.rate == 0.0
    assert p.eta is None
    # Unknown total: no estimate either.
    q = ProgressReporter(callback=lambda _: None, clock=lambda: now[0])
    q.update(3)
    assert q.eta is None
    assert "ETA" not in q.status_line()


def test_progress_survives_backwards_clock_and_overshoot():
    now = [100.0]
    p = ProgressReporter(total=10, callback=lambda _: None, clock=lambda: now[0])
    now[0] = 90.0  # a (buggy) injected clock steps backwards
    p.update(4)
    assert p.elapsed == 0.0
    assert p.rate == 0.0
    assert p.eta is None
    now[0] = 110.0
    p.update(16)  # overshoot: done > total
    assert p.eta == pytest.approx(0.0)
    line = p.status_line()
    assert "ETA" in line and "-" not in line.split("ETA")[1]

"""The one chunk driver behind ``search()`` and ``serve_search()``.

Two contracts of :func:`repro.search.faults.run_chunks`:

* **No lost chunks.**  Without a fault-tolerance argument a failing chunk
  re-raises its own exception — serially, on a pool, and with only an
  event journal attached.  Only ``retry_policy`` (or another tolerance
  argument) turns the failure into a skipped range.
* **Instrumentation leaves the run alone.**  Every combination of
  ``events``, ``tracer``, ``collect_stats`` and ``progress`` gives the bare
  run's top-k, chunk count and work counters.

The failure is injected by monkeypatching a module function.  Pool workers
see the patch only when they are forked, so the pool cases need the
``fork`` start method (the Linux default).
"""

import itertools
import multiprocessing

import pytest

import repro.search.execution_search as execution_search
import repro.serving.search as serving_search
from repro.hardware import a100_system
from repro.hardware.system import h100_system
from repro.llm import TINY_TEST
from repro.obs import EventJournal, MetricsRegistry, ProgressReporter, Tracer
from repro.obs import read_events
from repro.obs.stats import M_BOUND_PRUNED, M_BOUND_TILES, M_EVALUATED_FULL
from repro.search import RetryPolicy, search
from repro.serving import (
    LengthDist,
    ServeWorkload,
    SLOSpec,
    candidate_plans,
    serve_search,
)

SEARCH_SYS = a100_system(8)
BATCH = 16
SERVE_SYS = h100_system(4, hbm_gib=8.0)
WL = ServeWorkload(
    arrival_rate=20.0, prompt=LengthDist.uniform(64, 128),
    output=LengthDist.uniform(16, 32), num_requests=40, seed=1,
)
SLO = SLOSpec(ttft_p95=9e-5, tpot_p95=4e-5)
COUNTERS = (M_EVALUATED_FULL, M_BOUND_PRUNED, M_BOUND_TILES)

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the monkeypatched failure reaches pool workers only by fork",
)


def _search(**kw):
    return search(TINY_TEST, SEARCH_SYS, BATCH, top_k=5, **kw)


def _serve(**kw):
    return serve_search(TINY_TEST, SERVE_SYS, WL, SLO, top_k=5, **kw)


# ---------------------------------------------------------------------------
# Lost chunks
# ---------------------------------------------------------------------------

class Poisoned(RuntimeError):
    """The failure one monkeypatched chunk raises."""


@pytest.fixture
def poisoned_search(monkeypatch):
    """Make the search chunk holding global candidate 1000 raise."""
    poison = 1000
    real = execution_search.evaluate_rows

    def evaluate_rows(llm, system, rows, *, offset=0, **kw):
        if offset <= poison < offset + len(rows["t"]):
            raise Poisoned(f"candidate {poison}")
        return real(llm, system, rows, offset=offset, **kw)

    monkeypatch.setattr(execution_search, "evaluate_rows", evaluate_rows)
    return _search, poison


@pytest.fixture
def poisoned_serve(monkeypatch):
    """Make the serve chunk holding one mid-enumeration plan raise."""
    plans = candidate_plans(TINY_TEST, SERVE_SYS)
    poison = len(plans) // 2
    real = serving_search.check_plan

    def check_plan(llm, system, plan, workload):
        if plan == plans[poison]:
            raise Poisoned(f"plan {poison}")
        return real(llm, system, plan, workload)

    monkeypatch.setattr(serving_search, "check_plan", check_plan)
    return _serve, poison


@pytest.fixture(params=["search", "serve"])
def poisoned(request):
    return request.getfixturevalue(f"poisoned_{request.param}")


@pytest.mark.parametrize("workers", [
    1, pytest.param(2, marks=needs_fork),
])
def test_failing_chunk_raises_without_tolerance(poisoned, workers):
    run, _ = poisoned
    with pytest.raises(Poisoned):
        run(workers=workers)


def test_event_journal_alone_does_not_swallow_a_failure(poisoned, tmp_path):
    run, _ = poisoned
    with EventJournal(tmp_path / "ev.jsonl", source="test") as journal:
        with pytest.raises(Poisoned):
            run(events=journal)


@pytest.mark.parametrize("workers", [
    None, pytest.param(2, marks=needs_fork),
])
def test_retry_policy_skips_the_failing_range(poisoned, workers):
    run, poison = poisoned
    result = run(workers=workers,
                 retry_policy=RetryPolicy(max_retries=1, backoff_base=0.0))
    (lo, hi), = result.stats.skipped
    assert lo <= poison < hi
    assert result.stats.retries >= 1


# ---------------------------------------------------------------------------
# Instrumentation invariance
# ---------------------------------------------------------------------------

COMBOS = list(itertools.product([False, True], repeat=4))


def _instruments(combo, tmp_path):
    """Keyword arguments for one (events, tracer, stats, progress) combo."""
    events, tracer, stats, progress = combo
    kw = {}
    if events:
        kw["events"] = EventJournal(tmp_path / f"ev{combo}.jsonl",
                                    source="test")
    if tracer:
        kw["tracer"] = Tracer()
    if stats:
        kw["collect_stats"] = True
    if progress:
        kw["progress"] = ProgressReporter(callback=lambda _r: None)
    return kw


def _observed_chunks(kw, start_kind, span_cat):
    """Chunk counts as the instruments report them (event and trace)."""
    seen = []
    if "events" in kw:
        kw["events"].close()
        (start,) = [e for e in read_events(kw["events"].path)
                    if e["kind"] == start_kind]
        seen.append(start["chunks"])
    if "tracer" in kw:
        seen.append(sum(e.get("cat") == span_cat and e.get("ph") == "X"
                        for e in kw["tracer"].events()))
    return seen


def test_search_instrumentation_changes_nothing(monkeypatch, tmp_path):
    # Spy on the row-range evaluator: one call per chunk, and the engine
    # counters of every chunk, instrumented or not.
    real = execution_search.evaluate_rows
    calls = []

    def evaluate_rows(*args, metrics=None, **kw):
        registry = metrics if metrics is not None else MetricsRegistry()
        out = real(*args, metrics=registry, **kw)
        calls.append(tuple(int(registry.value(m)) for m in COUNTERS))
        return out

    monkeypatch.setattr(execution_search, "evaluate_rows", evaluate_rows)

    def run(combo):
        calls.clear()
        kw = _instruments(combo, tmp_path)
        result = _search(**kw)
        counters = tuple(map(sum, zip(*calls)))
        for chunks in _observed_chunks(kw, "search.start", "search.chunk"):
            assert chunks == len(calls)
        if result.stats is not None:
            engine = result.stats.engine
            assert (engine.evaluated_full, engine.bound_pruned,
                    engine.bound_tiles) == counters
        top = [(s.to_dict(), r.sample_rate) for s, r in result.top]
        return top, len(calls), counters, result.num_feasible

    bare = run(COMBOS[0])
    assert bare[1] == 1 and bare[2][2] > 0  # one chunk, adaptive tiles ran
    for combo in COMBOS[1:]:
        assert run(combo) == bare, combo


def test_serve_instrumentation_changes_nothing(monkeypatch, tmp_path):
    real = serving_search._serve_chunk
    calls = []

    def serve_chunk(args):
        calls.append(len(args[2]))
        return real(args)

    monkeypatch.setattr(serving_search, "_serve_chunk", serve_chunk)

    def run(combo):
        calls.clear()
        kw = _instruments(combo, tmp_path)
        result = _serve(**kw)
        for chunks in _observed_chunks(kw, "serve.start", "serve.chunk"):
            assert chunks == len(calls)
        counters = (result.num_simulated, result.num_pruned,
                    result.num_infeasible)
        if result.stats is not None:
            assert (result.stats.simulated, result.stats.pruned,
                    result.stats.infeasible) == counters
        top = [(p.to_dict(), s.goodput_rps) for p, s in result.top]
        return top, len(calls), counters

    bare = run(COMBOS[0])
    assert bare[1] == 1 and bare[0]
    for combo in COMBOS[1:]:
        assert run(combo) == bare, combo

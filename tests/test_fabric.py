"""Distributed search fabric: protocol, work stealing, resume, bit-identity.

The acceptance bar for the fabric is that a sharded, stolen, resumed,
partially-dead cluster still produces **exactly** the single-process
``search()`` answer.  These tests drive the coordinator both directly (no
HTTP — the protocol methods are plain calls) and over real loopback HTTP
through :class:`repro.fabric.FabricWorker`, and cover the failure
machinery: lease expiry and theft, worker death and resurrection, stale
duplicate results, serial fallback, chunk skipping, checkpoint resume and
torn-journal flight recording.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.fabric import (
    FabricCoordinator,
    FabricError,
    FabricWorker,
    fabric_run_key,
    make_fabric_server,
    options_from_dict,
    options_to_dict,
    run_fabric,
)
from repro.fabric.cluster import _start_method
from repro.hardware import a100_system
from repro.llm import LLMConfig
from repro.obs import EventJournal, read_events, validate_events
from repro.search import RetryPolicy, SearchOptions, search
from repro.search.checkpoint import CheckpointJournal
from repro.search.columns import candidate_columns
from repro.search.execution_search import (
    _chunk_payload,
    _chunk_task,
    _evaluate_chunk,
)
from repro.search.faults import chunk_bounds, chunk_step
from repro.search.merge import TopKMerge

LLM = LLMConfig(name="fabric-llm", hidden=2048, attn_heads=16, seq_size=1024,
                num_blocks=16)
SYS = a100_system(8)
BATCH = 16


def small_options():
    """A few dozen candidates: fast, but enough for multi-chunk plans."""
    return SearchOptions(
        recompute=("none", "full"),
        tp_overlap=("none",),
        dp_overlap=(False,),
        optimizer_sharding=(False, True),
        fused_activations=(False,),
        max_microbatch=2,
        interleaving_values=(1, 2),
    )


def reference(top_k=5):
    return search(LLM, SYS, BATCH, small_options(), top_k=top_k, workers=0,
                  keep_rates=False)


def tops(result):
    return [(s.to_dict(), r.sample_rate) for s, r in result.top]


def space():
    return candidate_columns(LLM, SYS, BATCH, small_options())


def evaluate_chunk(cols, chunk, top_k=5):
    """What a worker posts for a leased ``{index, start, stop}`` chunk."""
    return _chunk_payload(_evaluate_chunk(_chunk_task(
        LLM, SYS, cols, chunk["index"], chunk["start"], chunk["stop"], top_k,
    )))


def drain(coord, worker_id, cols, *, limit=1000):
    """Pull-evaluate-submit until the coordinator says done."""
    finished = 0
    for _ in range(limit):
        reply = coord.lease(worker_id)
        if reply["status"] == "done":
            return finished
        if reply["status"] == "wait":
            time.sleep(0.005)
            continue
        chunk = reply["chunk"]
        payload = evaluate_chunk(cols, chunk, coord.top_k)
        coord.submit(worker_id, chunk["index"], payload, key=coord.key)
        finished += 1
    raise AssertionError("coordinator never reported done")


# ---------------------------------------------------------------------------
# Planning and wire-format round trips
# ---------------------------------------------------------------------------

def test_plan_chunks_covers_the_space_exactly():
    """The one layout rule of ``run_chunks`` and the coordinator."""
    for total, workers in [(0, 4), (1, 4), (55, 2), (100, 3), (4096, 16)]:
        bounds = chunk_bounds(total, chunk_step(total, workers))
        covered = [i for lo, hi in bounds for i in range(lo, hi)]
        assert covered == list(range(total))
        # Granular enough to steal, coarse enough to amortize HTTP.
        assert len(bounds) <= workers * 4 + 1
    assert chunk_bounds(0, 1) == [(0, 0)]  # an empty space is one chunk


def test_plan_chunks_explicit_step_wins():
    assert chunk_bounds(10, chunk_step(10, 4, 3)) == [
        (0, 3), (3, 6), (6, 9), (9, 10)]


def test_options_survive_json_round_trip_with_identical_key():
    opts = small_options()
    wire = json.loads(json.dumps(options_to_dict(opts)))
    rebuilt = options_from_dict(wire)
    assert rebuilt == opts
    assert (
        fabric_run_key(LLM, SYS, BATCH, rebuilt, top_k=5)
        == fabric_run_key(LLM, SYS, BATCH, opts, top_k=5)
    )


def test_options_from_dict_rejects_unknown_mode_names():
    """Unknown modes and degenerate dimensions are rejected off the wire."""
    for field, value, match in (
        ("tp_overlap", ["warp"], "'warp'"),
        ("interleaving_values", [0], "interleaving_values"),
        ("max_microbatch", 0, "max_microbatch"),
        ("recompute", [], "recompute"),
    ):
        wire = options_to_dict(small_options())
        wire[field] = value
        with pytest.raises(ValueError, match=match):
            options_from_dict(json.loads(json.dumps(wire)))


def test_chunk_evaluation_is_partition_independent():
    """Slice-and-merge over any chunking == the whole-space columnar top-k."""
    ref = reference(top_k=5)
    cols = space()
    total = int(cols["t"].shape[0])

    for step in (7, 23, total):
        merge = TopKMerge(5)
        n = feasible = 0
        for index, (lo, hi) in enumerate(chunk_bounds(total, step)):
            payload = evaluate_chunk(
                cols, {"index": index, "start": lo, "stop": hi})
            n += payload["n"]
            feasible += payload["feasible"]
            merge.extend(
                (rate, gidx, strat) for rate, gidx, strat in payload["top"]
            )
        assert n == total == ref.num_evaluated
        assert feasible == ref.num_feasible
        got = [(dict(strat), rate) for rate, _gidx, strat in merge.entries()]
        assert got == tops(ref)


# ---------------------------------------------------------------------------
# Coordinator protocol (no HTTP)
# ---------------------------------------------------------------------------

def test_two_workers_produce_bit_identical_answer():
    ref = reference()
    coord = FabricCoordinator(LLM, SYS, BATCH, small_options(), top_k=5,
                              expected_workers=2)
    a = coord.register("a")["worker_id"]
    b = coord.register("b")["worker_id"]
    cols = space()
    done = []
    threads = [
        threading.Thread(target=lambda w: done.append(
            drain(coord, w, cols)), args=(w,))
        for w in (a, b)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    result = coord.result(timeout=10)
    assert sum(done) == coord.status()["chunks"]
    assert result.num_evaluated == ref.num_evaluated
    assert result.num_feasible == ref.num_feasible
    assert tops(result) == tops(ref)
    assert result.stats is not None and result.stats.workers == 2


def test_lease_barrier_waits_for_expected_workers():
    coord = FabricCoordinator(LLM, SYS, BATCH, small_options(),
                              expected_workers=2)
    a = coord.register("a")["worker_id"]
    assert coord.lease(a)["status"] == "wait"
    coord.register("b")
    assert coord.lease(a)["status"] == "lease"


def test_unknown_worker_and_wrong_key_are_protocol_errors():
    coord = FabricCoordinator(LLM, SYS, BATCH, small_options())
    with pytest.raises(FabricError, match="register first"):
        coord.lease("nobody")
    w = coord.register("w")["worker_id"]
    with pytest.raises(FabricError, match="does not belong"):
        coord.submit(w, 0, {"n": 1, "feasible": 1, "top": []}, key="f" * 64)
    for bad in ({"nope": True}, ["n"],
                {"n": 1, "feasible": 1, "top": [[1.0, 0, {"bogus": 1}]]}):
        with pytest.raises(FabricError, match="malformed"):
            coord.submit(w, 0, bad, key=coord.key)
    with pytest.raises(FabricError, match="no such chunk"):
        coord.submit(w, 10**6, {"n": 0, "feasible": 0, "top": []},
                     key=coord.key)


def test_expired_lease_is_stolen_and_duplicate_result_goes_stale(tmp_path):
    events_path = tmp_path / "events.jsonl"
    ref = reference()
    cols = space()
    with EventJournal(events_path, source="fabric") as events:
        coord = FabricCoordinator(
            LLM, SYS, BATCH, small_options(), top_k=5, expected_workers=2,
            lease_timeout=0.05, events=events,
        )
        slow = coord.register("slow")["worker_id"]
        live = coord.register("live")["worker_id"]
        held = coord.lease(slow)
        assert held["status"] == "lease"
        held_index = held["chunk"]["index"]
        time.sleep(0.1)  # the lease expires; `slow` is presumed dead
        drain(coord, live, cols)
        result = coord.result(timeout=10)
        assert tops(result) == tops(ref)
        # The wedged worker finally answers: acknowledged, discarded.
        late = evaluate_chunk(cols, held["chunk"])
        reply = coord.submit(slow, held_index, late, key=coord.key)
        assert reply["status"] == "stale"
        # ...and the late result resurrected it in the worker table.
        assert coord.status()["workers"][slow]["dead"] is False

    kinds = [e["kind"] for e in read_events(events_path)]
    assert "lease.expire" in kinds and "worker.dead" in kinds
    steals = [e for e in read_events(events_path) if e["kind"] == "lease.steal"]
    assert any(s["chunk"] == held_index and s["previous"] == slow
               for s in steals)
    assert validate_events(list(read_events(events_path))) == []


def test_dead_cluster_degrades_to_serial_fallback(tmp_path):
    ref = reference()
    with EventJournal(tmp_path / "ev.jsonl", source="fabric") as events:
        coord = FabricCoordinator(
            LLM, SYS, BATCH, small_options(), top_k=5,
            lease_timeout=0.05, events=events,
            retry_policy=RetryPolicy(max_retries=0),
        )
        w = coord.register("doomed")["worker_id"]
        assert coord.lease(w)["status"] == "lease"  # holds it forever
        result = coord.result(timeout=30)
    assert tops(result) == tops(ref)
    assert result.truncated is False
    kinds = [e["kind"] for e in read_events(tmp_path / "ev.jsonl")]
    assert "chunk.serial_fallback" in kinds and "fabric.done" in kinds


def test_skipped_chunks_truncate_the_result():
    coord = FabricCoordinator(
        LLM, SYS, BATCH, small_options(), top_k=5, lease_timeout=0.05,
        retry_policy=RetryPolicy(max_retries=0, serial_fallback=False),
    )
    w = coord.register("doomed")["worker_id"]
    assert coord.lease(w)["status"] == "lease"
    result = coord.result(timeout=30)
    assert result.truncated is True
    assert result.stats.skipped  # the dropped [start, stop) ranges
    assert result.num_evaluated == 0


# ---------------------------------------------------------------------------
# Checkpoint resume
# ---------------------------------------------------------------------------

def test_resume_folds_journaled_chunks_and_matches_uninterrupted(tmp_path):
    checkpoint = tmp_path / "fabric.jsonl"
    ref = reference()
    cols = space()

    first = FabricCoordinator(LLM, SYS, BATCH, small_options(), top_k=5,
                              checkpoint=str(checkpoint))
    w = first.register("w")["worker_id"]
    # Complete exactly two chunks, then "crash" the coordinator.
    for _ in range(2):
        reply = first.lease(w)
        chunk = reply["chunk"]
        payload = evaluate_chunk(cols, chunk)
        first.submit(w, chunk["index"], payload, key=first.key)
    journal = CheckpointJournal.load(checkpoint)
    assert len(journal) == 2
    assert journal.meta["step"] == first.status()["candidates"] // 4 + (
        first.status()["candidates"] % 4 > 0)

    second = FabricCoordinator(LLM, SYS, BATCH, small_options(), top_k=5,
                               checkpoint=str(checkpoint), resume=True)
    w2 = second.register("w2")["worker_id"]
    drain(second, w2, cols)
    result = second.result(timeout=10)
    assert result.stats.resumed_chunks == 2
    assert result.num_evaluated == ref.num_evaluated
    assert result.num_feasible == ref.num_feasible
    assert tops(result) == tops(ref)


def test_fully_journaled_run_finishes_without_workers(tmp_path):
    checkpoint = tmp_path / "fabric.jsonl"
    ref = reference()
    cols = space()
    first = FabricCoordinator(LLM, SYS, BATCH, small_options(), top_k=5,
                              checkpoint=str(checkpoint))
    w = first.register("w")["worker_id"]
    drain(first, w, cols)
    assert first.result(timeout=10).num_evaluated == ref.num_evaluated

    resumed = FabricCoordinator(LLM, SYS, BATCH, small_options(), top_k=5,
                                checkpoint=str(checkpoint), resume=True)
    assert resumed.done  # complete at construction; no worker ever joins
    assert tops(resumed.result(timeout=1)) == tops(ref)


def test_torn_checkpoint_line_is_flight_recorded(tmp_path):
    """Satellite: a crash-torn trailing line is reported with its byte
    offset through the events journal instead of being silently skipped."""
    checkpoint = tmp_path / "fabric.jsonl"
    coord = FabricCoordinator(LLM, SYS, BATCH, small_options(), top_k=5,
                              checkpoint=str(checkpoint))
    cols = space()
    w = coord.register("w")["worker_id"]
    drain(coord, w, cols)

    intact = checkpoint.read_bytes()
    torn_offset = len(intact)
    checkpoint.write_bytes(intact + b'{"kind": "record", "id": "9", "da')

    with EventJournal(tmp_path / "ev.jsonl", source="fabric") as events:
        journal = CheckpointJournal.load(checkpoint, events=events)
    assert journal is not None and len(journal) > 0  # intact records kept
    torn = [e for e in read_events(tmp_path / "ev.jsonl")
            if e["kind"] == "journal.torn"]
    assert len(torn) == 1
    assert torn[0]["offset"] == torn_offset
    assert torn[0]["store"] == "journal"
    assert torn[0]["path"].endswith("fabric.jsonl")

    # The resumed coordinator itself reports the damage the same way.
    with EventJournal(tmp_path / "ev2.jsonl", source="fabric") as events:
        FabricCoordinator(LLM, SYS, BATCH, small_options(), top_k=5,
                          checkpoint=str(checkpoint), resume=True,
                          events=events)
    assert any(e["kind"] == "journal.torn"
               for e in read_events(tmp_path / "ev2.jsonl"))


def test_torn_cache_shard_line_is_flight_recorded(tmp_path):
    """Satellite twin: the service disk-cache loader reports torn shard
    lines through the same ``journal.torn`` channel."""
    from repro.service.cache import ResultCache

    cache = ResultCache(cache_dir=tmp_path / "cache")
    cache.put("ab" + "0" * 62, {"x": 1})
    shard = next((tmp_path / "cache").glob("*.jsonl"))
    intact = shard.read_bytes()
    shard.write_bytes(intact + b'{"key": "ab11", "val')

    with EventJournal(tmp_path / "ev.jsonl", source="service") as events:
        fresh = ResultCache(cache_dir=tmp_path / "cache", events=events)
        assert fresh.get("ab" + "0" * 62) == {"x": 1}
    torn = [e for e in read_events(tmp_path / "ev.jsonl")
            if e["kind"] == "journal.torn"]
    assert len(torn) == 1
    assert torn[0]["store"] == "cache-shard"
    assert torn[0]["offset"] == len(intact)


# ---------------------------------------------------------------------------
# Over real HTTP
# ---------------------------------------------------------------------------

def _serve(server):
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return thread


def test_http_worker_loop_and_inherited_service_routes(tmp_path):
    ref = reference()
    server = make_fabric_server(LLM, SYS, BATCH, small_options(), top_k=5,
                                expected_workers=1)
    _serve(server)
    try:
        url = f"http://127.0.0.1:{server.port}"
        worker = FabricWorker(url, name="w")
        reply = worker.register()
        assert reply["problem"]["total"] == ref.num_evaluated
        assert worker.key == server.coordinator.key
        chunks = worker.run()
        assert chunks == server.coordinator.status()["chunks"]
        result = server.coordinator.result(timeout=10)
        assert tops(result) == tops(ref)

        # The coordinator is still a full evaluation service.
        from repro.service import ServiceClient

        client = ServiceClient(url)
        assert client.healthz()["status"] == "ok"
        status = client.get("/fabric/status")
        assert status["done"] is True and status["pending"] == 0
        exposition = client.metrics_text()
        assert 'repro_fabric_worker_chunks{worker="w#0"}' in exposition
        assert "repro_fabric_leases_granted" in exposition
    finally:
        server.shutdown()
        server.server_close()
        server.service.stop(drain=False)


def test_http_fabric_routes_respond_in_one_write(monkeypatch):
    import http.client

    from repro.fabric.server import _FabricHandler
    from tests.test_service import count_writes

    writes, connections = count_writes(_FabricHandler, monkeypatch)
    server = make_fabric_server(LLM, SYS, BATCH, small_options(), top_k=5)
    _serve(server)
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        for path in ("/metrics", "/fabric/status", "/metrics", "/healthz"):
            before = len(writes)
            conn.request("GET", path)
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200
            assert len(writes) - before == 1
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        server.service.stop(drain=False)
    assert len(connections) == 1


def test_http_worker_refuses_wrong_problem_total(monkeypatch):
    """A worker whose local enumeration disagrees must refuse to join."""
    server = make_fabric_server(LLM, SYS, BATCH, small_options(), top_k=5)
    _serve(server)
    try:
        url = f"http://127.0.0.1:{server.port}"
        import repro.fabric.worker as worker_mod

        real = worker_mod.fabric_run_key
        monkeypatch.setattr(
            worker_mod, "fabric_run_key",
            lambda *a, **kw: "0" * len(real(LLM, SYS, BATCH, small_options(),
                                           top_k=5)),
        )
        with pytest.raises(RuntimeError, match="key mismatch"):
            FabricWorker(url, name="skewed").register()
    finally:
        server.shutdown()
        server.server_close()
        server.service.stop(drain=False)


def test_run_fabric_thread_cluster_end_to_end(tmp_path):
    """The one-call local cluster: bit-identical answer, full event trail."""
    from repro.obs import Tracer

    ref = reference()
    tracer = Tracer()
    events_path = tmp_path / "events.jsonl"
    with EventJournal(events_path, source="fabric",
                      trace_id=tracer.trace_id) as events:
        result = run_fabric(
            LLM, SYS, BATCH, small_options(), workers=3, top_k=5,
            spawn="thread", events=events, tracer=tracer, timeout=120,
        )
    assert result.num_evaluated == ref.num_evaluated
    assert result.num_feasible == ref.num_feasible
    assert tops(result) == tops(ref)
    assert result.stats is not None and result.stats.workers == 3

    recorded = list(read_events(events_path))
    assert validate_events(recorded) == []
    kinds = [e["kind"] for e in recorded]
    for expected in ("fabric.start", "worker.join", "lease.grant",
                     "merge.chunk", "fabric.done"):
        assert expected in kinds, f"missing {expected} in {sorted(set(kinds))}"
    done = [e for e in recorded if e["kind"] == "fabric.done"][-1]
    assert done["evaluated"] == ref.num_evaluated
    assert done["sweep_s"] > 0
    # Worker chunk spans joined the coordinator's trace.
    worker_spans = [e for e in tracer.events()
                    if e.get("cat") == "search.chunk"]
    assert worker_spans, "no worker chunk spans stitched into the trace"


def _fresh_python(code):
    """Run ``code`` in a new interpreter that imports this checkout's repro."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=300,
    )


def test_run_fabric_process_cluster_is_bit_identical():
    """Forked local workers return exactly the single-process answer."""
    ref = reference()
    result = run_fabric(LLM, SYS, BATCH, small_options(), workers=2,
                        top_k=5, spawn="process", timeout=120)
    assert result.top == ref.top
    assert result.num_evaluated == ref.num_evaluated
    assert result.num_feasible == ref.num_feasible
    assert result.stats is not None and result.stats.workers == 2


def test_forked_workers_reuse_the_coordinators_columns(monkeypatch, tmp_path):
    """A forked worker is handed the enumerated columns and never
    enumerates; the coordinator enumerated once, before the fork."""
    import repro.fabric.worker as worker_mod

    if _start_method() != "fork":
        pytest.skip("fork start method unavailable here")

    def refuse(*args, **kwargs):
        raise AssertionError("forked fabric worker enumerated the space")

    monkeypatch.setattr(worker_mod, "candidate_columns", refuse)
    ref = reference()
    events_path = tmp_path / "events.jsonl"
    with EventJournal(events_path, source="fabric") as events:
        result = run_fabric(LLM, SYS, BATCH, small_options(), workers=2,
                            top_k=5, spawn="process", events=events,
                            timeout=120)
    kinds = [e["kind"] for e in read_events(events_path)]
    assert kinds.count("worker.join") == 2
    assert "worker.dead" not in kinds
    assert "chunk.serial_fallback" not in kinds
    assert result.top == ref.top


def test_http_worker_with_handed_columns_checks_the_total():
    """Handed columns still face the coordinator's candidate count."""
    server = make_fabric_server(LLM, SYS, BATCH, small_options(), top_k=5)
    _serve(server)
    try:
        url = f"http://127.0.0.1:{server.port}"
        short = {name: col[:-1] for name, col in space().items()}
        with pytest.raises(RuntimeError, match="enumeration disagrees"):
            FabricWorker(url, name="short", columns=short).register()
    finally:
        server.shutdown()
        server.server_close()
        server.service.stop(drain=False)


def test_run_fabric_spawns_workers_when_the_caller_runs_threads():
    """A caller's live thread could hold a lock across a fork, so the local
    workers boot their own interpreters instead; the answer is the same."""
    ref = reference()
    release = threading.Event()
    bystander = threading.Thread(target=release.wait, daemon=True)
    bystander.start()
    try:
        assert _start_method() == "spawn"
        result = run_fabric(LLM, SYS, BATCH, small_options(), workers=2,
                            top_k=5, spawn="process", timeout=120)
    finally:
        release.set()
        bystander.join(timeout=5)
    assert not bystander.is_alive()
    assert result.top == ref.top
    assert result.num_evaluated == ref.num_evaluated


def test_run_fabric_process_crash_drill_stays_bit_identical(tmp_path):
    """Every forked worker dies holding its second lease; leases expire,
    and the coordinator's fallback still merges the exact answer."""
    ref = reference()
    events_path = tmp_path / "events.jsonl"
    with EventJournal(events_path, source="fabric") as events:
        result = run_fabric(
            LLM, SYS, BATCH, small_options(), workers=2, top_k=5,
            spawn="process", lease_timeout=0.5, events=events, timeout=120,
            worker_env={"REPRO_FABRIC_CRASH_AT_LEASE": "2"},
        )
    assert result.top == ref.top
    assert result.num_evaluated == ref.num_evaluated
    assert not result.truncated
    kinds = [e["kind"] for e in read_events(events_path)]
    assert kinds.count("worker.dead") == 2
    assert "chunk.serial_fallback" in kinds


def test_run_fabric_forks_from_a_single_threaded_process():
    """Every fork run_fabric makes happens before any thread starts."""
    code = textwrap.dedent("""
        import os, threading
        from repro.fabric import run_fabric
        from repro.hardware import a100_system
        from repro.llm import LLMConfig
        from repro.search import SearchOptions

        counts = []
        os.register_at_fork(
            before=lambda: counts.append(threading.active_count()))
        llm = LLMConfig(name="fabric-llm", hidden=2048, attn_heads=16,
                        seq_size=1024, num_blocks=16)
        options = SearchOptions(
            recompute=("none", "full"), tp_overlap=("none",),
            dp_overlap=(False,), optimizer_sharding=(False, True),
            fused_activations=(False,), max_microbatch=2,
            interleaving_values=(1, 2))
        result = run_fabric(llm, a100_system(8), 16, options, workers=2,
                            top_k=5, spawn="process", timeout=120)
        assert result.top, "empty result"
        print(counts)
    """)
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[1, 1]"


def test_cli_fabric_events_journal_has_one_start_and_one_done(tmp_path, capsys):
    """Forked workers write nothing to the coordinator's journal, and the
    CLI prints the table ``repro search`` prints."""
    from repro.cli import main

    argv = ["tiny-test", "a100:8", "--batch", "16", "--top", "3"]
    assert main(["search", *argv]) == 0
    searched = capsys.readouterr().out.splitlines()
    events_path = tmp_path / "events.jsonl"
    assert main(["fabric", *argv, "--workers", "2",
                 "--events", str(events_path)]) == 0
    fabric = capsys.readouterr().out.splitlines()
    table = searched.index(next(ln for ln in searched if ln.startswith("config")))
    assert fabric[-len(searched) + table:] == searched[table:]

    recorded = list(read_events(events_path))
    assert validate_events(recorded) == []
    kinds = [e["kind"] for e in recorded]
    assert kinds.count("fabric.start") == 1
    assert kinds.count("fabric.done") == 1
    joins = [e for e in recorded if e["kind"] == "worker.join"]
    assert len(joins) == 2
    assert os.getpid() not in {e["worker_pid"] for e in joins}


def test_import_fabric_leaves_serving_unloaded():
    proc = _fresh_python(
        "import sys, repro.fabric; print('repro.serving' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_run_fabric_rejects_bad_arguments():
    with pytest.raises(ValueError, match="workers"):
        run_fabric(LLM, SYS, BATCH, small_options(), workers=0)
    with pytest.raises(ValueError, match="spawn"):
        run_fabric(LLM, SYS, BATCH, small_options(), spawn="fork")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_fabric_requires_positionals_or_join(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit, match="coordinator mode"):
        main(["fabric"])
    with pytest.raises(SystemExit, match="--resume requires"):
        main(["fabric", "tiny-test", "a100:8", "--resume"])

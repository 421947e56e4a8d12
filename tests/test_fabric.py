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
import threading
import time

import pytest

from repro.fabric import (
    FabricCoordinator,
    FabricError,
    FabricWorker,
    enumerate_space,
    fabric_run_key,
    make_fabric_server,
    options_from_dict,
    options_to_dict,
    plan_chunks,
    run_fabric,
)
from repro.fabric.chunkeval import evaluate_chunk
from repro.hardware import a100_system
from repro.llm import LLMConfig
from repro.obs import EventJournal, read_events, validate_events
from repro.search import RetryPolicy, SearchOptions, search
from repro.search.checkpoint import CheckpointJournal

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
        payload = evaluate_chunk(
            LLM, SYS, chunk["start"], chunk["stop"], coord.top_k,
            cols=cols, chunk_index=chunk["index"],
        )
        coord.submit(worker_id, chunk["index"], payload, key=coord.key)
        finished += 1
    raise AssertionError("coordinator never reported done")


# ---------------------------------------------------------------------------
# Planning and wire-format round trips
# ---------------------------------------------------------------------------

def test_plan_chunks_covers_the_space_exactly():
    for total, workers in [(0, 4), (1, 4), (55, 2), (100, 3), (4096, 16)]:
        chunks = plan_chunks(total, workers)
        assert [c.index for c in chunks] == list(range(len(chunks)))
        covered = [i for c in chunks for i in range(c.start, c.stop)]
        assert covered == list(range(total))
        if total:
            # Granular enough to steal, coarse enough to amortize HTTP.
            assert len(chunks) <= workers * 4 + 1


def test_plan_chunks_explicit_step_wins():
    chunks = plan_chunks(10, 4, step=3)
    assert [(c.start, c.stop) for c in chunks] == [(0, 3), (3, 6), (6, 9), (9, 10)]


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
    wire = options_to_dict(small_options())
    wire["tp_overlap"] = ["warp"]
    with pytest.raises(ValueError, match="'warp'"):
        options_from_dict(json.loads(json.dumps(wire)))


def test_chunk_evaluation_is_partition_independent():
    """Slice-and-merge over any chunking == the whole-space columnar top-k."""
    ref = reference(top_k=5)
    cols, total = enumerate_space(LLM, SYS, BATCH, small_options())
    from repro.fabric import TopKMerge

    for step in (7, 23, total):
        merge = TopKMerge(5)
        n = feasible = 0
        for chunk in plan_chunks(total, 1, step=step):
            payload = evaluate_chunk(
                LLM, SYS, chunk.start, chunk.stop, 5,
                cols=cols, chunk_index=chunk.index,
            )
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
    cols, _ = enumerate_space(LLM, SYS, BATCH, small_options())
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
    with pytest.raises(FabricError, match="malformed"):
        coord.submit(w, 0, {"nope": True}, key=coord.key)
    with pytest.raises(FabricError, match="no such chunk"):
        coord.submit(w, 10**6, {"n": 0, "feasible": 0, "top": []},
                     key=coord.key)


def test_expired_lease_is_stolen_and_duplicate_result_goes_stale(tmp_path):
    events_path = tmp_path / "events.jsonl"
    ref = reference()
    cols, _ = enumerate_space(LLM, SYS, BATCH, small_options())
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
        late = evaluate_chunk(
            LLM, SYS, held["chunk"]["start"], held["chunk"]["stop"], 5,
            cols=cols, chunk_index=held_index,
        )
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
    cols, _ = enumerate_space(LLM, SYS, BATCH, small_options())

    first = FabricCoordinator(LLM, SYS, BATCH, small_options(), top_k=5,
                              checkpoint=str(checkpoint))
    w = first.register("w")["worker_id"]
    # Complete exactly two chunks, then "crash" the coordinator.
    for _ in range(2):
        reply = first.lease(w)
        chunk = reply["chunk"]
        payload = evaluate_chunk(
            LLM, SYS, chunk["start"], chunk["stop"], 5,
            cols=cols, chunk_index=chunk["index"],
        )
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
    cols, _ = enumerate_space(LLM, SYS, BATCH, small_options())
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
    cols, _ = enumerate_space(LLM, SYS, BATCH, small_options())
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

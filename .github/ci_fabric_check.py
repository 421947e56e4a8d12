"""CI kill-and-resume drill for the distributed search fabric.

Runs the GPT-3 175B / a100:4096 joint sweep on a 3-worker local cluster
with real worker subprocesses and a checkpointed coordinator, then proves
the fabric's two core claims under an induced fault:

1. **Work stealing survives worker death.**  One worker is started with
   ``REPRO_FABRIC_HOLD_AT_LEASE`` so it wedges mid-lease at a known point
   (~50% through its share); the harness waits for its ``HOLDING`` marker
   on stdout and SIGKILLs it.  The lease must expire, the worker must be
   declared dead, and a survivor must steal and finish the chunk.
2. **The answer is unchanged.**  The merged top-k must be bit-identical —
   same strategies, float-for-float equal results — to an uninterrupted
   single-process search of the same space.

The flight-recorder journal, the merged Chrome trace (coordinator +
surviving workers stitched by trace id) and the checkpoint journal are
left in ``fabric-artifacts/`` for the CI artifact upload; headline
numbers land in ``BENCH_fabric.json``.

Run from the repository root:  PYTHONPATH=src python .github/ci_fabric_check.py
"""

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.fabric import make_fabric_server
from repro.fsutil import atomic_write_text
from repro.io.specs import llm_from_spec, system_from_spec
from repro.obs import EventJournal, Tracer, read_events, validate_events_file
from repro.search import SearchOptions, search

WORKERS = 3
TOP_K = 10
BATCH = 4096
LEASE_TIMEOUT_S = 5.0
HOLD_AT_LEASE = 2  # the victim wedges on its 2nd lease: ~50% of its share
STARTUP_DEADLINE_S = 60.0
ARTIFACT_DIR = Path("fabric-artifacts")


def _spawn_worker(url: str, index: int, *, hold: bool) -> subprocess.Popen:
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    if hold:
        env["REPRO_FABRIC_HOLD_AT_LEASE"] = str(HOLD_AT_LEASE)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "fabric",
         "--join", url, "--name", f"ci-{index}"],
        env=env,
        stdout=subprocess.PIPE if hold else subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        text=True,
    )


def _await_holding(victim: subprocess.Popen) -> int:
    """Block until the victim prints its HOLDING marker; return the chunk."""
    deadline = time.monotonic() + STARTUP_DEADLINE_S
    while time.monotonic() < deadline:
        line = victim.stdout.readline()
        if not line:
            raise SystemExit(
                f"victim worker exited {victim.poll()} before holding a lease"
            )
        if line.startswith("HOLDING"):
            return int(line.strip().split("chunk=", 1)[1])
    raise SystemExit(
        f"victim never reached its hold point within {STARTUP_DEADLINE_S:.0f}s"
    )


def main() -> int:
    llm = llm_from_spec("gpt3-175b")
    system = system_from_spec("a100:4096")
    options = SearchOptions.all_optimizations()
    ARTIFACT_DIR.mkdir(exist_ok=True)
    events_path = ARTIFACT_DIR / "fabric-events.jsonl"
    trace_path = ARTIFACT_DIR / "fabric-trace.json"
    checkpoint_path = ARTIFACT_DIR / "fabric-checkpoint.jsonl"
    # The journal appends; a leftover file from a previous local run would
    # mix stale events into this drill's assertions.
    for stale in (events_path, trace_path, checkpoint_path):
        stale.unlink(missing_ok=True)

    # -- uninterrupted single-process reference ------------------------------
    t0 = time.perf_counter()
    ref = search(llm, system, BATCH, options, top_k=TOP_K,
                 workers=0, keep_rates=False)
    ref_s = time.perf_counter() - t0
    print(f"single-process reference: {ref.num_evaluated} candidates "
          f"({ref.num_feasible} feasible) in {ref_s:.2f} s")

    # -- 3-worker cluster with one induced mid-lease death -------------------
    tracer = Tracer()
    procs: list[subprocess.Popen] = []
    t0 = time.perf_counter()
    with EventJournal(events_path, source="ci-fabric",
                      trace_id=tracer.trace_id) as events:
        server = make_fabric_server(
            llm, system, BATCH, options,
            top_k=TOP_K, expected_workers=WORKERS,
            lease_timeout=LEASE_TIMEOUT_S,
            checkpoint=str(checkpoint_path),
            events=events, tracer=tracer,
        )
        coord = server.coordinator
        url = f"http://127.0.0.1:{server.port}"
        threading.Thread(target=server.serve_forever,
                         kwargs={"poll_interval": 0.05}, daemon=True).start()
        try:
            victim = _spawn_worker(url, 0, hold=True)
            procs.append(victim)
            for i in range(1, WORKERS):
                procs.append(_spawn_worker(url, i, hold=False))

            held_chunk = _await_holding(victim)
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10)
            print(f"victim SIGKILLed while holding chunk {held_chunk} "
                  f"(lease expires in <= {LEASE_TIMEOUT_S:.0f} s)")

            fab = coord.result(timeout=300.0)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
            server.shutdown()
            server.server_close()
            server.service.stop(drain=False)
    total_s = time.perf_counter() - t0
    tracer.write(trace_path)
    sweep_s = coord.sweep_seconds

    # -- the lease must have been stolen, not fallen back or skipped ---------
    recorded = read_events(events_path)
    kinds = {e["kind"] for e in recorded}
    for required in ("lease.expire", "worker.dead", "lease.steal"):
        assert required in kinds, f"no {required} event in {sorted(kinds)}"
    steals = [e for e in recorded if e["kind"] == "lease.steal"]
    assert any(e["chunk"] == held_chunk for e in steals), \
        f"held chunk {held_chunk} was never stolen: {steals}"
    merges = [e for e in recorded if e["kind"] == "merge.chunk"]
    stolen_merge = [e for e in merges if e["chunk"] == held_chunk]
    assert stolen_merge and stolen_merge[-1]["worker"] is not None, \
        f"stolen chunk {held_chunk} not merged from a live worker"
    assert not fab.stats.skipped and not fab.truncated
    problems = validate_events_file(events_path)
    assert not problems, problems

    # -- threshold gossip actually reached the workers -----------------------
    # Once the merge heap holds top_k candidates, every subsequent lease
    # grant must carry the cluster's k-th-best rate as a pruning ceiling.
    # At least one worker must have received a tightened (positive, finite)
    # floor — a cluster that never gossips re-evaluates every bucket.
    grants = [e for e in recorded if e["kind"] == "lease.grant"]
    tightened = [
        e for e in grants
        if isinstance(e.get("floor_rate"), (int, float))
        and math.isfinite(e["floor_rate"]) and e["floor_rate"] > 0.0
    ]
    assert tightened, \
        f"no lease grant carried a tightened floor_rate across {len(grants)} grants"
    print(f"threshold gossip: {len(tightened)}/{len(grants)} lease grants "
          f"carried a tightened floor (max {max(e['floor_rate'] for e in tightened):.3f})")

    # -- bit-identity with the uninterrupted reference -----------------------
    assert len(fab.top) == len(ref.top) == TOP_K
    for (s_ref, r_ref), (s_fab, r_fab) in zip(ref.top, fab.top):
        assert s_ref == s_fab, (s_ref, s_fab)
        assert r_ref == r_fab, (s_ref, r_ref, r_fab)
    assert fab.num_evaluated == ref.num_evaluated
    assert fab.num_feasible == ref.num_feasible
    print(f"top-{TOP_K} bit-identical to the uninterrupted reference; "
          f"{len(merges)} chunks merged, sweep {sweep_s:.2f} s "
          f"(total incl. boot + lease expiry {total_s:.2f} s)")

    atomic_write_text(
        Path("BENCH_fabric.json"),
        json.dumps(
            {
                "workers": WORKERS,
                "candidates": fab.num_evaluated,
                "feasible": fab.num_feasible,
                "chunks_merged": len(merges),
                "held_chunk": held_chunk,
                "leases_stolen": len(steals),
                "gossip_tightened_grants": len(tightened),
                "reference_s": ref_s,
                "sweep_s": sweep_s,
                "total_s": total_s,
                "identical_topk": True,
            },
            indent=1,
        )
        + "\n",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

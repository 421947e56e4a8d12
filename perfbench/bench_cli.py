"""cli-search: what a user waits for, one cold process per question.

A pass runs one ``python -m repro search LLM SYSTEM --batch 4096`` at
default flags per paper problem, in seeded order, then three
``python -m repro fabric gpt3-175b a100:4096 --batch 4096 --workers 2``.
On two or more cores the default flags send these problems to the process
pool, so start-up, enumeration and dispatch dominate; this is also the
only workload that runs the fabric (lease, chunk, merge).

Traced processes add ``--stats --trace FILE`` (search) or ``--events FILE``
(fabric) and run unbuffered, so the first stdout line marks the end of the
work and the start of the report.
"""

from __future__ import annotations

import json
import os
import re
import sys

from common import Context, child_env, geomean, median, run_proc
from ledger import union_s

SEARCHES = [
    ("gpt3-175b", "a100:4096"),
    ("megatron-1t", "a100:4096"),
    ("turing-530b", "a100:2048"),
    ("chinchilla-70b", "a100:1024"),
]
FABRIC = ("gpt3-175b", "a100:4096")
FABRIC_RUNS = 3  # per pass: fabric_cli_s is a median, never one or two samples
PROBE_SEARCHES = 3  # gpt3-175b searches when another workload is named
BATCH = 4096
TIMEOUT_S = 90.0

_STATS = re.compile(r"evaluated ([\d,]+) candidates in [\d.]+ s \([\d,]+ candidates/s, "
                    r"(\d+) workers?\)")


def _table_rows(stdout: str) -> list[tuple[str, str]]:
    """(config, printed rate) of each row of the CLI's result table."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("config") and "rate/s" in line:
            return [
                (cells[0].strip(), cells[1].strip())
                for cells in (row.split("|") for row in lines[i + 2:])
                if len(cells) > 2
            ]
    return []


def _same_at_printed_precision(printed: str, value: float) -> bool:
    """Does ``value`` print as ``printed`` at the table's significant digits?"""
    try:
        shown = float(printed)
    except ValueError:
        return False
    digits = len(re.sub(r"[^0-9]", "", printed.split("e")[0]).lstrip("0")) or 1
    return float(format(value, f".{digits}g")) == shown


class _Reference:
    """In-process top-k per problem, computed once, outside timed regions."""

    def __init__(self) -> None:
        self._top: dict[tuple[str, str], list] = {}

    def top(self, llm_name: str, system_name: str) -> list:
        key = (llm_name, system_name)
        if key not in self._top:
            from repro.io import llm_from_spec, system_from_spec
            from repro.search import search

            res = search(llm_from_spec(llm_name), system_from_spec(system_name),
                         BATCH, workers=0, keep_rates=False)
            self._top[key] = [(s.short_name(), r.sample_rate) for s, r in res.top]
        return self._top[key]


def _check_rows(ctx: Context, ref: _Reference, what: str, problem, stdout: str,
                rank1_only: bool) -> None:
    rows = _table_rows(stdout)
    want = ref.top(*problem)
    if rank1_only:
        rows, want = rows[:1], want[:1]
    ok = len(rows) == len(want) and bool(rows) and all(
        cfg == w_cfg and _same_at_printed_precision(rate, w_rate)
        for (cfg, rate), (w_cfg, w_rate) in zip(rows, want)
    )
    ctx.check(ok, f"{what} {problem[0]}/{problem[1]} table differs from in-process "
                  f"top-k: {rows[:2]} vs {want[:2]}")


def _search_sample(ctx: Context, root: int, proc, trace_path: str,
                   import_s: float) -> dict:
    """Spans and per-layer numbers of one traced ``repro search`` process."""
    with open(trace_path, encoding="utf-8") as fh:
        events = [e for e in json.load(fh)["traceEvents"] if e.get("ph") == "X"]
    os.remove(trace_path)
    enum = [e for e in events if e["name"] == "enumerate"]
    chunks = [e for e in events if e.get("cat") == "search.chunk"]
    # Pool workers run stages in parallel: engine time is the wall-clock
    # union of their stage spans, not the worker-seconds they add up to.
    stage_s = union_s([(e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6) for e in events
                       if e.get("cat") == "engine.stage" and e["name"] != "adaptive"])
    window_s = (max(e["ts"] + e["dur"] for e in events)
                - min(e["ts"] for e in events)) / 1e6
    enumerate_s = enum[0]["dur"] / 1e6 if enum else 0.0
    m = _STATS.search(proc.stdout)
    candidates = int(m.group(1).replace(",", "")) if m else 0
    workers = int(m.group(2)) if m else 0
    ctx.check(m is not None, "repro search --stats printed no throughput line")
    report_s = proc.end - proc.first_line
    rec = ctx.recorder
    # The search window ends when the first output line appears; the import
    # replica is laid out from process start without overlapping it.
    t_search = max(proc.first_line - window_s, proc.start)
    rec.add("cli.import", proc.start, min(proc.start + import_s, t_search), parent=root)
    sid = rec.add("search.dispatch", t_search, proc.first_line, parent=root)
    rec.lay_out(sid, [("search.enumerate", enumerate_s), ("engine.stages", stage_s)])
    rec.add("cli.report", proc.first_line, proc.end, parent=root)
    return {
        "cli.report_s": report_s,
        "search.enumerate_s": enumerate_s,
        "search.candidates": candidates,
        "search.workers": workers,
        "search.chunks": len(chunks),
        "search.dispatch_s": window_s - enumerate_s - stage_s,
    }


def _fabric_sample(ctx: Context, root: int, proc, events_path: str,
                   import_s: float) -> dict:
    """Spans and per-layer numbers of one traced ``repro fabric`` process."""
    with open(events_path, encoding="utf-8") as fh:
        events = [json.loads(line) for line in fh if line.strip()]
    os.remove(events_path)
    first = {}
    for e in events:
        first.setdefault(e["kind"], e)
    start, done = first["fabric.start"], first["fabric.done"]
    joins = [e["mono"] for e in events if e["kind"] == "worker.join"]
    grants = [e for e in events if e["kind"] == "lease.grant"]
    merges = [e for e in events if e["kind"] == "merge.chunk" and not e.get("stale")]
    granted_at = {}
    eval_s = 0.0
    for e in events:
        if e["kind"] == "lease.grant":
            granted_at[e["chunk"]] = e["mono"]
        elif e["kind"] == "merge.chunk" and not e.get("stale") \
                and e["chunk"] in granted_at:
            eval_s += e["mono"] - granted_at.pop(e["chunk"])
    tightened, best = 0, 0.0
    for g in grants:
        if g["floor_rate"] > best:
            tightened += 1
            best = g["floor_rate"]
    workers = max(len(joins), 1)
    sweep_s = done["sweep_s"] or 0.0
    rec = ctx.recorder
    rec.add("cli.import", proc.start, min(proc.start + import_s, start["mono"]),
            parent=root)
    rec.add("fabric.worker_start", start["mono"], max(joins, default=start["mono"]),
            parent=root)
    rec.add("fabric.sweep", done["mono"] - sweep_s, done["mono"], parent=root)
    rec.add("cli.report", proc.first_line, proc.end, parent=root)
    return {
        "fabric.worker_start_s": max(joins, default=start["mono"]) - start["mono"],
        "fabric.chunks": len(merges),
        "fabric.leases_granted": len(grants),
        "fabric.leases_stolen": sum(e["kind"] == "lease.steal" for e in events),
        "fabric.gossip_tightened": tightened,
        "fabric.chunk_eval_s": eval_s,
        "fabric.coord_overhead_s": workers * sweep_s - eval_s,
    }


def _one_process(ctx: Context, ref: _Reference, kind: str, problem, traced: bool,
                 npass: int, import_s: float, samples: dict) -> float | None:
    """Run, check and (when traced) account one CLI process; its wall or None.

    The wall is not scaled per process (``common.HostSpeed``): the process
    and its pool workers run on whichever vCPU is free, and kernel samples
    taken around it do not track them; ``finish`` scales the run's median.
    """
    ctx.op()
    argv = [sys.executable, "-m", "repro", kind, problem[0], problem[1],
            "--batch", str(BATCH)]
    env = child_env()
    side = None
    if kind == "fabric":
        argv += ["--workers", "2"]
    if traced:
        env["PYTHONUNBUFFERED"] = "1"
        side = os.path.join(ctx.scratch, f"{kind}-{npass}-{problem[0]}.json")
        argv += ["--stats", "--trace", side] if kind == "search" else ["--events", side]
    proc = run_proc(argv, timeout=min(TIMEOUT_S, ctx.time_left()), env=env)
    if proc.returncode != 0 or proc.first_line is None:
        what = "timed out" if proc.returncode is None else f"exited {proc.returncode}"
        ctx.fail(f"repro {kind} {problem[0]} {what}: {proc.stderr[-300:]}")
        return None
    _check_rows(ctx, ref, kind, problem, proc.stdout, kind == "fabric")
    if traced:
        root = ctx.recorder.add(f"op.cli.{kind}", proc.start, proc.end,
                                llm=problem[0], system=problem[1])
        extract = _search_sample if kind == "search" else _fabric_sample
        try:
            samples[kind].append(extract(ctx, root, proc, side, import_s))
        except (OSError, ValueError, KeyError) as err:
            ctx.fail(f"repro {kind} {problem[0]}: unreadable trace output: {err!r}")
    return proc.wall


class Cli:
    """cli-search operations, one CLI process (or traced/untraced pair) per unit.

    A focus pass is every paper problem in seeded order plus the fabric
    runs; ``probe_units`` is a reduced pass of three gpt3-175b searches and
    the fabric runs, for workloads that measure these numbers on the side.
    """

    def __init__(self, ctx: Context, focus: bool):
        self.ctx, self.focus = ctx, focus
        self.ref = _Reference()
        self.rng = ctx.rng("cli-order")
        self.probe_units = 2 if ctx.smoke else PROBE_SEARCHES + FABRIC_RUNS
        self.done = 0
        self.queue: list[tuple] = []
        self.npass = -1
        # kind -> traced -> (problem, wall) of each process
        self.walls: dict[str, dict[bool, list[tuple]]] = {
            "search": {True: [], False: []}, "fabric": {True: [], False: []},
        }
        self.samples: dict[str, list[dict]] = {"search": [], "fabric": []}
        self.pairs: dict[str, list[float]] = {"search": [], "fabric": []}

    def _refill(self) -> None:
        self.npass += 1
        order = list(SEARCHES)
        self.rng.shuffle(order)
        if not self.focus:
            order = [SEARCHES[0]] * PROBE_SEARCHES
        jobs = [("search", p) for p in order] + [("fabric", FABRIC)] * FABRIC_RUNS
        if self.ctx.smoke:
            jobs = [jobs[0], jobs[-1]]
        # A traced focus run follows the first traced process of each kind
        # with an untraced one of the same problem: their difference is the
        # tracing overhead.
        pair = self.ctx.traced and self.focus
        self.queue = [(kind, problem, pair and n in (0, len(order)))
                      for n, (kind, problem) in enumerate(jobs)]

    def unit(self) -> None:
        if not self.queue:
            self._refill()
        kind, problem, paired = self.queue.pop(0)
        self.done += 1
        ctx = self.ctx
        walls_now = {}
        for traced in ([True, False] if paired else [ctx.traced]):
            if ctx.time_left() < TIMEOUT_S / 3:
                break
            wall = _one_process(ctx, self.ref, kind, problem, traced, self.npass,
                                ctx.import_s(), self.samples)
            if wall is not None:
                self.walls[kind][traced].append((problem, wall))
                walls_now[traced] = wall
        if len(walls_now) == 2:
            self.pairs[kind].append(walls_now[True] - walls_now[False])

    def finish(self) -> None:
        ctx = self.ctx
        # A focus run completes its last pass, so every problem weighs the same.
        while self.queue and ctx.time_left() > 30.0:
            self.unit()
        for kind, name in (("search", "search_cli_s"), ("fabric", "fabric_cli_s")):
            # The problems take different times, so a median over all of
            # them falls between their clusters: take each problem's median
            # and their geometric mean.
            by_problem: dict[tuple, list[float]] = {}
            for problem, wall in self.walls[kind][False] or self.walls[kind][True]:
                by_problem.setdefault(problem, []).append(wall)
                ctx.ops.setdefault(name, []).append(wall)
            if by_problem:
                ctx.raw[name] = geomean([median(walls) for walls in by_problem.values()])
                ctx.e2e[name] = ctx.raw[name] * ctx.speed.run_scale()
            if self.pairs[kind]:
                ctx.overhead[f"{kind}_cli_s"] = median(self.pairs[kind])
        for kind in ("search", "fabric"):
            if self.samples[kind]:
                for name in self.samples[kind][0]:
                    ctx.layer(name, median([s[name] for s in self.samples[kind]]))

    def close(self) -> None:
        pass

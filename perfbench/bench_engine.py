"""engine-sweep: the library idiom of ``examples/`` in one long-lived process.

Each problem is searched twice with ``search(..., workers=0)``: top-10 only
(``keep_rates=False``, the adaptive tiled path where bounds skip most
feasible candidates) and histogram (``keep_rates=True``, every feasible
candidate priced, pruning bypassed).  Engine caches are cleared outside the
timed region before each search, as a fresh study would start; the
surrogate store is left alone, so it persists across passes here (and never
in a cold CLI process).

The traced run re-runs each search's stages through the engine's public
functions to time what the program does not time itself (enumeration,
bounds, top-k selection, materialization), and refuses a replica whose
top-k differs from ``search()``'s.
"""

from __future__ import annotations

import json
from time import perf_counter

from common import Context, median

PROBLEMS = [
    ("gpt3-175b", "a100:1024"),
    ("gpt3-175b", "a100:2048"),
    ("gpt3-175b", "a100:4096"),
    ("gpt3-175b", "a100:8192"),
    ("megatron-1t", "a100:4096"),
    ("turing-530b", "a100:2048"),
    ("chinchilla-70b", "a100:1024"),
]
BATCH = 4096
TOP_K = 10
MODES = ("topk", "histogram")
# Untimed time of both modes' searches of one problem, summed: it belongs
# to whichever mode does the untimed work.
PER_PROBLEM = ("search.dispatch_s", "engine.unaccounted_s")


def _flat(result) -> str:
    from repro.io.report import result_to_flat_dict

    return json.dumps(result_to_flat_dict(result), sort_keys=True)


def _replica(llm, system, mode: str) -> dict:
    """Re-run one search's pipeline stage by stage through public functions."""
    import numpy as np

    from repro.engine import batch as eng
    from repro.engine import clear_caches, comm_cache_stats, evaluate
    from repro.engine.bounds import batch_lower_bounds
    from repro.search import SearchOptions
    from repro.search.columns import candidate_columns

    clear_caches()
    t = perf_counter()
    cols = candidate_columns(llm, system, BATCH, SearchOptions())
    enumerate_s = perf_counter() - t
    eb = eng.EvalBatch.from_columns(llm, system, cols)
    cc0 = comm_cache_stats()
    eng.batch_validate(eb)
    eng.batch_profile(eb)
    eng.batch_memory(eb)
    bound_s = 0.0
    if mode == "topk":
        t = perf_counter()
        batch_lower_bounds(eb)
        bound_s = perf_counter() - t
        eng.batch_adaptive(eb, eng.AdaptivePlan(top_k=TOP_K))
    else:
        eng.batch_prune(eb, None)
        eng.batch_comm(eb)
        eng.batch_assemble(eb)
    cc1 = comm_cache_stats()
    t = perf_counter()
    srank = eb.stream_rank[eb.sidx]
    keep = np.lexsort((srank, -eb.rate_s))[:TOP_K]
    picked = keep[np.lexsort((eb.sidx[keep], -eb.rate_s[keep]))]
    topk_s = perf_counter() - t
    t = perf_counter()
    top = []
    for i in picked:
        strat = eb.strategy_at(int(eb.sidx[i]))
        top.append((strat, evaluate(llm, system, strat)))
    materialize_s = perf_counter() - t
    return {
        "enumerate_s": enumerate_s, "bound_s": bound_s, "topk_s": topk_s,
        "materialize_s": materialize_s, "top": top,
        "evaluated_full": int(eb.n_survivors),
        "bound_pruned": int(getattr(eb, "n_pruned", 0)),
        "tiles": int(getattr(eb, "n_tiles", 0)),
        "comm_cache_misses": int(cc1[1] - cc0[1]),
    }


def _trace_op(ctx: Context, root: int, llm, system, mode: str, res) -> dict:
    """Ledger children and per-layer sample for one traced search."""
    eng = res.stats.engine
    rep = _replica(llm, system, mode)
    same_top = [s.to_dict() for s, _ in rep["top"]] == [s.to_dict() for s, _ in res.top]
    ctx.check(same_top, f"engine replica top-k differs ({llm.name}, {mode})")
    if mode == "histogram" or eng.surrogate_seeded == 0:
        # Without surrogate seeding the replica visits buckets exactly as
        # search() did, so the work counters must agree to the unit.
        for key in ("evaluated_full", "bound_pruned", "comm_cache_misses"):
            ctx.check(rep[key] == getattr(eng, key),
                      f"engine replica {key} {rep[key]} != {getattr(eng, key)}")
        ctx.check(rep["tiles"] == eng.bound_tiles,
                  f"engine replica tiles {rep['tiles']} != {eng.bound_tiles}")
    stage_s = dict(eng.stage_seconds)
    rec = ctx.recorder
    rec.lay_out(root, [
        ("search.enumerate", rep["enumerate_s"]),
        ("engine.validate", stage_s["validate"]),
        ("engine.profile", stage_s["profile"]),
        ("engine.memory", stage_s["memory"]),
        ("engine.bound", rep["bound_s"]),
        ("engine.comm", stage_s["comm"]),
        ("engine.assemble", stage_s["assemble"]),
        ("engine.topk", rep["topk_s"]),
        ("engine.materialize", rep["materialize_s"]),
    ])
    span = rec.spans[root]
    wall = span["end"] - span["start"]
    # A metric is sampled only in the mode whose rate it should move: the
    # two modes' values form separate clusters, and a median over both
    # would fall between them.  Stages both modes run alike are sampled in
    # both; untimed work is summed per problem in ``finish``.
    sample = {
        "mode": mode,
        "search.enumerate_s": rep["enumerate_s"],
        "search.candidates": res.num_evaluated,
        "search.workers": 0,
        "search.chunks": 1,
        "search.dispatch_s": wall - rep["enumerate_s"] - sum(stage_s.values()),
        "engine.profile_groups": eng.profile_groups,
        "engine.memory_buckets": eng.memory_buckets,
        "engine.feasible": res.num_feasible,
        "engine.unaccounted_s": rec.self_times()[root],
    }
    for stage in ("validate", "profile", "memory"):
        sample[f"engine.{stage}_s"] = stage_s[stage]
    if mode == "topk":
        sample.update({
            "engine.bound_s": rep["bound_s"],
            "engine.bound_evals": eng.bound_evals,
            "engine.bound_pruned": eng.bound_pruned,
            "engine.prune_rate": eng.bound_prune_rate,
            "engine.tiles": eng.bound_tiles,
            "engine.skipped_buckets": eng.bound_skipped_buckets,
            "engine.surrogate_seeded": eng.surrogate_seeded,
            "engine.topk_s": rep["topk_s"],
            "engine.materialize_s": rep["materialize_s"],
            "engine.useful_ratio": len(res.top) / max(eng.evaluated_full, 1),
        })
    else:
        sample.update({
            "engine.comm_s": stage_s["comm"],
            "engine.assemble_s": stage_s["assemble"],
            "engine.evaluated_full": eng.evaluated_full,
            "engine.comm_cache_hits": eng.comm_cache_hits,
            "engine.comm_cache_misses": eng.comm_cache_misses,
        })
    return sample


class Engine:
    """engine-sweep operations, one search per unit.

    Units come in passes: every problem in seeded order, each searched in
    both modes.  ``probe_units`` is one pass.  In the traced run passes
    alternate traced and untraced, starting traced, so the run's own
    untraced passes give the tracing overhead.
    """

    def __init__(self, ctx: Context, focus: bool):
        from repro.io import llm_from_spec, system_from_spec

        self.ctx, self.focus = ctx, focus
        problems = PROBLEMS[:2] if ctx.smoke else PROBLEMS
        self.problems = [(llm_from_spec(l), system_from_spec(s)) for l, s in problems]
        self.probe_units = len(self.problems) * len(MODES)
        self.done = 0
        self.rng = ctx.rng("engine-order")
        self.queue: list[tuple] = []
        self.npass = -1
        # (pass, mode) -> (candidates, seconds, scale) of each search
        self.passes: dict[tuple[int, str], list[tuple[int, float, float]]] = {}
        self.walls: dict[bool, list[float]] = {True: [], False: []}
        self.samples: list[dict] = []
        self.tops: list[tuple] = []

    def unit(self) -> None:
        from repro.engine import clear_caches
        from repro.search import search

        if not self.queue:
            self.npass += 1
            order = list(self.problems)
            self.rng.shuffle(order)
            traced = self.ctx.traced and self.npass % 2 == 0
            self.queue = [(llm, system, mode, traced)
                          for llm, system in order for mode in MODES]
        llm, system, mode, traced = self.queue.pop(0)
        self.done += 1
        ctx = self.ctx
        clear_caches()
        ctx.op()
        before = ctx.speed.before()
        t0 = perf_counter()
        try:
            res = search(llm, system, BATCH, workers=0, top_k=TOP_K,
                         keep_rates=mode == "histogram", collect_stats=traced)
        except Exception as err:  # a crash is a failed op, not a hang
            ctx.fail(f"engine search {llm.name}/{mode}: {err!r}")
            return
        t1 = perf_counter()
        scale = ctx.speed.scale(before)
        self.walls[traced].append(t1 - t0)
        self.passes.setdefault((self.npass, mode), []).append(
            (res.num_evaluated, t1 - t0, scale))
        self.tops.append((llm, system, res.top))
        if traced:
            root = ctx.recorder.add("op.engine.search", t0, t1, llm=llm.name,
                                    system=system.name, mode=mode)
            sample = _trace_op(ctx, root, llm, system, mode, res)
            sample["problem"] = (self.npass, llm.name, system.name)
            self.samples.append(sample)

    def finish(self) -> None:
        from repro.engine import evaluate

        ctx = self.ctx
        # A focus run completes its last pass, so every problem weighs the same.
        while self.queue and ctx.time_left() > 15.0:
            self.unit()
        # Answer check, outside every timed region: each winner re-evaluates
        # bit-identically through the scalar oracle.
        for llm, system, top in self.tops:
            ctx.check(bool(top), f"engine search {llm.name} found nothing")
            for strat, result in top:
                ctx.check(_flat(evaluate(llm, system, strat)) == _flat(result),
                          f"engine winner {strat.short_name()} not bit-identical")
        # A rate is candidates over seconds of one whole pass, so each pass
        # weighs every problem alike; the metric is the median over passes.
        for mode in MODES:
            runs = [r for (_, m), r in self.passes.items() if m == mode]
            whole = [r for r in runs if len(r) == len(self.problems)] or runs
            if whole:
                name = f"{mode}_cands_per_s"
                ctx.ops[name] = [sum(c for c, _, _ in r) / sum(s * k for _, s, k in r)
                                 for r in whole]
                ctx.e2e[name] = median(ctx.ops[name])
                ctx.raw[name] = median(
                    [sum(c for c, _, _ in r) / sum(s for _, s, _ in r) for r in whole])
        names = {k for s in self.samples for k in s if k not in ("mode", "problem")}
        for name in sorted(names - set(PER_PROBLEM)):
            ctx.layer(name, median([s[name] for s in self.samples if name in s]))
        by_problem: dict[tuple, dict[str, dict]] = {}
        for s in self.samples:
            by_problem.setdefault(s["problem"], {})[s["mode"]] = s
        whole = [p for p in by_problem.values() if len(p) == len(MODES)]
        for name in PER_PROBLEM:
            if whole:
                ctx.layer(name, median([sum(p[m][name] for m in MODES) for p in whole]))
        if self.focus and self.walls[True] and self.walls[False]:
            ctx.overhead["engine_search_s"] = (median(self.walls[True])
                                               - median(self.walls[False]))

    def close(self) -> None:
        pass

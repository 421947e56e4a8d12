"""serve-search: SLO-constrained serving co-design in process.

Each call searches llama2-70b deployments on h100:16 under
``SLOSpec(ttft_p95=0.35, tpot_p95=0.04)`` against uniform 512-2048-token
prompts, 64-256-token outputs and Poisson arrivals at 4 req/s x 80
requests; each call's traffic seed is derived from the workload seed.

The traced run re-runs the search's three stages through their public
functions (``candidate_plans``, ``check_plan``/``plan_bounds``/
``slo_admits``, ``simulate_plan``), checks the replica reaches the same
counts and top plans, and lays the stage times under the call's span.
"""

from __future__ import annotations

from time import perf_counter

from common import Context, median, store

LLM = "llama2-70b"
SYSTEM = "h100:16"
NUM_REQUESTS = 80
PROBE_CALLS = 3


def _workload(seed: int):
    from repro.serving import LengthDist, ServeWorkload

    return ServeWorkload(
        arrival_rate=4.0, prompt=LengthDist.uniform(512, 2048),
        output=LengthDist.uniform(64, 256), num_requests=NUM_REQUESTS, seed=seed,
    )


def _slo():
    from repro.serving import SLOSpec

    return SLOSpec(ttft_p95=0.35, tpot_p95=0.04)


def _replica(llm, system, workload, slo) -> dict:
    from repro.serving import candidate_plans, check_plan, plan_bounds
    from repro.serving import simulate_plan, slo_admits

    t = perf_counter()
    plans = candidate_plans(llm, system)
    enumerate_s = perf_counter() - t
    t = perf_counter()
    _, prompts, _ = workload.sample()
    admitted, infeasible, pruned = [], 0, 0
    for gidx, plan in enumerate(plans):
        if check_plan(llm, system, plan, workload) is not None:
            infeasible += 1
            continue
        bounds = plan_bounds(llm, system, plan, workload, prompts)
        if not slo_admits(bounds, slo):
            pruned += 1
            continue
        admitted.append((gidx, plan))
    bounds_s = perf_counter() - t
    t = perf_counter()
    ranked, simulated = [], 0
    for gidx, plan in admitted:
        try:
            stats = simulate_plan(llm, system, plan, workload, slo=slo)
        except ValueError:
            infeasible += 1
            continue
        simulated += 1
        if slo.satisfied(stats):
            ranked.append((-stats.goodput_rps, gidx, plan))
    simulate_s = perf_counter() - t
    ranked.sort(key=lambda e: (e[0], e[1]))
    return {
        "enumerate_s": enumerate_s, "bounds_s": bounds_s, "simulate_s": simulate_s,
        "plans": len(plans), "simulated": simulated, "pruned": pruned,
        "infeasible": infeasible, "ranked": [p for _, _, p in ranked],
    }


class Serving:
    """serve-search operations, one ``serve_search`` call per unit.

    The traced run alternates traced and untraced calls, starting traced.
    """

    def __init__(self, ctx: Context, focus: bool):
        from repro.io import llm_from_spec, system_from_spec
        from repro.serving import serve_search

        self.ctx, self.focus = ctx, focus
        self.llm, self.system, self.slo = llm_from_spec(LLM), system_from_spec(SYSTEM), _slo()
        self.probe_units = 1 if ctx.smoke else PROBE_CALLS
        self.done = 0
        self.seeds = ctx.rng("serve-seeds")
        self.walls: dict[bool, list[tuple[float, float]]] = {True: [], False: []}
        self.samples: list[dict] = []
        self.results = []
        # One untimed call first: the first call in a process also fills
        # caches that later calls share (without it, the first timed call
        # was above its run's median in 7 of 10 runs).
        ctx.op()
        try:
            serve_search(self.llm, self.system, _workload(self.seeds.randrange(2**31)),
                         self.slo)
        except Exception as err:
            ctx.fail(f"serve_search warm-up: {err!r}")

    def unit(self) -> None:
        from repro.serving import serve_search

        ctx = self.ctx
        traced = ctx.traced and self.done % 2 == 0
        self.done += 1
        workload = _workload(self.seeds.randrange(2**31))
        ctx.op()
        before = ctx.speed.before()
        t0 = perf_counter()
        try:
            res = serve_search(self.llm, self.system, workload, self.slo,
                               collect_stats=traced)
        except Exception as err:
            ctx.fail(f"serve_search: {err!r}")
            return
        t1 = perf_counter()
        self.walls[traced].append((t1 - t0, ctx.speed.scale(before)))
        self.results.append(res)
        if traced:
            self.samples.append(_trace_op(ctx, t0, t1, self.llm, self.system,
                                          workload, self.slo, res))

    def finish(self) -> None:
        ctx = self.ctx
        while self.done < self.probe_units and ctx.time_left() > 15.0:
            self.unit()
        for res in self.results:
            ctx.check(bool(res.top), "serve_search found no deployment")
            for plan, stats in res.top:
                ctx.check(self.slo.satisfied(stats),
                          f"serve plan {plan.short_name()} misses the SLO")
        store(ctx, "serve_search_s", self.walls[False] or self.walls[True])
        if self.samples:
            for name in self.samples[0]:
                ctx.layer(name, median([s[name] for s in self.samples]))
        if self.focus and self.walls[True] and self.walls[False]:
            ctx.overhead["serve_search_s"] = (median([s for s, _ in self.walls[True]])
                                              - median([s for s, _ in self.walls[False]]))

    def close(self) -> None:
        pass


def _trace_op(ctx: Context, t0: float, t1: float, llm, system, workload, slo,
              res) -> dict:
    rec = ctx.recorder
    root = rec.add("op.serve_search", t0, t1, llm=llm.name, system=system.name,
                   traffic_seed=workload.seed)
    rep = _replica(llm, system, workload, slo)
    for key, got in (("plans", res.num_candidates), ("simulated", res.num_simulated),
                     ("pruned", res.num_pruned), ("infeasible", res.num_infeasible)):
        ctx.check(rep[key] == got, f"serving replica {key} {rep[key]} != {got}")
    top = [p.to_dict() for p, _ in res.top]
    ctx.check([p.to_dict() for p in rep["ranked"][:len(top)]] == top,
              "serving replica top plans differ from serve_search")
    rec.lay_out(root, [
        ("serving.enumerate", rep["enumerate_s"]),
        ("serving.bounds", rep["bounds_s"]),
        ("serving.simulate", rep["simulate_s"]),
    ])
    return {
        "serving.enumerate_s": rep["enumerate_s"],
        "serving.bounds_s": rep["bounds_s"],
        "serving.simulate_s": rep["simulate_s"],
        "serving.plans": res.num_candidates,
        "serving.simulated": res.num_simulated,
        "serving.pruned": res.num_pruned,
        "serving.infeasible": res.num_infeasible,
        "serving.prune_rate": res.num_pruned / max(res.num_candidates, 1),
        "serving.sim_us_per_request": 1e6 * rep["simulate_s"]
        / max(rep["simulated"] * NUM_REQUESTS, 1),
    }

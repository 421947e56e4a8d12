"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine-sweep --seed 1 --seconds 5 --trace 0

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` and
``--trace 1`` its per-layer metrics.  The line before it carries the run's
context (host, versions, commit, seed, tracing overhead).  Full results
and the traced run's spans and ledger are written under ``perfbench/out``.

Every workload also runs a fixed, small number of the other three
workloads' operations, spread over its own ``--seconds`` of operations, so
that each result carries every metric; the named workload's numbers are
the reported per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
from time import perf_counter

import common
from common import Context, median

WORKLOADS = ("cli-search", "engine-sweep", "service-mix", "serve-search")
SETUP_SAMPLES = 4


def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = os.path.join(common.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _components(ctx: Context, clients: int):
    """Build the four components, the named workload's first."""
    import bench_cli
    import bench_engine
    import bench_service
    import bench_serving

    makers = {
        "cli-search": bench_cli.Cli,
        "engine-sweep": bench_engine.Engine,
        "service-mix": lambda c, focus: bench_service.Service(c, focus, clients),
        "serve-search": bench_serving.Serving,
    }
    for name in [ctx.workload] + [w for w in WORKLOADS if w != ctx.workload]:
        yield name, makers[name](ctx, name == ctx.workload)


def _measure(ctx: Context, comps: list, seconds: float) -> None:
    """Give the named workload ``seconds`` of its own operations.

    The other components' fixed probe units are spread evenly over that
    time rather than run in one block, so every metric samples the whole
    run: on a host whose speed drifts within seconds, a block would catch
    one phase of the drift and a spread sample averages over several.
    """
    (_, focus), probes = comps[0], comps[1:]
    broken: set[str] = set()

    def call(name: str, fn) -> None:
        if name in broken:
            return
        try:
            fn()
        except Exception as err:  # one broken component must not hide the rest
            ctx.fail(f"{name}: {err!r}")
            broken.add(name)

    focus_s = 0.0
    while ctx.time_left() > 15.0:
        share = min(focus_s / seconds, 1.0) if seconds > 0 else 1.0
        for name, comp in probes:
            while (comp.done < math.ceil(share * comp.probe_units)
                   and name not in broken and ctx.time_left() > 15.0):
                call(name, comp.unit)
        if focus.done and focus_s >= seconds or comps[0][0] in broken:
            break
        t = perf_counter()
        call(comps[0][0], focus.unit)
        focus_s += perf_counter() - t
    for name, comp in comps:
        call(name, comp.finish)


class Setup:
    """``setup_s``: workload start to ready for its first timed operation.

    That is a fresh interpreter importing ``repro.cli``, or for service-mix
    a server spawn to its first healthy ``/healthz``.  The first sample is
    taken at the start of the run; the other ``probe_units`` are spread
    through it like every other probe, so the median averages over the
    host's drift instead of catching one phase of it.  The fresh imports
    also give ``cli.import_s``; a traced service-mix run, whose samples are
    spawns, takes three imports at the start for it.  Like the CLI walls,
    the samples are subprocess times: their median is scaled by the run's
    host speed (``HostSpeed.run_scale``), not each sample by its own.
    """

    def __init__(self, ctx: Context):
        import bench_service

        self.ctx = ctx
        self.probe_units = 0 if ctx.smoke else SETUP_SAMPLES - 1
        self.done = 0
        self.walls: list[float] = []
        if ctx.workload == "service-mix":
            self.sample = lambda: bench_service.spawn_time(ctx)
            if ctx.traced:
                for _ in range(1 if ctx.smoke else 3):
                    common.fresh_import(ctx)
        else:
            self.sample = lambda: common.fresh_import(ctx)
        self._take()

    def _take(self) -> None:
        wall = self.sample()
        if wall is not None:
            self.walls.append(wall)

    def unit(self) -> None:
        self.done += 1
        self._take()

    def finish(self) -> None:
        ctx = self.ctx
        while self.done < self.probe_units and ctx.time_left() > 15.0:
            self.unit()
        if self.walls:
            ctx.ops["setup_s"] = self.walls
            ctx.raw["setup_s"] = median(self.walls)
            ctx.e2e["setup_s"] = ctx.raw["setup_s"] * ctx.speed.run_scale()
        if ctx.import_times:
            ctx.layer("cli.import_s", median(ctx.import_times))

    def close(self) -> None:
        pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal-length run for the benchmark's own tests")
    args = parser.parse_args(argv)

    spec_path = os.path.join(common.ROOT, "BENCHMARK.json")
    if not common.program_present() or not os.path.isfile(spec_path):
        sys.stderr.write(f"perfbench: no program to measure under {common.ROOT}\n")
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, common.SRC)
    os.makedirs(common.OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=common.OUT)
    traced = bool(args.trace)
    ctx = Context(workload=args.workload, seed=args.seed, traced=traced,
                  smoke=args.smoke, scratch=scratch)
    if traced:
        from ledger import Recorder

        ctx.recorder = Recorder()
    measure_s = 0.0
    try:
        setup = Setup(ctx)
        import numpy
        import repro

        comps = []
        try:
            for item in _components(ctx, min(2, os.cpu_count() or 1)):
                comps.append(item)
            comps.append(("setup", setup))
            gc.collect()
            t_measure = perf_counter()
            _measure(ctx, comps, max(args.seconds, 0.0))
            measure_s = perf_counter() - t_measure
        finally:
            for _, comp in comps:
                comp.close()
        ctx.e2e["peak_rss_mb"] = _peak_rss_mb()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed, "traced": traced,
        "seconds": args.seconds, "smoke": args.smoke,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "repro": repro.__version__, "commit": _commit(),
        "trace_overhead_s": dict(ctx.overhead), "measure_s": measure_s,
        "unscaled": dict(ctx.raw), "kernel_ref_s": common.HostSpeed.REF_S,
        "kernel_median_s": median(ctx.speed.values) if ctx.speed.values else None,
        "kernel_mean_s": common.HostSpeed.REF_S / ctx.speed.run_scale(),
        "kernel_samples": len(ctx.speed.values),
    }
    if traced:
        led = ctx.recorder.ledger()
        ctx.check(abs(sum(led["rows_s"].values()) + led["unaccounted_s"] - led["wall_s"])
                  <= 1e-6 * max(led["wall_s"], 1.0), "ledger rows do not sum to wall")
        ctx.layer("bench.ledger_wall_s", led["wall_s"])
        ctx.layer("bench.unaccounted_s", led["unaccounted_s"])
        ctx.layer("bench.unaccounted_share", led["unaccounted_s"] / max(led["wall_s"], 1e-9))
        ctx.layer("bench.trace_overhead_s", next(iter(ctx.overhead.values()), 0.0))
        info["ledger"] = led
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    source = ctx.layers if traced else ctx.e2e
    metrics, missing = {}, []
    for m in wanted:
        if m["name"] not in source:
            missing.append(m["name"])
        metrics[m["name"]] = {"value": source.get(m["name"], 0.0), "unit": m["unit"]}
    if missing:
        info["missing"] = missing
        if not traced:  # an end-to-end metric the run could not measure
            ctx.check(False, f"unmeasured end-to-end metrics: {missing}")
    info["failures"] = ctx.failures[:50]
    result = {
        "correct": not ctx.failures,
        "attempted": max(ctx.attempted, 1),
        "failed": len(ctx.failures),
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(common.OUT, f"result-{stem}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"info": info, **result, "ops": ctx.ops}, fh, indent=1)
    if traced:
        ctx.recorder.write(os.path.join(common.OUT, f"trace-{stem}.json"), info=info)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands mirror the reference tool's workflows:

* ``run``    — evaluate one (LLM, system, execution) triple and print the
               full statistics report (paper §2.4 / Fig. 3).
* ``search`` — exhaustive optimal-execution search for a fixed system
               (paper §5.1 / Fig. 6).
* ``sweep``  — optimal performance vs. system size (paper §5.2 / Fig. 7).
* ``budget`` — budgeted optimal-system search (paper §7 / Table 3).
* ``fabric`` — shard one search across a work-stealing worker cluster
               (coordinator + N workers forked from it, or ``--join URL``
               to add a worker to a remote coordinator;
               ``docs/FABRIC.md``).
* ``serve-search`` — SLO-constrained serving co-design: search colocated
               and disaggregated prefill/decode deployments under
               percentile latency targets (``docs/SERVING.md``).  Not to
               be confused with ``serve``, which runs the persistent HTTP
               *evaluation service* (``docs/SERVICE.md``).

LLMs and systems may be given as preset names (``gpt3-175b``,
``a100:4096``, ``h100:4096:80:512``) or as JSON spec files.

``run``, ``search`` and ``sweep`` accept the shared
observability flags: ``--trace FILE`` (Chrome trace_event JSON of the
pipeline stages and search chunks), ``--stats`` (per-stage rejection
counts, dedup hit rates, candidates/sec) and ``--progress`` (live
candidates/sec and ETA on stderr).  ``search``, ``sweep`` and ``serve``
additionally take ``--events FILE`` (the structured flight-recorder
journal), and ``trace`` analyzes a written trace + journal pair
(critical path, stragglers, per-worker utilization).  See
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .engine import evaluate
from .execution import ExecutionStrategy
from .hardware import System
from .io import llm_from_spec, load_strategy, system_from_spec
from .llm import LLMConfig, iter_presets
from .obs import EventJournal, MetricsRegistry, ProgressReporter, Tracer
from .obs.stats import STAGE_NAMES, stage_metric
from .search import (
    RetryPolicy,
    SearchOptions,
    budget_table,
    scaling_sweep,
    search,
)
from .viz import table


def _parse_llm(spec: str) -> LLMConfig:
    """Resolve an LLM preset name or JSON file; bad input is an error exit."""
    try:
        return llm_from_spec(spec)
    except (KeyError, TypeError, ValueError) as err:
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        raise SystemExit(f"error: {message}")


def _parse_system(spec: str) -> System:
    """Parse ``a100:<n>[:<hbm_gib>]`` / ``h100:<n>[:<hbm>[:<ddr>]]`` or a JSON path."""
    try:
        return system_from_spec(spec)
    except ValueError as err:
        raise SystemExit(f"error: {err}")


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1 (--top, --batch)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags: --trace FILE, --stats, --progress."""
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome trace_event JSON file (chrome://tracing, Perfetto)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print per-stage rejection counts, dedup hit rates and throughput",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="report live progress (candidates/sec, ETA) on stderr",
    )


def _make_obs(
    args: argparse.Namespace,
) -> tuple[Tracer | None, ProgressReporter | None]:
    tracer = Tracer() if args.trace else None
    progress = ProgressReporter(stream=sys.stderr) if args.progress else None
    return tracer, progress


def _add_events_flag(parser: argparse.ArgumentParser) -> None:
    """The flight-recorder flag shared by search, sweep and serve."""
    parser.add_argument(
        "--events", metavar="FILE", default=None,
        help="append a structured flight-recorder event journal (JSONL) to "
        "FILE; analyze it with the 'trace' subcommand",
    )


def _make_events(
    args: argparse.Namespace, source: str, tracer: Tracer | None = None
) -> EventJournal | None:
    if not getattr(args, "events", None):
        return None
    return EventJournal(
        args.events, source=source,
        trace_id=tracer.trace_id if tracer is not None else None,
    )


def _add_prune_flag(parser: argparse.ArgumentParser) -> None:
    """The bound-pruning escape hatch shared by the search-family commands."""
    parser.add_argument(
        "--no-prune", action="store_true",
        help="disable roofline bound pruning (same answer, slower; "
        "see docs/PERFORMANCE.md)",
    )


def _add_fault_flags(
    parser: argparse.ArgumentParser, *, retries: bool = True
) -> None:
    """The fault-tolerance flags shared by the long-running sweeps.

    ``retries=False`` leaves out ``--max-retries``/``--chunk-timeout`` for
    commands whose work units are not retried (``sweep``).
    """
    parser.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="journal completed chunks to FILE (JSONL) for later --resume",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip chunks already journaled in --checkpoint FILE",
    )
    parser.add_argument(
        "--deadline", type=float, metavar="SECONDS", default=None,
        help="wall-clock budget; stop cleanly at a chunk boundary when it passes",
    )
    if not retries:
        return
    parser.add_argument(
        "--max-retries", type=int, metavar="N", default=None,
        help="retries per failed chunk before it is skipped (default 2)",
    )
    parser.add_argument(
        "--chunk-timeout", type=float, metavar="SECONDS", default=None,
        help="per-chunk timeout; a hung worker chunk is killed and retried",
    )


def _fault_kwargs(args: argparse.Namespace) -> dict:
    """Translate the fault flags into search()/scaling_sweep() keywords.

    ``retry_policy`` is included only for commands that registered the
    retry flags (see :func:`_add_fault_flags`).
    """
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint FILE")
    kwargs = {
        "checkpoint": args.checkpoint,
        "resume": args.resume,
        "deadline": args.deadline,
    }
    if hasattr(args, "max_retries"):
        policy = None
        if args.max_retries is not None or args.chunk_timeout is not None:
            policy = RetryPolicy(
                max_retries=args.max_retries if args.max_retries is not None else 2,
                timeout=args.chunk_timeout,
            )
        kwargs["retry_policy"] = policy
    return kwargs


def _report_fault_outcome(stats, truncated: bool) -> None:
    if stats is not None and stats.resumed_chunks:
        sys.stderr.write(
            f"resumed {stats.resumed_chunks} chunks from the checkpoint journal\n"
        )
    if stats is not None and stats.skipped:
        ranges = ", ".join(f"[{a}, {b})" for a, b in stats.skipped)
        sys.stderr.write(
            f"warning: skipped candidate ranges after repeated failures: {ranges}\n"
        )
    if truncated:
        sys.stderr.write(
            "warning: deadline hit; results cover only the evaluated prefix\n"
        )


def _finish_trace(tracer: Tracer | None, args: argparse.Namespace) -> None:
    if tracer is not None:
        path = tracer.write(args.trace)
        sys.stderr.write(f"trace written to {path}\n")


def _options_from_name(name: str) -> SearchOptions:
    presets = {
        "baseline": SearchOptions.megatron_baseline,
        "seqpar": SearchOptions.seq_par_regime,
        "all": SearchOptions.all_optimizations,
        "all+offload": SearchOptions.all_with_offload,
    }
    try:
        return presets[name]()
    except KeyError:
        raise SystemExit(f"unknown option preset {name!r}; choose from {sorted(presets)}")


def _strategy_from_args(args: argparse.Namespace) -> ExecutionStrategy:
    """Build the execution strategy from the flags shared by run/query."""
    if args.strategy:
        return load_strategy(args.strategy)
    return ExecutionStrategy(
        tensor_par=args.tp,
        pipeline_par=args.pp,
        data_par=args.dp,
        batch=args.batch,
        microbatch=args.microbatch,
        pp_interleaving=args.interleave,
        recompute=args.recompute,
        seq_par=args.seq_par,
        tp_redo_sp=args.seq_par,
        optimizer_sharding=args.optimizer_sharding,
        dp_overlap=args.dp_overlap,
        tp_overlap=args.tp_overlap,
        fused_activations=args.fused,
        weight_offload=args.offload,
        activation_offload=args.offload,
        optimizer_offload=args.offload,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    llm = _parse_llm(args.llm)
    system = _parse_system(args.system)
    strategy = _strategy_from_args(args)
    tracer, _ = _make_obs(args)
    metrics = MetricsRegistry() if args.stats else None
    start = time.perf_counter()
    result = evaluate(llm, system, strategy, tracer=tracer, metrics=metrics)
    elapsed = time.perf_counter() - start
    _finish_trace(tracer, args)
    if metrics is not None:
        # Per-stage wall time; routed to stderr for machine formats so piped
        # CSV/JSON stays clean.
        out = sys.stdout if args.format == "text" else sys.stderr
        for stage in STAGE_NAMES:
            h = metrics.histograms.get(stage_metric(stage))
            if h is not None and h.count:
                out.write(f"stage {stage:<10} {h.total * 1e6:8.1f} us\n")
    if args.format == "csv":
        from .io import results_to_csv

        print(results_to_csv([result]), end="")
    elif args.format == "json":
        import json as _json

        from .io import result_to_flat_dict

        print(_json.dumps(result_to_flat_dict(result), indent=1))
    else:
        print(result.summary())
        print(f"(model evaluated in {elapsed * 1e3:.3f} ms)")
    return 0 if result.feasible else 1


def _cmd_search(args: argparse.Namespace) -> int:
    if getattr(args, "workload", "train") == "serve":
        # The serving co-design search shares the verb but is a different
        # machine; see the dedicated serve-search subcommand.
        return _cmd_serve_search(args)
    llm = _parse_llm(args.llm)
    system = _parse_system(args.system)
    opts = _options_from_name(args.options)
    tracer, progress = _make_obs(args)
    events = _make_events(args, "search", tracer)
    start = time.perf_counter()
    # The command only reports the top-k table, so the per-candidate rate
    # histogram is dropped (keep_rates=False) — which is also what lets
    # bound pruning engage.
    try:
        result = search(
            llm, system, args.batch, opts, top_k=args.top, workers=args.workers,
            keep_rates=False, bound_prune=not args.no_prune,
            tracer=tracer, collect_stats=args.stats, progress=progress,
            events=events,
            **_fault_kwargs(args),
        )
    finally:
        if events is not None:
            events.close()
    elapsed = time.perf_counter() - start
    _finish_trace(tracer, args)
    _report_fault_outcome(result.stats, result.truncated)
    print(
        f"evaluated {result.num_evaluated} configurations "
        f"({result.num_feasible} feasible, "
        f"{result.feasible_fraction * 100:.1f}%) in {elapsed:.1f} s"
    )
    if args.stats and result.stats is not None:
        print(result.stats.summary())
    if result.best is None:
        print("no feasible configuration")
        return 1
    rows = [
        (
            s.short_name(),
            r.sample_rate,
            r.batch_time,
            r.mfu * 100,
            r.mem1.total / 2**30,
            s.recompute,
            "sp" if s.seq_par else "-",
            "shard" if s.optimizer_sharding else "-",
        )
        for s, r in result.top
    ]
    print(
        table(
            ["config", "rate/s", "batch s", "MFU %", "HBM GiB", "recompute", "SP", "opt"],
            rows,
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    llm = _parse_llm(args.llm)
    base = _parse_system(args.system)

    def factory(n: int) -> System:
        return base.with_num_procs(n)

    sizes = list(range(args.step, args.max_size + 1, args.step))
    opts = _options_from_name(args.options)
    tracer, progress = _make_obs(args)
    events = _make_events(args, "sweep", tracer)
    try:
        curve = scaling_sweep(
            llm, factory, sizes, args.batch, opts, workers=args.workers,
            bound_prune=not args.no_prune,
            tracer=tracer, collect_stats=args.stats, progress=progress,
            events=events,
            **_fault_kwargs(args),
        )
    finally:
        if events is not None:
            events.close()
    _finish_trace(tracer, args)
    _report_fault_outcome(curve.total_stats(), curve.truncated)
    if args.stats:
        total = curve.total_stats()
        if total is not None:
            print(total.summary())
    rel = curve.relative_scaling()
    rows = [
        (p.num_procs, p.sample_rate, f"{r:.3f}", p.strategy.short_name() if p.strategy else "-")
        for p, r in zip(curve.points, rel)
    ]
    print(table(["size", "rate/s", "rel scaling", "best config"], rows))
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    llms = [_parse_llm(name) for name in args.llms.split(",")]
    rows = budget_table(
        llms,
        budget=args.budget,
        batch=args.batch,
        workers=args.workers,
    )
    out = []
    for row in rows:
        design = row[0].design
        cells: list[object] = [design.label(), f"${design.price_per_gpu / 1e3:.1f}k",
                               row[0].max_gpus]
        for entry in row:
            cells += [entry.used_gpus, round(entry.sample_rate), round(entry.perf_per_million, 1)]
        out.append(cells)
    headers = ["design", "price", "max GPUs"]
    for llm in llms:
        headers += [f"{llm.name} GPUs", "perf", "perf/$M"]
    print(table(headers, out))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    """Fit the efficiency knobs to measured runs from a JSON manifest.

    The manifest is a list of objects with ``llm`` (preset or spec path),
    ``system`` (spec string or path), ``strategy`` (inline execution dict)
    and ``measured_time`` in seconds.
    """
    import json as _json

    from .analysis import MeasuredRun, calibrate

    manifest = _json.loads(Path(args.runs).read_text())
    runs = []
    for entry in manifest:
        runs.append(
            MeasuredRun(
                llm=_parse_llm(entry["llm"]),
                system=_parse_system(entry["system"]),
                strategy=ExecutionStrategy.from_dict(entry["strategy"]),
                measured_time=float(entry["measured_time"]),
            )
        )
    result = calibrate(runs)
    print(
        f"fitted matrix plateau {result.matrix_plateau:.3f}, "
        f"HBM efficiency {result.hbm_efficiency:.3f}"
    )
    print(
        f"mean abs error {result.mean_abs_error * 100:.2f}%  "
        f"max {result.max_abs_error * 100:.2f}%"
    )
    rows = [
        (i, entry["measured_time"], round(pred, 3))
        for i, (entry, pred) in enumerate(zip(manifest, result.predictions))
    ]
    print(table(["run", "measured s", "fitted model s"], rows))
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from .analysis import sensitivity

    llm = _parse_llm(args.llm)
    system = _parse_system(args.system)
    strategy = ExecutionStrategy(
        tensor_par=args.tp,
        pipeline_par=args.pp,
        data_par=args.dp,
        batch=args.batch,
        microbatch=args.microbatch,
        recompute=args.recompute,
    )
    try:
        elasticities = sensitivity(llm, system, strategy, scale=args.scale)
    except ValueError as err:
        print(f"error: {err}")
        return 1
    rows = [
        (e.knob, f"{e.value:+.3f}", f"{e.speedup_at_2x:.2f}x")
        for e in elasticities
    ]
    print(table(["component", "elasticity", "speedup if 2x better"], rows))
    return 0


def _cmd_inference(args: argparse.Namespace) -> int:
    from .inference import InferenceStrategy, calculate_inference

    llm = _parse_llm(args.llm)
    system = _parse_system(args.system)
    strategy = InferenceStrategy(
        tensor_par=args.tp,
        pipeline_par=args.pp,
        data_par=args.dp,
        batch=args.batch,
        pipelined_requests=not args.latency_mode,
    )
    try:
        result = calculate_inference(
            llm, system, strategy, prompt_len=args.prompt,
            generate_len=args.generate,
        )
    except ValueError as err:
        print(f"error: {err}")
        return 1
    print(result.summary())
    return 0 if result.feasible else 1


def _cmd_layers(args: argparse.Namespace) -> int:
    from .core.layers_report import hottest_layers, profile_layers

    llm = _parse_llm(args.llm)
    system = _parse_system(args.system)
    strategy = ExecutionStrategy(
        tensor_par=args.tp,
        pipeline_par=args.pp,
        data_par=args.dp,
        batch=args.batch,
        microbatch=args.microbatch,
        seq_par=args.seq_par,
        tp_redo_sp=args.seq_par,
        fused_activations=args.fused,
    )
    try:
        profiles = profile_layers(llm, system, strategy)
    except ValueError as err:
        print(f"error: {err}")
        return 1
    total = sum(p.total_time for p in profiles)
    rows = [
        (
            p.name,
            p.engine,
            f"{p.fw_time * 1e6:.1f}",
            f"{p.bw_time * 1e6:.1f}",
            f"{p.total_time / total * 100:.1f}%",
            "compute" if p.fw_compute_bound else "memory",
        )
        for p in profiles
    ]
    print(table(["layer", "engine", "fw us", "bw us", "share", "bound"], rows))
    hot = hottest_layers(profiles, 3)
    print("\nhottest layers: " + ", ".join(p.name for p in hot))
    return 0


def _cmd_deployments(args: argparse.Namespace) -> int:
    from .inference import search_deployments

    llm = _parse_llm(args.llm)
    system = _parse_system(args.system)
    try:
        front = search_deployments(
            llm,
            system,
            prompt_len=args.prompt,
            generate_len=args.generate,
        )
    except ValueError as err:
        print(f"error: {err}")
        return 1
    if not front:
        print("no feasible deployment (model does not fit this pool)")
        return 1
    rows = [
        (
            p.strategy.short_name(),
            f"{p.result.prefill_time:.2f} s",
            f"{p.result.decode_step_time * 1e3:.1f} ms",
            f"{p.result.tokens_per_second:,.0f}",
            f"{p.tokens_per_second_per_proc:,.1f}",
            f"{p.result.mem_used / 2**30:.0f} GiB",
        )
        for p in front
    ]
    print(
        table(
            ["deployment", "TTFT", "per-token", "tokens/s", "tok/s/GPU", "HBM"],
            rows,
        )
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .analysis import plan_training_run

    llm = _parse_llm(args.llm)
    system = _parse_system(args.system)
    strategy = ExecutionStrategy(
        tensor_par=args.tp,
        pipeline_par=args.pp,
        data_par=args.dp,
        batch=args.batch,
        microbatch=args.microbatch,
        recompute=args.recompute,
        optimizer_sharding=True,
    )
    try:
        plan = plan_training_run(llm, system, strategy, tokens=args.tokens)
    except ValueError as err:
        print(f"error: {err}")
        return 1
    print(plan.summary())
    if args.rate != 1.0:
        print(f"  ${plan.cost(args.rate) / 1e6:.1f}M at ${args.rate}/GPU-hour")
    return 0


def _add_serve_workload_flags(parser: argparse.ArgumentParser) -> None:
    """The serving workload/SLO flags shared by serve-search and
    ``search --workload serve``."""
    parser.add_argument(
        "--rate", type=float, default=10.0, metavar="RPS",
        help="offered arrival rate in requests/second (default 10)",
    )
    parser.add_argument(
        "--prompt-len", default="2048", metavar="N|LO:HI",
        help="prompt length in tokens: fixed N or uniform LO:HI (default 2048)",
    )
    parser.add_argument(
        "--output-len", default="256", metavar="N|LO:HI",
        help="output length in tokens: fixed N or uniform LO:HI (default 256)",
    )
    parser.add_argument(
        "--requests", type=int, default=200,
        help="simulated requests per candidate plan (default 200)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload sampling seed (default 0)",
    )
    parser.add_argument(
        "--ttft-p50", type=float, default=None, metavar="SECONDS",
        help="SLO: p50 time-to-first-token ceiling",
    )
    parser.add_argument(
        "--ttft-p95", type=float, default=None, metavar="SECONDS",
        help="SLO: p95 time-to-first-token ceiling",
    )
    parser.add_argument(
        "--ttft-p99", type=float, default=None, metavar="SECONDS",
        help="SLO: p99 time-to-first-token ceiling",
    )
    parser.add_argument(
        "--tpot-p95", type=float, default=None, metavar="SECONDS",
        help="SLO: p95 per-output-token latency ceiling",
    )
    parser.add_argument(
        "--max-tensor-par", type=int, default=64,
        help="widest tensor-parallel sharding tried (default 64)",
    )
    parser.add_argument(
        "--no-disagg", action="store_true",
        help="search only colocated plans (skip disaggregated prefill/decode)",
    )
    parser.add_argument(
        "--splits", default="0.25,0.5", metavar="F1,F2,…",
        help="prefill-cluster fractions tried for disaggregated plans "
        "(default 0.25,0.5)",
    )
    parser.add_argument(
        "--serve-max-batch", type=int, default=None, metavar="N",
        help="cap the continuous-batching occupancy per decode replica",
    )


def _cmd_serve_search(args: argparse.Namespace) -> int:
    from .serving import (
        LengthDist,
        ServeSearchOptions,
        ServeWorkload,
        SLOSpec,
        serve_search,
    )

    llm = _parse_llm(args.llm)
    system = _parse_system(args.system)
    try:
        workload = ServeWorkload(
            arrival_rate=args.rate,
            prompt=LengthDist.parse(args.prompt_len),
            output=LengthDist.parse(args.output_len),
            num_requests=args.requests,
            seed=args.seed,
        )
        splits = tuple(float(s) for s in args.splits.split(",") if s.strip())
        opts = ServeSearchOptions(
            max_tensor_par=args.max_tensor_par,
            disagg=not args.no_disagg,
            splits=splits,
            max_batch=args.serve_max_batch,
        )
    except ValueError as err:
        raise SystemExit(str(err))
    slo = SLOSpec(
        ttft_p50=args.ttft_p50, ttft_p95=args.ttft_p95,
        ttft_p99=args.ttft_p99, tpot_p95=args.tpot_p95,
    )
    if not slo.constrained:
        slo = None
    tracer, progress = _make_obs(args)
    events = _make_events(args, "serve-search", tracer)
    start = time.perf_counter()
    try:
        result = serve_search(
            llm, system, workload, slo, opts,
            top_k=args.top, workers=args.workers, prune=not args.no_prune,
            tracer=tracer, collect_stats=args.stats, progress=progress,
            events=events,
            **_fault_kwargs(args),
        )
    finally:
        if events is not None:
            events.close()
    elapsed = time.perf_counter() - start
    _finish_trace(tracer, args)
    _report_fault_outcome(result.stats, result.truncated)
    print(
        f"simulated {result.num_simulated} of {result.num_candidates} plans "
        f"({result.num_pruned} SLO-bound pruned, "
        f"{result.num_infeasible} infeasible, "
        f"{result.num_violated} missed the SLO) in {elapsed:.1f} s"
    )
    if result.stats is not None:
        print(result.stats.summary())
    if not result.top:
        print(
            "no deployment meets the SLO"
            if slo is not None else "no serveable deployment"
        )
        return 1
    rows = [
        (
            plan.short_name(),
            st.goodput_rps,
            st.throughput_rps,
            st.ttft_p95 * 1e3,
            st.tpot_p95 * 1e3,
            st.mean_batch,
            st.kv_peak_bytes / 2**30,
        )
        for plan, st in result.top
    ]
    print(
        table(
            ["deployment", "goodput/s", "req/s", "TTFT p95 ms",
             "TPOT p95 ms", "batch", "KV GiB"],
            rows,
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import make_server, serve

    server = make_server(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        cache_entries=args.cache_entries,
        max_pending=args.max_pending,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        request_timeout=args.request_timeout,
        events_path=args.events,
    )
    host, port = server.server_address[0], server.port
    sys.stderr.write(
        f"repro-calculon service on http://{host}:{port} "
        f"(cache {args.cache_dir or 'memory-only'}, "
        f"{args.cache_entries} entries; SIGTERM drains gracefully)\n"
    )
    serve(server)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .search import RetryPolicy
    from .service import RequestFailed, ServiceClient, ServiceUnavailable

    client = ServiceClient(
        args.url,
        retry=RetryPolicy(
            max_retries=args.retries, backoff_base=0.1, backoff_max=2.0
        ),
        timeout=args.timeout,
    )
    strategy = _strategy_from_args(args)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            with tracer.span("query", cat="service.client", url=args.url):
                payload = client.evaluate(
                    args.llm, args.system, strategy, tracer=tracer
                )
        else:
            payload = client.evaluate(args.llm, args.system, strategy)
    except (RequestFailed, ServiceUnavailable) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    _finish_trace(tracer, args)
    flat = payload["result"]
    if args.format == "json":
        import json as _json

        print(_json.dumps(payload, indent=1))
    else:
        print(f"cache: {payload['cache']}   key: {payload['key'][:16]}…")
        if flat["feasible"]:
            print(
                f"{flat['llm']} on {flat['system']} [{flat['strategy']}]: "
                f"batch time {flat['batch_time_s']:.3f} s, "
                f"{flat['sample_rate']:.1f} samples/s, "
                f"MFU {flat['mfu'] * 100:.1f}%"
            )
        else:
            print(f"INFEASIBLE: {flat['infeasibility']}")
    return 0 if flat["feasible"] else 1


def _cmd_fabric(args: argparse.Namespace) -> int:
    from .fabric import run_fabric, run_worker

    if args.join:
        # Worker mode: join a (possibly remote) coordinator and pull leases
        # until it reports the sweep done.
        import logging

        logging.basicConfig(level=logging.INFO, stream=sys.stderr)
        done = run_worker(args.join, name=args.name)
        sys.stderr.write(f"fabric worker finished {done} chunks\n")
        return 0
    if not args.llm or not args.system:
        raise SystemExit(
            "fabric coordinator mode needs LLM and SYSTEM positionals "
            "(use --join URL for worker mode)"
        )
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint FILE")
    llm = _parse_llm(args.llm)
    system = _parse_system(args.system)
    opts = _options_from_name(args.options)
    tracer, _ = _make_obs(args)
    events = _make_events(args, "fabric", tracer)
    start = time.perf_counter()
    try:
        result = run_fabric(
            llm, system, args.batch, opts,
            workers=args.workers, top_k=args.top,
            host=args.host, port=args.port,
            lease_timeout=args.lease_timeout,
            checkpoint=args.checkpoint, resume=args.resume,
            events=events, tracer=tracer,
            timeout=args.timeout,
        )
    finally:
        if events is not None:
            events.close()
    elapsed = time.perf_counter() - start
    _finish_trace(tracer, args)
    _report_fault_outcome(result.stats, result.truncated)
    print(
        f"evaluated {result.num_evaluated} configurations "
        f"({result.num_feasible} feasible) across {args.workers} workers "
        f"in {elapsed:.1f} s"
    )
    if args.stats and result.stats is not None:
        print(result.stats.summary())
    if result.best is None:
        print("no feasible configuration")
        return 1
    rows = [
        (
            s.short_name(),
            r.sample_rate,
            r.batch_time,
            r.mfu * 100,
            r.mem1.total / 2**30,
            s.recompute,
            "sp" if s.seq_par else "-",
            "shard" if s.optimizer_sharding else "-",
        )
        for s, r in result.top
    ]
    print(
        table(
            ["config", "rate/s", "batch s", "MFU %", "HBM GiB", "recompute", "SP", "opt"],
            rows,
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.analyze import analyze_files

    try:
        report = analyze_files(args.trace_file, args.events)
    except (OSError, ValueError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text())
    return 0


def _add_strategy_flags(parser: argparse.ArgumentParser) -> None:
    """The single-configuration strategy flags shared by run and query."""
    parser.add_argument("--strategy", help="execution strategy JSON")
    parser.add_argument("--tp", type=int, default=8)
    parser.add_argument("--pp", type=int, default=8)
    parser.add_argument("--dp", type=int, default=1)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--microbatch", type=int, default=1)
    parser.add_argument("--interleave", type=int, default=1)
    parser.add_argument("--recompute", choices=("none", "attn_only", "full"),
                        default="none")
    parser.add_argument("--seq-par", action="store_true", dest="seq_par")
    parser.add_argument("--optimizer-sharding", action="store_true")
    parser.add_argument("--dp-overlap", action="store_true")
    parser.add_argument("--tp-overlap", choices=("none", "pipe", "ring"),
                        default="none")
    parser.add_argument("--fused", action="store_true")
    parser.add_argument("--offload", action="store_true")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-calculon",
        description="Analytical LLM/system codesign model (Calculon reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate one configuration")
    run.add_argument("llm", help="LLM preset name or spec JSON")
    run.add_argument("system", help="system spec (a100:<n> | h100:<n>[:hbm[:ddr]] | JSON)")
    _add_strategy_flags(run)
    run.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_obs_flags(run)
    run.set_defaults(func=_cmd_run)

    srv = sub.add_parser(
        "serve",
        help="run the persistent evaluation service (HTTP JSON API; to "
        "search serving deployments under an SLO, use serve-search)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8100,
                     help="TCP port (0 picks a free one; default 8100)")
    srv.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="disk tier of the result cache (omit for memory-only)")
    srv.add_argument("--cache-entries", type=int, default=4096,
                     help="capacity of the in-memory LRU tier (default 4096)")
    srv.add_argument("--max-pending", type=int, default=256,
                     help="dispatch backlog before 503 backpressure (default 256)")
    srv.add_argument("--batch-window", type=float, default=0.002, metavar="SECONDS",
                     help="micro-batch collection window (default 0.002)")
    srv.add_argument("--max-batch", type=int, default=64,
                     help="max evaluations per micro-batch (default 64)")
    srv.add_argument("--request-timeout", type=float, default=60.0, metavar="SECONDS")
    _add_events_flag(srv)
    srv.set_defaults(func=_cmd_serve)

    qry = sub.add_parser(
        "query", help="evaluate one configuration via a running service"
    )
    qry.add_argument("llm", help="LLM preset name or spec JSON")
    qry.add_argument("system", help="system spec (a100:<n> | h100:<n>[:hbm[:ddr]] | JSON)")
    _add_strategy_flags(qry)
    qry.add_argument("--url", default="http://127.0.0.1:8100",
                     help="service base URL (default http://127.0.0.1:8100)")
    qry.add_argument("--retries", type=int, default=3,
                     help="retry attempts on connection errors and 5xx (default 3)")
    qry.add_argument("--timeout", type=float, default=60.0, metavar="SECONDS")
    qry.add_argument("--format", choices=("text", "json"), default="text")
    qry.add_argument("--trace", metavar="FILE", default=None,
                     help="write a Chrome trace of the query including the "
                     "server's spans (needs a traced server round-trip)")
    qry.set_defaults(func=_cmd_query)

    srch = sub.add_parser("search", help="exhaustive execution search")
    srch.add_argument("llm")
    srch.add_argument("system")
    srch.add_argument("--workload", choices=("train", "serve"), default="train",
                      help="search training executions (default) or serving "
                      "deployments (equivalent to serve-search)")
    srch.add_argument("--batch", type=_positive_int, default=4096)
    srch.add_argument("--options", default="all")
    srch.add_argument("--top", type=_positive_int, default=10)
    srch.add_argument("--workers", type=int, default=None,
                      help="worker processes (default: serial; 0/1 = serial)")
    _add_serve_workload_flags(srch)
    _add_prune_flag(srch)
    _add_obs_flags(srch)
    _add_events_flag(srch)
    _add_fault_flags(srch)
    srch.set_defaults(func=_cmd_search)

    ssrch = sub.add_parser(
        "serve-search",
        help="SLO-constrained serving co-design: search colocated and "
        "disaggregated prefill/decode deployments (the deployment-space "
        "twin of 'search'; 'serve' runs the HTTP evaluation service)",
    )
    ssrch.add_argument("llm")
    ssrch.add_argument("system")
    ssrch.add_argument("--top", type=int, default=5)
    ssrch.add_argument("--workers", type=int, default=None,
                       help="worker processes simulating chunks of plans "
                       "(default: serial; 0/1 = serial)")
    _add_serve_workload_flags(ssrch)
    _add_prune_flag(ssrch)
    _add_obs_flags(ssrch)
    _add_events_flag(ssrch)
    _add_fault_flags(ssrch)
    ssrch.set_defaults(func=_cmd_serve_search)

    swp = sub.add_parser("sweep", help="optimal performance vs system size")
    swp.add_argument("llm")
    swp.add_argument("system")
    swp.add_argument("--batch", type=_positive_int, default=4096)
    swp.add_argument("--max-size", type=int, default=8192)
    swp.add_argument("--step", type=int, default=512)
    swp.add_argument("--options", default="all")
    swp.add_argument("--workers", type=int, default=None,
                     help="processes per inner search (default: serial; "
                     "0/1 = serial)")
    _add_prune_flag(swp)
    _add_obs_flags(swp)
    _add_events_flag(swp)
    _add_fault_flags(swp, retries=False)
    swp.set_defaults(func=_cmd_sweep)

    fab = sub.add_parser(
        "fabric",
        help="distributed search fabric: shard one search across worker "
        "processes behind a work-stealing coordinator",
    )
    fab.add_argument("llm", nargs="?", help="LLM preset (coordinator mode)")
    fab.add_argument("system", nargs="?", help="system spec (coordinator mode)")
    fab.add_argument("--join", metavar="URL", default=None,
                     help="worker mode: join the coordinator at URL and pull "
                     "chunk leases until the sweep is done")
    fab.add_argument("--name", default=None,
                     help="worker name shown in /metrics and events (worker mode)")
    fab.add_argument("--batch", type=int, default=4096)
    fab.add_argument("--options", default="all")
    fab.add_argument("--top", type=int, default=10)
    fab.add_argument("--workers", type=int, default=4,
                     help="local worker processes, forked from the coordinator "
                     "(default 4)")
    fab.add_argument("--host", default="127.0.0.1")
    fab.add_argument("--port", type=int, default=0,
                     help="coordinator TCP port (0 picks a free one)")
    fab.add_argument("--lease-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="lease expiry before a chunk is re-issued (default 30)")
    fab.add_argument("--timeout", type=float, default=600.0, metavar="SECONDS",
                     help="overall sweep deadline (default 600)")
    fab.add_argument("--checkpoint", metavar="FILE", default=None,
                     help="journal merged chunks to FILE for later --resume")
    fab.add_argument("--resume", action="store_true",
                     help="fold chunks already journaled in --checkpoint FILE")
    _add_obs_flags(fab)
    _add_events_flag(fab)
    fab.set_defaults(func=_cmd_fabric)

    trc = sub.add_parser(
        "trace", help="analyze a Chrome trace + flight-recorder journal"
    )
    trc.add_argument("trace_file", help="Chrome trace JSON written by --trace")
    trc.add_argument("--events", metavar="FILE", default=None,
                     help="flight-recorder journal written by --events")
    trc.add_argument("--json", action="store_true",
                     help="emit the report as JSON instead of text")
    trc.set_defaults(func=_cmd_trace)

    bud = sub.add_parser("budget", help="budgeted optimal-system search")
    bud.add_argument("--llms", default="gpt3-175b,turing-530b,megatron-1t")
    bud.add_argument("--budget", type=float, default=125e6)
    bud.add_argument("--batch", type=int, default=4096)
    bud.add_argument("--workers", type=int, default=0)
    bud.set_defaults(func=_cmd_budget)

    cal = sub.add_parser("calibrate",
                         help="fit efficiency knobs to measured runs")
    cal.add_argument("runs", help="JSON manifest of measured runs")
    cal.set_defaults(func=_cmd_calibrate)

    sens = sub.add_parser("sensitivity", help="hardware elasticity analysis")
    sens.add_argument("llm")
    sens.add_argument("system")
    sens.add_argument("--tp", type=int, default=8)
    sens.add_argument("--pp", type=int, default=8)
    sens.add_argument("--dp", type=int, default=1)
    sens.add_argument("--batch", type=int, default=64)
    sens.add_argument("--microbatch", type=int, default=1)
    sens.add_argument("--recompute", choices=("none", "attn_only", "full"),
                      default="full")
    sens.add_argument("--scale", type=float, default=1.25)
    sens.set_defaults(func=_cmd_sensitivity)

    inf = sub.add_parser("inference", help="serving latency/throughput estimate")
    inf.add_argument("llm")
    inf.add_argument("system")
    inf.add_argument("--tp", type=int, default=8)
    inf.add_argument("--pp", type=int, default=1)
    inf.add_argument("--dp", type=int, default=1)
    inf.add_argument("--batch", type=int, default=8)
    inf.add_argument("--prompt", type=int, default=2048)
    inf.add_argument("--generate", type=int, default=256)
    inf.add_argument("--latency-mode", action="store_true",
                     help="single batch in flight (no request pipelining)")
    inf.set_defaults(func=_cmd_inference)

    lay = sub.add_parser("layers", help="per-layer profile of one block")
    lay.add_argument("llm")
    lay.add_argument("system")
    lay.add_argument("--tp", type=int, default=8)
    lay.add_argument("--pp", type=int, default=8)
    lay.add_argument("--dp", type=int, default=1)
    lay.add_argument("--batch", type=int, default=64)
    lay.add_argument("--microbatch", type=int, default=1)
    lay.add_argument("--seq-par", action="store_true", dest="seq_par")
    lay.add_argument("--fused", action="store_true")
    lay.set_defaults(func=_cmd_layers)

    dep = sub.add_parser("deployments",
                         help="latency/throughput Pareto front for serving")
    dep.add_argument("llm")
    dep.add_argument("system")
    dep.add_argument("--prompt", type=int, default=2048)
    dep.add_argument("--generate", type=int, default=256)
    dep.set_defaults(func=_cmd_deployments)

    pln = sub.add_parser("plan", help="project a full training campaign")
    pln.add_argument("llm")
    pln.add_argument("system")
    pln.add_argument("--tokens", type=float, default=450e9)
    pln.add_argument("--tp", type=int, default=8)
    pln.add_argument("--pp", type=int, default=8)
    pln.add_argument("--dp", type=int, default=1)
    pln.add_argument("--batch", type=int, default=64)
    pln.add_argument("--microbatch", type=int, default=1)
    pln.add_argument("--recompute", choices=("none", "attn_only", "full"),
                     default="full")
    pln.add_argument("--rate", type=float, default=1.0,
                     help="dollars per GPU-hour for the cost estimate")
    pln.set_defaults(func=_cmd_plan)

    lst = sub.add_parser("presets", help="list LLM presets")
    lst.set_defaults(
        func=lambda a: (
            [
                print(
                    f"{m.name:<16} hidden={m.hidden:<6} heads={m.attn_heads:<4} "
                    f"blocks={m.num_blocks:<4} params={m.total_parameters / 1e9:.1f}B"
                )
                for m in iter_presets()
            ],
            0,
        )[1]
    )

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

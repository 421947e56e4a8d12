"""Benchmark-trend gate: fail CI when the engine benchmark record regresses.

The observability job regenerates ``BENCH_engine.json`` in the working tree
(the pruning and columnar benchmarks each merge their key group); this
script then compares the fresh record against the committed baseline
(``git show <ref>:BENCH_engine.json``) with two kinds of gate:

* **Work counters, exact, on every host.**  ``adaptive_evaluated_full``
  (candidates the adaptive search fully priced) and ``adaptive_tiles``
  (best-bound-first tiles it ran) are deterministic for a fixed engine, so
  the gate fails when either rises above the committed value at all.  They
  do not depend on the scheduler, so single-core hosts gate them too.
* **Speedup ratios, with a tolerance, on multi-core hosts.**
  ``columnar_speedup`` is a same-process ratio, meaningful across runner
  generations in a way absolute seconds are not — but still scheduler noise
  on a single-core host.  The ratio gate therefore skips hosts with fewer
  than 2 cores and keys whose *fresh* group was measured on fewer than 2
  cores (``merge_bench`` tags every group with ``{group}_bench_cores``).

A key present in the baseline but missing from the fresh record fails
either gate — a silently dropped benchmark must not pass.

Run from the repository root:  python .github/ci_bench_trend.py
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# Deterministic work counters: may never rise above the committed value.
COUNTER_KEYS = ("adaptive_evaluated_full", "adaptive_tiles")
# key -> the merge_bench group whose core tag qualifies its measurement
GATED_KEYS = {
    "columnar_speedup": "columnar",
}
DEFAULT_TOLERANCE = 0.25


def _counter_failures(fresh: dict, baseline: dict) -> list[str]:
    failures = []
    for key in COUNTER_KEYS:
        base = baseline.get(key)
        if base is None:
            print(f"[bench-trend] {key}: not in baseline (new metric), skipped")
            continue
        cur = fresh.get(key)
        if cur is None:
            failures.append(
                f"{key}: baseline {base} but missing from the fresh record — "
                "the benchmark silently stopped reporting it"
            )
            continue
        ok = cur <= base
        print(f"[bench-trend] {key}: baseline {base} -> fresh {cur} "
              f"{'OK' if ok else 'REGRESSION'}")
        if not ok:
            failures.append(f"{key} rose from {base} to {cur}")
    return failures


def _speedup_failures(fresh: dict, baseline: dict, tolerance: float) -> list[str]:
    host_cores = os.cpu_count() or 1
    if host_cores < 2:
        print(f"[bench-trend] single-core host ({host_cores} core): "
              "speedup trends are scheduler noise here — skipping ratio gate")
        return []
    failures = []
    for key, group in GATED_KEYS.items():
        base = baseline.get(key)
        if base is None:
            print(f"[bench-trend] {key}: not in baseline (new metric), skipped")
            continue
        fresh_cores = int(fresh.get(f"{group}_bench_cores") or 0)
        if 0 < fresh_cores < 2:
            # merge_bench either refused the merge or tagged a single-core
            # measurement; either way the fresh number can't gate a trend.
            print(f"[bench-trend] {key}: fresh {group} group measured on "
                  f"{fresh_cores} core, skipped")
            continue
        cur = fresh.get(key)
        if cur is None:
            failures.append(
                f"{key}: baseline {base:.2f}x but missing from the fresh "
                "record — the benchmark silently stopped reporting it"
            )
            continue
        floor = base * (1.0 - tolerance)
        ok = cur >= floor
        print(f"[bench-trend] {key}: baseline {base:.2f}x -> fresh "
              f"{cur:.2f}x (floor {floor:.2f}x) "
              f"{'OK' if ok else 'REGRESSION'}")
        if not ok:
            failures.append(
                f"{key} regressed {1.0 - cur / base:.0%}: "
                f"{base:.2f}x -> {cur:.2f}x (tolerance {tolerance:.0%})"
            )
    return failures


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", default="BENCH_engine.json",
                    help="freshly regenerated benchmark record")
    ap.add_argument("--baseline-ref", default="HEAD",
                    help="git ref holding the committed baseline record")
    ap.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                    help="allowed fractional drop before failing (0.25 = 25%%)")
    args = ap.parse_args(argv)

    record_path = Path(args.record)
    if not record_path.exists():
        print(f"::error::[bench-trend] {record_path} was not regenerated "
              "before the gate ran", file=sys.stderr)
        return 1
    fresh = json.loads(record_path.read_text())

    proc = subprocess.run(
        ["git", "show", f"{args.baseline_ref}:{args.record}"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(f"[bench-trend] no committed {args.record} at "
              f"{args.baseline_ref} — first run, nothing to compare")
        return 0
    baseline = json.loads(proc.stdout)

    failures = _counter_failures(fresh, baseline)
    failures += _speedup_failures(fresh, baseline, args.tolerance)
    for failure in failures:
        print(f"::error::[bench-trend] {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

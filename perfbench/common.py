"""Shared plumbing: paths, the run context, subprocess control, statistics."""

from __future__ import annotations

import math
import os
import random
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ledger import Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# A run must end within 180 s whatever the host does; no operation starts
# once less than this margin of the hard limit is left.
RUN_LIMIT_S = 165.0


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env() -> dict[str, str]:
    """Environment for program subprocesses: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _kernel() -> None:
    """Fixed work that runs no ``repro`` code: interpreter plus NumPy.

    Each vCPU of the 2-vCPU VM the benchmark was built on flips between a
    fast state and one about 1.5x slower, independently and within seconds
    (as when a sibling hyperthread gets busy).  Interpreter-heavy code slows
    more than NumPy-heavy code; this mix slows about as much as the
    program's operations do.
    """
    d: dict[int, float] = {}
    for i in range(12000):
        k = i % 977
        d[k] = d.get(k, 0.0) + i * 0.5
    sorted(range(6000), key=lambda x: -x)
    [str(i) for i in range(2000)]
    a = np.arange(60000, dtype=np.float64)
    for _ in range(8):
        a = np.sqrt(a * 1.0001 + 1.0)
    np.argsort(np.arange(30000) % 977, kind="stable")


class HostSpeed:
    """Speed of the benchmark process's vCPU, from the median of three kernel runs.

    An operation that runs in the benchmark process (or, for the service
    loop, alternates with its client threads) is scaled by ``REF_S`` over
    the mean of the samples taken just before and just after it, giving its
    time on a host where the kernel takes ``REF_S`` (about the median on
    the VM above).  A program change moves the scaled time as it moves the
    raw one, since the kernel runs no ``repro`` code; the host's drift
    largely cancels.  A subprocess runs on whichever vCPU is free, and
    samples around it do not track it; but stretches of a minute or more in
    which both vCPUs stay slow move subprocess times too, so their run
    medians are scaled by ``run_scale``.
    """

    REF_S = 0.0055
    REUSE_S = 0.05  # a sample this fresh stands for "just before"

    def __init__(self) -> None:
        self.values: list[float] = []
        self._last: tuple[float, float] | None = None  # (taken at, value)
        _kernel()  # first-call costs stay out of the samples

    def sample(self) -> float:
        runs = []
        for _ in range(3):
            t = perf_counter()
            _kernel()
            runs.append(perf_counter() - t)
        value = median(runs)
        self.values.append(value)
        self._last = (perf_counter(), value)
        return value

    def before(self) -> float:
        if self._last is not None and perf_counter() - self._last[0] < self.REUSE_S:
            return self._last[1]
        return self.sample()

    def scale(self, before: float) -> float:
        """Factor for an operation that began after ``before`` and just ended."""
        return self.REF_S / ((before + self.sample()) / 2.0)

    def run_scale(self) -> float:
        """Factor for the run as a whole: ``REF_S`` over the mean sample so far."""
        return self.REF_S * len(self.values) / sum(self.values) if self.values else 1.0


@dataclass
class Context:
    """Everything one benchmark run shares across its components."""

    workload: str
    seed: int
    traced: bool
    smoke: bool
    scratch: str
    t_start: float = field(default_factory=perf_counter)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    recorder: Recorder | None = None
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    overhead: dict[str, float] = field(default_factory=dict)
    import_times: list[float] = field(default_factory=list)
    raw: dict[str, float] = field(default_factory=dict)  # e2e timings unscaled
    ops: dict[str, list[float]] = field(default_factory=dict)  # e2e per-op values
    speed: HostSpeed = field(default_factory=HostSpeed)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def rng(self, salt: str) -> random.Random:
        """An independent seeded stream per purpose, stable across edits."""
        return random.Random(f"{self.seed}:{salt}")

    def time_left(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self.t_start)

    def op(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, what: str) -> None:
        with self._lock:
            self.failures.append(what)

    def layer(self, name: str, value: float) -> None:
        """Record a per-layer metric; the first component to report it wins.

        The focus component runs first, so on its own workload its numbers
        are the ones reported.
        """
        self.layers.setdefault(name, float(value))

    def check(self, ok: bool, what: str) -> None:
        """An answer check: counts as one attempted op, failed on mismatch."""
        self.op()
        if not ok:
            self.fail(f"check: {what}")

    def import_s(self) -> float:
        """Median ``import repro.cli`` time of the fresh interpreters so far."""
        return median(self.import_times) if self.import_times else 0.0


@dataclass
class ProcResult:
    returncode: int | None  # None: timed out and killed
    stdout: str
    stderr: str
    start: float
    end: float
    first_line: float | None  # when the first stdout line arrived

    @property
    def wall(self) -> float:
        return self.end - self.start


def run_proc(argv: list[str], timeout: float, env: dict[str, str]) -> ProcResult:
    """Run a program process to completion under a deadline.

    Stdout is read line by line so the arrival of the first line can be
    timed (with ``PYTHONUNBUFFERED`` set it marks the end of the program's
    work and the start of its report).  The child leads its own process
    group; on timeout the whole group is killed and reaped, so workers a
    program spawned never outlive the run.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    err_chunks: list[str] = []
    reader = threading.Thread(target=lambda: err_chunks.append(proc.stderr.read()),
                              daemon=True)
    reader.start()
    lines: list[str] = []
    first: list[float] = []
    killed: list[bool] = []

    def on_timeout() -> None:
        killed.append(True)
        _kill_group(proc)

    timer = threading.Timer(max(timeout, 0.0), on_timeout)
    timer.start()
    try:
        for line in proc.stdout:
            if not first:
                first.append(perf_counter())
            lines.append(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            _kill_group(proc)
            proc.wait()
        reader.join(timeout=5.0)
        proc.stdout.close()
        proc.stderr.close()
    end = perf_counter()
    return ProcResult(
        None if killed else proc.returncode, "".join(lines),
        "".join(err_chunks), start, end, first[0] if first else None,
    )


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def median(values: list[float]) -> float:
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no values")
    n = len(vals)
    mid = n // 2
    return vals[mid] if n % 2 else (vals[mid - 1] + vals[mid]) / 2.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of no values")
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def fresh_import(ctx: Context) -> float | None:
    """Wall of one fresh interpreter importing ``repro.cli``, or None on failure.

    The import alone, timed inside the interpreter, goes to
    ``ctx.import_times``.
    """
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    ctx.op()
    r = run_proc([sys.executable, "-c", code], timeout=min(60.0, ctx.time_left()),
                 env=child_env())
    if r.returncode != 0:
        ctx.fail(f"import repro.cli exited {r.returncode}: {r.stderr[-200:]}")
        return None
    ctx.import_times.append(float(r.stdout.strip().splitlines()[-1]))
    return r.wall


def store(ctx: Context, name: str, samples: list[tuple[float, float]]) -> None:
    """Record the median scaled time of ``(seconds, scale)`` samples, if any.

    The median of the raw seconds goes to ``ctx.raw`` beside it.
    """
    if samples:
        ctx.ops[name] = [s * k for s, k in samples]
        ctx.e2e[name] = median(ctx.ops[name])
        ctx.raw[name] = median([s for s, _ in samples])


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))

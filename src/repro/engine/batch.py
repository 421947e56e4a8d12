"""Columnar (struct-of-arrays) evaluation core: the staged engine over NumPy.

The scalar pipeline in :mod:`repro.engine.stages` evaluates one candidate per
Python call; at sweep scale (10^5..10^6 candidates) interpreter dispatch
around the closed-form arithmetic dominates the wall clock.  This module runs
the same five stages over a whole batch of candidates at once::

    batch_validate -> batch_profile -> batch_memory -> batch_comm -> batch_assemble

with one parallel NumPy float64/int64 array per scalar the pipeline carries
(t/p/d/v/M, blocks-per-stage, every per-stage output) and infeasibility
carried as mask updates instead of early returns.

Bit-exactness contract
----------------------
The scalar pipeline stays the oracle: for any candidate list the columnar
path produces results **bit-identical** to :func:`repro.engine.evaluate`
mapped over the list, because both compute through the same formulas.
Every per-layer and per-stage formula lives once in its scalar home
(:mod:`repro.llm.layers`, :mod:`repro.llm.blocks`,
:mod:`repro.engine.profile`, :mod:`repro.engine.stages`,
:mod:`repro.engine.bounds`), written with ``+ - * /`` and the helpers of
:mod:`repro.arith`, and this module calls those functions on columns.
NumPy elementwise float64 ops round exactly like CPython floats, and the
helpers give Python's ``x if c else y``, ``max``/``min`` and ``sum()`` on
every lane.  What NumPy does not promise to round like libm stays a call
into the one scalar kernel per distinct argument, with the Python values
the scalar pipeline passes: the efficiency-curve ``log10``, the memory
small-access ``log2`` ramp, collective times and network choice
(:func:`_per_value`), and the cached comm kernels
(:func:`~repro.engine.stages.pp_p2p_time`,
:func:`~repro.engine.stages.dp_collectives`,
:func:`~repro.engine.stages.optim_step_time`, via :func:`_call_keyed`).

Candidates are factorized into profile groups and memory buckets (numbered
in first-seen order), every group's block profile is computed in one
vectorized pass, the memory plan and roofline bound are computed once
per bucket, and result objects are materialized only for survivors —
every candidate of a capacity-rejected bucket shares one frozen result.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from functools import partial
from time import perf_counter
from typing import Iterator, Sequence

import numpy as np

NUMPY_MIN_VERSION = (1, 24)


def check_numpy_version(version: str | None = None) -> None:
    """Raise ``ImportError`` when ``version`` is older than NumPy 1.24.

    Runs at import time with the installed ``numpy.__version__`` so the
    columnar engine fails with a clear message instead of a cryptic dtype or
    ufunc error deep inside a sweep.
    """
    v = np.__version__ if version is None else version
    floor = ".".join(str(x) for x in NUMPY_MIN_VERSION)
    if np.lib.NumpyVersion(v) < floor + ".0":
        raise ImportError(
            f"repro.engine.batch requires NumPy >= {floor} (found {v}); "
            "upgrade NumPy"
        )


check_numpy_version()

from ..core.results import (  # noqa: E402
    MemoryBreakdown,
    OffloadStats,
    PerformanceResult,
    TimeBreakdown,
    sample_rate,
)
from ..execution.strategy import ExecutionStrategy, StrategyError  # noqa: E402
from ..hardware.system import System  # noqa: E402
from ..arith import total  # noqa: E402
from ..core.flops import OpTime, roofline  # noqa: E402
from ..llm.blocks import TransformerBlock, block_layers, tp_schedule  # noqa: E402
from ..llm.config import LLMConfig  # noqa: E402
from ..llm.layers import Engine  # noqa: E402
from ..obs import MetricsRegistry  # noqa: E402
from ..obs.stats import (  # noqa: E402
    M_BOUND_EVALS,
    M_BOUND_PRUNED,
    M_BOUND_SKIPPED_BUCKETS,
    M_BOUND_TILES,
    M_BUCKET_HITS,
    M_CANDIDATES,
    M_COLUMNAR_BATCHES,
    M_COLUMNAR_CANDIDATES,
    M_EVALUATED_FULL,
    M_MEMORY_BUCKETS,
    M_PROFILE_GROUPS,
    M_REJECT_MEMORY,
    M_REJECT_VALIDATE,
    M_SHARED_INFEASIBLE,
    stage_metric,
)
from .bounds import (  # noqa: E402
    batch_lower_bounds,
    strict_prune_threshold_for_rate,
)
from .context import MemoryPlan  # noqa: E402
from .profile import block_base, profile_from_base  # noqa: E402
from .stages import (  # noqa: E402
    TP_OVERLAP_WINDOW,
    assemble_times,
    block_factors,
    capacity_error,
    dp_collectives,
    dp_exposure,
    memory_plan,
    model_flops_utilization,
    offload_exposure,
    optim_step_time,
    optim_traffic,
    pp_exposure,
    pp_p2p_time,
    tp_exposure_terms,
)

_M_VALIDATE = stage_metric("validate")
_M_PROFILE = stage_metric("profile")
_M_MEMORY = stage_metric("memory")
_M_BOUND = stage_metric("bound")
_M_COMM = stage_metric("comm")
_M_ASSEMBLE = stage_metric("assemble")

# Categorical strategy fields, encoded as small ints; an unknown value
# encodes as -1 and fails batch_validate (ExecutionStrategy itself rejects
# unknown names when it is built).
RECOMPUTE_NAMES = ("none", "attn_only", "full")
TP_OVERLAP_NAMES = ("none", "pipe", "ring")
TP_MODE_NAMES = ("1d", "2d")
_N_TPO = len(TP_OVERLAP_NAMES)
_RECOMPUTE_CODES = {name: i for i, name in enumerate(RECOMPUTE_NAMES)}
_TP_OVERLAP_CODES = {name: i for i, name in enumerate(TP_OVERLAP_NAMES)}
_TP_MODE_CODES = {name: i for i, name in enumerate(TP_MODE_NAMES)}

# Column name -> ExecutionStrategy field, in the strategy's declared order.
COLUMN_FIELDS = (
    ("t", "tensor_par"),
    ("p", "pipeline_par"),
    ("d", "data_par"),
    ("batch", "batch"),
    ("m", "microbatch"),
    ("v", "pp_interleaving"),
    ("f1b", "pp_1f1b"),
    ("rs_ag", "pp_rs_ag"),
    ("sp", "seq_par"),
    ("redo", "tp_redo_sp"),
    ("tpm", "tp_mode"),
    ("tpo", "tp_overlap"),
    ("dpo", "dp_overlap"),
    ("osh", "optimizer_sharding"),
    ("rc", "recompute"),
    ("fus", "fused_activations"),
    ("w_off", "weight_offload"),
    ("a_off", "activation_offload"),
    ("o_off", "optimizer_offload"),
    ("training", "training"),
)
COLUMN_NAMES = tuple(name for name, _field in COLUMN_FIELDS)
_CODE_MAPS = {"tpm": _TP_MODE_CODES, "tpo": _TP_OVERLAP_CODES, "rc": _RECOMPUTE_CODES}
_NAME_TABLES = {"tpm": TP_MODE_NAMES, "tpo": TP_OVERLAP_NAMES, "rc": RECOMPUTE_NAMES}
_BOOL_FIELDS = frozenset(
    f.name for f in fields(ExecutionStrategy) if f.type == "bool"
)

# Candidate columns that key a profile group, in profile_key order.
_GROUP_KEYS = ("m", "t", "sp", "fus", "redo", "rc", "tpm")
# Candidate columns that refine a profile group into a memory bucket.
_BUCKET_KEYS = ("p", "d", "batch", "v", "f1b", "osh",
                "w_off", "a_off", "o_off", "training")

# BlockProfile fields held as per-group float columns.
_PROF_FIELDS = (
    "fw_time", "bw_time", "recompute_time", "fw_hbm_idle", "bw_hbm_idle",
    "flops_fw", "flops_bw", "weight_bytes", "weight_grad_bytes",
    "optimizer_bytes", "stash_bytes", "act_grad_bytes",
    "tp_fw_comm", "tp_bw_comm", "tp_recompute_comm",
)

_ZERO_OFFLOAD = OffloadStats()


def columns_from_strategies(
    strategies: Sequence[ExecutionStrategy],
) -> dict[str, np.ndarray]:
    """Transpose a strategy list into int64 columns (struct-of-arrays)."""
    if not strategies:
        return {name: np.empty(0, dtype=np.int64) for name in COLUMN_NAMES}
    from operator import attrgetter

    getter = attrgetter(*(field for _name, field in COLUMN_FIELDS))
    rows = [getter(s) for s in strategies]
    out: dict[str, np.ndarray] = {}
    for name, col in zip(COLUMN_NAMES, zip(*rows)):
        codes = _CODE_MAPS.get(name)
        if codes is not None:
            col = [codes.get(x, -1) for x in col]
        out[name] = np.asarray(col, dtype=np.int64)
    return out


def _factorize(cols: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids for the distinct rows of ``cols``, in first-seen order.

    Returns ``(ids, firsts)``: per-row group id in ``[0, G)`` numbered by
    first occurrence, and for each id the row index of its first member.
    Columns are packed into one int64 code per row — constant columns are
    skipped, small non-negative value ranges are used directly as digits
    (no ``np.unique`` pass), wide ranges fall back to rank coding, and the
    running code is re-compacted whenever the next digit could overflow 63
    bits.  Rows are then grouped by a stable sort of the code — a 16-bit
    radix sort while the code's cardinality fits one or two 16-bit digits —
    so each code's first member is its smallest row index; ranking those
    first rows numbers the codes by first occurrence.
    """
    n = int(cols[0].shape[0])
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    code = None
    card = 1
    for col in cols:
        cmin = int(col.min())
        k = int(col.max()) - cmin + 1  # Python ints: no int64 wrap-around
        if k == 1:
            continue
        if k > 1 << 20:
            _, col = np.unique(col, return_inverse=True)
            col = col.ravel()
            k = int(col.max()) + 1
            cmin = 0
        if code is None:
            code = col - cmin if cmin else col.astype(np.int64)
        else:
            if card > (1 << 62) // k:
                _, code = np.unique(code, return_inverse=True)
                code = code.ravel()
                card = int(code.max()) + 1
            # In place; an int64 wrap-around in ``+= col`` is undone by
            # ``-= cmin``, as the digit itself lies in [0, k).
            code *= k
            code += col
            if cmin:
                code -= cmin
        card *= k
    if code is None:
        return np.zeros(n, dtype=np.int64), np.zeros(1, dtype=np.int64)
    perm = _stable_argsort(code, card)
    sorted_code = code[perm]
    head = np.empty(n, dtype=bool)  # sorted position starts a new code
    head[0] = True
    np.not_equal(sorted_code[1:], sorted_code[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    code_first = perm[starts]  # each code's first row, in code order
    is_first = np.zeros(n, dtype=bool)
    is_first[code_first] = True
    firsts = np.flatnonzero(is_first)
    rank = np.empty(n, dtype=np.int64)
    rank[firsts] = np.arange(firsts.shape[0], dtype=np.int64)
    ids = np.empty(n, dtype=np.int64)
    ids[perm] = np.repeat(rank[code_first], np.diff(starts, append=n))
    return ids, firsts


def _stable_argsort(code: np.ndarray, card: int) -> np.ndarray:
    """Stable argsort of non-negative ``code`` values below ``card``.

    NumPy's stable sort is a radix sort for 16-bit keys, so codes of up to
    two 16-bit digits sort as one or two least-significant-digit passes;
    wider codes take NumPy's int64 stable sort.
    """
    if card <= 1 << 16:
        return np.argsort(code.astype(np.uint16), kind="stable")
    if card <= 1 << 32:
        perm = np.argsort(code.astype(np.uint16), kind="stable")
        high = (code[perm] >> 16).astype(np.uint16)
        return perm[np.argsort(high, kind="stable")]
    return np.argsort(code, kind="stable")


# Columns a product-form row takes from its prefix row; the others come
# from its option row.
PREFIX_NAMES = ("t", "p", "d", "batch", "m", "v", "tpm", "training")


@dataclass(frozen=True)
class ProductForm:
    """Candidate rows ``[lo, hi)`` of a space as (prefix row, option row) pairs.

    ``prefix`` holds the :data:`PREFIX_NAMES` columns, one row per distinct
    prefix; ``options`` the remaining columns, one row per option
    combination.  Prefix ``j`` owns the space's rows ``[start[j],
    start[j + 1])``, which pair it with the ascending option rows of
    ``lists[prefix_list[j]]`` in order.  ``prefix_idx``/``option_idx`` give
    each row of ``[lo, hi)`` its pair, so column ``name`` of that range is
    ``prefix[name][prefix_idx]`` or ``options[name][option_idx]``.  Prefix
    rows are distinct, so no two prefixes share a memory bucket.
    """

    prefix: dict[str, np.ndarray]
    options: dict[str, np.ndarray]
    lists: tuple[np.ndarray, ...]
    prefix_list: np.ndarray
    start: np.ndarray
    prefix_idx: np.ndarray
    option_idx: np.ndarray
    lo: int
    hi: int

    def rows(self, lo: int, hi: int) -> "ProductForm":
        """The form of rows ``[lo, hi)`` of this range (clipped to it, as a
        slice is); tables are shared."""
        n = self.prefix_idx.shape[0]
        lo = min(max(lo, 0), n)
        hi = min(max(hi, lo), n)
        return replace(
            self,
            prefix_idx=self.prefix_idx[lo:hi],
            option_idx=self.option_idx[lo:hi],
            lo=self.lo + lo,
            hi=self.lo + hi,
        )


class ProductColumns(dict):
    """Candidate columns (name -> int64 array) that keep their product form.

    A plain ``dict`` of the :data:`COLUMN_NAMES` columns; ``product`` is the
    :class:`ProductForm` of the same rows, which
    :meth:`EvalBatch.from_columns` uses to key validity, profile groups
    and memory buckets on the small tables instead of per row.
    """

    def __init__(self, cols: dict[str, np.ndarray], product: ProductForm):
        super().__init__(cols)
        self.product = product

    def rows(self, lo: int, hi: int) -> "ProductColumns":
        """Rows ``[lo, hi)``: sliced columns with their sliced form."""
        return ProductColumns(
            {name: arr[lo:hi] for name, arr in self.items()},
            self.product.rows(lo, hi),
        )


class EvalBatch:
    """Struct-of-arrays state for one columnar evaluation.

    Like :class:`~repro.engine.context.EvalContext`, an ``EvalBatch`` starts
    with the inputs and each batch stage fills in its own output block — but
    every field is an array over all candidates (``valid``, ``M``,
    ``bpstage``), over valid candidates (``gid``, ``bid``), over buckets
    (``b[...]``) or over survivors (``cm``/``asm``).  Build one with
    :meth:`from_strategies` (keeps the objects for exact infeasibility
    messages) or :meth:`from_columns` (pure-columnar callers, e.g. the
    search enumerator, which materialize strategies only on demand).

    ``product`` is the rows' :class:`ProductForm` when the columns came
    with one (:class:`ProductColumns`), else ``None``; it changes how the
    stages key rows, never what they compute.
    """

    def __init__(
        self,
        llm: LLMConfig,
        system: System,
        cols: dict[str, np.ndarray],
        strategies: Sequence[ExecutionStrategy] | None = None,
    ):
        self.llm = llm
        self.system = system
        self.cols = cols
        self.strategies = strategies
        self.n = int(cols["t"].shape[0])
        product = getattr(cols, "product", None)
        self.product: ProductForm | None = product if self.n else None
        self.bounds: np.ndarray | None = None
        self._rejected_cache: dict[int, PerformanceResult] = {}
        self._stream: dict[str, np.ndarray] = {}
        # Per-batch comm tables, built on first use (see _cell_table,
        # _kernel_classes, _optim_column).
        self._cells: dict[str, np.ndarray] | None = None
        self._kernel_keys: dict | None = None
        self._optim_b: np.ndarray | None = None

    @classmethod
    def from_strategies(
        cls,
        llm: LLMConfig,
        system: System,
        strategies: Sequence[ExecutionStrategy],
    ) -> "EvalBatch":
        strategies = list(strategies)
        return cls(llm, system, columns_from_strategies(strategies), strategies)

    @classmethod
    def from_columns(
        cls, llm: LLMConfig, system: System, cols: dict[str, np.ndarray]
    ) -> "EvalBatch":
        """A batch over ``cols``; a :class:`ProductColumns` brings its form."""
        return cls(llm, system, cols)

    # Stream order — validate-rejects first (input order), then valid rows
    # by (profile group, input row) — is built only when asked for: the
    # search orders its survivors on their group ids instead.

    @property
    def order_v(self) -> np.ndarray:
        """Valid-row positions in stream order."""
        if "order_v" not in self._stream:
            self._stream["order_v"] = group_order(self.gid, self.n_groups)
        return self._stream["order_v"]

    @property
    def stream_order(self) -> np.ndarray:
        """Input rows in stream order."""
        if "order" not in self._stream:
            self._stream["order"] = np.concatenate(
                [np.flatnonzero(~self.valid), _input_rows(self, self.order_v)]
            ).astype(np.int64, copy=False)
        return self._stream["order"]

    @property
    def stream_rank(self) -> np.ndarray:
        """Each input row's position in stream order."""
        if "rank" not in self._stream:
            rank = np.empty(self.n, dtype=np.int64)
            rank[self.stream_order] = np.arange(self.n, dtype=np.int64)
            self._stream["rank"] = rank
        return self._stream["rank"]

    def strategy_at(self, i: int) -> ExecutionStrategy:
        """Materialize candidate ``i`` as an :class:`ExecutionStrategy`.

        Raises :class:`StrategyError` for a row with an unknown mode code.
        """
        if self.strategies is not None:
            return self.strategies[i]
        kw = {}
        for name, field in COLUMN_FIELDS:
            x = int(self.cols[name][i])
            names = _NAME_TABLES.get(name)
            if names is not None:
                kw[field] = names[x] if 0 <= x < len(names) else f"?{x}"
            else:
                kw[field] = bool(x) if field in _BOOL_FIELDS else x
        return ExecutionStrategy(**kw)


# ---------------------------------------------------------------------------
# Stage 1: validate
# ---------------------------------------------------------------------------


def _prefix_checks(
    llm: LLMConfig, system: System, c: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The validate checks that read only :data:`PREFIX_NAMES` columns.

    Returns ``(ok, M, bpstage, sp_ok)`` per lane: ``sp_ok`` says whether
    the lane's ``t`` and TP mode admit sequence parallelism, the one check
    that also needs an option column.
    """
    t, p, d = c["t"], c["p"], c["d"]
    batch, m, v = c["batch"], c["m"], c["v"]
    n_procs = system.num_procs
    local, batch_rem = np.divmod(batch, np.maximum(d, 1))
    M, local_rem = np.divmod(local, np.maximum(m, 1))

    # Checks on t or p alone are priced once per value, in tables indexed
    # by the value clipped to [0, hi]: hi is the largest value present,
    # capped at max(num_procs, blocks) + 1.  A clipped value's entry holds
    # for it too: t, p < 1 and > num_procs fail either way, p <= 0 has
    # bpstage = blocks (divisor 1) and every p > blocks has bpstage 1.
    top = max(n_procs, llm.num_blocks) + 1

    def table_index(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hi = min(max(int(x.max()), 0), top) if x.size else 0
        return np.clip(x, 0, hi), np.arange(hi + 1, dtype=np.int64)

    ti, tv = table_index(t)
    safe_tv = np.maximum(tv, 1)
    t_ok = (tv >= 1) & (tv <= n_procs) & (tv <= llm.attn_heads)
    t_ok &= (llm.attn_heads % safe_tv == 0) & (llm.hidden % safe_tv == 0)
    t_ok &= llm.feedforward % safe_tv == 0
    # Floor square root via float sqrt with a +/-1 integer correction.
    r = np.sqrt(safe_tv.astype(np.float64)).astype(np.int64)
    r = np.where((r + 1) * (r + 1) <= safe_tv, r + 1, r)
    r = np.where(r * r > safe_tv, r - 1, r)
    t_2d_ok = (tv <= 1) | (r * r == tv)
    t_sp_ok = llm.seq_size % safe_tv == 0
    pi, pv = table_index(p)
    safe_pv = np.maximum(pv, 1)
    p_ok = (pv >= 1) & (pv <= n_procs) & (pv <= llm.num_blocks)
    bpstage = ((llm.num_blocks + safe_pv - 1) // safe_pv)[pi]

    ok = t_ok[ti] & p_ok[pi]
    ok &= (d >= 1) & (d <= n_procs)
    # Every factor is bounded by the system size above, so a product that
    # overflows int64 belongs to a row that already failed.
    ok &= t * p * d == n_procs
    ok &= (d <= batch) & (batch_rem == 0)
    ok &= (m >= 1) & (local_rem == 0)
    ok &= (v >= 1) & (v <= bpstage)
    ok &= ~((v > 1) & (p == 1))
    ok &= c["tpm"] >= 0
    is2d = c["tpm"] == 1
    ok &= ~is2d | t_2d_ok[ti]
    return ok, M, bpstage, ~is2d & t_sp_ok[ti]


def _option_checks(system: System, c: dict[str, np.ndarray]) -> np.ndarray:
    """The validate checks that read only option columns."""
    ok = (c["rc"] >= 0) & (c["tpo"] >= 0)
    sp = c["sp"] != 0
    ok &= ~((c["redo"] != 0) & ~sp)
    ok &= ~((c["rs_ag"] != 0) & ~sp)
    if not system.has_offload:
        ok &= (c["w_off"] | c["a_off"] | c["o_off"]) == 0
    return ok


def _cross_ok(sp_ok, training, sp: np.ndarray, rc: np.ndarray) -> np.ndarray:
    """The checks pairing a prefix with an option: seq-par needs ``sp_ok``
    (``t | seq``, 1-D TP) and recompute needs training."""
    return ((sp == 0) | sp_ok) & (training | (rc == 0))


def batch_validate(eb: EvalBatch) -> EvalBatch:
    """Vectorized :meth:`ExecutionStrategy.validate` plus scalar derivation.

    Produces ``eb.valid`` (the conjunction of every scalar validate check)
    and the derived ``M`` / ``bpstage`` integer columns.  Lanes that fail
    any check keep flowing with safe (clamped) divisors; their derived
    values are garbage but masked out of every later stage.

    With a :class:`ProductForm` the prefix checks run on the prefix table,
    the option checks on the option table and the cross checks on a
    (prefix verdict class x option) table, so each row's verdict, ``M``
    and ``bpstage`` are gathers.
    """
    if eb.product is not None:
        return _validate_product(eb)
    c = eb.cols
    ok, M, bpstage, sp_ok = _prefix_checks(eb.llm, eb.system, c)
    ok &= _option_checks(eb.system, c)
    ok &= _cross_ok(sp_ok, c["training"] != 0, c["sp"], c["rc"])
    eb.valid = ok
    eb.M = M
    eb.bpstage = bpstage
    eb.n_invalid = int(eb.n - np.count_nonzero(ok))
    return eb


# Prefix verdict classes of a product form: 0 fails a prefix check; else
# 1 + 2 * sp_ok + training.
_N_VCLASS = 5


def _validate_product(eb: EvalBatch) -> EvalBatch:
    """:func:`batch_validate` on the prefix and option tables."""
    pf = eb.product
    ok_p, M_p, bp_p, sp_ok = _prefix_checks(eb.llm, eb.system, pf.prefix)
    tr_p = pf.prefix["training"] != 0
    vclass = np.where(ok_p, 1 + 2 * sp_ok + tr_p, 0)
    o = pf.options
    ok_o = _option_checks(eb.system, o)
    n_o = ok_o.shape[0]
    okt = np.zeros((_N_VCLASS, n_o), dtype=bool)
    for cls in range(1, _N_VCLASS):
        s_ok, tr = bool((cls - 1) // 2), bool((cls - 1) % 2)
        okt[cls] = ok_o & _cross_ok(s_ok, tr, o["sp"], o["rc"])
    pidx, oidx = pf.prefix_idx, pf.option_idx
    eb.valid = okt.ravel()[(vclass * n_o)[pidx] + oidx]
    eb.M = M_p[pidx]
    eb.bpstage = bp_p[pidx]
    eb.n_invalid = int(eb.n - np.count_nonzero(eb.valid))
    eb._vclass, eb._okt = vclass, okt
    return eb


# ---------------------------------------------------------------------------
# Stage 2: profile
# ---------------------------------------------------------------------------


# Recompute-mode codes the profile columns branch on.
_RC_ATTN = _RECOMPUTE_CODES["attn_only"]
_RC_FULL = _RECOMPUTE_CODES["full"]

# CPython 3.12 made the builtin ``sum`` of floats compensated (Neumaier);
# the scalar profile aggregates with ``sum()``, so the columns follow suit.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


def _builtin_sum(terms: Sequence[np.ndarray]) -> np.ndarray:
    """Lane-wise ``sum(terms)`` with the builtin's rounding on this Python.

    Plain left-to-right float addition before 3.12; from 3.12 on the
    Neumaier running compensation CPython uses, added back at the end when
    non-zero and finite.  Zero terms are exact identities in both forms,
    so callers pad lanes with fewer terms with ``0.0``.
    """
    total = np.zeros(np.shape(terms[0]), dtype=np.float64)
    if not _COMPENSATED_SUM:
        for x in terms:
            total = total + x
        return total
    comp = np.zeros_like(total)
    for x in terms:
        s = total + x
        comp = comp + np.where(
            np.abs(total) >= np.abs(x), (total - s) + x, (x - s) + total
        )
        total = s
    return np.where((comp != 0.0) & np.isfinite(comp), total + comp, total)


def _per_value(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` over every element of ``x``, called once per distinct value.

    Values reach ``fn`` as the Python ints or floats ``x.tolist()`` yields,
    so a scalar kernel sees the very arguments the scalar pipeline passes.
    """
    flat = np.asarray(x).ravel()
    uniq, inv = np.unique(flat, return_inverse=True)
    vals = np.array([fn(v) for v in uniq.tolist()], dtype=np.float64)
    return vals[inv.ravel()].reshape(np.shape(x))


def _lanes(x, n: int, dtype=None) -> np.ndarray:
    """``x`` as a column of ``n`` lanes (a formula may return a Python
    number where no lane differs)."""
    x = np.asarray(x, dtype=dtype)
    return x if x.ndim else np.full(n, x)


class _Fields(dict):
    """Columns read as attributes (``prof.fw_time``) or items, each gathered
    as ``source[name][index]`` on first use (``index`` ``None``: as is).

    This is how a formula written for one profile, plan or cell reads the
    batch's per-group, per-bucket or per-cell tables lane-wise.
    """

    def __init__(self, source, index=None):
        super().__init__()
        self._source, self._index = source, index

    def __missing__(self, name):
        col = self._source[name]
        if self._index is not None:
            col = col[self._index]
        self[name] = col
        return col

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return self[name]


# MemoryPlan fields held as per-bucket columns.
_PLAN_FIELDS = tuple(f.name for f in fields(MemoryPlan))


def _roofline_cols(system: System, layers: list, passes: tuple[str, ...]):
    """Per-pass lists of each layer's roofline :class:`OpTime` columns.

    The efficiency-curve and memory-ramp kernels run once per distinct
    argument over every (pass, layer, lane) at once; :func:`roofline`
    combines them.
    """
    proc, hbm = system.processor, system.mem1
    n = int(np.shape(layers[0].flops_fw)[0])
    flops = np.empty((len(passes), len(layers), n), dtype=np.float64)
    traffic = np.empty_like(flops)
    for j, layer in enumerate(layers):
        for i, name in enumerate(passes):
            flops[i, j] = getattr(layer, f"flops_{name}")
            traffic[i, j] = getattr(layer, f"traffic_{name}")
    compute = np.empty_like(flops)
    for engine in Engine:
        rows = [j for j, layer in enumerate(layers) if layer.engine is engine]
        compute[:, rows] = _per_value(
            partial(proc.compute_time, engine.value), flops[:, rows]
        )
    op = roofline(compute, _per_value(hbm.access_time, traffic))
    return [
        [OpTime(op.total[i, j], op.compute[i, j], op.memory[i, j])
         for j in range(len(layers))]
        for i in range(len(passes))
    ]


def _tp_comm_cols(system: System, schedules, t: np.ndarray) -> list:
    """Per-lane times of :func:`~repro.llm.blocks.tp_schedule` event lists.

    Each event is priced by :meth:`Network.collective_time` once per
    distinct ``(op, t, nbytes)`` among its ``on`` lanes, ``0.0`` elsewhere
    (an event that no lane has is the scalar ``0.0``), and a list's events
    add up as :func:`~repro.arith.total` adds them.
    """
    n = t.shape[0]
    memo: dict = {}  # events the lists share (the same objects): priced once
    times: dict = {}  # op -> {(t, nbytes, group): collective time}

    def priced(op, nbytes, group, on):
        key = (op, id(nbytes), id(on))
        if key in memo:
            return memo[key]
        idx = np.flatnonzero(on)
        out = 0.0
        if idx.size:
            nb = np.broadcast_to(nbytes, (n,))[idx].tolist()
            gv = (t if group is None else np.broadcast_to(group, (n,)))[idx]
            keys = list(zip(t[idx].tolist(), nb, gv.tolist()))
            known = times.setdefault(op, {})
            for k in set(keys).difference(known):
                known[k] = system.network_for_span(k[0]).collective_time(op, *k[1:])
            out = np.zeros(n, dtype=np.float64)
            out[idx] = [known[k] for k in keys]
        memo[key] = out
        return out

    return [total([priced(*ev) for ev in events]) for events in schedules]


def _block_columns(llm: LLMConfig, system: System, m, t, sp, fus, redo, tpm,
                   seq=None, passes=("fw", "bw")):
    """One block per lane through the shared block formulas.

    Returns the block (fields as columns), its per-pass layer
    :class:`OpTime` lists and its ``(fw, bw)`` TP collective times.
    """
    two_d = tpm == _TP_MODE_CODES["2d"]
    layers, input_bytes = block_layers(llm, m, t, sp | two_d, fus, seq)
    block = TransformerBlock(layers=tuple(layers), input_bytes=input_bytes,
                             tp_comm_fw=(), tp_comm_bw=(),
                             pp_activation_bytes=input_bytes)
    grid = np.ones_like(t)  # isqrt(t) where 2-D; no other lane reads it
    grid[two_d] = [math.isqrt(x) for x in t[two_d].tolist()]
    fw_ev, bw_ev = tp_schedule(llm, m, t, sp, redo, two_d, grid, seq)
    tp = _tp_comm_cols(system, (fw_ev, bw_ev)[:len(passes)], t)
    return block, _roofline_cols(system, layers, passes), tp


def prefill_columns(
    llm: LLMConfig, system: System, seq: Sequence[int], tensor_par: int,
    microbatch: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane ``(fw_block, tp_fw_comm)`` of a prompt's forward pass.

    Lane ``i`` is one block of ``llm.with_seq(seq[i])`` at ``m=microbatch``
    with sequence parallelism, fusion and redo off and 1-D tensor parallelism,
    built and priced through the same block formulas as
    :func:`profile_columns`.  Unlike the profile's ``fw_time`` (a running
    sum), the per-layer forward times are added as the builtin ``sum()``
    adds them (:func:`~repro.arith.total`), so each lane equals ``sum(
    layer_fw_time(...).total for l in block.layers)`` and ``sum(
    collective_time(...) for c in block.tp_comm_fw)`` over the scalar block.

    Raises:
        ValueError: if ``tensor_par`` does not divide the model shape, or a
            length or ``microbatch`` is not positive.
    """
    h, f, a, t = llm.hidden, llm.feedforward, llm.attn_heads, tensor_par
    if t <= 0 or a % t or h % t or f % t:
        raise ValueError(
            f"tensor_par={t} must divide attn_heads={a}, hidden={h}, feedforward={f}"
        )
    seq = np.asarray(seq, dtype=np.int64)
    if np.any(seq <= 0) or microbatch <= 0:
        raise ValueError("sequence lengths and microbatch must be positive")
    n = int(seq.shape[0])
    m = np.full(n, microbatch, dtype=np.int64)
    off = np.zeros(n, dtype=bool)
    t = np.full(n, tensor_par, dtype=np.int64)
    tpm = np.full(n, _TP_MODE_CODES["1d"], dtype=np.int64)
    _, (fw,), (tp_fw,) = _block_columns(llm, system, m, t, off, off, off, tpm,
                                        seq, passes=("fw",))
    return (_lanes(total([op.total for op in fw]), n, np.float64),
            _lanes(tp_fw, n, np.float64))


def profile_columns(
    llm: LLMConfig,
    system: System,
    m: np.ndarray,
    t: np.ndarray,
    sp: np.ndarray,
    fus: np.ndarray,
    redo: np.ndarray,
    rc: np.ndarray,
    tpm: np.ndarray,
) -> dict[str, np.ndarray]:
    """:func:`~repro.engine.profile.profile_block` over columns of keys.

    One lane per ``(m, t, sp, fus, redo, rc, tpm)`` key (``rc``/``tpm`` as
    :data:`RECOMPUTE_NAMES`/:data:`TP_MODE_NAMES` codes); returns one
    float64 column per :data:`_PROF_FIELDS` entry, each lane bit-identical
    to the scalar profile's field.  The block is built and profiled by the
    scalar's own formulas (:func:`~repro.llm.blocks.block_layers`,
    :func:`~repro.llm.blocks.tp_schedule`,
    :func:`~repro.engine.profile.block_base`,
    :func:`~repro.engine.profile.profile_from_base`) on columns; only the
    roofline kernels (efficiency-curve ``log10``, memory small-access
    ``log2`` ramp) and collective times stay scalar, called once per
    distinct argument.  The integer quantities the scalar code keeps as
    Python ints are int64 columns here: exact, and converted to float at
    the same points, while every byte and element count stays below 2**53.
    """
    n = int(m.shape[0])
    block, (fw, bw), (tp_fw, tp_bw) = _block_columns(
        llm, system, m, t, sp, fus, redo, tpm)
    prof = profile_from_base(block_base(block, fw, bw, tp_fw, tp_bw),
                             rc == _RC_FULL, rc == _RC_ATTN)
    return {name: _lanes(getattr(prof, name), n, np.float64)
            for name in _PROF_FIELDS}


def _valid_col(eb: EvalBatch, name: str) -> np.ndarray:
    """Column ``name`` over the valid candidates (no copy when all are)."""
    col = eb.cols[name]
    return col if eb.n_valid == eb.n else col[eb.vidx]


def _input_rows(eb: EvalBatch, sel: np.ndarray) -> np.ndarray:
    """``eb.vidx[sel]``: the input rows of valid-candidate positions or mask
    ``sel`` (``sel`` itself when every candidate is valid)."""
    return sel if eb.n_valid == eb.n else eb.vidx[sel]


def group_order(gid: np.ndarray, n_groups: int) -> np.ndarray:
    """Positions of ``gid`` sorted by group id, ties in position order.

    Over rows in input order this is the scalar stream order: groups in
    first-seen order, members in input order.  Group ids that fit 16 bits
    sort as one radix pass.
    """
    narrow = gid.astype(np.uint16) if n_groups <= 1 << 16 else gid
    return np.argsort(narrow, kind="stable")


@dataclass
class _Layout:
    """A product-form batch's rows as prefix blocks sharing option classes.

    Block ``b`` holds the batch's rows of prefix ``prefs[b]``.  Blocks of
    one class have the same valid option rows in the same order
    (``vopts[cls[b]]``): a whole block's class is its option list and
    prefix verdict class; a block cut by the range's edge is a class of its
    own.  ``vbase[b]`` counts the valid rows before block ``b``.
    """

    prefs: np.ndarray
    cls: np.ndarray
    vopts: list[np.ndarray]
    vbase: np.ndarray
    pidx_v: np.ndarray  # prefix row of each valid row
    oidx_v: np.ndarray  # option row of each valid row

    def per_prefix(self, values: np.ndarray) -> np.ndarray:
        """Per-block ``values`` as a table indexed by prefix row."""
        out = np.zeros(int(self.prefs[-1]) + 1, dtype=np.int64)
        out[self.prefs] = values
        return out


def _layout(eb: EvalBatch) -> _Layout:
    """The block layout of a validated product-form batch."""
    pf = eb.product
    p0, p1 = int(pf.prefix_idx[0]), int(pf.prefix_idx[-1])
    prefs = np.arange(p0, p1 + 1)
    key = pf.prefix_list[prefs] * _N_VCLASS + eb._vclass[prefs]
    start = pf.start
    if pf.lo > start[p0]:
        key[0] = -1
    if pf.hi < start[p1 + 1]:
        key[-1] = -2
    _, first_block, cls = np.unique(key, return_index=True, return_inverse=True)
    vopts = []
    for b, k in zip(first_block.tolist(), key[first_block].tolist()):
        p = p0 + b
        if k < 0:
            lo = max(int(start[p]), pf.lo) - pf.lo
            opts = pf.option_idx[lo:min(int(start[p + 1]), pf.hi) - pf.lo]
        else:
            opts = pf.lists[int(pf.prefix_list[p])]
        vopts.append(opts[eb._okt[eb._vclass[p], opts]])
    nv = np.array([v.shape[0] for v in vopts], dtype=np.int64)[cls]
    if eb.n_valid == eb.n:
        pidx_v, oidx_v = pf.prefix_idx, pf.option_idx
    else:
        pidx_v, oidx_v = pf.prefix_idx[eb.vidx], pf.option_idx[eb.vidx]
    return _Layout(prefs, cls.ravel(), vopts, np.cumsum(nv) - nv,
                   pidx_v, oidx_v)


def _first_seen(lay: _Layout, ids: np.ndarray):
    """Per class, first-seen numbering of ``ids[vopts]`` over its rows.

    Returns ``(local, firsts, counts)``: ``local`` a (class x option row)
    table of each valid option's number within its class, ``firsts`` a
    (class x max count) table of each number's first position among the
    class's valid rows, ``counts`` the numbers per class.
    """
    parts = [_factorize([ids[v]]) for v in lay.vopts]
    counts = np.array([f.shape[0] for _, f in parts], dtype=np.int64)
    local = np.zeros((len(parts), ids.shape[0]), dtype=np.int64)
    firsts = np.zeros((len(parts), int(counts.max(initial=0))), dtype=np.int64)
    for c, (v, (num, first)) in enumerate(zip(lay.vopts, parts)):
        local[c, v] = num
        firsts[c, :first.shape[0]] = first
    return local, firsts, counts


def _product_groups(eb: EvalBatch, lay: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """Profile-group ``(gid, gfirst)`` of a product-form batch.

    A group is a (prefix part, option part) pair of its key: ``(m, t,
    tpm)`` and ``(sp, fus, redo, rc)``.  A pair is first seen in the first block of its
    prefix part whose class holds its option part, which is the first
    block of some (prefix part, class) pair: so the groups' first rows are
    read off those blocks, at the class's first positions of each option
    part, and numbered in row order.
    """
    pr, op = eb.product.prefix, eb.product.options
    pg, _ = _factorize([pr[name][lay.prefs] for name in _GROUP_KEYS
                        if name in pr])
    og, og_first = _factorize([op[name] for name in _GROUP_KEYS
                               if name in op])
    n_og = og_first.shape[0]
    _, firsts, counts = _first_seen(lay, og)
    # Each class's option parts in first-seen order.
    parts = np.zeros_like(firsts)
    for c, v in enumerate(lay.vopts):
        parts[c, :counts[c]] = og[v[firsts[c, :counts[c]]]]
    _, lead = _factorize([pg, lay.cls])
    lc = lay.cls[lead]
    present = np.arange(firsts.shape[1]) < counts[lc][:, None]
    # Row-major over lead blocks: already in row order.
    keys = (pg[lead][:, None] * n_og + parts[lc])[present]
    pos = (lay.vbase[lead][:, None] + firsts[lc])[present]
    _, kfirst = _factorize([keys])
    gmap = np.zeros((int(pg.max()) + 1) * n_og, dtype=np.int64)
    gmap[keys[kfirst]] = np.arange(kfirst.shape[0], dtype=np.int64)
    table = gmap.reshape(-1, n_og)[:, og].ravel()
    gid = table[lay.per_prefix(pg * og.shape[0])[lay.pidx_v] + lay.oidx_v]
    return gid, pos[kfirst]


def _product_buckets(eb: EvalBatch, lay: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """Memory-bucket ``(bid, bfirst)`` of a product-form batch.

    Every :data:`PREFIX_NAMES` column is part of the group or bucket key
    and prefix rows are distinct, so a bucket never spans two blocks: buckets are numbered
    block by block, ``boff[block] + local[class, option]`` with ``local``
    the first-seen numbering of the option part among the class's valid
    rows.
    """
    op = eb.product.options
    bo, _ = _factorize([op[name] for name in _GROUP_KEYS + _BUCKET_KEYS
                        if name in op])
    local, firsts, counts = _first_seen(lay, bo)
    nb = counts[lay.cls]
    boff = np.cumsum(nb) - nb
    n_o = bo.shape[0]
    bid = lay.per_prefix(boff)[lay.pidx_v]
    bid += local.ravel()[lay.per_prefix(lay.cls * n_o)[lay.pidx_v] + lay.oidx_v]
    block = np.repeat(np.arange(nb.shape[0]), nb)
    at = np.arange(block.shape[0], dtype=np.int64) - boff[block]
    # Each bucket's class and number within it, for bucket_modes.
    eb._bucket_class = (lay.cls[block], at, local)
    return bid, lay.vbase[block] + firsts[lay.cls[block], at]


def bucket_modes(eb: EvalBatch) -> np.ndarray:
    """Which ``tp_overlap`` modes each memory bucket's candidates use.

    One ``uint8`` per bucket, bit ``m`` set when a candidate has overlap
    code ``m``.  A product-form batch reads it off its (class x option)
    table -- a bucket's candidates are the valid option rows of its class
    that carry its number -- so it costs a few scatters per class and one
    gather per bucket; any other batch scatters its valid rows.
    """
    if eb.product is None:
        modes = np.zeros(eb.n_buckets, dtype=np.uint8)
        tpo = _valid_col(eb, "tpo")
        for m in range(_N_TPO):
            modes[eb.bid[tpo == m]] |= 1 << m
        return modes
    cls, at, local = eb._bucket_class
    tpo = eb.product.options["tpo"]
    width = int(at.max(initial=0)) + 1
    modes = np.zeros((local.shape[0], width), dtype=np.uint8)
    for c, v in enumerate(eb._layout.vopts):
        for m in range(_N_TPO):
            modes[c, local[c, v[tpo[v] == m]]] |= 1 << m
    return modes.ravel()[cls * width + at]


def batch_profile(eb: EvalBatch) -> EvalBatch:
    """Factorize valid candidates into profile groups; profile them columnar.

    Groups are keyed by the :func:`~repro.engine.profile.profile_key`
    fields and numbered in first-seen order, which fixes the stream order
    results come out in.  :func:`profile_columns` then prices every group's
    block in one vectorized pass, filling the per-group ``eb.gprof``
    columns bit-identically to :func:`~repro.engine.profile.profile_block`
    without building a block or profile object per group.  A product-form
    batch reads its group ids off the prefix and option tables
    (:func:`_product_groups`); any other batch factorizes its rows.
    """
    vidx = np.flatnonzero(eb.valid)
    eb.vidx = vidx
    eb.n_valid = int(vidx.shape[0])
    eb._stream = {}
    eb._cells = None
    if eb.product is not None:
        eb._layout = _layout(eb)
        gid, gfirst = _product_groups(eb, eb._layout)
    else:
        gid, gfirst = _factorize([_valid_col(eb, name) for name in _GROUP_KEYS])
    eb.gid, eb.gfirst = gid, gfirst
    eb.n_groups = int(gfirst.shape[0])
    rows = _input_rows(eb, gfirst)
    key = {name: eb.cols[name][rows] for name in _GROUP_KEYS}
    eb.gprof = profile_columns(
        eb.llm, eb.system, key["m"], key["t"], key["sp"] != 0,
        key["fus"] != 0, key["redo"] != 0, key["rc"], key["tpm"],
    )
    return eb


# ---------------------------------------------------------------------------
# Stage 3: memory plan
# ---------------------------------------------------------------------------


def batch_memory(eb: EvalBatch) -> EvalBatch:
    """Per-bucket memory plans and capacity masks, vectorized.

    Buckets refine profile groups by the memory-relevant fields (p, d,
    batch, v, 1F1B, sharding, the offload switches, training), numbered in
    first-seen order: read off the product form's tables when the batch
    has one (:func:`_product_buckets`), else by factorizing the rows.  The
    plan is :func:`~repro.engine.stages.memory_plan` on bucket columns, so
    plan floats — and the derived capacity verdicts — are bit-identical to
    the scalar plans.
    """
    c, gid = eb.cols, eb.gid
    system = eb.system
    if eb.product is not None:
        bid, bfirst = _product_buckets(eb, eb._layout)
    else:
        bid, bfirst = _factorize(
            [gid] + [_valid_col(eb, name) for name in _BUCKET_KEYS]
        )
    eb.bid, eb.bfirst = bid, bfirst
    eb._kernel_keys = eb._optim_b = None
    n_b = int(bfirst.shape[0])
    eb.n_buckets = n_b
    rep = _input_rows(eb, bfirst)
    eb.b_rep = rep

    b: dict[str, np.ndarray] = {"group": gid[bfirst] if n_b else np.empty(0, np.int64)}
    for name in ("t", "p", "d", "batch", "m", "v", "f1b", "osh",
                 "w_off", "a_off", "o_off", "training"):
        b[name] = c[name][rep]
    b["M"] = eb.M[rep]
    b["bp"] = eb.bpstage[rep]
    eb.b = b

    plan = memory_plan(
        _Fields(eb.gprof, b["group"]), b["bp"], b["M"], b["p"], b["v"],
        b["f1b"] != 0, b["d"], b["osh"] != 0, b["w_off"] != 0,
        b["a_off"] != 0, b["o_off"] != 0, b["training"] != 0,
    )
    mem1_total, tier2_used = plan.mem1_total, plan.tier2_used
    tier1_over = mem1_total > system.mem1.capacity
    if system.mem2 is not None:
        tier2_over = ~tier1_over & (tier2_used > system.mem2.capacity)
    else:
        tier2_over = np.zeros(n_b, dtype=bool)
    bucket_ok = ~tier1_over & ~tier2_over

    b.update(
        {name: _lanes(getattr(plan, name), n_b) for name in _PLAN_FIELDS},
        tier1_over=tier1_over, ok=bucket_ok,
    )
    eb.feasible_v = bucket_ok[bid]
    eb.n_rejected_memory = int(eb.n_valid - np.count_nonzero(eb.feasible_v))
    n_rejected_buckets = int(n_b - np.count_nonzero(bucket_ok))
    eb.n_shared_infeasible = eb.n_rejected_memory - n_rejected_buckets
    eb.n_feasible_buckets = int(np.count_nonzero(bucket_ok))
    return eb


# ---------------------------------------------------------------------------
# Bound pruning (between memory and comm)
# ---------------------------------------------------------------------------


def batch_prune(eb: EvalBatch, threshold: float | None) -> EvalBatch:
    """Mark every memory-feasible candidate a survivor (no bound pruning).

    This is the untiled stage between memory and comm that :func:`run_batch`
    runs without an :class:`AdaptivePlan`.  Bound pruning happens only in
    :func:`batch_adaptive`, whose per-tile thresholds follow the running
    top-k floor; ``threshold`` must be ``None``.
    """
    if threshold is not None:
        raise ValueError(
            "batch_prune takes no threshold; bound pruning runs through "
            "run_batch(adaptive=AdaptivePlan(...))"
        )
    eb.bounds = None
    eb.pruned_b = np.zeros(eb.n_buckets, dtype=bool)
    eb.n_bound_evals = 0
    eb.pruned_v = np.zeros_like(eb.feasible_v)
    eb.n_pruned = 0
    eb.surv_v = eb.feasible_v.copy()
    eb.n_survivors = int(np.count_nonzero(eb.surv_v))
    return eb


# ---------------------------------------------------------------------------
# Stage 4: comm exposure
# ---------------------------------------------------------------------------


# Window fractions of the overlap modes, in TP_OVERLAP_NAMES code order.
_TP_WINDOW = np.array([TP_OVERLAP_WINDOW[name] for name in TP_OVERLAP_NAMES])
# tp_exposure's six outputs, in its return order.
TP_EXPOSURE_NAMES = ("tp_fw_exp", "tp_fw_tax", "tp_bw_exp", "tp_bw_tax",
                     "tp_rc_exp", "tp_rc_tax")


def tp_exposure_columns(system: System, t, tpo, prof) -> tuple[np.ndarray, ...]:
    """Lane-wise :func:`~repro.engine.stages.tp_exposure`.

    ``t`` and ``tpo`` (overlap codes) are int arrays and ``prof`` maps the
    block profile's ``fw_time``/``bw_time``/``recompute_time`` and
    ``tp_*_comm`` fields to float arrays, all of one shape.  Returns the
    six :data:`TP_EXPOSURE_NAMES` columns of
    :func:`~repro.engine.stages.tp_exposure_terms` on those columns:
    ``t == 1`` has no network, and ``processor_usage`` is read once per
    distinct ``t``.
    """
    pu = _per_value(
        lambda x: system.network_for_span(x).processor_usage if x > 1 else 0.0,
        t,
    )
    with np.errstate(all="ignore"):
        out = tp_exposure_terms(_TP_WINDOW[tpo], pu, t > 1, _Fields(prof))
    return tuple(_lanes(col, t.shape[0], np.float64) for col in out)


def _cell_table(eb: EvalBatch) -> dict[str, np.ndarray]:
    """Per-block figures per (profile group, overlap mode, training) cell.

    Computed once per batch on every cell, as arrays indexed by ``(gid *
    _N_TPO + tpo) * 2 + training``: the six :data:`TP_EXPOSURE_NAMES`
    columns of :func:`tp_exposure_columns` (independent of training) and
    the :func:`~repro.engine.stages.block_factors` of each cell.
    """
    tab = eb._cells
    if tab is not None:
        return tab
    n_g = eb.n_groups
    g = np.repeat(np.arange(n_g), _N_TPO)
    t = eb.cols["t"][_input_rows(eb, eb.gfirst)][g]
    tpo = np.tile(np.arange(_N_TPO), n_g)
    tp = tp_exposure_columns(eb.system, t, tpo, _Fields(eb.gprof, g))
    tp = tuple(np.repeat(col, 2) for col in tp)
    training = np.tile(np.array([False, True]), n_g * _N_TPO)
    fac = block_factors(_Fields(eb.gprof, np.repeat(g, 2)), tp, training)
    tab = dict(zip(TP_EXPOSURE_NAMES, tp))
    tab.update({name: _lanes(col, training.shape[0], np.float64)
                for name, col in fac.items()})
    eb._cells = tab
    return tab


def _call_keyed(fn, code: np.ndarray, args) -> list[np.ndarray]:
    """``fn`` once per distinct ``code``, its outputs gathered back per lane.

    ``code`` holds one non-negative int per lane and must fix ``fn``'s
    arguments exactly.  Each distinct code takes the Python scalars that
    ``args(lanes)`` (argument columns over the given lanes) yields for one
    of its lanes, and ``fn`` runs once per distinct argument tuple among
    those (two codes may yield equal floats), so a deterministic kernel
    returns every lane the float a per-lane call would, and a cached one
    misses once per tuple and never hits.  Returns one contiguous float64
    column per output of ``fn`` (one for a float result).
    """
    card = int(code.max()) + 1
    if card > max(4 * code.shape[0], 1 << 16):
        _, code = np.unique(code, return_inverse=True)
        code = code.ravel()
        card = int(code.max()) + 1
    lane = np.empty(card, dtype=np.int64)
    lane[code] = np.arange(code.shape[0])
    seen = np.zeros(card, dtype=bool)
    seen[code] = True
    keys = np.flatnonzero(seen)
    rows = list(zip(*(col.tolist() for col in args(lane[keys]))))
    out: dict = {}
    for row in rows:
        if row not in out:
            out[row] = fn(*row)
    vals = np.array([out[row] for row in rows], dtype=np.float64)
    table = np.empty((vals.size // max(keys.shape[0], 1), card))
    table[:, keys] = vals.reshape(keys.shape[0], -1).T
    return [col[code] for col in table]


def _kernel_classes(eb: EvalBatch) -> dict[str, np.ndarray]:
    """Per-group class ids keying the pp/dp/optim kernels, and ``p1``.

    A kernel's arguments are fixed by a few of its group's columns and by
    the bucket's ``p``, which fixes ``bpstage`` and, with ``t``, ``d =
    procs / (t p)``.  So each kernel is keyed on ``(class[group] * p1 + p)``
    and its flags, where ``class`` numbers the distinct values of those
    group columns: ``(t, m)`` for :func:`pp_p2p_time`, ``(t,
    weight_grad_bytes)`` for :func:`dp_collectives` and ``(t,
    optimizer_bytes, weight_grad_bytes, weight_bytes)`` for
    :func:`optim_step_time` (floats by bit pattern, on the small group
    table).  Computed once per batch.
    """
    keys = eb._kernel_keys
    if keys is not None:
        return keys
    rows = _input_rows(eb, eb.gfirst)
    t, gp = eb.cols["t"][rows], eb.gprof

    def bits(*names: str) -> list[np.ndarray]:
        return [gp[name].view(np.int64) for name in names]

    keys = {
        "pp": _factorize([t, eb.cols["m"][rows]])[0],
        "dp": _factorize([t] + bits("weight_grad_bytes"))[0],
        "opt": _factorize([t] + bits("optimizer_bytes", "weight_grad_bytes",
                                     "weight_bytes"))[0],
        "p1": int(eb.b["p"].max(initial=0)) + 1,
    }
    eb._kernel_keys = keys
    return keys


def _optim_column(eb: EvalBatch) -> np.ndarray:
    """:func:`optim_step_time` per bucket, computed once per batch.

    Filled for feasible training buckets, ``0.0`` elsewhere.  Buckets are
    keyed on ``(group class, p, sharding, tier)`` and the kernel runs once
    per distinct argument tuple among the keys (:func:`_call_keyed`), on
    :func:`~repro.engine.stages.optim_traffic` on bucket columns, so each
    call sees the scalar path's floats.
    """
    col = eb._optim_b
    if col is not None:
        return col
    b, gprof, system = eb.b, eb.gprof, eb.system
    col = np.zeros(eb.n_buckets, dtype=np.float64)
    idx = np.flatnonzero(b["ok"] & (b["training"] != 0))
    if idx.size:
        keys = _kernel_classes(eb)
        use2 = (b["o_off"][idx] != 0) & (system.mem2 is not None)
        code = (keys["opt"][b["group"][idx]] * keys["p1"] + b["p"][idx]) * 2
        code = (code + (b["osh"][idx] != 0)) * 2 + use2

        def args(lanes: np.ndarray) -> tuple[np.ndarray, ...]:
            i = idx[lanes]
            opt_bytes = b["opt_bytes"][i]
            traffic = optim_traffic(opt_bytes, b["bp"][i],
                                    _Fields(gprof, b["group"][i]),
                                    b["opt_shard"][i])
            return opt_bytes, traffic, use2[lanes]

        col[idx] = _call_keyed(partial(optim_step_time, system), code, args)[0]
    eb._optim_b = col
    return col


def batch_comm(eb: EvalBatch) -> EvalBatch:
    """Price communication for every survivor, vectorized per component.

    The TP exposure is array arithmetic on a per-batch (profile group x
    overlap mode) table (:func:`_cell_table`).  Each cached kernel runs once
    per distinct key of small integer columns (:func:`_kernel_classes`):
    :func:`pp_p2p_time` per ``(t, m)`` class, ``p`` and ``pp_rs_ag`` with
    ``p > 1``, :func:`dp_collectives` per ``(t, weight_grad_bytes)``
    class, ``p`` and sharding, and :func:`optim_step_time` once per batch
    (:func:`_optim_column`).  Every kernel is deterministic in its
    arguments and receives the scalar path's Python values, so
    deduplicating the calls changes no value; outputs are gathered onto
    survivor lanes, and the exposure formulas of
    :func:`~repro.engine.stages.stage_comm` (:func:`pp_exposure`,
    :func:`dp_exposure`, :func:`offload_exposure`) run on the columns.
    """
    b, c, llm, system = eb.b, eb.cols, eb.llm, eb.system
    sidx = np.flatnonzero(eb.surv_v)
    eb.sidx = sidx
    inp_s = _input_rows(eb, sidx)
    eb.inp_s = inp_s
    n_s = int(sidx.shape[0])
    eb.n_s = n_s
    cm: dict[str, np.ndarray] = {}
    eb.cm = cm
    if n_s == 0:
        return eb

    gid_s = eb.gid[sidx]
    bid_s = eb.bid[sidx]
    eb.gid_s, eb.bid_s = gid_s, bid_s
    p_s = b["p"][bid_s]
    v_s = b["v"][bid_s]
    M_s = b["M"][bid_s]
    bp_s = b["bp"][bid_s]
    tr_s = (b["training"] != 0)[bid_s]

    # ---- per-block TP communication exposure (per group x overlap cell) -----
    tab = _cell_table(eb)
    cell = (gid_s * _N_TPO + c["tpo"][inp_s]) * 2 + tr_s
    eb.cell_s = cell
    tp = {name: tab[name][cell] for name in TP_EXPOSURE_NAMES}

    # ---- per-microbatch stage times ------------------------------------------
    t_f_mb = bp_s * tab["f"][cell]
    t_b_mb = bp_s * tab["b"][cell]

    # ---- pipeline point-to-point (per (t, m) class, p and rs_ag; p > 1) -----
    keys = _kernel_classes(eb)
    pmask = p_s > 1
    every = bool(pmask.all())
    sub = slice(None) if every else np.flatnonzero(pmask)
    p2p = np.zeros(n_s, dtype=np.float64)
    bd = bid_s[sub]
    if bd.size:
        rs_ag = c["rs_ag"][inp_s[sub]] != 0
        code = (keys["pp"][b["group"][bd]] * keys["p1"] + b["p"][bd]) * 2 + rs_ag
        p2p[sub] = _call_keyed(
            lambda t, p, m, rs: pp_p2p_time(
                system, t, p,
                m * llm.seq_size * llm.hidden * llm.bytes_per_element, rs,
            ),
            code,
            lambda lanes: (b["t"][bd[lanes]], b["p"][bd[lanes]],
                           b["m"][bd[lanes]], rs_ag[lanes]),
        )[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        pp_total, pp_exposed, pp_bubble = pp_exposure(
            p2p, M_s, p_s, v_s, t_f_mb, t_b_mb, tr_s
        )

    # ---- data-parallel gradient communication (training, d > 1) -------------
    # The collectives are priced per surviving bucket, the exposure per row.
    dp_total = np.zeros(n_s, dtype=np.float64)
    dp_exposed = np.zeros(n_s, dtype=np.float64)
    dp_tax = np.zeros(n_s, dtype=np.float64)
    has_dp = (b["training"] != 0) & (b["d"] > 1)
    dsub = np.flatnonzero(has_dp[bid_s])
    if dsub.size:
        bd = bid_s[dsub]
        hit = np.zeros(eb.n_buckets, dtype=bool)
        hit[bd] = True
        sb = np.flatnonzero(hit)
        sharded = b["osh"][sb] != 0
        code = (keys["dp"][b["group"][sb]] * keys["p1"] + b["p"][sb]) * 2 + sharded

        def dp_kernel(t, p, d, grad_bytes, sharded):
            rs, ag, tot = dp_collectives(system, t, p, d, grad_bytes, sharded)
            dp_net = system.network_for_span(min(system.num_procs, t * p * d))
            return rs, ag, tot, dp_net.processor_usage

        def dp_args(lanes: np.ndarray) -> tuple[np.ndarray, ...]:
            i = sb[lanes]
            grad_bytes = b["bp"][i] * eb.gprof["weight_grad_bytes"][b["group"][i]]
            return b["t"][i], b["p"][i], b["d"][i], grad_bytes, sharded[lanes]

        rs_b, ag_b, tot_b, pu_b = (np.empty(eb.n_buckets) for _ in range(4))
        rs_b[sb], ag_b[sb], tot_b[sb], pu_b[sb] = _call_keyed(
            dp_kernel, code, dp_args
        )
        tot = tot_b[bd]
        dp_total[dsub] = tot
        dp_exposed[dsub] = tot
        # Only overlapped exchanges hide (behind the last microbatch's passes).
        rows = dsub[(c["dpo"][inp_s[dsub]] != 0) & (bp_s[dsub] > 0)]
        if rows.size:
            br = bid_s[rows]
            with np.errstate(divide="ignore", invalid="ignore"):
                dp_exposed[rows], dp_tax[rows] = dp_exposure(
                    rs_b[br], ag_b[br], tot_b[br], pu_b[br],
                    bp_s[rows] * v_s[rows], t_f_mb[rows], t_b_mb[rows], True,
                )

    # ---- optimizer step (once per batch, per training bucket) ----------------
    optim_time = _optim_column(eb)[bid_s]

    # ---- offload traffic, bandwidth requirement, exposure --------------------
    offload_total = np.zeros(n_s, dtype=np.float64)
    offload_exposed = np.zeros(n_s, dtype=np.float64)
    required_bw = np.zeros(n_s, dtype=np.float64)
    if system.mem2 is not None:
        rows = np.flatnonzero(((b["w_off"] | b["a_off"] | b["o_off"]) != 0)[bid_s])
        if rows.size:
            br = bid_s[rows]
            with np.errstate(divide="ignore", invalid="ignore"):
                out = offload_exposure(
                    _Fields(eb.gprof, gid_s[rows]),
                    tuple(tp[name][rows] for name in TP_EXPOSURE_NAMES),
                    M_s[rows], bp_s[rows], tr_s[rows], b["w_off"][br] != 0,
                    b["a_off"][br] != 0, b["o_off"][br] != 0,
                    system.mem2.effective_bandwidth(float("inf")),
                )
            offload_total[rows], offload_exposed[rows], required_bw[rows] = out

    cm.update(tp)
    cm.update(
        t_f_mb=t_f_mb, t_b_mb=t_b_mb, pp_total=pp_total, pp_exposed=pp_exposed,
        pp_bubble=pp_bubble, dp_total=dp_total, dp_exposed=dp_exposed,
        dp_tax=dp_tax, optim_time=optim_time, offload_total=offload_total,
        offload_exposed=offload_exposed, required_bw=required_bw,
    )
    return eb


# ---------------------------------------------------------------------------
# Stage 5: time assembly
# ---------------------------------------------------------------------------


def batch_assemble(eb: EvalBatch) -> EvalBatch:
    """Fold comm/plan columns into per-survivor time-breakdown columns.

    :func:`~repro.engine.stages.assemble_times` and
    :func:`~repro.engine.stages.model_flops_utilization` on the survivor
    columns, with the per-block factors gathered from the batch's cell
    table (:func:`_cell_table`) at the cells the comm stage keyed its rows
    on; ``batch_time`` is :attr:`TimeBreakdown.batch_time`'s sum and the
    rates :func:`~repro.core.results.sample_rate`.
    """
    asm: dict[str, np.ndarray] = {}
    eb.asm = asm
    n_s = eb.n_s
    eb.rate_s = np.empty(0, dtype=np.float64)
    if n_s == 0:
        return eb
    b, cm, bid_s = eb.b, eb.cm, eb.bid_s
    fac = _Fields(_cell_table(eb), eb.cell_s)
    M_s = b["M"][bid_s]
    asm.update(assemble_times(M_s * b["bp"][bid_s], fac, _Fields(cm)))
    batch_time = asm["batch_time"] = TimeBreakdown.batch_time.fget(_Fields(asm))
    peak = eb.system.processor.matrix_flops * eb.system.num_procs
    with np.errstate(divide="ignore", invalid="ignore"):
        asm["mfu"] = model_flops_utilization(
            fac["flops"], b["t"][bid_s], eb.llm.num_blocks, M_s,
            b["d"][bid_s], batch_time, peak,
        )
        eb.rate_s = sample_rate(b["batch"][bid_s], batch_time)
    return eb


# ---------------------------------------------------------------------------
# Adaptive best-bound-first tiling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptivePlan:
    """Configuration for the tiled best-bound-first ``run_batch`` path.

    ``top_k`` is the search's retention depth: the running k-th-best rate
    over everything evaluated so far becomes the rate floor that
    :func:`~repro.engine.bounds.strict_prune_threshold_for_rate` converts
    into a batch-time ceiling between tiles.  ``floor_rate`` pre-seeds the
    floor (e.g. from threshold gossip between chunks); non-finite or
    negative values are ignored, never trusted.
    """

    top_k: int
    floor_rate: float = 0.0
    tile_buckets: int = 64  # initial tile; doubles per tile (speed only)


# Per-survivor columns batch_adaptive stitches across its tiles.
_SURVIVOR_COLS = ("sidx", "inp_s", "gid_s", "bid_s", "cell_s", "rate_s")

# Ceiling for the geometric tile growth in batch_adaptive: large enough to
# amortize per-tile fixed costs, small enough that a late floor tightening
# still skips work.
_TILE_BUCKETS_MAX = 1024


def batch_adaptive(
    eb: EvalBatch,
    plan: AdaptivePlan,
    metrics: MetricsRegistry | None = None,
) -> EvalBatch:
    """Best-bound-first tiled replacement for prune + comm + assemble.

    Requires ``batch_memory`` to have run.  Computes the roofline bound for
    every feasible memory bucket up front, orders buckets best-bound-first,
    and runs the comm/assembly stages tile by tile: after each tile the
    running ``top_k``-th best rate tightens a strict batch-time ceiling and
    every remaining bucket whose sound bound reaches it is skipped outright
    (its candidates become bound-pruned without ever touching the comm
    stage).  Because a skipped candidate's rate is provably *strictly*
    below the running floor — and the floor only ever rises toward the
    final k-th best — the stitched survivor columns yield a top-k
    bit-identical to the untiled call under the search's ``lexsort``
    retention.  Tile size and visit order affect only speed.

    Per-tile survivor columns are concatenated and re-sorted by survivor
    index, so ``sidx``/``cm``/``asm``/``rate_s`` land in the same canonical
    order the untiled ``batch_comm``/``batch_assemble`` produce and
    materialization and top-k selection work unchanged.
    """
    timed = metrics is not None
    t_comm = 0.0
    t_asm = 0.0
    t0 = perf_counter() if timed else 0.0
    eb.bounds = batch_lower_bounds(eb)
    if timed:
        metrics.observe(_M_BOUND, perf_counter() - t0)
    eb.n_bound_evals = eb.n_feasible_buckets
    bounds = eb.bounds
    b = eb.b
    fb = np.flatnonzero(b["ok"])
    order = fb[np.argsort(bounds[fb], kind="stable")]

    k = max(int(plan.top_k), 0)
    tile_n = max(int(plan.tile_buckets), 1)
    floor = float(plan.floor_rate)
    if not math.isfinite(floor) or floor < 0.0:
        # Gossiped floors from empty/all-infeasible heaps arrive as -inf or
        # nan; a non-finite floor must never prune (mirrors the guard in
        # strict_prune_threshold_for_rate).
        floor = 0.0
    top_rates = np.empty(0, dtype=np.float64)
    parts: list[tuple[dict[str, np.ndarray], ...]] = []
    tiles = 0
    n_skipped = 0
    skipped_b = np.zeros(eb.n_buckets, dtype=bool)
    remaining = order
    filtered_floor = 0.0  # floor the remaining set was last filtered at
    # One strict-threshold call per distinct batch size per floor change
    # (spaces usually have exactly one); the per-bucket inverse map turns
    # that into a vectorized per-bucket ceiling.
    ubatch, ubinv = (
        np.unique(b["batch"].astype(np.float64), return_inverse=True)
        if eb.n_buckets
        else (np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64))
    )
    while remaining.size:
        if k > 0 and floor > filtered_floor:
            thr_u = np.fromiter(
                (strict_prune_threshold_for_rate(float(v), floor)
                 for v in ubatch),
                dtype=np.float64, count=ubatch.shape[0],
            )
            thr = thr_u[ubinv.ravel()[remaining]]
            drop = bounds[remaining] >= thr
            filtered_floor = floor
            if drop.any():
                dropped = remaining[drop]
                skipped_b[dropped] = True
                n_skipped += int(dropped.shape[0])
                remaining = remaining[~drop]
                if remaining.size == 0:
                    break
        tile_b = remaining[:tile_n]
        remaining = remaining[tile_n:]
        # Geometric growth: the floor converges within the first few tiles,
        # after which small tiles only multiply the fixed per-tile cost of
        # the comm/assembly passes.  Partitioning is correctness-neutral
        # (any tile size yields bit-identical survivors), so later tiles
        # double in size up to a cap.
        tile_n = min(tile_n * 2, _TILE_BUCKETS_MAX)
        tile_mask = np.zeros(eb.n_buckets, dtype=bool)
        tile_mask[tile_b] = True
        eb.surv_v = eb.feasible_v & tile_mask[eb.bid]
        t0 = perf_counter() if timed else 0.0
        batch_comm(eb)
        if timed:
            t1 = perf_counter()
            t_comm += t1 - t0
            t0 = t1
        batch_assemble(eb)
        if timed:
            t_asm += perf_counter() - t0
        tiles += 1
        if eb.n_s:
            parts.append(({name: getattr(eb, name) for name in _SURVIVOR_COLS},
                          eb.cm, eb.asm))
            if k > 0:
                cand = np.concatenate([top_rates, eb.rate_s])
                if cand.shape[0] > k:
                    cand = np.partition(cand, cand.shape[0] - k)[-k:]
                top_rates = cand
                if top_rates.shape[0] == k:
                    new_floor = float(top_rates.min())
                    if new_floor > floor:
                        floor = new_floor

    # -- final pruned/survivor state (mirrors batch_prune's shapes) ----------
    eb.pruned_b = skipped_b
    pruned_v = skipped_b[eb.bid]
    eb.pruned_v = pruned_v
    eb.n_pruned = int(np.count_nonzero(pruned_v))
    eb.surv_v = eb.feasible_v & ~pruned_v
    eb.n_survivors = int(np.count_nonzero(eb.surv_v))
    eb.n_tiles = tiles
    eb.n_skipped_buckets = n_skipped
    eb.floor_rate = floor

    # -- stitch per-tile survivor columns into canonical sidx order ---------
    if parts:
        order_s = np.argsort(np.concatenate([p[0]["sidx"] for p in parts]),
                             kind="stable")

        def stitch(j: int) -> dict[str, np.ndarray]:
            return {key: np.concatenate([p[j][key] for p in parts])[order_s]
                    for key in parts[0][j]}

        for name, col in stitch(0).items():
            setattr(eb, name, col)
        eb.cm, eb.asm = stitch(1), stitch(2)
        eb.n_s = int(eb.sidx.shape[0])
    else:
        eb.sidx = np.empty(0, dtype=np.int64)
        eb.inp_s = np.empty(0, dtype=np.int64)
        eb.n_s = 0
        eb.cm = {}
        eb.asm = {}
        eb.rate_s = np.empty(0, dtype=np.float64)
    if timed:
        metrics.observe(_M_COMM, t_comm)
        metrics.observe(_M_ASSEMBLE, t_asm)
    return eb


# ---------------------------------------------------------------------------
# Orchestration, counters, materialization
# ---------------------------------------------------------------------------


def run_batch(
    eb: EvalBatch,
    *,
    metrics: MetricsRegistry | None = None,
    adaptive: AdaptivePlan | None = None,
) -> EvalBatch:
    """Run every batch stage in order; apply counters and stage timings.

    Without an :class:`AdaptivePlan` every feasible candidate is priced.
    Passing one replaces the comm/assemble tail with the best-bound-first
    tiled path (:func:`batch_adaptive`), which skips candidates that
    provably cannot enter the plan's top-k.  Counters land on ``metrics``
    under the ``engine.*`` names; stage wall-time histograms are observed once per
    stage with the aggregate duration (the scalar :func:`evaluate` observes
    once per candidate — totals are comparable, sample counts are not).
    """
    mx = metrics
    stages = [(batch_validate, _M_VALIDATE), (batch_profile, _M_PROFILE),
              (batch_memory, _M_MEMORY)]
    if adaptive is None:
        stages += [(partial(batch_prune, threshold=None), None),
                   (batch_comm, _M_COMM), (batch_assemble, _M_ASSEMBLE)]
    for stage, metric in stages:
        t0 = perf_counter()
        stage(eb)
        if mx is not None and metric is not None:
            mx.observe(metric, perf_counter() - t0)
    if adaptive is not None:
        # The bound and the tiled comm/assemble loop observe their
        # aggregate durations internally.
        batch_adaptive(eb, adaptive, metrics=mx)
    if mx is not None:
        mx.inc(M_CANDIDATES, float(eb.n))
        mx.inc(M_REJECT_VALIDATE, float(eb.n_invalid))
        mx.inc(M_PROFILE_GROUPS, float(eb.n_groups))
        mx.inc(M_MEMORY_BUCKETS, float(eb.n_buckets))
        mx.inc(M_BUCKET_HITS, float(eb.n_valid - eb.n_buckets))
        mx.inc(M_REJECT_MEMORY, float(eb.n_rejected_memory))
        mx.inc(M_SHARED_INFEASIBLE, float(eb.n_shared_infeasible))
        if adaptive is not None:
            mx.inc(M_BOUND_EVALS, float(eb.n_bound_evals))
            mx.inc(M_BOUND_PRUNED, float(eb.n_pruned))
            mx.inc(M_BOUND_TILES, float(eb.n_tiles))
            mx.inc(M_BOUND_SKIPPED_BUCKETS, float(eb.n_skipped_buckets))
        mx.inc(M_EVALUATED_FULL, float(eb.n_survivors))
        mx.inc(M_COLUMNAR_BATCHES)
        mx.inc(M_COLUMNAR_CANDIDATES, float(eb.n))
    return eb


def _row_name(cols: dict[str, np.ndarray], i: int) -> str:
    """:meth:`ExecutionStrategy.short_name` of row ``i`` of ``cols``."""
    return "t{}p{}d{}m{}v{}".format(
        *(int(cols[name][i]) for name in ("t", "p", "d", "m", "v")))


def _rejected_result(eb: EvalBatch, bkt: int) -> PerformanceResult:
    """The shared infeasible result of a capacity-rejected bucket."""
    hit = eb._rejected_cache.get(bkt)
    if hit is not None:
        return hit
    b, system = eb.b, eb.system
    reason = capacity_error(
        system, float(b["mem1_total"][bkt]), float(b["tier2_used"][bkt]))
    result = PerformanceResult.infeasible(
        llm_name=eb.llm.name,
        system_name=system.name,
        strategy_name=_row_name(eb.b, bkt),
        batch=int(b["batch"][bkt]),
        reason=reason,
    )
    eb._rejected_cache[bkt] = result
    return result


def _invalid_result(eb: EvalBatch, i: int) -> PerformanceResult:
    """The scalar-exact infeasible result for a validate-rejected candidate."""
    try:
        eb.strategy_at(i).validate(eb.llm, eb.system)
    except StrategyError as err:
        return PerformanceResult.infeasible(
            llm_name=eb.llm.name, system_name=eb.system.name,
            strategy_name=_row_name(eb.cols, i),
            batch=int(eb.cols["batch"][i]), reason=str(err),
        )
    raise RuntimeError(
        f"columnar validate rejected candidate {i} "
        "but the scalar validate accepts it"
    )


def survivor_results(
    eb: EvalBatch, positions: Sequence[int] | np.ndarray | None = None
) -> list[PerformanceResult]:
    """Build one PerformanceResult per survivor position, in the given order.

    ``positions`` index the survivor columns (default: every survivor, in
    survivor order); the result for position ``k`` belongs to input row
    ``eb.inp_s[k]`` and has rate ``eb.rate_s[k]``.  Only the requested
    positions are read, so a search's winners cost a handful of lookups.
    Per-bucket components (strategy name, memory breakdown) are shared
    across a bucket's survivors; non-offload survivors share one zero
    OffloadStats.
    """
    asm, b = eb.asm, eb.b
    if positions is None:
        pos = np.arange(eb.n_s)
    else:
        pos = np.asarray(positions, dtype=np.intp).ravel()
    if pos.shape[0] == 0:
        return []
    llm_name, system_name = eb.llm.name, eb.system.name
    cols = [
        asm[f][pos].tolist()
        for f in (
            "fw_pass", "bw_pass", "fw_recompute", "optim_step", "pp_bubble",
            "tp_comm_exposed", "pp_comm_exposed", "dp_comm_exposed",
            "offload_exposed", "overlap_tax", "tp_comm_total", "pp_comm_total",
            "dp_comm_total", "offload_total",
        )
    ]
    mfu_l = asm["mfu"][pos].tolist()
    bid_l = eb.bid_s[pos].tolist()
    req_bw_l = eb.cm["required_bw"][pos].tolist()
    # Per bucket: (strategy name, memory breakdown, tier-2 bytes, batch).
    shared: dict[int, tuple[str, MemoryBreakdown, float, int]] = {}
    results: list[PerformanceResult] = []
    for k in range(pos.shape[0]):
        bkt = bid_l[k]
        hit = shared.get(bkt)
        if hit is None:
            hit = shared[bkt] = (
                _row_name(eb.b, bkt),
                MemoryBreakdown(
                    weight=float(b["weight_res"][bkt]),
                    activation=float(b["act_res"][bkt]),
                    weight_grad=float(b["grad_res"][bkt]),
                    activation_grad=float(b["act_grad_res"][bkt]),
                    optimizer=float(b["opt_res"][bkt]),
                ),
                float(b["tier2_used"][bkt]),
                int(b["batch"][bkt]),
            )
        name, mem1, tier2, batch = hit
        req_bw = req_bw_l[k]
        offload = (
            OffloadStats(used_bytes=tier2, required_bandwidth=req_bw)
            if tier2 != 0.0 or req_bw != 0.0
            else _ZERO_OFFLOAD
        )
        results.append(
            PerformanceResult(
                llm_name=llm_name,
                system_name=system_name,
                strategy_name=name,
                batch=batch,
                time=TimeBreakdown(*(col[k] for col in cols)),
                mem1=mem1,
                offload=offload,
                mfu=mfu_l[k],
            )
        )
    return results


def iter_results(eb: EvalBatch) -> Iterator[tuple[int, PerformanceResult]]:
    """Yield ``(input_index, result)`` in stream order.

    Validate-rejects first (input order), then profile groups in first-seen
    order with members in input order — the order
    ``repro.engine.iter_evaluate`` streams batched results in.  Requires a
    batch without bound-pruned candidates (:func:`run_batch` without an
    :class:`AdaptivePlan`, or one that pruned nothing): a pruned candidate
    has no result to yield.
    """
    if eb.n_pruned:
        raise ValueError(
            f"iter_results needs an unpruned batch; {eb.n_pruned} "
            "candidates were bound-pruned"
        )
    for i in np.flatnonzero(~eb.valid).tolist():
        yield i, _invalid_result(eb, i)
    if eb.n_valid == 0:
        return
    survivors = survivor_results(eb)
    pos_in_surv = np.full(eb.n_valid, -1, dtype=np.int64)
    if eb.n_s:
        pos_in_surv[eb.sidx] = np.arange(eb.n_s, dtype=np.int64)
    vidx_l = eb.vidx.tolist()
    bid_l = eb.bid.tolist()
    pos_l = pos_in_surv.tolist()
    for pos in eb.order_v.tolist():
        k = pos_l[pos]
        if k >= 0:
            yield vidx_l[pos], survivors[k]
        else:
            yield vidx_l[pos], _rejected_result(eb, bid_l[pos])


__all__ = [
    "COLUMN_FIELDS",
    "COLUMN_NAMES",
    "AdaptivePlan",
    "EvalBatch",
    "NUMPY_MIN_VERSION",
    "PREFIX_NAMES",
    "ProductColumns",
    "ProductForm",
    "RECOMPUTE_NAMES",
    "TP_MODE_NAMES",
    "TP_OVERLAP_NAMES",
    "batch_adaptive",
    "batch_assemble",
    "batch_comm",
    "batch_memory",
    "batch_profile",
    "batch_prune",
    "batch_validate",
    "check_numpy_version",
    "columns_from_strategies",
    "group_order",
    "iter_results",
    "run_batch",
    "survivor_results",
]

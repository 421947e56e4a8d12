"""Pure-columnar candidate enumeration for the execution search.

:func:`candidate_columns` produces the exact candidate sequence of
:func:`repro.search.execution_search.candidate_strategies` — same filters,
same order — directly as int64 NumPy columns, without ever constructing the
(hundreds of thousands of) :class:`~repro.execution.strategy.ExecutionStrategy`
objects.  The columns feed
:meth:`repro.engine.batch.EvalBatch.from_columns`; the handful of candidates
a search actually reports (the top-k winners) are
materialized on demand via :meth:`~repro.engine.batch.EvalBatch.strategy_at`.

The inner option product — recompute x seq-par modes x TP overlap x DP
overlap x optimizer sharding x fused activations x 1F1B x offload modes —
is identical for every (t, p, d, m, v) prefix except for the sequence-parallel
filter (``sp`` requires ``t > 1`` and ``t | seq``), which depends only on
``t``.  So the product is built **once** as a small option table, the
distinct prefixes as a small prefix table, and each candidate is a pair
(prefix row, option row): every column is one contiguous gather from one
of the two tables by that row's index.  The Python-level work scales with
the number of *distinct* prefixes; per candidate there are only the
gathers.  The columns keep that pairing (their product form), so the
engine can key validity, profile groups and memory buckets on the two
small tables too.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..engine.batch import (
    PREFIX_NAMES,
    RECOMPUTE_NAMES,
    TP_MODE_NAMES,
    TP_OVERLAP_NAMES,
    ProductColumns,
    ProductForm,
)
from ..execution.strategy import divisors, factorizations
from ..hardware.system import System
from ..llm.config import LLMConfig

# Combo-table column layout (the non-prefix strategy dimensions, in the
# order ExecutionStrategy consumes them).
_COMBO_NAMES = (
    "rc", "sp", "redo", "rs_ag", "tpo", "dpo", "osh", "fus", "f1b",
    "w_off", "a_off", "o_off",
)

_TPM_1D = TP_MODE_NAMES.index("1d")


def _combo_table(opts) -> dict[str, np.ndarray]:
    """The inner option product as one int64 column per option name.

    Rows appear in the exact ``itertools.product`` order of the scalar
    enumerator's inner loop; the dependent flags (``tp_redo_sp``,
    ``pp_rs_ag``) are already and-ed with ``seq_par``, mirroring the
    strategy constructor.  Mode names are known by construction
    (:class:`~repro.search.execution_search.SearchOptions` rejects others).
    """
    rc_codes = [RECOMPUTE_NAMES.index(name) for name in opts.recompute]
    tpo_codes = [TP_OVERLAP_NAMES.index(name) for name in opts.tp_overlap]
    rows = [
        (
            rc,
            int(bool(sp)),
            int(bool(redo and sp)),
            int(bool(ppsg and sp)),
            tpo,
            int(bool(dpo)),
            int(bool(osh)),
            int(bool(fus)),
            int(bool(f1b)),
            int(bool(off[0])),
            int(bool(off[1])),
            int(bool(off[2])),
        )
        for rc, (sp, redo, ppsg), tpo, dpo, osh, fus, f1b, off in itertools.product(
            rc_codes,
            opts.seq_par_modes,
            tpo_codes,
            opts.dp_overlap,
            opts.optimizer_sharding,
            opts.fused_activations,
            opts.pp_1f1b,
            opts.offload_modes,
        )
    ]
    table = np.asarray(rows, dtype=np.int64).reshape(len(rows), len(_COMBO_NAMES))
    return {name: table[:, j].copy() for j, name in enumerate(_COMBO_NAMES)}


def candidate_columns(
    llm: LLMConfig,
    system: System,
    batch: int,
    opts,
) -> ProductColumns:
    """Every candidate of the option space, as int64 columns.

    Row ``i`` of the returned columns is candidate ``i`` of
    ``candidate_strategies(llm, system, batch, opts)`` — the structural
    filters (head/shape divisibility, block and batch bounds, the
    microbatch/interleaving ranges, the seq-par degeneracy rules) are
    replicated exactly, so a batch built from these columns evaluates the
    identical candidate stream.  ``opts`` must be a resolved
    :class:`~repro.search.execution_search.SearchOptions`.

    The columns come back as a
    :class:`~repro.engine.batch.ProductColumns`: a dict of columns
    carrying its :class:`~repro.engine.batch.ProductForm` (prefix table,
    option table, each prefix's option list and each row's pair), which
    :meth:`~repro.engine.batch.EvalBatch.from_columns` keys the stages
    on.  ``ProductColumns.rows(lo, hi)`` slices both together.
    """
    combo = _combo_table(opts)
    all_rows = np.arange(combo["sp"].shape[0], dtype=np.intp)
    nosp_rows = np.flatnonzero(combo["sp"] == 0)

    # One prefix row per (t, p, d, m, v); per (t, p, d) block, the option
    # rows every one of its prefixes pairs with.
    prefix: dict[str, list[int]] = {"t": [], "p": [], "d": [], "m": [], "v": []}
    widths: list[int] = []  # option rows per prefix row
    prefix_list: list[int] = []  # per prefix row: 0 = every option row, 1 = no seq-par
    option_l: list[np.ndarray] = []
    n = system.num_procs
    for t, p, d in factorizations(n):
        if t > min(opts.max_tensor_par, llm.attn_heads) or llm.attn_heads % t:
            continue
        if llm.hidden % t or llm.feedforward % t:
            continue
        if p > llm.num_blocks:
            continue
        if d > batch or batch % d:
            continue
        local_batch = batch // d
        microbatches = [
            m
            for m in divisors(local_batch)
            if m <= opts.max_microbatch
            and (not opts.microbatch_powers_of_two or (m & (m - 1)) == 0)
        ]
        if opts.interleaving_values is not None:
            interleavings = [
                v
                for v in opts.interleaving_values
                if v == 1 or (p > 1 and v <= math.ceil(llm.num_blocks / p))
            ]
        else:
            bpstage = math.ceil(llm.num_blocks / p)
            interleavings = [v for v in divisors(bpstage) if v == 1 or p > 1]
        sp_ok = t != 1 and llm.seq_size % t == 0
        rows = all_rows if sp_ok else nosp_rows
        k = rows.shape[0]
        n_mv = len(microbatches) * len(interleavings)
        if k == 0 or n_mv == 0:
            continue
        prefix["t"] += [t] * n_mv
        prefix["p"] += [p] * n_mv
        prefix["d"] += [d] * n_mv
        prefix["m"] += [m for m in microbatches for _v in interleavings]
        prefix["v"] += interleavings * len(microbatches)
        widths += [k] * n_mv
        prefix_list += [0 if sp_ok else 1] * n_mv
        option_l.append(np.tile(rows, n_mv))

    prefix_idx = np.repeat(np.arange(len(widths), dtype=np.intp), widths)
    option_idx = np.concatenate([np.empty(0, dtype=np.intp)] + option_l)
    total = prefix_idx.shape[0]

    # Every column is a C-contiguous row of one (columns, n) block,
    # allocated and released as one.  Freeing a block that large lifts
    # glibc's dynamic mmap/trim thresholds above a search's working set,
    # so the next search reuses the heap's pages instead of faulting them
    # in again.
    names = PREFIX_NAMES + _COMBO_NAMES
    cols = dict(zip(names, np.empty((len(names), total), dtype=np.int64)))
    # Indices are in range by construction; "clip" lets take write ``out``
    # without buffering.
    table = {name: np.asarray(values, dtype=np.int64)
             for name, values in prefix.items()}
    n_prefix = len(widths)
    for name, value in (("batch", int(batch)), ("tpm", _TPM_1D),
                        ("training", int(bool(opts.training)))):
        table[name] = np.full(n_prefix, value, dtype=np.int64)
        cols[name].fill(value)
    for name in ("t", "p", "d", "m", "v"):
        np.take(table[name], prefix_idx, out=cols[name], mode="clip")
    for name in _COMBO_NAMES:
        np.take(combo[name], option_idx, out=cols[name], mode="clip")
    start = np.zeros(n_prefix + 1, dtype=np.int64)
    np.cumsum(np.asarray(widths, dtype=np.int64), out=start[1:])
    product = ProductForm(
        prefix={name: table[name] for name in PREFIX_NAMES},
        options=combo,
        lists=(all_rows, nosp_rows),
        prefix_list=np.asarray(prefix_list, dtype=np.int64),
        start=start,
        prefix_idx=prefix_idx,
        option_idx=option_idx,
        lo=0,
        hi=total,
    )
    return ProductColumns(cols, product)


__all__ = ["candidate_columns"]

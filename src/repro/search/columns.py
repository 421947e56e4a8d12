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
gathers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..engine.batch import (
    COLUMN_NAMES,
    RECOMPUTE_NAMES,
    TP_MODE_NAMES,
    TP_OVERLAP_NAMES,
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
) -> dict[str, np.ndarray]:
    """Every candidate of the option space, as int64 columns.

    Row ``i`` of the returned columns is candidate ``i`` of
    ``candidate_strategies(llm, system, batch, opts)`` — the structural
    filters (head/shape divisibility, block and batch bounds, the
    microbatch/interleaving ranges, the seq-par degeneracy rules) are
    replicated exactly, so a batch built from these columns evaluates the
    identical candidate stream.  ``opts`` must be a resolved
    :class:`~repro.search.execution_search.SearchOptions`.
    """
    combo = _combo_table(opts)
    all_rows = np.arange(combo["sp"].shape[0], dtype=np.intp)
    nosp_rows = np.flatnonzero(combo["sp"] == 0)

    # One prefix row per (t, p, d, m, v); per (t, p, d) block, the option
    # rows every one of its prefixes pairs with.
    prefix: dict[str, list[int]] = {"t": [], "p": [], "d": [], "m": [], "v": []}
    widths: list[int] = []  # option rows per prefix row
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
        option_l.append(np.tile(rows, n_mv))

    if not widths:
        zero = np.zeros(0, dtype=np.int64)
        return {name: zero.copy() for name in COLUMN_NAMES}
    prefix_idx = np.repeat(np.arange(len(widths), dtype=np.intp), widths)
    option_idx = np.concatenate(option_l)
    total = prefix_idx.shape[0]

    # Every column is a C-contiguous row of one (columns, n) block,
    # allocated and released as one.  Freeing a block that large lifts
    # glibc's dynamic mmap/trim thresholds above a search's working set,
    # so the next search reuses the heap's pages instead of faulting them
    # in again.
    names = ("t", "p", "d", "batch", "m", "v", "tpm", "training") + _COMBO_NAMES
    cols = dict(zip(names, np.empty((len(names), total), dtype=np.int64)))
    # Indices are in range by construction; "clip" lets take write ``out``
    # without buffering.
    for name, values in prefix.items():
        np.take(np.asarray(values, dtype=np.int64), prefix_idx,
                out=cols[name], mode="clip")
    for name in _COMBO_NAMES:
        np.take(combo[name], option_idx, out=cols[name], mode="clip")
    cols["batch"].fill(int(batch))
    cols["tpm"].fill(_TPM_1D)
    cols["training"].fill(int(bool(opts.training)))
    return cols


__all__ = ["candidate_columns"]

"""The three helpers that let one model formula take floats or float64 arrays.

Every per-layer and per-stage formula of the model is written once, in its
scalar home (:mod:`repro.llm.layers`, :mod:`repro.llm.blocks`,
:mod:`repro.engine.profile`, :mod:`repro.engine.stages`), with ``+ - * /``
and these helpers only.  The scalar oracle calls the formulas on Python
floats; the columnar engine calls the very same functions on NumPy columns,
one lane per candidate (or profile group, or memory bucket).  Elementwise
float64 arithmetic rounds exactly as CPython's float arithmetic does, so
each lane gets the scalar's float bit for bit:

* :func:`select` is the conditional expression ``a if cond else b``;
* :func:`pmax` / :func:`pmin` are Python's two-argument ``max(a, b)`` /
  ``min(a, b)`` -- ``a`` unless ``b`` is strictly greater (smaller) -- which
  fixes the result for NaN and signed-zero operands too;
* :func:`total` is the builtin ``sum()`` of its terms, whose rounding depends
  on the Python (plain left-to-right before 3.12, Neumaier-compensated
  from 3.12 on); arrays take the columnar engine's replay of it.

On Python operands every helper is plain Python and never imports NumPy,
so the scalar model keeps its NumPy-free import path.  An operand is an
array when a comparison on it does not return a ``bool``.
"""

from __future__ import annotations

import math


def select(cond, a, b):
    """``a if cond else b``, lane-wise when ``cond`` is an array."""
    if cond is True:
        return a
    if cond is False:
        return b
    import numpy as np

    return np.where(cond, a, b)


def pmax(a, b):
    """Python's ``max(a, b)``: ``b`` if ``b > a``, else ``a``."""
    if type(a) in _NUMBERS and type(b) in _NUMBERS:
        return b if b > a else a
    import numpy as np

    return _lanewise(np.maximum, np.fmax, a, b, b > a, a > b)


def pmin(a, b):
    """Python's ``min(a, b)``: ``b`` if ``b < a``, else ``a``."""
    if type(a) in _NUMBERS and type(b) in _NUMBERS:
        return b if b < a else a
    import numpy as np

    return _lanewise(np.minimum, np.fmin, a, b, b < a, a < b)


def _lanewise(ufunc, nan_skipping, a, b, picks_b, picks_a):
    """Python's two-argument max/min (``ufunc`` is NumPy's) on columns.

    NumPy's max/min agree with Python's except where the operands are not
    strictly ordered -- equal (signed zeros) or a NaN -- where Python keeps
    ``a``.  A scalar ``b`` that is neither zero nor NaN ties only with an
    equal float and is never the NaN, so ``ufunc`` is exact.  For a scalar
    ``a`` that is neither NaN nor -0.0, ``nan_skipping`` (``fmax``/``fmin``)
    returns ``a`` on a NaN lane, and ``+ 0.0`` makes a tie of zeros
    ``a``'s +0.0.  Otherwise the unordered lanes of ``ufunc``'s result are
    reset to ``a``, which runs several times faster than one ``np.where``
    over a data-dependent mask, except on small columns.  (``picks_a`` is
    only read on that last path.)
    """
    import numpy as np

    if type(b) in _NUMBERS and b == b and b != 0:
        return ufunc(a, b)
    if type(a) in _NUMBERS and a == a:
        if a != 0:
            return nan_skipping(b, a)
        if math.copysign(1.0, a) > 0:
            return nan_skipping(b, a) + 0.0
    if np.size(picks_b) < _SMALL:
        return np.where(picks_b, b, a)
    r = ufunc(a, b)
    if r.dtype.kind == "f":
        np.copyto(r, a, where=~(picks_b | picks_a))
    return r


_NUMBERS = (int, float, bool)

# Below this many lanes one np.where is cheaper than the fix-up's calls.
_SMALL = 2048


def total(terms):
    """The builtin ``sum(terms)``, replayed lane-wise when a term is an array.

    Terms add in the given order.  A ``0.0`` term is an exact identity in
    both builtin forms, so formulas pad a lane's absent terms with zeros.
    """
    terms = list(terms)
    if not any(hasattr(x, "shape") for x in terms):
        return sum(terms)
    # The array replay lives with the columnar engine, which owns the
    # per-Python choice of sum form.  Scalar zeros are identities there,
    # so they are left out.
    from .engine.batch import _builtin_sum

    return _builtin_sum([x for x in terms if hasattr(x, "shape") or x != 0.0])


__all__ = ["pmax", "pmin", "select", "total"]

"""One float fold for every path that must agree bit for bit.

From Python 3.12 on, builtin ``sum`` over floats is a compensated
(Neumaier) sum, so it can round differently from the plain left fold
the fleet kernel runs (``acc += x``, ``np.cumsum``). Scalar code whose
totals the kernel reproduces folds with :func:`left_sum` instead, which
rounds the same way on every Python: on 3.11 and older it equals
``sum`` bit for bit.
"""

from __future__ import annotations

from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...``, rounding after every add."""
    total = 0.0
    for value in values:
        total += value
    return total

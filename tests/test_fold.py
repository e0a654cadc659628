"""The one float fold shared by the scalar path and the fleet kernel."""

from __future__ import annotations

import numpy as np

from repro.fold import left_sum


def test_left_sum_is_the_plain_left_fold():
    # A compensated sum (builtin ``sum`` from Python 3.12) rounds this
    # to 1.0; the left fold the kernel runs does not.
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum(iter([0.1] * 10)) == float(np.cumsum([0.1] * 10)[-1])


def test_left_sum_of_nothing_is_float_zero():
    total = left_sum([])
    assert total == 0.0 and isinstance(total, float)

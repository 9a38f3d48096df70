"""Order statistics shared by the runner and the compare mode."""

from __future__ import annotations

import statistics
from typing import Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: Sequence[float]) -> tuple[float, float, bool]:
    """The highest percentile with at least ten samples beyond it, capped at p99.

    Returns (value, percentile, rule_met).  Below 1000 samples this is the
    11th largest sample; from 1000 on it is p99.  With fewer than 11 samples
    no percentile qualifies: the maximum is returned with rule_met False.
    """
    n = len(values)
    ordered = sorted(values)
    if n < 11:
        return ordered[-1], 100.0, False
    if n >= 1000:
        return statistics.quantiles(ordered, n=100)[98], 99.0, True
    return ordered[n - 11], 100.0 * (n - 10) / n, True

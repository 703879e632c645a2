"""Order statistics used by the benchmark and its spread check."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear between closest ranks."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile: no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile: q={q} outside [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as `statistics.quantiles(values, n=4)` gives them."""
    q1, q2, q3 = statistics.quantiles([float(v) for v in values], n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2)


def median_se(values) -> float:
    """Standard error of a sample's median, 1.2533 * sigma / sqrt(n), with
    sigma read off the quartiles (IQR / 1.349) so that outliers do not inflate it."""
    q1, _, q3 = quartiles(values)
    return 1.2533 * (q3 - q1) / 1.349 / math.sqrt(len(values))

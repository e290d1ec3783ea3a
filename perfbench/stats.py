"""The benchmark's clock and the order statistics of its samples."""

from __future__ import annotations

import time

clock = time.perf_counter


def mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def tail(values, q: float) -> dict:
    """A tail percentile with the sample count and how many lie beyond it."""
    v = quantile(values, q)
    return {"value": v, "q": q, "n": len(values),
            "beyond": sum(1 for x in values if x > v)}

"""Percentiles with the sample-count rule the benchmark reports them under.

A percentile is the nearest-rank value: the smallest sample with at least
p% of the samples at or below it.  A tail percentile is only worth quoting
when at least ``MIN_BEYOND`` samples lie above it; ``highest_supported``
names the highest such percentile for a sample count.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10
CANDIDATES = (50.0, 90.0, 99.0, 99.9)


def _rank(n: int, p: float) -> int:
    """1-based nearest rank; rounding first keeps 99.9% of 10,000 at 9,990."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample, 0 < p <= 100."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError("p must lie in (0, 100]")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """Number of samples strictly above the nearest-rank p-th percentile."""
    return n - _rank(n, p) if n else 0


def highest_supported(n: int) -> float | None:
    """Highest of CANDIDATES with at least MIN_BEYOND samples above it."""
    ok = [p for p in CANDIDATES if beyond(n, p) >= MIN_BEYOND]
    return max(ok) if ok else None


def describe(values, p: float) -> str:
    """``p99=8.123 (n=2400, 24 beyond)``, with a warning when under-sampled."""
    n = len(values)
    text = f"p{p:g}={percentile(values, p):.6g} (n={n}, {beyond(n, p)} beyond)"
    if beyond(n, p) < MIN_BEYOND:
        text += f" [fewer than {MIN_BEYOND} samples beyond]"
    return text


def median(values) -> float:
    return float(statistics.median(values))

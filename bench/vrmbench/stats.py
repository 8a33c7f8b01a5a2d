"""Summary statistics the benchmark reports."""
from __future__ import annotations

import math

MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the value at 1-based rank ceil(q/100 * n)
    of the ascending sort.  A reported tail must keep at least
    MIN_TAIL_SAMPLES samples strictly beyond that rank, so a percentile
    read from too few samples raises instead of reporting noise."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    if q > 50.0 and n - rank < MIN_TAIL_SAMPLES:
        raise ValueError(f"p{q:g} of {n} samples leaves {n - rank} beyond it, "
                         f"fewer than {MIN_TAIL_SAMPLES}")
    return xs[rank - 1]


def samples_needed(q: float) -> int:
    """Smallest sample count whose p``q`` keeps MIN_TAIL_SAMPLES beyond it."""
    n = 1
    while n - max(1, math.ceil(q / 100.0 * n)) < MIN_TAIL_SAMPLES:
        n += 1
    return n


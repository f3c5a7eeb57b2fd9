"""Order statistics used by every workload."""

import math


def median(values):
    """Median of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, p):
    """Exact p-th percentile (0..100) by linear interpolation between
    closest ranks; 0.0 for an empty sequence."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def ratio(numerator, denominator):
    """numerator / denominator, 0.0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0

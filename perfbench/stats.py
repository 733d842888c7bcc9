"""Summary statistics shared by the workloads: medians, tails, means."""

import math


def median(values):
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def median_of_medians(groups):
    """The median over request types of each type's median latency.

    Request types whose costs differ several-fold would put a pooled median
    on the edge between two of them, where it jumps from run to run.
    """
    return median([median(group) for group in groups if group])


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(values, pct):
    """How many samples lie strictly above the ``pct`` percentile rank."""
    return len(values) - max(1, math.ceil(pct / 100 * len(values)))


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values):
    return sum(values) / len(values) if values else 0.0


def tail(values, pct, label, warnings):
    """The ``pct`` percentile, noting in ``warnings`` when it has <10 samples beyond it."""
    count = beyond(values, pct)
    if count < 10:
        warnings.append(f"{label}: p{pct:g} has only {count} samples beyond it "
                        f"({len(values)} samples)")
    return percentile(values, pct)

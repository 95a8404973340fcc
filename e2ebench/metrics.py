"""Metric math of the end-to-end benchmark.

Everything here is a pure function over what the harness measured, so
test_metrics.py can check it on hand-built inputs.
"""

import math

# Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
# A percentile is supported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
TOP_N = 20


def _rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples (the
    epsilon keeps 99.9% of 10000 at rank 9990 despite float rounding)."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def tail_samples(n, p):
    """Samples strictly beyond the p-th percentile of n samples."""
    return n - _rank(n, p)


def highest_supported_percentile(n):
    """The highest reportable percentile: the largest of PERCENTILES with
    at least MIN_TAIL_SAMPLES samples beyond it, or None."""
    best = None
    for p in PERCENTILES:
        if tail_samples(n, p) >= MIN_TAIL_SAMPLES:
            best = p
    return best


def average_precision(relevance, relevant_total):
    """AP of one ranking: the mean, over the relevant items, of the
    precision at each relevant item's rank. `relevance` is the relevance
    of every ranked item in rank order; relevant items the ranking never
    reaches contribute precision 0. None when nothing is relevant."""
    if relevant_total <= 0:
        return None
    hits = 0
    total = 0.0
    for rank, rel in enumerate(relevance, start=1):
        if rel:
            hits += 1
            total += hits / rank
    return total / relevant_total


def acc_at_n_normalized(relevance, relevant_total, n=TOP_N):
    """accuracy@n divided by its ceiling min(1, relevant/n), so a corpus
    with fewer than n relevant items can still score 1. None when nothing
    is relevant."""
    if relevant_total <= 0:
        return None
    accuracy = sum(1 for rel in relevance[:n] if rel) / n
    ceiling = min(1.0, relevant_total / n)
    return accuracy / ceiling


def ok_rate(ok, attempted):
    """Requests that returned ok over requests attempted; refused or
    failed requests count against it."""
    if attempted <= 0:
        raise ValueError("ok_rate needs at least one attempted request")
    return ok / attempted


def mean_defined(values):
    """Mean of the values that are not None (None when there are none)."""
    kept = [v for v in values if v is not None]
    return sum(kept) / len(kept) if kept else None


def quality_from_sessions(sessions):
    """(ap, acc20_norm) averaged over scored sessions, each given as
    {"rel": "0101...", "relevant": k}."""
    aps, accs = [], []
    for s in sessions:
        rel = [c == "1" for c in s["rel"]]
        aps.append(average_precision(rel, s["relevant"]))
        accs.append(acc_at_n_normalized(rel, s["relevant"]))
    return mean_defined(aps), mean_defined(accs)

"""Summability diagnostics: block-sum ratios and partial-sum comparisons.

The module holds diagnostics only, and no verdict reads them: every
Finite/Infinite verdict in the package is one analytic threshold
comparison.
"""

from __future__ import annotations

import math

import numpy as np

# Block-sum comparison uses quadrupling blocks (M/4, M] against
# (M/16, M/4].  Doubling blocks cannot tell n^(-1.1) from n^(-0.9) at
# the 0.9 cutoff (their ratios land at 0.93 and 1.07); quadrupling
# pushes them to 0.87 and 1.15, cleanly straddling it.
_BLOCK_CUTOFF = 0.9


def block_ratio_diagnostic(terms: np.ndarray) -> tuple[float, str]:
    """Ratio of the last quadrupling block sum to the one before it."""
    n = terms.size
    if n < 16:
        return math.nan, "too short to compare blocks"
    hi = n
    mid = n // 4
    lo = n // 16
    late = float(np.sum(terms[mid:hi]))
    early = float(np.sum(terms[lo:mid]))
    if early == 0.0:
        if late == 0.0:
            return 0.0, "appears summable"
        return math.inf, "appears divergent"
    ratio = late / early
    if ratio < _BLOCK_CUTOFF:
        return ratio, "appears summable"
    return ratio, "appears divergent"


def partial_sum_ratio(a, n: int) -> float:
    """Partial sum through index n over the series value at 1 - 1/n.

    Compares sum_(k<=n) a_k with sum_k a_k (1-1/n)^k for a nonnegative,
    nonincreasing sequence a indexed from 0; the two stay within
    constant factors of each other, which is the content of the
    partial-sum/transform comparison this package leans on.
    """
    n = int(n)
    if n < 2:
        raise ValueError("comparison point must be at least 2")
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("sequence must be one-dimensional and non-empty")
    if np.any(arr < 0):
        raise ValueError("sequence must be nonnegative")
    if np.any(np.diff(arr) > 0):
        raise ValueError("sequence must be nonincreasing")
    head = arr[:min(n + 1, arr.size)]
    numerator = float(np.sum(head))
    k = np.arange(arr.size, dtype=float)
    denominator = float(np.dot(arr, (1.0 - 1.0 / n) ** k))
    return numerator / denominator

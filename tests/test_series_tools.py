import math

import numpy as np
import pytest

import repairchain as rc
from repairchain.series_tools import block_ratio_diagnostic, partial_sum_ratio


def test_criterion_threshold_for_critical_geometric(geo_half):
    # the paper's criterion: sum of -n * (second difference of w at n+1)
    # * psi_inv(1/n).  psi_inv(1/n) ~ 1/sqrt(n), so with w(n) = n^a it
    # converges iff a < 1/2
    n = np.arange(1.0, 4097.0)
    inv = np.array([rc.psi_inv(geo_half, 1.0 / v) for v in n])
    for a, want in ((0.4, "appears summable"), (0.6, "appears divergent")):
        d2 = (n + 1.0) ** a - 2.0 * n ** a + (n - 1.0) ** a
        _, impression = block_ratio_diagnostic(-n * d2 * inv)
        assert impression == want


def test_block_ratio_on_power_tails():
    n = np.arange(1.0, 100_001.0)
    ratio, impression = block_ratio_diagnostic(n ** -1.1)
    assert impression == "appears summable"
    assert ratio == pytest.approx(4.0 ** -0.1, rel=0.02)
    ratio, impression = block_ratio_diagnostic(n ** -0.9)
    assert impression == "appears divergent"
    assert ratio == pytest.approx(4.0 ** 0.1, rel=0.02)


def test_block_ratio_edge_cases():
    ratio, impression = block_ratio_diagnostic(np.ones(8))
    assert math.isnan(ratio) and impression == "too short to compare blocks"
    ratio, impression = block_ratio_diagnostic(np.zeros(64))
    assert ratio == 0.0 and impression == "appears summable"


def test_partial_sum_ratio_small_case():
    a = np.array([1.0, 0.5, 0.25])
    # head = 1.75 over n = 2 (all three terms), weighted by (1 - 1/2)^k
    want = 1.75 / (1.0 + 0.5 * 0.5 + 0.25 * 0.25)
    assert partial_sum_ratio(a, 2) == pytest.approx(want, rel=1e-14)


def test_partial_sum_ratio_validation():
    with pytest.raises(ValueError):
        partial_sum_ratio(np.array([1.0, 0.5]), 1)
    with pytest.raises(ValueError):
        partial_sum_ratio(np.array([0.5, 1.0]), 4)  # increasing
    with pytest.raises(ValueError):
        partial_sum_ratio(np.array([0.5, -0.1]), 4)  # negative
    for bad in (np.array([[0.5, 0.2], [0.1, 0.0]]), np.array([])):
        with pytest.raises(ValueError, match="one-dimensional"):
            partial_sum_ratio(bad, 4)


def test_partial_sum_ratio_stays_banded(family_model):
    # suffix masses of the jump law are nonincreasing; the comparison
    # ratio should stay within a constant band across the window
    a = family_model.coeffs
    tails = np.cumsum(a[::-1])[::-1]
    window = [100, 316, 1000, 3162, 10_000, 31_623, 100_000]
    vals = [partial_sum_ratio(tails, n) for n in window]
    assert max(vals) / min(vals) < 10.0
    assert all(v > 0.0 for v in vals)

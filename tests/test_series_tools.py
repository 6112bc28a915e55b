import math

import numpy as np
import pytest

import repairchain as rc
from repairchain.errors import InvalidSpec
from repairchain.series_tools import (
    WeightFunction,
    block_ratio_diagnostic,
    criterion_terms,
    partial_sum_ratio,
)


def test_power_weight_values():
    w = WeightFunction.power(0.5)
    n = np.array([1.0, 4.0, 9.0])
    assert np.allclose(w.w(n), [1.0, 2.0, 3.0], atol=1e-15)
    assert w.delta(np.array([4.0]))[0] == pytest.approx(2.0 - math.sqrt(3), abs=1e-14)


def test_log_weight_values():
    w = WeightFunction.log()
    n = np.array([0.0, math.e - 1.0])
    assert np.allclose(w.w(n), [0.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, math.inf])
def test_power_weight_domain(alpha):
    with pytest.raises(InvalidSpec):
        WeightFunction.power(alpha)


def test_admissible_weights_have_concave_increments():
    n = np.arange(2.0, 200.0)
    for w in (WeightFunction.power(0.3), WeightFunction.power(1.0), WeightFunction.log()):
        d = w.delta(n)
        assert np.all(d > 0.0)
        assert np.all(np.diff(d) < 1e-15)
        assert np.all(w.delta2(n) <= 1e-15)


def test_criterion_terms_shape_and_checkpoints():
    w = WeightFunction.power(0.5)
    series = criterion_terms(w, lambda s: s, 2000, checkpoints=(1000, 5000))
    assert series.terms.size == 2000
    assert set(series.partial_sums) == {1000, 2000}
    assert series.partial_sums[2000] >= series.partial_sums[1000]
    assert np.all(series.terms >= 0.0)
    with pytest.raises(ValueError):
        criterion_terms(w, lambda s: s, 1)


def test_criterion_terms_match_hand_sum():
    # w(n) = n and g = identity: -n * delta2 w = 0 everywhere
    w = WeightFunction.power(1.0)
    series = criterion_terms(w, lambda s: s, 64)
    assert series.partial_sums[64] == pytest.approx(0.0, abs=1e-15)
    # w(n) = sqrt(n), g(s) = s: terms -n (d2 sqrt)(n+1) / n computed directly
    w = WeightFunction.power(0.5)
    series = criterion_terms(w, lambda s: s, 8)
    for i, n in enumerate(range(1, 9)):
        d2 = math.sqrt(n + 1) - 2.0 * math.sqrt(n) + math.sqrt(n - 1)
        assert series.terms[i] == pytest.approx(-n * d2 * (1.0 / n), rel=1e-12)


def test_criterion_threshold_for_critical_geometric(geo_half):
    # psi_inv(1/n) ~ 1/sqrt(n): converges against n^a increments iff a < 1/2
    inv = lambda s: rc.psi_inv(geo_half, s)
    lo = criterion_terms(WeightFunction.power(0.4), inv, 4096)
    hi = criterion_terms(WeightFunction.power(0.6), inv, 4096)
    assert lo.impression == "appears summable"
    assert hi.impression == "appears divergent"


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


def test_partial_sum_ratio_stays_banded(family_model):
    # suffix masses of the jump law are nonincreasing; the comparison
    # ratio should stay within a constant band across the window
    a = family_model.coeffs
    tails = np.cumsum(a[::-1])[::-1]
    window = [100, 316, 1000, 3162, 10_000, 31_623, 100_000]
    vals = [partial_sum_ratio(tails, n) for n in window]
    assert max(vals) / min(vals) < 10.0
    assert all(v > 0.0 for v in vals)

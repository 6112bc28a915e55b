import math

import numpy as np
import pytest

import repairchain as rc
from repairchain.errors import NotTransient

import oracles


def test_exit_pmf_geometric_quarter(geo_quarter):
    ea = rc.exit_pmf(geo_quarter, 64)
    assert ea.q_exit == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert ea.pmf[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert ea.pmf[1] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert np.max(np.abs(ea.pmf - ea.q_exit * ea.occupation.u)) == 0.0


def test_exit_pmf_two_step_enumeration(geo_quarter):
    # P(L=1) by brute force: step to j, then never touch 0 again.
    # Only j = 0 puts the walk at 0 at time 1, so P(L=1) = a_0 q.
    G = lambda x: rc.eval_G(geo_quarter, x)
    f1 = oracles.minimal_root(G, 1.0, 2.0 / 3.0)
    q = 1.0 - f1
    ea = rc.exit_pmf(geo_quarter, 8)
    assert ea.pmf[0] == pytest.approx(q, abs=1e-12)
    assert ea.pmf[1] == pytest.approx(geo_quarter.a0 * q, abs=1e-12)


def test_exit_pmf_against_state_evolution():
    m = rc.explicit([0.3, 0.2, 0.5])
    jumps = np.array([0.3, 0.2, 0.5])
    u = oracles.evolve_green(jumps, 60)
    Gp = lambda x: 0.3 + 0.2 * x + 0.5 * x * x
    q = 1.0 - oracles.minimal_root(Gp, 1.0, math.sqrt(0.6))
    ea = rc.exit_pmf(m, 60)
    assert np.max(np.abs(ea.pmf - q * u)) < 1e-10


@pytest.fixture(scope="module")
def exit_quarter_full(geo_quarter):
    return rc.exit_pmf(geo_quarter)  # default N = 2048


def test_exit_pmf_mass_approaches_one(geo_quarter, exit_quarter_full):
    ea = exit_quarter_full
    assert ea.pmf.size == 2049
    total = float(ea.pmf.sum())
    assert total <= 1.0 + 1e-12
    assert 1.0 - total < 1e-12
    shorter = float(rc.exit_pmf(geo_quarter, 16).pmf.sum())
    assert shorter < total


def test_exit_pmf_rejects_recurrent():
    with pytest.raises(NotTransient):
        rc.exit_pmf(rc.geometric(0.5), 16)
    with pytest.raises(NotTransient):
        rc.exit_pmf(rc.geometric(0.75), 16)
    with pytest.raises(NotTransient):
        rc.exit_pmf(rc.power_zeta(3.0), 16)


def test_tilted_criterion_is_the_critical_psi(geo_quarter):
    # psi of the tilted law, straight from the base G:
    # psi_x0(h) = G(x0 (1-h)) / G(x0) - (1-h)
    tilted = rc.tilt_to_critical(geo_quarter)
    x0 = rc.decay_params(geo_quarter).x0
    gx0 = rc.eval_G(geo_quarter, x0)
    for h in np.linspace(0.0, 1.0, 21):
        want = rc.eval_G(geo_quarter, x0 * (1.0 - h)) / gx0 - (1.0 - h)
        assert rc.psi(tilted, float(h)) == pytest.approx(want, abs=1e-12)


def test_exit_weight_threshold_realized(geo_quarter, exit_quarter_full):
    # block sums of R0^n n^a P(L=n) settle below the 0.9 cutoff for
    # a = 0.4 and keep growing for a = 0.6.  Stop at N = 2048: the pmf
    # underflows near n = 2590 and zero tails fake summability.
    from repairchain.series_tools import block_ratio_diagnostic

    ea = exit_quarter_full
    dp = rc.decay_params(geo_quarter)
    n = np.arange(1, ea.pmf.size, dtype=float)
    base = ea.pmf[1:]
    assert np.all(base > 0.0)
    for a, want in ((0.4, "appears summable"), (0.6, "appears divergent")):
        terms = np.exp(np.log(base) + n * math.log(dp.R0) + a * np.log(n))
        _, impression = block_ratio_diagnostic(terms)
        assert impression == want


def test_exit_weighted_verdicts(geo_quarter):
    v = rc.exit_weighted_verdict(geo_quarter)
    assert v.verdict is rc.VerdictLabel.FINITE
    assert v.quantity == "E(R0^L)"
    v = rc.exit_weighted_verdict(geo_quarter, k=1)
    assert v.verdict is rc.VerdictLabel.INFINITE
    v = rc.exit_weighted_verdict(geo_quarter, k=2)
    assert v.verdict is rc.VerdictLabel.INFINITE
    v = rc.exit_weighted_verdict(geo_quarter, alpha=0.4)
    assert v.verdict is rc.VerdictLabel.FINITE
    v = rc.exit_weighted_verdict(geo_quarter, alpha=0.6)
    assert v.verdict is rc.VerdictLabel.INFINITE


def test_exit_weighted_verdict_other_transients():
    m = rc.explicit([0.3, 0.2, 0.5])
    assert rc.exit_weighted_verdict(m, alpha=0.4).verdict is rc.VerdictLabel.FINITE
    assert rc.exit_weighted_verdict(m, alpha=0.6).verdict is rc.VerdictLabel.INFINITE


def test_exit_weighted_verdict_validation(geo_quarter):
    with pytest.raises(NotTransient):
        rc.exit_weighted_verdict(rc.geometric(0.5))
    with pytest.raises(ValueError):
        rc.exit_weighted_verdict(geo_quarter, k=-1)
    with pytest.raises(ValueError):
        rc.exit_weighted_verdict(geo_quarter, alpha=0.0)
    with pytest.raises(ValueError):
        rc.exit_weighted_verdict(geo_quarter, alpha=-0.3)

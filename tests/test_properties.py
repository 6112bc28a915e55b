"""Structural identities checked over randomized inputs.

Each property here is an exact statement about the transform machinery,
so the assertions carry tight tolerances; hypothesis supplies the jump
laws and evaluation points.  derandomize keeps every run identical.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repairchain as rc
from repairchain.series_tools import partial_sum_ratio

import oracles
from oracles import minimal_root

SETTINGS = {"derandomize": True, "deadline": None, "max_examples": 60}

NULL_MODELS = [rc.geometric(0.5), rc.half_stable()]


@st.composite
def jump_models(draw):
    pick = draw(st.integers(0, 3))
    if pick == 0:
        return rc.geometric(draw(st.floats(0.1, 0.9)))
    if pick == 1:
        return rc.power_zeta(draw(st.floats(2.1, 6.0)))
    if pick == 2:
        return rc.half_stable()
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=6))
    total = math.fsum(weights)
    a = [w / total for w in weights]
    a[0] += 1.0 - math.fsum(a)  # pin the mass exactly
    assume(a[0] + a[1] < 0.999)
    return rc.explicit(a)


# ---------------------------------------------------------------------------
# return-time transform


@settings(**SETTINGS)
@given(t=st.floats(0.05, 1.0))
def test_minimal_root_property(family_model, t):
    val = rc.eval_F(family_model, t)
    residual = val - t * rc.eval_G(family_model, val)
    assert abs(residual) < 1e-12
    bracketed = minimal_root(lambda x: rc.eval_G(family_model, x), t, 1.0)
    assert val <= bracketed + 1e-10


def test_renewal_identity(family_model):
    n_max = 400
    analysis = rc.return_pmf(family_model, n_max)
    f, u = analysis.f, analysis.u
    conv = np.convolve(f, u)[: n_max + 1]
    assert np.max(np.abs(u[1:] - conv[1:])) < 1e-12
    assert u[0] == 1.0


@settings(**SETTINGS)
@given(k=st.integers(3, 12), sign=st.sampled_from([-1.0, 1.0]),
       c=st.floats(1.0, 9.9))
def test_return_prob_near_criticality(k, sign, c):
    # geometric(1/2 +- c 10^-k): the return probability is 1 exactly on
    # the recurrent side and p/q below it, with q_exit = (1 - 2p)/(1 - p)
    # resolved far below the spacing of doubles next to 1
    p = 0.5 + sign * c * 10.0**-k
    model = rc.geometric(p)
    prob = rc.return_pmf(model, 4).return_prob
    assert 0.0 <= prob <= 1.0
    recurrent = rc.classify(model) is not rc.ChainClass.TRANSIENT
    assert (prob == 1.0) == recurrent
    if not recurrent:
        want = (1.0 - 2.0 * p) / (1.0 - p)
        assert rc.exit_pmf(model, 4).q_exit == pytest.approx(want, rel=1e-6)


@settings(**SETTINGS)
@given(t=st.floats(0.05, 0.999))
def test_return_transform_vs_inverse_drift(t):
    # the drift identity ties 1 - F(t) to the inverse drift function at
    # (1-t) F(t)/t for critical chains
    for model in NULL_MODELS:
        val = rc.eval_F(model, t)
        assert abs((1.0 - val) - rc.psi_inv(model, (1.0 - t) * val / t)) < 1e-9


# ---------------------------------------------------------------------------
# drift function shape


@settings(**SETTINGS)
@given(x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0))
def test_psi_superadditive(family_model, x, y):
    assume(x + y <= 1.0)
    lhs = rc.psi(family_model, x + y)
    rhs = rc.psi(family_model, x) + rc.psi(family_model, y)
    assert lhs >= rhs - 1e-12


@settings(**SETTINGS)
@given(x=st.floats(1e-4, 1.0), n=st.sampled_from([2, 3, 5]))
def test_psi_quadratic_doubling(family_model, x, n):
    # psi(n x) <= n^2 psi(x) on [0, 1/n]; the convexity direction alone
    # gives only the lower bound, this is the one that needs the law
    x = x / n
    lhs = rc.psi(family_model, n * x)
    rhs = n * n * rc.psi(family_model, x)
    assert lhs <= rhs * (1.0 + 1e-9) + 1e-13


@settings(**SETTINGS)
@given(x=st.floats(0.0, 0.8), y=st.floats(0.0, 0.8))
def test_psi_inverse_subadditive(family_model, x, y):
    lhs = rc.psi_inv(family_model, x + y)
    rhs = rc.psi_inv(family_model, x) + rc.psi_inv(family_model, y)
    assert lhs <= rhs + 5e-13


@settings(**SETTINGS)
@given(h=st.floats(0.0, 1.0))
def test_psi_matched_by_series_evaluation(family_model, h):
    direct = rc.psi(family_model, h)
    indirect = oracles.eval_G_by_series(family_model, 1.0 - h) - (1.0 - h)
    assert direct == pytest.approx(indirect, rel=1e-8, abs=1e-9)


# ---------------------------------------------------------------------------
# reweighting


@settings(**SETTINGS)
@given(model=jump_models(), frac=st.floats(0.1, 0.95), s=st.floats(0.0, 1.0))
def test_tilt_normalization_and_transform(model, frac, s):
    hi = model.radius if math.isfinite(model.radius) else 4.0
    x = frac * hi
    assume(x > 1e-6 and math.isfinite(rc.eval_G(model, x)))
    tilted = rc.tilt(model, x)
    mass = math.fsum(tilted.coeffs.tolist())
    assert mass <= 1.0 + 1e-12
    assert 1.0 - mass <= tilted.tail_bound + 1e-12
    # transform identity G_x(s) = G(x s) / G(x)
    want = rc.eval_G(model, x * s) / rc.eval_G(model, x)
    assert rc.eval_G(tilted, s) == pytest.approx(want, rel=1e-10, abs=1e-12)
    # mean of the reweighted law
    want_mu = x * rc.eval_G(model, x, 1) / rc.eval_G(model, x)
    assert tilted.mu == pytest.approx(want_mu, rel=1e-9, abs=1e-10)


@settings(**SETTINGS)
@given(p=st.floats(0.05, 0.45), frac=st.floats(0.05, 0.95))
def test_eta_never_exceeds_decay_radius(p, frac):
    # x / G(x) is maximized at the tangency point, where it equals R1
    model = rc.geometric(p)
    params = rc.decay_params(model)
    x = frac * model.radius
    eta = x / rc.eval_G(model, x)
    assert eta <= params.R1 * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# partial-sum comparison band

WINDOW = [100, 1000, 10_000, 100_000]


@settings(derandomize=True, deadline=None, max_examples=20)
@given(alpha=st.floats(1.2, 4.0))
def test_partial_sum_band_power_sequences(alpha):
    k = np.arange(1.0, 200_001.0)
    vals = [partial_sum_ratio(k ** -alpha, n) for n in WINDOW]
    assert max(vals) / min(vals) < 10.0


@settings(derandomize=True, deadline=None, max_examples=20)
@given(r=st.floats(0.2, 0.95))
def test_partial_sum_band_geometric_sequences(r):
    seq = r ** np.arange(2000.0)
    vals = [partial_sum_ratio(seq, n) for n in WINDOW]
    assert max(vals) / min(vals) < 10.0
    # a summable sequence ends up comparing two near-equal totals
    assert 1.0 <= vals[-1] < 1.001

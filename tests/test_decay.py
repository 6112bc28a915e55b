import gc
import math
import weakref

import numpy as np
import pytest
from scipy.optimize import brentq

import repairchain as rc
from repairchain.decay import eta, xi
from repairchain.errors import OutOfRadius
from repairchain.model import _FAMILIES
from repairchain.return_time import escape_prob


# geometric(p): xi(x) = 0 at x0 = 1/(2q), eta there is 1/(4pq), F(R1) = x0
@pytest.mark.parametrize("p", [0.2, 0.25, 0.75, 0.8])
def test_geometric_tangency_closed_form(p):
    q = 1.0 - p
    dp = rc.decay_params(rc.geometric(p))
    assert abs(dp.x0 - 1.0 / (2.0 * q)) < 1e-10
    assert abs(dp.R1 - 1.0 / (4.0 * p * q)) < 1e-10
    assert abs(dp.F_at_R1 - 1.0 / (2.0 * q)) < 1e-9
    if p < 0.5:
        assert dp.case_label is rc.CaseLabel.TRANSIENT_TILT
        assert dp.R0 == dp.R1
    else:
        assert dp.case_label is rc.CaseLabel.INTERIOR_CRITICAL
        assert dp.R0 == 1.0


def test_critical_chains_collapse_to_one():
    dp = rc.decay_params(rc.geometric(0.5))
    assert (dp.x0, dp.R0, dp.R1, dp.F_at_R1) == (1.0, 1.0, 1.0, 1.0)
    assert dp.case_label is rc.CaseLabel.CRITICAL_RADIUS_ONE
    dp = rc.decay_params(rc.half_stable())
    assert (dp.x0, dp.R0, dp.R1, dp.F_at_R1) == (1.0, 1.0, 1.0, 1.0)


def test_power_zeta_has_no_tilt_room():
    # positive recurrent but the series already stops converging at 1
    dp = rc.decay_params(rc.power_zeta(3.0))
    assert dp.x0 is None
    assert (dp.R0, dp.R1, dp.F_at_R1) == (1.0, 1.0, 1.0)
    assert dp.case_label is rc.CaseLabel.CRITICAL_RADIUS_ONE


def test_boundary_case_tilted_power_zeta():
    m = rc.tilt(rc.power_zeta(3.0), 0.5)
    assert rc.classify(m) is rc.ChainClass.POSITIVE_RECURRENT
    dp = rc.decay_params(m)
    assert dp.case_label is rc.CaseLabel.BOUNDARY_CASE
    assert dp.x0 is None
    assert dp.R0 == 1.0
    assert dp.F_at_R1 == m.radius == 2.0
    assert dp.R1 == pytest.approx(eta(m, 2.0), abs=1e-12)
    assert dp.R1 == pytest.approx(1.8511472255678394, abs=1e-12)
    # no interior tangency: xi stays positive up to the radius
    for x in np.linspace(1.0, 2.0, 9):
        assert xi(m, float(x)) > 0.0


BOUNDARY_LAWS = {
    **{f"geometric({p})": (lambda p=p: rc.geometric(p)) for p in
       (0.2, 0.5000001, 0.51, 0.6, 0.75, 0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999)},
    "explicit[0.5,0.2,0.3]": lambda: rc.explicit([0.5, 0.2, 0.3]),
    "explicit[0.6,0.1,0.3]": lambda: rc.explicit([0.6, 0.1, 0.3]),
    "explicit[0.9,0,0,0,0.1]": lambda: rc.explicit([0.9, 0.0, 0.0, 0.0, 0.1]),
    "explicit[0.3,0.2,0.5]": lambda: rc.explicit([0.3, 0.2, 0.5]),
    "explicit[0.5,0,0.5]": lambda: rc.explicit([0.5, 0.0, 0.5]),
    "tilt(geometric(0.25),0.5)": lambda: rc.tilt(rc.geometric(0.25), 0.5),
    "tilt(explicit,2)": lambda: rc.tilt(rc.explicit([0.5, 0.2, 0.3]), 2.0),
    **{f"tilt(half_stable,{x})": (lambda x=x: rc.tilt(rc.half_stable(), x))
       for x in (0.1, 0.5, 0.75, 0.9, 0.999)},
    **{f"tilt(power_zeta(3),{x})": (lambda x=x: rc.tilt(rc.power_zeta(3.0), x))
       for x in (0.1, 0.5, 0.9)},
}


@pytest.mark.parametrize("factory", BOUNDARY_LAWS.values(), ids=BOUNDARY_LAWS.keys())
def test_boundary_case_only_for_tilted_laws(factory):
    # a geometric law has the interior x0 = 1/(2q) < 1/q, an explicit law
    # an infinite radius; only a tilt of a radius-1 law can end on its
    # finite radius with no tangency point
    m = factory()
    label = rc.decay_params(m).case_label
    assert label is not rc.CaseLabel.BOUNDARY_CASE or m.family == "tilted"


def test_geometric_xi_is_negative_at_the_radius():
    # the laws of finite radius with no boundary law are geometric; G'
    # diverges at R = 1/q, so xi(R) < 0 puts x0 inside (1, R]
    ps = np.random.default_rng(14).uniform(0.5, 1.0, 20_000)
    for p in [*ps[ps > 0.5].tolist(), 0.5 + 1e-15, 1.0 - 2.0 ** -53]:
        m = rc.geometric(p)
        assert _FAMILIES["geometric"].boundary(m) is None
        assert xi(m, m.radius) < 0.0, p


def test_explicit_transient_doubling_search():
    # polynomial G, infinite radius, mean 1.2: xi = 0.3 - 0.5 x^2
    m = rc.explicit([0.3, 0.2, 0.5])
    dp = rc.decay_params(m)
    assert dp.case_label is rc.CaseLabel.TRANSIENT_TILT
    assert dp.x0 == pytest.approx(math.sqrt(0.6), abs=1e-12)
    assert dp.R1 == pytest.approx(1.0260654807883631, abs=1e-12)
    assert dp.R0 == dp.R1


def test_explicit_positive_recurrent_interior_root():
    # reversed coefficients of the transient cousin; eta inverts its
    # argument under that reversal, so R1 must agree exactly
    m = rc.explicit([0.5, 0.2, 0.3])
    dp = rc.decay_params(m)
    assert dp.case_label is rc.CaseLabel.INTERIOR_CRITICAL
    assert dp.x0 == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-12)
    assert dp.R1 == pytest.approx(1.0260654807883631, abs=1e-12)
    assert dp.R0 == 1.0


def test_x0_solves_tangency_equation(family_model):
    dp = rc.decay_params(family_model)
    if dp.x0 is None:
        return
    assert abs(xi(family_model, dp.x0)) < 1e-12


def test_x0_against_bracketing_oracle():
    for model, lo, hi in [
        (rc.geometric(0.25), 1e-6, 1.0),
        (rc.geometric(0.75), 1.0, 3.9),
        (rc.explicit([0.5, 0.2, 0.3]), 1.0, 10.0),
    ]:
        root = brentq(lambda x: xi(model, x), lo, hi, xtol=1e-14)
        assert rc.decay_params(model).x0 == pytest.approx(root, abs=1e-10)


def test_eta_is_maximized_at_x0():
    for model in (rc.geometric(0.25), rc.geometric(0.8), rc.explicit([0.5, 0.2, 0.3])):
        dp = rc.decay_params(model)
        grid = np.linspace(0.05, dp.x0 * 1.9, 97)
        vals = [eta(model, float(x)) for x in grid]
        assert max(vals) <= dp.R1 + 1e-12


def test_tilt_to_critical_lands_on_the_critical_line():
    for model in (rc.geometric(0.25), rc.geometric(0.75), rc.explicit([0.3, 0.2, 0.5])):
        critical = rc.tilt_to_critical(model)
        assert rc.classify(critical) is rc.ChainClass.NULL_RECURRENT
        assert abs(critical.mu - 1.0) < 1e-12


def test_tilt_to_critical_refuses_radius_one():
    with pytest.raises(OutOfRadius):
        rc.tilt_to_critical(rc.power_zeta(3.0))


def test_decay_params_cached():
    m = rc.geometric(0.75)
    assert rc.decay_params(m) is rc.decay_params(m)


def test_decay_params_cache_lets_models_go():
    m = rc.geometric(0.75)
    rc.decay_params(m)
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None


def test_decay_cache_entry_dies_with_its_model_and_not_its_twin():
    # models hash by identity: an equal law is its own key, and the weak
    # cache drops exactly the entry of the model that went
    from repairchain.decay import _PARAMS

    m, twin = rc.geometric(0.7), rc.geometric(0.7)
    assert rc.decay_params(m) == rc.decay_params(twin)
    assert m in _PARAMS and twin in _PARAMS
    gc.collect()  # models that other tests left in cycles go first
    size = len(_PARAMS)
    del m
    gc.collect()
    assert len(_PARAMS) == size - 1 and twin in _PARAMS


_EPS = np.finfo(float).eps


@pytest.mark.parametrize("model, lo, hi", [
    (rc.geometric(0.1), 1e-12, 1.0),
    (rc.geometric(0.25), 1e-12, 1.0),
    (rc.geometric(0.4999), 1e-12, 1.0),
    (rc.explicit([0.2, 0.3, 0.1, 0.4]), 1e-12, 1.0),
    (rc.explicit([0.1, 0.0, 0.0, 0.0, 0.9]), 1e-12, 1.0),
    (rc.geometric(0.6), 1.0, 2.5),
    (rc.geometric(0.75), 1.0, 4.0),
    (rc.explicit([0.5, 0.2, 0.3]), 1.0, 10.0),
    (rc.explicit([0.6, 0.1, 0.3]), 1.0, 10.0),
])
def test_find_x0_matches_brentq(model, lo, hi):
    root = brentq(lambda x: xi(model, x), lo, hi, xtol=1e-15, rtol=4 * _EPS)
    assert abs(rc.find_x0(model) - root) <= 4 * _EPS * root


@pytest.mark.parametrize("offset", [-4e-12, -5e-13, 0.0, 5e-13, 4e-12])
def test_regime_follows_classify_at_the_critical_tolerance(offset):
    # explicit [1/2 - d, 0, 1/2 + d] has mu = 1 + 2d, on either side of CRITICAL_TOL
    d = offset / 2.0
    model = rc.explicit([0.5 - d, 0.0, 0.5 + d])
    cls = rc.classify(model)
    dp = rc.decay_params(model)
    want = {rc.ChainClass.TRANSIENT: rc.CaseLabel.TRANSIENT_TILT,
            rc.ChainClass.NULL_RECURRENT: rc.CaseLabel.CRITICAL_RADIUS_ONE,
            rc.ChainClass.POSITIVE_RECURRENT: rc.CaseLabel.INTERIOR_CRITICAL}[cls]
    assert dp.case_label is want
    assert (dp.x0 == 1.0) == (cls is rc.ChainClass.NULL_RECURRENT)
    assert (escape_prob(model) > 0.0) == (cls is rc.ChainClass.TRANSIENT)
    assert rc.find_x0(model) == dp.x0
    assert rc.tilt_to_critical(model).mu == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("model", [
    rc.geometric(0.25), rc.geometric(0.5), rc.geometric(0.75), rc.half_stable(),
    rc.power_zeta(3.0), rc.tilt(rc.power_zeta(3.0), 0.5), rc.explicit([0.5, 0.2, 0.3]),
    rc.explicit([0.2, 0.3, 0.5]),
], ids=lambda m: m.family)
def test_find_x0_is_the_decay_tangency_point(model):
    assert rc.find_x0(model) == rc.decay_params(model).x0


@pytest.mark.parametrize("a0", [1e-20, 1e-30, 1e-100, 1e-300])
def test_transient_tangency_far_below_one(a0):
    # explicit [a0, 0, 1]: xi = a0 - x^2, so x0 = sqrt(a0) and R1 = 1/(2 sqrt(a0));
    # the bracket of a transient root reaches down to 0
    model = rc.explicit([a0, 0.0, 1.0])
    dp = rc.decay_params(model)
    assert dp.case_label is rc.CaseLabel.TRANSIENT_TILT
    root = math.sqrt(a0)
    assert dp.x0 == pytest.approx(root, rel=1e-15, abs=0.0)
    assert dp.R1 == pytest.approx(0.5 / root, rel=1e-15, abs=0.0)
    assert rc.classify(rc.tilt_to_critical(model)) is rc.ChainClass.NULL_RECURRENT


@pytest.mark.parametrize("a, k", [([1 - 2 ** -40, 0.0, 2 ** -40], 20),
                                  ([1 - 2 ** -53, 0.0, 5e-324], 537)],
                         ids=["2^20", "2^537"])
def test_doubling_search_has_no_step_cap(a, k):
    # xi = a_0 - a_2 x^2 with nothing to cancel (a_1 = 0), so
    # x0 = sqrt(a_0 / a_2) = 2^k sqrt(a_0), k doublings out from 1
    dp = rc.decay_params(rc.explicit(a))
    assert dp.case_label is rc.CaseLabel.INTERIOR_CRITICAL
    assert dp.x0 == pytest.approx(math.ldexp(math.sqrt(a[0]), k), rel=1e-15, abs=0.0)


def test_explicit_xi_drops_the_a1_term():
    # xi = a_0 - a_2 x^2 exactly; G(x) - x G'(x) by subtraction leaves the
    # rounding of a_1 x against a_1 x, about 1e-16 x, and put x0 at 1.35e16
    model = rc.explicit([0.5, 0.5 - 2 ** -53, 1e-300])
    dp = rc.decay_params(model)
    assert dp.case_label is rc.CaseLabel.INTERIOR_CRITICAL
    root = math.sqrt(0.5 / 1e-300)
    assert dp.x0 == pytest.approx(root, rel=1e-15, abs=0.0)
    assert dp.F_at_R1 == pytest.approx(root, rel=1e-15, abs=0.0)


def _bisection_laws():
    laws = {f"geometric({p})": rc.geometric(p)
            for p in (0.05, 0.2, 0.3, 0.45, 0.55, 0.7, 0.9, 0.99)}
    for x in (0.1, 0.5, 0.75, 0.9):
        laws[f"tilt(half_stable,{x})"] = rc.tilt(rc.half_stable(), x)
        laws[f"tilt(power_zeta(2.5),{x})"] = rc.tilt(rc.power_zeta(2.5), x)
    laws["explicit[1e-30,0,1]"] = rc.explicit([1e-30, 0.0, 1.0])
    rng = np.random.default_rng(20261018)
    for i in range(40):
        laws[f"explicit#{i}"] = rc.explicit(rng.dirichlet(np.ones(3 + i % 6)).tolist())
    return laws


BISECTION_LAWS = _bisection_laws()


@pytest.mark.parametrize("model", BISECTION_LAWS.values(), ids=BISECTION_LAWS.keys())
def test_bisected_x0_is_the_first_double_with_xi_not_positive(model):
    dp = rc.decay_params(model)
    if dp.case_label not in (rc.CaseLabel.TRANSIENT_TILT, rc.CaseLabel.INTERIOR_CRITICAL):
        return
    if dp.x0 == model.radius:
        # not bisected: a critical law at the radius puts the tangency there
        boundary = _FAMILIES[model.family].boundary(model)
        assert rc.classify(boundary) is rc.ChainClass.NULL_RECURRENT
        return
    assert xi(model, dp.x0) <= 0.0 < xi(model, math.nextafter(dp.x0, 0.0))


def test_every_half_stable_tilt_is_tangent_at_its_radius():
    # exactly, xi(1/x) = 0 and the law at the radius is half_stable itself;
    # deciding on the rounding of xi(R) or of x (1/x) left about a quarter
    # of these BoundaryCase, with an Unknown weighted verdict
    half = rc.half_stable()
    for x in np.random.default_rng(1).uniform(0.05, 0.99, 250):
        m = rc.tilt(half, float(x))
        dp = rc.decay_params(m)
        assert dp.case_label is rc.CaseLabel.INTERIOR_CRITICAL, x
        assert dp.x0 == dp.F_at_R1 == m.radius
        assert dp.R1 == eta(m, m.radius)
        assert rc.tilt_to_critical(m) is half
        labels = [rc.tau_alpha_finite(m, a, r1_weighted=True).verdict.value
                  for a in (0.3, 0.6, 0.7)]
        assert labels == ["Finite", "Finite", "Infinite"], x


def test_power_zeta_tilts_stay_on_the_boundary():
    # a positive recurrent law at the radius leaves no tangency point
    rng = np.random.default_rng(2)
    for alpha in (2.5, 3.0):
        for x in rng.uniform(0.05, 0.99, 50):
            m = rc.tilt(rc.power_zeta(alpha), float(x))
            dp = rc.decay_params(m)
            assert dp.case_label is rc.CaseLabel.BOUNDARY_CASE and dp.x0 is None
            assert dp.F_at_R1 == m.radius
            with pytest.raises(OutOfRadius):
                rc.tilt_to_critical(m)

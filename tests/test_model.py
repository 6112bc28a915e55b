import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import repairchain as rc
from repairchain.errors import InvalidSpec, OutOfRadius
from repairchain.model import _PZ_SWITCH, _zeta

import oracles

EPS = sys.float_info.epsilon


def test_geometric_cache_matches_closed_form():
    m = rc.geometric(0.25)
    want = oracles.geometric_jumps(0.25, m.coeffs.size)
    # vectorized powers may differ from scalar powers by an ulp
    assert np.all(np.abs(m.coeffs - want) <= np.spacing(want))
    assert 0.0 < 1.0 - math.fsum(m.coeffs) < 1e-12
    assert m.a0 == 0.25
    assert m.radius == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_geometric_mu_exact_at_half():
    assert rc.geometric(0.5).mu == 1.0


def test_half_stable_cache_matches_rational_oracle():
    m = rc.half_stable()
    want = oracles.half_stable_jumps(200)
    got = m.coeffs[:200]
    assert np.max(np.abs(got - want)) < 1e-17
    # cache cannot reach the 1e-12 tail target for a 3/2-power law;
    # the mass it leaves out stays below 1e-10
    assert 0.0 < 1.0 - math.fsum(m.coeffs) < 1e-10
    assert m.mu == 1.0
    assert m.radius == 1.0


def test_power_zeta_cache_and_mu():
    m = rc.power_zeta(3.0)
    want = oracles.power_zeta_jumps(3.0, 50)
    assert np.max(np.abs(m.coeffs[:50] - want)) == 0.0
    assert m.mu == pytest.approx(oracles.zeta_by_summation(3.0) - 1.0, abs=1e-13)
    assert 0.0 < 1.0 - math.fsum(m.coeffs) <= 1e-12
    assert m.radius == 1.0


def test_explicit_validation_and_trim():
    m = rc.explicit([0.5, 0.2, 0.3, 0.0, 0.0])
    assert m.coeffs.size == 3
    assert math.fsum(m.coeffs) == pytest.approx(1.0, abs=1e-15)
    assert m.radius == math.inf


@pytest.mark.parametrize(
    "bad",
    [
        [0.0, 0.5, 0.5],            # a_0 = 0
        [0.6, 0.4],                 # a_0 + a_1 = 1
        [0.7, 0.5, -0.2],           # negative entry
        [0.5, 0.2, 0.2],            # does not sum to 1
        [],                         # empty
        [0.5, 0.2, math.nan, 0.3],  # not finite
        [0.5, 0.5 - 1e-13],         # no mass above 1, though a_0 + a_1 < 1
        [0.5, 0.5 - 1e-13, 0.0],
    ],
)
def test_explicit_rejects(bad):
    with pytest.raises(InvalidSpec):
        rc.explicit(bad)


def test_explicit_keeps_mass_above_one_that_a_0_plus_a_1_rounds_away():
    # a_0 + a_1 may round to 1 while a_2 > 0: the law the tangency tilt of
    # [0.5, 0.5 - 2^-53, 1e-300] lands on has 1 - a_0 - a_1 = 1.4e-150
    m = rc.explicit([0.5, 0.5, 1e-300])
    assert m.a == (0.5, 0.5, 1e-300)
    x0 = rc.find_x0(rc.explicit([0.5, 0.5 - 2.0 ** -53, 1e-300]))
    tilted = rc.tilt(rc.explicit([0.5, 0.5 - 2.0 ** -53, 1e-300]), x0)
    assert tilted.a[0] + tilted.a[1] == 1.0 and tilted.a[2] > 0.0
    assert rc.classify(tilted) is rc.ChainClass.NULL_RECURRENT


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_geometric_rejects(p):
    with pytest.raises(InvalidSpec):
        rc.geometric(p)


def test_geometric_table_budget(monkeypatch):
    from repairchain import model

    def n_terms(p):  # the size rule of the geometric table
        return math.ceil(math.log(1e-12) / math.log(1.0 - p))

    assert n_terms(0.5) == rc.geometric(0.5).coeffs.size
    monkeypatch.setattr(model, "GEOMETRIC_TABLE_BUDGET", n_terms(0.5) * 8)
    assert rc.geometric(0.5).coeffs.size == n_terms(0.5)
    m = rc.geometric(0.45)  # the law itself is valid; only its table is refused
    with pytest.raises(InvalidSpec, match="budget"):
        m.coeffs
    monkeypatch.undo()
    # the size rule alone refuses p = 1e-7 (2.06 GiB) before allocating
    assert n_terms(1e-7) * 8 > model.GEOMETRIC_TABLE_BUDGET
    for p in (1e-7, 1e-17):  # 1 - 1e-17 rounds to 1: no finite size at all
        m = rc.geometric(p)
        assert m.mu == (1.0 - p) / p
        with pytest.raises(InvalidSpec, match="budget"):
            m.coeffs
    assert rc.geometric(1e-5).coeffs.size == n_terms(1e-5)


def test_geometric_G_at_one_for_tiny_p():
    # q = 1 - p rounds to 1 and the stored radius 1/q to 1 below p = 2^-54,
    # but G(1) = 1 for every law, and G'(1) = q/p, G''(1) = 2 q^2/p^2
    m = rc.geometric(1e-17)
    assert rc.eval_G(m, 1.0) == 1.0
    p = Fraction(1e-17)
    q = 1 - p
    for order, want in ((1, q / p), (2, 2 * q ** 2 / p ** 2)):
        assert abs(Fraction(rc.eval_G(m, 1.0, order)) / want - 1) <= 1e-15, order


LAZY_TABLE_CASES = {
    "geometric": lambda: rc.geometric(0.3),
    "half_stable": rc.half_stable,
    "power_zeta_2.1": lambda: rc.power_zeta(2.1),
    "power_zeta_3": lambda: rc.power_zeta(3.0),
    "explicit": lambda: rc.explicit([0.5, 0.2, 0.3, 0.0]),
    "tilt_half_stable": lambda: rc.tilt(rc.half_stable(), 0.75),
    "tilt_power_zeta": lambda: rc.tilt(rc.power_zeta(2.5), 0.9),
    "tilt_power_zeta_composed": lambda: rc.tilt(rc.tilt(rc.power_zeta(3.0), 0.5), 1.5),
}


@pytest.mark.parametrize("name", sorted(LAZY_TABLE_CASES))
def test_table_built_on_first_use_matches_eager_construction(name):
    m = LAZY_TABLE_CASES[name]()
    assert "coeffs" not in vars(m)
    a0 = m.a0  # from exact_coefficients, so it builds no table either
    assert "coeffs" not in vars(m)
    want, _ = oracles.eager_table(m)
    assert m.coeffs.dtype == want.dtype and m.coeffs.tobytes() == want.tobytes()
    assert not m.coeffs.flags.writeable
    assert a0 == m.coeffs[0]
    assert m.coeffs is m.coeffs  # built once


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 10, 1000, 1 << 21,
                                   (1 << 12) + 3, (1 << 12) + 4, (1 << 12) + 5])
def test_half_stable_in_place_build_matches_old_expression(count):
    # the last three put the end of the ratios just before, on and after
    # the first block boundary
    from repairchain.model import _half_stable_coeffs

    assert _half_stable_coeffs(count).tobytes() == oracles.half_stable_coeffs(count).tobytes()


def test_half_stable_build_needs_no_large_temporary():
    # numpy reports its buffers to tracemalloc: the build's peak is the
    # table itself plus one block's temporaries
    import tracemalloc

    from repairchain.model import _HALF_STABLE_CAP, _half_stable_coeffs

    tracemalloc.start()
    try:
        table = _half_stable_coeffs(_HALF_STABLE_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes + (1 << 20)


@pytest.mark.parametrize("alpha", [2.0123, 3.0, 50.0])
@pytest.mark.parametrize("count", [1, 2, (1 << 12) - 1, 1 << 12, (1 << 12) + 1, 3 * (1 << 12) + 5])
def test_power_zeta_block_build_matches_old_expression(alpha, count):
    # the same operations per entry as over one whole index array, on
    # either side of a block boundary
    from repairchain.model import _power_zeta_coeffs

    want = oracles.power_zeta_jumps(alpha, count)
    assert _power_zeta_coeffs(alpha, count).tobytes() == want.tobytes()


def test_power_zeta_build_needs_no_large_temporary():
    # 10^6 coefficients: the table plus one block's temporaries, where the
    # whole-array expression held four tables' worth (30.5 MB)
    import tracemalloc

    model = rc.power_zeta(3.0)
    rc.exact_coefficients(model, 10)  # numpy's first-call caches are not the build's
    tracemalloc.start()
    try:
        table = rc.exact_coefficients(model, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.tobytes() == oracles.power_zeta_jumps(3.0, 10 ** 6).tobytes()
    assert peak < table.nbytes + (1 << 20)


HEAD_LAWS = {
    "explicit": lambda: rc.explicit([0.4, 0.0, 0.0, 0.3, 0.0, 0.3]),
    "explicit_tiny": lambda: rc.explicit([1e-30, 0.0, 1.0]),
    "geometric_0.25": lambda: rc.geometric(0.25),
    "geometric_0.6": lambda: rc.geometric(0.6),
    "half_stable": rc.half_stable,
    "power_zeta_2.1": lambda: rc.power_zeta(2.1),
    "power_zeta_50": lambda: rc.power_zeta(50.0),
    "tilted_power_zeta": lambda: rc.tilt(rc.power_zeta(3.0), 0.9),
    "tilted_half_stable": lambda: rc.tilt(rc.half_stable(), 0.5),
}


@pytest.mark.parametrize("name", sorted(HEAD_LAWS))
def test_coefficient_head_is_the_table_as_floats(name):
    # the same formula per entry; libm's pow and numpy's may round one ulp
    # apart, which power_zeta's difference of two powers carries to about
    # (k + 2)/alpha ulp of a_k.  half_stable takes no pow and explicit
    # copies its list, so those two agree bit for bit
    from repairchain.model import _FAMILIES, coefficient_head

    model = HEAD_LAWS[name]()
    assert set(_FAMILIES) == {"explicit", "geometric", "half_stable", "power_zeta", "tilted"}
    for count in (1, 2, 5, 64, 300):
        head = coefficient_head(model, count)
        table = rc.exact_coefficients(model, count)
        assert type(head) is list and len(head) == count
        assert all(type(c) is float for c in head)
        if model.family in ("explicit", "half_stable"):
            assert np.array(head).tobytes() == table.tobytes()
        k = np.arange(count)
        assert np.all(np.abs(np.array(head) - table) <= 4 * (k + 2) * EPS * table)
    assert model.a0 == coefficient_head(model, 1)[0] > 0.0
    with pytest.raises(ValueError):
        coefficient_head(model, 0)


def test_explicit_G_matches_numpy_polynomial_bit_for_bit():
    # the pure-Python derivative and Horner loop against polyder/polyval
    from numpy.polynomial import polynomial as P

    from repairchain.model import JumpModel, _explicit_G

    rng = np.random.default_rng(20261018)
    cases = 0
    for _ in range(400):
        c = rng.random(rng.integers(1, 9)) * rng.choice([1.0, 1e-3, 1e3])
        m = JumpModel(family="explicit", mu=0.0, radius=math.inf, a=tuple(c.tolist()))
        for order in range(c.size + 2):
            d = P.polyder(c, order) if order else c
            for t in np.concatenate(([0.0, 1.0, 3.0], rng.random(12) * 3.0)).tolist():
                got = _explicit_G(m, t, order)
                assert type(got) is float
                assert got == float(P.polyval(t, d)), (c.tolist(), order, t)
                cases += 1
    assert cases > 20_000


@pytest.mark.parametrize("alpha", [2.0, 1.5, 0.0, -3.0])
def test_power_zeta_rejects(alpha):
    with pytest.raises(InvalidSpec):
        rc.power_zeta(alpha)


def test_build_model_schema():
    m = rc.build_model({"family": "geometric", "p": 0.25})
    assert m.family == "geometric" and m.p == 0.25
    with pytest.raises(InvalidSpec):
        rc.build_model({"family": "cauchy"})
    with pytest.raises(InvalidSpec):
        rc.build_model({"p": 0.25})
    with pytest.raises(InvalidSpec):
        rc.build_model({"family": "geometric"})
    with pytest.raises(InvalidSpec):
        rc.build_model({"family": "geometric", "p": 0.25, "junk": 1})
    with pytest.raises(InvalidSpec):
        rc.build_model({"family": "half_stable", "p": 0.25})
    with pytest.raises(InvalidSpec):
        rc.build_model({"family": "explicit", "coeffs": [0.5, 0.5]})


def test_cache_mass_accounts_for_tail(family_model):
    total = math.fsum(family_model.coeffs)
    assert total <= 1.0 + 1e-12
    assert total + oracles.eager_table(family_model)[1] >= 1.0 - 1e-10


def test_exact_coefficients_extends_geometric():
    m = rc.geometric(0.5)
    a = rc.exact_coefficients(m, 80)
    want = oracles.geometric_jumps(0.5, 80)
    assert np.max(np.abs(a - want)) == 0.0


def test_exact_coefficients_extends_half_stable():
    a = rc.exact_coefficients(rc.half_stable(), 64)
    want = oracles.half_stable_jumps(64)
    assert np.max(np.abs(a - want)) < 1e-17


def test_eval_G_geometric_closed_form():
    m = rc.geometric(0.25)
    for t in (0.0, 0.3, 0.9, 1.0, 1.2):
        assert rc.eval_G(m, t) == pytest.approx(0.25 / (1 - 0.75 * t), rel=1e-15)
        assert rc.eval_G(m, t, 1) == pytest.approx(0.25 * 0.75 / (1 - 0.75 * t) ** 2, rel=1e-14)
    # the double nearest 4/3 lies inside the radius, where 1 - q t = 2^-54
    assert rc.eval_G(m, 4.0 / 3.0) == 2.0 ** 52
    assert rc.eval_G(m, math.nextafter(4.0 / 3.0, 2.0)) == math.inf
    assert rc.eval_G(m, 2.0) == math.inf


def test_eval_G_half_stable_closed_form():
    m = rc.half_stable()
    for t in (0.0, 0.5, 0.99):
        want = t + (2.0 / 3.0) * (1.0 - t) ** 1.5
        assert rc.eval_G(m, t) == pytest.approx(want, rel=1e-15)
        want1 = 1.0 - (1.0 - t) ** 0.5
        assert rc.eval_G(m, t, 1) == pytest.approx(want1, abs=1e-15)
    assert rc.eval_G(m, 1.0) == 1.0
    assert rc.eval_G(m, 1.0, 1) == 1.0
    assert rc.eval_G(m, 1.0, 2) == math.inf


def test_eval_G_power_zeta_at_one():
    m = rc.power_zeta(4.0)
    z = oracles.zeta_by_summation
    assert rc.eval_G(m, 1.0) == pytest.approx(1.0, abs=1e-13)
    assert rc.eval_G(m, 1.0, 1) == pytest.approx(z(4.0) - 1.0, abs=1e-12)
    # G'' (1) = sum n(n-1) a_n = 2 zeta(2) - ... finite for alpha = 4
    direct = math.fsum(
        n * (n - 1) * a for n, a in enumerate(oracles.power_zeta_jumps(4.0, 400_000))
    )
    assert rc.eval_G(m, 1.0, 2) == pytest.approx(direct, rel=1e-6)
    assert rc.eval_G(m, 1.0, 4) == math.inf


def test_eval_G_series_agreement(family_model):
    # n^order weights amplify the truncated cache tail, hence the looser bar
    lim = min(1.0, 0.9 * family_model.radius)
    for t in np.linspace(0.1, lim, 5):
        for order in range(3):
            a = rc.eval_G(family_model, float(t), order)
            b = oracles.eval_G_by_series(family_model, float(t), order)
            assert a == pytest.approx(b, rel=1e-8, abs=1e-10)


def test_eval_G_derivative_consistency(family_model):
    # centered difference of G sits on G' well inside the radius
    t = min(0.6, 0.45 * family_model.radius)
    h = 1e-6
    num = (rc.eval_G(family_model, t + h) - rc.eval_G(family_model, t - h)) / (2 * h)
    assert rc.eval_G(family_model, t, 1) == pytest.approx(num, rel=1e-8)


def _geometric_G_exact(p, t, order):  # correctly rounded; inf past the doubles
    q = 1 - Fraction(p)
    value = Fraction(p) * math.factorial(order) * q ** order / (1 - q * Fraction(t)) ** (order + 1)
    try:
        return float(value)
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("p, t, order", [
    (0.75, 1.0, 171), (0.75, 1.0, 200), (0.75, 1.0, 250), (0.5, 0.5, 171),
    (0.95, 0.5, 200), (0.99, 1.0, 300), (0.999999, 1.0, 10 ** 4), (0.999, 999.0, 110),
])
def test_eval_G_geometric_high_orders(p, t, order):
    # order! does not convert to a double past 170, and the power of
    # 1 - q t underflows close to the radius; the value may still be finite
    want = _geometric_G_exact(p, t, order)
    got = rc.eval_G(rc.geometric(p), t, order)
    if want in (0.0, math.inf):
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * want


def test_eval_G_geometric_keeps_its_closed_form_bits():
    for p in (0.25, 0.5, 0.75):
        m, q = rc.geometric(p), 1.0 - p
        for t in (0.0, 0.5, 1.0):
            for k in range(171):
                assert rc.eval_G(m, t, k) == p * math.factorial(k) * q ** k / (1.0 - q * t) ** (k + 1)


def test_tilt_geometric_closure():
    m = rc.tilt(rc.geometric(0.25), 2.0 / 3.0)
    assert m.family == "geometric"
    assert m.p == pytest.approx(0.5, abs=1e-15)
    a = rc.exact_coefficients(m, 51)
    for n in range(51):
        assert abs(a[n] - 2.0 ** -(n + 1)) < 1e-12


@pytest.mark.parametrize("p, x, rel", [(0.25, 1.33333333, 2.0 ** -53),
                                       (1e-7, 1.0000001, 1e-9),
                                       (0.25, 1.2, 2.0 ** -53)])
def test_geometric_tilt_parameter_against_fraction(p, x, rel):
    # p' = 1 - (1 - p) x on the two doubles, exactly; near the radius
    # 1/(1 - p) it is the small difference of two numbers near 1
    want = 1 - (1 - Fraction(p)) * Fraction(x)
    got = Fraction(rc.tilt(rc.geometric(p), x).p)
    assert abs(got - want) <= rel * want


def _geometric_tilt_grid():
    # p near 0, 1/2 and 1, and seeded; x inside, next to and just past the
    # radius 1/q, where 1 - q x is the small difference of two large numbers
    rng = np.random.default_rng(20261019)
    ps = [1e-7, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0 - 1e-9, 0.9999999999999998]
    for p in ps + [float(p) for p in rng.uniform(0.0, 1.0, 6)]:
        radius = 1.0 / (1.0 - p)
        xs = [0.3, 0.9, 1.1, 0.5 * radius, radius * (1.0 - 1e-9), radius * (1.0 - 1e-15),
              math.nextafter(radius, math.inf)]
        x = radius
        for _ in range(6):
            x = math.nextafter(x, 0.0)
            xs.append(x)
        yield from ((p, x) for x in xs)


def test_geometric_tilt_is_the_exact_parameter_rounded_once():
    # p' = 1 - (1 - p) x of the two doubles, rounded once; a point where
    # it is not positive is refused.  At p = 1 - 2^-52, x = 2^52 - 1/2 the
    # sum (1 - x) + p x cancelled to 0, where p' is 2^-53
    tilted = 0
    for p, x in _geometric_tilt_grid():
        want = 1 - (1 - Fraction(p)) * Fraction(x)
        if want <= 0:
            with pytest.raises((OutOfRadius, ValueError)):
                rc.tilt(rc.geometric(p), x)
            continue
        assert rc.tilt(rc.geometric(p), x).p == float(want), (p, x)
        tilted += 1
    assert tilted > 150
    assert rc.tilt(rc.geometric(0.9999999999999998), 4503599627370495.5).p == 2.0 ** -53


def test_tilt_keeps_explicit_laws_explicit():
    m = rc.tilt(rc.explicit([0.5, 0.2, 0.3]), 2.0)
    assert m.family == "explicit" and m.radius == math.inf
    assert math.fsum(m.coeffs) == pytest.approx(1.0, abs=1e-15)
    assert list(m.coeffs) == pytest.approx([0.5 / 2.1, 0.4 / 2.1, 1.2 / 2.1], rel=1e-15)


def test_tilt_matches_definition(family_model):
    x = min(0.8, 0.8 * family_model.radius)
    tilted = rc.tilt(family_model, x)
    base = rc.exact_coefficients(family_model, 64)
    want = oracles.tilt_jumps(rc.exact_coefficients(family_model, 4096), x)[:64]
    got = rc.exact_coefficients(tilted, 64)
    assert np.max(np.abs(got - want)) < 1e-13
    gx = rc.eval_G(family_model, x)
    assert tilted.mu == pytest.approx(x * rc.eval_G(family_model, x, 1) / gx, abs=1e-13)
    del base


def test_tilt_identity_and_composition():
    m = rc.power_zeta(3.0)
    assert rc.tilt(m, 1.0) is m
    a = rc.exact_coefficients(rc.tilt(rc.tilt(m, 0.8), 0.5), 32)
    b = rc.exact_coefficients(rc.tilt(m, 0.4), 32)
    assert np.max(np.abs(a - b)) < 1e-15


@pytest.mark.parametrize("x", [0.013, 0.021, 0.029])
def test_tilt_at_the_radius_of_a_tilt_is_its_base(x):
    # x (1/x) rounds to 1 - 2^-53 here; composing the points would give a
    # tilt at 0.9999999999999999 instead of the law at the radius
    assert x * (1.0 / x) != 1.0
    t = rc.tilt(rc.power_zeta(3.0), x)
    assert rc.tilt(t, t.radius) is t.base


def test_tilt_domain_errors():
    with pytest.raises(OutOfRadius):
        rc.tilt(rc.geometric(0.75), 5.0)
    with pytest.raises(OutOfRadius):
        rc.tilt(rc.power_zeta(3.0), 1.5)
    with pytest.raises(ValueError):
        rc.tilt(rc.geometric(0.5), -1.0)
    with pytest.raises(ValueError):
        rc.tilt(rc.geometric(0.5), 0.0)


@pytest.mark.parametrize("model, x", [(rc.geometric(0.25), 1e-17),
                                      (rc.explicit([0.5, 0.2, 0.3]), 1e-170)])
def test_tilt_whose_mass_above_one_underflows_is_refused(model, x):
    # the reweighted law is 1 - O(x) at 0 and O(x) at 1, and its mass above
    # 1 rounds to 0: a point no law answers, not an invalid spec
    with pytest.raises(ValueError, match=f"reweighting at {x!r} "):
        rc.tilt(model, x)


def test_explicit_tilt_where_x_to_the_n_overflows():
    # x0 = 9.685e156: x0^2 overflows, while a_2 x0^2 = G(x0) / 2
    law = rc.explicit([1.0, 8.192369242794122e-203, 1.066085711e-314])
    x0 = rc.find_x0(law)
    gx = sum(Fraction(c) * Fraction(x0) ** n for n, c in enumerate(law.a))
    want = [Fraction(c) * Fraction(x0) ** n / gx for n, c in enumerate(law.a)]
    got = rc.tilt(law, x0).a
    assert got == pytest.approx([0.5, 0.0, 0.5], abs=1e-15)
    assert all(abs(Fraction(g) - w) <= 1e-15 * w for g, w in zip(got, want)), got
    # where x^n is finite, the reweight is c x^n / G(x), bit for bit
    m = rc.explicit([0.5, 0.2, 0.3])
    for x in (1e-100, 0.5, 2.0, 1e150):
        assert rc.tilt(m, x).a == tuple(c * x ** n / rc.eval_G(m, x) for n, c in enumerate(m.a))


def test_classify():
    assert rc.classify(rc.geometric(0.75)) is rc.ChainClass.POSITIVE_RECURRENT
    assert rc.classify(rc.geometric(0.5)) is rc.ChainClass.NULL_RECURRENT
    assert rc.classify(rc.geometric(0.25)) is rc.ChainClass.TRANSIENT
    assert rc.classify(rc.half_stable()) is rc.ChainClass.NULL_RECURRENT
    assert rc.classify(rc.power_zeta(3.0)) is rc.ChainClass.POSITIVE_RECURRENT
    assert rc.classify(rc.explicit([0.25, 0.5, 0.25])) is rc.ChainClass.NULL_RECURRENT


def test_mean_gap_agrees_with_mu(family_model):
    assert rc.mean_gap(family_model) == pytest.approx(1.0 - family_model.mu, abs=1e-14)


def test_mean_gap_beats_naive_subtraction():
    m = rc.geometric(0.75)
    assert rc.mean_gap(m) == 0.5 / 0.75
    assert 1.0 / rc.mean_gap(m) == 1.5


def test_mean_gap_is_the_drift_slope_at_zero_bit_for_bit():
    # psi'(0) reads 1 - mu in each family's own exact parameters
    from repairchain.model import _zeta

    rng = np.random.default_rng(1203)
    for p in [0.5, 0.75, 1e-17, 1.0 - 2.0 ** -53] + [float(p) for p in rng.uniform(0, 1, 500)]:
        assert rc.mean_gap(rc.geometric(p)) == (2.0 * p - 1.0) / p, p
    for alpha in [2.0000001, 2.1, 3.0, 40.0] + [float(a) for a in rng.uniform(2, 12, 200)]:
        assert rc.mean_gap(rc.power_zeta(alpha)) == 2.0 - _zeta(alpha), alpha
    for _ in range(200):
        a = [float(c) for c in rng.dirichlet(np.ones(int(rng.integers(3, 30))))]
        want = math.fsum(c * (1 - n) for n, c in enumerate(a))
        assert rc.mean_gap(rc.explicit(a)) == want, a
    assert rc.mean_gap(rc.half_stable()) == 0.0


_EPS = np.finfo(float).eps


@pytest.mark.parametrize("s, want", [
    (2.0, math.pi ** 2 / 6.0),
    (4.0, math.pi ** 4 / 90.0),
    (6.0, math.pi ** 6 / 945.0),
    (1e155, 1.0),                  # 16^(-s-1) underflows, (s+1)(s+2) overflows
    (sys.float_info.max, 1.0),
])
def test_zeta_closed_forms(s, want):
    assert abs(_zeta(s) - want) <= 2 * _EPS * want


def test_zeta_matches_scipy():
    from scipy.special import zeta  # oracle only, never imported by the package

    for s in np.linspace(1.01, 40.0, 4000):
        want = float(zeta(s))
        assert abs(_zeta(float(s)) - want) <= 4 * _EPS * want, s


@pytest.mark.parametrize("s", [1.0 - 1e-6, 0.9, 0.75, 0.5, 0.4999, 0.3, 1e-9, 0.0, -1e-9, -0.5,
                               -1.0, -2.0 + 1e-6, -3.3, -7.5, -10.1, -20.5, -33.3])
def test_zeta_below_one_matches_mpmath(s):
    # the functional equation carries sin(pi s / 2), so next to a trivial
    # zero (s = -2, -4, ..) only accuracy relative to zeta(s) / sin(pi s / 2)
    # is owed; zeta has no zero in (-2, 1)
    import mpmath as mp

    with mp.workdps(40):
        want = mp.zeta(s)
        scale = abs(want) if s > -0.5 else max(abs(want), abs(want / mp.sin(mp.pi * s / 2)))
    assert abs(_zeta(s) - float(want)) <= 1e-14 * float(scale)


def test_zeta_pole():
    assert _zeta(1.0) == math.inf


# 12.5 and 20: derivatives there lose 1e-11 and 1e-8 when the Jonquiere
# sums keep the terms that differentiation annihilates
PZ_ALPHAS = [2.1, 2.5, 2.6, 3.0, 3.0 + 1e-5, 3.0 - 1e-5, 3.0 + 1e-9, 3.0 - 1e-9, 4.0, 7.5,
             12.5, 20.0]
PZ_POINTS = [0.0, 0.05, 0.3, 0.5, math.nextafter(_PZ_SWITCH, 1.0), 0.75, 0.9, 0.99,
             1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]


@pytest.mark.parametrize("alpha", PZ_ALPHAS)
def test_eval_G_power_zeta_matches_mpmath(alpha):
    # both sides of the switch from the Taylor series to Jonquiere's
    # expansion, up to 1 - 1e-12; near-integer alpha is where the two pole
    # terms of the expansion would cancel if summed apart
    m = rc.power_zeta(alpha)
    orders = [n for n in range(4) if n < alpha]
    for t in PZ_POINTS:
        for n, want in zip(orders, oracles.power_zeta_G_mpmath(alpha, t, orders)):
            rel = 1e-14 if n == 0 else 1e-12
            assert rc.eval_G(m, t, n) == pytest.approx(want, rel=rel, abs=0.0), (t, n)


@pytest.mark.parametrize("t", [0.5, 0.9])
def test_eval_G_power_zeta_high_orders(t):
    # (j+n)!/j! a_(j+n) passes the double range from about n = 110, and
    # Jonquiere's expansion cancels at such orders; the value is a double
    # up to n = 153 at t = 0.5 and n = 120 at t = 0.9, +inf beyond
    m = rc.power_zeta(3.0)
    orders = range(100, 401)
    wants = oracles.power_zeta_G_mpmath(3.0, t, orders, dps=25)
    assert math.isfinite(wants[0]) and wants[-1] == math.inf
    for n, want in zip(orders, wants):
        got = rc.eval_G(m, t, n)
        if math.isfinite(want):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), n
        else:
            assert got == math.inf, n


@pytest.mark.parametrize("alpha, t, order, table_error", [
    (2.1, 1.0 - 1e-9, 1, 1.7e-6),
    (2.1, 1.0 - 1e-6, 2, 2.5e-2),
    (7.5, 0.95, 3, 2.0e-5),
])
def test_eval_G_power_zeta_past_its_table(alpha, t, order, table_error):
    # the coefficient table stops at a tail mass of 1e-12 (518k terms at
    # alpha = 2.1, 40 at 7.5); eval_G once summed it and was off by
    # table_error relative here
    m = rc.power_zeta(alpha)
    want = oracles.power_zeta_G_mpmath(alpha, t, [order])[0]
    assert abs(oracles.eval_G_by_series(m, t, order) / want - 1.0) > table_error
    assert rc.eval_G(m, t, order) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_composed_tilt_that_rounds_to_one_is_the_base():
    # 1.5384615384615385 is one ulp above the radius 1/0.65 of the inner
    # tilt, so not its radius, but 0.65 times it rounds to exactly 1
    base = rc.half_stable()
    inner = rc.tilt(base, 0.65)
    x = 1.5384615384615385
    assert x != inner.radius and 0.65 * x == 1.0
    assert rc.tilt(inner, x) is base


def test_tilted_G_past_the_radius_is_inf_where_the_scale_underflows():
    # x^2 = 1e-600 underflows to 0, and 0 * inf would be nan
    m = rc.tilt(rc.half_stable(), 1e-300)
    assert 2e300 > m.radius
    assert rc.eval_G(m, 2e300, 2) == math.inf


@pytest.mark.parametrize("call, error, text", [
    (lambda: rc.build_model([1]), InvalidSpec, "must be a mapping"),
    (lambda: rc.exact_coefficients(rc.explicit([0.5, 0.2, 0.3]), 0), ValueError, "at least 1"),
    (lambda: rc.eval_G(rc.explicit([0.5, 0.2, 0.3]), -1.0), ValueError, "nonnegative real"),
    (lambda: rc.eval_G(rc.explicit([0.5, 0.2, 0.3]), 0.5, -1), ValueError, "order must"),
    # an order that is not integral is refused, not truncated to G''(0.5)
    (lambda: rc.eval_G(rc.geometric(0.5), 0.5, 2.7), ValueError, "order must be an integer"),
    (lambda: rc.eval_G(rc.geometric(0.5), 0.5, math.inf), ValueError, "order must be an integer"),
], ids=["build_model list", "exact_coefficients 0", "eval_G t=-1", "eval_G order=-1",
        "eval_G order=2.7", "eval_G order=inf"])
def test_model_entry_points_refuse_bad_arguments(call, error, text):
    with pytest.raises(error, match=text):
        call()


def test_repr_names_the_parameter():
    assert repr(rc.geometric(0.25)) == "JumpModel(geometric, p=0.25, mu=3)"
    assert repr(rc.power_zeta(3.0)) == "JumpModel(power_zeta, alpha=3.0, mu=0.202057)"
    assert repr(rc.tilt(rc.power_zeta(2.5), 0.9)) == "JumpModel(tilted, tilt_x=0.9, mu=0.243556)"
    assert repr(rc.half_stable()) == "JumpModel(half_stable, mu=1)"


@pytest.mark.parametrize("name", ["family", "mu", "radius", "p", "coeffs", "unknown"])
def test_model_attributes_cannot_be_assigned_or_deleted(name):
    m = rc.geometric(0.5)
    table = m.coeffs  # the cached table is in the instance dict like a field
    with pytest.raises(AttributeError):
        setattr(m, name, 0.25)
    with pytest.raises(AttributeError):
        delattr(m, name)
    assert (m.family, m.mu, m.radius, m.p) == ("geometric", 1.0, 2.0, 0.5)
    assert m.coeffs is table and not hasattr(m, "unknown")


def test_equal_laws_are_distinct_keys():
    a, b = rc.geometric(0.5), rc.geometric(0.5)
    assert a == a and a != b
    assert {a: 1, b: 2} == {a: 1, b: 2} and len({a, b}) == 2


def test_result_records_are_read_only_tuples():
    from repairchain.model import _FAMILIES

    geo = rc.geometric(0.6)
    records = [rc.decay_params(geo), rc.return_pmf(geo, 8), rc.tau_moment(geo, 1),
               rc.tau_alpha_finite(geo, 0.5), rc.asymptotic_exponent(rc.geometric(0.5)),
               rc.exit_pmf(rc.geometric(0.25), 8), rc.sample_tau(geo, 0, 4, cap=4),
               _FAMILIES["geometric"]]
    for record in records:
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert tuple(record) == tuple(getattr(record, f) for f in record._fields)
        assert list(record._asdict()) == list(record._fields)
    assert records[1].n_max == 8


def test_default_verdict_diagnostics_are_empty_and_read_only():
    made = rc.Verdict("E(tau)", rc.VerdictLabel.FINITE, "closed form")
    for verdict in (made, rc.tau_alpha_finite(rc.geometric(0.6), 0.5)):
        assert verdict.diagnostics == {} and len(verdict.diagnostics) == 0
        with pytest.raises(TypeError):
            verdict.diagnostics["partial_sums"] = []
    assert made.diagnostics == {}

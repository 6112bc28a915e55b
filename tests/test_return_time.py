import math
from fractions import Fraction

import numpy as np
import pytest

import repairchain as rc
from repairchain.errors import NotNullRecurrent, NotPositiveRecurrent
from repairchain.return_time import escape_prob

import oracles

FAMILY_JUMPS = {
    "geometric": lambda n: oracles.geometric_jumps(0.5, n),
    "explicit": lambda n: np.array([0.5, 0.2, 0.3]),
    "half_stable": oracles.half_stable_jumps,
    "power_zeta": lambda n: oracles.power_zeta_jumps(3.0, n),
}


def test_golden_pmf_square_root_series(geo_half):
    got = rc.return_pmf(geo_half, 64)
    want = oracles.sqrt_series(64)
    assert np.max(np.abs(got.f - want)) < 1e-12


def test_golden_green_central_binomial(geo_half):
    got = rc.return_pmf(geo_half, 30)
    want = oracles.central_binomial_green(30)
    assert np.max(np.abs(got.u - want)) < 1e-12


def test_pmf_against_state_evolution(family_model):
    jumps = FAMILY_JUMPS[family_model.family](61)
    got = rc.return_pmf(family_model, 60)
    assert np.max(np.abs(got.u - oracles.evolve_green(jumps, 60))) < 1e-10
    assert np.max(np.abs(got.f - oracles.evolve_first_return(jumps, 60))) < 1e-10


def test_pmf_shapes_and_mass(family_model):
    got = rc.return_pmf(family_model, 48)
    assert got.f[0] == 0.0 and got.u[0] == 1.0
    assert got.n_max == 48
    assert np.all(got.f >= 0.0) and np.all(got.u >= 0.0)
    assert np.all(got.u <= 1.0 + 1e-15)
    assert float(got.f.sum()) <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        rc.return_pmf(family_model, 0)


# laws whose kernel is shorter than the horizon: a_1 = 0 puts a zero
# right after a_0, and every odd f_n of [0.5, 0, 0.5] vanishes
ZERO_GAP_SPECS = [
    {"family": "half_stable"},
    {"family": "explicit", "a": [0.5, 0.0, 0.5]},
]


@pytest.mark.parametrize("spec", ZERO_GAP_SPECS, ids=lambda s: s["family"])
def test_pmf_short_kernel_small_horizons(spec):
    model = rc.build_model(spec)
    for n_max in range(1, 7):
        got = rc.return_pmf(model, n_max)
        want = oracles.evolve_first_return(rc.exact_coefficients(model, n_max + 1), n_max)
        assert np.max(np.abs(got.f - want)) < 1e-15
        assert np.array_equal(got.f == 0.0, want == 0.0)


GATE_MODELS = {
    "geometric_0.25": lambda: rc.geometric(0.25),
    "geometric_0.5": lambda: rc.geometric(0.5),
    "geometric_0.75": lambda: rc.geometric(0.75),
    "half_stable": rc.half_stable,
    "power_zeta_3": lambda: rc.power_zeta(3.0),
    "tilted_power_zeta": lambda: rc.tilt(rc.power_zeta(3.0), 0.9),
    "explicit_gap": lambda: rc.explicit([0.5, 0.0, 0.5]),
    "explicit_gaps": lambda: rc.explicit([0.4, 0.0, 0.0, 0.3, 0.0, 0.3]),
}
GATE_HORIZONS = [*range(1, 10), 16, 17, 100, 511, 512, 1023, 1025]


@pytest.mark.parametrize("name", sorted(GATE_MODELS))
def test_pmf_kernel_matches_convolution_chain(name):
    # f_n reads only a_0..a_(n-1), so one chain to the largest horizon
    # holds the oracle for every smaller one
    model = GATE_MODELS[name]()
    top = max(GATE_HORIZONS)
    chain = oracles.convolution_chain_pmf(rc.exact_coefficients(model, top), top)
    for n_max in GATE_HORIZONS:
        got = rc.return_pmf(model, n_max).f
        want = chain[:n_max + 1]
        assert np.array_equal(got == 0.0, want == 0.0), n_max
        nz = want != 0.0
        assert np.all(np.abs(got[nz] - want[nz]) <= 1e-12 * want[nz]), n_max


def test_pmf_kernel_far_tail_closed_form():
    # geometric(1/4) at N = 2048 reaches f_n ~ 1e-262; every term must
    # keep its relative accuracy, not just the head
    got = rc.return_pmf(rc.geometric(0.25), 2048).f
    want = oracles.geometric_first_return(1, 4, 2048)
    assert want[-1] < 1e-260
    assert np.all(np.abs(got[1:] - want[1:]) <= 1e-12 * want[1:])


def _assert_renewal_matches_forward(analysis, n_max):
    want = oracles.renewal_forward(analysis.f)
    assert np.array_equal(analysis.u == 0.0, want == 0.0), n_max
    nz = want != 0.0
    assert np.all(np.abs(analysis.u[nz] - want[nz]) <= 1e-12 * want[nz]), n_max


@pytest.mark.parametrize("name", sorted(GATE_MODELS))
def test_pmf_occupation_matches_forward_renewal(name):
    model = GATE_MODELS[name]()
    for n_max in [*GATE_HORIZONS, 2048]:
        _assert_renewal_matches_forward(rc.return_pmf(model, n_max), n_max)


def test_pmf_occupation_far_tail():
    # transient geometric(1/4): u_n falls to about 1e-261 at N = 2048
    got = rc.return_pmf(rc.geometric(0.25), 2048)
    assert 1e-263 < got.u[-1] < 1e-259
    _assert_renewal_matches_forward(got, 2048)


# every gate below is c N eps relative at horizon N, with this one c: the
# rate R1^(-n) restored after the tilt carries the rounding of R1 n times
EXACT_C = 1.0
EPS = np.finfo(float).eps
EXACT_HORIZONS = (100, 512, 1025, 2048)


def _assert_within(got, want, n_max):
    assert np.array_equal(got == 0.0, want == 0.0), n_max
    nz = want != 0.0
    assert np.all(np.abs(got[nz] - want[nz]) <= EXACT_C * n_max * EPS * want[nz]), n_max


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_pmf_matches_the_exact_law_of_the_float_parameter(p):
    # non-dyadic p: the reference is the law of the double p, not of 3/10,
    # whose rounding n amplifies; both laws have R1 > 1 and take the tilt
    want = oracles.geometric_first_return(*p.as_integer_ratio(), max(EXACT_HORIZONS))
    for n_max in EXACT_HORIZONS:
        _assert_within(rc.return_pmf(rc.geometric(p), n_max).f, want[:n_max + 1], n_max)


def test_pmf_boundary_case_rate_identity():
    # tilt(power_zeta(3), x) has no tangency point; its f_n is
    # x^(n-1) f^base_n / G_base(x)^n, with G_base(x) = 1/x + (x - 1) Li_3(x)/x^2
    import mpmath as mp

    x = 0.9
    model = rc.tilt(rc.power_zeta(3.0), x)
    assert rc.decay_params(model).case_label is rc.CaseLabel.BOUNDARY_CASE
    base = rc.return_pmf(rc.power_zeta(3.0), max(EXACT_HORIZONS)).f
    with mp.workdps(40):
        xm = mp.mpf(x)
        rate = xm / (1 / xm + (xm - 1) * mp.polylog(3, xm) / xm ** 2)
        want = np.array([0.0] + [float(rate ** n / xm * mp.mpf(float(base[n])))
                                 for n in range(1, base.size)])
    for n_max in EXACT_HORIZONS:
        _assert_within(rc.return_pmf(model, n_max).f, want[:n_max + 1], n_max)


@pytest.mark.parametrize("name", sorted(GATE_MODELS))
def test_pmf_occupation_matches_long_double_renewal(name):
    # geometric(1/4) reaches u_n of about 1e-261 at N = 2048
    got = rc.return_pmf(GATE_MODELS[name](), 2048)
    want = oracles.renewal_longdouble(got.f)
    _assert_within(got.u, want, 2048)


@pytest.mark.parametrize("model", [rc.geometric(0.1), rc.explicit([0.05, 0.05, 0.0, 0.9])],
                         ids=["geometric_0.1", "explicit_transient"])
@pytest.mark.parametrize("n_max", [1025, 2048])
def test_pmf_occupation_where_it_underflows(model, n_max):
    # transient laws whose u_n leaves the double range before N; 1025 ends
    # in a partial block of the renewal solve.  Zeros fall where the
    # forward solve's do, and normal entries meet the 80-bit solve
    got = rc.return_pmf(model, n_max)
    forward = oracles.renewal_forward(got.f)
    assert (forward == 0.0).sum() > 100
    assert np.array_equal(got.u == 0.0, forward == 0.0)
    want = oracles.renewal_longdouble(got.f)
    normal = want >= _SMALLEST_NORMAL
    _assert_within(got.u[normal], want[normal].astype(float), n_max)


def _spy_flushes(monkeypatch):
    from repairchain import return_time

    flushes, zeroed = [], []
    series, product = return_time._series_pmf, return_time._head_product

    def spy_series(law, n_max, flush):
        flushes.append(flush)
        return series(law, n_max, flush)

    def spy_product(a, k, n, flush):
        out = product(a, k, n, flush)
        zeroed.append(np.count_nonzero(product(a, k, n, 0.0)[1]) - np.count_nonzero(out[1]))
        return out

    monkeypatch.setattr(return_time, "_series_pmf", spy_series)
    monkeypatch.setattr(return_time, "_head_product", spy_product)
    return flushes, zeroed


def test_pmf_unflushable_law_runs_unflushed(monkeypatch):
    # a_0 = 1e-300 is below the flush: the flushed loop finds f_1 = 0,
    # the certificate refuses it, and the loop runs again with nothing zeroed
    from repairchain import return_time

    flushes, _ = _spy_flushes(monkeypatch)
    model = rc.explicit([1e-300, 1.0 - 2e-300, 1e-300])
    got = rc.return_pmf(model, 512)
    assert flushes == [return_time._FLUSH, 0.0]
    _assert_within(got.f, oracles.convolution_chain_pmf(rc.exact_coefficients(model, 512), 512),
                   512)
    assert np.array_equal(got.u, oracles.renewal_forward(got.f))


def test_pmf_unflushed_rerun_keeps_the_peak(monkeypatch):
    # power_zeta(50) has f_n near n^-50, below the certificate's floor
    # from n = 500 on, so it runs twice; the first f must be gone by then
    import tracemalloc

    from repairchain import return_time

    model = rc.power_zeta(50.0)
    rc.return_pmf(model, 16)  # numpy's first-call caches are not the kernel's
    rc.exact_coefficients(model, 2048)
    tracemalloc.start()
    try:
        rc.return_pmf(model, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= return_time.pmf_table_bytes(2048)
    flushes, _ = _spy_flushes(monkeypatch)
    rc.return_pmf(model, 2048)
    assert flushes == [return_time._FLUSH, 0.0]


def test_pmf_certificate_passes_structural_zeros(monkeypatch):
    # jumps 3 and 5 only: f_n = 0 exactly for n - 1 in {1, 2, 4, 7}, which
    # the certificate must accept; at N = 2048 the flush zeroes entries
    from repairchain import return_time

    flushes, zeroed = _spy_flushes(monkeypatch)
    model = rc.explicit([0.4, 0.0, 0.0, 0.3, 0.0, 0.3])
    got = rc.return_pmf(model, 2048).f
    assert flushes == [return_time._FLUSH] and sum(zeroed) > 0
    assert np.flatnonzero(got[1:] == 0.0).tolist() == [1, 2, 4, 7]


def test_pmf_table_budget(monkeypatch):
    from repairchain import return_time

    for n in (1, 2, 99, 2048, 65536):
        b = math.isqrt(n)
        assert return_time.pmf_table_bytes(n) == (b * (n + b) + 6 * n + 1024) * 8
    # the refusal threshold README quotes
    assert return_time.pmf_table_bytes(64515) <= return_time.PMF_TABLE_BUDGET
    assert return_time.pmf_table_bytes(64516) > return_time.PMF_TABLE_BUDGET
    # the library's own default horizons fit
    assert return_time.pmf_table_bytes(rc.last_exit.DEFAULT_EXIT_N) <= return_time.PMF_TABLE_BUDGET
    assert return_time.pmf_table_bytes(return_time._MOMENT_N) <= return_time.PMF_TABLE_BUDGET
    # a horizon one past the budget is refused before the kernel is built
    monkeypatch.setattr(return_time, "PMF_TABLE_BUDGET", return_time.pmf_table_bytes(64) - 1)
    monkeypatch.setattr(return_time, "exact_coefficients", None)  # must not be reached
    with pytest.raises(ValueError, match="budget"):
        rc.return_pmf(rc.geometric(0.5), 64)


BAD_ARGUMENTS = {
    "tau_moment k=0": lambda m: rc.tau_moment(m, 0),
    "tau_moment n_max=0": lambda m: rc.tau_moment(m, 2, n_max=0),
    "exit_weighted_verdict k=-1": lambda m: rc.exit_weighted_verdict(m, k=-1),
    "exit_weighted_verdict alpha=nan": lambda m: rc.exit_weighted_verdict(m, alpha=math.nan),
    "exit_pmf past the budget": lambda m: rc.exit_pmf(m, 10 ** 9),
    "sample_tau samples=0": lambda m: rc.sample_tau(m, 0, 0),
    "sample_last_exit horizon=0": lambda m: rc.sample_last_exit(m, 0, 10, horizon=0),
    "asymptotic_exponent bogus": lambda m: rc.asymptotic_exponent(m, method="bogus"),
    # integers are refused, not truncated, when not integral
    "return_pmf n_max=2.5": lambda m: rc.return_pmf(m, 2.5),
    "exit_pmf n_max=inf": lambda m: rc.exit_pmf(m, math.inf),
    "tau_moment k=2.7": lambda m: rc.tau_moment(m, 2.7),
    "tau_moment k=nan": lambda m: rc.tau_moment(m, math.nan),
    "exit_weighted_verdict k=-inf": lambda m: rc.exit_weighted_verdict(m, k=-math.inf),
    "exit_weighted_verdict k=1.5": lambda m: rc.exit_weighted_verdict(m, k=1.5),
    "sample_tau samples=10.9": lambda m: rc.sample_tau(m, 0, 10.9, cap=4),
    "sample_tau cap=3.5": lambda m: rc.sample_tau(m, 0, 10, cap=3.5),
    "sample_last_exit horizon=inf": lambda m: rc.sample_last_exit(m, 0, 10, horizon=math.inf),
}


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_arguments_raise_before_classifying(call, p):
    # the same ValueError on a transient, a critical and a positive recurrent
    # law: arguments are checked before the law's class is read
    with pytest.raises(ValueError):
        call(rc.geometric(p))


@pytest.mark.parametrize("spec", [
    {"family": "geometric", "p": 0.5},
    {"family": "half_stable"},
    {"family": "explicit", "a": [0.5, 0.2, 0.3]},
], ids=lambda s: s["family"])
def test_pmf_table_bytes_is_the_real_peak(spec):
    # traced peak of one call on a model whose coefficient table is built
    import tracemalloc

    from repairchain import return_time

    model = rc.build_model(spec)
    # numpy keeps a few hundred bytes of caches from its first convolve
    # and dot in a process; they are not the kernel's arrays
    rc.return_pmf(model, 16)
    for n_max in (200, 512, 1025, 2048):  # at 200 one stripe is the whole factor
        rc.exact_coefficients(model, n_max)
        tracemalloc.start()
        try:
            rc.return_pmf(model, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = return_time.pmf_table_bytes(n_max)
        assert peak <= bound, (n_max, peak, bound)
        # the table alone is over 3/4 of the formula from N = 512 up; a
        # peak below half of it would mean the formula counts arrays the
        # kernel does not hold, and refuses horizons that fit
        assert peak >= 0.5 * bound, (n_max, peak, bound)


def test_return_prob_by_class():
    assert rc.return_pmf(rc.geometric(0.5), 8).return_prob == pytest.approx(1.0, abs=1e-12)
    assert rc.return_pmf(rc.geometric(0.75), 8).return_prob == pytest.approx(1.0, abs=1e-12)
    assert rc.return_pmf(rc.geometric(0.25), 8).return_prob == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )


def test_eval_F_golden_points():
    # F = 1 - sqrt(1 - t) for geometric(1/2)
    m = rc.geometric(0.5)
    assert rc.eval_F(m, 0.75) == pytest.approx(0.5, abs=1e-14)
    assert rc.eval_F(m, 0.0) == 0.0
    assert rc.eval_F(m, 1.0) == pytest.approx(1.0, abs=1e-12)
    for t in (0.1, 0.5, 0.9, 0.99):
        assert rc.eval_F(m, t) == pytest.approx(1.0 - math.sqrt(1.0 - t), abs=1e-13)


def test_eval_F_is_the_minimal_root(family_model):
    hi = rc.decay_params(family_model).F_at_R1
    for t in (0.2, 0.6, 0.95, 1.0):
        got = rc.eval_F(family_model, t)
        want = oracles.minimal_root(lambda x: rc.eval_G(family_model, x), t, hi)
        assert got == pytest.approx(want, abs=1e-11)
        assert abs(got - t * rc.eval_G(family_model, got)) < 1e-12


def test_eval_F_at_and_beyond_the_decay_radius():
    for model in (rc.geometric(0.25), rc.geometric(0.75), rc.explicit([0.5, 0.2, 0.3])):
        dp = rc.decay_params(model)
        assert abs(rc.eval_F(model, dp.R1) - dp.F_at_R1) < 1e-9
        assert rc.eval_F(model, dp.R1 * (1.0 + 1e-3)) == math.inf
        assert rc.eval_F(model, dp.R1 * 2.0) == math.inf
        # just inside the radius the root is real and below the tangency point
        inside = rc.eval_F(model, dp.R1 * (1.0 - 1e-6))
        assert inside < dp.F_at_R1


@pytest.mark.parametrize("p", [0.3, 0.45, 0.5, 0.7])
def test_eval_F_near_tangency_matches_closed_form(p):
    # the root turns tangential as t -> R1; the Newton climb keeps the
    # error at the conditioning of the root (about eps / sqrt(1 - t/R1))
    m = rc.geometric(p)
    r1 = rc.decay_params(m).R1
    for f in (0.05, 0.5, 0.99, 1 - 1e-6, 1 - 1e-8, 1 - 1e-10, 1 - 1e-12):
        t = f * r1
        assert rc.eval_F(m, t) == pytest.approx(oracles.geometric_F_mpmath(p, t),
                                                rel=2e-10, abs=0)


def test_eval_F_at_tiny_t(family_model):
    t = 1e-300
    assert rc.eval_F(family_model, t) == pytest.approx(t * family_model.a0, rel=1e-15, abs=0)


@pytest.mark.parametrize("p", [1e-17, 1e-12, 1e-7, 1e-3, 0.25])
def test_return_prob_of_transient_geometric_matches_fraction(p):
    # F(1) = p/q; 1 - escape_prob would cancel when the return is unlikely
    m = rc.geometric(p)
    want = Fraction(p) / (1 - Fraction(p))
    got = rc.eval_F(m, 1.0)
    assert abs(Fraction(got) - want) <= Fraction(1, 10 ** 15) * want
    assert rc.return_pmf(m, 4).return_prob == got


def _geometric_escape_grid():
    rng = np.random.default_rng(1201)
    return ([k / 64 for k in range(1, 32)] + [0.5 - 10.0 ** -k for k in range(1, 12)]
            + [1e-300, 1e-17, 1e-12, 1e-7, 1e-3] + [float(p) for p in rng.uniform(0.0, 0.5, 500)])


def test_escape_prob_of_geometric_matches_fraction():
    # P(tau = inf) = (1 - 2p)/q exactly, for p down to 1e-300 and up to
    # 1e-11 below the critical p = 1/2
    worst = Fraction(0)
    for p in _geometric_escape_grid():
        want = (1 - 2 * Fraction(p)) / (1 - Fraction(p))
        worst = max(worst, abs(Fraction(escape_prob(rc.geometric(p))) - want) / want)
    assert worst <= Fraction(45, 10 ** 17), float(worst)


def _transient_explicit_laws():
    rng = np.random.default_rng(1202)
    laws = {}
    while len(laws) < 20:
        a = [float(c) for c in rng.dirichlet(np.ones(int(rng.integers(3, 12))))]
        if rc.classify(rc.explicit(a)) is rc.ChainClass.TRANSIENT:
            laws[f"seeded {len(laws)}"] = a
    for e in (5e-12, 1e-10, 1e-6, 1e-3):  # mu - 1 = 2e: near the critical line
        laws[f"near critical {e:g}"] = [0.5 - e, 0.0, 0.5 + e]
    laws["400 terms"] = [float(c) for c in np.random.default_rng(1).dirichlet(0.05 * np.ones(400))]
    return laws


_ESCAPE_LAWS = _transient_explicit_laws()


@pytest.mark.parametrize("law", sorted(_ESCAPE_LAWS))
def test_escape_prob_of_explicit_matches_mpmath_in_few_drift_calls(law, monkeypatch):
    # one Newton descent of the drift from h = 1: within 1e-13 of the
    # 50-digit root, and in at most 45 drift evaluations even where
    # mu - 1 is 1e-11 and the root sits near h = 0
    from dataclasses import replace

    from repairchain.model import _FAMILIES

    model = rc.explicit(_ESCAPE_LAWS[law])
    assert rc.classify(model) is rc.ChainClass.TRANSIENT
    record = _FAMILIES["explicit"]
    calls = []

    def counted(m, h):
        calls.append(h)
        return record.drift(m, h)

    monkeypatch.setitem(_FAMILIES, "explicit", replace(record, drift=counted))
    got = escape_prob(model)
    assert len(calls) <= 45
    assert got == pytest.approx(oracles.escape_mpmath(model.a), rel=1e-13, abs=0.0)


def test_eval_F_monotone_in_t(family_model):
    ts = np.linspace(0.05, 1.0, 12)
    vals = [rc.eval_F(family_model, float(t)) for t in ts]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_eval_F_rejects_bad_input(geo_half):
    with pytest.raises(ValueError):
        rc.eval_F(geo_half, -0.5)
    with pytest.raises(ValueError):
        rc.eval_F(geo_half, math.nan)


def test_psi_geometric_closed_form(geo_half):
    # psi(h) = h^2 / (1 + h) when p = q = 1/2
    for h in (0.0, 0.1, 0.5, 1.0):
        assert rc.psi(geo_half, h) == pytest.approx(h * h / (1.0 + h), abs=1e-15)
    assert rc.psi(geo_half, 1.0) == pytest.approx(geo_half.a0, abs=1e-15)


def test_psi_half_stable_closed_form():
    for h in (0.01, 0.25, 1.0):
        assert rc.psi(rc.half_stable(), h) == pytest.approx((2.0 / 3.0) * h**1.5, rel=1e-14)


def test_psi_inv_roundtrip(family_model):
    a0 = family_model.a0
    for y in np.geomspace(1e-10, a0 * 0.999, 12):
        h = rc.psi_inv(family_model, float(y))
        assert abs(rc.psi(family_model, h) - y) < 1e-13
    assert rc.psi_inv(family_model, 0.0) == 0.0
    assert rc.psi_inv(family_model, -1.0) == 0.0
    assert rc.psi_inv(family_model, a0) == 1.0
    assert rc.psi_inv(family_model, a0 * 2.0) == 1.0


def test_psi_domain(geo_half):
    with pytest.raises(ValueError):
        rc.psi(geo_half, -0.1)
    with pytest.raises(ValueError):
        rc.psi(geo_half, 1.1)


_SMALLEST_NORMAL = 2.2250738585072014e-308

# laws with an exact psi oracle: explicit, geometric on both sides of
# p = 1/2, half_stable, and the critical tilts of a transient explicit
# and a transient geometric law
_PSI_LAWS = {
    "explicit": lambda: rc.explicit([0.5, 0.2, 0.3]),
    "geometric(0.5)": lambda: rc.geometric(0.5),
    "geometric(0.75)": lambda: rc.geometric(0.75),
    "geometric(0.3)": lambda: rc.geometric(0.3),
    "half_stable": rc.half_stable,
    "explicit tilt": lambda: rc.tilt_to_critical(rc.explicit([0.25, 0.125, 0.25, 0.375])),
    "geometric tilt": lambda: rc.tilt_to_critical(rc.geometric(0.3)),
}


@pytest.mark.parametrize("law", sorted(_PSI_LAWS))
def test_psi_matches_exact_oracle_down_to_tiny_h(law):
    # psi(h) = G(1-h) - (1-h) by subtraction loses everything once h is
    # below the spacing of doubles next to 1; the family drifts keep
    # rounding-level relative accuracy wherever psi is a normal double
    model = _PSI_LAWS[law]()
    for h in (1e-300, 1e-100, 1e-20, 1e-8, 1e-4, 0.5, 1.0):
        want = oracles.psi_exact(model, h)
        if abs(want) >= _SMALLEST_NORMAL:
            assert rc.psi(model, h) == pytest.approx(want, rel=1e-13, abs=0.0), h


@pytest.mark.parametrize("law", ["explicit", "geometric(0.5)", "half_stable",
                                 "explicit tilt", "geometric tilt"])
def test_psi_inv_round_trip_matches_exact_oracle(law):
    # psi(psi_inv(y)) within 1e-13 of y, with psi taken from the exact
    # oracle, from y = 1e-300 up to just below psi(1) = a_0.  Where the
    # psi values of the doubles next to h = psi_inv(y) are already more
    # than 1e-13 y apart, no double meets that bound; there h must be
    # within one double of the root instead.  Only the explicit tilt
    # gets there: its exact 1 - mu is -1.4e-16, so psi < 0 below
    # h = 2e-16 and its slope at the root of psi = y <= 5e-36 is 1.4e-16.
    model = _PSI_LAWS[law]()
    for y in np.geomspace(1e-300, 0.99 * model.a0, 61):
        y = float(y)
        h = rc.psi_inv(model, y)
        lo = oracles.psi_exact(model, math.nextafter(h, 0.0))
        hi = oracles.psi_exact(model, math.nextafter(h, 1.0))
        if hi - lo <= 1e-13 * y:
            assert oracles.psi_exact(model, h) == pytest.approx(y, rel=1e-13, abs=0.0), y
        else:
            assert lo <= y <= hi, y


@pytest.mark.parametrize("law", ["geometric(0.5)", "half_stable", "explicit tilt"])
def test_psi_inv_descends_from_right_of_the_root_in_few_drift_calls(law, monkeypatch):
    # a critical law has 1 - mu = 0, so the start comes down from h = 1;
    # the descent is monotone only from an h whose computed psi is at
    # least y, and it is short only when that h is near the root
    from dataclasses import replace

    from repairchain import return_time
    from repairchain.model import _FAMILIES

    model = _PSI_LAWS[law]()
    record = _FAMILIES[model.family]
    calls, starts = [], []

    def counted(m, h):
        calls.append(h)
        return record.drift(m, h)

    descend = return_time._descend
    monkeypatch.setattr(return_time, "_descend",
                        lambda m, y, h: starts.append((y, h)) or descend(m, y, h))
    for y in np.geomspace(1e-300, 0.99 * model.a0, 61):
        rc.psi_inv(model, float(y))
    assert all(record.drift(model, h)[0] >= y for y, h in starts)
    if law != "explicit tilt":  # its psi < 0 below h = 2e-16 refuses the steps there
        monkeypatch.setitem(_FAMILIES, model.family, replace(record, drift=counted))
        rc.psi_inv(model, 1e-300)
        assert len(calls) <= 40


@pytest.mark.parametrize("alpha", [2.1, 2.6, 3.0])
def test_psi_inv_stops_where_the_computed_psi_is_flat(alpha, monkeypatch):
    # power_zeta's computed psi reads the same across neighbouring doubles
    # near these roots; a descent that waited for h to stop decreasing
    # crept an ulp per drift evaluation (54 of them at alpha = 3, y = 1e-3)
    from dataclasses import replace

    from repairchain.model import _FAMILIES

    model = rc.power_zeta(alpha)
    record = _FAMILIES[model.family]
    calls = []

    def counted(m, h):
        calls.append(h)
        return record.drift(m, h)

    monkeypatch.setitem(_FAMILIES, model.family, replace(record, drift=counted))
    for y in (1e-3, 5e-3, 2e-2):
        calls.clear()
        rc.psi_inv(model, y)
        assert len(calls) <= 8, (y, len(calls))


def test_bounded_ratio_band_null_models():
    # 1 - F(1 - s) stays within a factor 2 of psi_inv(s)
    for model in (rc.geometric(0.5), rc.half_stable()):
        for s in np.geomspace(1e-6, 1e-2, 40):
            ratio = (1.0 - rc.eval_F(model, 1.0 - float(s))) / rc.psi_inv(model, float(s))
            assert 0.5 <= ratio <= 2.0


def test_asymptotic_exponent_analytic():
    est = rc.asymptotic_exponent(rc.geometric(0.5))
    assert est.method == "analytic" and est.gamma == 0.5
    est = rc.asymptotic_exponent(rc.half_stable())
    assert est.method == "analytic"
    assert est.gamma == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_asymptotic_exponent_fitted():
    est = rc.asymptotic_exponent(rc.geometric(0.5), method="fitted")
    assert est.method == "fitted"
    assert est.gamma == pytest.approx(0.5041788711030138, abs=1e-9)
    est = rc.asymptotic_exponent(rc.half_stable(), method="fitted")
    assert est.gamma == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_asymptotic_exponent_guards():
    with pytest.raises(NotNullRecurrent):
        rc.asymptotic_exponent(rc.geometric(0.25))
    with pytest.raises(NotNullRecurrent):
        rc.asymptotic_exponent(rc.geometric(0.75))
    with pytest.raises(ValueError):
        rc.asymptotic_exponent(rc.geometric(0.5), method="tea-leaves")


def test_tau_moment_mean():
    res = rc.tau_moment(rc.geometric(0.75), 1)
    assert res.value == 1.5 and res.flag == "exact" and res.tail_bound == 0.0
    res = rc.tau_moment(rc.power_zeta(3.0), 1)
    assert res.value == pytest.approx(1.0 / (2.0 - oracles.zeta_by_summation(3.0)), rel=1e-13)


def test_tau_moment_second_and_third():
    res = rc.tau_moment(rc.geometric(0.75), 2)
    assert res.flag == "certified tail"
    assert abs(res.value - 3.75) <= 1e-12 + res.tail_bound
    res = rc.tau_moment(rc.geometric(0.75), 3)
    assert abs(res.value - 18.375) <= 1e-12 + res.tail_bound


def test_tau_moment_certified_bracket():
    # partial sum must undershoot and the tail bound must cover the gap
    res = rc.tau_moment(rc.explicit([0.5, 0.2, 0.3]), 2)
    assert res.flag == "certified tail"
    truth = 120.0  # F''(1) + F'(1) for mu = 0.8, G''(1) = 0.6
    assert res.value <= truth + 1e-9
    assert res.value + res.tail_bound >= truth - 1e-9


def test_tau_moment_power_zeta_branches():
    res = rc.tau_moment(rc.power_zeta(3.0), 2)
    assert res.flag == "lower bound only"
    assert res.tail_bound == math.inf
    assert res.value == pytest.approx(2.8286597010472345, abs=1e-12)
    res = rc.tau_moment(rc.power_zeta(3.0), 3)
    assert res.value == math.inf and res.flag == "exact"
    res = rc.tau_moment(rc.power_zeta(4.0), 2)
    assert res.flag == "lower bound only"


@pytest.mark.parametrize("k", [102, 103, 120])
def test_tau_moment_past_the_power_overflow(k):
    # n^k passes the largest double near n = 1024 from k = 103 on, long
    # before n^k f_n does; the sum must still be the exact sum of the
    # same f, and the certificate, (n_max + 1)^k times R1^-n, is still a
    # double (about 1e183 at k = 103), so it must be given
    from fractions import Fraction

    m = rc.geometric(0.75)
    f = rc.return_pmf(m, 1024).f
    want = float(sum(Fraction(n) ** k * Fraction(float(f[n])) for n in range(1, 1025)))
    res = rc.tau_moment(m, k)
    assert res.value == pytest.approx(want, rel=1e-13)
    assert res.flag == "certified tail"
    assert res.tail_bound == pytest.approx(oracles.moment_tail_bound(m, k, 1024), rel=1e-12)


def test_tau_moment_guards():
    with pytest.raises(NotPositiveRecurrent):
        rc.tau_moment(rc.geometric(0.5), 1)
    with pytest.raises(NotPositiveRecurrent):
        rc.tau_moment(rc.geometric(0.25), 1)
    with pytest.raises(ValueError):
        rc.tau_moment(rc.geometric(0.75), 0)


# verdict matrix: (model factory, alpha, expected)
VERDICT_CASES = [
    (lambda: rc.geometric(0.5), 0.4, "Finite"),
    (lambda: rc.geometric(0.5), 0.6, "Infinite"),
    (lambda: rc.geometric(0.5), 1.0, "Infinite"),
    (lambda: rc.half_stable(), 0.5667, "Finite"),
    (lambda: rc.half_stable(), 0.7667, "Infinite"),
    (lambda: rc.power_zeta(2.5), 2.4, "Finite"),
    (lambda: rc.power_zeta(2.5), 2.6, "Infinite"),
    (lambda: rc.power_zeta(3.0), 2.9, "Finite"),
    (lambda: rc.power_zeta(3.0), 3.1, "Infinite"),
    (lambda: rc.power_zeta(4.0), 3.9, "Finite"),
    (lambda: rc.power_zeta(4.0), 4.1, "Infinite"),
    (lambda: rc.geometric(0.75), 7.5, "Finite"),
    (lambda: rc.geometric(0.25), 3.0, "Finite"),
]


@pytest.mark.parametrize("factory,alpha,want", VERDICT_CASES)
def test_tau_alpha_verdicts(factory, alpha, want):
    v = rc.tau_alpha_finite(factory(), alpha)
    assert v.verdict.value == want


@pytest.mark.parametrize("factory", [
    lambda: rc.geometric(0.75),
    lambda: rc.geometric(0.5000001),
    lambda: rc.explicit([0.6, 0.1, 0.3]),
    lambda: rc.tilt(rc.geometric(0.5), 0.9),
    lambda: rc.tilt(rc.half_stable(), 0.5),
    lambda: rc.tilt(rc.half_stable(), 0.999),
    lambda: rc.tilt(rc.power_zeta(3.0), 0.9),
    lambda: rc.tilt(rc.tilt(rc.power_zeta(2.5), 0.5), 1.5),
], ids=["geometric", "geometric near 1/2", "explicit", "tilted geometric",
        "tilted half_stable", "tilted half_stable near 1", "tilted power_zeta",
        "twice tilted power_zeta"])
def test_tau_alpha_positive_recurrent_off_power_zeta_is_decided(factory):
    # every positive recurrent law the constructors build, power_zeta
    # aside, has a radius above 1, so fractional moments are all finite
    m = factory()
    assert rc.classify(m) is rc.ChainClass.POSITIVE_RECURRENT
    assert m.radius > 1.0
    for alpha in (1.5, 2.5, 7.25):
        assert rc.tau_alpha_finite(m, alpha).verdict is rc.VerdictLabel.FINITE


def test_tau_alpha_transient_is_restricted():
    v = rc.tau_alpha_finite(rc.geometric(0.25), 2.0)
    assert v.verdict is rc.VerdictLabel.FINITE
    assert "tau<inf" in v.quantity


def test_tau_alpha_weighted_reduction():
    v = rc.tau_alpha_finite(rc.geometric(0.75), 0.4, r1_weighted=True)
    assert v.verdict is rc.VerdictLabel.FINITE
    v = rc.tau_alpha_finite(rc.geometric(0.75), 0.6, r1_weighted=True)
    assert v.verdict is rc.VerdictLabel.INFINITE
    assert "reduced" in v.reason
    # critical chains carry no extra weight: R1 = 1
    v = rc.tau_alpha_finite(rc.geometric(0.5), 0.4, r1_weighted=True)
    assert v.verdict is rc.VerdictLabel.FINITE


@pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
def test_tilted_half_stable_reweights_back_to_half_stable(x):
    # tilting at x < 1 and then at the tangency point 1/x composes to
    # the identity; the critical law is half_stable with gamma = 2/3
    m = rc.tilt(rc.half_stable(), x)
    crit = rc.tilt_to_critical(m)
    est = rc.asymptotic_exponent(crit)
    assert est.method == "analytic"
    assert est.gamma == 2.0 / 3.0
    assert rc.tau_alpha_finite(crit, 0.3).verdict is rc.VerdictLabel.FINITE
    v = rc.tau_alpha_finite(m, 0.3, r1_weighted=True)
    assert v.verdict is rc.VerdictLabel.FINITE
    assert "reduced" in v.reason
    v = rc.tau_alpha_finite(m, 0.7, r1_weighted=True)
    assert v.verdict is rc.VerdictLabel.INFINITE


def test_tau_alpha_weighted_boundary_is_unknown():
    m = rc.tilt(rc.power_zeta(3.0), 0.5)
    v = rc.tau_alpha_finite(m, 0.5, r1_weighted=True)
    assert v.verdict is rc.VerdictLabel.UNKNOWN
    assert v.diagnostics


def test_tau_alpha_rejects_bad_alpha(geo_half):
    with pytest.raises(ValueError):
        rc.tau_alpha_finite(geo_half, 0.0)
    with pytest.raises(ValueError):
        rc.tau_alpha_finite(geo_half, -1.0)


def _label_grid_laws():
    laws = [rc.geometric(p) for p in (0.1, 0.25, 0.45, 0.5, 0.5000001, 0.6, 0.75, 0.9)]
    laws += [rc.half_stable()] + [rc.power_zeta(a) for a in (2.1, 2.5, 3.0, 4.5)]
    laws += [rc.explicit(a) for a in ([0.5, 0.2, 0.3], [0.5, 0.0, 0.5], [0.2, 0.3, 0.5],
                                      [0.6, 0.1, 0.3], [1e-30, 0.0, 1.0])]
    rng = np.random.default_rng(20261019)
    laws += [rc.explicit(rng.dirichlet(np.ones(3 + i % 4)).tolist()) for i in range(8)]
    laws += [rc.tilt(rc.half_stable(), x) for x in rng.uniform(0.05, 0.99, 2)]
    laws += [rc.tilt(rc.power_zeta(a), x) for a, x in zip((3.0, 3.0, 2.5),
                                                          rng.uniform(0.05, 0.99, 3))]
    laws += [rc.tilt(rc.tilt(rc.power_zeta(2.5), 0.5), 1.5), rc.tilt(rc.geometric(0.25), 0.5),
             rc.tilt(rc.geometric(0.75), 1.2), rc.tilt(rc.explicit([0.5, 0.2, 0.3]), 2.0),
             rc.tilt_to_critical(rc.explicit([0.2, 0.3, 0.5])),
             rc.tilt_to_critical(rc.geometric(0.25))]
    return laws


# the thresholds themselves (1/2, 2/3, 1, 3/2 and the power_zeta tails) and both sides
_LABEL_ALPHAS = (0.1, 0.3, 0.5, 0.6, 2.0 / 3.0, 0.7, 1.0, 1.2, 1.5, 2.0, 2.1, 2.5, 3.0, 4.5,
                 7.25, 171.0, 1e300)


def test_one_threshold_gives_the_labels_of_the_branch_table():
    laws = _label_grid_laws()
    triples = 0
    for m in laws:
        for alpha in _LABEL_ALPHAS:
            for weighted in (False, True):
                got = rc.tau_alpha_finite(m, alpha, r1_weighted=weighted).verdict.value
                assert got == oracles.branch_table_label(m, alpha, weighted), (m, alpha, weighted)
                triples += 1
        if rc.classify(m) is rc.ChainClass.TRANSIENT:
            for k in (0, 1, 2):
                for alpha in (None, *_LABEL_ALPHAS):
                    got = rc.exit_weighted_verdict(m, k, alpha).verdict.value
                    assert got == oracles.branch_table_exit_label(m, k, alpha), (m, k, alpha)
    assert len(laws) >= 37 and triples >= 1000


def test_every_positive_recurrent_law_has_a_jump_tail_above_one():
    # the one threshold keeps E(tau) = 1/(1 - mu) finite only because no
    # positive recurrent law has a jump tail at or below 1
    from repairchain.errors import InvalidSpec
    from repairchain.model import _FAMILIES
    from repairchain.return_time import _moment_threshold

    rng = np.random.default_rng(20261020)
    laws = {
        "geometric": [rc.geometric(p) for p in (0.5000001, *rng.uniform(0.5, 1.0, 20))],
        "half_stable": [rc.half_stable()],
        "power_zeta": [rc.power_zeta(a) for a in (2.0 + 2 ** -51, 2.1, 3.0, 50.0, 1e300)],
        "explicit": [rc.explicit(rng.dirichlet(np.ones(3 + i % 5)).tolist())
                     for i in range(20)],
    }
    assert set(laws) == {name for name, rec in _FAMILIES.items() if rec.build}
    for bad in (2.0, math.nextafter(2.0, 0.0)):
        with pytest.raises(InvalidSpec):
            rc.power_zeta(bad)
    seen = 0
    for model in [m for group in laws.values() for m in group]:
        for x in (1.0, 0.3, 0.9, 1.1):
            if not math.isfinite(rc.eval_G(model, x)):
                continue
            m = rc.tilt(model, x)
            if rc.classify(m) is not rc.ChainClass.POSITIVE_RECURRENT:
                continue
            name, threshold = _moment_threshold(m)
            assert name == "jump-tail exponent"
            assert threshold == (m.alpha if m.family == "power_zeta" else math.inf), m
            assert threshold > 1.0
            seen += 1
    assert seen >= 100


def test_boundary_diagnostics_raise_no_overflow_warning():
    # R^n n^171 a_n passes the largest double inside the 4096-term window;
    # the diagnostics are partial sums alone, each positive or +inf, never NaN
    import warnings

    m = rc.tilt(rc.power_zeta(3.0), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.5, 50.0, 171.0, 1e300):
            v = rc.tau_alpha_finite(m, alpha, r1_weighted=True)
            assert v.verdict is rc.VerdictLabel.UNKNOWN
            assert list(v.diagnostics) == ["partial_sums"]
            sums = v.diagnostics["partial_sums"]
            assert sorted(sums) == [1000, 4096]
            assert all(type(x) is float and x > 0.0 for x in sums.values()), (alpha, sums)

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
# geometric laws take their closed form in both engines; each has a twin
# here that switches it off, so the engines' own critical-scale pmfs (and
# the array engine's flush of a light tail) keep these gates
ENGINES_ONLY = "_engines_only"
GATE_NAMES = sorted([*GATE_MODELS, *(name + ENGINES_ONLY for name in GATE_MODELS
                                     if name.startswith("geometric"))])


def _without_closed_form(patch):
    from repairchain.model import _FAMILIES

    patch.setitem(_FAMILIES, "geometric", _FAMILIES["geometric"]._replace(first_return=None))


def _gate_model(name, monkeypatch):
    """GATE_MODELS[name]'s model; for a twin, with the closed form switched off for the test."""
    if name.endswith(ENGINES_ONLY):
        _without_closed_form(monkeypatch)
        name = name[:-len(ENGINES_ONLY)]
    return GATE_MODELS[name]()


@pytest.mark.parametrize("name", GATE_NAMES)
def test_pmf_kernel_matches_convolution_chain(name, monkeypatch):
    # f_n reads only a_0..a_(n-1), so one chain to the largest horizon
    # holds the oracle for every smaller one
    model = _gate_model(name, monkeypatch)
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


@pytest.mark.parametrize("name", GATE_NAMES)
def test_pmf_occupation_matches_forward_renewal(name, monkeypatch):
    model = _gate_model(name, monkeypatch)
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


@pytest.mark.parametrize("p", [0.1, 0.25, 0.3, 0.5, 0.75])
def test_geometric_closed_form_meets_the_exact_law(p, monkeypatch):
    # every geometric law takes f in closed form on the critical scale, in
    # either engine, and neither engine's own computation runs; with the
    # rate restored it meets the correctly rounded law of the double p,
    # down to where that underflows (geometric(0.1) from n = 718 on)
    from repairchain import return_time

    def unreached(*args):
        raise AssertionError("a geometric law reached an engine's own pmf")

    monkeypatch.setattr(return_time, "_series_pmf", unreached)
    monkeypatch.setattr(return_time, "_taboo_recursion", unreached)
    want = oracles.geometric_first_return(*p.as_integer_ratio(), 2048)
    for n_max in (*PURE_HORIZONS, 65, 512, 2048):
        got = return_time.return_series(rc.geometric(p), n_max)
        assert isinstance(got.f, list) == (n_max in PURE_HORIZONS)
        _assert_within(np.asarray(got.f), want[:n_max + 1], n_max)
    assert (want == 0.0).sum() == (1332 if p == 0.1 else 1)


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


@pytest.mark.parametrize("name", GATE_NAMES)
def test_pmf_occupation_matches_long_double_renewal(name, monkeypatch):
    # geometric(1/4) reaches u_n of about 1e-261 at N = 2048
    got = rc.return_pmf(_gate_model(name, monkeypatch), 2048)
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


# ---------------------------------------------------------------------------
# the pure-Python engine, which return_pmf takes up to its threshold

PURE_HORIZONS = range(1, 65)


def test_pure_kernel_threshold_is_the_pmf_default():
    # the CLI's default pmf horizon is the largest one that loads no numpy
    from repairchain import cli, return_time

    default = cli._build_parser().parse_args(["pmf", "-m", "{}"]).N
    assert return_time._PURE_N == max(PURE_HORIZONS) == default


def _through_engine(model, n_max, pure):
    # return_series with its engine forced by the one selector, _PURE_N
    from repairchain import return_time

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(return_time, "_PURE_N", n_max if pure else 0)
        return return_time.return_series(model, n_max)


@pytest.mark.parametrize("name", GATE_NAMES)
def test_pure_kernel_matches_the_array_kernel(name, monkeypatch):
    # return_pmf holds the numbers of the engine its horizon takes; the
    # other engine, forced through the same pipeline, agrees at c N eps,
    # on both sides of the threshold
    model = _gate_model(name, monkeypatch)
    for n_max in [*PURE_HORIZONS, 65, 128]:
        got = rc.return_pmf(model, n_max)
        default = n_max <= max(PURE_HORIZONS)
        same, other = (_through_engine(model, n_max, pure) for pure in (default, not default))
        assert isinstance(same.f, list) == default and isinstance(other.f, list) != default
        assert got.f.tobytes() == np.array(same.f).tobytes(), n_max
        assert got.u.tobytes() == np.array(same.u).tobytes(), n_max
        _assert_within(got.f, np.array(other.f), n_max)
        _assert_within(got.u, np.array(other.u), n_max)


# kernels no return pmf has: mass 1/2, whose u_2048 is near 4e-257, and
# k_j = 1/(2 j^2) at odd j only, exact zeros between them
RENEWAL_KERNELS = {
    "defective_half": lambda n: np.array([0.0] + [0.5 ** (j + 1) for j in range(1, n + 1)]),
    "interior_zeros": lambda n: np.array([0.0] + [0.5 / j ** 2 if j % 2 else 0.0
                                                  for j in range(1, n + 1)]),
}


@pytest.mark.parametrize("name", sorted(RENEWAL_KERNELS))
def test_renewal_solves_take_any_nonnegative_kernel(name):
    # u_0 = 1, u_n = sum_(j=1..n) k_j u_(n-j): the forward solve on lists
    # up to the threshold, the blocked one above it, where 65, 256 and
    # 2048 each end in a partial block (of 2, 1 and 24 terms)
    from repairchain import return_time

    for n_max in [*PURE_HORIZONS, 65, 256, 2048]:
        k = RENEWAL_KERNELS[name](n_max)
        want = oracles.renewal_longdouble(k).astype(float)
        if n_max in PURE_HORIZONS:
            got = return_time._forward_renewal(k.tolist())
            assert type(got) is list and len(got) == n_max + 1
        else:
            got = return_time._blocked_renewal(k)
            assert not got.flags.writeable
        _assert_within(np.array(got), want, n_max)


@pytest.mark.parametrize("name", GATE_NAMES)
def test_pure_kernel_matches_convolution_chain_and_long_double_renewal(name, monkeypatch):
    model = _gate_model(name, monkeypatch)
    top = max(PURE_HORIZONS)
    chain = oracles.convolution_chain_pmf(rc.exact_coefficients(model, top), top)
    for n_max in PURE_HORIZONS:
        got = rc.return_pmf(model, n_max)
        _assert_within(got.f, chain[:n_max + 1], n_max)
        _assert_within(got.u, oracles.renewal_longdouble(got.f).astype(float), n_max)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
def test_pure_kernel_matches_the_geometric_closed_form(p):
    # transient, critical and positive recurrent: the tilt and the rate
    # restored, or neither, against the correctly rounded closed form
    want = oracles.geometric_first_return(*p.as_integer_ratio(), max(PURE_HORIZONS))
    for n_max in PURE_HORIZONS:
        _assert_within(rc.return_pmf(rc.geometric(p), n_max).f, want[:n_max + 1], n_max)


def test_pure_kernel_matches_the_fraction_series(geo_half):
    # geometric(1/2): F = 1 - sqrt(1 - t) and u_n = C(2n, n) / 4^n
    f_want = oracles.sqrt_series(max(PURE_HORIZONS))
    u_want = oracles.central_binomial_green(max(PURE_HORIZONS))
    for n_max in PURE_HORIZONS:
        got = rc.return_pmf(geo_half, n_max)
        _assert_within(got.f, f_want[:n_max + 1], n_max)
        _assert_within(got.u, u_want[:n_max + 1], n_max)


@pytest.mark.parametrize("name", GATE_NAMES)
def test_pure_kernel_zeros_are_the_sums_of_jumps(name, monkeypatch):
    # f_n = 0 exactly where n - 1 is no sum of positive jumps
    model = _gate_model(name, monkeypatch)
    top = max(PURE_HORIZONS)
    jumps = [j for j, c in enumerate(rc.exact_coefficients(model, top)) if j and c]
    sums = {0}
    for _ in range(top):
        sums |= {s + j for s in sums for j in jumps if s + j < top}
    for n_max in PURE_HORIZONS:
        f = rc.return_pmf(model, n_max).f
        assert np.flatnonzero(f[1:] == 0.0).tolist() == [i for i in range(n_max)
                                                         if i not in sums], n_max


CLI_GATE_SPECS = {
    "geometric_0.25": {"family": "geometric", "p": 0.25},
    "geometric_0.5": {"family": "geometric", "p": 0.5},
    "geometric_0.75": {"family": "geometric", "p": 0.75},
    "half_stable": {"family": "half_stable"},
    "power_zeta_3": {"family": "power_zeta", "alpha": 3.0},
    "explicit_gap": {"family": "explicit", "a": [0.5, 0.0, 0.5]},
    "explicit_gaps": {"family": "explicit", "a": [0.4, 0.0, 0.0, 0.3, 0.0, 0.3]},
    "explicit_transient": {"family": "explicit", "a": [0.2, 0.3, 0.5]},
}


@pytest.mark.parametrize("name", sorted(CLI_GATE_SPECS))
@pytest.mark.parametrize("n_max", [1, 2, 17, 64, 65])
def test_return_pmf_is_the_cli_pmf(name, n_max, capsys):
    # the CLI prints each float as its shortest repr, which reads back as
    # the same double: its numbers are return_pmf's and exit_pmf's, bit for bit
    import json

    from repairchain import cli

    spec = json.dumps(CLI_GATE_SPECS[name])
    model = rc.build_model(CLI_GATE_SPECS[name])
    assert cli.run(["pmf", "-m", spec, "-N", str(n_max)]) == 0
    printed = json.loads(capsys.readouterr().out)
    got = rc.return_pmf(model, n_max)
    assert np.array(printed["f"]).tobytes() == got.f.tobytes()
    assert np.array(printed["u"]).tobytes() == got.u.tobytes()
    if rc.classify(model) is rc.ChainClass.TRANSIENT:
        assert cli.run(["exit", "-m", spec, "-N", str(n_max)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert np.array(printed["pmf"]).tobytes() == rc.exit_pmf(model, n_max).pmf.tobytes()


_BLAS_HASH = """
import hashlib
import repairchain as rc
digest = hashlib.sha256()
for law in (rc.half_stable(), rc.power_zeta(3.0), rc.explicit([0.3, 0.0, 0.2, 0.5]),
            rc.tilt(rc.power_zeta(3.0), 0.9)):
    for n_max in (65, 1024, 2048):
        got = rc.return_pmf(law, n_max)
        digest.update(got.f.tobytes() + got.u.tobytes())
        if rc.classify(law) is rc.ChainClass.TRANSIENT:
            digest.update(rc.exit_pmf(law, n_max).pmf.tobytes())
print(digest.hexdigest())
"""


def test_pmf_bytes_do_not_depend_on_blas_threads():
    # the products are BLAS matrix products, which may split their work
    # over threads; identical calls must give identical bytes at 1 and 2
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(rc.__file__).resolve().parent.parent)
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _BLAS_HASH], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1, digests


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
    # numpy's first-call caches are not the kernel's; horizons up to 64
    # take the pure engine and would warm none of them
    rc.return_pmf(model, 65)
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


@pytest.mark.parametrize("a", [[0.5, 0.0, 0.2, 0.0, 0.2, 0.1], [0.6, 0.0, 0.0, 0.4]])
def test_pmf_certificate_reads_sums_of_jumps(a):
    # a zero f_n is accepted exactly where n - 1 is no sum of positive
    # jumps; with jumps 2, 4 and 5, 4 is a jump and a sum of 2s too
    from repairchain import return_time

    law = rc.explicit(a)
    sums = {0}
    for _ in range(64):
        sums |= {s + j for s in sums for j in range(1, len(a)) if a[j] and s + j < 64}
    structural = [i for i in range(64) if i not in sums]
    f = rc.return_pmf(law, 64).f
    assert np.flatnonzero(f[1:] == 0.0).tolist() == structural
    assert return_time._certified(f, law)
    for n in range(1, 65):
        planted = f.copy()
        planted[n] = 0.0
        assert return_time._certified(planted, law) == (n - 1 in structural), n


def test_series_products_of_nothing_are_empty():
    # a series flushed to nothing, a product that starts past x^(n-1),
    # and an empty factor on either side
    from repairchain.return_time import _head_product, _toeplitz_blocks, _trimmed

    lo, c = _trimmed(3, np.zeros(4))
    assert lo == 3 and c.size == 0
    lo, c = _head_product(_toeplitz_blocks((0, np.ones(2)), 4), (0, np.full(3, 1e-300)), 4, 1e-200)
    assert c.size == 0
    for a, k in (((5, np.ones(2)), (0, np.ones(3))), ((0, np.ones(3)), (5, np.ones(2))),
                 ((0, np.ones(2)), (0, np.ones(0))), ((0, np.ones(0)), (0, np.ones(2)))):
        lo, c = _head_product(_toeplitz_blocks(a, 4), k, 4, 0.0)
        assert c.size == 0, (a, k)


def _exact_product(a, k, n):
    """The series product of a and k cut at x^(n-1), as lo and a list of Fractions."""
    (a_lo, a), (k_lo, k) = a, k
    a, k = [Fraction(x) for x in a], [Fraction(x) for x in k]
    lo = a_lo + k_lo
    out = [Fraction(0)] * max(0, min(n - lo, len(a) + len(k) - 1))
    for i, x in enumerate(a):
        for j, y in enumerate(k[:max(0, len(out) - i)]):
            out[i + j] += x * y
    return lo, out


def test_head_product_matches_exact_arithmetic():
    # seeded nonnegative series with exact zeros inside and at the ends,
    # entries from 2^-250 to 1 so that the flush zeroes some products;
    # fixed factors short and long, lengths on and next to multiples of
    # the block width, zero and nonzero lo, cuts below and above the full
    # product, and one that ends one term into the product's second block
    from repairchain.return_time import _BLOCK, _head_product, _toeplitz_blocks

    rng = np.random.default_rng(44)
    flush = 2.0 ** -200

    def series(lo, size):
        c = rng.random(size) * 2.0 ** -rng.integers(0, 250, size).astype(float)
        c[rng.random(size) < 0.2] = 0.0
        return lo, c

    s = _BLOCK
    cases = 0
    for a_size in (1, 3, s - 1, s, s + 1, 2 * s, 3 * s + 1):
        for k_size in (1, s - 1, s, s + 1, 2 * s + 3):
            a, k = series(a_size % 3, a_size), series(1 - k_size % 2, k_size)
            lo = a[0] + k[0]
            for n in (lo + s + 1, lo + a_size + k_size - 2, lo + a_size + k_size - 1,
                      lo + a_size + k_size + s - 1):
                want_lo, want = _exact_product(a, k, n)
                fixed = _toeplitz_blocks(a, n)
                for cut in (0.0, flush):
                    got_lo, got = _head_product(fixed, k, n, cut)
                    assert got_lo >= want_lo and got_lo - want_lo + got.size <= len(want)
                    assert got.size == 0 or got[0] > 0.0 < got[-1]  # trimmed
                    for p, w in enumerate(want):
                        i = p - got_lo + want_lo
                        g = got[i] if 0 <= i < got.size else 0.0
                        # every order of summing t nonnegative products
                        # is within gamma_t = t u / (1 - t u), u = 2^-53
                        t = min(p, a_size - 1) - max(0, p - k_size + 1) + 1
                        gamma = Fraction(t, 2 ** 53 - t)
                        if w == 0 or w < cut * (1 - gamma):
                            assert g == 0.0, (a_size, k_size, n, cut, p)
                        elif w >= cut * (1 + gamma):
                            assert abs(Fraction(g) - w) <= gamma * w, (a_size, k_size, n, cut, p)
                    cases += 1
    assert cases == 7 * 5 * 4 * 2


def test_integral_floats_are_taken_as_their_integers():
    m = rc.geometric(0.75)
    got, want = rc.tau_moment(m, 2.0), rc.tau_moment(m, 2)
    assert got == want and type(got.k) is int
    assert rc.return_pmf(m, 16.0).f.tobytes() == rc.return_pmf(m, 16).f.tobytes()


def test_pmf_table_budget(monkeypatch):
    from repairchain import return_time

    for n in (1, 2, 99, 2048, 65536):
        b, m = math.isqrt(n), -(-n // 32) * 32
        assert return_time.pmf_table_bytes(n) == (b * (n + b) + n + 1 + 35 * m
                                                  + math.isqrt(256 * n) + 8 * n + 512) * 8
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
    closed = return_time._FAMILIES[model.family].first_return is not None
    # a geometric law is measured first with its closed form switched off,
    # where the series engine must meet the formula from both sides, and
    # then as it runs, where it builds no table and meets only the bound
    for engines_only in ((True, False) if closed else (True,)):
        with pytest.MonkeyPatch.context() as patch:
            if engines_only:
                _without_closed_form(patch)
            # numpy keeps a few hundred bytes of caches from its first convolve
            # and dot in a process; they are not the kernel's arrays.  Warmed at
            # 65, as horizons up to 64 take the pure engine and use neither
            rc.return_pmf(model, 65)
            # at 200 one group of output blocks is the whole product
            for n_max in (200, 512, 1025, 2048):
                rc.exact_coefficients(model, n_max)
                tracemalloc.start()
                try:
                    rc.return_pmf(model, n_max)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                bound = return_time.pmf_table_bytes(n_max)
                assert peak <= bound, (n_max, peak, bound, engines_only)
                # a peak below half of the formula would mean it counts arrays
                # the kernel does not hold, and refuses horizons that fit.
                # half_stable's powers are never flushed short, so it holds
                # every array the formula counts, each at its full size
                if engines_only:
                    assert peak >= 0.5 * bound, (n_max, peak, bound)
                if spec["family"] == "half_stable":
                    assert peak >= 0.95 * bound, (n_max, peak, bound)


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


@pytest.mark.parametrize("law", [[0.1], [0.2], [0.05, 0.05, 0.0, 0.9], [0.02, 0.08, 0.3, 0.6]],
                         ids=["geometric(0.1)", "geometric(0.2)",
                              "explicit [0.05, 0.05, 0, 0.9]", "explicit [0.02, 0.08, 0.3, 0.6]"])
def test_return_prob_when_escape_is_likely_is_the_climb(law):
    # with escape probability q above 1/2, 1 - q would be up to 5.6
    # units of 2^-53 off F(1) (3.4 on geometric(0.2), 21 on the last
    # law); the Newton climb was measured within 1.2, against p/q and a
    # 40-digit root
    if len(law) == 1:
        model, want = rc.geometric(law[0]), Fraction(law[0]) / (1 - Fraction(law[0]))
    else:
        model, want = rc.explicit(law), oracles.return_prob_mpmath(law)
    assert escape_prob(model) > 0.5
    got = rc.eval_F(model, 1.0)
    assert abs(Fraction(got) - want) <= 2 * Fraction(1, 2 ** 53) * want, float(
        (Fraction(got) - want) / want * 2 ** 53)


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
    from repairchain.model import _FAMILIES

    model = rc.explicit(_ESCAPE_LAWS[law])
    assert rc.classify(model) is rc.ChainClass.TRANSIENT
    record = _FAMILIES["explicit"]
    calls = []

    def counted(m, h):
        calls.append(h)
        return record.drift(m, h)

    monkeypatch.setitem(_FAMILIES, "explicit", record._replace(drift=counted))
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


@pytest.mark.parametrize("alpha", [2.1, 3.0, 6.0, 20.0])
def test_psi_power_zeta_matches_mpmath_down_to_tiny_h(alpha):
    # G(1-h) - (1-h) cancels as h -> 0 (it read psi(power_zeta(3), 1e-17)
    # as 0.0); h (1 - S(1-h)) does not, as S <= mu < 1.  Worst measured
    # 3.04 eps (alpha = 2.1, h = 0.1), on both sides of the switch at 3/4
    model = rc.power_zeta(alpha)
    for h in (1e-17, 1e-16, 3e-16, 1e-13, 1e-12, 1e-9, 1e-5, 1e-3, 0.1, 0.2, 0.249,
              0.25, 0.26, 0.5, 0.9):
        want = oracles.power_zeta_psi_mpmath(alpha, h)
        assert rc.psi(model, h) == pytest.approx(want, rel=4 * 2.0 ** -52, abs=0.0), h


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
        monkeypatch.setitem(_FAMILIES, model.family, record._replace(drift=counted))
        rc.psi_inv(model, 1e-300)
        assert len(calls) <= 40


@pytest.mark.parametrize("alpha", [2.1, 2.6, 3.0])
def test_psi_inv_stops_where_the_computed_psi_is_flat(alpha, monkeypatch):
    # power_zeta's computed psi reads the same across neighbouring doubles
    # near these roots; a descent that waited for h to stop decreasing
    # crept an ulp per drift evaluation (54 of them at alpha = 3, y = 1e-3)
    from repairchain.model import _FAMILIES

    model = rc.power_zeta(alpha)
    record = _FAMILIES[model.family]
    calls = []

    def counted(m, h):
        calls.append(h)
        return record.drift(m, h)

    monkeypatch.setitem(_FAMILIES, model.family, record._replace(drift=counted))
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

"""Acceptance gate.

Each test prints one machine-readable beacon line of the form

    ACCEPTANCE NN PASS name

with capture suspended, so a scan of the run log shows the verdict per
criterion even under -q.  The beacon goes out before the assert fires.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

import repairchain as rc
from conftest import FAMILY_SPECS

import oracles

FAMILY_JUMPS = {
    "geometric": lambda n: oracles.geometric_jumps(0.5, n),
    "explicit": lambda n: np.array([0.5, 0.2, 0.3]),
    "half_stable": oracles.half_stable_jumps,
    "power_zeta": lambda n: oracles.power_zeta_jumps(3.0, n),
}

_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")


def _report(num: int, name: str, ok: bool) -> bool:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    return ok


def test_acceptance_01_golden_return_pmf():
    start = time.perf_counter()
    got = rc.return_pmf(rc.geometric(0.5), 64)
    err = float(np.max(np.abs(got.f - oracles.sqrt_series(64))))
    elapsed = time.perf_counter() - start
    ok = err < 1e-12 and elapsed < 1.0
    assert _report(1, "golden-return-pmf", ok), (err, elapsed)


def test_acceptance_02_green_sequence_oracle():
    got = rc.return_pmf(rc.geometric(0.5), 30)
    err_closed = float(np.max(np.abs(got.u - oracles.central_binomial_green(30))))
    err_evolve = 0.0
    for spec in FAMILY_SPECS.values():
        model = rc.build_model(spec)
        jumps = FAMILY_JUMPS[model.family](61)
        u = rc.return_pmf(model, 60).u
        err_evolve = max(err_evolve,
                         float(np.max(np.abs(u - oracles.evolve_green(jumps, 60)))))
    ok = err_closed < 1e-12 and err_evolve < 1e-10
    assert _report(2, "green-sequence-oracle", ok), (err_closed, err_evolve)


def test_acceptance_03_decay_closed_forms():
    ok = True
    for p in (0.2, 0.25, 0.75, 0.8):
        q = 1.0 - p
        params = rc.decay_params(rc.geometric(p))
        ok &= abs(params.x0 - 1.0 / (2.0 * q)) < 1e-10
        ok &= abs(params.R1 - 1.0 / (4.0 * p * q)) < 1e-10
        if p < 0.5:  # transient: both radii sit at the tangency value
            ok &= abs(params.R0 - 1.0 / (4.0 * p * q)) < 1e-10
        ok &= abs(params.F_at_R1 - 1.0 / (2.0 * q)) < 1e-9
    assert _report(3, "decay-closed-forms", ok)


def test_acceptance_04_tilt_identity():
    model = rc.geometric(0.25)
    x0 = rc.find_x0(model)
    tilted = rc.tilt(model, x0)
    got = rc.exact_coefficients(tilted, 51)
    want = 2.0 ** -(np.arange(51.0) + 1.0)
    ok = (float(np.max(np.abs(got - want))) < 1e-12
          and abs(tilted.mu - 1.0) < 1e-10)
    assert _report(4, "tilt-identity", ok), (got[:4], tilted.mu)


def test_acceptance_05_inverse_drift_band():
    start = time.perf_counter()
    grid = np.geomspace(1e-6, 1e-2, 40)
    ok = True
    for model in (rc.geometric(0.5), rc.half_stable()):
        for s in grid:
            ratio = (1.0 - rc.eval_F(model, 1.0 - s)) / rc.psi_inv(model, s)
            ok &= 0.5 <= ratio <= 2.0
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    assert _report(5, "inverse-drift-band", ok), elapsed


def test_acceptance_06_fitted_exponents():
    geo = rc.asymptotic_exponent(rc.geometric(0.5), method="fitted")
    half = rc.asymptotic_exponent(rc.half_stable(), method="fitted")
    ok = (geo.method == "fitted" and abs(geo.gamma - 0.50) <= 0.02
          and half.method == "fitted" and abs(half.gamma - 0.667) <= 0.02)
    assert _report(6, "fitted-exponents", ok), (geo.gamma, half.gamma)


def test_acceptance_07_moment_thresholds():
    def verdict_pair(lo, hi):
        return lo.verdict.value == "Finite" and hi.verdict.value == "Infinite"

    ok = verdict_pair(rc.tau_alpha_finite(rc.geometric(0.5), 0.4),
                      rc.tau_alpha_finite(rc.geometric(0.5), 0.6))
    third = 2.0 / 3.0
    ok &= verdict_pair(rc.tau_alpha_finite(rc.half_stable(), third - 0.1),
                       rc.tau_alpha_finite(rc.half_stable(), third + 0.1))
    ok &= verdict_pair(rc.exit_weighted_verdict(rc.geometric(0.25), alpha=0.4),
                       rc.exit_weighted_verdict(rc.geometric(0.25), alpha=0.6))
    ok &= verdict_pair(
        rc.tau_alpha_finite(rc.geometric(0.75), 0.4, r1_weighted=True),
        rc.tau_alpha_finite(rc.geometric(0.75), 0.6, r1_weighted=True))
    for alpha0 in (2.5, 3.0, 4.0):
        model = rc.power_zeta(alpha0)
        ok &= verdict_pair(rc.tau_alpha_finite(model, alpha0 - 0.1),
                           rc.tau_alpha_finite(model, alpha0 + 0.1))
    assert _report(7, "moment-thresholds", ok)


def test_acceptance_08_mean_return_time():
    model = rc.geometric(0.75)
    res = rc.tau_moment(model, 1)
    exact_ok = res.value == 1.5 and res.flag == "exact"

    analysis = rc.return_pmf(model, 4096)
    numeric = math.fsum(n * analysis.f[n] for n in range(1, 4097))
    # geometric tail dominance f_n <= C r^n anchored where terms are
    # still comfortably normal floats
    r = 1.0 / rc.decay_params(model).R1
    anchor = 500
    coef = analysis.f[anchor] / r ** anchor
    decayed = r ** 4097
    tail = coef * decayed * (4097.0 * (1.0 - r) + r) / (1.0 - r) ** 2
    ok = exact_ok and abs(numeric - 1.5) <= 1e-6 + tail
    assert _report(8, "mean-return-time", ok), (res.value, numeric, tail)


def _band_misses(hist, samples, probs, lo, hi):
    misses = 0
    for n in range(lo, hi + 1):
        mean = samples * probs[n]
        sigma = math.sqrt(samples * probs[n] * (1.0 - probs[n]))
        if abs(hist.get(n, 0) - mean) > 3.0 * sigma:
            misses += 1
    return misses


def _frozen(report) -> str:
    return json.dumps(dataclasses.asdict(report), sort_keys=True)


def test_acceptance_09_monte_carlo_concordance():
    start = time.perf_counter()
    geo_half = rc.geometric(0.5)
    geo_quarter = rc.geometric(0.25)

    tau_rep = rc.sample_tau(geo_half, seed=12345, samples=10 ** 6, cap=2048)
    tau_miss = _band_misses(tau_rep.tau_hist, tau_rep.samples,
                            rc.return_pmf(geo_half, 10).f, 1, 10)

    exit_rep = rc.sample_last_exit(geo_quarter, seed=777, samples=10 ** 6,
                                   horizon=1000)
    q = 1.0 - rc.eval_F(geo_quarter, 1.0)
    probs = q * rc.return_pmf(geo_quarter, 10).u
    exit_miss = _band_misses(exit_rep.L_hist, exit_rep.samples, probs, 0, 10)

    # the same seed gives the same report
    again = _frozen(rc.sample_tau(geo_half, seed=12345, samples=10 ** 6, cap=2048))

    elapsed = time.perf_counter() - start
    ok = (tau_miss <= 1 and exit_miss == 0 and again == _frozen(tau_rep)
          and elapsed < 60.0)
    assert _report(9, "monte-carlo-concordance", ok), (tau_miss, exit_miss, elapsed)


def _check_drift_shape(model) -> bool:
    ok = True
    xs = np.linspace(0.0, 1.0, 21)
    for x in xs:
        for y in xs:
            if x + y <= 1.0:
                ok &= rc.psi(model, x + y) >= rc.psi(model, x) + rc.psi(model, y) - 1e-12
    for n in (2, 3, 5):
        for x in np.linspace(1e-4, 1.0 / n, 40):
            ok &= rc.psi(model, n * x) <= n * n * rc.psi(model, x) * (1 + 1e-9) + 1e-13
    grid = np.linspace(0.0, 0.8, 17)
    for x in grid:
        for y in grid:
            ok &= rc.psi_inv(model, x + y) <= rc.psi_inv(model, x) + rc.psi_inv(model, y) + 5e-13
    return ok


def _check_renewal(model) -> bool:
    analysis = rc.return_pmf(model, 200)
    conv = np.convolve(analysis.f, analysis.u)[:201]
    return float(np.max(np.abs(analysis.u[1:] - conv[1:201]))) < 1e-12


def _check_tilt_normalization(model) -> bool:
    hi = model.radius if math.isfinite(model.radius) else 4.0
    tilted = rc.tilt(model, 0.5 * hi)
    mass = math.fsum(tilted.coeffs.tolist())
    ok = mass <= 1.0 + 1e-12 and 1.0 - mass <= oracles.eager_table(tilted)[1] + 1e-12
    gx = rc.eval_G(model, 0.5 * hi)
    for s in np.linspace(0.0, 1.0, 11):
        want = rc.eval_G(model, 0.5 * hi * s) / gx
        ok &= abs(rc.eval_G(tilted, s) - want) <= 1e-10 * max(1.0, want)
    return ok


def _check_partial_sum_band(model) -> bool:
    from repairchain.series_tools import partial_sum_ratio

    tails = np.cumsum(model.coeffs[::-1])[::-1]
    vals = [partial_sum_ratio(tails, n) for n in (100, 1000, 10_000, 100_000)]
    return max(vals) / min(vals) < 10.0 and min(vals) > 0.0


def test_acceptance_10_property_suites():
    ok = True
    for spec in FAMILY_SPECS.values():
        model = rc.build_model(spec)
        ok &= _check_drift_shape(model)
        ok &= _check_renewal(model)
        ok &= _check_tilt_normalization(model)
        ok &= _check_partial_sum_band(model)
    assert _report(10, "property-suites", ok)

import numpy as np
import pytest
from scipy.stats import chi2

import repairchain as rc
from repairchain.errors import NotTransient

import oracles


def three_sigma_bins(hist, samples, exact, n_lo, n_hi):
    bad = 0
    for n in range(n_lo, n_hi + 1):
        emp = hist.get(n, 0) / samples
        sig = (exact[n] * (1.0 - exact[n]) / samples) ** 0.5
        if abs(emp - exact[n]) > 3.0 * sig:
            bad += 1
    return bad


def test_tau_hist_matches_exact_pmf(geo_half):
    rep = rc.sample_tau(geo_half, seed=2024, samples=200_000, cap=64)
    assert rep.samples == 200_000 and rep.seed == 2024
    exact = rc.return_pmf(geo_half, 12).f
    assert three_sigma_bins(rep.tau_hist, rep.samples, exact, 1, 10) <= 1
    assert sum(rep.tau_hist.values()) + rep.censored == rep.samples
    assert max(rep.tau_hist) <= 64


def test_tau_censoring_matches_survival(geo_half):
    rep = rc.sample_tau(geo_half, seed=7, samples=100_000, cap=64)
    f = rc.return_pmf(geo_half, 64).f
    survival = 1.0 - float(f.sum())
    sig = (survival * (1.0 - survival) / rep.samples) ** 0.5
    assert abs(rep.censored / rep.samples - survival) < 3.0 * sig


def test_tau_on_transient_chain_censors_the_escape(geo_quarter):
    rep = rc.sample_tau(geo_quarter, seed=55, samples=50_000, cap=256)
    # tau = inf with probability 2/3; those walks all hit the cap
    frac = rep.censored / rep.samples
    assert abs(frac - 2.0 / 3.0) < 0.01


def test_exit_hist_matches_exact_pmf(geo_quarter):
    rep = rc.sample_last_exit(geo_quarter, seed=2024, samples=200_000, horizon=1000)
    exact = rc.exit_pmf(geo_quarter, 12).pmf
    assert three_sigma_bins(rep.L_hist, rep.samples, exact, 0, 10) <= 1
    # every path records a last visit; censoring only flags the suspect ones
    assert sum(rep.L_hist.values()) == rep.samples
    assert rep.censored == 0


def test_exit_short_horizon_censors(geo_quarter):
    rep = rc.sample_last_exit(geo_quarter, seed=9, samples=20_000, horizon=20)
    assert rep.censored > 0
    assert sum(rep.L_hist.values()) == rep.samples


def test_exit_requires_transience(geo_half):
    with pytest.raises(NotTransient):
        rc.sample_last_exit(geo_half, seed=1, samples=100, horizon=100)


def test_same_seed_same_report(geo_half):
    a = rc.sample_tau(geo_half, seed=99, samples=30_000, cap=32)
    b = rc.sample_tau(geo_half, seed=99, samples=30_000, cap=32)
    assert a == b
    c = rc.sample_tau(geo_half, seed=100, samples=30_000, cap=32)
    assert c != a


def test_worker_count_does_not_change_results(geo_half, geo_quarter, monkeypatch):
    reports = []
    exits = []
    for threads in ("1", "3", "8"):
        monkeypatch.setenv("REPAIRCHAIN_THREADS", threads)
        reports.append(rc.sample_tau(geo_half, seed=5, samples=100_000, cap=48))
        exits.append(rc.sample_last_exit(geo_quarter, seed=5, samples=50_000, horizon=500))
    assert reports[0] == reports[1] == reports[2]
    assert exits[0] == exits[1] == exits[2]


def test_sample_count_not_multiple_of_chunk(geo_half):
    # chunking is an implementation detail; odd sizes must still foot
    rep = rc.sample_tau(geo_half, seed=4, samples=70_001, cap=32)
    assert sum(rep.tau_hist.values()) + rep.censored == 70_001


def test_tilted_sim_indistinguishable_from_critical():
    # reweighting geometric(1/4) at its tangency point gives exactly
    # geometric(1/2); the samplers see the same law through different
    # coefficient tables and seeds
    tilted = rc.tilt(rc.geometric(0.25), 2.0 / 3.0)
    plain = rc.geometric(0.5)
    ra = rc.sample_tau(tilted, seed=11, samples=200_000, cap=256)
    rb = rc.sample_tau(plain, seed=22, samples=200_000, cap=256)

    def vec(rep, upto=12):
        v = [rep.tau_hist.get(n, 0) for n in range(1, upto)]
        v.append(rep.samples - sum(v))
        return np.array(v, dtype=float)

    a, b = vec(ra), vec(rb)
    mask = (a + b) > 0
    stat = float(np.sum((a[mask] - b[mask]) ** 2 / (a[mask] + b[mask])))
    p = float(chi2.sf(stat, int(mask.sum()) - 1))
    assert p > 0.001


def test_simulation_validation(geo_half):
    with pytest.raises(ValueError):
        rc.sample_tau(geo_half, seed=1, samples=0, cap=16)
    with pytest.raises(ValueError):
        rc.sample_tau(geo_half, seed=1, samples=100, cap=0)
    with pytest.raises(ValueError):
        rc.sample_last_exit(rc.geometric(0.25), seed=1, samples=100, horizon=0)


# the block-stepped samplers against the step-by-step ones they replaced
ORACLE_LAWS = {
    "geometric(0.25)": lambda: rc.geometric(0.25),
    "geometric(0.5)": lambda: rc.geometric(0.5),
    "geometric(0.65)": lambda: rc.geometric(0.65),
    "half_stable": rc.half_stable,
    "power_zeta(2.1)": lambda: rc.power_zeta(2.1),
    "power_zeta(2.95)": lambda: rc.power_zeta(2.95),
    "explicit a_1 = 0": lambda: rc.explicit([0.5, 0.0, 0.5]),
    "tilt(geometric(0.25), 2/3)": lambda: rc.tilt(rc.geometric(0.25), 2.0 / 3.0),
}
EXIT_LAWS = {
    "geometric(0.25)": lambda: rc.geometric(0.25),
    "geometric(0.4)": lambda: rc.geometric(0.4),
    "explicit a_1 = 0": lambda: rc.explicit([0.3, 0.0, 0.2, 0.5]),
}
ORACLE_SAMPLES = (1, 7, 4096, 70_001)


@pytest.mark.parametrize("name", sorted(ORACLE_LAWS))
def test_sample_tau_matches_stepwise_oracle(name, monkeypatch):
    model = ORACLE_LAWS[name]()
    for samples in ORACLE_SAMPLES:
        for cap in (1, 5, 64, 1000):
            want = oracles.stepwise_sample_tau(model, 17, samples, cap)
            for threads in ("1", "3"):
                monkeypatch.setenv("REPAIRCHAIN_THREADS", threads)
                assert rc.sample_tau(model, 17, samples, cap) == want, (samples, cap, threads)


@pytest.mark.parametrize("name", sorted(EXIT_LAWS))
def test_sample_last_exit_matches_stepwise_oracle(name, monkeypatch):
    model = EXIT_LAWS[name]()
    for samples in ORACLE_SAMPLES:
        for horizon in (1, 3, 20, 500):
            want = oracles.stepwise_sample_last_exit(model, 23, samples, horizon)
            for threads in ("1", "3"):
                monkeypatch.setenv("REPAIRCHAIN_THREADS", threads)
                got = rc.sample_last_exit(model, 23, samples, horizon)
                assert got == want, (samples, horizon, threads)


@pytest.mark.parametrize("model", [rc.geometric(0.5), rc.half_stable(),
                                   rc.explicit([0.1, 0.3, 0.0, 0.6])],
                         ids=["geometric(0.5)", "half_stable", "explicit internal zeros"])
def test_guide_draw_is_exact_at_every_threshold(model):
    from repairchain.sim import _jump_draw

    cum = np.cumsum(model.coeffs)
    top = cum.size - 1
    # the integer thresholds t_k; below cum = 1/2, cum 2^53 need not be whole
    t = np.ceil(cum * 2.0 ** 53).astype(np.int64)
    r = np.concatenate(([0, 2 ** 53 - 1], t - 1, t, t + 1))
    r = r[(r >= 0) & (r < 2 ** 53)].astype(np.uint64)
    low = np.arange(r.size, dtype=np.uint64) & np.uint64(0x7FF)  # ignored bits
    bits = (r << np.uint64(11)) | low
    want = np.minimum(np.searchsorted(cum, r * 2.0 ** -53, side="right"), top)
    assert np.array_equal(_jump_draw(model.coeffs, cum.size)(bits), want)
    # thresholds for a prefix only: every draw past the seventh returns 7
    assert np.array_equal(_jump_draw(model.coeffs, 7)(bits), np.minimum(want, 7))


def test_block_arrays_stay_within_a_chunk(monkeypatch):
    from repairchain import sim

    sizes = []
    mix = sim._mix64

    def recording_mix(z):
        sizes.append(z.size)
        return mix(z)

    monkeypatch.setattr(sim, "_mix64", recording_mix)
    monkeypatch.setenv("REPAIRCHAIN_THREADS", "1")
    rc.sample_tau(rc.geometric(0.5), 3, 4096, cap=5000)
    # blocks widen as paths return, but never past one chunk of draws
    assert max(sizes) <= sim._CHUNK
    assert len(sizes) < 100  # far fewer blocks than the 5000 steps


def test_first_sampling_call_builds_no_table_sized_threshold_array(monkeypatch):
    # the tilt has its own 2^21-entry table, shared with no earlier call;
    # at cap 100 the call needs thresholds for 100 jumps, not for the table
    import tracemalloc

    monkeypatch.setenv("REPAIRCHAIN_THREADS", "1")
    model = rc.tilt(rc.half_stable(), 0.9)
    table = model.coeffs
    tracemalloc.start()
    try:
        rc.sample_tau(model, 1, 4096, cap=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes // 4


def test_sampling_again_on_a_shared_table_builds_no_threshold_array(monkeypatch):
    # half_stable's 16 MiB table is shared by every half_stable model and
    # built by the first call; the next must not build a copy of its size
    import tracemalloc

    monkeypatch.setenv("REPAIRCHAIN_THREADS", "1")
    rc.sample_tau(rc.half_stable(), 1, 4096, cap=100)
    tracemalloc.start()
    try:
        rc.sample_tau(rc.half_stable(), 2, 4096, cap=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rc.half_stable().coeffs.nbytes // 4


def test_histogram_budget(monkeypatch):
    from repairchain import sim

    geo = rc.geometric(0.5)
    samples = 2 * sim._CHUNK + 1  # three chunks
    monkeypatch.setenv("REPAIRCHAIN_THREADS", "1")
    want = rc.sample_tau(geo, 1, samples, cap=4)
    # one histogram of (cap + 1) int64 counts, whatever the thread count
    monkeypatch.setattr(sim, "HIST_BUDGET", 5 * 8)
    for threads in ("1", "3"):
        monkeypatch.setenv("REPAIRCHAIN_THREADS", threads)
        assert rc.sample_tau(geo, 1, samples, cap=4) == want
        with pytest.raises(ValueError, match="budget"):
            rc.sample_tau(geo, 1, samples, cap=5)
        with pytest.raises(ValueError, match="budget"):
            rc.sample_last_exit(rc.geometric(0.25), 1, samples, horizon=5)


def test_histogram_budget_admits_the_defaults_and_refuses_huge_caps():
    from repairchain import sim

    # the default cap and horizon fit in the one histogram of a call
    assert (sim.DEFAULT_TAU_CAP + 1) * 8 <= sim.HIST_BUDGET
    assert (sim.DEFAULT_EXIT_HORIZON + 1) * 8 <= sim.HIST_BUDGET
    # refused before anything of that size is allocated
    for cap in (2 ** 24, 10 ** 11):  # the largest admitted is 2^24 - 1
        with pytest.raises(ValueError, match="budget"):
            rc.sample_tau(rc.geometric(0.5), 1, 10, cap=cap)
        with pytest.raises(ValueError, match="budget"):
            rc.sample_last_exit(rc.geometric(0.25), 1, 10, horizon=cap)


def test_huge_cap_is_refused_before_the_table_is_built():
    # geometric(1e-7)'s own table is past its budget; the histogram's
    # budget is checked first, and the table is never built
    geo = rc.geometric(1e-7)
    with pytest.raises(ValueError, match="budget"):
        rc.sample_tau(geo, 0, 10, cap=10 ** 11)
    assert "coeffs" not in geo.__dict__


def test_threads_lose_no_count_in_the_shared_histogram(monkeypatch):
    # more threads than cores and a short switch interval: an add that
    # raced another would change the histogram against one thread's
    import sys

    from repairchain import sim

    samples = 6 * sim._CHUNK + 5

    def tau():
        return rc.sample_tau(rc.geometric(0.5), 8, samples, 1000)

    def last_exit():
        return rc.sample_last_exit(rc.geometric(0.25), 8, samples, 500)

    monkeypatch.setenv("REPAIRCHAIN_THREADS", "1")
    want_tau, want_exit = tau(), last_exit()
    monkeypatch.setenv("REPAIRCHAIN_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            assert tau() == want_tau
            assert last_exit() == want_exit
    finally:
        sys.setswitchinterval(interval)
    assert sum(want_exit.L_hist.values()) == samples


@pytest.mark.parametrize("threads", ["1", "3"])
def test_one_histogram_whatever_the_thread_count(threads, monkeypatch):
    # at a cap this large the histogram dominates a call's allocations:
    # three chunks on one or three threads still hold a single one
    import tracemalloc

    from repairchain import sim

    size = 4 * 10 ** 6
    samples = 2 * sim._CHUNK + 1
    monkeypatch.setenv("REPAIRCHAIN_THREADS", threads)
    for sample, model in ((rc.sample_tau, rc.geometric(0.65)),
                          (rc.sample_last_exit, rc.geometric(0.25))):
        sample(model, 1, 10, 10)  # the table is built outside the trace
        tracemalloc.start()
        try:
            sample(model, 1, samples, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (size + 1) * 8, (sample.__name__, peak)

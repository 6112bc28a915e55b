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


def test_no_small_seed_keys_a_sample_at_the_mix_fixed_point():
    # SplitMix64's finalizer maps 0 to 0, and a key of 0 draws its step-0
    # jump from the word 0, the smallest jump whatever the law.  Sample i
    # is keyed from seed + (i + 1) G, so that seed 0 is no such seed
    from repairchain import sim

    law = rc.explicit([1e-300, 0.0, 1.0])  # a return at step 1 has probability 1e-300
    assert rc.sample_tau(law, 0, 100_000, 3).tau_hist == {}
    assert rc.sample_last_exit(law, 0, 10).L_hist == {0: 10}
    n = 1 << 20
    counters = _unmix64(sim._sample_keys(0, 0, n, np.empty(n, dtype=np.uint64)))
    zero_seeds = np.uint64(0) - counters  # the seed that keys sample i with 0
    assert int(zero_seeds.min()) == 9_914_950_484_664 >= 1 << 32


def test_worker_count_does_not_change_results(geo_half, geo_quarter, monkeypatch):
    reports = []
    exits = []
    for threads in ("1", "3", "8"):
        monkeypatch.setenv("REPAIRCHAIN_THREADS", threads)
        reports.append(rc.sample_tau(geo_half, seed=5, samples=100_000, cap=48))
        exits.append(rc.sample_last_exit(geo_quarter, seed=5, samples=50_000, horizon=500))
    assert reports[0] == reports[1] == reports[2]
    assert exits[0] == exits[1] == exits[2]


@pytest.mark.parametrize("raw, want", [("3", 3), ("0", 1), (" 2 ", 2), ("abc", None), ("", None)])
def test_worker_count_from_the_environment(raw, want, monkeypatch):
    # a value that is no integer falls back to the default, as no value does
    import os

    from repairchain import sim

    monkeypatch.setenv("REPAIRCHAIN_THREADS", raw)
    assert sim._workers() == (want or min(8, os.cpu_count() or 1))


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


def _unxorshift(z, k):
    # x with x ^ (x >> k) = z: the xor of z >> jk over jk < 64
    x = z.copy()
    for s in range(k, 64, k):
        x ^= z >> np.uint64(s)
    return x


def _unmix64(words):
    """The counters whose full SplitMix64 mix is `words`: the finalizer run backwards."""
    z = _unxorshift(words, 31) * np.uint64(pow(0x94D049BB133111EB, -1, 1 << 64))
    z = _unxorshift(z, 27) * np.uint64(pow(0xBF58476D1CE4E5B9, -1, 1 << 64))
    return _unxorshift(z, 30)


def _draw(draw, counters):
    """The jumps draw gives for `counters`, through buffers of their size."""
    return draw(counters.copy(), np.empty_like(counters), np.empty(counters.size, np.int64))


def _threshold_words(cum, low_bits):
    """Draw words whose r = word >> 11 is t - 1, t and t + 1 for every threshold t.

    Below cum = 1/2, cum 2^53 need not be whole; t = ceil(cum 2^53).  The low 11
    bits, which no draw reads, are `low_bits`.
    """
    t = np.ceil(cum * 2.0 ** 53).astype(np.int64)
    r = np.concatenate(([0, 2 ** 53 - 1], t - 1, t, t + 1))
    r = r[(r >= 0) & (r < 2 ** 53)].astype(np.uint64)
    return (r << np.uint64(11)) | (low_bits(r.size) & np.uint64(0x7FF))


def _searched_guide(draw):
    """draw's guide rebuilt by binary search of each bucket's lowest and highest r."""
    thresholds, top = _closure(draw, "thresholds"), _closure(draw, "top")
    bucket_bits = 64 - int(_closure(draw, "shift"))
    width = 1 << (53 - bucket_bits)
    edges = np.arange(1 << bucket_bits, dtype=float) * width
    lowest = np.minimum(np.searchsorted(thresholds, edges, side="right"), top)
    highest = np.minimum(np.searchsorted(thresholds, edges + (width - 1), side="right"), top)
    return np.where(lowest == highest, lowest, -1)


@pytest.mark.parametrize("model", [rc.geometric(0.5), rc.half_stable(),
                                   rc.explicit([0.1, 0.3, 0.0, 0.6]),
                                   rc.explicit([0.5, 0.25, 0.25])],
                         ids=["geometric(0.5)", "half_stable", "explicit internal zeros",
                              "explicit dyadic"])
def test_guide_draw_is_exact_at_every_threshold(model):
    # the dyadic law's thresholds 2^52, 3 2^51 and 2^53 each sit exactly on
    # the lowest r of a bucket, at its 2^11 and 2^12 buckets
    from repairchain.sim import _jump_draw

    cum = np.cumsum(model.coeffs)
    n = cum.size
    words = _threshold_words(cum, lambda size: np.arange(size, dtype=np.uint64))
    counters = _unmix64(words)
    assert np.array_equal(oracles._mix64(counters), words)
    want = np.searchsorted(cum, (words >> np.uint64(11)) * 2.0 ** -53, side="right")
    # ends not below the table: the jump the table gives, capped at its last
    # index; below it, every draw past the ends-th threshold returns ends.
    # The guide has 2^11, 2^13 or 2^16 buckets across these ends.
    for ends in (n, n + 1):
        draw = _jump_draw(model, ends)
        assert np.array_equal(_closure(draw, "guide"), _searched_guide(draw)), ends
        assert np.array_equal(_draw(draw, counters), np.minimum(want, n - 1)), ends
    for ends in (1, 3, 7, 100, n - 1):
        if ends < n:
            draw = _jump_draw(model, ends)
            assert np.array_equal(_closure(draw, "guide"), _searched_guide(draw)), ends
            assert np.array_equal(_draw(draw, counters), np.minimum(want, ends)), ends


@pytest.mark.parametrize("model", [
    rc.geometric(0.5), rc.geometric(0.2), rc.half_stable(), rc.power_zeta(2.1),
    rc.explicit([0.1, 0.3, 0.0, 0.6]), rc.tilt(rc.power_zeta(2.5), 0.7)],
    ids=["geometric(0.5)", "geometric(0.2)", "half_stable", "power_zeta(2.1)", "explicit",
         "tilt power_zeta"])
def test_partial_mix_draw_is_the_full_splitmix_draw(model):
    # the draw skips SplitMix64's last z ^= z >> 31 on guide hits; every jump
    # must still be searchsorted(cum, (full mix >> 11) 2^-53), on random
    # counters and on those whose words sit at t - 1, t and t + 1 of every
    # threshold, where the guide misses
    from repairchain.sim import _jump_draw

    rng = np.random.default_rng(20240611)
    ends = 5000
    cum = np.cumsum(model.coeffs[:ends])
    top = min(ends, model.coeffs.size - 1)

    def bits(size):
        return rng.integers(0, 2 ** 64, size=size, dtype=np.uint64)

    counters = np.concatenate((bits(10 ** 5), _unmix64(_threshold_words(cum, bits))))
    words = oracles._mix64(counters)
    u = (words >> np.uint64(11)) * 2.0 ** -53
    want = np.minimum(np.searchsorted(cum, u, side="right"), top)
    draw = _jump_draw(model, ends)
    assert np.array_equal(_draw(draw, counters), want)
    # both kinds of draw were made: guide hits and misses
    misses = _closure(draw, "guide")[(words >> _closure(draw, "shift")).astype(np.int64)] < 0
    assert 0 < np.count_nonzero(misses) < misses.size // 2


def _closure(fn, name):
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


@pytest.mark.parametrize("model", [
    rc.geometric(0.5), rc.geometric(0.2), rc.half_stable(), rc.power_zeta(2.1),
    rc.power_zeta(3.0), rc.explicit([0.1, 0.3, 0.0, 0.6]), rc.tilt(rc.half_stable(), 0.9),
    rc.tilt(rc.power_zeta(2.5), 0.7)],
    ids=["geometric(0.5)", "geometric(0.2)", "half_stable", "power_zeta(2.1)",
         "power_zeta(3)", "explicit", "tilt half_stable", "tilt power_zeta"])
def test_thresholds_are_those_of_the_table_prefix(model):
    # built from exact_coefficients, bit for bit the thresholds and cap the
    # table gives, whether the table is longer than ends or not
    from repairchain.sim import _jump_draw

    n = model.coeffs.size
    for ends in (5, 100, 10 ** 5):
        draw = _jump_draw(model, ends)
        want = np.ceil(np.cumsum(model.coeffs[:ends]) * 2.0 ** 53)
        assert _closure(draw, "thresholds").tobytes() == want.tobytes(), ends
        assert _closure(draw, "top") == (ends if n > ends else n - 1), ends


def _record_draws(monkeypatch, limit=10 ** 4):
    """Record every sampler draw: a list of (size, words, scratch and out addresses).

    A call that makes more than `limit` draws fails at once.
    """
    from repairchain import sim

    calls = []
    jump_draw = sim._jump_draw

    def recording_jump_draw(model, ends):
        draw = jump_draw(model, ends)

        def recording_draw(words, scratch, out):
            calls.append((words.size, words.ctypes.data, scratch.ctypes.data, out.ctypes.data))
            assert len(calls) <= limit, "still stepping"
            return draw(words, scratch, out)

        return recording_draw

    monkeypatch.setattr(sim, "_jump_draw", recording_jump_draw)
    monkeypatch.setenv("REPAIRCHAIN_THREADS", "1")
    return calls


def test_block_arrays_stay_within_a_chunk(monkeypatch):
    from repairchain import sim

    calls = _record_draws(monkeypatch)
    rc.sample_tau(rc.geometric(0.5), 3, 4096, cap=5000)
    # blocks widen as paths return, but never past one chunk of draws
    assert max(size for size, *_ in calls) <= sim._CHUNK
    assert len(calls) < 100  # far fewer blocks than the 5000 steps
    # and every block of the one chunk draws into the same three arrays
    assert len({tuple(addresses) for _, *addresses in calls}) == 1


def test_both_running_sums_match_the_stepwise_oracle(monkeypatch):
    # blocks are step-major, b rows of n paths: summed by row adds while
    # b <= n and by one cumsum down the steps once b > n.  One call runs
    # one-step blocks of a full chunk, both forms, and must still be the
    # step-by-step report
    import sys

    from repairchain import sim

    shapes = []
    jump_draw = sim._jump_draw

    def recording_jump_draw(model, ends):
        draw = jump_draw(model, ends)

        def recording_draw(words, scratch, out):
            block = sys._getframe(1).f_locals  # the sampler's worker
            shapes.append((block["b"], block["n"]))
            return draw(words, scratch, out)

        return recording_draw

    monkeypatch.setattr(sim, "_jump_draw", recording_jump_draw)
    monkeypatch.setenv("REPAIRCHAIN_THREADS", "1")
    model = rc.geometric(0.5)
    want = oracles.stepwise_sample_tau(model, 17, 70_001, 1000)
    assert rc.sample_tau(model, 17, 70_001, 1000) == want
    assert (1, sim._CHUNK) in shapes
    assert any(1 < b <= n for b, n in shapes)
    assert any(b > n for b, n in shapes)


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
    # no half_stable model shares a table any more: each call at cap 100
    # builds 100 coefficients, never anything of the 16 MiB table's size
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


@pytest.mark.parametrize("model", [rc.half_stable, lambda: rc.power_zeta(2.0123)],
                         ids=["half_stable", "power_zeta(2.0123)"])
def test_sampling_keeps_no_coefficient_array(model, monkeypatch):
    # the call builds a_0 .. a_(n-1) once, into the array that becomes its
    # thresholds, and nothing outlives the model: no function-level cache
    # keeps a table (2^21 entries for half_stable, 9.2e5 for this alpha)
    import gc
    import tracemalloc

    monkeypatch.setenv("REPAIRCHAIN_THREADS", "1")
    tracemalloc.start()
    try:
        m = model()
        rc.sample_tau(m, 5, 64, cap=4 * 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
        del m
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 60e6 and held < 2e6, (peak, held)


def test_sampling_a_law_past_the_table_budget():
    # geometric(1e-7)'s table would be 2.06 GiB; the sampler builds only the
    # coefficients below its cap, and the table itself is still refused
    from repairchain.errors import InvalidSpec

    geo = rc.geometric(1e-7)
    rep = rc.sample_tau(geo, 0, 10)
    assert rep.tau_hist == {} and rep.censored == 10
    assert "coeffs" not in geo.__dict__
    with pytest.raises(InvalidSpec, match="budget"):
        geo.coeffs


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


def test_the_calling_thread_takes_chunks_beside_its_helpers(monkeypatch):
    # n workers are the calling thread and n - 1 helper threads; chunks 0
    # and 1 each wait for the other, so two threads must have taken them
    import threading

    from repairchain import sim

    samples = 4 * sim._CHUNK
    both_taken = threading.Barrier(2, timeout=10)

    def runs(threads):
        monkeypatch.setenv("REPAIRCHAIN_THREADS", threads)
        taken, started = [], threading.active_count()

        def worker(span, add):
            taken.append((span[0] // sim._CHUNK, threading.get_ident()))
            if threads == "2" and span[0] < 2 * sim._CHUNK:
                both_taken.wait()
            else:
                assert threading.active_count() == started + int(threads) - 1
            add(0, 1)

        assert sim._run_chunks(worker, samples, 1) == {0: 4}
        assert sorted(chunk for chunk, _ in taken) == [0, 1, 2, 3]
        return {ident for _, ident in taken}

    caller = threading.get_ident()
    assert runs("1") == {caller}
    took = runs("2")
    assert caller in took and len(took - {caller}) == 1


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
        sample(model, 1, 10, 10)  # warmed up outside the trace
        tracemalloc.start()
        try:
            sample(model, 1, samples, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (size + 1) * 8, (sample.__name__, peak)


@pytest.mark.parametrize("model", [
    rc.geometric(0.25), rc.geometric(0.45), rc.explicit([0.2, 0.3, 0.5]),
    rc.explicit([0.5 - 5e-7, 0.0, 0.5 + 5e-7])],
    ids=["geometric(0.25)", "geometric(0.45)", "explicit [0.2, 0.3, 0.5]", "mu - 1 = 1e-6"])
def test_escape_level_is_the_first_level_below_1e_12(model):
    # from level L a transient chain ever returns to 0 with probability F(1)^L;
    # both samplers retire paths from the first L where that is below 1e-12
    from repairchain.sim import _escape_level

    assert model.mu > 1.0
    r = rc.eval_F(model, 1.0)
    level = _escape_level(model)
    assert r ** level < 1e-12 <= r ** (level - 1), (r, level)


def test_transient_paths_are_censored_at_the_escape_level(geo_quarter, monkeypatch):
    # a path above the escape level is retired, not stepped on until it is
    # higher than the steps left: at the default cap of 10^6, 2/3 of the
    # paths of geometric(1/4) escape, and they leave within a few blocks
    want = rc.sample_tau(geo_quarter, 3, 20_000, cap=1000)
    calls = _record_draws(monkeypatch, limit=1000)
    rep = rc.sample_tau(geo_quarter, 3, 20_000)
    assert len(calls) < 100
    assert rep.tau_hist == want.tau_hist and rep.censored == want.censored


# tracemalloc peak, in MB, of one call on 2^17 samples (two chunks) at one
# and at two threads.  A kernel that built fresh temporaries for every
# block read 5.1 / 7.3-8.9 (median 8.6), 5.6 / 9.8-10.2 and 4.1 / 7.4-7.9
# MB here; with both threads at their first block at once, the working
# sets read 3.8 / 7.1, 4.3 / 7.9 and 3.6 / 6.8 MB at most.
MEMORY_CASES = {
    "sample_tau geometric(0.5) cap 8000": (rc.sample_tau, lambda: rc.geometric(0.5), 8000),
    "sample_tau power_zeta(3.12) cap 10^4": (rc.sample_tau, lambda: rc.power_zeta(3.12), 10 ** 4),
    "sample_last_exit geometric(0.22)": (rc.sample_last_exit, lambda: rc.geometric(0.22), 10 ** 4),
}
MEMORY_BOUNDS = {
    ("sample_tau geometric(0.5) cap 8000", "1"): 4.6,
    ("sample_tau geometric(0.5) cap 8000", "2"): 8.0,
    ("sample_tau power_zeta(3.12) cap 10^4", "1"): 4.9,
    ("sample_tau power_zeta(3.12) cap 10^4", "2"): 9.0,
    ("sample_last_exit geometric(0.22)", "1"): 3.9,
    ("sample_last_exit geometric(0.22)", "2"): 7.0,
}


@pytest.mark.parametrize("case, threads", sorted(MEMORY_BOUNDS))
def test_working_set_peak(case, threads, monkeypatch):
    # each worker draws into one working set of three chunk-sized arrays;
    # the peak is about one working set and the chunk's path arrays per
    # thread, plus the guide
    import tracemalloc

    sample, model, size = MEMORY_CASES[case]
    model = model()
    monkeypatch.setenv("REPAIRCHAIN_THREADS", threads)
    sample(model, 1, 10, 10)  # warmed up outside the trace
    tracemalloc.start()
    try:
        sample(model, 7, 1 << 17, size)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < MEMORY_BOUNDS[case, threads], peak

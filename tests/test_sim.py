import numpy as np
import pytest
from scipy.stats import chi2

import repairchain as rc
from repairchain.errors import NotTransient

import oracles
from sampler_laws import EXIT_LAWS, ORACLE_LAWS


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
    # tau = inf with probability 2/3; those paths are censored before a step
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


def test_chunk_size_does_not_change_results(geo_half, geo_quarter, monkeypatch):
    # smaller chunks split the samples and the blocks of steps differently;
    # the counter-based keys must give the same reports
    from repairchain import sim

    def reports():
        return (rc.sample_tau(geo_half, seed=5, samples=100_000, cap=48),
                rc.sample_last_exit(geo_quarter, seed=5, samples=50_000, horizon=500))

    want = reports()
    for chunk in (1000, 7919):
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        assert reports() == want, chunk


def test_a_call_starts_no_thread(geo_half, geo_quarter, monkeypatch):
    # the samplers run their chunks on the calling thread, and in forked
    # processes, never on a thread: threading is read for its count alone
    import ast
    import inspect
    import threading

    from repairchain import sim

    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    samples = 2 * sim._CHUNK + 1  # three chunks
    rc.sample_tau(geo_half, 1, samples, cap=100)
    rc.sample_last_exit(geo_quarter, 1, samples, horizon=100)
    imported, imported_from, threading_uses = set(), set(), set()
    for node in ast.walk(ast.parse(inspect.getsource(sim))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported_from.add(node.module)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "threading":
            threading_uses.add(node.attr)
    assert not (imported | imported_from) & {"concurrent.futures", "multiprocessing"}
    # every use of threading goes through its name, and only for the count
    assert "threading" not in imported_from and threading_uses == {"active_count"}


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
ORACLE_SAMPLES = (1, 7, 4096, 70_001)


@pytest.mark.parametrize("name", sorted(ORACLE_LAWS))
def test_sample_tau_matches_stepwise_oracle(name):
    model = ORACLE_LAWS[name]()
    for samples in ORACLE_SAMPLES:
        for cap in (1, 5, 64, 1000):
            want = oracles.stepwise_sample_tau(model, 17, samples, cap)
            assert rc.sample_tau(model, 17, samples, cap) == want, (samples, cap)


@pytest.mark.parametrize("name", sorted(EXIT_LAWS))
def test_sample_last_exit_matches_stepwise_oracle(name):
    model = EXIT_LAWS[name]()
    for samples in ORACLE_SAMPLES:
        for horizon in (1, 3, 20, 500):
            want = oracles.stepwise_sample_last_exit(model, 23, samples, horizon)
            got = rc.sample_last_exit(model, 23, samples, horizon)
            assert got == want, (samples, horizon)


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
    return draw(counters.copy(), np.empty_like(counters), np.empty(counters.size, np.int32))


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
        draw = _jump_draw(model, ends, 1.0)
        assert np.array_equal(_closure(draw, "guide"), _searched_guide(draw)), ends
        assert np.array_equal(_draw(draw, counters), np.minimum(want, n - 1)), ends
    for ends in (1, 3, 7, 100, n - 1):
        if ends < n:
            draw = _jump_draw(model, ends, 1.0)
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
    draw = _jump_draw(model, ends, 1.0)
    assert np.array_equal(_draw(draw, counters), want)
    # both kinds of draw were made: guide hits and misses
    misses = _closure(draw, "guide")[(words >> _closure(draw, "shift")).astype(np.int64)] < 0
    assert 0 < np.count_nonzero(misses) < misses.size // 2


def _closure(fn, name):
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


@pytest.mark.parametrize("model", [
    rc.geometric(0.5), rc.geometric(0.2), rc.half_stable(), rc.power_zeta(2.1),
    rc.power_zeta(3.0), rc.explicit([0.1, 0.3, 0.0, 0.6]), rc.tilt(rc.half_stable(), 0.9),
    rc.tilt(rc.power_zeta(2.5), 0.7), rc.explicit([5e-324, 0.5, 0.5]),
    rc.explicit([5e-324, 0.3, 0.7])],
    ids=["geometric(0.5)", "geometric(0.2)", "half_stable", "power_zeta(2.1)",
         "power_zeta(3)", "explicit", "tilt half_stable", "tilt power_zeta",
         "explicit r = 1e-323", "explicit r = 5e-324"])
def test_thresholds_are_those_of_the_table_prefix(model):
    # built from exact_coefficients, bit for bit the thresholds and cap the
    # table gives, whether the table is longer than ends or not; on the
    # transient laws those of a_j r^(j-1), r = F(1), and of the law itself
    # at r = 1.  a_0 / r is formed apart: at r = 1e-323, 1/r overflows.
    # At r = 5e-324, a_0 / r rounds to 1 and the weights sum to 1.3, so
    # thresholds lie past the guide's last bucket, which must still be the
    # searched guide
    from repairchain.sim import _jump_draw

    n = model.coeffs.size
    for r in {rc.eval_F(model, 1.0), 1.0}:
        weighted = model.coeffs / np.append(r, np.ones(n - 1))
        weighted[1:] *= r ** np.arange(n - 1.0)
        for ends in (5, 100, 10 ** 5):
            draw = _jump_draw(model, ends, r)
            want = np.ceil(np.cumsum(weighted[:ends]) * 2.0 ** 53)
            assert _closure(draw, "thresholds").tobytes() == want.tobytes(), (r, ends)
            assert _closure(draw, "top") == (ends if n > ends else n - 1), (r, ends)
            assert np.array_equal(_closure(draw, "guide"), _searched_guide(draw)), (r, ends)


def _record_draws(monkeypatch, limit=10 ** 4):
    """Record every sampler draw: a list of (size, words, scratch and out addresses).

    A call that makes more than `limit` draws fails at once.  The arrays
    drawn into are held, so that no later allocation reuses their memory:
    equal addresses are the same arrays.
    """
    from repairchain import sim

    calls, held = [], []
    jump_draw = sim._jump_draw

    def recording_jump_draw(model, ends, r):
        draw = jump_draw(model, ends, r)

        def recording_draw(words, scratch, out):
            calls.append((words.size, words.ctypes.data, scratch.ctypes.data, out.ctypes.data))
            held.append((words.base, scratch.base, out.base))
            assert len(calls) <= limit, "still stepping"
            return draw(words, scratch, out)

        return recording_draw

    monkeypatch.setattr(sim, "_jump_draw", recording_jump_draw)
    return calls


def _one_cpu(monkeypatch):
    """Pin the samplers to the sequential path: every chunk in the calling process."""
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def test_block_arrays_stay_within_a_chunk(monkeypatch):
    from repairchain import sim

    _one_cpu(monkeypatch)  # the draws of a forked range are not recorded here
    calls = _record_draws(monkeypatch)
    rc.sample_tau(rc.geometric(0.5), 3, 4096, cap=5000)
    # blocks widen as paths return, but never past one chunk of draws
    assert max(size for size, *_ in calls) <= sim._CHUNK
    assert len(calls) < 100  # far fewer blocks than the 5000 steps
    # and every block of the one chunk draws into the same three arrays
    assert len({tuple(addresses) for _, *addresses in calls}) == 1
    # as does every block of every chunk that one process of a call runs,
    # for both samplers
    samples = 2 * sim._CHUNK + 1  # three chunks
    for sample, model in ((rc.sample_tau, rc.geometric(0.5)),
                          (rc.sample_last_exit, rc.geometric(0.25))):
        calls.clear()
        sample(model, 3, samples, 200)
        assert len({tuple(addresses) for _, *addresses in calls}) == 1, sample.__name__


def test_both_running_sums_match_the_stepwise_oracle(monkeypatch):
    # blocks are step-major, b rows of n paths: summed by row adds while
    # b <= n and by one cumsum down the steps once b > n.  One call runs
    # one-step blocks of a full chunk, both forms, and must still be the
    # step-by-step report
    import sys

    from repairchain import sim

    shapes = []
    jump_draw = sim._jump_draw

    def recording_jump_draw(model, ends, r):
        draw = jump_draw(model, ends, r)

        def recording_draw(words, scratch, out):
            block = sys._getframe(1).f_locals  # the sampler's chunk
            shapes.append((block["b"], block["n"]))
            return draw(words, scratch, out)

        return recording_draw

    monkeypatch.setattr(sim, "_jump_draw", recording_jump_draw)
    _one_cpu(monkeypatch)  # the short chunk's shapes are recorded only in the caller
    model = rc.geometric(0.5)
    want = oracles.stepwise_sample_tau(model, 17, 70_001, 1000)
    assert rc.sample_tau(model, 17, 70_001, 1000) == want
    assert (1, sim._CHUNK) in shapes
    assert any(1 < b <= n for b, n in shapes)
    assert any(b > n for b, n in shapes)


def test_block_rows_are_bounded_so_levels_cannot_wrap(monkeypatch):
    # levels are 32-bit, so a block has at most 2^31 // cap - 1 rows.  At
    # the largest cap the histogram budget admits, one path stays at level 1
    # for 2^15 steps, then jumps by the cap at every step.  Unbounded, the
    # block from step 2^15 - 1 has 2^15 rows, its levels pass 2^31 - 1 after
    # 128 of them and wrap below 0, a return that never was; bounded, the
    # path is censored
    from repairchain import sim

    cap, seed = sim.HIST_BUDGET // 8 - 1, 3
    assert cap == 16_777_215
    key = sim._sample_keys(seed, 0, 1, np.empty(1, dtype=np.uint64))[0]
    inverse = np.uint64(pow(sim._GOLDEN, -1, 1 << 64))

    def stub_jump_draw(model, ends, r):
        def draw(words, scratch, out):
            steps = (words - key) * inverse  # the word of step j is key + j G
            out[:] = np.where(steps < 1 << 15, 1, cap)
            return out

        return draw

    monkeypatch.setattr(sim, "_jump_draw", stub_jump_draw)
    rep = rc.sample_tau(rc.geometric(0.5), seed, 1, cap)
    assert rep.tau_hist == {} and rep.censored == 1


def test_first_sampling_call_builds_no_table_sized_threshold_array():
    # the tilt has its own 2^21-entry table, shared with no earlier call;
    # at cap 100 the call needs thresholds for 100 jumps, not for the table
    import tracemalloc

    model = rc.tilt(rc.half_stable(), 0.9)
    table = model.coeffs
    tracemalloc.start()
    try:
        rc.sample_tau(model, 1, 4096, cap=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes // 4


def test_sampling_again_on_a_shared_table_builds_no_threshold_array():
    # no half_stable model shares a table any more: each call at cap 100
    # builds 100 coefficients, never anything of the 16 MiB table's size
    import tracemalloc

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
def test_sampling_keeps_no_coefficient_array(model):
    # the call builds a_0 .. a_(n-1) once, into the array that becomes its
    # thresholds, and nothing outlives the model: no function-level cache
    # keeps a table (2^21 entries for half_stable, 9.2e5 for this alpha)
    import gc
    import tracemalloc

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


def test_guide_build_temporaries_stay_small():
    # at half_stable's 2^21 thresholds (16.8 MB, kept by the draw) the build
    # holds the 32-bit runs (8.4 MB) and one block of them at a time; an
    # intp runs array, its overlap copy and an arange of every count were
    # 33 MB on top of the thresholds
    import gc
    import tracemalloc

    from repairchain.sim import _jump_draw

    model = rc.half_stable()
    gc.collect()
    tracemalloc.start()
    try:
        draw = _jump_draw(model, 4 * 10 ** 6 + 1, 1.0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 18e6 and peak - held < 10e6, (held, peak)
    del draw


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
    want = rc.sample_tau(geo, 1, samples, cap=4)
    # one histogram of (cap + 1) int64 counts, whatever the chunk count
    monkeypatch.setattr(sim, "HIST_BUDGET", 5 * 8)
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


@pytest.mark.parametrize("chunks", [1, 3])
def test_one_histogram_whatever_the_chunk_count(chunks):
    # at a cap this large the histogram dominates a call's allocations:
    # one chunk or three still hold a single one
    import tracemalloc

    from repairchain import sim

    size = 4 * 10 ** 6
    samples = (chunks - 1) * sim._CHUNK + 1
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


def test_transient_paths_that_never_return_draw_no_jump(geo_quarter, monkeypatch):
    # a path whose time-0 draw fails, 2/3 of those of geometric(1/4), is
    # censored (or, sampling last exits, retired at L = 0) before its first
    # jump, and the others walk the chain conditioned to return, which
    # brings them back within a few blocks even at the default cap of 10^6
    samples = 20_000
    want = rc.sample_tau(geo_quarter, 3, samples, cap=1000)
    keys = oracles._sample_keys(3, 0, samples)
    staying = int(np.count_nonzero(oracles._uniforms(keys, -1) < rc.eval_F(geo_quarter, 1.0)))
    assert abs(staying / samples - 1.0 / 3.0) < 0.01
    calls = _record_draws(monkeypatch, limit=1000)
    rep = rc.sample_tau(geo_quarter, 3, samples)
    assert calls[0][0] == staying  # the first block: one step of the paths that return
    assert len(calls) < 100
    assert rep.tau_hist == want.tau_hist and rep.censored == want.censored == samples - staying
    calls.clear()
    exits = rc.sample_last_exit(geo_quarter, 3, samples, horizon=1000)
    assert calls[0][0] == staying
    assert exits.L_hist[0] >= samples - staying


@pytest.mark.parametrize("model", [rc.geometric(0.25), rc.explicit([0.2, 0.3, 0.5]),
                                   rc.explicit([0.3, 0.0, 0.2, 0.5])],
                         ids=["geometric(0.25)", "explicit [0.2, 0.3, 0.5]",
                              "explicit [0.3, 0, 0.2, 0.5]"])
def test_censored_returns_are_the_last_exits_at_zero(model):
    # on the same seed, with cap = horizon, a path is censored by sample_tau
    # exactly when its last exit by the horizon is 0: it never returns, or
    # not by then
    for bound in (1, 5, 200):
        tau = rc.sample_tau(model, 41, 30_000, cap=bound)
        exits = rc.sample_last_exit(model, 41, 30_000, horizon=bound)
        assert tau.censored == exits.L_hist.get(0, 0), bound


def test_last_exit_where_the_return_probability_rounds_to_one():
    # mu - 1 = 1.5e-12 and a jump variance of 10^5: F(1) = 1 - 3e-17 is
    # 1.0 as a double.  Every visit's draw then returns, so the paths walk
    # to the horizon as the oracle's do
    n = 10 ** 5
    w = (1.0 + 1.5e-12) / n
    model = rc.explicit([1.0 - w] + [0.0] * (n - 1) + [w])
    assert rc.classify(model) is rc.ChainClass.TRANSIENT and rc.eval_F(model, 1.0) == 1.0
    rep = rc.sample_last_exit(model, 1, 1000, horizon=50)
    assert rep == oracles.stepwise_sample_last_exit(model, 1, 1000, 50)
    assert rep.L_hist.get(0, 0) < 1000


def _pooled_chi2_p(observed, expected) -> float:
    """Chi-square p-value, the bins with expected count below 5 pooled into one."""
    observed, expected = np.asarray(observed, float), np.asarray(expected, float)
    small = expected < 5.0
    obs = list(observed[~small]) + [observed[small].sum()]
    exp = list(expected[~small]) + [expected[small].sum()]
    if exp[-1] < 5.0:  # a pool still too small joins the smallest kept bin
        i = int(np.argmin(exp[:-1]))
        obs[i] += obs.pop()
        exp[i] += exp.pop()
    obs, exp = np.array(obs), np.array(exp)
    return float(chi2.sf(((obs - exp) ** 2 / exp).sum(), obs.size - 1))


GOF_LAWS = {
    "geometric(0.25)": lambda: rc.geometric(0.25),
    "geometric(0.4)": lambda: rc.geometric(0.4),
    "geometric(0.48)": lambda: rc.geometric(0.48),
    "explicit [0.2, 0.3, 0.5]": lambda: rc.explicit([0.2, 0.3, 0.5]),
    "explicit [0.3, 0, 0.2, 0.5]": lambda: rc.explicit([0.3, 0.0, 0.2, 0.5]),
}


@pytest.mark.parametrize("name", sorted(GOF_LAWS))
def test_transient_samplers_fit_the_exact_laws(name):
    # chi-square against f_1 .. f_h and 1 - sum f (the censored paths),
    # and against P(L_h = n) = u_n (1 - sum_(k <= h - n) f_k), h = 200
    model, h, samples = GOF_LAWS[name](), 200, 1 << 18
    exact = rc.return_pmf(model, h)
    f, u = exact.f, exact.u
    tau = rc.sample_tau(model, 2026, samples, cap=h)
    observed = [tau.tau_hist.get(n, 0) for n in range(1, h + 1)] + [tau.censored]
    expected = samples * np.append(f[1:], 1.0 - f.sum())
    assert _pooled_chi2_p(observed, expected) >= 1e-3
    exits = rc.sample_last_exit(model, 2027, samples, horizon=h)
    observed = [exits.L_hist.get(n, 0) for n in range(h + 1)]
    survival = 1.0 - np.cumsum(f)  # survival[m] = 1 - sum_(k <= m) f_k
    expected = samples * u * survival[::-1]
    assert _pooled_chi2_p(observed, expected) >= 1e-3


# tracemalloc peak, in MB, of one call on 2^17 samples (two chunks), and
# its bound.  A kernel that built fresh temporaries for every block read
# 5.1, 5.6 and 4.1 MB here; one working set per call reads 3.5, 3.6 and
# 3.3 MB.
MEMORY_CASES = {
    "sample_tau geometric(0.5) cap 8000": (rc.sample_tau, lambda: rc.geometric(0.5), 8000, 4.6),
    "sample_tau power_zeta(3.12) cap 10^4": (
        rc.sample_tau, lambda: rc.power_zeta(3.12), 10 ** 4, 4.9),
    "sample_last_exit geometric(0.22)": (
        rc.sample_last_exit, lambda: rc.geometric(0.22), 10 ** 4, 3.9),
}


@pytest.mark.parametrize("case", sorted(MEMORY_CASES))
def test_working_set_peak(case):
    # a call draws into one working set of three chunk-sized arrays; the
    # peak is about that working set and the path arrays, plus the guide
    import tracemalloc

    sample, model, size, bound = MEMORY_CASES[case]
    model = model()
    sample(model, 1, 10, 10)  # warmed up outside the trace
    tracemalloc.start()
    try:
        sample(model, 7, 1 << 17, size)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


# the forked path: a call's chunks split into contiguous ranges, the caller
# counting the first and a forked child each of the others

FORK_SAMPLES = ((1 << 16) + 1, 3 * (1 << 16) + 5)  # two chunks, and four with a short one


def _counting_forks(monkeypatch):
    """Count os.fork calls, which still fork; their pids, in the caller."""
    import os

    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _cpus(monkeypatch, count):
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("kind, name", [("tau", name) for name in sorted(ORACLE_LAWS)]
                         + [("exit", name) for name in sorted(EXIT_LAWS)])
def test_forked_reports_are_the_sequential_ones(kind, name, monkeypatch):
    # counter-based keys: a report does not depend on which process counts
    # which samples.  The fork threshold is lifted so that every law forks,
    # the short ones included; 8 CPUs is more than either call's chunks
    from repairchain import sim

    if kind == "tau":
        model, sample, bound = ORACLE_LAWS[name](), rc.sample_tau, 1000
    else:
        model, sample, bound = EXIT_LAWS[name](), rc.sample_last_exit, 500
    monkeypatch.setattr(sim, "_FORK_STEPS", 0)
    pids = _counting_forks(monkeypatch)
    for samples in FORK_SAMPLES:
        chunks = -(-samples // sim._CHUNK)
        _cpus(monkeypatch, 1)
        want = sample(model, 29, samples, bound)
        assert pids == []
        for cpus in (2, 8):
            _cpus(monkeypatch, cpus)
            assert sample(model, 29, samples, bound) == want, (samples, cpus)
            assert len(pids) == min(cpus, chunks) - 1, (samples, cpus)
            pids.clear()


def test_a_call_forks_only_where_it_pays(monkeypatch):
    # short calls, and calls of one chunk, stay in the caller: positive-
    # recurrent laws with few steps a path, last exits of quickly escaping
    # laws, and one chunk of the longest.  Two chunks of a null-recurrent
    # law at cap 1000 fork once on two CPUs
    from repairchain import sim

    pids = _counting_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    samples = 1 << 17
    rc.sample_tau(rc.power_zeta(3.0), 1, samples, cap=10 ** 4)
    rc.sample_tau(rc.geometric(0.6), 1, samples, cap=10 ** 4)
    rc.sample_last_exit(rc.geometric(0.22), 1, samples)
    rc.sample_tau(rc.geometric(0.5), 1, sim._CHUNK, cap=8000)
    assert pids == []
    rc.sample_tau(rc.geometric(0.5), 1, samples, cap=1000)
    assert len(pids) == 1


def _failing_draw(monkeypatch, where, error):
    """Make the samplers' draws raise `error` in the caller or in its children."""
    import os

    from repairchain import sim

    caller, jump_draw = os.getpid(), sim._jump_draw

    def failing_jump_draw(model, ends, r):
        draw = jump_draw(model, ends, r)

        def failing_draw(words, scratch, out):
            if (os.getpid() == caller) == (where == "caller"):
                raise error
            return draw(words, scratch, out)

        return failing_draw

    monkeypatch.setattr(sim, "_jump_draw", failing_jump_draw)


def _no_child_left():
    import os

    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_exception_in_a_child_is_raised_in_the_caller(monkeypatch):
    from repairchain import sim

    _cpus(monkeypatch, 2)
    pids = _counting_forks(monkeypatch)
    _failing_draw(monkeypatch, "child", OverflowError("in a child's range"))
    for sample, model in ((rc.sample_tau, rc.geometric(0.5)),
                          (rc.sample_last_exit, rc.geometric(0.25))):
        monkeypatch.setattr(sim, "_FORK_STEPS", 0)
        with pytest.raises(OverflowError, match="in a child's range"):
            sample(model, 1, 2 * sim._CHUNK, 100)
        assert len(pids) == 1, sample.__name__
        pids.clear()
        _no_child_left()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_an_exception_in_the_caller_kills_and_reaps_the_children(monkeypatch, error):
    # the child sleeps for 20 s before its first draw; the call ends at
    # once, with no child left
    import time

    from repairchain import sim

    _cpus(monkeypatch, 2)
    pids = _counting_forks(monkeypatch)
    _failing_draw(monkeypatch, "caller", error("in the caller's range"))
    jump_draw = sim._jump_draw

    def sleeping_jump_draw(model, ends, r):
        draw = jump_draw(model, ends, r)

        def sleeping_draw(words, scratch, out):
            if pids == [0]:  # in the child: its own fork returned 0
                pids.append("slept")
                time.sleep(20)
            return draw(words, scratch, out)

        return sleeping_draw

    monkeypatch.setattr(sim, "_jump_draw", sleeping_jump_draw)
    start = time.monotonic()
    with pytest.raises(error, match="in the caller's range"):
        rc.sample_tau(rc.geometric(0.5), 1, 2 * sim._CHUNK, cap=1000)
    assert len(pids) == 1 and time.monotonic() - start < 10
    _no_child_left()


def test_a_second_thread_or_one_cpu_never_forks(monkeypatch):
    import os
    import threading

    from repairchain import sim

    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)
    want = oracles.stepwise_sample_tau(rc.geometric(0.5), 3, 2 * sim._CHUNK, 100)
    _cpus(monkeypatch, 1)
    assert rc.sample_tau(rc.geometric(0.5), 3, 2 * sim._CHUNK, cap=100) == want
    _cpus(monkeypatch, 2)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    try:
        assert rc.sample_tau(rc.geometric(0.5), 3, 2 * sim._CHUNK, cap=100) == want
    finally:
        release.set()
        waiting.join(60)
    assert not waiting.is_alive()


def test_cli_simulate_prints_one_record_whatever_the_path(monkeypatch, capsys):
    # a fresh CLI process on two CPUs forks once per call (counted on
    # stderr) and prints one record, byte for byte the sequential one
    import os
    import subprocess
    import sys
    from pathlib import Path

    from repairchain import cli

    argv = ["simulate", "-m", '{"family": "geometric", "p": 0.5}', "--samples", "200000",
            "--cap", "2000", "--seed", "5"]
    code = ("import os, sys\n"
            "from repairchain import cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "pids, fork = [], os.fork\n"
            "os.fork = lambda: pids.append(fork()) or pids[-1]\n"
            "status = cli.run(sys.argv[1:])\n"
            "print(len(pids), file=sys.stderr)\n"
            "sys.exit(status)\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env,
                          timeout=120)
    assert proc.returncode == 0 and proc.stderr == b"1\n", proc.stderr
    _cpus(monkeypatch, 1)
    assert cli.run(argv) == 0
    sequential = capsys.readouterr().out.encode()
    assert proc.stdout == sequential and sequential.count(b"\n") == 1

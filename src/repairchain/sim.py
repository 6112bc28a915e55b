"""Monte Carlo sampling of first-return and last-exit times.

Sampling is counter-based: sample i is keyed by SplitMix64's output
i + 1, mix(seed + (i + 1) G) for the increment G, so seed 0 keys no
sample with mix(0) = 0; its draw at step j mixes the key with j.  No
generator state is carried from one sample or step to another, so a
report does not depend on how the samples are split into chunks, how
the chunks are split between processes or how steps are grouped into
blocks.

A call splits its chunks of _CHUNK samples into k contiguous ranges.
The caller counts the first range, one chunk after another on the
calling thread, into its own histogram, and an os.fork child each of
the others into its row of one anonymous shared mapping, which the
caller adds into its own.  k = min(the CPUs in the caller's affinity,
chunks), where forking is safe and pays, and k = 1 elsewhere.  It is
safe on Linux where the process has no other Python thread
(threading.active_count() == 1): the child has only the forking
thread, so a lock another thread held would stay held in it.  Threads
that Python does not see, like OpenBLAS's pool, are not counted; the
child makes no BLAS call.  It pays where the call has two chunks or
more, the caller's histogram and the k - 1 rows fit HIST_BUDGET
together, and the estimated path steps reach _FORK_STEPS: samples r
min(cap, E(tau | tau < inf)) for first returns, samples min(horizon,
E(L)) for last exits.  A child ends in os._exit, with status 0 once
its range is counted and 1 if anything raised, and every child is
reaped before the call returns.  The caller counts the range of a
child that did not exit with status 0 again itself, which the keys
make the same counts, so a range that fails in every process raises
its exception in the caller.  An exception in the caller
(KeyboardInterrupt too) kills the children first.

A call reads r = F(1), the return probability, once.  On a transient law
(r < 1) paths walk the chain conditioned to return, the tilt at r, where
G(r) = r, with jumps a_j r^(j-1); at each visit to 0, at time t, the
path's word at step -1 - t, which no jump uses, says whether it ever
returns (when its R, below, is under ceil(r 2^53)), so f_n = r f^(r)_n
exactly.  On a recurrent law r is exactly 1 and neither is done.
Jumps J are drawn by inverse CDF, in integers, on the coefficients
a_0 .. a_(ends-1) each call builds from the family formula, `ends`
being the cap or horizon + 1 (a larger jump ends a path whatever its
size).  A draw keeps the top 53 bits R of its 64-bit word and stands
for u = R 2^-53: cum[k] <= u exactly when t_k = ceil(cum[k] 2^53) <= R,
so the jump is the number of thresholds t_k <= R, capped as _jump_draw
says.  A guide of 2^g buckets on the top g bits of R gives that count
unless a threshold falls strictly inside the bucket, where the draw
binary-searches (0.0015% of draws on geometric(1/2), 0.13% on
half_stable); g = min(16, bit length of the threshold count + 10).  The
count on a bucket's highest R is k from the bucket of t_(k-1) up to the
one before that of t_k, so the guide is one np.repeat of the capped
counts over those runs.  The guide reads no bit that SplitMix64's last
step, z ^= z >> 31, changes, so only the draws that miss it take that
step.  Nothing is cached.

Each process of a call draws every block of every chunk of its range
into one working set it allocates once, after the fork, 1.25 MB: three
arrays of _CHUNK entries, the 64-bit draw words and scratch and the
32-bit jumps (then the levels).  Paths step by
X_(k+1) = (X_k - 1)^+ + J = max(X_k, 1) + (J - 1), down at most 1 a
step, so first-return sampling advances all n active paths in blocks of
b steps, stored step-major (row j holds every path's draw at step + j)
so that no pass pays per path.  max(X, 1) added to row 0, then running
sums of J - 1 down the steps (b - 1 row adds while b <= n, one cumsum
once b > n), are a path's levels in the block until it returns, where
they first reach 0, which it does exactly when their minimum down the
steps is at most 0; a block of one row has all its returns at step + 1
and needs no search.  b = min(cap - step, step + 1, max(1, _CHUNK // n),
rows) keeps young blocks short and runs the thin null-recurrent tail in
a few wide ones.  A kept level and a jump are each at most the cap, so
a block's levels stay below (b + 1) cap; rows = (2^31 - 1) // cap - 1
keeps that within int32.  As b <= (cap + 1) / 2 in any case, rows binds
only at caps from 65,535 on.  A path whose
time-0 draw fails is censored before a step, one higher than the steps
left before the cap at once, the rest at the cap.  Between blocks the
kept paths are compacted, through one index array, into buffers the
process allocates once: the keys into the other of a pair of chunk-sized
arrays, which then swap, and the levels, from the block's last row, into
one array.  Last-exit sampling (transient chains only) steps one time
unit at a time, records the last visit to 0 by the horizon, and retires
a path at the visit whose draw fails (its last exit) or when it sits
higher than the steps left; the last live paths move into the retired
ones' places, so its keys, states and last visits stay in chunk-sized
arrays allocated once, out of path order, which no report reads.  A
process keeps one histogram of cap + 1 (or horizon + 1) counts; a cap or
horizon whose histogram would pass HIST_BUDGET bytes, like a count
below 1, is refused with ValueError before the law is classified or a
coefficient built.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import sys
import threading
from typing import NamedTuple

import numpy as np

from .errors import NotTransient
from .model import (ChainClass, JumpModel, _integer, _table_size, classify, eval_G,
                    exact_coefficients)
from .return_time import eval_F

_CHUNK = 1 << 16  # fixed work unit: bounds the working set

# estimated path steps from which a call forks.  On a 2-core VM, 2^17
# samples of geometric(0.6) (estimated 0.38 Mi steps) took 10.9 ms in one
# process and in two, power_zeta(3) (0.16 Mi) 5.1 against 10.4 ms, and
# geometric(0.505) (6.3 Mi) 54.6 against 38.8 ms; the margin is for
# estimates that are off
_FORK_STEPS = 1 << 22

# ceiling on the histograms of one sampling call, in bytes: the caller's
# and its children's rows together
HIST_BUDGET = 1 << 27

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_NP_GOLDEN = np.uint64(_GOLDEN)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

DEFAULT_TAU_CAP = 10 ** 6
DEFAULT_EXIT_HORIZON = 10 ** 4


def _mix64(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer in place on z, but for its last z ^= z >> 31."""
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= _MIX2
    return z


def _sample_keys(seed: int, start: int, stop: int, out: np.ndarray) -> np.ndarray:
    """The keys of samples start .. stop - 1 (module doc), at the front of out."""
    index = np.arange(start + 1, stop + 1, dtype=np.uint64)
    keys = np.multiply(index, _NP_GOLDEN, out=out[:index.size])
    keys += np.uint64(seed & _MASK)
    _mix64(keys, index)  # the index is spent: it is the mix's scratch
    keys ^= np.right_shift(keys, np.uint64(31), out=index)
    return keys


def _returns(keys, visit: int, r: float, words, scratch) -> np.ndarray:
    """Whether each path at 0 at time `visit` ever returns, as a view of scratch (module doc)."""
    words, scratch = words[:keys.size], scratch[:keys.size]
    np.add(keys, np.uint64(((-1 - visit) * _GOLDEN) & _MASK), out=words)
    _mix64(words, scratch)
    words ^= np.right_shift(words, np.uint64(31), out=scratch)
    words >>= np.uint64(11)  # R: ceil(r 2^53) 2^11 would pass 2^64 - 1 at r = 1
    return np.less(words, np.uint64(math.ceil(r * 2.0 ** 53)), out=scratch.view(bool)[:keys.size])


def _jump_draw(model: JumpModel, ends: int, r: float):
    """Inverse-CDF draw(words, scratch, out) of a_j r^(j-1), r = F(1) or 1: int32 jumps into out.

    Thresholds cover a_0 .. a_(m-1), m = min(ends, n) for the n entries of
    ``model.coeffs``; a draw past the last of them gets top = min(ends, n - 1).
    """
    n = _table_size(model)
    thresholds = exact_coefficients(model, min(ends, n))  # becomes t_k in place
    if r < 1.0:  # a_0 / r apart: 1 / r overflows where r is subnormal
        thresholds[0] /= r
        thresholds[1:] *= np.power(r, np.arange(thresholds.size - 1.0))
    np.cumsum(thresholds, out=thresholds)
    thresholds *= 2.0 ** 53
    np.ceil(thresholds, out=thresholds)
    top = min(ends, n - 1)
    bucket_bits = min(16, thresholds.size.bit_length() + 10)
    buckets, width = 1 << bucket_bits, 1 << (53 - bucket_bits)  # width: values of R per bucket
    # #(t <= highest R), capped at top, is k on runs[k] buckets: from that of
    # t_(k-1) to the one before that of t_k (for k = top, to the last), where
    # a t_k past 2^53 - 1 lies past the last bucket
    runs = np.empty(top + 1, dtype=np.int32)  # bucket numbers, at most 2^16
    np.floor_divide(thresholds[:top], width, out=runs[:top], casting="unsafe")
    runs[top] = buckets
    np.minimum(runs, buckets, out=runs)
    for hi in range(top, 0, -_CHUNK):  # back to front, so numpy buffers a block's overlap only
        lo = max(hi - _CHUNK, 0)
        runs[lo + 1:hi + 1] -= runs[lo:hi]
    counts = np.flatnonzero(runs)  # at most one per bucket
    guide = np.repeat(counts.astype(np.int32), runs[counts])  # top < 2^31: within HIST_BUDGET
    # a bucket is a miss where its last t_k, k < top, is above its lowest R;
    # a t_k past the last bucket has a run of 0 after it, so is no bucket's last
    last = thresholds[counts[counts > 0] - 1]
    guide[(last[last % width != 0] // width).astype(np.intp)] = -1
    shift = np.uint64(64 - bucket_bits)

    def draw(words: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
        _mix64(words, scratch)
        np.right_shift(words, shift, out=scratch)
        np.take(guide, scratch.view(np.int64), out=out, mode="clip")
        if out.min() < 0:
            miss = np.flatnonzero(np.less(out, 0, out=scratch.view(bool)[:out.size]))
            bits = words[miss]  # take the mix's last step; R < 2^53 is exact as a float
            big_r = ((bits ^ (bits >> np.uint64(31))) >> np.uint64(11)).astype(float)
            out[miss] = np.minimum(np.searchsorted(thresholds, big_r, side="right"), top)
        return out

    return draw


def _working_set():
    """A call's draw words, scratch and jumps (see module doc)."""
    return (np.empty(_CHUNK, dtype=np.uint64), np.empty(_CHUNK, dtype=np.uint64),
            np.empty(_CHUNK, dtype=np.int32))


def _compact(keep, live, into) -> list:
    """Each array of live, where keep, in order at the front of the matching buffer of into."""
    at = np.flatnonzero(keep)
    return [np.take(a, at, out=buffer[:at.size], mode="clip") for a, buffer in zip(live, into)]


def _retire(gone, done, live) -> list:
    """Each array of live without its entries at gone, done's nonzero indices.

    The kept entries past the new end move into the holes below it, so
    the arrays shrink in place and lose their order.
    """
    n = done.size - gone.size
    holes = gone[:np.searchsorted(gone, n)]
    movers = np.flatnonzero(~done[n:]) + n  # as many as the holes
    for a in live:
        a[holes] = a[movers]
    return [a[:n] for a in live]


def _run_size(samples: int, bound: int, name: str) -> tuple[int, int]:
    """samples and the cap or horizon as ints of at least 1, the histogram within HIST_BUDGET."""
    samples, bound = _integer(samples, 1, "sample count"), _integer(bound, 1, name)
    if (bound + 1) * 8 > HIST_BUDGET:
        raise ValueError(f"{bound + 1} histogram bins need {(bound + 1) * 8} bytes, "
                         f"above the {HIST_BUDGET}-byte budget")
    return samples, bound


def _mean_return(model: JumpModel, r: float) -> float:
    """E(tau | tau < inf) = 1 / (1 - G'(r)), G'(1) = mu; +inf on a null-recurrent law."""
    slope = model.mu if r == 1.0 else eval_G(model, r, 1)
    return 1.0 / (1.0 - slope) if slope < 1.0 else math.inf


def _processes(chunks: int, size: int, steps: float) -> int:
    """How many processes run a call's chunks (module doc): 1 where a fork is unsafe or costs."""
    if sys.platform != "linux" or threading.active_count() > 1 or steps < _FORK_STEPS:
        return 1
    k = min(len(os.sched_getaffinity(0)), chunks)
    return k if k * size * 8 <= HIST_BUDGET else 1


def _count(new_worker, lo: int, hi: int, counts: np.ndarray) -> None:
    """Add samples lo .. hi - 1 into the histogram counts, one chunk after another."""
    worker = new_worker()
    for start in range(lo, hi, _CHUNK):
        worker(start, min(start + _CHUNK, hi), counts)


def _run_chunks(new_worker, samples: int, size: int, steps: float) -> dict:
    """Count every sample with the workers that new_worker() makes; the sparse histogram.

    A worker(lo, hi, counts) adds samples lo .. hi - 1, at most one chunk,
    into counts, a histogram of `size` bins.  The chunks are split into k
    contiguous ranges (_processes, from the estimated path `steps`): the
    caller counts the first into its own histogram, and a forked child
    each of the others into its row of one shared mapping.  Every child is
    reaped before this returns, and killed first on an exception in the
    caller.  The caller adds in the row of each child that exited with
    status 0 and counts the range of any other again itself.
    """
    chunks = -(-samples // _CHUNK)
    k = _processes(chunks, size, steps)
    cuts = [i * chunks // k * _CHUNK for i in range(k)] + [samples]
    counts = np.zeros(size, dtype=np.int64)
    if k > 1:  # the children's rows, shared pages that a fork does not copy
        rows = np.frombuffer(mmap.mmap(-1, (k - 1) * size * 8), dtype=np.int64).reshape(k - 1, -1)
    children = {}  # pid: its row
    try:
        for row, (lo, hi) in enumerate(zip(cuts[1:-1], cuts[2:])):
            pid = os.fork()
            if not pid:  # the child: os._exit, so no stdio flush twice and no atexit hook
                try:
                    _count(new_worker, lo, hi, rows[row])
                    os._exit(0)
                finally:
                    os._exit(1)
            children[pid] = row
        _count(new_worker, 0, cuts[1], counts)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = {pid: os.waitpid(pid, 0)[1] for pid in children}
    for pid, row in children.items():
        if status[pid] == 0:
            counts += rows[row]
        else:  # the same keys: the same counts
            _count(new_worker, cuts[row + 1], cuts[row + 2], counts)
    bins = np.nonzero(counts)[0]
    return dict(zip(bins.tolist(), counts[bins].tolist()))


class SimReport(NamedTuple):
    """Empirical histogram report; merging across chunks is exact.

    Exactly one of tau_hist / L_hist is populated.  censored counts,
    for return sampling, the paths with tau > cap, those that never
    return included; for last-exit sampling, last visits inside the
    final tenth of the horizon (bias guard).
    """

    samples: int
    seed: int
    tau_hist: dict
    L_hist: dict
    censored: int
    cap: int | None = None
    horizon: int | None = None


def sample_tau(model: JumpModel, seed: int, samples: int,
               cap: int = DEFAULT_TAU_CAP) -> SimReport:
    """First-return times of `samples` paths from 0; bad sizes raise ValueError first."""
    samples, cap = _run_size(samples, cap, "cap")
    r = eval_F(model, 1.0)
    draw = _jump_draw(model, cap, r)
    rows = np.iinfo(np.int32).max // cap - 1  # (rows + 1) cap <= 2^31 - 1: no level wraps

    def new_worker():  # in each process of the call (_run_chunks)
        words, scratch, jumps = _working_set()
        key_pair = np.empty((2, _CHUNK), dtype=np.uint64)
        level_buffer = np.empty(_CHUNK, dtype=np.int32)

        def worker(lo, hi, counts):
            side = 0  # live keys in row side of their pair
            keys = _sample_keys(seed, lo, hi, key_pair[side])
            if r < 1.0:  # the paths that never return are censored before a step
                side ^= 1
                keys, = _compact(_returns(keys, 0, r, words, scratch), [keys], [key_pair[side]])
            level = level_buffer[:keys.size]
            level.fill(0)
            step = 0
            while step < cap and keys.size:
                n = keys.size
                b = min(cap - step, step + 1, max(1, _CHUNK // n), rows)
                offsets = np.arange(step, step + b, dtype=np.uint64) * _NP_GOLDEN
                # step-major: row j holds every path's draw at step + j
                np.add(offsets[:, None], keys, out=words[:n * b].reshape(b, n))
                levels = draw(words[:n * b], scratch[:n * b], jumps[:n * b]).reshape(b, n)
                levels -= 1
                levels[0] += np.maximum(level, 1, out=level)
                # each path's level after each step: sums down the steps, by row adds
                # while b <= n, past which one cumsum over axis 0 is cheaper
                if b <= n:
                    for j in range(1, b):
                        np.add(levels[j], levels[j - 1], out=levels[j])
                else:
                    np.cumsum(levels, axis=0, out=levels)
                back = np.flatnonzero(np.minimum.reduce(levels, axis=0,
                                                        out=scratch.view(np.int32)[:n]) <= 0)
                if b == 1:  # every return is at row 0
                    counts[step + 1] += back.size
                else:
                    below = np.take(levels, back, axis=1, mode="clip",
                                    out=words.view(np.int32)[:b * back.size].reshape(b, -1)) <= 0
                    returns = np.bincount(np.argmax(below, axis=0), minlength=b)  # per step
                    counts[step + 1:step + 1 + b] += returns
                step += b
                kept = np.less_equal(levels[-1], cap - step, out=scratch.view(bool)[:n])
                kept[back] = False
                # the kept keys into the other of their pair; level, spent on row 0,
                # takes their last row
                side ^= 1
                keys, level = _compact(kept, (keys, levels[-1]), (key_pair[side], level_buffer))

        return worker

    hist = _run_chunks(new_worker, samples, cap + 1,
                       samples * r * min(cap, _mean_return(model, r)))
    return SimReport(samples=samples, seed=int(seed), tau_hist=hist,
                     L_hist={}, censored=samples - sum(hist.values()), cap=cap)


def sample_last_exit(model: JumpModel, seed: int, samples: int,
                     horizon: int = DEFAULT_EXIT_HORIZON) -> SimReport:
    """Last visits to 0 of a transient chain by `horizon`; bad sizes raise ValueError first."""
    samples, horizon = _run_size(samples, horizon, "horizon")
    if classify(model) is not ChainClass.TRANSIENT:
        raise NotTransient("last-exit sampling needs a transient chain")
    r = eval_F(model, 1.0)
    draw = _jump_draw(model, horizon + 1, r)
    flag_from = horizon - horizon // 10  # strictly above = final 10%

    def new_worker():  # in each process of the call (_run_chunks)
        words, scratch, jumps = _working_set()
        # each live path's key, and its state and last visit to 0
        path_keys, paths = np.empty(_CHUNK, dtype=np.uint64), np.empty((2, _CHUNK), dtype=np.int32)

        def worker(lo, hi, counts):
            keys = _sample_keys(seed, lo, hi, path_keys)
            state, last_zero = paths[:, :keys.size]
            paths[:, :keys.size] = 0
            done = _returns(keys, 0, r, words, scratch)
            np.logical_not(done, out=done)  # never back: the last exit is 0
            now = 0
            while True:
                gone = np.flatnonzero(done)  # at their last exit, or too high to be back
                if gone.size:
                    np.add.at(counts, last_zero[gone], 1)
                    keys, state, last_zero = _retire(gone, done, (keys, state, last_zero))
                if now == horizon or not keys.size:
                    break
                now += 1
                n = keys.size
                np.add(keys, np.uint64(((now - 1) * _GOLDEN) & _MASK), out=words[:n])
                state -= 1
                np.maximum(state, 0, out=state)
                state += draw(words[:n], scratch[:n], jumps[:n])
                done = np.greater(state, horizon - now, out=jumps.view(bool)[:n])
                at0 = np.flatnonzero(state == 0)
                last_zero[at0] = now  # a visit; the one whose draw fails is the last exit
                visited = np.take(keys, at0, out=words[:at0.size], mode="clip")
                done[at0] = ~_returns(visited, now, r, words, scratch)
            np.add.at(counts, last_zero, 1)  # the paths still alive at the horizon

        return worker

    # a path retires at L, and E(L) = F'(1) / (1 - r), F'(1) = r E(tau | tau < inf)
    escape = 1.0 - r  # 0 where r rounds to 1
    mean_exit = r * _mean_return(model, r) / escape if escape else math.inf
    hist = _run_chunks(new_worker, samples, horizon + 1, samples * min(horizon, mean_exit))
    censored = sum(c for n, c in hist.items() if n > flag_from)
    return SimReport(samples=samples, seed=int(seed), tau_hist={},
                     L_hist=hist, censored=censored, horizon=horizon)

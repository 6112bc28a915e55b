"""Monte Carlo sampling of first-return and last-exit times.

Sampling is counter-based: sample i is keyed by SplitMix64's output
i + 1, mix(seed + (i + 1) G) for the increment G, so seed 0 keys no
sample with mix(0) = 0; its draw at step j mixes the key with j.  No
generator state is shared, so any partition of the samples across
workers, and any grouping of steps into blocks, gives the identical
merged report; REPAIRCHAIN_THREADS only changes how fast it arrives.
Its n workers are the calling thread, always, and n - 1 helper threads.

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
says.  A guide of 2^g buckets on the top g bits of R, built by counting
the thresholds per bucket, gives that count unless a threshold falls
strictly inside the bucket, where the draw binary-searches (0.0015% of
draws on geometric(1/2), 0.13% on half_stable); g = min(16, bit length
of the threshold count + 10).  The guide reads no bit that SplitMix64's
last step, z ^= z >> 31, changes, so only the draws that miss it take
that step.  Nothing is cached.

A worker draws every block of its chunk of paths into one working set
allocated once, 1.25 MB: three arrays of _CHUNK entries, the 64-bit draw
words and scratch and the 32-bit jumps (then the levels).  Paths step by
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
worker allocates once: the keys into the other of a pair of chunk-sized
arrays, which then swap, and the levels, from the block's last row, into
one array.  Last-exit sampling (transient chains only) steps one time
unit at a time, records the last visit to 0 by the horizon, and retires
a path at the visit whose draw fails (its last exit) or when it sits
higher than the steps left; its keys, states and last visits compact
the same way, into pairs sized to the paths that return at time 0.  A
call keeps one histogram of cap + 1 (or horizon + 1) counts, which every
worker adds into under a lock; a cap or horizon whose histogram would
pass HIST_BUDGET bytes, like a count below 1, is refused with ValueError
before the law is classified or a coefficient built.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NotTransient
from .model import ChainClass, JumpModel, _integer, _table_size, classify, exact_coefficients
from .return_time import eval_F

_CHUNK = 1 << 16  # fixed work unit; never derived from the worker count

# ceiling on the histogram of one sampling call, in bytes
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
    cells = (thresholds // width).astype(np.int64)  # the bucket each threshold falls in
    # #(t <= highest R of each bucket), and #(t <= lowest R): less those strictly above it
    highest = np.cumsum(np.bincount(cells, minlength=buckets)[:buckets])
    lowest = highest - np.bincount(cells[thresholds % width != 0], minlength=buckets)[:buckets]
    guide = np.minimum(lowest, top).astype(np.int32)  # top < 2^31: the cap is within HIST_BUDGET
    guide[guide != np.minimum(highest, top)] = -1
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


def _workers() -> int:
    try:  # int() strips spaces, and refuses an empty or unset value
        return max(1, int(os.environ.get("REPAIRCHAIN_THREADS", "")))
    except ValueError:
        return min(8, os.cpu_count() or 1)


def _working_set():
    """A worker's draw words, scratch and jumps (see module doc)."""
    return (np.empty(_CHUNK, dtype=np.uint64), np.empty(_CHUNK, dtype=np.uint64),
            np.empty(_CHUNK, dtype=np.int32))


def _compact(keep, live, into) -> list:
    """Each array of live, where keep, in order at the front of the matching buffer of into."""
    at = np.flatnonzero(keep)
    return [np.take(a, at, out=buffer[:at.size], mode="clip") for a, buffer in zip(live, into)]


def _run_size(samples: int, bound: int, name: str) -> tuple[int, int]:
    """samples and the cap or horizon as ints of at least 1, the histogram within HIST_BUDGET."""
    samples, bound = _integer(samples, 1, "sample count"), _integer(bound, 1, name)
    if (bound + 1) * 8 > HIST_BUDGET:
        raise ValueError(f"{bound + 1} histogram bins need {(bound + 1) * 8} bytes, "
                         f"above the {HIST_BUDGET}-byte budget")
    return samples, bound


def _run_chunks(worker, samples: int, size: int) -> dict:
    """Run worker(span, add) over every chunk; return the sparse histogram.

    The calling thread and n - 1 helpers take chunks from one hand-out,
    each the next one left; a one-worker call starts no thread.
    add(where, values) adds values at where (a slice or an index array,
    repeats adding up) into the call's one histogram, under a lock.
    """
    counts = np.zeros(size, dtype=np.int64)
    lock = threading.Lock()

    def add(where, values):
        with lock:
            np.add.at(counts, where, values)

    starts = range(0, samples, _CHUNK)
    hand_out = iter(starts)

    def take():
        while True:
            with lock:
                lo = next(hand_out, None)
            if lo is None:
                return
            worker((lo, min(lo + _CHUNK, samples)), add)

    n_workers = min(_workers(), len(starts))
    with ThreadPoolExecutor(max_workers=n_workers) as pool:  # threads start per submit: n - 1
        helpers = [pool.submit(take) for _ in range(n_workers - 1)]
        take()
    for helper in helpers:
        helper.result()
    bins = np.nonzero(counts)[0]
    return dict(zip(bins.tolist(), counts[bins].tolist()))


@dataclass(frozen=True)
class SimReport:
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

    def worker(span, add):
        words, scratch, jumps = _working_set()
        key_pair, side = np.empty((2, _CHUNK), dtype=np.uint64), 0  # live keys in row side
        keys = _sample_keys(seed, *span, key_pair[side])
        if r < 1.0:  # the paths that never return are censored before a step
            side ^= 1
            keys, = _compact(_returns(keys, 0, r, words, scratch), [keys], [key_pair[side]])
        level = level_buffer = np.zeros(keys.size, dtype=np.int32)
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
                add(step + 1, back.size)
            else:
                below = np.take(levels, back, axis=1, mode="clip",
                                out=words.view(np.int32)[:b * back.size].reshape(b, -1)) <= 0
                returns = np.bincount(np.argmax(below, axis=0), minlength=b)  # per step
                add(slice(step + 1, step + 1 + b), returns)
            step += b
            kept = np.less_equal(levels[-1], cap - step, out=scratch.view(bool)[:n])
            kept[back] = False
            # the kept keys into the other of their pair; level, spent on row 0,
            # takes their last row
            side ^= 1
            keys, level = _compact(kept, (keys, levels[-1]), (key_pair[side], level_buffer))

    hist = _run_chunks(worker, samples, cap + 1)
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

    def worker(span, add):
        words, scratch, jumps = _working_set()
        keys = _sample_keys(seed, *span, np.empty(_CHUNK, dtype=np.uint64))
        again = _returns(keys, 0, r, words, scratch)
        returning = np.count_nonzero(again)
        add(0, keys.size - returning)  # never back: the last exit is 0
        # each returning path's key, state and last visit to 0, live in row
        # `side` of its pair, which compaction swaps
        key_pair, side = np.empty((2, returning), dtype=np.uint64), 0
        keys, = _compact(again, [keys], [key_pair[side]])
        state_pair = np.zeros((2, returning), dtype=np.int32)
        last_pair = np.zeros((2, returning), dtype=np.int32)
        state, last_zero = state_pair[side], last_pair[side]
        now = 0
        while now < horizon and keys.size:
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
            if np.any(done):
                add(last_zero[done], 1)
                side ^= 1
                keep = np.logical_not(done, out=done)
                keys, state, last_zero = _compact(keep, (keys, state, last_zero), (
                    key_pair[side], state_pair[side], last_pair[side]))
        add(last_zero, 1)  # the paths still alive at the horizon

    hist = _run_chunks(worker, samples, horizon + 1)
    censored = sum(c for n, c in hist.items() if n > flag_from)
    return SimReport(samples=samples, seed=int(seed), tau_hist={},
                     L_hist=hist, censored=censored, horizon=horizon)

"""Monte Carlo sampling of first-return and last-exit times.

Sampling is counter-based: sample i is keyed by SplitMix64's output
i + 1, mix(seed + (i + 1) G) for the increment G, so seed 0 keys no
sample with mix(0) = 0; its draw at step j mixes the key with j.  No
generator state is shared, so any partition of the samples across
workers, and any grouping of steps into blocks, gives the identical
merged report; REPAIRCHAIN_THREADS only changes how fast it arrives.
Its n workers are the calling thread, always, and n - 1 helper threads.

Jumps J are drawn by inverse CDF, in integers, on the coefficients
a_0 .. a_(ends-1) each call builds from the family formula, `ends` being
the cap, or the smaller of the escape level and horizon + 1 (a larger
jump ends a path whatever its size).  A draw keeps the top 53 bits r of
its 64-bit word and stands for u = r 2^-53: cum[k] <= u exactly when
t_k = ceil(cum[k] 2^53) <= r, so the jump is the number of thresholds
t_k <= r, capped as _jump_draw says.  A guide of 2^g buckets on the top
g bits of r, built by counting the thresholds per bucket, gives that
count unless a threshold falls strictly inside the bucket, where the
draw binary-searches (0.0015% of draws on geometric(1/2), 0.13% on
half_stable); g = min(16, bit length of the threshold count + 10).  The
guide reads no bit that SplitMix64's last step, z ^= z >> 31, changes,
so only the draws that miss it take that step.  Nothing is cached.

A worker draws every block of its chunk of paths into one working set
allocated once: three arrays of _CHUNK entries for the draw words, a
scratch array and the jumps (then the levels).  Paths step by
X_(k+1) = (X_k - 1)^+ + J = max(X_k, 1) + (J - 1), down at most 1 a
step, so first-return sampling advances all n active paths in blocks of
b steps, stored step-major (row j holds every path's draw at step + j)
so that no pass pays per path.  max(X, 1) added to row 0, then running
sums of J - 1 down the steps (b - 1 row adds while b <= n, one cumsum
once b > n), are a path's levels in the block until it returns, where
they first reach 0, which it does exactly when their minimum down the
steps is at most 0.  b = min(cap - step, step + 1, max(1, _CHUNK // n))
keeps young blocks short and runs the thin null-recurrent tail in a few
wide ones.  A path higher than the steps left before the cap, or on a
transient law higher than the escape level (from where a return has
probability below 1e-12), is censored at once, the rest at the cap.
Last-exit sampling (transient chains only) steps one time unit at a
time, records the last visit to 0 by the horizon, and retires a path
that sits higher than the steps left or reaches the escape level.  A
call keeps one histogram of cap + 1 (or horizon + 1) counts, which
every worker adds into under a lock; a cap or horizon whose histogram
would pass HIST_BUDGET bytes, like a count below 1, is refused with
ValueError before the law is classified or a coefficient built.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NotTransient
from .model import ChainClass, JumpModel, _table_size, classify, exact_coefficients
from .return_time import _integer, eval_F

_CHUNK = 1 << 16  # fixed work unit; never derived from the worker count

# ceiling on the histogram of one sampling call, in bytes
HIST_BUDGET = 1 << 27

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_NP_GOLDEN = np.uint64(_GOLDEN)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# a 64-bit draw keeps r = bits >> 11, of 53 bits
_R_SHIFT = np.uint64(11)

DEFAULT_TAU_CAP = 10 ** 6
DEFAULT_EXIT_HORIZON = 10 ** 4


def _mix64(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer in place on z, but for its last z ^= z >> 31."""
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= _MIX2
    return z


def _sample_keys(seed: int, start: int, stop: int, scratch: np.ndarray) -> np.ndarray:
    keys = np.arange(start + 1, stop + 1, dtype=np.uint64) * _NP_GOLDEN
    keys += np.uint64(seed & _MASK)
    _mix64(keys, scratch[:keys.size])
    keys ^= np.right_shift(keys, np.uint64(31), out=scratch[:keys.size])
    return keys


def _escape_level(model: JumpModel) -> int:
    """Least L >= 1 with F(1)^L < 1e-12 on a transient law: the chance of a return from L."""
    return max(1, math.ceil(math.log(1e-12) / math.log(eval_F(model, 1.0))))


def _jump_draw(model: JumpModel, ends: int):
    """Inverse-CDF sampler draw(words, scratch, out): jumps into out (see module doc).

    Thresholds cover a_0 .. a_(m-1), m = min(ends, n) for the n entries of
    ``model.coeffs``; a draw past the last of them gets top = min(ends, n - 1).
    """
    n = _table_size(model)
    thresholds = exact_coefficients(model, min(ends, n))  # becomes t_k in place
    np.cumsum(thresholds, out=thresholds)
    thresholds *= 2.0 ** 53
    np.ceil(thresholds, out=thresholds)
    top = min(ends, n - 1)
    bucket_bits = min(16, thresholds.size.bit_length() + 10)
    buckets, width = 1 << bucket_bits, 1 << (53 - bucket_bits)  # width: values of r per bucket
    cells = (thresholds // width).astype(np.int64)  # the bucket each threshold falls in
    # #(t <= highest r of each bucket), and #(t <= lowest r): less those strictly above it
    highest = np.cumsum(np.bincount(cells, minlength=buckets)[:buckets])
    lowest = highest - np.bincount(cells[thresholds % width != 0], minlength=buckets)[:buckets]
    guide = np.minimum(lowest, top)
    guide[guide != np.minimum(highest, top)] = -1
    shift = np.uint64(64 - bucket_bits)

    def draw(words: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
        _mix64(words, scratch)
        np.right_shift(words, shift, out=scratch)
        np.take(guide, scratch.view(np.int64), out=out, mode="clip")
        if out.min() < 0:
            miss = np.flatnonzero(out < 0)
            bits = words[miss]  # take the mix's last step; r < 2^53 is exact as a float
            r = ((bits ^ (bits >> np.uint64(31))) >> _R_SHIFT).astype(float)
            out[miss] = np.minimum(np.searchsorted(thresholds, r, side="right"), top)
        return out

    return draw


def _workers() -> int:
    raw = os.environ.get("REPAIRCHAIN_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return min(8, os.cpu_count() or 1)


def _working_set():
    """A worker's draw words, scratch and jumps (see module doc)."""
    return (np.empty(_CHUNK, dtype=np.uint64), np.empty(_CHUNK, dtype=np.uint64),
            np.empty(_CHUNK, dtype=np.int64))


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
    for return sampling, the paths with tau > cap and, on a transient
    law, those retired at the escape level, whose chance of returning by
    the cap is below 1e-12; for last-exit sampling, last visits inside
    the final tenth of the horizon (bias guard).
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
    draw = _jump_draw(model, cap)
    # from above this level a path returns by the cap with probability below 1e-12
    escape = _escape_level(model) if classify(model) is ChainClass.TRANSIENT else cap

    def worker(span, add):
        words, scratch, jumps = _working_set()
        keys = _sample_keys(seed, *span, scratch)
        level = np.zeros(keys.size, dtype=np.int64)
        step = 0
        while step < cap and keys.size:
            n = keys.size
            b = min(cap - step, step + 1, max(1, _CHUNK // n))
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
                                                    out=scratch.view(np.int64)[:n]) <= 0)
            below = np.take(levels, back, axis=1, mode="clip",
                            out=words.view(np.int64)[:b * back.size].reshape(b, -1)) <= 0
            add(slice(step + 1, step + 1 + b), np.bincount(np.argmax(below, axis=0), minlength=b))
            step += b
            kept = levels[-1] <= min(cap - step, escape)
            kept[back] = False
            keys = keys[kept]
            level = levels[-1, kept]

    hist = _run_chunks(worker, samples, cap + 1)
    return SimReport(samples=samples, seed=int(seed), tau_hist=hist,
                     L_hist={}, censored=samples - sum(hist.values()), cap=cap)


def sample_last_exit(model: JumpModel, seed: int, samples: int,
                     horizon: int = DEFAULT_EXIT_HORIZON) -> SimReport:
    """Last visits to 0 of a transient chain by `horizon`; bad sizes raise ValueError first."""
    samples, horizon = _run_size(samples, horizon, "horizon")
    if classify(model) is not ChainClass.TRANSIENT:
        raise NotTransient("last-exit sampling needs a transient chain")
    escape_level = _escape_level(model)
    draw = _jump_draw(model, min(escape_level, horizon + 1))
    flag_from = horizon - horizon // 10  # strictly above = final 10%

    def worker(span, add):
        words, scratch, jumps = _working_set()
        keys = _sample_keys(seed, *span, scratch)
        state = np.zeros(keys.size, dtype=np.int32)
        last_zero = np.zeros(keys.size, dtype=np.int32)
        for now in range(1, horizon + 1):
            n = keys.size
            np.add(keys, np.uint64(((now - 1) * _GOLDEN) & _MASK), out=words[:n])
            state -= 1
            np.maximum(state, 0, out=state)
            state += draw(words[:n], scratch[:n], jumps[:n])
            last_zero[state == 0] = now
            # at or above the escape level, or higher than the steps left
            done = state > min(escape_level - 1, horizon - now)
            if np.any(done):
                add(last_zero[done], 1)
                keep = np.logical_not(done, out=done)
                keys = keys[keep]
                state = state[keep]
                last_zero = last_zero[keep]
                if keys.size == 0:
                    break
        add(last_zero, 1)  # the paths still alive at the horizon

    hist = _run_chunks(worker, samples, horizon + 1)
    censored = sum(c for n, c in hist.items() if n > flag_from)
    return SimReport(samples=samples, seed=int(seed), tau_hist={},
                     L_hist=hist, censored=censored, horizon=horizon)

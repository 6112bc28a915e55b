"""Monte Carlo sampling of first-return and last-exit times.

Sampling is counter-based: sample i derives its own key from the master
seed by a 64-bit mixing function, and the draw at step j of that sample
mixes the key with j.  No generator state is shared, so any partition of
the index range across workers, and any grouping of steps into blocks,
produces the identical merged report; REPAIRCHAIN_THREADS only changes
how fast it arrives.

Jumps J are drawn by inverse CDF on the model's coefficient table, in
integers.  A draw keeps the top 53 bits r of its 64-bit word and stands
for u = r 2^-53.  cum[k] <= u exactly when t_k = ceil(cum[k] 2^53) <= r
(scaling by a power of two is exact), so the jump is the number of
thresholds t_k <= r, capped at the last table index.  A guide of 2^16
buckets on the top 16 bits of r gives that count directly whenever no
threshold falls strictly inside the bucket; only draws in the other
buckets binary-search the thresholds (0.0015% of draws on geometric(1/2),
0.07% on geometric(0.2), 0.13% on half_stable).  Each sampling call
forms thresholds only for the jumps below `ends` (the cap, or the
smaller of the escape level and horizon + 1), never more than its
histogram holds, and caches nothing: down-steps being at most 1, a
jump of `ends` or more ends a path whatever its size, so a draw past
them takes the jump `ends` (capped as above).

Paths step by X_(k+1) = (X_k - 1)^+ + J = max(X_k, 1) + (J - 1).
First-return sampling advances all active paths of a chunk in blocks of
b steps.  Above 0 a path moves by J - 1 >= -1, so it cannot jump over 0:
within a block its level after k + 1 steps is max(X, 1) plus the running
sum of J - 1, up to the first zero of that sequence, which is the return.
The block length is b = min(cap - step, step + 1, max(1, _CHUNK // active)):
a block array never exceeds _CHUNK entries, young blocks stay short while
most paths are still returning, and the thin null-recurrent tail runs in
a few wide blocks rather than one Python step per time step.  A path
higher than the steps left before the cap cannot return in time and is
censored at once; the rest are censored at the cap.

Last-exit sampling (transient chains only) steps one time unit at a
time and records the last visit to 0 over a fixed horizon; paths are
retired early once they either sit higher than the steps remaining (a
return is then impossible, down-steps being at most 1) or clear the
escape level where the return probability drops below 1e-12, which
keeps the horizon affordable without touching the counts at any
believable resolution.

A sampling call keeps one histogram of cap + 1 (or horizon + 1) counts,
which every worker thread adds into under a lock, so its memory does not
grow with the thread count.  A cap or horizon whose histogram would not
fit in HIST_BUDGET bytes, like a count below 1, is refused with
ValueError before the law is classified or its table built.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NotTransient
from .model import ChainClass, JumpModel, classify
from .return_time import _integer, eval_F

_CHUNK = 1 << 16  # fixed work unit; never derived from the worker count

# ceiling on the histogram of one sampling call, in bytes
HIST_BUDGET = 1 << 27

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_NP_GOLDEN = np.uint64(_GOLDEN)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# a 64-bit draw keeps r = bits >> 11; its top 16 bits pick the guide bucket
_R_SHIFT = np.uint64(11)
_GUIDE_SHIFT = np.uint64(48)
_BUCKET = 1 << 37  # values of r per bucket

DEFAULT_TAU_CAP = 10 ** 6
DEFAULT_EXIT_HORIZON = 10 ** 4


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, applied in place to a freshly built array."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _sample_keys(seed: int, start: int, stop: int) -> np.ndarray:
    base = np.uint64(seed & _MASK)
    idx = np.arange(start, stop, dtype=np.uint64)
    return _mix64(base + idx * _NP_GOLDEN)


def _jump_draw(coeffs: np.ndarray, ends: int):
    """Inverse-CDF jump sampler: 64-bit draw words -> jumps (see module doc).

    Thresholds cover coeffs[:ends] only: a draw below the ends-th one gets
    the jump the whole table gives, any other the jump min(ends, top).
    """
    thresholds = np.cumsum(coeffs[:ends])  # becomes t_k in place: no second array
    thresholds *= 2.0 ** 53
    np.ceil(thresholds, out=thresholds)
    top = coeffs.size - 1
    edges = np.arange(1 << 16, dtype=float) * _BUCKET  # lowest r of each bucket
    lo = np.minimum(np.searchsorted(thresholds, edges, side="right"), top)
    hi = np.minimum(np.searchsorted(thresholds, edges + (_BUCKET - 1), side="right"), top)
    guide = np.where(lo == hi, lo, -1)

    def draw(bits: np.ndarray) -> np.ndarray:
        jump = np.take(guide, (bits >> _GUIDE_SHIFT).view(np.int64))
        miss = np.flatnonzero(jump < 0)
        if miss.size:
            r = (bits[miss] >> _R_SHIFT).astype(float)  # exact: r < 2^53
            jump[miss] = np.minimum(np.searchsorted(thresholds, r, side="right"), top)
        return jump

    return draw


def _workers() -> int:
    raw = os.environ.get("REPAIRCHAIN_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return min(8, os.cpu_count() or 1)


def _chunks(samples: int):
    return [(lo, min(lo + _CHUNK, samples)) for lo in range(0, samples, _CHUNK)]


def _run_size(samples: int, bound: int, name: str) -> tuple[int, int]:
    """samples and the cap or horizon as ints of at least 1, the histogram within HIST_BUDGET."""
    samples, bound = _integer(samples, 1, "sample count"), _integer(bound, 1, name)
    if (bound + 1) * 8 > HIST_BUDGET:
        raise ValueError(f"{bound + 1} histogram bins need {(bound + 1) * 8} bytes, "
                         f"above the {HIST_BUDGET}-byte budget")
    return samples, bound


def _run_chunks(worker, samples: int, size: int) -> dict:
    """Run worker(span, add) over every chunk; return the sparse histogram.

    add(where, values) adds values into one histogram of `size` counts
    at where (a slice or an index array, repeats adding up), under a
    lock, so a call holds that one histogram whatever its thread count.
    """
    counts = np.zeros(size, dtype=np.int64)
    lock = threading.Lock()

    def add(where, values):
        with lock:
            np.add.at(counts, where, values)

    spans = _chunks(samples)
    n_workers = min(_workers(), len(spans))
    if n_workers == 1:
        for span in spans:
            worker(span, add)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(lambda span: worker(span, add), spans))
    bins = np.nonzero(counts)[0]
    return dict(zip(bins.tolist(), counts[bins].tolist()))


@dataclass(frozen=True)
class SimReport:
    """Empirical histogram report; merging across chunks is exact.

    Exactly one of tau_hist / L_hist is populated.  censored counts
    tau > cap paths for return sampling, and last visits inside the
    final tenth of the horizon (bias guard) for last-exit sampling.
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
    draw = _jump_draw(model.coeffs, cap)

    def worker(span, add):
        keys = _sample_keys(seed, *span)
        level = np.zeros(keys.size, dtype=np.int64)
        step = 0
        while step < cap and keys.size:
            n = keys.size
            b = min(cap - step, step + 1, max(1, _CHUNK // n))
            offsets = np.arange(step, step + b, dtype=np.uint64) * _NP_GOLDEN
            # one row of b draws per path, flat; running sums of J - 1
            walk = draw(_mix64(keys[:, None] + offsets).ravel())
            walk -= 1
            np.cumsum(walk, out=walk)
            ends = walk[b - 1::b]
            # path i is at 0 where its running sum, less the sum carried in
            # from the rows before it, reaches -max(X_i, 1)
            target = np.concatenate(([0], ends[:-1])) - np.maximum(level, 1)
            hits = np.flatnonzero(walk.reshape(n, b) == target[:, None])
            rows = hits // b
            first = np.flatnonzero(np.diff(rows, prepend=-1))
            rows = rows[first]
            add(slice(step + 1, step + 1 + b), np.bincount(hits[first] - rows * b, minlength=b))
            step += b
            level = ends - target
            # a path higher than the steps left cannot return by the cap
            kept = level <= cap - step
            kept[rows] = False
            keys = keys[kept]
            level = level[kept]

    hist = _run_chunks(worker, samples, cap + 1)
    return SimReport(samples=samples, seed=int(seed), tau_hist=hist,
                     L_hist={}, censored=samples - sum(hist.values()), cap=cap)


def sample_last_exit(model: JumpModel, seed: int, samples: int,
                     horizon: int = DEFAULT_EXIT_HORIZON) -> SimReport:
    """Last visits to 0 of a transient chain by `horizon`; bad sizes raise ValueError first."""
    samples, horizon = _run_size(samples, horizon, "horizon")
    if classify(model) is not ChainClass.TRANSIENT:
        raise NotTransient("last-exit sampling needs a transient chain")
    # above this level the probability of ever returning to 0 is < 1e-12
    return_prob = eval_F(model, 1.0)
    escape_level = max(1, math.ceil(math.log(1e-12) / math.log(return_prob)))
    draw = _jump_draw(model.coeffs, min(escape_level, horizon + 1))
    flag_from = horizon - horizon // 10  # strictly above = final 10%

    def worker(span, add):
        keys = _sample_keys(seed, *span)
        state = np.zeros(keys.size, dtype=np.int64)
        last_zero = np.zeros(keys.size, dtype=np.int64)
        for step in range(horizon):
            offset = np.uint64((step * _GOLDEN) & _MASK)
            state = np.maximum(state - 1, 0) + draw(_mix64(keys + offset))
            now = step + 1
            last_zero[state == 0] = now
            done = (state >= escape_level) | (state > horizon - now)
            if np.any(done):
                add(last_zero[done], 1)
                keep = ~done
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

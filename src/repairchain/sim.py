"""Monte Carlo sampling of first-return and last-exit times.

Sampling is counter-based: sample i derives its own key from the master
seed by a 64-bit mixing function, and draw j of that sample mixes the
key with a step counter.  No generator state is shared, so any
partition of the index range across workers produces the identical
merged report; REPAIRCHAIN_THREADS only changes how fast it arrives.

Paths step by X_(k+1) = (X_k - 1)^+ + J with J drawn by inverse CDF on
the model's coefficient table.  First-return sampling retires a path
the moment it hits 0 and censors it at the cap.  Last-exit sampling
(transient chains only) records the last visit to 0 over a fixed
horizon; paths are retired early once they either sit higher than the
steps remaining (a return is then impossible, down-steps being at most
1) or clear the escape level where the return probability drops below
1e-12, which keeps the horizon affordable without touching the counts
at any believable resolution.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NotTransient
from .model import ChainClass, JumpModel, classify
from .return_time import eval_F

_CHUNK = 1 << 16  # fixed work unit; never derived from the worker count

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_NP_GOLDEN = np.uint64(_GOLDEN)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

DEFAULT_TAU_CAP = 10 ** 6
DEFAULT_EXIT_HORIZON = 10 ** 4


def _mix64(z: np.ndarray) -> np.ndarray:
    z = z.copy()
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


def _uniforms(keys: np.ndarray, step: int) -> np.ndarray:
    offset = np.uint64((step * _GOLDEN) & _MASK)
    bits = _mix64(keys + offset)
    return (bits >> np.uint64(11)) * 2.0 ** -53


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


def _run_chunks(worker, samples: int):
    spans = _chunks(samples)
    n_workers = min(_workers(), len(spans))
    if n_workers <= 1:
        return [worker(span) for span in spans]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(worker, spans))


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


def _merge(results, size: int) -> tuple[dict, int]:
    """Sum per-chunk (counts, extra) pairs into a sparse histogram and a total."""
    counts = np.zeros(size, dtype=np.int64)
    extra = 0
    for chunk_counts, chunk_extra in results:
        counts += chunk_counts
        extra += chunk_extra
    bins = np.nonzero(counts)[0]
    return dict(zip(bins.tolist(), counts[bins].tolist())), extra


def sample_tau(model: JumpModel, seed: int, samples: int,
               cap: int = DEFAULT_TAU_CAP) -> SimReport:
    """First-return times of `samples` independent paths started at 0."""
    samples = int(samples)
    cap = int(cap)
    if samples < 1:
        raise ValueError("need at least one sample")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    cum = np.cumsum(model.coeffs)
    top = cum.size - 1

    def worker(span):
        lo, hi = span
        keys = _sample_keys(seed, lo, hi)
        state = np.zeros(keys.size, dtype=np.int64)
        counts = np.zeros(cap + 1, dtype=np.int64)
        for step in range(cap):
            u = _uniforms(keys, step)
            jump = np.minimum(np.searchsorted(cum, u, side="right"), top)
            state = np.maximum(state - 1, 0) + jump
            returned = state == 0
            counts[step + 1] += int(np.count_nonzero(returned))
            still = ~returned
            keys = keys[still]
            state = state[still]
            if keys.size == 0:
                break
        return counts, keys.size

    hist, censored = _merge(_run_chunks(worker, samples), cap + 1)
    return SimReport(samples=samples, seed=int(seed), tau_hist=hist,
                     L_hist={}, censored=censored, cap=cap)


def sample_last_exit(model: JumpModel, seed: int, samples: int,
                     horizon: int = DEFAULT_EXIT_HORIZON) -> SimReport:
    """Last visits to 0 over a fixed horizon, for a transient chain."""
    if classify(model) is not ChainClass.TRANSIENT:
        raise NotTransient("last-exit sampling needs a transient chain")
    samples = int(samples)
    horizon = int(horizon)
    if samples < 1:
        raise ValueError("need at least one sample")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    cum = np.cumsum(model.coeffs)
    top = cum.size - 1
    # above this level the probability of ever returning to 0 is < 1e-12
    return_prob = eval_F(model, 1.0)
    escape_level = max(1, math.ceil(math.log(1e-12) / math.log(return_prob)))
    flag_from = horizon - horizon // 10  # strictly above = final 10%

    def worker(span):
        lo, hi = span
        keys = _sample_keys(seed, lo, hi)
        state = np.zeros(keys.size, dtype=np.int64)
        last_zero = np.zeros(keys.size, dtype=np.int64)
        counts = np.zeros(horizon + 1, dtype=np.int64)
        flagged = 0
        for step in range(horizon):
            u = _uniforms(keys, step)
            jump = np.minimum(np.searchsorted(cum, u, side="right"), top)
            state = np.maximum(state - 1, 0) + jump
            now = step + 1
            at_zero = state == 0
            last_zero[at_zero] = now
            done = (state >= escape_level) | (state > horizon - now)
            if np.any(done) or now == horizon:
                settled = last_zero[done] if now < horizon else last_zero
                counts += np.bincount(settled, minlength=horizon + 1)
                flagged += int(np.count_nonzero(settled > flag_from))
                if now == horizon:
                    break
                keep = ~done
                keys = keys[keep]
                state = state[keep]
                last_zero = last_zero[keep]
                if keys.size == 0:
                    break
        return counts, flagged

    hist, censored = _merge(_run_chunks(worker, samples), horizon + 1)
    return SimReport(samples=samples, seed=int(seed), tau_hist={},
                     L_hist=hist, censored=censored, horizon=horizon)

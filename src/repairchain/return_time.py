"""First-return-time analysis: transform, exact pmf, moments, verdicts.

For the chain started at 0, tau is the first n >= 1 with X_n = 0.  Its
transform F(t) = E(t^tau; tau < infinity) solves F = t G(F) and equals
the minimal nonnegative root, which Newton's method climbs to from 0.
From F everything else follows:

* the pmf f_n = P(tau = n) and the zero-state occupation sequence
  u_n = P(X_n = 0), tied to f by the renewal identity U = 1/(1 - F),
  by one pipeline (``return_series``) with two engines chosen by the
  horizon N alone: up to _PURE_N a first-passage recursion on lists,
  which loads no numpy, and above it numpy's series inversion
  f_n = (1/n) [x^(n-1)] G(x)^n; a law whose family record has f in
  closed form (geometric) takes it in either engine,
* the drift psi(h) = G(1-h) - (1-h), evaluated by the family record,
  and one Newton descent on it, which gives its inverse (controlling
  1 - F(t) as t -> 1 for critical chains) and its positive root, the
  escape probability of a transient chain,
* moments and moment-finiteness verdicts of tau, plain and weighted by
  the decay rate R1.
"""

from __future__ import annotations

import math
import operator
import sys
from enum import Enum
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .decay import CaseLabel, decay_params, tilt_to_critical
from .errors import NotNullRecurrent, NotPositiveRecurrent
from .model import (
    _FAMILIES,
    ChainClass,
    JumpModel,
    _integer,
    classify,
    coefficient_head,
    eval_G,
    exact_coefficients,
    mean_gap,
    tilt,
)

if TYPE_CHECKING:
    from collections.abc import Sequence

    import numpy as np

# series length for numeric moment partial sums
_MOMENT_N = 1024

# horizons up to this one take the pure pmf engine, larger ones the array engine
_PURE_N = 64

# ceiling on the arrays return_pmf holds, in bytes: 128 MiB, and the
# 19,649,096 bytes that the products' Toeplitz blocks and window copies add
# at N = 64515, the largest horizon it admits
PMF_TABLE_BUDGET = (1 << 27) + 19_649_096

# the truncated series products of return_pmf multiply _BLOCK x _BLOCK
# Toeplitz blocks of one factor by copies of the other's windows, each copy
# at most _WINDOW N entries
_BLOCK, _WINDOW = 32, 8

# the array engine zeros kernel and power entries below this on the critical
# scale; its square is the smallest normal double, so no product of kept
# entries is subnormal
_FLUSH = 2.0 ** -511

# fitted-exponent regression window and grid size
_FIT_LO, _FIT_HI, _FIT_POINTS = 1e-6, 1e-2, 50


# ---------------------------------------------------------------------------
# argument checks, run by every entry point before it classifies the law


def _exponent(alpha: float, what: str) -> float:
    """alpha as a float, refused unless positive and finite."""
    alpha = float(alpha)
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {alpha!r}")
    return alpha


def _horizon(n_max: int) -> int:
    """n_max as an int from 1 up to the last horizon within PMF_TABLE_BUDGET."""
    n_max = _integer(n_max, 1, "pmf horizon")
    need = pmf_table_bytes(n_max)
    if need > PMF_TABLE_BUDGET:
        raise ValueError(f"pmf horizon {n_max} needs {need >> 20} MiB of arrays, "
                         f"above the {PMF_TABLE_BUDGET >> 20} MiB budget")
    return n_max


# ---------------------------------------------------------------------------
# the transform F


def eval_F(model: JumpModel, t: float) -> float:
    """Minimal nonnegative root of x = t G(x) for t up to R1, the radius of F.

    g(x) = t G(x) - x is convex and decreasing up to its minimal root, so
    Newton's method from x = 0 climbs to that root from below without
    overshooting; the climb stops at the first step that does not
    increase x, which is where rounding takes over.  At t = 1 the answer
    is the return probability: exactly 1 for a recurrent law, and
    1 - escape_prob for a transient one unless escape_prob exceeds 1/2,
    where the subtraction would cancel and the climb answers instead.
    At t = R1 the root is tangential, so t from R1 (1 - 2^-50) up to
    R1 (1 + 1e-12) is answered F(R1) from the decay analysis, where the
    same point is the well-conditioned simple root of G(x) = x G'(x).
    That window is fixed, not derived from an error bound: below R1 it
    is 4 to 8 ulp wide, above R1, where F is +inf in exact arithmetic,
    about 4500 to 9000 ulp.  Only t above it answers +inf.  ROADMAP
    item 15 replaces both edges with a proven bracket of R1.
    """
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"transform argument must be a finite nonnegative real, got {t!r}")
    if t == 0.0:
        return 0.0
    if t == 1.0:
        q = escape_prob(model)
        if q <= 0.5:
            return 1.0 - q
    else:
        dp = decay_params(model)
        if t > dp.R1 * (1.0 + 1e-12):
            return math.inf
        if t >= dp.R1 * (1.0 - 2.0 ** -50):
            return dp.F_at_R1
    x = 0.0
    while True:
        x_next = x + (t * eval_G(model, x, 0) - x) / (1.0 - t * eval_G(model, x, 1))
        if not x_next > x:
            return x
        x = x_next


def escape_prob(model: JumpModel) -> float:
    """P(tau = infinity) = 1 - F(1): zero for a recurrent law.

    For a transient law, the positive root of the drift psi: psi is
    convex with psi(1) = a_0 > 0, so ``_descend`` from h = 1 falls to it
    monotonically.  That is the climb of ``eval_F`` at t = 1 in h = 1 - x,
    and as accurate near criticality as the family's drift is.
    """
    if classify(model) is not ChainClass.TRANSIENT:
        return 0.0
    return _descend(model, 0.0, 1.0)


# ---------------------------------------------------------------------------
# exact pmf and occupation sequence


class ReturnAnalysis(NamedTuple):
    """Exact return-time pmf and zero-state occupation sequence.

    f and u are indexed by n: f[n] = P(tau = n) for 0 <= n <= N (f[0] is
    identically zero), u[n] = P(X_n = 0 | X_0 = 0).  ``return_pmf`` holds
    them as read-only arrays, ``return_series`` as its engine gives them:
    lists up to _PURE_N.  return_prob is P(tau < infinity) = F(1), which
    is 1 exactly when the chain is recurrent.
    """

    f: Sequence[float]
    u: Sequence[float]
    return_prob: float

    @property
    def n_max(self) -> int:
        return len(self.f) - 1


def pmf_table_bytes(n_max: int) -> int:
    """Peak size in bytes of the arrays ``return_pmf`` holds at once.

    The b x (N + b) table of reversed baby powers, b = isqrt(N), and at
    the giant steps: f, N + 1 floats; the Toeplitz blocks of G^b, at most
    s M floats, with s = ``_BLOCK`` and M = s ceil(N / s); the giant power,
    its zero-padded copy and the next power, M floats each, the padding
    at most sqrt(W s N) more; and the window copy, at most W N floats,
    W = ``_WINDOW``.  The baby steps hold less: the kernel's blocks in
    place of G^b's, and no f.  512 more floats, 4 KiB, cover the arrays'
    fixed overheads.
    """
    b, s = math.isqrt(n_max), _BLOCK
    m = -(-n_max // s) * s
    return (b * (n_max + b) + n_max + 1 + (s + 3) * m + math.isqrt(_WINDOW * s * n_max)
            + _WINDOW * n_max + 512) * 8


def _trimmed(lo: int, c: np.ndarray) -> tuple[int, np.ndarray]:
    """The series (lo, c) without the zero coefficients at either end."""
    if c.size and c[0] and c[-1]:
        return lo, c
    kept = c != 0.0
    if not kept.any():
        return lo, c[:0]
    first = int(kept.argmax())
    return lo + first, c[first:c.size - int(kept[::-1].argmax())]


def _toeplitz_blocks(a: tuple[int, np.ndarray], n: int) -> tuple[int, int, np.ndarray]:
    """Series a = (lo, c) as (lo, c.size, B), for its products cut at x^(n-1).

    With s = ``_BLOCK`` and the s x s Toeplitz blocks
    T_d[r, j] = c[d s + r - j] (0 outside c), B stacks T_(D-1), ..., T_1,
    T_0, each transposed, in D s rows of s columns.  T_d takes a block of
    s terms of the other factor to the product's block d further on.  D
    covers every block of c, but for at least one no more than
    ceil((n - lo) / s): a product cut at x^(n-1) has no block further on
    from a's first term.  ``_head_product`` reads B in every product with
    a, so a factor that stays fixed is made into blocks once.
    """
    import numpy as np

    lo, c = a
    s = _BLOCK
    span = max(1, min(-(-(c.size + s - 1) // s), -(-(n - lo) // s))) * s  # D s
    # B[e s + j, r] = v[e s + j + s - 1 - r], v being c reversed to end at D s
    v = np.zeros(span + s - 1)
    head = c[:span]
    v[span - head.size:span] = head[::-1]
    return lo, c.size, np.lib.stride_tricks.sliding_window_view(v, s)[:, ::-1].copy()


def _head_product(fixed: tuple[int, int, np.ndarray], k: tuple[int, np.ndarray], n: int,
                  flush: float) -> tuple[int, np.ndarray]:
    """The product of two series cut at x^(n-1), entries below flush zeroed.

    A series is a pair (lo, c) whose coefficient of x^(lo + i) is c[i],
    all others 0; fixed is one factor as ``_toeplitz_blocks`` gives it.
    The product's block i, its s terms from x^(lo + i s), is the sum over
    d of T_d times k's block i - d.  For a group of output blocks that is
    one matrix product: a copy of k's windows, one row per output block,
    times the rows of B for the diagonal blocks d that the group reaches,
    those with a block i - d of k.  A group holds as many output blocks as
    keep the copy within ``_WINDOW`` n entries, so a short fixed factor
    takes one call per product.  Only blocks that start below x^(n-1) are
    formed.  The product drops the zeros at its ends, so the products
    formed from it never form them.
    """
    import numpy as np

    (lo, a_size, blocks), (k_lo, k) = fixed, k
    lo += k_lo
    m = n - lo  # terms left below x^(n-1)
    if m <= 0 or not a_size or not k.size:
        return lo, k[:0]
    s, d_top = _BLOCK, blocks.shape[0] // _BLOCK - 1
    size = min(m, a_size + k.size - 1)
    n_out, n_k = -(-size // s), -(-k.size // s)
    rows = max(1, min(n_out, _WINDOW * n // blocks.shape[0]))
    # a group's windows start at most this far before k and end at most
    # `back` past its last block
    front = min(rows - 1, d_top) * s
    back = min(max(0, n_out - n_k), rows - 1) * s
    padded = np.zeros(front + n_k * s + back)
    padded[front:front + k.size] = k
    out = np.empty((n_out, s))
    step = (s * padded.itemsize, padded.itemsize)
    for i in range(0, n_out, rows):
        # output blocks i..i+group-1 reach the diagonal blocks d_lo..d_hi;
        # row t of their windows is k from block i + t - d_hi on
        group = min(rows, n_out - i)
        d_lo, d_hi = max(0, i - n_k + 1), min(d_top, i + group - 1)
        windows = np.ndarray((group, (d_hi - d_lo + 1) * s), padded.dtype, padded,
                             (front + (i - d_hi) * s) * padded.itemsize, step)
        np.matmul(windows.copy(), blocks[(d_top - d_hi) * s:(d_top - d_lo + 1) * s],
                  out=out[i:i + group])
    out = out.ravel()[:size]
    out[out < flush] = 0.0
    return _trimmed(lo, out)


def _series_pmf(law: JumpModel, n_max: int, flush: float) -> np.ndarray:
    """f_0..f_N of law from its kernel a_0..a_(N-1), every entry below flush zeroed.

    Baby-step/giant-step split after Paterson and Stockmeyer: the baby
    steps G^1..G^b, b = isqrt(N), sit reversed and shifted in the rows
    of one b x (N + b) table, and the giant step G^m advances in strides
    of b.  f_(m+1)..f_(m+b) are then one matrix-vector product of a
    window of that table with G^m.  Every power is cut at x^(N-1) by
    ``_head_product``, which never forms the terms it would drop.  One
    factor stays fixed in each phase, the kernel in the baby steps and
    G^b in the giant steps, so its Toeplitz blocks are built once per
    phase, the kernel's freed before G^b's are built.  With flush = 0
    nothing is zeroed, and only exact zeros at the ends of a series are
    dropped.
    """
    import numpy as np

    kernel = exact_coefficients(law, n_max)
    kernel = _trimmed(0, np.where(kernel < flush, 0.0, kernel))
    b = math.isqrt(n_max)
    # row j - 1 holds G^j with x^i at column N + j - 2 - i, so the window
    # from column N - 1 - m lines G^m[i] up with G^j[m + j - 1 - i]
    table = np.zeros((b, n_max + b))
    fixed, power = _toeplitz_blocks(kernel, n_max), kernel
    del kernel
    for j in range(1, b + 1):
        lo, c = power
        table[j - 1, n_max + j - 1 - lo - c.size:n_max + j - 1 - lo] = c[::-1]
        if j < b:
            power = _head_product(fixed, power, n_max, flush)
    del fixed  # the kernel's blocks go before G^b's are built
    fixed = _toeplitz_blocks(power, n_max)
    del power
    f = np.zeros(n_max + 1)
    giant = (0, np.ones(1))
    for m in range(0, n_max, b):
        rows = min(b, n_max - m)
        lo, c = giant
        width = max(0, min(c.size, m + b - lo))
        col = n_max - 1 - m + lo
        f[m + 1:m + rows + 1] = (table[:rows, col:col + width] @ c[:width]
                                 / np.arange(m + 1, m + rows + 1))
        if m + b < n_max:
            giant = _head_product(fixed, giant, n_max, flush)
    return f


def _certified(f: np.ndarray, law: JumpModel) -> bool:
    """Whether f, computed with T = ``_FLUSH``, is within eps of the unflushed f.

    Every power of a law has mass at most 1, so the errors of two factors
    add in their product, and zeroing an output adds less than N T.  The
    baby steps G^j take at most 2 b N T from the kernel and their own
    outputs, and each of the N/b giant steps adds the error of G^b and
    its own, so n f_n = [x^(n-1)] G^n moves by about 2 N^2 T at most:
    at most eps relative where the computed n f_n is at least
    2 N^2 T / eps.  An n below that passes only when f_n is zero in exact
    arithmetic, that is when n - 1 is not a sum of positive jumps (a sum
    of at most n - 1 of them, as each is at least 1).
    """
    import numpy as np

    n_max = f.size - 1
    low = np.flatnonzero(f[1:] * np.arange(1, n_max + 1)
                         < 2.0 * n_max * n_max * _FLUSH / sys.float_info.epsilon)
    if low.size == 0:
        return True
    # sums of positive jumps below N, one jump size at a time: shifts by
    # s, 2s, 4s, ... add every multiple of s to what is reachable
    reach = np.zeros(n_max, dtype=bool)
    reach[0] = True
    for s in np.flatnonzero(exact_coefficients(law, n_max)[1:]) + 1:
        if reach[s]:
            continue
        shift = s
        while shift < n_max:
            reach[shift:] |= reach[:n_max - shift]
            shift *= 2
        if reach[s:].all():  # larger jumps reach nothing new
            break
    return not reach[low].any()


def _array_pmf(law: JumpModel, n_max: int, y: float, rate: float) -> np.ndarray:
    """The array engine's y f^law_n rate^(-n), n = 0..N, read-only; f^law is law's pmf.

    f^law is the law's closed form (``_Family.first_return``) where its
    record has one.  Otherwise ``_series_pmf``, in O(N^2.5) time and
    O(N^1.5) memory (the b x (N + b) table, b = isqrt(N), and about
    (``_BLOCK`` + 12) N floats more; see ``pmf_table_bytes``), runs with
    every entry of the kernel and of each power below ``_FLUSH`` zeroed.
    The result is kept only when ``_certified`` shows the zeroing moved
    no f_n by more than eps relative; otherwise, as for an explicit law
    with a_0 = 1e-300, the same loop runs again with nothing zeroed, and
    entries below 2^-1022 may differ in their subnormal digits (the
    smallest of them may round to 0 on one side only).
    """
    import numpy as np

    closed = _FAMILIES[law.family].first_return
    if closed:
        f = np.array(closed(law, n_max))
    else:
        f = _series_pmf(law, n_max, _FLUSH)
        if not _certified(f, law):
            del f  # freed first, so the second run peaks as the first did
            f = _series_pmf(law, n_max, 0.0)
    f *= y * rate ** -np.arange(n_max + 1.0)
    f.setflags(write=False)
    return f


def _blocked_renewal(k: np.ndarray) -> np.ndarray:
    """The array engine's u_0..u_N, u_0 = 1 and u_n = sum_(j=1..n) k_j u_(n-j), read-only.

    Any nonnegative kernel k will do; k_0 is not read.  In blocks of
    b = isqrt(N), the first by forward substitution: a later block
    [s, s + w) is V = C + K V, with C what u_0..u_(s-1) feed into it, so
    V = C U cut to w terms, U = 1/(1 - K) being u itself.
    """
    import numpy as np

    n_max = k.size - 1
    u = np.zeros(n_max + 1)
    u[0] = 1.0
    b = math.isqrt(n_max)
    for n in range(1, b):
        u[n] = np.dot(k[1:n + 1], u[n - 1::-1])
    for s in range(b, n_max + 1, b):
        w = min(b, n_max + 1 - s)
        c = np.correlate(k[1:s + w], u[s - 1::-1], "valid")
        u[s:s + w] = np.convolve(c, u[:w])[:w]
    u.setflags(write=False)
    return u


def _taboo_pmf(law: JumpModel, n_max: int, y: float, rate: float) -> list[float]:
    """The pure engine's y f^law_n rate^(-n), n = 0..N, as a list; f^law is law's pmf.

    f^law is the law's closed form (``_Family.first_return``) where its
    record has one, and ``_taboo_recursion`` otherwise.
    """
    closed = _FAMILIES[law.family].first_return
    f = closed(law, n_max) if closed else _taboo_recursion(law, n_max)
    return [c * (y * rate ** -n) for n, c in enumerate(f)]


def _taboo_recursion(law: JumpModel, n_max: int) -> list[float]:
    """f_0..f_N of law as a list, by the first-passage (taboo) recursion.

    It runs on the kernel a_0..a_(N-1) of law (``coefficient_head``):
    v holds P(X_n = i + 1, tau > n) for the
    levels 1..N - n, which are the ones that can still reach 0 by step
    N, as the chain falls at most one level a step.  A step from level k
    lands on k - 1 + J, so the next v is the product of v and the kernel
    shifted down one level, and f_(n+1) = a_0 P(X_n = 1, tau > n).
    Every operation is a product or sum of nonnegative numbers, in about
    N^3/6 multiply-adds.  No entry is zeroed on purpose, so none needs a
    certificate: an exact value below the double range underflows as in
    the array engine's unflushed run.
    """
    a = coefficient_head(law, n_max)
    f = [0.0] * (n_max + 1)
    f[1] = a[0]
    rev = a[::-1]  # rev[N - 1 - m:] lines a_m .. a_0 up with v_0 .. v_m
    v = a[1:]
    for n in range(2, n_max + 1):
        f[n] = a[0] * v[0]
        v = [sum(map(operator.mul, v, rev[n_max - 2 - i:])) for i in range(n_max - n)]
    return f


def _forward_renewal(k: Sequence[float]) -> list[float]:
    """The pure engine's u_0..u_N, as ``_blocked_renewal``'s, by forward substitution on lists."""
    u = [1.0]
    for n in range(1, len(k)):
        u.append(sum(map(operator.mul, k[1:n + 1], u[::-1])))
    return u


def return_series(model: JumpModel, n_max: int) -> ReturnAnalysis:
    """``return_pmf`` with f and u as the engine for n_max gives them.

    The one pipeline of the exact laws; a bad n_max raises ValueError
    first.  The law is tilted at y = F(R1) to the critical scale (see
    ``return_pmf``), and an engine chosen by n_max alone computes f
    there, restores the rate and solves the renewal recursion
    u_n = sum_k f_k u_(n-k).  Up to _PURE_N the pure engine runs on
    lists, without numpy (``_taboo_pmf``, ``_forward_renewal``); above
    it the array engine, on read-only arrays (``_array_pmf``,
    ``_blocked_renewal``).  On the critical scale both engines take the
    tilted law's closed form where its family record has one
    (``_Family.first_return``: every geometric law, whose tilt is
    geometric(1/2) up to an ulp), so only the restore and the renewal
    differ between them there.
    """
    n_max = _horizon(n_max)
    dp = decay_params(model)
    pmf, renewal = ((_taboo_pmf, _forward_renewal) if n_max <= _PURE_N
                    else (_array_pmf, _blocked_renewal))
    f = pmf(tilt(model, dp.F_at_R1), n_max, dp.F_at_R1, dp.R1)
    return ReturnAnalysis(f=f, u=renewal(f), return_prob=eval_F(model, 1.0))


def _read_only(values) -> np.ndarray:
    """A sequence of floats as a read-only float64 array; a read-only array passes."""
    import numpy as np

    out = np.asarray(values, dtype=float)
    out.setflags(write=False)
    return out


def _as_arrays(analysis: ReturnAnalysis) -> ReturnAnalysis:
    return analysis._replace(f=_read_only(analysis.f), u=_read_only(analysis.u))


def return_pmf(model: JumpModel, n_max: int) -> ReturnAnalysis:
    """Exact f_1..f_N and u_0..u_N, as read-only arrays, from ``return_series``.

    f_n = (1/n) [x^(n-1)] G(x)^n.  Jumps larger than N cannot occur on a
    first-return path of length <= N (down-steps are at most 1 per
    step), so the kernel a_0..a_(N-1) makes every f_n exact up to float
    rounding, independent of the model's cached tail target.

    Both engines work on the critical scale, where f_n decays no faster
    than a power of n: on the tilt of the law at y = F(R1), which is the
    tangency point x0, the radius where there is none (BoundaryCase), or
    1 where R1 = 1 (the law itself, and the restore multiplies by exactly
    1).  The tilting identity f_n = y f^(y)_n R1^(-n) restores the rate,
    up to the rounding of R1^(-n), about n eps.  Every operation of either engine is a product
    or sum of nonnegative numbers, so each f_n and u_n keeps
    rounding-level relative accuracy far into the tail; the two round
    differently, by a few eps relative at the threshold.  Horizons whose
    arrays would exceed PMF_TABLE_BUDGET bytes (``pmf_table_bytes``)
    raise ValueError before anything is allocated.
    """
    return _as_arrays(return_series(model, n_max))


# ---------------------------------------------------------------------------
# the drift functional psi and its inverse


def psi(model: JumpModel, h: float) -> float:
    """The drift psi(h) = G(1-h) - (1-h) on [0, 1], from the family record."""
    h = float(h)
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"psi argument must lie in [0,1], got {h!r}")
    return _FAMILIES[model.family].drift(model, h)[0]


def psi_inv(model: JumpModel, y: float) -> float:
    """The h in [0,1] with psi(h) = y, for a recurrent law; 0 for y <= 0, 1 for y >= psi(1).

    psi is convex and increases from psi(0) = 0 to psi(1) = a_0, with
    psi(h) >= (1 - mu) h, so ``_descend`` may start at y/(1 - mu) when
    that is below 1.  Otherwise the start comes down from h = 1 in steps
    to h sqrt(2y/psi(h)): psi(h)/h^2 does not increase with h, as
    psi'' = G''(1-h) does not, so such a step keeps psi >= 2y in exact
    arithmetic, and it is taken only when the computed psi is >= y.
    """
    y = float(y)
    if y <= 0.0:
        return 0.0
    gap = mean_gap(model)
    if gap > y:
        return _descend(model, y, y / gap)
    drift, h = _FAMILIES[model.family].drift, 1.0
    value = drift(model, h)[0]
    while value > 4.0 * y:
        step = h * math.sqrt(2.0 * y / value)
        value = drift(model, step)[0]
        if not value >= y:
            break
        h = step
    return _descend(model, y, h)


def _descend(model: JumpModel, y: float, h: float) -> float:
    """Newton's method on psi(h) = y from an h right of the root.

    psi is convex and increasing there, so the descent falls to the root
    without overshooting; it stops at the first step that does not
    decrease h, or whose psi reads as the last one did, where rounding
    takes over (a flat computed psi would otherwise creep an ulp a step).
    """
    drift, last = _FAMILIES[model.family].drift, None
    while True:
        value, slope = drift(model, h)
        h_next = h - (value - y) / slope
        if not 0.0 < h_next < h or value == last:
            return h
        h, last = h_next, value


# ---------------------------------------------------------------------------
# asymptotic exponent of 1 - F near t = 1 (null-recurrent chains)


def _critical_exponent(model: JumpModel) -> float:
    """Analytic gamma with 1 - F(1-s) ~ s^gamma for a critical chain.

    A jump tail with E(J^s) < inf exactly below s, for 1 < s < 2, gives
    the derivative singularity 1 - G'(t) ~ (1-t)^(s-1) and gamma = 1/s;
    a finite G''(1) (s >= 2) gives 1/2.  So gamma = 1/min(2, s), from
    the family record's tail: 2/3 for half_stable, 1/2 for the rest.
    """
    return 1.0 / min(2.0, _FAMILIES[model.family].tail(model))


class ExponentEstimate(NamedTuple):
    gamma: float
    method: str  # "analytic" or "fitted"


def asymptotic_exponent(model: JumpModel, method: str = "auto") -> ExponentEstimate:
    """Exponent gamma with 1 - F(1-s) ~ s^gamma for a critical chain.

    "auto" takes the analytic value of ``_critical_exponent``.  The
    fitted branch regresses log psi_inv(s) on log s over the asymptotic
    window, available on demand to cross-check the analytic value.  Any
    other method raises ValueError before the law is classified.
    """
    if method not in ("auto", "fitted"):
        raise ValueError(f"method must be 'auto' or 'fitted', got {method!r}")
    if classify(model) is not ChainClass.NULL_RECURRENT:
        raise NotNullRecurrent("asymptotic exponent is defined for critical chains only")
    if method == "auto":
        return ExponentEstimate(gamma=_critical_exponent(model), method="analytic")
    import statistics  # loaded where a fit runs, not on every CLI start

    ratio = _FIT_HI / _FIT_LO
    s = [_FIT_LO * ratio ** (i / (_FIT_POINTS - 1)) for i in range(_FIT_POINTS)]
    fit = statistics.linear_regression([math.log(v) for v in s],
                                       [math.log(psi_inv(model, v)) for v in s])
    return ExponentEstimate(gamma=fit.slope, method="fitted")


# ---------------------------------------------------------------------------
# moments


class MomentResult(NamedTuple):
    """Value of E(tau^k) together with how much to trust it.

    flag "exact": closed form or a divergence certificate; tail_bound 0.
    flag "certified tail": numeric partial sum, with tail_bound a proven
    bound on the discarded mass (decay rate R1 > 1).
    flag "lower bound only": numeric partial sum with no tail
    certificate (R1 = 1); tail_bound is +inf.
    """

    k: int
    value: float
    tail_bound: float
    flag: str


def tau_moment(model: JumpModel, k: int, n_max: int = _MOMENT_N) -> MomentResult:
    """E(tau^k) for a positive recurrent chain.

    k = 1 is exact: 1/(1 - mu).  For k >= 2 the moment is infinite
    exactly when G^(k)(1) is (k at or above the jump-tail exponent),
    otherwise it is summed from the exact pmf with a geometric tail
    certificate f_n <= F(R1) R1^(-n) when R1 > 1 and the bound fits a
    double.  Bad k or n_max raise ValueError before the law is classified.
    """
    k = _integer(k, 1, "moment order")
    n_max = _horizon(n_max)
    if classify(model) is not ChainClass.POSITIVE_RECURRENT:
        raise NotPositiveRecurrent("tau moments are finite-mean territory; classify first")
    if k == 1:
        return MomentResult(k=1, value=1.0 / mean_gap(model), tail_bound=0.0, flag="exact")
    if k >= _moment_threshold(model)[1]:
        return MomentResult(k=k, value=math.inf, tail_bound=0.0, flag="exact")
    import numpy as np

    f = return_pmf(model, n_max).f
    n = np.arange(n_max + 1, dtype=float)
    with np.errstate(over="ignore"):
        partial = float(np.dot(n ** k, f))
        if not math.isfinite(partial):  # n^k overflowed before n^k f_n: log space
            pos = f > 0.0
            partial = float(np.sum(np.exp(k * np.log(n[pos]) + np.log(f[pos]))))
    dp = decay_params(model)
    if dp.R1 > 1.0:
        tail = _moment_tail(dp.F_at_R1, 1.0 / dp.R1, k, n_max)
        if tail < math.inf:
            return MomentResult(k=k, value=partial, tail_bound=tail, flag="certified tail")
    return MomentResult(k=k, value=partial, tail_bound=math.inf, flag="lower bound only")


def _moment_tail(F_R1: float, r: float, k: int, n_max: int) -> float:
    """Bound on sum_{n > n_max} n^k f_n from f_n <= F(R1) r^n, r = 1/R1.

    The terms shrink at least by ratio = r ((n_max + 1)/n_max)^k, so the
    tail is at most F(R1) (n_max + 1)^k r^(n_max + 1) / (1 - ratio);
    +inf when ratio >= 1 or the bound passes the largest double (formed in
    log space, where (n_max + 1)^k cannot overflow).
    """
    log_ratio = math.log(r) + k * math.log1p(1.0 / n_max)
    if log_ratio >= 0.0:
        return math.inf
    log_tail = (math.log(F_R1) + k * math.log(n_max + 1.0) + (n_max + 1) * math.log(r)
                - math.log(-math.expm1(log_ratio)))
    try:
        return math.exp(log_tail)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# finiteness verdicts


class VerdictLabel(str, Enum):
    FINITE = "Finite"
    INFINITE = "Infinite"
    UNKNOWN = "Unknown"


class Verdict(NamedTuple):
    quantity: str
    verdict: VerdictLabel
    reason: str
    diagnostics: Mapping = MappingProxyType({})  # read-only: every default shares it


def _moment_threshold(model: JumpModel) -> tuple[str, float]:
    """Name and value of the exponent below which E(tau^alpha) is finite.

    The critical exponent gamma of 1 - F(1-s) ~ s^gamma for a critical
    law; for a positive recurrent one the jump-tail exponent, as E(tau^alpha)
    and E(J^alpha) are finite together.  That exceeds 1 for every such law.
    """
    if classify(model) is ChainClass.NULL_RECURRENT:
        return "critical exponent", _critical_exponent(model)
    return "jump-tail exponent", _FAMILIES[model.family].tail(model)


def _threshold_verdict(model: JumpModel, alpha: float, quantity: str,
                       prefix: str = "") -> Verdict:
    """Finite exactly when alpha is below ``_moment_threshold(model)``."""
    name, threshold = _moment_threshold(model)
    if alpha < threshold:
        return Verdict(quantity, VerdictLabel.FINITE,
                       f"{prefix}below the {name} {threshold:g}")
    return Verdict(quantity, VerdictLabel.INFINITE,
                   f"{prefix}at or above the {name} {threshold:g}")


def _weighted_criterion_diagnostics(model: JumpModel, alpha: float) -> dict:
    # partial sums of R^n n^alpha a_n, the series deciding the weighted
    # moment.  Only tilts of power_zeta, positive recurrent at their
    # radius, reach BoundaryCase (geometric laws have x0 = 1/(2q) < R,
    # explicit ones R = inf, tilts of half_stable x0 = R); the stored
    # a_n underflow where R^n would rescue them, so read R^n a_n as
    # G(R) a^(R)_n, from the law at the radius and G(R) = F(R1)/R1.
    # Per-term log space: n^alpha overflows long before the products do
    import numpy as np

    n_top = 4096
    dp = decay_params(model)
    a = exact_coefficients(tilt(model, model.radius), n_top + 1)[1:]
    offset = math.log(dp.F_at_R1 / dp.R1)
    n = np.arange(1, n_top + 1, dtype=float)
    terms = np.zeros_like(a)
    pos = a > 0.0
    with np.errstate(over="ignore"):  # a term past the largest double is inf
        terms[pos] = np.exp(np.log(a[pos]) + alpha * np.log(n[pos]) + offset)
    cum = np.cumsum(terms)
    return {"partial_sums": {1000: float(cum[999]), n_top: float(cum[-1])}}


def tau_alpha_finite(model: JumpModel, alpha: float,
                     r1_weighted: bool = False) -> Verdict:
    """Is E(tau^alpha) finite?  With r1_weighted, is E(R1^tau tau^alpha)?

    alpha is compared with ``_moment_threshold`` of the law or, weighted,
    of its tilt to the critical line; a BoundaryCase law has no such tilt
    and its weighted verdict is Unknown, with partial sums as diagnostics.
    For transient laws the plain quantity is read on {tau < infinity},
    where it is always finite because F then has radius strictly above 1.
    A bad alpha raises ValueError before the law is classified.
    """
    alpha = _exponent(alpha, "moment exponent")
    cls = classify(model)
    if r1_weighted:
        return _r1_weighted_verdict(model, alpha, cls)
    if cls is ChainClass.TRANSIENT:
        return Verdict(f"E(tau^{alpha:g}; tau<inf)", VerdictLabel.FINITE,
                       "restricted to return, tau has a geometric tail: "
                       "the transform radius exceeds 1 for a transient law")
    return _threshold_verdict(model, alpha, f"E(tau^{alpha:g})")


def _r1_weighted_verdict(model: JumpModel, alpha: float, cls: ChainClass) -> Verdict:
    dp = decay_params(model)
    restricted = "; tau<inf" if cls is ChainClass.TRANSIENT else ""
    quantity = f"E(R1^tau tau^{alpha:g}{restricted})"
    if dp.case_label is CaseLabel.CRITICAL_RADIUS_ONE:
        return _threshold_verdict(model, alpha, quantity, "R1 = 1, so the weight is trivial: ")
    if dp.case_label in (CaseLabel.TRANSIENT_TILT, CaseLabel.INTERIOR_CRITICAL):
        # reweighting at the tangency point is exact here:
        # E(R1^tau tau^alpha) = x0 * E_tilted(tau^alpha), tilted critical
        return _critical_tilt_verdict(model, alpha, quantity)
    return Verdict(quantity, VerdictLabel.UNKNOWN,
                   "the transform's singularity sits on the boundary of the "
                   "G-domain; no analytic branch applies",
                   diagnostics=_weighted_criterion_diagnostics(model, alpha))


def _critical_tilt_verdict(model: JumpModel, alpha: float, quantity: str) -> Verdict:
    """The verdict on E(tau^alpha) of the law tilted to the critical line, for ``quantity``."""
    return _threshold_verdict(tilt_to_critical(model), alpha, quantity,
                              "reduced to the critical reweighted law: ")

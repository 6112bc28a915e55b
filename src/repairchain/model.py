"""Jump-law models for the repair-shop Markov chain.

The chain lives on {0, 1, 2, ...} and moves by

    X_{k+1} = (X_k - 1)^+ + J_{k+1},

with i.i.d. jumps J drawn from a law {a_n} that satisfies a_0 > 0 and
a_0 + a_1 < 1.  Everything downstream is a functional of that law: the
generating function G(t) = sum a_n t^n, its derivatives, the mean jump
mu = G'(1), and the convergence radius R of the series.

Four parametric families are bundled:

* ``explicit``      a finite coefficient list, R = infinity
* ``geometric``     a_n = (1-p)^n p, closed forms throughout, R = 1/(1-p)
* ``half_stable``   G(t) = t + (2/3)(1-t)^{3/2}, exactly critical, R = 1
* ``power_zeta``    a_k = (k+1)^{-alpha} - (k+2)^{-alpha} with alpha > 2,
                    positive recurrent with mu = zeta(alpha) - 1, R = 1;
                    G(t) = 1/t + (t-1) Li_alpha(t) / t^2 (polylogarithm)

A fifth internal kind, ``tilted``, is produced by ``tilt``: the
exponential reweighting a_j x^j / G(x) of a half_stable or power_zeta
law.  Models are immutable once built and safe to share between threads.
A model is a plain class, not a tuple like the result records: the
constructor writes its fields into the instance dict, as the cached
``coeffs`` writes the table, and setting or deleting an attribute raises
AttributeError.  Models hash by identity and take weak references.

A model is its parameters plus exact summaries (mu, radius).  Arrays of
coefficients come from ``exact_coefficients``, as long as the caller
asks, and only the code that builds arrays imports numpy, so
classifying a law, tilting it or evaluating its G allocates no array
and loads no numpy.  Short heads of coefficients come from
``coefficient_head``: each family record's ``head`` is its formula on
Python floats, a tilted law's composes its base's, and ``a0`` reads
it.  The truncated table ``coeffs`` stays for API users and for the
benchmark's tracer, which reads its size; no function of the package
reads it.

All per-family knowledge lives in one table, ``_FAMILIES``, one record
per family (see ``_Family``).  Public functions validate, then do one
lookup; no other module branches on the family.  Adding a family means
adding its constructor and one record.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections.abc import Iterable
from enum import Enum
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple

from .errors import InvalidSpec, OutOfRadius

if TYPE_CHECKING:
    import numpy as np

# Chains with |mu - 1| below this tolerance are treated as critical.
CRITICAL_TOL = 1e-12

# Tail-mass target of the geometric ``coeffs`` table's size rule.
_TAIL_TARGET = 1e-12

# The half_stable tail decays like n^{-3/2}; reaching 1e-12 would need
# ~3e7 coefficients, so the table stops at 2^21 of them, leaving out a
# mass of about 6e-11.
_HALF_STABLE_CAP = 1 << 21

# entries per block of the half_stable ratios: 32 KiB temporaries
_BUILD_BLOCK = 1 << 12

# ceiling on a ``coeffs`` table, in bytes (only a geometric law with p
# below about 1.6e-6 needs more to reach the tail target)
GEOMETRIC_TABLE_BUDGET = 1 << 27

# Euler-Maclaurin zeta: head sum below _ZETA_HEAD, then B_2j / (2j)! for
# the Bernoulli numbers B_2 .. B_10
_ZETA_HEAD = 16
_ZETA_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)


class ChainClass(str, Enum):
    POSITIVE_RECURRENT = "positive_recurrent"
    NULL_RECURRENT = "null_recurrent"
    TRANSIENT = "transient"


class JumpModel:
    """Immutable jump law plus its exact summaries.

    ``mu`` and ``radius`` are exact where the family allows (they always
    do for the bundled families).  ``coeffs`` holds a_0 .. a_(n-1), n
    from the family's size rule; it is built on first use and kept with
    the model.  No function of the package reads it: the sampler builds
    only the prefix it draws from, capped at n.  It stays for API users
    and for the benchmark's tracer, which reads its size, until that
    tracer is revised.
    """

    def __init__(self, family: str, mu: float, radius: float, p: float | None = None,
                 alpha: float | None = None, a: tuple[float, ...] | None = None,
                 base: JumpModel | None = None, tilt_x: float | None = None):
        # p: geometric; alpha: power_zeta; a: explicit, a_0 .. a_m with a_m != 0;
        # tilted: base, the original law, and tilt_x, the reweighting point
        vars(self).update(family=family, mu=mu, radius=radius, p=p, alpha=alpha, a=a,
                          base=base, tilt_x=tilt_x)

    def __setattr__(self, name, *value):  # also __delattr__, without the value
        raise AttributeError(f"cannot set or delete {name!r}: a JumpModel is immutable")

    __delattr__ = __setattr__

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Read-only ``exact_coefficients(self, n)``, for API users and the
        benchmark's tracer; past the budget, InvalidSpec."""
        n = _table_size(self)
        if n * 8 > GEOMETRIC_TABLE_BUDGET:
            raise InvalidSpec(f"{self!r} needs {n} coefficients, above the "
                              f"{GEOMETRIC_TABLE_BUDGET >> 20} MiB table budget")
        coeffs = exact_coefficients(self, n)
        coeffs.setflags(write=False)
        return coeffs

    @property
    def a0(self) -> float:
        return coefficient_head(self, 1)[0]

    def __repr__(self) -> str:  # the family, its parameter and mu
        extra = ""
        if self.p is not None:
            extra = f", p={self.p}"
        if self.alpha is not None:
            extra = f", alpha={self.alpha}"
        if self.tilt_x is not None:
            extra = f", tilt_x={self.tilt_x}"
        return f"JumpModel({self.family}{extra}, mu={self.mu:.6g})"


# ---------------------------------------------------------------------------
# family constructors and their coefficients


def explicit(a) -> JumpModel:
    """Model from a finite coefficient list a_0 .. a_m."""
    flat = not isinstance(a, (str, bytes, Mapping)) and isinstance(a, Iterable)
    a = list(a) if flat else []
    if not a or any(isinstance(c, Iterable) and not isinstance(c, str) for c in a):
        raise InvalidSpec("explicit law needs a one-dimensional, non-empty list")
    a = [float(c) for c in a]
    if not all(map(math.isfinite, a)):
        raise InvalidSpec("explicit law has non-finite entries")
    if any(c < 0.0 for c in a):
        raise InvalidSpec("explicit law has negative entries")
    total = math.fsum(a)
    if abs(total - 1.0) > 1e-12:
        raise InvalidSpec(f"explicit law sums to {total!r}, not 1")
    if a[0] <= 0.0:
        raise InvalidSpec("explicit law needs a_0 > 0")
    if math.fsum(a[2:]) <= 0.0:  # 1 - a_0 - a_1, which a_0 + a_1 can round away
        raise InvalidSpec("explicit law needs a_0 + a_1 < 1")
    while len(a) > 1 and a[-1] == 0.0:  # trailing zeros carry no mass
        a.pop()
    return JumpModel(
        family="explicit",
        mu=math.fsum(n * c for n, c in enumerate(a)),
        radius=math.inf,
        a=tuple(a),
    )


def _explicit_coefficients(m: JumpModel, count: int) -> np.ndarray:
    import numpy as np

    out = np.zeros(count)
    head = m.a[:count]
    out[:len(head)] = head
    return out


def _explicit_head(m: JumpModel, count: int) -> list[float]:
    return list(m.a[:count]) + [0.0] * (count - len(m.a))


def geometric(p: float) -> JumpModel:
    """Model with a_n = (1-p)^n p."""
    p = float(p)
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise InvalidSpec(f"geometric parameter must lie in (0,1), got {p!r}")
    q = 1.0 - p
    return JumpModel(family="geometric", mu=q / p, radius=1.0 / q, p=p)


def _geometric_coefficients(m: JumpModel, count: int) -> np.ndarray:
    import numpy as np

    return m.p * (1.0 - m.p) ** np.arange(count, dtype=float)


def _geometric_head(m: JumpModel, count: int) -> list[float]:
    p, q = m.p, 1.0 - m.p
    return [p * q ** n for n in range(count)]


def _geometric_first_return(m: JumpModel, n_max: int) -> list[float]:
    # f_n = C(2n-2, n-1) p^n q^(n-1) / n, as the ratio product from f_1 = p:
    # every factor is nonnegative, so each step adds a few roundings and no
    # cancellation
    pq = m.p * (1.0 - m.p)
    f = [0.0, m.p]
    for n in range(1, n_max):
        f.append(f[-1] * ((4 * n - 2) / (n + 1)) * pq)
    return f


def _geometric_drift(m: JumpModel, h: float) -> tuple[float, float]:
    # G(1-h) = p/(p + qh) over one denominator, with 2p - 1 = p - q; the
    # slope is written so that h = 0 gives 1 - mu = (2p - 1)/p exactly
    p, q = m.p, 1.0 - m.p
    den = p + q * h
    return (h * ((2.0 * p - 1.0) + q * h) / den,
            (2.0 * p - 1.0) / p * (p / den) ** 2 + q * h * (2.0 * p + q * h) / (den * den))


def _geometric_reweight(m: JumpModel, x: float) -> JumpModel:
    # p q^n x^n normalizes to a geometric law with ratio q x; its parameter
    # 1 - q x is rounded once, from the doubles' exact ratios, as a float sum
    # would cancel near the radius 1/q
    (pn, pd), (xn, xd) = m.p.as_integer_ratio(), x.as_integer_ratio()
    return geometric((pd * xd - (pd - pn) * xn) / (pd * xd))


def _geometric_size(m: JumpModel) -> float:
    # terms to a tail mass of _TAIL_TARGET; none suffice where q rounds to 1
    # (p below 2^-54)
    q = 1.0 - m.p
    return math.ceil(math.log(_TAIL_TARGET) / math.log(q)) if q < 1.0 else math.inf


def _half_stable_coeffs(count: int) -> np.ndarray:
    """a_0 = 2/3, a_2 = 1/4, a_3 = 1/24 and a_(n+1) = a_n (2n-3)/(2(n+1)).

    Built in place: the ratios go straight into out[4:], block by block,
    and one cumulative product and one scale turn them into the
    coefficients.  The blocks keep every temporary small, so building
    the 2^21-entry table frees no large array.  A freed array of many
    megabytes raises glibc's mmap threshold to its size, and later
    arrays of the sampler then come from the heap, where they fragment
    and hold a varying amount of memory.
    """
    import numpy as np

    out = np.zeros(count, dtype=float)
    out[0] = 2.0 / 3.0
    if count > 2:
        out[2] = 0.25
    if count > 3:
        out[3] = 1.0 / 24.0
    if count > 4:
        ratios = out[4:]
        for lo in range(4, count, _BUILD_BLOCK):
            hi = min(lo + _BUILD_BLOCK, count)
            den = np.arange(lo, hi, dtype=float)  # n + 1 for n = lo-1 .. hi-2
            den *= 2.0
            block = ratios[lo - 4:hi - 4]
            np.subtract(den, 5.0, out=block)  # 2n - 3, exact
            block /= den
        np.cumprod(ratios, out=ratios)
        ratios *= 1.0 / 24.0
    return out


def _half_stable_head(count: int) -> list[float]:
    # _half_stable_coeffs entry by entry: the same quotients, running
    # product and scale, so the two agree bit for bit
    out = [2.0 / 3.0, 0.0, 0.25, 1.0 / 24.0][:count]
    run = 1.0
    for n in range(4, count):
        run *= (2.0 * n - 5.0) / (2.0 * n)
        out.append(run * (1.0 / 24.0))
    return out


def half_stable() -> JumpModel:
    """Critical model with G(t) = t + (2/3)(1-t)^{3/2}."""
    return JumpModel(family="half_stable", mu=1.0, radius=1.0)


def _zeta_terms(s: float, head: int = 1, pole: bool = True) -> list[float]:
    """Euler-Maclaurin terms of sum_{k >= head} k^-s, for s >= 1/2, s != 1.

    Exact terms k^-s for head <= k < 16, the integral and half-term at
    16, then five Bernoulli corrections; the first omitted one stays
    below 8e-17 for every s >= 1/2.  pole=False drops 1/(s-1) from the
    integral term, leaving the part that is regular at s = 1.  A head
    above 16 is refused: the integral would still start at 16 and count
    the terms below head, and starting it at head instead leaves the
    corrections too coarse for large s.
    """
    n = _ZETA_HEAD
    if head > n:
        raise ValueError(f"Euler-Maclaurin head {head} is above {n}, where its integral starts")
    terms = [k ** -s for k in range(head, n)]
    if pole:
        terms.append(n ** (1.0 - s) / (s - 1.0))
    else:  # (n^(1-s) - 1)/(s-1), -log n at s = 1
        terms.append(-math.log(n) * _expm1_over((1.0 - s) * math.log(n)))
    terms.append(0.5 * n ** -s)
    rising = s * n ** (-s - 1.0)  # s (s+1) .. (s+2j-2) n^(-s-2j+1) at j = 1
    for j, c in enumerate(_ZETA_BERNOULLI):
        if rising == 0.0:  # underflowed; the next factor may be inf
            break
        terms.append(c * rising)
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2) / (n * n)
    return terms


def _zeta(s: float) -> float:
    """Riemann zeta for real s, +inf at the pole s = 1.

    Euler-Maclaurin (``_zeta_terms``) for s >= 1/2, which is within half
    an ulp for s > 1 where |zeta(s)| >= 1; below 1/2 the functional
    equation maps s to 1 - s.  There the pole of zeta(1 - s) is taken as
    -1/s from s itself, not from the rounded 1 - s.
    """
    if s < 0.5:
        if s == 0.0:
            return -0.5
        reflected = math.fsum(_zeta_terms(1.0 - s, pole=False)) - 1.0 / s
        return (2.0 ** s * math.pi ** (s - 1.0) * math.sin(0.5 * math.pi * s)
                * math.gamma(1.0 - s) * reflected)
    if s == 1.0:
        return math.inf
    return math.fsum(_zeta_terms(s))


def _hurwitz_zeta(s: float, v: int) -> float:
    """zeta(s, v) = sum_{k >= v} k^-s for an integer v >= 1 and real s != 1.

    For s >= 1/2, v is at most _ZETA_HEAD (see ``_zeta_terms``).
    """
    if s < 0.5:
        return math.fsum([_zeta(s)] + [-(k ** -s) for k in range(1, v)])
    return math.fsum(_zeta_terms(s, v))


def _expm1_over(x: float) -> float:
    return math.expm1(x) / x if x else 1.0


def _log1p_over(x: float) -> float:
    return math.log1p(x) / x if x else 1.0


def _power_zeta_coeffs(alpha: float, count: int) -> np.ndarray:
    """a_k = (k+1)^-alpha - (k+2)^-alpha, built in blocks of _BUILD_BLOCK.

    Each entry takes the same operations as over one whole index array,
    so the table is the same bytes; only one block's temporaries are
    held beside it.
    """
    import numpy as np

    out = np.empty(count, dtype=float)
    for lo in range(0, count, _BUILD_BLOCK):
        k = np.arange(lo + 1, min(lo + _BUILD_BLOCK, count) + 1, dtype=float)  # k + 1
        block = out[lo:lo + k.size]
        np.power(k, -alpha, out=block)
        k += 1.0
        np.power(k, -alpha, out=k)
        block -= k
    return out


def _power_zeta_head(m: JumpModel, count: int) -> list[float]:
    alpha = m.alpha
    return [(k + 1.0) ** -alpha - (k + 2.0) ** -alpha for k in range(count)]


def power_zeta(alpha: float) -> JumpModel:
    """Heavy-tailed model a_k = (k+1)^{-alpha} - (k+2)^{-alpha}, alpha > 2."""
    alpha = float(alpha)
    if not (alpha > 2.0) or not math.isfinite(alpha):
        raise InvalidSpec(f"power_zeta exponent must exceed 2, got {alpha!r}")
    return JumpModel(family="power_zeta", mu=_zeta(alpha) - 1.0, radius=1.0, alpha=alpha)


# ---------------------------------------------------------------------------
# per-family evaluation and the family table


def _geometric_G(model: JumpModel, t: float, order: int) -> float:
    p = model.p
    q = 1.0 - p
    # 1 - q t as p + q (1 - t): q rounds to 1 for p below 2^-54, where
    # 1 - q t would lose p, and G(1) = 1 and G'(1) = q/p with it
    gap = p + q * (1.0 - t)
    if gap <= 0.0:
        return math.inf
    if order <= 170:  # order! still converts to a double
        den = gap ** (order + 1)
        if den > 0.0:
            return p * math.factorial(order) * q ** order / den
    # log space: the value can be a double when order! or the power is not
    log_g = (math.log(p) + math.lgamma(order + 1.0) + order * math.log(q)
             - (order + 1) * math.log(gap))
    try:
        return math.exp(log_g)
    except OverflowError:
        return math.inf


def _half_stable_G(model: JumpModel, t: float, order: int) -> float:
    if t > 1.0:
        return math.inf
    if order == 0:
        return t + (2.0 / 3.0) * (1.0 - t) ** 1.5
    if order == 1:
        return 1.0 - math.sqrt(1.0 - t)
    if t == 1.0:  # G'' and every later derivative diverge at 1
        return math.inf
    return 0.5 * (1.0 - t) ** -0.5  # order 2; eval_G refuses higher orders below 1


# power_zeta below t = 1, at orders 0..2.  With S(t) = sum_m (m+2)^-alpha t^m,
# G = 1 - (1-t) S and G^(n) = n S^(n-1) - (1-t) S^(n).  Up to _PZ_SWITCH
# the Taylor series of G^(n), all of whose terms are positive, is summed
# directly.  Above it, Jonquiere's expansion in w = log t (Wood 1992,
# Crandall 2006) takes over:
#
#     sum_{m>=0} (m+v)^-s e^((m+v)w) = Gamma(1-s)(-w)^(s-1) + sum_k zeta(s-k, v) w^k/k!,
#
# and t^(i+2) S^(i) = prod_{j<i} (D - 2 - j) of that sum at s = alpha, with
# D = d/dw.  Taking v = i + 2 there drops the terms m < i, which the
# product annihilates anyway; left in, they cancel, and badly so for
# large alpha.

_PZ_SWITCH = 0.75
_PZ_W_TERMS = 32  # (5 |log 0.75|)^32 / 32! < 1e-30
_EULER_GAMMA = 0.5772156649015329


@lru_cache(maxsize=64)
def _pz_series(alpha: float, order: int) -> tuple[float, ...]:
    """Taylor coefficients c_j = (j+order)!/j! a_(j+order) of G^(order).

    Long enough that the dropped tail is below 2^-56 of the sum for every
    t <= _PZ_SWITCH: the tail's share grows with t.
    """
    coeffs, total, power = [], 0.0, 1.0
    for j in itertools.count():
        k = j + order
        # a_k = (k+1)^-alpha (1 - ((k+1)/(k+2))^alpha), the second factor
        # formed without cancellation
        a = (k + 1.0) ** -alpha * -math.expm1(alpha * math.log1p(-1.0 / (k + 2)))
        c = math.perm(k, order) * a
        coeffs.append(c)
        total += c * power
        # a_(k+1) <= a_k, so each later term is at most rho times the one before
        rho = _PZ_SWITCH * (k + 1) / (j + 1)
        if rho < 1.0 and c * power * rho / (1.0 - rho) <= 2.0 ** -56 * total:
            return tuple(coeffs)
        power *= _PZ_SWITCH


@lru_cache(maxsize=64)
def _pz_pole(alpha: float) -> tuple[int, float, tuple[float, ...]]:
    """Where the w-series coefficients zeta(alpha - i) meet the pole of zeta.

    i_p = round(alpha - 1) and alpha - i_p = 1 + eps with |eps| <= 1/2.
    For m < _PZ_W_TERMS, g_m = (-1)^m m! Gamma(-m - eps) + 1/eps, smooth
    through eps = 0, where it is H_m - gamma.
    """
    ip = round(alpha - 1.0)
    eps = alpha - 1.0 - ip  # exact
    # ell = log(Gamma(1 - eps)) / eps, from the series in zeta(k) - 1
    ell = _log1p_over(-eps) - (1.0 - _EULER_GAMMA)
    for k in range(2, 33):
        ell += _hurwitz_zeta(float(k), 2) * eps ** (k - 1) / k
    gs = []
    for m in range(_PZ_W_TERMS):
        if m:  # Gamma(-m - eps) = -Gamma(1 - eps) / (eps (1 + eps) .. (m + eps)) (-1)^m
            ell -= _log1p_over(eps / m) / m
        gs.append(-ell * _expm1_over(eps * ell))
    return ip, eps, tuple(gs)


@lru_cache(maxsize=64)
def _pz_jonquiere(alpha: float, v: int) -> tuple[tuple[float, ...], float]:
    """w-series coefficients zeta(alpha - i, v), 0 at the pole index, and
    the pole coefficient's regular part zeta(1 + eps, v) - 1/eps."""
    ip, eps, _ = _pz_pole(alpha)
    coeffs = tuple(0.0 if i == ip else _hurwitz_zeta(alpha - i, v)
                   for i in range(_PZ_W_TERMS + v - 2))
    return coeffs, math.fsum(_zeta_terms(1.0 + eps, v, pole=False))


def _pz_lerch(alpha: float, r: int, v: int, w: float, pw: list[float]) -> float:
    """sum_{m>=0} (m+v)^-s e^((m+v)w) at s = alpha - r, for w < 0.

    pw holds w^k/k! for as many k as the w-series needs.
    """
    coeffs, regular = _pz_jonquiere(alpha, v)
    ip, eps, gs = _pz_pole(alpha)
    total = sum(map(operator.mul, coeffs[r:], pw))
    L = math.log(-w)
    m = ip - r
    if m < 0:  # s <= 1/2: no pole, the singular term stands alone
        s = alpha - r
        return total + math.gamma(1.0 - s) * math.exp((s - 1.0) * L)
    if m < _PZ_W_TERMS:
        # Gamma(1-s)(-w)^(s-1) + zeta(1+eps, v) w^m/m! in one piece: the
        # 1/eps both carry cancels in closed form
        e = eps * L
        wm = pw[m] if m < len(pw) else w ** m / math.factorial(m)
        total += wm * (math.exp(e) * gs[m] + regular - L * _expm1_over(e))
    return total


@lru_cache(maxsize=16)
def _pz_annihilator(i: int) -> tuple[int, ...]:
    """Coefficients of prod_{j<i} (x - 2 - j), lowest power first."""
    poly = [1]
    for j in range(i):
        poly = [a - (j + 2) * b for a, b in zip([0] + poly, poly + [0])]
    return tuple(poly)


def _pz_S(alpha: float, i: int, t: float, w: float, pw: list[float]) -> float:
    v = i + 2
    terms = [p * _pz_lerch(alpha, r, v, w, pw) for r, p in enumerate(_pz_annihilator(i))]
    return math.fsum(terms) / t ** v


def _pz_powers(w: float, order: int) -> list[float]:
    """w^k/k! for as many k as the w-series of G^(order) needs."""
    # w-series terms run like (v w)^k / k! relative to the sum; stop
    # far below an ulp at the largest v used, order + 2
    pw, x = [1.0], 1.0
    for k in range(1, _PZ_W_TERMS):
        x *= w / k
        if abs(x) * (order + 2) ** k < 2.0 ** -64:
            break
        pw.append(x)
    return pw


def _power_zeta_G(model: JumpModel, t: float, order: int) -> float:
    """Taylor series to _PZ_SWITCH, Jonquiere's expansion to 1, zeta at 1."""
    if t > 1.0:
        return math.inf
    alpha = model.alpha
    if t <= _PZ_SWITCH:
        acc = 0.0
        for c in reversed(_pz_series(alpha, order)):
            acc = acc * t + c
        return acc
    if t < 1.0:
        w = math.log(t)
        pw = _pz_powers(w, order)
        if order == 0:
            return 1.0 - (1.0 - t) * _pz_S(alpha, 0, t, w, pw)
        return (order * _pz_S(alpha, order - 1, t, w, pw)
                - (1.0 - t) * _pz_S(alpha, order, t, w, pw))
    if order == 0:
        return 1.0
    if order >= model.alpha:
        return math.inf
    # sum_n n(n-1)..(n-k+1) a_n telescopes to
    # k * sum_{j>=2} (j-2)(j-3)..(j-k) j^{-alpha}; expand the falling
    # polynomial, whose roots are 2..k, in powers of j and evaluate with
    # the zeta function.
    total = 0.0
    for i, c in enumerate(_pz_annihilator(order - 1)):
        total += float(c) * (_zeta(model.alpha - i) - 1.0)
    return order * total


def _power_zeta_drift(model: JumpModel, h: float) -> tuple[float, float]:
    # G = 1 - (1-t) S, so psi(h) = h (1 - S(1-h)), where S <= S(1) = mu < 1.
    # Above the switch S comes from Jonquiere's expansion at w = log(1-h),
    # where G(1-h) - (1-h) would cancel as h -> 0; at or below it that
    # subtraction does not cancel.  Neither does the slope 1 - G'(1-h).
    x = 1.0 - h
    if x <= _PZ_SWITCH or h == 0.0:
        return _subtracted_drift(model, h)
    w = math.log1p(-h)
    return h * (1.0 - _pz_S(model.alpha, 0, x, w, _pz_powers(w, 0))), 1.0 - eval_G(model, x, 1)


def _explicit_G(model: JumpModel, t: float, order: int) -> float:
    # numpy's polyder and polyval, operation for operation: each
    # derivative takes c_j to j c_j, then Horner from the top
    c = model.a
    if order >= len(c):
        return 0.0
    for _ in range(order):
        c = [j * c[j] for j in range(1, len(c))]
    acc = 0.0
    for coef in reversed(c):
        acc = acc * t + coef
    return acc


def _explicit_xi(model: JumpModel, x: float) -> float:
    # a_0 - sum_(j>=2) (j-1) a_j x^j by Horner, a_1 x - a_1 x dropped exactly
    acc = 0.0
    for j in range(len(model.a) - 1, -1, -1):
        acc = acc * x + (1 - j) * model.a[j]
    return acc


@lru_cache(maxsize=64)
def _explicit_drift_weights(a: tuple[float, ...]) -> tuple[float, tuple, tuple]:
    """1 - mu and the weights P(J > k) and (k+1) a_(k+1), for k = 1..m-1."""
    tails = tuple(itertools.accumulate(reversed(a[2:])))[::-1]
    slopes = tuple(j * a[j] for j in range(2, len(a)))
    return math.fsum(c * (1 - n) for n, c in enumerate(a)), tails, slopes


def _explicit_drift(model: JumpModel, h: float) -> tuple[float, float]:
    # G(x) - x = (1 - x)(1 - sum_k P(J > k) x^k), so with the root h = 0 divided
    # out psi(h) = h [(1 - mu) + sum_k P(J > k) (1 - (1-h)^k)] and psi'(h) =
    # (1 - mu) + sum_k (k+1) a_(k+1) (1 - (1-h)^k), sums of nonnegative terms
    gap, tails, slopes = _explicit_drift_weights(model.a)
    log_x = math.log1p(-h) if h < 1.0 else -math.inf
    rises = [-math.expm1(k * log_x) for k in range(1, len(tails) + 1)]
    return (h * (gap + sum(map(operator.mul, tails, rises))),
            gap + sum(map(operator.mul, slopes, rises)))


def _tilted_G(model: JumpModel, t: float, order: int) -> float:
    x = model.tilt_x
    inner = eval_G(model.base, x * t, order)
    if not math.isfinite(inner):
        return math.inf
    return x ** order * inner / eval_G(model.base, x, 0)


def _explicit_reweight(model: JumpModel, x: float) -> JumpModel:
    gx = eval_G(model, x, 0)
    return explicit([_scaled_power(c, x, n) / gx for n, c in enumerate(model.a)])


def _scaled_power(c: float, x: float, n: int) -> float:
    """c x^n, also where x^n alone overflows: c x^n <= G(x) is finite."""
    try:
        return c * x ** n
    except OverflowError:  # x > 1, so the running product only grows to c x^n
        for _ in range(n):
            c *= x
        return c


def _tilted(base: JumpModel, x: float) -> JumpModel:
    # a half_stable or power_zeta base at x < 1 (their G diverges beyond
    # 1); a composed point that rounds to exactly 1 gives back the base
    if x == 1.0:
        return base
    return JumpModel(
        family="tilted",
        mu=float(x * eval_G(base, x, 1) / eval_G(base, x, 0)),
        radius=base.radius / x,
        base=base,
        tilt_x=float(x),
    )


def _tilted_coefficients(m: JumpModel, count: int) -> np.ndarray:
    import numpy as np

    return (exact_coefficients(m.base, count) * m.tilt_x ** np.arange(count, dtype=float)
            / eval_G(m.base, m.tilt_x))


def _tilted_head(m: JumpModel, count: int) -> list[float]:
    x, gx = m.tilt_x, eval_G(m.base, m.tilt_x)
    return [c * x ** n / gx for n, c in enumerate(coefficient_head(m.base, count))]


def _subtracted_drift(model: JumpModel, h: float) -> tuple[float, float]:
    x = 1.0 - h
    return eval_G(model, x, 0) - x, 1.0 - eval_G(model, x, 1)


def _subtracted_xi(model: JumpModel, x: float) -> float:
    g1 = eval_G(model, x, 1)
    if not math.isfinite(g1):  # G is finite wherever G' is
        return -math.inf
    return eval_G(model, x, 0) - x * g1


class _Family(NamedTuple):
    """Everything the package knows about one family of jump laws.

    The callables take the model first.  ``build`` is None for the
    internal ``tilted`` kind, which no spec can name.  1 - mu is the
    drift's slope at 0, and the escape probability its positive root.
    ``first_return`` is the law's first-return pmf in closed form, where
    one is known: geometric laws have f_n = C(2n-2, n-1) p^n q^(n-1)/n.
    Both pmf engines read it, on the critical-scale tilt of the law, in
    place of their own computation; every other family leaves it None.
    """

    fields: tuple[str, ...]         # spec fields, in the order build takes them
    build: Callable | None          # the constructor
    table_size: Callable            # model -> n, the length of ``coeffs``, without building it
    coefficients: Callable          # (model, count) -> exact a_0 .. a_(count-1), an array
    head: Callable                  # (model, count) -> the same as a list of floats, no numpy
    G: Callable                     # (model, t, order) -> G^(order)(t), +inf beyond the radius
    reweight: Callable = _tilted    # (model, x) -> a_j x^j / G(x), for x != 1 with G(x) < inf
    tail: Callable = lambda m: math.inf  # model -> sup{s : E(J^s) < inf}; G^(k)(1) < inf below
    drift: Callable = _subtracted_drift  # (model, h) -> psi(h) = G(1-h) - (1-h) and psi'(h)
    xi: Callable = _subtracted_xi   # (model, x) -> G(x) - x G'(x), -inf where G' diverges
    boundary: Callable = lambda m: None  # model -> its law at a radius R > 1 with G(R) < inf, or None
    first_return: Callable | None = None  # (model, N) -> f_0..f_N in closed form, a list, or None


_FAMILIES = {
    "explicit": _Family(
        fields=("a",), build=explicit,
        table_size=lambda m: len(m.a),
        coefficients=_explicit_coefficients,
        head=_explicit_head,
        G=_explicit_G,
        reweight=_explicit_reweight,
        drift=_explicit_drift,
        xi=_explicit_xi,
    ),
    "geometric": _Family(
        fields=("p",), build=geometric,
        table_size=_geometric_size,
        coefficients=_geometric_coefficients,
        head=_geometric_head,
        G=_geometric_G,
        reweight=_geometric_reweight,
        drift=_geometric_drift,
        first_return=_geometric_first_return,
    ),
    "half_stable": _Family(
        fields=(), build=half_stable,
        table_size=lambda m: _HALF_STABLE_CAP,
        coefficients=lambda m, count: _half_stable_coeffs(count),
        head=lambda m, count: _half_stable_head(count),
        G=_half_stable_G,
        tail=lambda m: 1.5,
        drift=lambda m, h: ((2.0 / 3.0) * h ** 1.5, math.sqrt(h)),
    ),
    "power_zeta": _Family(
        fields=("alpha",), build=power_zeta,
        table_size=lambda m: math.ceil(10.0 ** (12.0 / m.alpha)),
        coefficients=lambda m, count: _power_zeta_coeffs(m.alpha, count),
        head=_power_zeta_head,
        G=_power_zeta_G,
        tail=lambda m: m.alpha,
        drift=_power_zeta_drift,
    ),
    "tilted": _Family(
        fields=(), build=None,
        table_size=lambda m: _table_size(m.base),
        coefficients=_tilted_coefficients,
        head=_tilted_head,
        G=_tilted_G,
        # points compose; at the radius, x (1/x) is 1 in exact arithmetic
        reweight=lambda m, x: m.base if x == m.radius else _tilted(m.base, m.tilt_x * x),
        boundary=lambda m: m.base,
    ),
}


# ---------------------------------------------------------------------------
# public entry points: validate, then one table lookup


def _integer(k: int, lo: int, what: str) -> int:
    """k as an int from lo up to the largest double (n ** k takes k as a double).

    A value that is not integral, such as 2.7, inf or nan, is refused,
    not truncated.
    """
    try:
        k = operator.index(k)
    except TypeError:
        value = float(k)
        if not value.is_integer():
            raise ValueError(f"{what} must be an integer, got {k!r}") from None
        k = int(value)
    if k < lo:
        raise ValueError(f"{what} must be at least {lo}")
    if k > sys.float_info.max:
        raise ValueError(f"{what} must not exceed the largest double")
    return k


def build_model(spec: Mapping) -> JumpModel:
    """Build a model from a parsed model-spec mapping.

    Accepted shapes, with exact field names:

    * ``{"family": "explicit", "a": [...]}``
    * ``{"family": "geometric", "p": 0.25}``
    * ``{"family": "half_stable"}``
    * ``{"family": "power_zeta", "alpha": 3.0}``
    """
    if not isinstance(spec, Mapping):
        raise InvalidSpec(f"model spec must be a mapping, got {type(spec).__name__}")
    fam = spec.get("family")
    record = _FAMILIES.get(fam) if isinstance(fam, str) else None
    if record is None or record.build is None:
        known = tuple(name for name, rec in _FAMILIES.items() if rec.build)
        raise InvalidSpec(f"unknown family {fam!r}, expected one of {known}")
    fields = set(record.fields)
    extra = set(spec) - fields - {"family"}
    if extra:
        raise InvalidSpec(f"unexpected fields for family {fam!r}: {sorted(extra)}")
    missing = fields - set(spec)
    if missing:
        raise InvalidSpec(f"missing fields for family {fam!r}: {sorted(missing)}")
    try:
        return record.build(*(spec[name] for name in record.fields))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"bad fields for family {fam!r}: {exc}") from exc


def _table_size(model: JumpModel) -> float:
    """Length of ``model.coeffs`` by the family's size rule, building nothing."""
    return _FAMILIES[model.family].table_size(model)


def exact_coefficients(model: JumpModel, count: int) -> np.ndarray:
    """First ``count`` jump probabilities a_0 .. a_{count-1}, exact per family.

    Unlike ``model.coeffs`` this is not truncated at a tail-mass target:
    every requested index is filled from the family formula, into a fresh
    array the caller owns.  Work that only ever sees the first jumps (the
    return-time law up to horizon N sees jumps < N, a sampled path jumps
    below its cap) uses this accessor.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    return _FAMILIES[model.family].coefficients(model, count)


def coefficient_head(model: JumpModel, count: int) -> list[float]:
    """``exact_coefficients(model, count)`` as a list of floats, built without numpy.

    For the short heads the CLI prints and the exact pmf reads at small
    horizons.  Each entry takes the family formula's operations in the
    same order.  libm's ``pow`` and numpy's vectorized power may round
    one ulp apart; power_zeta's difference of two powers carries that to
    about (k + 2)/alpha ulp of a_k.  half_stable and explicit heads are
    the array's bits.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    return _FAMILIES[model.family].head(model, count)


def eval_G(model: JumpModel, t: float, order: int = 0) -> float:
    """G^(order)(t) as an extended real; +inf outside the radius.

    Orders 0..2 at every t, and every order at t >= 1, where G^(k)(1)
    gives the moments; order 3 and up below t = 1 is a ValueError.  A tilt reads
    its base at x t, x its reweighting point, so for a tilt the limit
    applies at x t: its orders past 2 are refused up to t = 1/x.

    Closed forms carry the geometric and half_stable families; explicit
    laws are polynomial.  power_zeta sums its Taylor series up to
    t = 3/4 and uses Jonquiere's expansion of the polylogarithm above
    (see ``_power_zeta_G``), to about 1e-14 relative and without the
    coefficient table; at t = 1 it uses an exact zeta identity.
    Geometric laws go to log space where order! or the power of 1 - q t
    leaves the double range; the value is +inf once it passes the
    largest double.
    """
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"evaluation point must be a finite nonnegative real, got {t!r}")
    order = _integer(order, 0, "derivative order")
    if order > 2 and t < 1.0:
        raise ValueError(f"eval_G answers orders 0..2 below t = 1 and every order from "
                         f"t = 1 on, got order {order} at t = {t!r}")
    return _FAMILIES[model.family].G(model, t, order)


def tilt(model: JumpModel, x: float) -> JumpModel:
    """Exponentially reweighted law {a_j x^j / G(x)}.

    Geometric and explicit laws are closed under reweighting and come
    back as first-class members of their own family; half_stable and
    power_zeta are wrapped as ``tilted`` models.  Reweighting a wrapped
    law composes the points, and x = 1 is the identity.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"reweighting point must be positive and finite, got {x!r}")
    if x == 1.0:
        return model
    if not math.isfinite(eval_G(model, x, 0)):
        raise OutOfRadius(f"G({x!r}) diverges, cannot reweight there")
    try:
        return _FAMILIES[model.family].reweight(model, x)
    except InvalidSpec as exc:  # a valid law, but its reweight rounds to no law
        raise ValueError(f"reweighting at {x!r} leaves no representable law: {exc}") from exc


# ---------------------------------------------------------------------------
# classification


def classify(model: JumpModel) -> ChainClass:
    """Recurrence class from the mean jump.

    mu < 1 is positive recurrent, mu = 1 null recurrent, mu > 1
    transient.  Criticality is decided within CRITICAL_TOL; the bundled
    parametric families store mu exactly, so e.g. geometric(1/2) and
    half_stable land on the critical line without tolerance games.
    """
    if abs(model.mu - 1.0) <= CRITICAL_TOL:
        return ChainClass.NULL_RECURRENT
    if model.mu < 1.0:
        return ChainClass.POSITIVE_RECURRENT
    return ChainClass.TRANSIENT


def mean_gap(model: JumpModel) -> float:
    """1 - mu evaluated without the cancellation that 1.0 - model.mu commits.

    Matters when mu is a ratio whose rounding survives the subtraction:
    geometric(3/4) stores mu = 1/3 off by half an ulp, and 1/(1 - mu)
    then misses 3/2 by one ulp.  It is the drift's slope psi'(0), which
    each family record writes in the family's own exact parameters.
    """
    return _FAMILIES[model.family].drift(model, 0.0)[1]

"""Reference implementations the tests pin library output against.

Every function here recomputes its target from the chain's definition by
a route the library does not take: distribution-vector evolution instead
of renewal recursions, exact rational binomial products instead of float
ratio cascades, bracketing root finders instead of fixed-point
iteration.  Slow and obvious on purpose.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq


def geometric_jumps(p: float, count: int) -> np.ndarray:
    q = 1.0 - p
    return np.array([p * q**k for k in range(count)])


def half_stable_jumps(count: int) -> np.ndarray:
    """Taylor coefficients of t + (2/3)(1-t)^(3/2) in exact rationals."""
    out = [Fraction(2, 3), Fraction(0)]
    binom = Fraction(3, 2)  # running binom(3/2, n), starts at n = 1
    for n in range(2, count):
        binom *= Fraction(3 - 2 * (n - 1), 2 * n)
        out.append(Fraction(2, 3) * binom * (-1) ** n)
    return np.array([float(c) for c in out[:count]])


def power_zeta_jumps(alpha: float, count: int) -> np.ndarray:
    k = np.arange(count, dtype=float)
    return (k + 1.0) ** -alpha - (k + 2.0) ** -alpha


def evolve_green(jumps, n_max: int) -> np.ndarray:
    """u_n = P(X_n = 0 | X_0 = 0) by evolving the state distribution.

    Truncation at state n_max is exact, not approximate: the walk drops
    by at most one per step, so mass that climbs above n_max - k at time
    k can never be back at the origin by time n_max.
    """
    a = np.zeros(n_max + 1)
    got = np.asarray(jumps, dtype=float)[: n_max + 1]
    a[: got.size] = got
    v = np.zeros(n_max + 1)
    v[0] = 1.0
    u = [1.0]
    for _ in range(n_max):
        w = np.empty_like(v)
        w[0] = v[0] + v[1]
        w[1:-1] = v[2:]
        w[-1] = 0.0
        v = np.convolve(w, a)[: n_max + 1]
        u.append(float(v[0]))
    return np.array(u)


def evolve_first_return(jumps, n_max: int) -> np.ndarray:
    """f_n = P(tau = n) by evolving the walk with returns absorbed.

    Same exact-truncation argument as evolve_green.
    """
    a = np.zeros(n_max + 1)
    got = np.asarray(jumps, dtype=float)[: n_max + 1]
    a[: got.size] = got
    v = a.copy()  # one step out of the origin lands on the jump law
    f = [0.0, float(v[0])]
    for _ in range(2, n_max + 1):
        w = np.empty_like(v)
        w[0] = v[1]
        w[1:-1] = v[2:]
        w[-1] = 0.0
        v = np.convolve(w, a)[: n_max + 1]
        f.append(float(v[0]))
    return np.array(f)


def convolution_chain_pmf(jumps, n_max: int) -> np.ndarray:
    """f_n = (1/n) [x^(n-1)] G(x)^n by one full convolution per power.

    The O(N^3) chain the library used before its baby-step/giant-step
    kernel, kept as the reference that kernel is gated against.  The
    kernel is zero-padded to length N, so laws whose kernel is shorter
    than the horizon need no special case.
    """
    a = np.zeros(n_max)
    got = np.asarray(jumps, dtype=float)[:n_max]
    a[: got.size] = got
    f = np.zeros(n_max + 1)
    f[1] = a[0]
    power = a
    for n in range(2, n_max + 1):
        power = np.convolve(power, a)[:n_max]
        f[n] = power[n - 1] / n
    return f


def geometric_first_return(p_num: int, p_den: int, n_max: int) -> np.ndarray:
    """f_n = C(2n-2, n-1) p^n q^(n-1) / n for p = p_num/p_den, correctly rounded.

    Skip-free walks with geometric jumps have this closed form; the
    ratio of exact integers is rounded once, so values far below the
    double range of p^n alone still come out to half an ulp.
    """
    q_num = p_den - p_num
    num, den = p_num, p_den  # C(2n-2, n-1) p^n q^(n-1) as num/den at n = 1
    out = [0.0]
    for n in range(1, n_max + 1):
        out.append(num / (n * den))
        num = num * (2 * n) * (2 * n - 1) // (n * n) * p_num * q_num
        den *= p_den * p_den
    return np.array(out)


def sqrt_series(n_max: int) -> np.ndarray:
    """Coefficients of 1 - sqrt(1 - t): f_n = (-1)^(n+1) binom(1/2, n)."""
    out = [Fraction(0)]
    binom = Fraction(1)
    for n in range(1, n_max + 1):
        binom *= Fraction(3 - 2 * n, 2 * n)
        out.append(binom * (-1) ** (n + 1))
    return np.array([float(c) for c in out])


def central_binomial_green(n_max: int) -> np.ndarray:
    """u_n = C(2n, n) / 4^n from exact integer arithmetic."""
    return np.array([math.comb(2 * n, n) / 4.0**n for n in range(n_max + 1)])


def minimal_root(G, t: float, hi: float) -> float:
    """Smallest nonnegative root of x = t G(x) by bracketing on [0, hi].

    hi must sit at or before the second root; the caller supplies the
    tangency abscissa (or 1.0 for recurrent chains at t <= 1).
    """
    g = lambda x: t * G(x) - x
    if g(hi) > 0.0:
        raise ValueError("bracket does not straddle the minimal root")
    return brentq(g, 0.0, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)


def zeta_by_summation(s: float, terms: int = 200_000) -> float:
    """Riemann zeta via direct partial sum plus an Euler-Maclaurin tail."""
    head = math.fsum(k**-s for k in range(1, terms + 1))
    tail = terms ** (1.0 - s) / (s - 1.0) - 0.5 * terms**-s + s * terms ** (-s - 1.0) / 12.0
    return head + tail


def tilt_jumps(jumps, x: float) -> np.ndarray:
    """Reweighted law a_n x^n / G(x) straight from the definition."""
    a = np.asarray(jumps, dtype=float)
    scaled = a * x ** np.arange(a.size)
    return scaled / math.fsum(scaled)

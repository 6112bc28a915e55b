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

from repairchain.return_time import eval_F
from repairchain.sim import SimReport


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


def _falling_factorial(n: np.ndarray, order: int) -> np.ndarray:
    w = np.ones_like(n)
    for j in range(order):
        w = w * (n - j)
    return w


def eval_G_by_series(model, t: float, order: int = 0) -> float:
    """G^(order)(t) summed over the model's cached coefficient table.

    The library evaluates G in closed form per family; this is the plain
    truncated power series, so the two must agree on the interior of the
    domain up to the table's certified tail.
    """
    a = model.coeffs
    n = np.arange(a.size, dtype=float)
    w = _falling_factorial(n, order)
    keep = n >= order
    powers = np.power(float(t), n[keep] - order)
    return float(np.dot(a[keep] * w[keep], powers))


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


def renewal_forward(f) -> np.ndarray:
    """u_0..u_N from f by forward substitution in u_n = sum_(k=1..n) f_k u_(n-k).

    One dot product per n, u_0 = 1: the reference any faster solve of
    the recursion in ``return_pmf`` is gated against.
    """
    f = np.asarray(f, dtype=float)
    u = np.zeros(f.size)
    u[0] = 1.0
    for n in range(1, f.size):
        u[n] = float(np.dot(f[1:n + 1], u[n - 1::-1]))
    return u


def renewal_longdouble(f) -> np.ndarray:
    """u_0..u_N from f by the forward substitution of ``renewal_forward`` in np.longdouble.

    Where longdouble is the x87 80-bit format, its 64-bit significand
    leaves the double solve's rounding about 2^-11 of its size, and its
    exponent range holds tails that underflow in doubles; where
    longdouble is plain double, this is ``renewal_forward`` itself.
    """
    f = np.asarray(f, dtype=np.longdouble)
    u = np.zeros(f.size, dtype=np.longdouble)
    u[0] = 1
    for n in range(1, f.size):
        u[n] = np.dot(f[1:n + 1], u[n - 1::-1])
    return u


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


def geometric_F_mpmath(p: float, t: float, dps: int = 60) -> float:
    """F(t) = (1 - sqrt(1 - 4pqt))/(2q) of geometric(p), q = 1 - p, from mpmath."""
    import mpmath as mp

    with mp.workdps(dps):
        p, t = mp.mpf(p), mp.mpf(t)
        q = 1 - p
        return float((1 - mp.sqrt(1 - 4 * p * q * t)) / (2 * q))


def psi_exact(model, h: float) -> float:
    """psi(h) = G(1-h) - (1-h) at the double h, rounded once from an exact value.

    Explicit laws in Fraction, with a_1 read as 1 - a_0 - sum_(j>=2) a_j:
    the law as its mean gap 1 - mu = sum_n (1 - n) a_n reads it, which
    for coefficients summing to exactly 1 (every spec-built law below)
    is the law itself.  A reweighted law's coefficients sum to 1 only up
    to rounding, and its plain G(1) - 1 would leave a constant of about
    1e-16 in psi.  Geometric laws as p/(p + qh) - (1-h) in Fraction,
    half_stable as (2/3) h^(3/2) in 60-digit mpmath.
    """
    x = 1 - Fraction(h)
    if model.family == "explicit":
        a = [Fraction(c) for c in model.a]
        a[1] = 1 - a[0] - sum(a[2:])
        return float(sum(c * x ** n for n, c in enumerate(a)) - x)
    if model.family == "geometric":
        p = Fraction(model.p)
        return float(p / (p + (1 - p) * Fraction(h)) - x)
    if model.family == "half_stable":
        import mpmath as mp

        with mp.workdps(60):
            return float(mp.mpf(2) / 3 * mp.mpf(h) ** 1.5)
    raise ValueError(f"no exact psi for family {model.family!r}")


def escape_mpmath(a, dps: int = 50) -> float:
    """P(tau = inf) of a transient explicit law a_0 .. a_m, from mpmath.

    The positive root of psi(h)/h = a_0 - sum_(j>=2) (j-1) a_j
    + sum_(k>=1) P(J > k) (1 - (1-h)^k), which is increasing in h and
    reads no a_1, bisected at dps digits until the bracket is far below
    the last digit kept.
    """
    import mpmath as mp

    with mp.workdps(dps):
        return float(_escape_root(a, dps))


def return_prob_mpmath(a, dps: int = 40) -> Fraction:
    """F(1) = 1 - P(tau = inf) of a transient explicit law, exactly as the
    dps-digit root of ``escape_mpmath`` gives it, not rounded to a double."""
    import mpmath as mp

    with mp.workdps(dps):
        man, exp = (1 - _escape_root(a, dps)).man_exp
    return Fraction(man) * Fraction(2) ** exp


def _escape_root(a, dps: int):
    """``escape_mpmath``'s root as an mpf, at the caller's working precision."""
    import mpmath as mp

    a = [mp.mpf(c) for c in a]  # a double converts exactly
    tails = [mp.fsum(a[k + 1:]) for k in range(1, len(a) - 1)]
    top = a[0] - mp.fsum((j - 1) * a[j] for j in range(2, len(a))) + mp.fsum(tails)

    def deflated(h):  # top - sum_k P(J > k) (1-h)^k, by Horner
        x, acc = 1 - h, mp.mpf(0)
        for t in reversed(tails):
            acc = acc * x + t
        return top - x * acc

    lo, hi = mp.mpf(0), mp.mpf(1)
    for _ in range(4 * dps):
        mid = (lo + hi) / 2
        if deflated(mid) < 0:
            lo = mid
        else:
            hi = mid
    return hi


def power_zeta_psi_mpmath(alpha: float, h: float, dps: int = 50) -> float:
    """psi(h) of power_zeta(alpha), from mpmath.

    G = 1 - (1-t) S with S(t) = sum_m (m+2)^-alpha t^m, the Lerch
    transcendent Phi(t, alpha, 2), so psi(h) = G(1-h) - (1-h) is
    h (1 - S(1-h)), which nothing cancels at dps digits.
    """
    import mpmath as mp

    with mp.workdps(dps):
        h = mp.mpf(h)
        return float(h * (1 - mp.lerchphi(1 - h, alpha, 2)))


def power_zeta_G_mpmath(alpha: float, t: float, orders, dps: int = 40) -> list[float]:
    """G^(n)(t) of power_zeta(alpha) for each n in orders, from mpmath.

    G(t) = 1/t + (t - 1) Li_alpha(t) / t^2.  With theta = t d/dt,
    theta Li_s = Li_(s-1), so t^n G^(n) = sum_j s(n, j) theta^j G (signed
    Stirling numbers of the first kind) needs only Li_(alpha-j)(t) for
    j <= n.  The cancellation that costs doubles their digits is absorbed
    by working at dps digits.  It grows like n! 2^n, so this serves the
    low orders eval_G answers below t = 1.
    """
    import mpmath as mp

    orders = list(orders)
    with mp.workdps(dps):
        a, x = mp.mpf(alpha), mp.mpf(t)
        if x == 0:  # G^(n)(0) = n! a_n
            return [float(mp.factorial(n) * ((n + 1) ** -a - (n + 2) ** -a)) for n in orders]
        li = [mp.polylog(a - j, x) for j in range(max(orders) + 1)]

        def theta_G(j):  # theta^j of 1/t + (1/t - 1/t^2) Li_alpha
            s1 = sum(mp.binomial(j, i) * (-1) ** (j - i) * li[i] for i in range(j + 1))
            s2 = sum(mp.binomial(j, i) * (-2) ** (j - i) * li[i] for i in range(j + 1))
            return (-1) ** j / x + s1 / x - s2 / x ** 2

        stirling = [[1]]  # s(n, j), row by row
        for n in range(1, max(orders) + 1):
            prev = stirling[-1] + [0]
            stirling.append([(prev[j - 1] if j else 0) - (n - 1) * prev[j] for j in range(n + 1)])
        return [float(sum(stirling[n][j] * theta_G(j) for j in range(n + 1)) / x ** n)
                for n in orders]


def moment_tail_bound(model, k: int, n_max: int) -> float:
    """The tail certificate of E(tau^k) in exact rationals.

    F(R1) (n_max + 1)^k r^(n_max + 1) / (1 - r ((n_max + 1)/n_max)^k) with
    r = 1/R1, from the library's decay parameters; +inf past the doubles.
    """
    from repairchain.decay import decay_params

    dp = decay_params(model)
    r = 1 / Fraction(dp.R1)
    ratio = r * Fraction(n_max + 1, n_max) ** k
    assert ratio < 1
    bound = Fraction(dp.F_at_R1) * (n_max + 1) ** k * r ** (n_max + 1) / (1 - ratio)
    try:
        return float(bound)
    except OverflowError:
        return math.inf


def zeta_by_summation(s: float, terms: int = 200_000) -> float:
    """Riemann zeta via direct partial sum plus an Euler-Maclaurin tail."""
    head = math.fsum(k**-s for k in range(1, terms + 1))
    tail = terms ** (1.0 - s) / (s - 1.0) - 0.5 * terms**-s + s * terms ** (-s - 1.0) / 12.0
    return head + tail


def half_stable_coeffs(count: int) -> np.ndarray:
    """The half_stable table by the concatenate-and-cumprod expression
    that the library's in-place build replaced; the bytes must agree."""
    out = np.zeros(count, dtype=float)
    out[0] = 2.0 / 3.0
    if count > 2:
        out[2] = 0.25
    if count > 3:
        n = np.arange(3, count, dtype=float)
        ratios = (2.0 * n - 3.0) / (2.0 * (n + 1.0))
        out[3:] = (1.0 / 24.0) * np.concatenate(([1.0], np.cumprod(ratios[:-1])))
    return out


def eager_table(model) -> tuple[np.ndarray, float]:
    """(coeffs, tail) as the constructors built them eagerly, by the same
    expressions, before tables were built on first use: the table of
    ``model.coeffs`` and a certified bound on the mass after it."""
    from repairchain.model import eval_G

    if model.family == "explicit":  # the stored list is the whole law
        return np.asarray(model.a, dtype=float), 0.0
    if model.family == "geometric":
        p, q = model.p, 1.0 - model.p
        n_terms = int(math.ceil(math.log(1e-12) / math.log(q)))
        return p * q ** np.arange(n_terms, dtype=float), q ** n_terms
    if model.family == "half_stable":
        coeffs = half_stable_coeffs(1 << 21)
        return coeffs, (2.0 / 3.0) * float(coeffs[-1]) * (coeffs.size - 1)
    if model.family == "power_zeta":
        alpha = model.alpha
        n_terms = int(math.ceil(10.0 ** (12.0 / alpha)))
        return power_zeta_jumps(alpha, n_terms), float(n_terms + 1) ** (-alpha)
    base, x = model.base, model.tilt_x
    coeffs, tail = eager_table(base)
    gx = eval_G(base, x, 0)
    n = np.arange(coeffs.size, dtype=float)
    return (coeffs * np.power(x, n) / gx,
            max(float(tail * x ** coeffs.size / gx), 5e-324))


def tilt_jumps(jumps, x: float) -> np.ndarray:
    """Reweighted law a_n x^n / G(x) straight from the definition."""
    a = np.asarray(jumps, dtype=float)
    scaled = a * x ** np.arange(a.size)
    return scaled / math.fsum(scaled)


# ---------------------------------------------------------------------------
# finiteness verdicts by the branch table that one threshold comparison
# replaced: each regime answered by its own rule, with the jump-tail and
# critical exponents written per family rather than read from the record

def _jump_tail(model) -> float:
    return {"half_stable": 1.5, "power_zeta": model.alpha}.get(model.family, math.inf)


def branch_table_label(model, alpha: float, r1_weighted: bool = False) -> str:
    """Label of E(tau^alpha), or of E(R1^tau tau^alpha), branch by branch."""
    from repairchain import CaseLabel, ChainClass, classify, decay_params, tilt_to_critical

    if r1_weighted:
        label = decay_params(model).case_label
        if label is CaseLabel.CRITICAL_RADIUS_ONE:
            return branch_table_label(model, alpha)
        if label in (CaseLabel.TRANSIENT_TILT, CaseLabel.INTERIOR_CRITICAL):
            return branch_table_label(tilt_to_critical(model), alpha)
        return "Unknown"
    cls = classify(model)
    if cls is ChainClass.NULL_RECURRENT:
        if alpha >= 1.0:
            return "Infinite"
        gamma = 2.0 / 3.0 if model.family == "half_stable" else 0.5
        return "Finite" if alpha < gamma else "Infinite"
    if cls is ChainClass.TRANSIENT or alpha <= 1.0:
        return "Finite"
    if alpha >= _jump_tail(model):
        return "Infinite"
    # below a finite jump-tail exponent, or a radius above 1, where every
    # derivative of G at 1 is finite
    return "Finite"


def branch_table_exit_label(model, k: int, alpha: float | None = None) -> str:
    """Label of E(R0^L L^(k + alpha)) for a transient law, branch by branch."""
    from repairchain import tilt_to_critical

    exponent = k + (alpha or 0.0)
    if exponent == 0.0:
        return "Finite"
    if exponent >= 1.0:
        return "Infinite"
    return branch_table_label(tilt_to_critical(model), exponent)


# ---------------------------------------------------------------------------
# step-by-step Monte Carlo: the samplers as they stood before block
# stepping and the guide-table draw, kept as the reference those are
# gated against (same counter-based draws, one numpy step per time step)

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_CHUNK = 1 << 16


def _mix64(z: np.ndarray) -> np.ndarray:
    z = z.copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _sample_keys(seed: int, start: int, stop: int) -> np.ndarray:
    idx = np.arange(start + 1, stop + 1, dtype=np.uint64)
    return _mix64(np.uint64(seed & _MASK) + idx * np.uint64(_GOLDEN))


def _uniforms(keys: np.ndarray, step: int) -> np.ndarray:
    bits = _mix64(keys + np.uint64((step * _GOLDEN) & _MASK))
    return (bits >> np.uint64(11)) * 2.0 ** -53


def _stepwise_report(worker, samples: int, size: int) -> tuple[dict, int]:
    counts = np.zeros(size, dtype=np.int64)
    extra = 0
    for lo in range(0, samples, _CHUNK):
        chunk_counts, chunk_extra = worker((lo, min(lo + _CHUNK, samples)))
        counts += chunk_counts
        extra += chunk_extra
    bins = np.nonzero(counts)[0]
    return dict(zip(bins.tolist(), counts[bins].tolist())), extra


def _conditioned_cum(model) -> tuple[np.ndarray, float]:
    """Cumulative a_j r^(j-1) over ``model.coeffs``, r = F(1): the chain conditioned to return.

    r is 1 on a recurrent law, which leaves the law itself.
    """
    r = eval_F(model, 1.0)
    weighted = model.coeffs / np.append(r, np.ones(model.coeffs.size - 1))
    weighted[1:] *= r ** np.arange(model.coeffs.size - 1.0)
    return np.cumsum(weighted), r


def _never_again(keys: np.ndarray, visit: int, r: float) -> np.ndarray:
    """Whether paths at 0 at time `visit` never return: their draw at step -1 - visit."""
    return _uniforms(keys, -1 - visit) >= r


def stepwise_sample_tau(model, seed: int, samples: int, cap: int):
    """sim.sample_tau one time step at a time, on one thread."""
    cum, r = _conditioned_cum(model)
    top = cum.size - 1

    def worker(span):
        lo, hi = span
        keys = _sample_keys(seed, lo, hi)
        keys = keys[~_never_again(keys, 0, r)]
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
        return counts, (hi - lo) - int(counts.sum())

    hist, censored = _stepwise_report(worker, samples, cap + 1)
    return SimReport(samples=samples, seed=int(seed), tau_hist=hist,
                     L_hist={}, censored=censored, cap=cap)


def stepwise_sample_last_exit(model, seed: int, samples: int, horizon: int):
    """sim.sample_last_exit with its searchsorted draw, on one thread."""
    cum, r = _conditioned_cum(model)
    top = cum.size - 1
    flag_from = horizon - horizon // 10

    def worker(span):
        lo, hi = span
        keys = _sample_keys(seed, lo, hi)
        state = np.zeros(keys.size, dtype=np.int64)
        last_zero = np.zeros(keys.size, dtype=np.int64)
        counts = np.zeros(horizon + 1, dtype=np.int64)
        flagged = 0
        for now in range(horizon + 1):
            if now:
                u = _uniforms(keys, now - 1)
                jump = np.minimum(np.searchsorted(cum, u, side="right"), top)
                state = np.maximum(state - 1, 0) + jump
            at_zero = state == 0
            last_zero[at_zero] = now
            # settled: never back after this visit, higher than the steps
            # left, or still on at the horizon
            done = state > horizon - now
            done[at_zero] = _never_again(keys[at_zero], now, r)
            if now == horizon:
                done[:] = True
            settled = last_zero[done]
            counts += np.bincount(settled, minlength=horizon + 1)
            flagged += int(np.count_nonzero(settled > flag_from))
            keep = ~done
            keys = keys[keep]
            state = state[keep]
            last_zero = last_zero[keep]
            if keys.size == 0:
                break
        return counts, flagged

    hist, censored = _stepwise_report(worker, samples, horizon + 1)
    return SimReport(samples=samples, seed=int(seed), tau_hist={},
                     L_hist=hist, censored=censored, horizon=horizon)

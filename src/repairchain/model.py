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
                    positive recurrent with mu = zeta(alpha) - 1, R = 1

A fifth internal kind, ``tilted``, is produced by the decay module: the
exponential reweighting a_j x^j / G(x) of a base law.  Models are
immutable once built and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import InvalidSpec, OutOfRadius

# Chains with |mu - 1| below this tolerance are treated as critical.
CRITICAL_TOL = 1e-12

# Certified tail-mass target for cached coefficient arrays.
_TAIL_TARGET = 1e-12

# The half_stable tail decays like n^{-3/2}; reaching 1e-12 would need
# ~3e7 coefficients.  Cap the cache and keep the certified bound that
# the cap actually achieves (about 6e-11, still inside the 1e-10 budget
# on the cached sum).
_HALF_STABLE_CAP = 1 << 21

# ceiling on a geometric coefficient table, in bytes (p below about
# 1.6e-6 would need more to reach the tail target)
GEOMETRIC_TABLE_BUDGET = 1 << 27

_FAMILIES = ("explicit", "geometric", "half_stable", "power_zeta")

# Euler-Maclaurin zeta: head sum below _ZETA_HEAD, then B_2j / (2j)! for
# the Bernoulli numbers B_2 .. B_10
_ZETA_HEAD = 16
_ZETA_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)


class ChainClass(str, Enum):
    POSITIVE_RECURRENT = "positive_recurrent"
    NULL_RECURRENT = "null_recurrent"
    TRANSIENT = "transient"


@dataclass(frozen=True, eq=False)
class JumpModel:
    """Immutable jump law plus precomputed summaries.

    ``coeffs`` holds a_0 .. a_{N} with certified tail mass at most
    ``tail_bound``.  ``mu`` and ``radius`` are exact where the family
    allows (they always do for the bundled families).
    """

    family: str
    coeffs: np.ndarray
    mu: float
    radius: float
    tail_bound: float
    p: float | None = None          # geometric parameter
    alpha: float | None = None      # power_zeta exponent
    base: "JumpModel | None" = None  # tilted: the original law
    tilt_x: float | None = None      # tilted: the reweighting point

    @property
    def a0(self) -> float:
        return float(self.coeffs[0])

    def __repr__(self) -> str:  # keep reprs short, the cache can be huge
        extra = ""
        if self.p is not None:
            extra = f", p={self.p}"
        if self.alpha is not None:
            extra = f", alpha={self.alpha}"
        if self.tilt_x is not None:
            extra = f", tilt_x={self.tilt_x}"
        return f"JumpModel({self.family}{extra}, mu={self.mu:.6g})"


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# family constructors


def explicit(a) -> JumpModel:
    """Model from a finite coefficient list a_0 .. a_m."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidSpec("explicit law needs a one-dimensional, non-empty list")
    if not np.all(np.isfinite(arr)):
        raise InvalidSpec("explicit law has non-finite entries")
    if np.any(arr < 0):
        raise InvalidSpec("explicit law has negative entries")
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > 1e-12:
        raise InvalidSpec(f"explicit law sums to {total!r}, not 1")
    if arr[0] <= 0.0:
        raise InvalidSpec("explicit law needs a_0 > 0")
    a1 = float(arr[1]) if arr.size > 1 else 0.0
    if float(arr[0]) + a1 >= 1.0:
        raise InvalidSpec("explicit law needs a_0 + a_1 < 1")
    while arr.size > 1 and arr[-1] == 0.0:  # trailing zeros carry no mass
        arr = arr[:-1]
    mu = math.fsum((n * float(c) for n, c in enumerate(arr)))
    return JumpModel(
        family="explicit",
        coeffs=_freeze(arr),
        mu=mu,
        radius=math.inf,
        tail_bound=0.0,
    )


def geometric(p: float) -> JumpModel:
    """Model with a_n = (1-p)^n p."""
    p = float(p)
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise InvalidSpec(f"geometric parameter must lie in (0,1), got {p!r}")
    q = 1.0 - p
    n_terms = int(math.ceil(math.log(_TAIL_TARGET) / math.log(q)))
    if n_terms * 8 > GEOMETRIC_TABLE_BUDGET:
        raise InvalidSpec(f"geometric({p!r}) needs {n_terms} coefficients, above the "
                          f"{GEOMETRIC_TABLE_BUDGET >> 20} MiB table budget")
    coeffs = p * q ** np.arange(n_terms, dtype=float)
    return JumpModel(
        family="geometric",
        coeffs=_freeze(coeffs),
        mu=q / p,
        radius=1.0 / q,
        tail_bound=q ** n_terms,
        p=p,
    )


@lru_cache(maxsize=1)
def _half_stable_cache() -> tuple[np.ndarray, float]:
    coeffs = _half_stable_coeffs(_HALF_STABLE_CAP)
    n = coeffs.size
    # a_k * k^{5/2} decreases, so the tail after the cache is at most
    # a_{n-1} (n-1)^{5/2} * integral_{n-1}^inf x^{-5/2} dx = (2/3) a_{n-1} (n-1)
    tail = (2.0 / 3.0) * float(coeffs[-1]) * (n - 1)
    return _freeze(coeffs), tail


def _half_stable_coeffs(count: int) -> np.ndarray:
    out = np.zeros(count, dtype=float)
    out[0] = 2.0 / 3.0
    if count > 2:
        out[2] = 0.25
    if count > 3:
        n = np.arange(3, count, dtype=float)
        ratios = (2.0 * n - 3.0) / (2.0 * (n + 1.0))
        out[3:] = (1.0 / 24.0) * np.concatenate(([1.0], np.cumprod(ratios[:-1])))
    return out


def half_stable() -> JumpModel:
    """Critical model with G(t) = t + (2/3)(1-t)^{3/2}."""
    coeffs, tail = _half_stable_cache()
    return JumpModel(
        family="half_stable",
        coeffs=coeffs,
        mu=1.0,
        radius=1.0,
        tail_bound=tail,
    )


def _zeta(s: float) -> float:
    """Riemann zeta for real s > 1 by Euler-Maclaurin summation.

    Exact terms k^-s for k < 16, the integral and half-term at 16, then
    five Bernoulli corrections; the first omitted one stays below 8e-17
    for every s > 1, under half an ulp of zeta(s) >= 1.
    """
    n = _ZETA_HEAD
    terms = [k ** -s for k in range(1, n)] + [n ** (1.0 - s) / (s - 1.0), 0.5 * n ** -s]
    rising = s * n ** (-s - 1.0)  # s (s+1) .. (s+2j-2) n^(-s-2j+1) at j = 1
    for j, c in enumerate(_ZETA_BERNOULLI):
        terms.append(c * rising)
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2) / (n * n)
    return math.fsum(terms)


@lru_cache(maxsize=16)
def _power_zeta_cache(alpha: float) -> tuple[np.ndarray, float]:
    n_terms = int(math.ceil(10.0 ** (12.0 / alpha)))
    coeffs = _power_zeta_coeffs(alpha, n_terms)
    tail = float(n_terms + 1) ** (-alpha)  # telescoping, exact
    return _freeze(coeffs), tail


def _power_zeta_coeffs(alpha: float, count: int) -> np.ndarray:
    k = np.arange(count, dtype=float)
    return (k + 1.0) ** (-alpha) - (k + 2.0) ** (-alpha)


def power_zeta(alpha: float) -> JumpModel:
    """Heavy-tailed model a_k = (k+1)^{-alpha} - (k+2)^{-alpha}, alpha > 2."""
    alpha = float(alpha)
    if not (alpha > 2.0) or not math.isfinite(alpha):
        raise InvalidSpec(f"power_zeta exponent must exceed 2, got {alpha!r}")
    coeffs, tail = _power_zeta_cache(alpha)
    return JumpModel(
        family="power_zeta",
        coeffs=coeffs,
        mu=_zeta(alpha) - 1.0,
        radius=1.0,
        tail_bound=tail,
        alpha=alpha,
    )


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
    if fam not in _FAMILIES:
        raise InvalidSpec(f"unknown family {fam!r}, expected one of {_FAMILIES}")
    fields = {"explicit": {"a"}, "geometric": {"p"}, "half_stable": set(),
              "power_zeta": {"alpha"}}[fam]
    extra = set(spec) - fields - {"family"}
    if extra:
        raise InvalidSpec(f"unexpected fields for family {fam!r}: {sorted(extra)}")
    missing = fields - set(spec)
    if missing:
        raise InvalidSpec(f"missing fields for family {fam!r}: {sorted(missing)}")
    if fam == "explicit":
        return explicit(spec["a"])
    if fam == "geometric":
        try:
            return geometric(float(spec["p"]))
        except (TypeError, ValueError) as exc:
            raise InvalidSpec(f"bad geometric parameter: {spec['p']!r}") from exc
    if fam == "half_stable":
        return half_stable()
    try:
        return power_zeta(float(spec["alpha"]))
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"bad power_zeta exponent: {spec['alpha']!r}") from exc


# ---------------------------------------------------------------------------
# exact coefficient access (independent of the cached tail target)


def exact_coefficients(model: JumpModel, count: int) -> np.ndarray:
    """First ``count`` jump probabilities a_0 .. a_{count-1}, exact per family.

    Unlike ``model.coeffs`` this is not truncated at a tail-mass target:
    every requested index is filled from the family formula.  Convolution
    work that must be exact termwise (the return-time law up to horizon N
    only ever sees jumps < N) uses this accessor.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if model.family == "explicit":
        out = np.zeros(count, dtype=float)
        m = min(count, model.coeffs.size)
        out[:m] = model.coeffs[:m]
        return out
    if model.family == "geometric":
        q = 1.0 - model.p
        return model.p * q ** np.arange(count, dtype=float)
    if model.family == "half_stable":
        return _half_stable_coeffs(count)
    if model.family == "power_zeta":
        return _power_zeta_coeffs(model.alpha, count)
    if model.family == "tilted":
        base = exact_coefficients(model.base, count)
        x = model.tilt_x
        return base * x ** np.arange(count, dtype=float) / eval_G(model.base, x)
    raise InvalidSpec(f"unknown family {model.family!r}")


# ---------------------------------------------------------------------------
# generating-function evaluation


def _falling_factorial(n: np.ndarray, order: int) -> np.ndarray:
    w = np.ones_like(n)
    for j in range(order):
        w = w * (n - j)
    return w


def eval_G_by_series(model: JumpModel, t: float, order: int = 0) -> float:
    """Sum the cached coefficient series for G^(order)(t).

    Provided as the summation route for families whose closed form lives
    in :func:`eval_G`; the two must agree on the interior of the domain.
    """
    a = model.coeffs
    n = np.arange(a.size, dtype=float)
    w = _falling_factorial(n, order)
    keep = n >= order
    powers = np.power(float(t), n[keep] - order)
    return float(np.dot(a[keep] * w[keep], powers))


def _geometric_G(model: JumpModel, t: float, order: int) -> float:
    p = model.p
    q = 1.0 - p
    if q * t >= 1.0:
        return math.inf
    return p * math.factorial(order) * q ** order / (1.0 - q * t) ** (order + 1)


def _half_stable_G(t: float, order: int) -> float:
    if t > 1.0:
        return math.inf
    if order == 0:
        return t + (2.0 / 3.0) * (1.0 - t) ** 1.5
    if order == 1:
        return 1.0 - math.sqrt(1.0 - t)
    if t == 1.0:
        return math.inf
    # d^k/dt^k of (2/3)(1-t)^{3/2}
    coef = 2.0 / 3.0
    for j in range(order):
        coef *= 1.5 - j
    coef *= (-1.0) ** order
    return coef * (1.0 - t) ** (1.5 - order)


def _power_zeta_G_at_one(alpha: float, order: int) -> float:
    if order == 0:
        return 1.0
    if order >= alpha:
        return math.inf
    # sum_n n(n-1)..(n-k+1) a_n telescopes to
    # k * sum_{j>=2} (j-2)(j-3)..(j-k) j^{-alpha}; expand the falling
    # polynomial in powers of j and evaluate with the zeta function.
    roots = np.arange(2, order + 1, dtype=float)
    poly = np.polynomial.polynomial.polyfromroots(roots) if roots.size else np.array([1.0])
    total = 0.0
    for i, c in enumerate(poly):
        total += float(c) * (_zeta(alpha - i) - 1.0)
    return order * total


def _explicit_G(model: JumpModel, t: float, order: int) -> float:
    c = model.coeffs
    d = np.polynomial.polynomial.polyder(c, order) if order else c
    if d.size == 0:
        return 0.0
    return float(np.polynomial.polynomial.polyval(t, d))


def eval_G(model: JumpModel, t: float, order: int = 0) -> float:
    """G^(order)(t) as an extended real; +inf outside the radius.

    Closed forms carry the geometric and half_stable families (and tilts
    reduce to their base); explicit laws are polynomial; power_zeta sums
    the cached series for t < 1 and uses an exact zeta identity at t = 1.
    """
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"evaluation point must be a finite nonnegative real, got {t!r}")
    order = int(order)
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if model.family == "geometric":
        return _geometric_G(model, t, order)
    if model.family == "half_stable":
        return _half_stable_G(t, order)
    if model.family == "explicit":
        return _explicit_G(model, t, order)
    if model.family == "power_zeta":
        if t > 1.0:
            return math.inf
        if t == 1.0:
            return _power_zeta_G_at_one(model.alpha, order)
        return eval_G_by_series(model, t, order)
    if model.family == "tilted":
        x = model.tilt_x
        inner = eval_G(model.base, x * t, order)
        if not math.isfinite(inner):
            return math.inf
        return x ** order * inner / eval_G(model.base, x, 0)
    raise InvalidSpec(f"unknown family {model.family!r}")


def make_tilted(base: JumpModel, x: float) -> JumpModel:
    """Exponentially reweighted law a_j x^j / G(x) as a JumpModel.

    The decay module's ``tilt`` wraps this with family-specific
    shortcuts.  The base must have G(x) < inf (the caller checks);
    composed points multiply, and x = 1 gives back the base law.
    """
    if base.family == "tilted":  # compose reweightings
        return make_tilted(base.base, base.tilt_x * x)
    if x == 1.0:
        return base
    gx = eval_G(base, x, 0)
    if not math.isfinite(gx):
        raise OutOfRadius(f"G({x!r}) diverges for family {base.family!r}")
    n = np.arange(base.coeffs.size, dtype=float)
    coeffs = base.coeffs * np.power(x, n) / gx
    mu = x * eval_G(base, x, 1) / gx
    m = base.coeffs.size
    if base.family == "explicit":
        tail = 0.0
    elif x <= 1.0:
        tail = float(base.tail_bound * x ** m / gx)
    elif base.family == "geometric":
        qx = (1.0 - base.p) * x  # < 1 here, else gx would have diverged
        tail = float(base.p * qx ** m / ((1.0 - qx) * gx))
    else:
        # radius-1 families never reach x > 1 without diverging above
        raise OutOfRadius(f"x = {x!r} exceeds the radius for family {base.family!r}")
    return JumpModel(
        family="tilted",
        coeffs=_freeze(coeffs),
        mu=float(mu),
        radius=base.radius / x,
        tail_bound=max(tail, 5e-324),
        base=base,
        tilt_x=float(x),
    )


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
    then misses 3/2 by one ulp.  Each branch subtracts inside the
    family's own exact parameters instead.
    """
    if model.family == "geometric":
        return (2.0 * model.p - 1.0) / model.p
    if model.family == "power_zeta":
        return 2.0 - _zeta(model.alpha)
    if model.family == "half_stable":
        return 0.0
    if model.family == "tilted":
        x = model.tilt_x
        gx = eval_G(model.base, x)
        return (gx - x * eval_G(model.base, x, 1)) / gx
    a = model.coeffs
    return math.fsum(float(a[n]) * (1 - n) for n in range(len(a)))


def derivative_singularity_exponent(model: JumpModel) -> float | None:
    """Exponent beta with 1 - G'(t) ~ (1-t)^beta as t -> 1, when known.

    Only the half_stable family carries a genuinely fractional
    singularity (beta = 1/2).  Families with G''(1) < inf effectively
    have beta = 1 and are handled analytically elsewhere; None means "no
    special knowledge".
    """
    if model.family == "half_stable":
        return 0.5
    return None

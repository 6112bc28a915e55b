"""Output checks for benchmark jobs, independent of the package under test.

Each check returns None when the output is right and a short reason string
when it is not; a job with a reason counts as failed.  References are
computed here from closed forms or from the family definitions, never by
calling repairchain.  Tolerances sit well above the errors the package
showed when this benchmark was introduced (at most 9e-12 relative for
geometric f_n at N = 2048, most of it in the log-gamma reference itself)
and well below the corruptions the self-test plants.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

F_RTOL = 1e-9        # pmf entries against closed forms
G_RTOL = 1e-11       # generating functions against the reference series
ROOT_RTOL = 1e-10    # decay parameters and transform roots
GAMMA_TOL = 1e-6     # fitted exponent against the reference regression
Z_SIGMAS = 6.0       # Monte Carlo frequency against its exact probability


# ---------------------------------------------------------------------------
# reference functions


def _zeta(s: float) -> float:
    """Riemann zeta for real s > 1 by Euler-Maclaurin at N = 10."""
    n = 10
    head = math.fsum(k ** -s for k in range(1, n))
    tail = n ** (1 - s) / (s - 1) + 0.5 * n ** -s
    bern = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)
    rise = s
    for j, b in enumerate(bern, start=1):
        tail += b / math.factorial(2 * j) * rise * n ** (-s - 2 * j + 1)
        rise *= (s + 2 * j - 1) * (s + 2 * j)
    return head + tail


def a0(spec: dict) -> float:
    fam = spec["family"]
    if fam == "geometric":
        return spec["p"]
    if fam == "half_stable":
        return 2.0 / 3.0
    if fam == "power_zeta":
        return 1.0 - 2.0 ** -spec["alpha"]
    return spec["a"][0]


def mean_jump(spec: dict) -> float:
    fam = spec["family"]
    if fam == "geometric":
        return (1.0 - spec["p"]) / spec["p"]
    if fam == "half_stable":
        return 1.0
    if fam == "power_zeta":
        return _zeta(spec["alpha"]) - 1.0
    return math.fsum(n * a for n, a in enumerate(spec["a"]))


def recurrence_class(spec: dict) -> str:
    mu = mean_jump(spec)
    if mu == 1.0:  # exact for geometric(1/2), half_stable and dyadic laws
        return "null_recurrent"
    return "positive_recurrent" if mu < 1.0 else "transient"


def gen_G(spec: dict, t: float, order: int = 0) -> float:
    """order-th derivative of the jump generating function at t >= 0."""
    fam = spec["family"]
    if fam == "geometric":
        p = spec["p"]
        q = 1.0 - p
        if q * t >= 1.0:
            return math.inf
        return p * math.factorial(order) * q ** order / (1.0 - q * t) ** (order + 1)
    if fam == "half_stable":
        if order == 0:
            return t + (2.0 / 3.0) * (1.0 - t) ** 1.5
        c = 2.0 / 3.0
        for j in range(order):
            c *= -(1.5 - j)
        return (1.0 if order == 1 else 0.0) + c * (1.0 - t) ** (1.5 - order)
    if fam == "explicit":
        a = np.asarray(spec["a"], dtype=float)
        n = np.arange(a.size, dtype=float)
        w = np.ones_like(n)
        for j in range(order):
            w *= n - j
        keep = n >= order
        return float(np.sum(a[keep] * w[keep] * t ** (n[keep] - order)))
    # power_zeta, t < 1: the series, cut where t^k is negligible or where
    # the family's own coefficient table ends
    alpha = spec["alpha"]
    size = int(math.ceil(10.0 ** (12.0 / alpha)))
    if t > 0.0:
        size = min(size, int(60.0 / -math.log(t)) + 64)
    k = np.arange(size, dtype=float)
    a = (k + 1.0) ** -alpha - (k + 2.0) ** -alpha
    w = np.ones_like(k)
    for j in range(order):
        w *= k - j
    keep = k >= order
    return float(np.sum(a[keep] * w[keep] * t ** (k[keep] - order)))


def _close(x: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(x - ref) <= rtol * abs(ref) + atol


def geometric_f(p: float, n_max: int) -> np.ndarray:
    """Closed form f_n = C(2n-2, n-1) p^n q^(n-1) / n, in log space."""
    n = np.arange(1, n_max + 1)
    lg = np.array([math.lgamma(2 * k - 1) - 2.0 * math.lgamma(k) for k in n])
    logf = lg + n * math.log(p) + (n - 1) * math.log(1.0 - p) - np.log(n)
    return np.concatenate(([0.0], np.exp(logf)))


# ---------------------------------------------------------------------------
# pmf checks


def check_pmf(f, u) -> str | None:
    """0 <= f, u <= 1, f_0 = 0, u_0 = 1, sum f <= 1 and u = 1/(1 - F)."""
    f = np.asarray(f, dtype=float)
    u = np.asarray(u, dtype=float)
    if f.shape != u.shape or f.size < 2:
        return "f and u have mismatched or empty shapes"
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(u))):
        return "non-finite pmf entry"
    if f[0] != 0.0 or u[0] != 1.0:
        return "f_0 must be 0 and u_0 must be 1"
    if np.any(f < 0) or np.any(f > 1) or np.any(u < 0) or np.any(u > 1):
        return "pmf entry outside [0, 1]"
    if math.fsum(f.tolist()) > 1.0 + 1e-12:
        return "f sums above 1"
    renewal = np.convolve(f, u)[:f.size]
    bad = np.abs(renewal[1:] - u[1:]) > 1e-10 * np.maximum(u[1:], renewal[1:]) + 1e-290
    if np.any(bad):
        return f"renewal identity fails at n = {int(np.argmax(bad)) + 1}"
    return None


def check_geometric_f(f, p: float) -> str | None:
    f = np.asarray(f, dtype=float)
    ref = geometric_f(p, f.size - 1)
    rel = np.abs(f[1:] - ref[1:]) / ref[1:]
    if not np.all(rel <= F_RTOL):
        n = int(np.argmax(np.where(np.isfinite(rel), rel, np.inf))) + 1
        return f"f_{n} off the closed form by {rel[n - 1]:.3g} relative"
    return None


def check_return(spec: dict, f, u, return_prob: float) -> str | None:
    why = check_pmf(f, u)
    if why is None and spec.get("family") == "geometric":
        why = check_geometric_f(f, spec["p"])
        p = spec["p"]
        if why is None and not _close(return_prob, min(1.0, p / (1.0 - p)), ROOT_RTOL):
            why = f"return probability {return_prob!r} is not min(1, p/q)"
    return why


def check_exit(spec: dict, q_exit: float, pmf, f=None, u=None) -> str | None:
    """Last-exit law P(L = n) = q u_n, against closed forms for geometric.

    With the occupation pair (f, u) at hand, u is pinned by f through the
    renewal identity and f by its closed form; without it (CLI output) u is
    rebuilt here from the closed-form f.
    """
    pmf = np.asarray(pmf, dtype=float)
    if np.any(pmf < 0) or np.any(pmf > 1) or math.fsum(pmf.tolist()) > 1 + 1e-12:
        return "exit pmf outside [0, 1] or summing above 1"
    if spec.get("family") != "geometric":
        return None if 0.0 < q_exit <= 1.0 else "q_exit outside (0, 1]"
    p = spec["p"]
    q_ref = 1.0 - p / (1.0 - p)
    if not _close(q_exit, q_ref, ROOT_RTOL):
        return f"q_exit {q_exit!r} is not 1 - p/q = {q_ref!r}"
    if u is not None:
        if not np.array_equal(pmf, q_exit * np.asarray(u)):
            return "exit pmf is not q_exit * u"
        return check_return(spec, f, u, p / (1.0 - p))
    f = geometric_f(p, pmf.size - 1)
    u_ref = np.zeros(pmf.size)
    u_ref[0] = 1.0
    for n in range(1, pmf.size):
        u_ref[n] = math.fsum((f[1:n + 1] * u_ref[n - 1::-1]).tolist())
    rel = np.abs(pmf - q_ref * u_ref) / (q_ref * u_ref)
    if not np.all(rel <= F_RTOL):
        n = int(np.argmax(rel))
        return f"P(L = {n}) off the closed form by {rel[n]:.3g} relative"
    return None


# ---------------------------------------------------------------------------
# transform and decay checks


def check_eval_G(spec: dict, ts, order: int, values) -> str | None:
    for t, v in zip(ts, values):
        ref = gen_G(spec, t, order)
        if not _close(v, ref, G_RTOL, 1e-300):
            return f"G^({order})({t}) = {v!r}, reference {ref!r}"
    return None


def check_psi(spec: dict, hs, values) -> str | None:
    for h, v in zip(hs, values):
        ref = gen_G(spec, 1.0 - h) - (1.0 - h)
        if not _close(v, ref, G_RTOL, 1e-13):
            return f"psi({h}) = {v!r}, reference {ref!r}"
    return None


def check_psi_inv(spec: dict, ys, hs) -> str | None:
    for y, h in zip(ys, hs):
        if not 0.0 <= h <= 1.0:
            return f"psi_inv({y}) = {h!r} outside [0, 1]"
        back = gen_G(spec, 1.0 - h) - (1.0 - h)
        if not _close(back, y, 1e-9, 1e-12):
            return f"psi(psi_inv({y})) = {back!r}"
    return None


def check_eval_F(spec: dict, ts, values) -> str | None:
    """Residual F - t G(F), monotonicity, and closed forms for geometric."""
    last = -1.0
    for t, x in zip(ts, values):
        if not (math.isfinite(x) and x >= 0.0):
            return f"F({t}) = {x!r}"
        if x < last:
            return "F is not increasing along the t-grid"
        last = x
        res = x - t * gen_G(spec, x)
        if abs(res) > 1e-11 * max(1.0, x):
            return f"F({t}) = {x!r} leaves residual {res:.3g}"
        if spec["family"] == "geometric":
            p = spec["p"]
            q = 1.0 - p
            ref = (1.0 - math.sqrt(max(0.0, 1.0 - 4.0 * p * q * t))) / (2.0 * q)
            if not _close(x, ref, 1e-7):
                return f"F({t}) = {x!r}, closed form {ref!r}"
    return None


def geometric_decay(p: float) -> dict:
    """x0 = 1/(2q), R1 = 1/(4pq), and the case label, for geometric(p)."""
    q = 1.0 - p
    if p == 0.5:
        return {"x0": 1.0, "R0": 1.0, "R1": 1.0, "F_at_R1": 1.0,
                "case": "CriticalRadiusOne"}
    x0 = 1.0 / (2.0 * q)
    r1 = 1.0 / (4.0 * p * q)
    if p < 0.5:
        return {"x0": x0, "R0": r1, "R1": r1, "F_at_R1": x0, "case": "TransientTilt"}
    return {"x0": x0, "R0": 1.0, "R1": r1, "F_at_R1": x0, "case": "InteriorCritical"}


def check_geometric_decay(p: float, got: dict) -> str | None:
    ref = geometric_decay(p)
    if got.get("case") != ref["case"]:
        return f"case {got.get('case')!r}, expected {ref['case']!r}"
    for key in ("x0", "R0", "R1", "F_at_R1"):
        if not _close(got[key], ref[key], ROOT_RTOL):
            return f"{key} = {got[key]!r}, closed form {ref[key]!r}"
    return None


def check_explicit_decay(spec: dict, got: dict) -> str | None:
    """Tangency xi(x0) = 0 and R1 = x0 / G(x0), with the case by class."""
    mu = mean_jump(spec)
    case = ("CriticalRadiusOne" if mu == 1.0 else
            "TransientTilt" if mu > 1.0 else "InteriorCritical")
    if got.get("case") != case:
        return f"case {got.get('case')!r}, expected {case!r}"
    x0 = got["x0"]
    xi = gen_G(spec, x0) - x0 * gen_G(spec, x0, 1)
    if abs(xi) > 1e-12:
        return f"xi(x0) = {xi:.3g} at x0 = {x0!r}"
    if not _close(got["R1"], x0 / gen_G(spec, x0), ROOT_RTOL):
        return f"R1 = {got['R1']!r} is not x0 / G(x0)"
    return None


def check_critical(mu: float) -> str | None:
    return None if abs(mu - 1.0) <= 1e-9 else f"tilted mean {mu!r} is not 1"


def check_verdict(label: str, finite: bool) -> str | None:
    want = "Finite" if finite else "Infinite"
    return None if label == want else f"verdict {label!r}, expected {want!r}"


def check_gamma(gamma: float, want: float, tol: float) -> str | None:
    return None if abs(gamma - want) <= tol else f"exponent {gamma!r}, expected {want!r}"


def critical_tilt(spec: dict) -> dict:
    """A transient law reweighted at its tangency point, found by bisection."""
    lo, hi = 1e-12, 1.0  # xi(0+) = a_0 > 0 and xi(1) = 1 - mu < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gen_G(spec, mid) - mid * gen_G(spec, mid, 1) > 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    if spec["family"] == "geometric":
        return {"family": "geometric", "p": 1.0 - (1.0 - spec["p"]) * x}
    g = gen_G(spec, x)
    return {"family": "explicit", "a": [a * x ** n / g for n, a in enumerate(spec["a"])]}


def fitted_exponent(spec: dict) -> float:
    """Slope of log psi_inv(s) on log s over 50 points in [1e-6, 1e-2].

    The fitted exponent is a regression, not the analytic value: on laws
    with a heavy third moment it sits several hundredths off 1/2.  The
    check therefore recomputes the same regression from the reference G.
    """
    if "critical_tilt_of" in spec:
        spec = critical_tilt(spec["critical_tilt_of"])
    s = np.geomspace(1e-6, 1e-2, 50)
    inv = []
    for y in s:
        lo, hi = 0.0, 1.0
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            if gen_G(spec, 1.0 - mid) - (1.0 - mid) < y:
                lo = mid
            else:
                hi = mid
        inv.append(0.5 * (lo + hi))
    return float(np.polyfit(np.log(s), np.log(inv), 1)[0])


def check_moment1(spec: dict, value: float) -> str | None:
    ref = 1.0 / (1.0 - mean_jump(spec))
    return None if _close(value, ref, ROOT_RTOL) else f"E(tau) = {value!r}, expected {ref!r}"


# ---------------------------------------------------------------------------
# Monte Carlo checks


def check_tau_report(spec: dict, samples: int, cap: int, hist: dict,
                     censored: int) -> str | None:
    hist = {int(k): int(v) for k, v in hist.items()}
    if sum(hist.values()) + censored != samples:
        return "tau histogram plus censored does not add up to the samples"
    if hist and (min(hist) < 1 or max(hist) > cap):
        return "tau histogram has a bin outside [1, cap]"
    return _frequency(hist.get(1, 0), samples, a0(spec), "tau = 1")


def check_exit_report(spec: dict, samples: int, hist: dict) -> str | None:
    hist = {int(k): int(v) for k, v in hist.items()}
    if sum(hist.values()) != samples:
        return "last-exit histogram does not add up to the samples"
    p = spec["p"]
    return _frequency(hist.get(0, 0), samples, 1.0 - p / (1.0 - p), "L = 0")


def _frequency(count: int, n: int, prob: float, what: str) -> str | None:
    sigma = math.sqrt(prob * (1.0 - prob) / n)
    if abs(count / n - prob) > Z_SIGMAS * sigma:
        return f"frequency of {what} is {count / n:.5f}, exact {prob:.5f}"
    return None


def report_digest(report: dict) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_thread_pair(digest_one: str, digest_two: str) -> str | None:
    return None if digest_one == digest_two else "report differs between 1 and 2 threads"


def check_status(expected: int, got: int) -> str | None:
    return None if expected == got else f"exit status {got}, expected {expected}"


# ---------------------------------------------------------------------------


def self_test() -> list[str]:
    """Plant known faults; return the ones the checks failed to catch."""
    missed = []
    f = geometric_f(0.25, 2048)
    u = np.zeros_like(f)
    u[0] = 1.0
    for n in range(1, f.size):
        u[n] = float(np.dot(f[1:n + 1], u[n - 1::-1]))
    spec = {"family": "geometric", "p": 0.25}
    if check_return(spec, f, u, 1.0 / 3.0) is not None:
        missed.append("clean geometric pmf was rejected")
    bad = f.copy()
    bad[1500] *= 1.0 + 1e-6  # an entry near 1e-190, deep in the tail
    if check_return(spec, bad, u, 1.0 / 3.0) is None:
        missed.append("f_n scaled by 1 + 1e-6 passed")
    if check_status(0, 0) is not None or check_status(0, 3) is None:
        missed.append("wrong exit status passed")
    one = {"samples": 10, "seed": 1, "tau_hist": {"1": 6, "2": 4}, "censored": 0}
    two = {**one, "tau_hist": {"1": 6, "3": 4}}
    if (check_thread_pair(report_digest(one), report_digest(dict(one))) is not None
            or check_thread_pair(report_digest(one), report_digest(two)) is None):
        missed.append("mismatched thread-count histograms passed")
    return missed

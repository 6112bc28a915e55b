"""Last-exit-time analysis for transient chains.

L is the last n with X_n = 0.  It is finite almost surely exactly when
the chain is transient, in which case its law factorizes through the
zero-state occupation sequence:

    P(L = n) = q * u_n,   q = P(tau = infinity) = 1 - F(1).

Weighted moments E(R0^L L^k ...) sit on sharp thresholds: the plain
exponential weight R0^L is always integrable, one extra factor of L
already breaks it, and fractional powers in between are the verdicts on
E(tau^alpha) of the law tilted to the critical line (``tilt_to_critical``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import NotTransient
from .model import ChainClass, JumpModel, classify
from .return_time import (
    ReturnAnalysis,
    Verdict,
    VerdictLabel,
    _critical_tilt_verdict,
    escape_prob,
    return_pmf,
)

if TYPE_CHECKING:
    import numpy as np

# default horizon for exit pmfs; the law decays like R0^(-n), so this is
# far into the certified-tail regime for every bundled transient family
DEFAULT_EXIT_N = 2048


@dataclass(frozen=True)
class ExitAnalysis:
    """Exact last-exit law P(L = n) = q_exit * u_n for n = 0..N."""

    q_exit: float
    pmf: np.ndarray
    occupation: ReturnAnalysis


def exit_pmf(model: JumpModel, n_max: int = DEFAULT_EXIT_N) -> ExitAnalysis:
    """Last-exit law up to n_max; requires a transient chain."""
    if classify(model) is not ChainClass.TRANSIENT:
        raise NotTransient("the last exit time is almost surely infinite "
                           "unless the chain is transient")
    analysis = return_pmf(model, n_max)
    q = escape_prob(model)
    pmf = q * analysis.u
    pmf.setflags(write=False)
    return ExitAnalysis(q_exit=q, pmf=pmf, occupation=analysis)


def exit_weighted_verdict(model: JumpModel, k: int = 0,
                          alpha: float | None = None) -> Verdict:
    """Finiteness of E(R0^L L^k) or, with alpha, E(R0^L L^(k+alpha)).

    The exponential part R0^L alone is always integrable, while any full
    power of L on top of it diverges.  Strictly fractional powers are
    settled by reweighting the law at its tangency point: the resulting
    chain is critical, and the weighted moment is finite exactly when
    that chain's return time has a finite moment of the same fractional
    order.
    """
    if classify(model) is not ChainClass.TRANSIENT:
        raise NotTransient("weighted last-exit moments require a transient chain")
    k = int(k)
    if k < 0:
        raise ValueError("the integer weight power must be nonnegative")
    if alpha is not None:
        alpha = float(alpha)
        if alpha <= 0.0 or not math.isfinite(alpha):
            raise ValueError(f"fractional exponent must be positive, got {alpha!r}")
    exponent = k + (alpha if alpha is not None else 0.0)
    if exponent == 0.0:
        quantity = "E(R0^L)"
        return Verdict(quantity, VerdictLabel.FINITE,
                       "the exit law decays at exactly the rate R0^(-n), "
                       "with a summable polynomial correction")
    quantity = f"E(R0^L L^{exponent:g})"
    if exponent >= 1.0:
        return Verdict(quantity, VerdictLabel.INFINITE,
                       "already E(R0^L L) diverges: the weighted series "
                       "loses its polynomial decay margin at a full power of L")
    return _critical_tilt_verdict(model, exponent, quantity)

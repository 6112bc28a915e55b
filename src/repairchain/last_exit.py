"""Last-exit-time analysis for transient chains.

L is the last n with X_n = 0.  It is finite almost surely exactly when
the chain is transient, in which case its law factorizes through the
zero-state occupation sequence:

    P(L = n) = q * u_n,   q = P(tau = infinity) = 1 - F(1).

A weighted moment E(R0^L L^e) is finite exactly when e is below the
critical exponent gamma of the law tilted to the critical line
(``tilt_to_critical``): the plain weight R0^L (e = 0) is integrable, and
one full factor of L (e = 1 >= gamma) already breaks it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import NotTransient
from .model import ChainClass, JumpModel, _integer, classify
from .return_time import (
    ReturnAnalysis,
    Verdict,
    _as_arrays,
    _critical_tilt_verdict,
    _exponent,
    _horizon,
    _read_only,
    escape_prob,
    return_series,
)

if TYPE_CHECKING:
    from collections.abc import Sequence

# default horizon for exit pmfs; the law decays like R0^(-n), so this is
# far into the certified-tail regime for every bundled transient family
DEFAULT_EXIT_N = 2048


class ExitAnalysis(NamedTuple):
    """Exact last-exit law P(L = n) = q_exit * u_n for n = 0..N."""

    q_exit: float
    pmf: Sequence[float]
    occupation: ReturnAnalysis


def exit_series(model: JumpModel, n_max: int = DEFAULT_EXIT_N) -> ExitAnalysis:
    """``exit_pmf`` as q_exit times ``return_series``'s u, as its engine gives u.

    pmf is a list either way, and the occupation holds lists up to
    _PURE_N (no numpy) and read-only arrays above.  A bad n_max raises
    ValueError first.
    """
    n_max = _horizon(n_max)
    if classify(model) is not ChainClass.TRANSIENT:
        raise NotTransient("the last exit time is almost surely infinite "
                           "unless the chain is transient")
    analysis = return_series(model, n_max)
    q = escape_prob(model)
    return ExitAnalysis(q_exit=q, pmf=[q * v for v in analysis.u], occupation=analysis)


def exit_pmf(model: JumpModel, n_max: int = DEFAULT_EXIT_N) -> ExitAnalysis:
    """Last-exit law up to n_max of a transient chain; a bad n_max raises ValueError first."""
    exit_law = exit_series(model, n_max)
    return exit_law._replace(pmf=_read_only(exit_law.pmf),
                             occupation=_as_arrays(exit_law.occupation))


def exit_weighted_verdict(model: JumpModel, k: int = 0,
                          alpha: float | None = None) -> Verdict:
    """Finiteness of E(R0^L L^k) or, with alpha, E(R0^L L^(k+alpha)).

    Reweighting the law at its tangency point gives a critical chain,
    and the weighted moment of order e = k + alpha is finite exactly when
    that chain's return time has a finite moment of order e: when e is
    below its critical exponent gamma, which lies in [1/2, 1).  So
    E(R0^L) is finite and every full power of L on top of it diverges.
    Bad k or alpha raise ValueError before the law is classified.
    """
    k = _integer(k, 0, "integer weight power")
    exponent = k + (0.0 if alpha is None else _exponent(alpha, "fractional exponent"))
    if classify(model) is not ChainClass.TRANSIENT:
        raise NotTransient("weighted last-exit moments require a transient chain")
    quantity = f"E(R0^L L^{exponent:g})" if exponent else "E(R0^L)"
    return _critical_tilt_verdict(model, exponent, quantity)

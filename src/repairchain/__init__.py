"""Exact and asymptotic return-time and last-exit analysis for the
repair-shop Markov chain X_(k+1) = (X_k - 1)^+ + J.

The Monte Carlo sampler and the two summability diagnostics, which no
verdict reads, are numpy through and through; their names resolve on
first access (PEP 562), so importing the package loads no numpy.
"""

import importlib

from .decay import (
    CaseLabel,
    DecayParams,
    decay_params,
    eta,
    find_x0,
    tilt,
    tilt_to_critical,
    xi,
)
from .errors import (
    InvalidSpec,
    NotNullRecurrent,
    NotPositiveRecurrent,
    NotTransient,
    OutOfRadius,
    RepairChainError,
)
from .last_exit import ExitAnalysis, exit_pmf, exit_weighted_verdict
from .model import (
    ChainClass,
    JumpModel,
    build_model,
    classify,
    eval_G,
    exact_coefficients,
    explicit,
    geometric,
    half_stable,
    mean_gap,
    power_zeta,
)
from .return_time import (
    ExponentEstimate,
    MomentResult,
    ReturnAnalysis,
    Verdict,
    VerdictLabel,
    asymptotic_exponent,
    eval_F,
    psi,
    psi_inv,
    return_pmf,
    tau_alpha_finite,
    tau_moment,
)
_LAZY = {
    "block_ratio_diagnostic": "series_tools",
    "partial_sum_ratio": "series_tools",
    "SimReport": "sim",
    "sample_last_exit": "sim",
    "sample_tau": "sim",
}


def __getattr__(name):
    # not cached in the package namespace: a later wrapper installed on
    # the submodule's function stays visible through the package
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__version__ = "0.1.0"

__all__ = [
    "CaseLabel",
    "ChainClass",
    "DecayParams",
    "ExitAnalysis",
    "ExponentEstimate",
    "InvalidSpec",
    "JumpModel",
    "MomentResult",
    "NotNullRecurrent",
    "NotPositiveRecurrent",
    "NotTransient",
    "OutOfRadius",
    "RepairChainError",
    "ReturnAnalysis",
    "SimReport",
    "Verdict",
    "VerdictLabel",
    "asymptotic_exponent",
    "block_ratio_diagnostic",
    "build_model",
    "classify",
    "decay_params",
    "eta",
    "eval_F",
    "eval_G",
    "exact_coefficients",
    "exit_pmf",
    "exit_weighted_verdict",
    "explicit",
    "find_x0",
    "geometric",
    "half_stable",
    "mean_gap",
    "partial_sum_ratio",
    "power_zeta",
    "psi",
    "psi_inv",
    "return_pmf",
    "sample_last_exit",
    "sample_tau",
    "tau_alpha_finite",
    "tau_moment",
    "tilt",
    "tilt_to_critical",
    "xi",
]

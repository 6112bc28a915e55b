"""Geometric decay parameters of the return-time and last-exit laws.

Everything here revolves around the tangency equation

    xi(x) = G(x) - x G'(x) = 0,

whose root x0 maximizes eta(x) = x / G(x).  The maximal value R1 =
eta(x0) is the convergence radius of the return-time transform, the
value of that transform at its radius is x0 itself, and R0 marks where
the renewal transform 1/(1 - F) first diverges.  Which of these
coincide depends on the recurrence class, captured by ``CaseLabel``:

* ``TransientTilt``      mu > 1: x0 in (0,1), R0 = R1 = eta(x0) > 1
* ``CriticalRadiusOne``  mu = 1, or positive recurrent with G-radius 1:
                         every parameter collapses to 1 (x0 = 1 at
                         criticality, no tangency point otherwise)
* ``InteriorCritical``   mu < 1 with a tangency point in (1, R]:
                         R0 = 1 < R1 = eta(x0)
* ``BoundaryCase``       mu < 1, radius R finite, no tangency point:
                         R1 = eta(R) attained at the boundary

Since xi' = -x G'' < 0, the bracket of x0 is known in advance: (0, 1)
for a transient law, where xi(0) = a_0 > 0, and (1, R] otherwise, where
the sign of xi at the radius R alone says whether the root is inside.
One bisection on the sign of xi, read from the family record (explicit
laws sum a_0 - sum_(j>=2) (j-1) a_j x^j, with no a_1 term to cancel),
then pins x0 to adjacent doubles, unless the law at the radius (the
record's ``boundary``) decides.  Tilting at x0 lands on the critical line.
"""

from __future__ import annotations

import math
import weakref
from enum import Enum
from typing import NamedTuple

from .errors import OutOfRadius
from .model import _FAMILIES, ChainClass, JumpModel, classify, eval_G, tilt  # tilt is re-exported


class CaseLabel(str, Enum):
    TRANSIENT_TILT = "TransientTilt"
    INTERIOR_CRITICAL = "InteriorCritical"
    CRITICAL_RADIUS_ONE = "CriticalRadiusOne"
    BOUNDARY_CASE = "BoundaryCase"


class DecayParams(NamedTuple):
    """Decay summary: tangency point, radii, and transform value.

    ``x0`` is None when no tangency point exists (CriticalRadiusOne with
    mu < 1, and BoundaryCase).  ``F_at_R1`` is the exact value of the
    return-time transform at its own radius R1.
    """

    x0: float | None
    R0: float
    R1: float
    F_at_R1: float
    case_label: CaseLabel


def xi(model: JumpModel, x: float) -> float:
    """Tangency function G(x) - x G'(x), from the family record; its root is x0."""
    return _FAMILIES[model.family].xi(model, x)


def eta(model: JumpModel, x: float) -> float:
    """Rate function x / G(x), maximized at the tangency point; 0 where G diverges."""
    return x / eval_G(model, x, 0)


def _bisect(above, lo: float, hi: float) -> float:
    """Bisect [lo, hi] to adjacent doubles, where above(x) says the root exceeds x; return hi."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if above(mid):
            lo = mid
        else:
            hi = mid


def find_x0(model: JumpModel) -> float | None:
    """The tangency point x0 of ``decay_params``; None when there is none."""
    return decay_params(model).x0


def _interior_tangency(model: JumpModel) -> float | None:
    """Root of xi in (1, R] for a positive recurrent law of radius R > 1.

    xi(1) = 1 - mu > 0 and xi decreases, so the root is inside exactly
    when xi(R) <= 0; None otherwise, where the transform's singularity
    sits on the boundary of the G-domain.  Where G(R) is finite, xi(R)
    has the sign of 1 - mu of the law at R (the record's ``boundary``),
    so that law's class decides, not the rounding of xi(R): it is the
    only source of None.  Every other law of finite radius is geometric,
    whose G' diverges at R, so xi(R) is far below 0.  R is infinite only
    for explicit laws, whose xi is a polynomial with a negative leading
    coefficient, so doubling from 2 ends.
    """
    boundary = _FAMILIES[model.family].boundary(model)
    if boundary is not None:
        return model.radius if classify(boundary) is ChainClass.NULL_RECURRENT else None
    lo, hi = 1.0, model.radius
    if math.isinf(hi):
        hi = 2.0
        while xi(model, hi) > 0.0:
            lo, hi = hi, hi * 2.0
    return _bisect(lambda x: xi(model, x) > 0.0, lo, hi)


# keyed by model identity (JumpModel has eq=False); entries die with the model
_PARAMS: "weakref.WeakKeyDictionary[JumpModel, DecayParams]" = weakref.WeakKeyDictionary()


def decay_params(model: JumpModel) -> DecayParams:
    """Full decay summary for a model; cached for the model's lifetime."""
    params = _PARAMS.get(model)
    if params is None:
        params = _PARAMS[model] = _decay_params(model)
    return params


def _decay_params(model: JumpModel) -> DecayParams:
    cls = classify(model)
    if cls is ChainClass.TRANSIENT:
        # xi(0) = a_0 > 0 and xi(1) = 1 - mu < 0
        x0 = _bisect(lambda x: xi(model, x) > 0.0, 0.0, 1.0)
        r = eta(model, x0)
        return DecayParams(x0=x0, R0=r, R1=r, F_at_R1=x0,
                           case_label=CaseLabel.TRANSIENT_TILT)
    if cls is ChainClass.NULL_RECURRENT:
        return DecayParams(x0=1.0, R0=1.0, R1=1.0, F_at_R1=1.0,
                           case_label=CaseLabel.CRITICAL_RADIUS_ONE)
    # positive recurrent from here on; the renewal transform diverges at 1
    if model.radius <= 1.0:
        return DecayParams(x0=None, R0=1.0, R1=1.0, F_at_R1=1.0,
                           case_label=CaseLabel.CRITICAL_RADIUS_ONE)
    x0 = _interior_tangency(model)
    if x0 is not None:
        return DecayParams(x0=x0, R0=1.0, R1=eta(model, x0), F_at_R1=x0,
                           case_label=CaseLabel.INTERIOR_CRITICAL)
    r = model.radius
    return DecayParams(x0=None, R0=1.0, R1=eta(model, r), F_at_R1=r,
                       case_label=CaseLabel.BOUNDARY_CASE)


def tilt_to_critical(model: JumpModel) -> JumpModel:
    """Reweight at the tangency point, landing on the critical line."""
    x0 = decay_params(model).x0
    if x0 is None:
        raise OutOfRadius("no tangency point exists for this law")
    return tilt(model, x0)

"""Domain types and the constraint geometry of two-state separation.

A probabilistic machine transforms two pure states with overlap ``s`` into
states with overlap ``s_prime``, flagging failure with probability ``q_i``
when fed state ``i``.  Physically realizable protocols are exactly those
whose failure point ``(q1, q2)`` satisfies the unitarity constraint

    sqrt(p1 * p2) * beta + sqrt(q1 * q2) >= s,        p_i = 1 - q_i,

where ``beta = s_prime * kappa`` and ``kappa`` is the overlap of the two
success-flag states.  The boundary curve of this set, its fixed endpoints
``(1, s**2)`` and ``(s**2, 1)``, and the convexity of the enclosed region
are what every solver in this package leans on.

All values are plain floats in [0, 1]; everything here is pure and
immutable, so instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DomainError",
    "NumericError",
    "RESIDUAL_TOL",
    "SQRT_CLAMP_TOL",
    "Priors",
    "OverlapSpec",
    "FailurePoint",
    "FailureBudget",
    "sqrt_clamped",
    "average_failure",
    "unitarity_residual",
    "in_feasible_set",
    "lower_half_q2",
]

# Absolute tolerance on the unitarity residual; all quantities are O(1) so
# double precision leaves ample headroom.
RESIDUAL_TOL = 1e-12

# Square-root arguments within this distance below zero are rounding debris
# from the curve endpoints and are clamped; anything more negative is a bug.
SQRT_CLAMP_TOL = 1e-14


class DomainError(ValueError):
    """An input lies outside the domain an operation is defined on."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge or detected an inconsistency."""


def sqrt_clamped(x: float, tol: float = SQRT_CLAMP_TOL) -> float:
    """sqrt(x) with tiny negative arguments clamped to zero.

    Arguments below ``-tol`` raise :class:`DomainError` instead of being
    silently absorbed.
    """
    if x < -tol:
        raise DomainError(f"square root argument {x!r} below clamp tolerance {-tol!r}")
    return math.sqrt(x) if x > 0.0 else 0.0


def _prob_error(name: str, value: float) -> DomainError:
    return DomainError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True, slots=True, init=False)
class Priors:
    """Prior probabilities (eta1, eta2) of the two input states."""

    eta1: float
    eta2: float

    def __init__(self, eta1: float, eta2: float) -> None:
        eta1 = float(eta1)
        if not 0.0 <= eta1 <= 1.0:
            raise _prob_error("eta1", eta1)
        eta2 = float(eta2)
        if not 0.0 <= eta2 <= 1.0:
            raise _prob_error("eta2", eta2)
        if abs(eta1 + eta2 - 1.0) > 1e-12:
            raise DomainError(f"priors must sum to 1 within 1e-12, got {eta1!r} + {eta2!r}")
        _set_eta1(self, eta1)
        _set_eta2(self, eta2)

    @classmethod
    def of(cls, eta1: float) -> "Priors":
        """Priors with the second component filled in as ``1 - eta1``."""
        eta1 = float(eta1)
        return cls(eta1, 1.0 - eta1)

    @property
    def delta(self) -> float:
        """Prior imbalance eta2 - eta1."""
        return self.eta2 - self.eta1

    def swapped(self) -> "Priors":
        return Priors(self.eta2, self.eta1)

    def normalized(self) -> tuple["Priors", bool]:
        """Equivalent priors with eta1 <= 1/2, plus whether a swap happened.

        The separation problem is exactly symmetric under
        (eta1, eta2, q1, q2) -> (eta2, eta1, q2, q1), so solvers work on the
        normalized instance and mirror their failure point back if needed.
        """
        if self.eta1 > 0.5:
            return self.swapped(), True
        return self, False


@dataclass(frozen=True, slots=True, init=False)
class OverlapSpec:
    """Initial overlap s, target overlap s_prime and success-flag overlap kappa.

    ``beta = s_prime * kappa`` is the quantity the unitarity constraint
    actually depends on; optimal separation uses identical flags
    (``kappa = 1``) while unambiguous discrimination uses orthogonal ones
    (``kappa = 0``).
    """

    s: float
    s_prime: float
    kappa: float = 1.0

    def __init__(self, s: float, s_prime: float, kappa: float = 1.0) -> None:
        s = float(s)
        if not 0.0 <= s <= 1.0:
            raise _prob_error("s", s)
        s_prime = float(s_prime)
        if not 0.0 <= s_prime <= 1.0:
            raise _prob_error("s_prime", s_prime)
        kappa = float(kappa)
        if not 0.0 <= kappa <= 1.0:
            raise _prob_error("kappa", kappa)
        if s_prime > s:
            raise DomainError(
                f"s_prime must not exceed s, got s_prime={s_prime!r} > s={s!r}"
            )
        _set_s(self, s)
        _set_s_prime(self, s_prime)
        _set_kappa(self, kappa)

    @property
    def beta(self) -> float:
        return self.s_prime * self.kappa


@dataclass(frozen=True, slots=True, init=False)
class FailurePoint:
    """Conditional failure probabilities (q1, q2) of a protocol."""

    q1: float
    q2: float

    def __init__(self, q1: float, q2: float) -> None:
        q1 = float(q1)
        if not 0.0 <= q1 <= 1.0:
            raise _prob_error("q1", q1)
        q2 = float(q2)
        if not 0.0 <= q2 <= 1.0:
            raise _prob_error("q2", q2)
        _set_q1(self, q1)
        _set_q2(self, q2)

    @property
    def p1(self) -> float:
        return 1.0 - self.q1

    @property
    def p2(self) -> float:
        return 1.0 - self.q2

    def swapped(self) -> "FailurePoint":
        return FailurePoint(self.q2, self.q1)


@dataclass(frozen=True, slots=True, init=False)
class FailureBudget:
    """An average failure probability, either achieved (Q) or allowed (Q_max)."""

    q_avg: float

    def __init__(self, q_avg: float) -> None:
        q_avg = float(q_avg)
        if not 0.0 <= q_avg <= 1.0:
            raise _prob_error("q_avg", q_avg)
        _set_q_avg(self, q_avg)

    def __float__(self) -> float:
        return self.q_avg


# The constructors above write each checked field through its slot
# descriptor; the frozen __setattr__ would refuse, and object.__setattr__
# is a slower route to the same descriptor.
_set_eta1, _set_eta2 = Priors.eta1.__set__, Priors.eta2.__set__
_set_s, _set_s_prime = OverlapSpec.s.__set__, OverlapSpec.s_prime.__set__
_set_kappa = OverlapSpec.kappa.__set__
_set_q1, _set_q2 = FailurePoint.q1.__set__, FailurePoint.q2.__set__
_set_q_avg = FailureBudget.q_avg.__set__


def average_failure(pt: FailurePoint, pr: Priors) -> FailureBudget:
    """Prior-weighted average failure probability eta1*q1 + eta2*q2."""
    # The 1e-12 slack in the prior-sum invariant can push the weighted sum
    # a hair outside [0, 1]; the true value never is.
    return FailureBudget(min(max(pr.eta1 * pt.q1 + pr.eta2 * pt.q2, 0.0), 1.0))


def unitarity_residual(pt: FailurePoint, ov: OverlapSpec) -> float:
    """Residual sqrt(p1*p2)*beta + sqrt(q1*q2) - s of the unitarity constraint.

    Zero iff ``pt`` lies on the constraint curve; positive inside the
    feasible region.  Symmetric under q1 <-> q2.
    """
    return (
        sqrt_clamped(pt.p1 * pt.p2) * ov.beta
        + sqrt_clamped(pt.q1 * pt.q2)
        - ov.s
    )


def in_feasible_set(pt: FailurePoint, ov: OverlapSpec, tol: float = RESIDUAL_TOL) -> bool:
    """Whether ``pt`` is realizable by some protocol with the given overlaps."""
    return unitarity_residual(pt, ov) >= -tol


def _off_range_error(q1: float, s: float, beta: float) -> NumericError:
    return NumericError(
        f"no unitarity-curve point at q1={q1!r} (s={s!r}, beta={beta!r}); "
        "q1 is outside the curve's range"
    )


def _underflow_error(q1: float, s: float, beta: float) -> NumericError:
    return NumericError(
        f"unitarity-curve ordinate underflows at q1={q1!r} (s={s!r}, beta={beta!r})"
    )


def lower_half_q2(q1: float, s: float, beta: float) -> float:
    """Smaller root q2 of the unitarity curve at fixed q1, in closed form.

    With ``q2 = sin(phi)**2``, ``a = beta*sqrt(1-q1)`` and ``b = sqrt(q1)``
    the constraint reads ``a*cos(phi) + b*sin(phi) = s``; for
    ``R**2 = a**2 + b**2`` and ``D = R**2 - s**2`` its lower root is
    ``sqrt(q2) = (b*s - a*sqrt(D)) / R**2``.  That difference cancels as
    q2 -> 0 (by up to 1/s as beta -> s), so it is rationalized:

        q2 = (((s-beta)*(s+beta) + beta**2*q1) / (b*s + a*sqrt(D)))**2,

    a sum of nonnegative terms over another, accurate to a few ulps
    relative at any q2 (and clamped to at most 1).  ``D`` is expanded as
    ``q1*(1-beta)*(1+beta) - (s-beta)*(s+beta)`` so that it does not cancel
    as beta -> s.  Only ``+ - * /`` and ``sqrt`` are used, so the oracle's
    numpy twin rounds identically.  There is no beta = 0 shortcut: at
    beta = 0 this is the general formula on the hyperbola q1*q2 = s**2.

    Raises :class:`NumericError` when q1 lies outside the curve's range,
    i.e. ``R < s`` beyond rounding, and when the denominator underflows to
    0 (``s*sqrt(q1)`` below the smallest subnormal).
    """
    n0 = (s - beta) * (s + beta)
    d = q1 * (1.0 - beta) * (1.0 + beta) - n0
    if d < -SQRT_CLAMP_TOL:
        raise _off_range_error(q1, s, beta)
    root = math.sqrt(d) if d > 0.0 else 0.0
    den = math.sqrt(q1) * s + beta * math.sqrt(1.0 - q1) * root
    if den == 0.0:
        raise _underflow_error(q1, s, beta)
    y = (n0 + beta * beta * q1) / den
    # Rounding can lift q2 an ulp or two above 1 when s is that close to 1.
    q2 = y * y
    return q2 if q2 < 1.0 else 1.0

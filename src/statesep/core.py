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
    "EndpointTangencyReport",
    "sqrt_clamped",
    "average_failure",
    "unitarity_residual",
    "in_feasible_set",
    "bisect_lower_half",
    "endpoint_tangency_check",
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


def _check_prob(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise _prob_error(name, value)
    return value


@dataclass(frozen=True)
class Priors:
    """Prior probabilities (eta1, eta2) of the two input states."""

    eta1: float
    eta2: float

    def __post_init__(self):
        object.__setattr__(self, "eta1", _check_prob("eta1", self.eta1))
        object.__setattr__(self, "eta2", _check_prob("eta2", self.eta2))
        if abs(self.eta1 + self.eta2 - 1.0) > 1e-12:
            raise DomainError(
                f"priors must sum to 1 within 1e-12, got {self.eta1!r} + {self.eta2!r}"
            )

    @classmethod
    def of(cls, eta1: float) -> "Priors":
        """Priors with the second component filled in as ``1 - eta1``."""
        return cls(eta1, 1.0 - float(eta1))

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


@dataclass(frozen=True)
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

    def __post_init__(self):
        object.__setattr__(self, "s", _check_prob("s", self.s))
        object.__setattr__(self, "s_prime", _check_prob("s_prime", self.s_prime))
        object.__setattr__(self, "kappa", _check_prob("kappa", self.kappa))
        if self.s_prime > self.s:
            raise DomainError(
                f"s_prime must not exceed s, got s_prime={self.s_prime!r} > s={self.s!r}"
            )

    @property
    def beta(self) -> float:
        return self.s_prime * self.kappa


@dataclass(frozen=True, slots=True)
class FailurePoint:
    """Conditional failure probabilities (q1, q2) of a protocol."""

    q1: float
    q2: float

    def __post_init__(self):
        object.__setattr__(self, "q1", _check_prob("q1", self.q1))
        object.__setattr__(self, "q2", _check_prob("q2", self.q2))

    @property
    def p1(self) -> float:
        return 1.0 - self.q1

    @property
    def p2(self) -> float:
        return 1.0 - self.q2

    def swapped(self) -> "FailurePoint":
        return FailurePoint(self.q2, self.q1)


@dataclass(frozen=True, slots=True)
class FailureBudget:
    """An average failure probability, either achieved (Q) or allowed (Q_max)."""

    q_avg: float

    def __post_init__(self):
        object.__setattr__(self, "q_avg", _check_prob("q_avg", self.q_avg))

    def __float__(self) -> float:
        return self.q_avg


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


def bisect_lower_half(q1: float, s: float, beta: float, iters: int = 80) -> float:
    """Bisection for the smaller root q2 of the unitarity curve at fixed q1.

    At fixed q1 the residual increases in q2 up to
    ``turn = q1/(q1 + beta^2*(1-q1))`` and decreases after, so the
    lower-half branch is the unique root on ``[0, turn]`` when one exists.
    Whether it does is the caller's check: an off-curve q1 just drives the
    bracket to one of its ends.  This is the one bisection of the curve in
    the package; the oracle's vectorized grid is its array twin.
    """
    turn = q1 / (q1 + beta * beta * (1.0 - q1))
    lo, hi = 0.0, turn
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if beta * math.sqrt((1.0 - q1) * (1.0 - mid)) + math.sqrt(q1 * mid) - s < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _lower_half_q2(q1: float, s: float, beta: float, iters: int = 80) -> float:
    """Smaller root q2 of the unitarity curve at fixed q1.

    Raises :class:`NumericError` when q1 lies outside the curve's range,
    i.e. the residual is still negative at the turning point.
    """
    if beta == 0.0:
        return s * s / q1
    turn = q1 / (q1 + beta * beta * (1.0 - q1))
    if beta * math.sqrt((1.0 - q1) * (1.0 - turn)) + math.sqrt(q1 * turn) - s < 0.0:
        raise NumericError(
            f"no unitarity-curve point at q1={q1!r} (s={s!r}, beta={beta!r}); "
            "q1 is outside the curve's range"
        )
    return bisect_lower_half(q1, s, beta, iters)


@dataclass(frozen=True)
class EndpointTangencyReport:
    """Finite-difference slopes of the constraint curve near its endpoints.

    ``slopes_lower`` holds dq2/dq1 estimates approaching (1, s^2) at each
    probe offset in q1, ``slopes_upper`` the estimates approaching (s^2, 1).
    For beta > 0 the former diverge (vertical tangency) and the latter
    vanish (horizontal tangency).
    """

    s: float
    beta: float
    offsets: tuple[float, ...]
    slopes_lower: tuple[float, ...]
    slopes_upper: tuple[float, ...]
    vertical_divergence: bool
    horizontal_flattening: bool


def endpoint_tangency_check(
    ov: OverlapSpec,
    offsets: tuple[float, ...] = (1e-3, 1e-4, 1e-5, 1e-6),
    slope_threshold: float = 1e2,
) -> EndpointTangencyReport:
    """Probe the curve's tangency to q1=1 and q2=1 at its endpoints.

    Estimates dq2/dq1 at q1 = 1 - offset for each offset by central
    differences on the bisected lower-half branch; the mirror image gives
    the slopes near (s^2, 1).  Requires beta > 0: at beta = 0 the curve is
    an arc of the hyperbola q1*q2 = s^2 whose endpoint slopes are finite,
    so there is no tangency to detect.
    """
    if ov.beta == 0.0:
        raise DomainError(
            "endpoint tangency is only defined for beta > 0; "
            "at beta = 0 the curve is the hyperbola q1*q2 = s**2"
        )
    if ov.s == 0.0 or ov.s == 1.0:
        raise DomainError("endpoint tangency requires 0 < s < 1")

    slopes = []
    for delta in offsets:
        a = 1.0 - delta
        h = delta / 4.0
        q2_hi = _lower_half_q2(a + h, ov.s, ov.beta)
        q2_lo = _lower_half_q2(a - h, ov.s, ov.beta)
        slopes.append((q2_hi - q2_lo) / (2.0 * h))
    slopes_lower = tuple(slopes)
    # The curve is symmetric under q1 <-> q2, so the slope near (s^2, 1) is
    # the reciprocal of the slope near (1, s^2).
    slopes_upper = tuple(1.0 / m for m in slopes_lower)

    return EndpointTangencyReport(
        s=ov.s,
        beta=ov.beta,
        offsets=tuple(offsets),
        slopes_lower=slopes_lower,
        slopes_upper=slopes_upper,
        vertical_divergence=abs(slopes_lower[-1]) > slope_threshold,
        horizontal_flattening=abs(slopes_upper[-1]) < 1.0 / slope_threshold,
    )

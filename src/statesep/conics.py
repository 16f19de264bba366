"""Conic picture of the separation problem in mean coordinates.

The change of variables

    u = sqrt(q1 * q2),    v = (q1 + q2) / 2

(geometric and arithmetic means of the failure probabilities) maps the
unitarity constraint to a family of parabolas indexed by the initial
overlap ``s`` and the objective lines eta1*q1 + eta2*q2 = Q to a family of
ellipses indexed by the budget ``Q``.  Optimal protocols are tangency
points between one parabola and one ellipse, which is how the
max-separation and tradeoff solvers find them.

By the AM-GM inequality every image point satisfies u <= v; the envelopes
v = (1 + u^2)/2 (parabolas) and v = u (ellipses) bound the strip where
tangency points can live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DomainError, FailurePoint, FailureBudget, Priors, sqrt_clamped

__all__ = [
    "ConicPoint",
    "PolarAngle",
    "to_conic",
    "from_conic",
    "parabola_v",
    "ellipse_point",
    "conic_slopes",
    "tangency_residuals",
]


@dataclass(frozen=True)
class ConicPoint:
    """A point (u, v) = (geometric mean, arithmetic mean) of a failure pair.

    u <= v always (AM-GM); v <= 1 additionally holds for images of actual
    failure points, but not for every point of an objective ellipse, so it
    is not enforced here.
    """

    u: float
    v: float

    def __post_init__(self):
        if self.u < 0.0 or self.v < 0.0:
            raise DomainError(f"conic coordinates must be nonnegative, got {self!r}")
        if self.u > self.v + 1e-12:
            raise DomainError(f"geometric mean exceeds arithmetic mean: {self!r}")


@dataclass(frozen=True)
class PolarAngle:
    """Polar angle on an objective ellipse, measured from its center."""

    theta: float

    def __float__(self) -> float:
        return self.theta


def to_conic(pt: FailurePoint) -> ConicPoint:
    """Map a failure point to its mean coordinates (u, v)."""
    return ConicPoint(math.sqrt(pt.q1 * pt.q2), 0.5 * (pt.q1 + pt.q2))


def from_conic(cp: ConicPoint) -> tuple[FailurePoint, FailurePoint]:
    """The two failure-point preimages of a conic point.

    Returns ``(v + d, v - d)`` and its mirror, with d = sqrt(v^2 - u^2);
    the first entry carries the larger q1.  Raises :class:`DomainError`
    when v < u, where no real preimage exists.
    """
    if cp.v < cp.u - 1e-14:
        raise DomainError(f"no preimage: v={cp.v!r} < u={cp.u!r}")
    # The u <= v slack above allows v^2 - u^2 down to -(v+u)*1e-14.
    d = sqrt_clamped(cp.v * cp.v - cp.u * cp.u, tol=1e-13)
    hi = cp.v + d
    # Rounding u and v by an ulp moves v^2 - u^2 by up to ~3*eps*v^2, so d
    # by up to ~1.5*eps*v^2/d: near the diagonal (d ~ 1e-8) the image of a
    # point with q1 = 1 can come back with hi just above 1.
    slack = 1e-12 + (4.0 * math.ulp(1.0) * cp.v * cp.v / d if d > 0.0 else 0.0)
    if 1.0 < hi <= 1.0 + slack:
        hi = 1.0
    # The small root via u^2/hi avoids the cancellation in v - d.
    lo = cp.u * cp.u / hi if hi > 0.0 else 0.0
    return FailurePoint(hi, lo), FailurePoint(lo, hi)


def parabola_v(u: float, s: float, s_prime: float) -> float:
    """Height v(u) of the unitarity parabola for overlaps (s, s_prime).

    Defined for s_prime > 0.  At s_prime = 0 the parabola degenerates into
    the vertical segment u = s, 0 <= v <= (1 + s^2)/2, which callers must
    handle as its own branch.
    """
    if s_prime <= 0.0:
        raise DomainError(
            "parabola is degenerate at s_prime = 0 (vertical segment u = s); "
            "handle that branch explicitly"
        )
    du = u - s
    return 0.5 * (1.0 + u * u) - du * du / (2.0 * s_prime * s_prime)


def _check_delta(pr: Priors) -> float:
    delta = pr.delta
    if abs(delta) >= 1.0:
        raise DomainError(f"degenerate priors: |eta2 - eta1| = {abs(delta)!r} >= 1")
    return delta


def ellipse_point(theta: float | PolarAngle, q: float | FailureBudget, pr: Priors) -> ConicPoint:
    """Point of the objective ellipse for budget Q at polar angle theta.

    For equal priors (delta = 0) the formula already reduces to the
    degenerate horizontal segment v = Q, u = Q*cos(theta); for Q = 0 the
    ellipse collapses into the origin.
    """
    delta = _check_delta(pr)
    th = float(theta)
    q_avg = float(q)
    one = 1.0 - delta * delta
    u = q_avg * math.cos(th) / math.sqrt(one)
    v = q_avg / one + q_avg * delta * math.sin(th) / one
    return ConicPoint(u, v)


def conic_slopes(
    theta: float | PolarAngle,
    pr: Priors,
    u: float,
    s: float,
    s_prime: float,
) -> tuple[float, float]:
    """Slopes dv/du of the objective ellipse and the unitarity parabola.

    The ellipse slope at sin(theta) = 0 with unequal priors is infinite;
    it is reported as a signed ``inf`` flag value so root finders can
    bracket across it rather than catch exceptions.  The ellipse slope
    depends only on theta and the priors, not on the budget that fixes
    which ellipse is meant; the parabola slope is taken at abscissa ``u``.
    """
    delta = _check_delta(pr)
    th = float(theta)
    st, ct = math.sin(th), math.cos(th)
    if st == 0.0 and delta != 0.0:
        ellipse = -math.copysign(math.inf, delta * ct)
    elif delta == 0.0:
        ellipse = 0.0
    else:
        ellipse = -delta / math.sqrt(1.0 - delta * delta) * (ct / st)
    if s_prime <= 0.0:
        raise DomainError("parabola slope undefined at s_prime = 0")
    parabola = u - (u - s) / (s_prime * s_prime)
    return ellipse, parabola


def tangency_residuals(
    theta: float | PolarAngle,
    q: float | FailureBudget,
    pr: Priors,
    s: float,
    s_prime: float,
) -> tuple[float, float]:
    """Residuals of the ellipse/parabola tangency system.

    The first residual measures membership of the ellipse point in the
    parabola, the second the mismatch of their slopes; both vanish at the
    optimal tangency angle.
    """
    delta = _check_delta(pr)
    if s_prime <= 0.0:
        raise DomainError("tangency system requires s_prime > 0")
    th = float(theta)
    q_avg = float(q)
    st, ct = math.sin(th), math.cos(th)
    one = 1.0 - delta * delta
    u = q_avg * ct / math.sqrt(one)

    member = q_avg * (1.0 + delta * st) / one - (
        0.5
        + q_avg * q_avg * ct * ct / (2.0 * one)
        - (u - s) ** 2 / (2.0 * s_prime * s_prime)
    )
    slope = delta * (ct / st) / math.sqrt(one) - (
        (1.0 - s_prime * s_prime) / (s_prime * s_prime) * u - s / (s_prime * s_prime)
    )
    return member, slope

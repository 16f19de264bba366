"""Optimal-separation solvers.

Covers the closed-form and parametric solutions of the two-state
separation problem:

* ``q_ud`` -- minimum average failure probability of unambiguous
  discrimination (equivalently, full separation), in closed form.
* ``qmin_curve`` / ``qmin_at`` -- minimum failure probability at a fixed
  target overlap, parametrized along the constraint curve or root-found
  for a specific prior.
* ``max_separation`` / ``critical_overlap`` -- smallest reachable final
  overlap under a failure budget, via the conic tangency system.
* ``tradeoff_curve`` / ``tradeoff_at`` -- the full (Q, s') tradeoff for a
  fixed initial overlap; ``tradeoff_at`` is ``max_separation`` plus the
  achieved budget, so every budget query shares one root-find.
* ``max_clones`` -- how many perfect clones a failure budget admits.
* ``phase_transition_probe`` -- finite-difference detector for the kink in
  d^2Q/deta1^2 that appears only at full separation.

No closed form eliminating the sweep parameter exists (it would require
solving a sixth-degree polynomial), so everything beyond the special cases
is parametric plus bracketed root finding by Brent's method at 1e-14
parameter tolerance; a bracket without a sign change raises NumericError.

The point queries (``qmin_at``, ``curve_point``) evaluate the curve's
parametric formulas one float at a time with ``math``; this module imports
no NumPy.  The sweeps (``qmin_curve``, ``tradeoff_curve``) evaluate their
formulas over the whole grid in one numpy pass, in the private module
``_sweeps`` that they import when called, operation for operation with the
scalar forms, so each sample has the bits a scalar evaluation gives at its
grid point.  The scalar form of the tradeoff formulas is kept in the tests
as the referee of that pass, since no point query uses it.  The same pass
range-checks every record field that a constructor would check, once per
column; the records are then built without re-running those checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .conics import PolarAngle
from .core import (
    DomainError,
    FailureBudget,
    FailurePoint,
    NumericError,
    OverlapSpec,
    Priors,
    SQRT_CLAMP_TOL,
    sqrt_clamped,
)

__all__ = [
    "QminSample",
    "TradeoffSample",
    "UNBOUNDED",
    "t_slope_minus_one",
    "t_slope_zero",
    "q_ud",
    "ud_tangency_point",
    "curve_point",
    "qmin_curve",
    "qmin_at",
    "max_separation",
    "critical_overlap",
    "tradeoff_curve",
    "tradeoff_at",
    "max_clones",
    "phase_transition_probe",
]

# Returned by max_clones when the budget allows full separation, so any
# number of clones can be cut.
UNBOUNDED = math.inf

# Priors closer to equal (or to certainty) than this dispatch to the
# degenerate closed forms; the generic parametric formulas lose precision
# as 1/|delta| (resp. 1/eta1) before they fail outright.
_DEGENERATE_PRIOR_TOL = 1e-9

# Runtime guard on the monotonicity of eta1 along curve sweeps.
_MONOTONE_TOL = 1e-10

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min
_ROOT_XTOL = 1e-14
_ROOT_RTOL = 4.0 * _EPS
_ROOT_MAXITER = 100


@dataclass(frozen=True, slots=True)
class QminSample:
    """One point of the minimum-failure curve Q_min(eta1) at fixed overlaps."""

    t: float
    eta1: float
    q_min: float
    point: FailurePoint
    dq1_dt: float
    dq2_dt: float


@dataclass(frozen=True, slots=True)
class TradeoffSample:
    """One point of a separation/failure tradeoff sweep."""

    theta: PolarAngle
    s: float
    s_prime: float
    q: FailureBudget


# ---------------------------------------------------------------------------
# root finding


def _bracketed_root(f: Callable[[float], float], lo: float, hi: float, what: str) -> float:
    """Root of f on [lo, hi] by Brent's method.

    Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 4,
    in the step order of SciPy's ``brentq`` (same interpolate, extrapolate
    and bisect choices, xtol 1e-14, rtol 4*eps, 100 iterations), so the
    roots are bit-identical to it.  Raises NumericError when f does not
    change sign between lo and hi, when f returns NaN, or when the
    iteration does not converge.
    """

    def failed(reason: str) -> NumericError:
        return NumericError(f"root finding for {what} failed on [{lo!r}, {hi!r}]: {reason}")

    xpre, xcur = lo, hi
    fpre, fcur = f(xpre), f(xcur)
    if math.isnan(fpre) or math.isnan(fcur):
        raise failed(f"f(lo)={fpre!r}, f(hi)={fcur!r}")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise failed(f"no sign change (f(lo)={fpre!r}, f(hi)={fcur!r})")

    # (xcur, fcur) is the best estimate, xblk the contrapoint that keeps the
    # root bracketed, xpre the previous iterate; spre/scur are the last two
    # step lengths.
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_ROOT_XTOL + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant (linear interpolation)
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise failed(f"f({xcur!r}) is NaN")
    raise failed(f"no convergence in {_ROOT_MAXITER} iterations (last x={xcur!r})")


# ---------------------------------------------------------------------------
# unambiguous discrimination (full separation)


def q_ud(pr: Priors, s: float) -> FailureBudget:
    """Minimum average failure probability of unambiguous discrimination.

    Three regimes: for intermediate priors the optimum is the tangency of
    the objective line with the hyperbola q1*q2 = s^2 and costs
    2*sqrt(eta1*eta2)*s; for sufficiently lopsided priors the line pivots
    on one endpoint of the hyperbola instead and the cost is linear in the
    priors.
    """
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"s must lie in [0, 1], got {s!r}")
    lo = s * s / (1.0 + s * s)
    if pr.eta1 <= lo:
        q = pr.eta1 + s * s * pr.eta2
    elif pr.eta1 >= 1.0 - lo:
        q = pr.eta1 * s * s + pr.eta2
    else:
        q = 2.0 * math.sqrt(pr.eta1 * pr.eta2) * s
    return FailureBudget(q)


def ud_tangency_point(pr: Priors, s: float) -> FailurePoint:
    """Optimal failure point of unambiguous discrimination.

    The tangency point sqrt(eta1*eta2)*s*(1/eta1, 1/eta2) in the
    intermediate regime, or the hyperbola endpoint the objective line
    pivots on in the lopsided regimes.
    """
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"s must lie in [0, 1], got {s!r}")
    lo = s * s / (1.0 + s * s)
    if pr.eta1 <= lo:
        return FailurePoint(1.0, s * s)
    if pr.eta1 >= 1.0 - lo:
        return FailurePoint(s * s, 1.0)
    root = math.sqrt(pr.eta1 * pr.eta2) * s
    return FailurePoint(root / pr.eta1, root / pr.eta2)


# ---------------------------------------------------------------------------
# the parametrized constraint curve (identical success flags, kappa = 1)


def _require_curve_overlaps(ov: OverlapSpec) -> None:
    if ov.kappa != 1.0:
        raise DomainError(
            "curve parametrization assumes identical success flags (kappa = 1), "
            f"got kappa={ov.kappa!r}"
        )
    if not 0.0 < ov.s_prime < ov.s:
        raise DomainError(
            f"curve parametrization requires 0 < s_prime < s, got "
            f"s_prime={ov.s_prime!r}, s={ov.s!r}"
        )


def t_slope_minus_one(ov: OverlapSpec) -> float:
    """Parameter value where the lower-half curve has slope -1 (its vertex)."""
    _require_curve_overlaps(ov)
    return (1.0 - ov.s_prime / ov.s) / (1.0 - ov.s_prime)


def t_slope_zero(ov: OverlapSpec) -> float:
    """Parameter value where the lower-half curve slope vanishes."""
    _require_curve_overlaps(ov)
    s2 = ov.s * ov.s
    if s2 < _TINY:
        raise NumericError(
            f"curve parametrization needs s*s to be a normal float, got s*s={s2!r} "
            f"at s={ov.s!r}, s_prime={ov.s_prime!r}"
        )
    sp2 = ov.s_prime * ov.s_prime
    return (1.0 - sp2 / s2) / (1.0 - sp2)


# The curve's guards.  Each builds the error that the scalar helpers below
# raise and that qmin_curve raises at the first offending grid t.


def _clamp_error(arg: float, t: float, ov: OverlapSpec) -> NumericError:
    return NumericError(
        f"square root argument {arg!r} below clamp tolerance {-SQRT_CLAMP_TOL!r} "
        f"on the constraint curve at t={t!r}, s={ov.s!r}, s_prime={ov.s_prime!r}"
    )


def _negative_q1_error(q1: float, t: float, ov: OverlapSpec) -> NumericError:
    return NumericError(
        f"q1 = {q1!r} rounds below 0 on the constraint curve "
        f"at t={t!r}, s={ov.s!r}, s_prime={ov.s_prime!r}"
    )


def _flat_error(t: float, ov: OverlapSpec) -> NumericError:
    return NumericError(
        f"curve derivatives undefined at t={t!r}, s={ov.s!r}, s_prime={ov.s_prime!r}: "
        "1 - x^2 rounds to 0 away from the vertex"
    )


def _equal_derivatives_error(d: float, t: float, ov: OverlapSpec) -> NumericError:
    return NumericError(
        f"tangent prior undefined at t={t!r}, s={ov.s!r}, s_prime={ov.s_prime!r}: "
        f"equal curve derivatives dq1/dt = dq2/dt = {d!r}"
    )


def _curve_sqrt(arg: float, t: float, ov: OverlapSpec) -> float:
    """``sqrt_clamped`` on the curve: the input is valid, so a failed clamp is numeric."""
    if arg < -SQRT_CLAMP_TOL:
        raise _clamp_error(arg, t, ov)
    return math.sqrt(arg) if arg > 0.0 else 0.0


def _q_pair(x, y, rx, ry):
    """Unclamped (q1, q2) at curve coordinates (x, y), for floats or arrays alike."""
    return 0.5 * (1.0 - x * y + rx * ry), 0.5 * (1.0 - x * y - rx * ry)


def _curve_rq(t: float, ov: OverlapSpec) -> tuple[float, float, float, float]:
    """Square roots (rx, ry) and the clamped point (q1, q2) at parameter t."""
    scale = ov.s_prime / ov.s
    x = (1.0 - (1.0 + ov.s_prime) * t) / scale
    y = (1.0 - (1.0 - ov.s_prime) * t) / scale
    rx = _curve_sqrt(1.0 - x * x, t, ov)
    ry = _curve_sqrt(1.0 - y * y, t, ov)
    q1, q2 = _q_pair(x, y, rx, ry)
    if q1 < 0.0:
        raise _negative_q1_error(q1, t, ov)
    # min(q1, 1.0) and max(q2, 0.0), without two builtin calls.
    return rx, ry, (1.0 if 1.0 < q1 else q1), (0.0 if 0.0 > q2 else q2)


def _curve_q(t: float, ov: OverlapSpec) -> tuple[float, float]:
    return _curve_rq(t, ov)[2:]


def _curve_dq(t: float, ov: OverlapSpec) -> tuple[float, float]:
    """Derivatives (dq1/dt, dq2/dt); infinite at the slope -1 vertex."""
    rx, ry, q1, q2 = _curve_rq(t, ov)
    scale = ov.s_prime / ov.s
    if ry == 0.0:
        return math.inf, -math.inf
    if rx == 0.0:
        raise _flat_error(t, ov)
    a = (1.0 + ov.s_prime) / rx
    b = (1.0 - ov.s_prime) / ry
    d1 = _curve_sqrt(q1 * (1.0 - q1), t, ov) / scale * (a + b)
    d2 = _curve_sqrt(q2 * (1.0 - q2), t, ov) / scale * (a - b)
    return d1, d2


def _tangent_eta1(d1: float, d2: float, t: float, ov: OverlapSpec) -> float:
    """Prior whose objective line is tangent where the curve slopes (d1, d2)."""
    if math.isinf(d1):
        return 0.5
    if d2 == d1:
        raise _equal_derivatives_error(d1, t, ov)
    return d2 / (d2 - d1)


def _eta1_at(t: float, ov: OverlapSpec) -> float:
    d1, d2 = _curve_dq(t, ov)
    return _tangent_eta1(d1, d2, t, ov)


def curve_point(t: float, ov: OverlapSpec) -> FailurePoint:
    """Lower-half point (q2 <= q1) of the constraint curve at parameter t.

    The admissible range [t_slope_minus_one, t_slope_zero] covers every
    point that can be tangent to an objective line with eta1 <= 1/2; the
    returned point satisfies the unitarity constraint to 1e-12 by
    construction.
    """
    _require_curve_overlaps(ov)
    t = float(t)
    t_lo, t_hi = t_slope_minus_one(ov), t_slope_zero(ov)
    slack = 1e-12 * (t_hi - t_lo)
    if not t_lo - slack <= t <= t_hi + slack:
        raise DomainError(
            f"curve parameter {t!r} outside the tangency range [{t_lo!r}, {t_hi!r}]"
        )
    q1, q2 = _curve_q(t, ov)
    return FailurePoint(q1, q2)


def _qmin_records(
    t: list[float],
    q1: list[float],
    q2: list[float],
    d1: list[float],
    d2: list[float],
    eta1: list[float],
    q_min: list[float],
) -> list[QminSample]:
    """The sweep's records from range-checked columns.

    Each record is the one ``QminSample(t, eta1, q_min, FailurePoint(q1,
    q2), dq1/dt, dq2/dt)`` builds, but its slots are written directly
    (``object.__new__`` and each field's slot descriptor), so
    ``FailurePoint``'s per-field checks do not run a second time.
    """
    new = object.__new__
    set_q1, set_q2 = FailurePoint.q1.__set__, FailurePoint.q2.__set__
    set_t, set_eta1, set_q_min, set_point, set_d1, set_d2 = (
        QminSample.t.__set__,
        QminSample.eta1.__set__,
        QminSample.q_min.__set__,
        QminSample.point.__set__,
        QminSample.dq1_dt.__set__,
        QminSample.dq2_dt.__set__,
    )
    samples = []
    for tt, a, b, da, db, e, qm in zip(t, q1, q2, d1, d2, eta1, q_min):
        point = new(FailurePoint)
        set_q1(point, a)
        set_q2(point, b)
        smp = new(QminSample)
        set_t(smp, tt)
        set_eta1(smp, e)
        set_q_min(smp, qm)
        set_point(smp, point)
        set_d1(smp, da)
        set_d2(smp, db)
        samples.append(smp)
    return samples


def qmin_curve(ov: OverlapSpec, n_samples: int = 512) -> list[QminSample]:
    """Sweep of the minimum failure probability against the prior.

    Samples t uniformly over the tangency range and reports, for each
    point, the prior eta1 whose objective line is tangent there together
    with the failure probability that tangency achieves.  eta1 runs
    monotonically from 1/2 (curve vertex) to 0; a monotonicity violation
    beyond 1e-10 aborts with diagnostics rather than return a wrong
    branch.

    The whole grid is computed in one numpy pass (``_sweeps``) with the
    bits of the scalar helpers ``_curve_q``, ``_curve_dq`` and
    ``_tangent_eta1``; a failed guard raises NumericError naming the first
    offending t.  The same pass range-checks the q1 and q2 columns once, as
    ``FailurePoint`` would per sample, and the records are built after
    that bulk check.
    """
    _require_curve_overlaps(ov)
    if n_samples < 2:
        raise DomainError(f"n_samples must be at least 2, got {n_samples!r}")
    from . import _sweeps

    columns, worst = _sweeps.qmin_columns(t_slope_minus_one(ov), t_slope_zero(ov), n_samples, ov)
    if worst > _MONOTONE_TOL:
        raise NumericError(
            f"eta1 failed to decrease monotonically along the sweep "
            f"(worst increase {worst!r} at s={ov.s!r}, s_prime={ov.s_prime!r}); "
            "the tangency branch cannot be trusted"
        )
    return _qmin_records(*columns)


def qmin_at(pr: Priors, ov: OverlapSpec) -> tuple[FailureBudget, FailurePoint]:
    """Minimum average failure probability and optimal point for one prior.

    Parameters
    ----------
    pr : Priors
        Prior probabilities; priors with eta1 > 1/2 are handled by the
        swap symmetry and the failure point is mirrored back.
    ov : OverlapSpec
        Initial and target overlaps with kappa = 1 (identical flags).

    Returns
    -------
    (FailureBudget, FailurePoint)
        The achievable minimum of eta1*q1 + eta2*q2 and the point where
        the objective line touches the constraint curve.

    Notes
    -----
    Degenerate targets dispatch to closed forms: s_prime = s costs
    nothing, s_prime = 0 is unambiguous discrimination.  In between, the
    tangency parameter is root-found from the equal-slope condition; the
    budget is evaluated directly on the objective so its error is second
    order in the root tolerance.
    """
    if ov.s_prime > 0.0 and ov.kappa != 1.0:
        raise DomainError(
            "optimal-separation solvers assume identical success flags (kappa = 1)"
        )
    prn, swapped = pr.normalized()

    def _ret(q: float, point: FailurePoint) -> tuple[FailureBudget, FailurePoint]:
        return FailureBudget(q), (point.swapped() if swapped else point)

    if ov.s_prime == ov.s:
        return _ret(0.0, FailurePoint(0.0, 0.0))
    if ov.s == 1.0:
        # Identical inputs cannot be separated at all.
        return _ret(1.0, FailurePoint(1.0, 1.0))
    if ov.s_prime == 0.0:
        return _ret(float(q_ud(prn, ov.s)), ud_tangency_point(prn, ov.s))

    t_lo, t_hi = t_slope_minus_one(ov), t_slope_zero(ov)
    eps = 1e-12 * (t_hi - t_lo)
    eta_lo = _eta1_at(t_lo + eps, ov)  # just below 1/2
    eta_hi = _eta1_at(t_hi, ov)  # 0 up to rounding
    if prn.eta1 >= eta_lo:
        # At the curve vertex dQ/deta1 vanishes, so snapping priors this
        # close to 1/2 onto the vertex costs O(eps) in Q.
        q = (ov.s - ov.s_prime) / (1.0 - ov.s_prime)
        return _ret(q, FailurePoint(q, q))
    if prn.eta1 <= eta_hi:
        q1, q2 = _curve_q(t_hi, ov)
        return _ret(prn.eta1 * q1 + prn.eta2 * q2, FailurePoint(q1, q2))

    t = _bracketed_root(
        lambda tt: _eta1_at(tt, ov) - prn.eta1, t_lo + eps, t_hi, "tangency parameter t"
    )
    q1, q2 = _curve_q(t, ov)
    return _ret(prn.eta1 * q1 + prn.eta2 * q2, FailurePoint(q1, q2))


# ---------------------------------------------------------------------------
# maximum separation under a failure budget (conic tangency)


def _maxsep_s_prime(theta: float, q: float, delta: float) -> float:
    den = delta + q * math.sin(theta)
    rad = sqrt_clamped((1.0 - q) ** 2 - den * den, tol=1e-12)
    return -rad / den * math.tan(theta)


def _maxsep_s(theta: float, q: float, delta: float) -> float:
    st, ct = math.sin(theta), math.cos(theta)
    num = q * delta * (1.0 + st * st) - (1.0 - delta * delta - 2.0 * q) * st
    den = math.sqrt(1.0 - delta * delta) * (delta + q * st) * ct
    return num / den


def max_separation(
    pr: Priors, s: float, q_max: float | FailureBudget
) -> tuple[float, PolarAngle]:
    """Smallest final overlap reachable within a failure budget.

    Parameters
    ----------
    pr : Priors
        Prior probabilities (normalized internally to eta1 <= 1/2).
    s : float
        Initial overlap, in (0, 1).
    q_max : float or FailureBudget
        Cap on the average failure probability, in [0, 1).

    Returns
    -------
    (s_prime_min, theta)
        The minimal final overlap and the tangency angle on the objective
        ellipse.  When the budget already covers unambiguous
        discrimination the answer is 0 and theta is NaN (no tangency is
        involved); theta is also NaN for the degenerate closed-form priors
        (equal, or certainty on one state).

    Notes
    -----
    For q_max below the discrimination cost the budget is saturated and
    the optimum is the tangency between the budget ellipse and a
    constraint parabola.  The tangency angle is root-found from the
    parametric initial-overlap expression, which decreases monotonically
    from 1 to the critical overlap over the admissible angle range.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s!r}")
    q = float(q_max)
    if not 0.0 <= q < 1.0:
        raise DomainError(f"q_max must lie in [0, 1), got {q!r}")
    prn, _ = pr.normalized()

    # s' vanishes linearly as the budget approaches the discrimination
    # cost, so budgets within rounding of it take the trivial branch.
    if q >= float(q_ud(prn, s)) - 1e-13:
        return 0.0, PolarAngle(math.nan)

    delta = prn.delta
    if delta <= _DEGENERATE_PRIOR_TOL:
        # Equal priors: q1 = q2 = Q on the diagonal, solvable directly.
        return (s - q) / (1.0 - q), PolarAngle(0.0)
    if prn.eta1 <= _DEGENERATE_PRIOR_TOL:
        # Certainty on state 2: only q2 matters and the curve minimum of
        # q2 is (s^2 - s'^2)/(1 - s'^2); invert it at the budget.
        sp2 = (s * s - q) / (1.0 - q)
        if sp2 < -SQRT_CLAMP_TOL:
            # A budget between s^2 and q_ud = eta1 + s^2*eta2 is beyond
            # what the certainty closed form covers.
            raise NumericError(
                f"certainty closed form gives a negative squared overlap {sp2!r} "
                f"at eta1={prn.eta1!r}, s={s!r}, q_max={q!r}"
            )
        return sqrt_clamped(sp2), PolarAngle(math.nan)

    theta_lo = -math.asin(delta)
    theta_hi = 0.0 if q <= 1.0 - delta else math.asin((1.0 - q - delta) / q)
    theta = _bracketed_root(
        lambda th: _maxsep_s(th, q, delta) - s, theta_lo, theta_hi, "tangency angle theta"
    )
    s_prime = min(max(_maxsep_s_prime(theta, q, delta), 0.0), s)
    return s_prime, PolarAngle(theta)


def critical_overlap(pr: Priors, q_max: float | FailureBudget) -> float:
    """Largest initial overlap still fully separable within the budget.

    Below this overlap the discrimination cost fits inside q_max and
    max_separation returns exactly 0; above it the optimum saturates the
    budget with a nonzero final overlap.
    """
    q = float(q_max)
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q_max must lie in [0, 1], got {q!r}")
    prn, _ = pr.normalized()
    # A certain state (eta1 = 0) falls through: sqrt(q / 1) needs no division by 0.
    if prn.eta1 > 0.0 and q <= 2.0 * prn.eta1:
        return q / (2.0 * math.sqrt(prn.eta1 * prn.eta2))
    return math.sqrt((q - prn.eta1) / prn.eta2)


# ---------------------------------------------------------------------------
# tradeoff curve s'(Q) at fixed initial overlap


def _singular_error(theta: float, s: float, delta: float, st: float, ct: float) -> NumericError:
    return NumericError(
        f"tradeoff formulas singular at theta={theta!r}, s={s!r}, delta={delta!r}: "
        f"delta + sin(theta) = {delta + st!r}, cos(theta) = {ct!r}"
    )


def _negative_sp2_error(sp2: float, theta: float, s: float, delta: float) -> NumericError:
    return NumericError(
        f"negative squared overlap {sp2!r} at theta={theta!r}, s={s!r}, delta={delta!r}"
    )


def _tradeoff_range(s: float, delta: float, eta1: float) -> tuple[float, float]:
    theta_lo = -math.atan(s * delta / math.sqrt(1.0 - delta * delta))
    if eta1 >= s * s / (1.0 + s * s):
        theta_hi = 0.0
    else:
        c = 2.0 * s * math.sqrt(1.0 - delta * delta) / (
            1.0 - delta + s * s * (1.0 + delta)
        )
        theta_hi = -math.acos(min(max(c, -1.0), 1.0))
    return theta_lo, theta_hi


def _tradeoff_records(
    thetas: list[float], s: float, s_primes: list[float], qs: list[float]
) -> list[TradeoffSample]:
    """The sweep's records from a range-checked Q column.

    Each record is the one ``TradeoffSample(PolarAngle(theta), s, s_prime,
    FailureBudget(Q))`` builds, but its slots are written directly
    (``object.__new__`` and each field's slot descriptor), so
    ``FailureBudget``'s check does not run a second time.
    """
    new = object.__new__
    set_theta, set_q_avg = PolarAngle.theta.__set__, FailureBudget.q_avg.__set__
    set_angle, set_s, set_s_prime, set_q = (
        TradeoffSample.theta.__set__,
        TradeoffSample.s.__set__,
        TradeoffSample.s_prime.__set__,
        TradeoffSample.q.__set__,
    )
    samples = []
    for th, sp, q in zip(thetas, s_primes, qs):
        angle = new(PolarAngle)
        set_theta(angle, th)
        budget = new(FailureBudget)
        set_q_avg(budget, q)
        smp = new(TradeoffSample)
        set_angle(smp, angle)
        set_s(smp, s)
        set_s_prime(smp, sp)
        set_q(smp, budget)
        samples.append(smp)
    return samples


def tradeoff_curve(pr: Priors, s: float, n_samples: int = 512) -> list[TradeoffSample]:
    """Parametric sweep of the separation/failure tradeoff at fixed s.

    Returns samples with Q nondecreasing from 0 (no separation beyond the
    trivial s' = s) up to the unambiguous-discrimination cost (full
    separation, s' = 0), and s_prime nonincreasing from s to 0.

    Equal priors and certainty priors bypass the angle sweep and use their
    explicit closed forms; their samples carry theta = 0 and theta = NaN
    respectively.  The angle sweep's interior is computed in one numpy pass
    (``_sweeps``) with the bits of the scalar formulas; a failed guard
    raises NumericError naming the first offending theta.  Every branch
    range-checks its Q column once, as ``FailureBudget`` would per sample,
    and the records are built after that bulk check.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s!r}")
    if n_samples < 2:
        raise DomainError(f"n_samples must be at least 2, got {n_samples!r}")
    s = float(s)
    prn, _ = pr.normalized()
    delta = prn.delta

    from . import _sweeps

    if delta <= _DEGENERATE_PRIOR_TOL:
        s_primes, qs = _sweeps.equal_prior_columns(s, n_samples)
        return _tradeoff_records([0.0] * n_samples, s, s_primes, qs)
    if prn.eta1 <= _DEGENERATE_PRIOR_TOL:
        s_primes, qs = _sweeps.certainty_columns(s, n_samples)
        return _tradeoff_records([math.nan] * n_samples, s, s_primes, qs)

    theta_lo, theta_hi = _tradeoff_range(s, delta, prn.eta1)
    thetas, s_primes, qs = _sweeps.tradeoff_columns(theta_lo, theta_hi, n_samples, s, delta)
    # The sweep starts at the trivial protocol and ends at full separation;
    # both endpoint values are exact identities, so they are emitted
    # directly instead of through the cancellation-prone generic formulas.
    s_primes = [s] + s_primes + [0.0]
    qs = [0.0] + qs + [float(q_ud(prn, s))]
    return _tradeoff_records(thetas, s, s_primes, qs)


def tradeoff_at(pr: Priors, s: float, q: float | FailureBudget) -> TradeoffSample:
    """Tradeoff point at a specific failure budget.

    Below the discrimination cost the budget is saturated, so the point is
    ``max_separation``'s answer (s', theta) at budget ``q``, with ``q`` as
    the achieved budget.  Budgets at or above the discrimination cost
    return the full-separation endpoint (whose achieved budget is the
    discrimination cost itself, since larger margins are never saturated).
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s!r}")
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got {q!r}")
    qud = float(q_ud(pr.normalized()[0], s))
    if q >= qud - 1e-13:
        return TradeoffSample(PolarAngle(math.nan), s, 0.0, FailureBudget(qud))
    s_prime, theta = max_separation(pr, s, q)
    return TradeoffSample(theta, s, s_prime, FailureBudget(q))


# ---------------------------------------------------------------------------
# corollaries


def max_clones(s: float, q_max: float | FailureBudget, pr: Priors) -> int | float:
    """Largest number of perfect clones producible within a failure budget.

    Cloning one copy into n multiplies the overlap to s**n, so the budget
    admits n clones iff s**n stays above the reachable minimum overlap.
    Returns :data:`UNBOUNDED` when the budget covers full separation.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"cloning bound requires 0 < s < 1, got {s!r}")
    s_prime_min, _ = max_separation(pr, s, q_max)
    if s_prime_min == 0.0:
        return UNBOUNDED
    # The 1e-12 nudge keeps exact integer ratios (e.g. s' = s) from being
    # floored one short by rounding.
    return int(math.floor(math.log(s_prime_min) / math.log(s) + 1e-12))


def phase_transition_probe(
    s: float, s_prime: float, eta_star: float, h: float
) -> float:
    """Difference of one-sided second differences of Q_min(eta1) at eta_star.

    At full separation (s_prime = 0) the optimal failure probability has a
    jump in its second derivative at eta1 = s^2/(1+s^2), and the probe
    converges to that jump as h -> 0; for s_prime > 0 the curve is smooth
    and the probe decays linearly in h.
    """
    if not 0.0 < eta_star < 0.5:
        raise DomainError(f"eta_star must lie in (0, 1/2), got {eta_star!r}")
    if not 0.0 < h < eta_star / 4.0:
        raise DomainError(f"h must lie in (0, eta_star/4), got {h!r}")
    ov = OverlapSpec(s, s_prime)

    def q_of(eta1: float) -> float:
        return float(qmin_at(Priors.of(eta1), ov)[0])

    q0 = q_of(eta_star)
    right = (q_of(eta_star + 2.0 * h) - 2.0 * q_of(eta_star + h) + q0) / (h * h)
    left = (q0 - 2.0 * q_of(eta_star - h) + q_of(eta_star - 2.0 * h)) / (h * h)
    return right - left

"""Optimal-separation solvers.

Covers the closed-form and parametric solutions of the two-state
separation problem:

* ``q_ud`` -- minimum average failure probability of unambiguous
  discrimination (equivalently, full separation), in closed form.
* ``qmin_curve`` / ``qmin_at`` -- minimum failure probability at a fixed
  target overlap, parametrized along the constraint curve, or root-found
  for a specific prior as the tangency point on the curve's lower half.
* ``max_separation`` / ``critical_overlap`` -- smallest reachable final
  overlap under a failure budget, as the minimum along the budget line.
* ``tradeoff_curve`` / ``tradeoff_at`` -- the full (Q, s') tradeoff for a
  fixed initial overlap; ``tradeoff_at`` is ``max_separation`` plus the
  achieved budget, so every budget query shares one root-find and one
  full-separation test (``_budget_line_minimum``).
* ``max_clones`` -- how many perfect clones a failure budget admits.
* ``phase_transition_probe`` -- finite-difference detector for the kink in
  d^2Q/deta1^2 that appears only at full separation.

No closed form for the tangency point exists (it would require solving a
sixth-degree polynomial), so everything beyond the special cases is
bracketed root finding by Brent's method at 1e-14 tolerance; a bracket
without a sign change raises NumericError.

Everything here runs on ``math`` one float at a time; this module imports
no NumPy.  ``qmin_at`` root-finds the tangency condition in q1 along the
curve's lower half, whose ordinate is in closed form
(``core.lower_half_q2``); ``max_separation`` minimizes the final overlap
along the budget line.  The sweeps (``qmin_curve``, ``tradeoff_curve``)
walk their grid (``_linspace``, NumPy's ``linspace`` bit for bit) one
sample at a time.  ``_t_curve`` is the one implementation of the
parametric curve formulas: on the curve sqrt(q1*q2) = s*t and
sqrt((1-q1)*(1-q2)) = s*(1-t)/s' exactly, so q1 and q2 come in factored
form, with both ends of the tangency range emitted as explicit points.
``qmin_curve`` runs it over the grid, whose rows ``verify``'s
``curve-on-constraint`` reads, and ``curve_point`` and verify's round
trip run it on one parameter value.  It and
``qmin_at``'s Brent step each write out the tangency terms, and verify's
``round-trip-consistency`` checks the two copies against each other.
``_tradeoff_rows`` is the one implementation of the
tradeoff formulas, in the half-angle offset of each ellipse angle from
the sweep's start; the tests evaluate the angle formulas in mpmath as its
referee.  Each loop raises at the first failing sample: ``_t_curve`` in
``FailurePoint``'s range checks (q1, then q2), written out with the
constructor's own messages, and ``_tradeoff_rows`` in the range check of
Q (``q_avg must lie in [0, 1]``); ``_t_curve`` then builds its point
with ``object.__new__`` and core's slot setters.  ``QminSample`` and
``TradeoffSample`` are named tuples, and the sweeps build every record with ``tuple.__new__`` on its
class: the generated ``__new__`` makes only that call, so a record equals
what the constructor builds from its fields.  A ``TradeoffSample`` is four
plain floats.  Neither sweep has a per-sample guard; each checks the
order of its columns, and refuses an s*s (``t_slope_zero``) or s*delta
below the normal float range.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat
from operator import itemgetter, sub
from typing import Callable, Iterable, NamedTuple

from .core import (
    DomainError,
    FailurePoint,
    NumericError,
    OverlapSpec,
    Priors,
    _prob_error,
    _set_q1,
    _set_q2,
    lower_half_q2,
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

# Priors closer to equal (or to certainty) than this take tradeoff_curve's
# closed forms: at delta = 0 and at eta1 = 0 the sweep's angle range is a
# single point, and next to certainty it shrinks like (eta1/s**2)**1.5,
# below the spacing of the floats there.
_DEGENERATE_PRIOR_TOL = 1e-9
# The certainty closed form is off by about (eta1/s**2)**2 of Q, so it also
# needs eta1 below this multiple of s**2; above it the angle range spans
# about 1e-9 or more, which the sweep resolves.
_CERTAINTY_RATIO = 1e-6

# Runtime guard on the monotonicity of eta1 along curve sweeps.
_MONOTONE_TOL = 1e-10

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min
_ROOT_XTOL = 1e-14
_ROOT_RTOL = 4.0 * _EPS
_ROOT_MAXITER = 100
# Below this lower-half vertex, qmin_at root-finds in log(q1) instead of
# q1: Brent's absolute 1e-14 in q1 would leave a root of that size with few
# relative digits, and a tolerance scaled down with the vertex can need more
# than Brent's 100 steps when the bracket spans many decades.
_SMALL_VERTEX = 1e-6


class QminSample(NamedTuple):
    """One point of the minimum-failure curve Q_min(eta1) at fixed overlaps."""

    t: float
    eta1: float
    q_min: float
    point: FailurePoint
    dq1_dt: float
    dq2_dt: float


class TradeoffSample(NamedTuple):
    """One point of a separation/failure tradeoff sweep.

    ``theta`` is the tangency angle on the objective ellipse
    (``conics.ellipse_point``) and ``q`` the achieved failure budget, in
    [0, 1]; every field is a plain float.
    """

    theta: float
    s: float
    s_prime: float
    q: float


# ---------------------------------------------------------------------------
# root finding


def _bracketed_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    what: str,
    f_lo: float,
    f_hi: float,
) -> float:
    """Root of f on [lo, hi] by Brent's method, given f_lo = f(lo) and f_hi = f(hi).

    Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 4,
    in the step order of SciPy's ``brentq`` (same interpolate, extrapolate
    and bisect choices, xtol 1e-14, rtol 4*eps, 100 iterations), so the
    roots are bit-identical to it.  Each caller has already evaluated f at
    both ends and hands the values in.  Raises NumericError when f does not
    change sign between lo and hi, when f returns NaN, or when the
    iteration does not converge.
    """

    def failed(reason: str) -> NumericError:
        return NumericError(f"root finding for {what} failed on [{lo!r}, {hi!r}]: {reason}")

    xpre, xcur, fpre, fcur = lo, hi, f_lo, f_hi
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
    # step lengths.  The loop calls no builtin: |a| < |b| is tested as
    # -|b| < a < |b|, |b| is b or -b by the sign of b, and NaN is the one
    # float unequal to itself.  Each test has abs()'s result for every
    # float, NaN and -0.0 included.
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if (-fcur < fblk < fcur) if fcur > 0.0 else (fcur < fblk < -fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_ROOT_XTOL + _ROOT_RTOL * (xcur if xcur > 0.0 else -xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or -delta < sbis < delta:
            return xcur

        spre_abs = spre if spre > 0.0 else -spre
        if spre_abs > delta and (
            (-fpre < fcur < fpre) if fpre > 0.0 else (fpre < fcur < -fpre)
        ):
            if xpre == xblk:
                # secant (linear interpolation)
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:
                # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num = -fcur * (fblk * dblk - fpre * dpre)
                den = dblk * dpre * (fblk - fpre)
            # min(spre_abs, 3*|sbis| - delta), with min's choice on ties and NaN.
            lim = 3 * (sbis if sbis > 0.0 else -sbis) - delta
            if not lim < spre_abs:
                lim = spre_abs
            # A denominator that underflows to 0 makes brentq's step inf or
            # NaN, which fails the test below; here it would raise instead.
            if den != 0.0 and -lim < 2 * (stry := num / den) < lim:
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if scur > delta or scur < -delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise failed(f"f({xcur!r}) is NaN")
    raise failed(f"no convergence in {_ROOT_MAXITER} iterations (last x={xcur!r})")


# ---------------------------------------------------------------------------
# unambiguous discrimination (full separation)


def q_ud(pr: Priors, s: float) -> float:
    """Minimum average failure probability of unambiguous discrimination.

    Three regimes: for intermediate priors the optimum is the tangency of
    the objective line with the hyperbola q1*q2 = s^2 and costs
    2*sqrt(eta1*eta2)*s; for sufficiently lopsided priors the line pivots
    on one endpoint of the hyperbola instead and the cost is linear in the
    priors.
    """
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"s must lie in [0, 1], got {s!r}")
    return _q_ud(pr.eta1, pr.eta2, float(s))


def _q_ud(eta1: float, eta2: float, s: float) -> float:
    """``q_ud``'s value, for checked priors and a float s in [0, 1]."""
    lo = s * s / (1.0 + s * s)
    if eta1 <= lo:
        q = eta1 + s * s * eta2
    elif eta1 >= 1.0 - lo:
        q = eta1 * s * s + eta2
    else:
        q = 2.0 * math.sqrt(eta1 * eta2) * s
    return 1.0 if q > 1.0 else q  # the prior-sum slack can lift q past 1


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
# grids


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """``numpy.linspace(start, stop, n).tolist()``, bit for bit, for n >= 2.

    ``i*step + start`` with ``step = (stop - start)/(n - 1)`` and the last
    point set to ``stop``; where the step underflows to 0, NumPy's
    ``(i/(n - 1))*(stop - start) + start`` instead.  The sweeps and the CLI
    build their grids with it, so neither loads NumPy.
    """
    div = n - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        return [i / div * delta + start for i in range(div)] + [stop]
    return [i * step + start for i in range(div)] + [stop]


# ---------------------------------------------------------------------------
# the parametrized constraint curve


def _require_curve_overlaps(ov: OverlapSpec) -> None:
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


def _zero_slope_end(s: float, beta: float) -> tuple[float, float]:
    """The point (q1, q2) where the curve's lower half has slope 0: its lowest q2."""
    q2 = (s - beta) * (s + beta) / ((1.0 - beta) * (1.0 + beta))
    return q2 / (q2 + beta * beta * (1.0 - q2)), q2


def _t_curve(ts: Iterable[float], ov: OverlapSpec) -> list[QminSample]:
    """The constraint curve at each parameter value in ``ts``, one sample per t.

    A sample is the record ``QminSample(t, eta1, Q, FailurePoint(q1, q2),
    dq1/dt, dq2/dt)``, where eta1 is the prior whose objective line is
    tangent at the point, and Q = eta1*q1 + (1 - eta1)*q2.

    On the curve A = sqrt(q1*q2) = s*t and B = sqrt((1-q1)*(1-q2)) =
    s*(1-t)/s' exactly, so q1 and q2 are the roots of
    q^2 - (1 + A^2 - B^2)*q + A^2, taken in factored form:

        q1 = ((1-B)*(1+B) + A^2 + r)/2,    q2 = A^2/q1,
        r = q1 - q2 = sqrt((1-A-B)*(1-A+B)*(1+A-B)*(1+A+B)).

    For s' >= s/2, where s - s' is exact, 1 - A - B is taken as
    (A*(1-s') - (s-s'))/s' and 1 - B as that plus A; as s' -> s and s' -> 1
    the plain differences would lose the digits the point needs.  eta1 is
    g2/(g1 + g2) for g1 = q1*B - s'*(1-q1)*A and g2 = q2*B - s'*(1-q2)*A,
    2*A*B times dF/dq2 and dF/dq1 for the constraint F (``qmin_at``'s Brent
    step root-finds the same terms).  As g1 - g2 = (q1 - q2)*(B + s'*A),
    eta1 is at most 1/2 wherever q1 >= q2, and Q, a weighting of q1 and q2
    by it, lies in [0, 1]; off the vertex row r keeps q1 above q2.  With
    S' = 2*s*(A + B/s') and P' = 2*s*A the derivatives of q1 + q2 and
    q1*q2, dq1/dt = (q1*S' - P')/r and dq2/dt = (P' - q2*S')/r.

    Both ends are emitted explicitly.  Where t is at or below
    ``t_slope_minus_one``, or 1 - A - B is not positive, the row is the
    slope -1 vertex q1 = q2 = (s - s')/(1 - s'), with eta1 = 1/2 and
    infinite derivatives.  Where g2 <= 0, the zero-slope end and any t
    rounded past it, the row is the zero-slope point itself, with eta1 and
    dq2/dt 0.  The rows are taken in order; the only check is
    ``FailurePoint``'s range check of q1, then q2, written out, which
    raises the constructor's DomainError at the first offending t.  The
    point is then built with ``object.__new__`` and core's slot setters,
    and the row with ``tuple.__new__``, so neither runs a Python
    constructor.

    This is the one implementation of the parametric formulas: the sweep
    runs it over its grid, and ``curve_point`` and ``verify``'s round trip
    over a single t.
    """
    s, sp = ov.s, ov.s_prime
    t_lo = t_slope_minus_one(ov)
    gap = s - sp
    vertex = gap / (1.0 - sp)
    q1_end, q2_end = _zero_slope_end(s, sp)
    close = sp >= 0.5 * s
    two_s = 2.0 * s
    sqrt, inf, new_point, new_row = math.sqrt, math.inf, object.__new__, tuple.__new__
    rows: list[QminSample] = []
    add = rows.append
    for t in ts:
        a = s * t
        b = s * (1.0 - t) / sp
        if close:
            f1 = (a * (1.0 - sp) - gap) / sp
            lo = f1 + a
        else:
            lo = 1.0 - b
            f1 = lo - a
        hi = 1.0 + b
        if t <= t_lo or f1 <= 0.0:
            q1 = q2 = vertex
            eta1, d1, d2 = 0.5, inf, -inf
        else:
            r = sqrt(f1 * (lo + a) * (hi - a) * (hi + a))
            q1 = (lo * hi + a * a + r) / 2.0
            if q1 > 1.0:  # by rounding, next to t = 1, where dq1/dt is then exactly 0
                q1 = 1.0
            q2 = a * (a / q1)
            g1 = q1 * b - sp * (1.0 - q1) * a
            g2 = q2 * b - sp * (1.0 - q2) * a
            ds, dp = two_s * (a + b / sp), two_s * a
            d1 = (q1 * ds - dp) / r
            if g2 <= 0.0:
                q1, q2 = q1_end, q2_end
                eta1 = d2 = 0.0
            else:
                d2 = (dp - q2 * ds) / r
                eta1 = g2 / (g1 + g2)
        q = eta1 * q1 + (1.0 - eta1) * q2
        # FailurePoint's range checks, written out; q1 is checked first.
        if not 0.0 <= q1 <= 1.0:
            raise _prob_error("q1", q1)
        if not 0.0 <= q2 <= 1.0:
            raise _prob_error("q2", q2)
        point = new_point(FailurePoint)
        _set_q1(point, q1)
        _set_q2(point, q2)
        add(new_row(QminSample, (t, eta1, q, point, d1, d2)))
    return rows


def curve_point(t: float, ov: OverlapSpec) -> FailurePoint:
    """Lower-half point (q2 <= q1) of the constraint curve at parameter t.

    The admissible range [t_slope_minus_one, t_slope_zero] covers every
    point that can be tangent to an objective line with eta1 <= 1/2; the
    returned point satisfies the unitarity constraint to 1e-12 by
    construction.  It is the point ``qmin_curve`` reports at t, computed
    with ``math`` alone.
    """
    _require_curve_overlaps(ov)
    t = float(t)
    t_lo, t_hi = t_slope_minus_one(ov), t_slope_zero(ov)
    slack = 1e-12 * (t_hi - t_lo)
    if not t_lo - slack <= t <= t_hi + slack:
        raise DomainError(
            f"curve parameter {t!r} outside the tangency range [{t_lo!r}, {t_hi!r}]"
        )
    return _t_curve((t,), ov)[0].point


def qmin_curve(ov: OverlapSpec, n_samples: int = 512) -> list[QminSample]:
    """Sweep of the minimum failure probability against the prior.

    Samples t uniformly over the tangency range and reports, for each
    point, the prior eta1 whose objective line is tangent there together
    with the failure probability that tangency achieves.  eta1 runs
    monotonically from 1/2 (curve vertex) to 0; a monotonicity violation
    beyond 1e-10 aborts with diagnostics rather than return a wrong
    branch.

    The samples come from ``_t_curve``, one t at a time with ``math``, so
    each has the bits ``curve_point`` gives at its t; ``verify``'s
    ``curve-on-constraint`` checks these rows.  The first sample is the
    vertex itself and every sample at or past the zero-slope end is that
    end point, with eta1 = 0.  Each row's Q is its eta1's minimum: a
    50-digit referee in the tests confirms sampled rows to 1e-9 relative
    with s and s'/s out to 1e-12 of 0 and 1.  The sweep refuses with
    NumericError only where the monotonicity guard fires (seen with s
    within about 1e-12 of 1) or ``t_slope_zero`` does.
    """
    _require_curve_overlaps(ov)
    if n_samples < 2:
        raise DomainError(f"n_samples must be at least 2, got {n_samples!r}")
    ts = _linspace(t_slope_minus_one(ov), t_slope_zero(ov), n_samples)
    samples = _t_curve(ts, ov)
    eta1 = list(map(itemgetter(1), samples))
    worst = max(map(sub, eta1[1:], eta1))
    if worst > _MONOTONE_TOL:
        raise NumericError(
            f"eta1 failed to decrease monotonically along the sweep "
            f"(worst increase {worst!r} at s={ov.s!r}, s_prime={ov.s_prime!r}); "
            "the tangency branch cannot be trusted"
        )
    return samples


def qmin_at(pr: Priors, ov: OverlapSpec) -> tuple[float, FailurePoint]:
    """Minimum average failure probability and optimal point for one prior.

    Parameters
    ----------
    pr : Priors
        Prior probabilities; priors with eta1 > 1/2 are handled by the
        swap symmetry and the failure point is mirrored back.
    ov : OverlapSpec
        Initial and target overlaps.

    Returns
    -------
    (float, FailurePoint)
        The achievable minimum of eta1*q1 + eta2*q2 and the point where
        the objective line touches the constraint curve.

    Notes
    -----
    Degenerate targets dispatch to closed forms: s_prime = s costs
    nothing, s = 1 cannot be separated, s_prime = 0 is unambiguous
    discrimination.  Otherwise the objective line touches the curve's
    lower half q2(q1) (``core.lower_half_q2``, with beta = s_prime) where,
    with A = sqrt(q1*q2) and B = sqrt((1-q1)*(1-q2)),

        f(q1) = eta1*(q1*B - beta*(1-q1)*A) - eta2*(q2*B - beta*(1-q2)*A)

    vanishes; f is 2*A*B*(eta1*dF/dq2 - eta2*dF/dq1) for the constraint F.
    Brent finds that root between the vertex q1 = q2 = (s-beta)/(1-beta),
    where f <= 0, and the zero-slope end, where f >= 0; an end where f has
    the other sign is itself the answer.  It works in q1 (to 1e-14), or in
    log(q1) (to 1e-14 relative) when the vertex is below 1e-6, so that a
    root that small keeps its relative digits.  Q is evaluated on the
    objective at the root, so its error is second order in the root
    tolerance.  When (s-beta)(s+beta) is below the normal float range (s
    below about 1e-146), the lower half cannot be resolved in closed form,
    but next to its vertex it is the hyperbola q1*q2 = (s-beta)**2, to
    relative O(beta*sqrt(eta2/eta1)).  The answer is then ``q_ud``'s
    tangency with s - beta for s, 2*sqrt(eta1*eta2)*(s-beta) at
    q1 = (s-beta)*sqrt(eta2/eta1), or the zero-slope end where that q1
    would pass it.  It is off by about half of beta*sqrt(eta2/eta1) of
    itself, so where that term exceeds 1e-12 (eta1 below about
    (1e12*beta)**2) qmin_at raises NumericError; only eta1 = 0, whose
    answer is the zero-slope end itself, is answered there.
    """
    prn, swapped = pr.normalized()

    def _ret(q: float, point: FailurePoint) -> tuple[float, FailurePoint]:
        return q, (point.swapped() if swapped else point)

    if ov.s_prime == ov.s:
        return _ret(0.0, FailurePoint(0.0, 0.0))
    if ov.s == 1.0:
        # Identical inputs cannot be separated at all.
        return _ret(1.0, FailurePoint(1.0, 1.0))
    if ov.s_prime == 0.0:
        return _ret(_q_ud(prn.eta1, prn.eta2, ov.s), ud_tangency_point(prn, ov.s))

    s, beta = ov.s, ov.s_prime
    eta1, eta2 = prn.eta1, prn.eta2
    vertex = (s - beta) / (1.0 - beta)
    n0 = (s - beta) * (s + beta)
    if n0 < _TINY:
        # Only for s below about 1e-146, as s - beta is a multiple of s's
        # ulp.  end is _zero_slope_end's q1 with beta**2/n0 taken apart, so
        # that it neither underflows nor overflows.
        gap = s - beta
        end = 1.0 / (1.0 + beta / gap * (beta / (s + beta)))
        r1, r2 = math.sqrt(eta1), math.sqrt(eta2)
        # The hyperbola's answer is off by about half of beta*sqrt(eta2/eta1)
        # of itself, except at eta1 = 0, where the zero-slope end is exact.
        if eta1 > 0.0 and beta * r2 > 1e-12 * r1:
            raise NumericError(
                f"qmin_at cannot resolve the smaller prior {eta1!r} at s={s!r}, "
                f"s_prime={beta!r}: (s - s_prime)*(s + s_prime) underflows, and the "
                "hyperbola that stands in for the curve has the relative error term "
                f"beta*sqrt(eta2/eta1) = {beta * r2 / r1!r}, beyond 1e-12"
            )
        if gap * r2 < end * r1:  # the tangency q1 = gap*r2/r1 lies before the end
            return _ret(2.0 * r1 * r2 * gap, FailurePoint(gap * r2 / r1, gap * r1 / r2))
        return _ret(eta1 * end + eta2 * n0, FailurePoint(end, n0))
    hi, _ = _zero_slope_end(s, beta)
    if hi == 1.0:
        # At q1 = 1, f keeps only its beta*A terms, which underflow to 0
        # for tiny beta; the float below 1 is within rounding of q1z.
        hi = 1.0 - _EPS / 2.0

    def tangency(q1: float) -> float:
        q2 = lower_half_q2(q1, s, beta)
        a, b = math.sqrt(q1 * q2), math.sqrt((1.0 - q1) * (1.0 - q2))
        return eta1 * (q1 * b - beta * (1.0 - q1) * a) - eta2 * (q2 * b - beta * (1.0 - q2) * a)

    # Each end is evaluated once: Brent gets these values back.
    f_lo, f_hi = tangency(vertex), tangency(hi)
    if f_lo >= 0.0:
        return _ret(vertex, FailurePoint(vertex, vertex))
    if f_hi <= 0.0:
        q1 = hi
    elif vertex >= _SMALL_VERTEX:
        q1 = _bracketed_root(tangency, vertex, hi, "tangency abscissa q1", f_lo, f_hi)
    else:
        # In u = log(q1) Brent's 1e-14 is relative in q1, and the bracket is
        # at most about 750 wide, so it converges for any vertex.
        u = _bracketed_root(
            lambda u: tangency(math.exp(u)),
            math.log(vertex),
            math.log(hi),
            "tangency abscissa log(q1)",
            f_lo,
            f_hi,
        )
        q1 = min(max(math.exp(u), vertex), hi)
    q2 = lower_half_q2(q1, s, beta)
    return _ret(min(eta1 * q1 + eta2 * q2, 1.0), FailurePoint(q1, q2))  # as in q_ud


# ---------------------------------------------------------------------------
# maximum separation under a failure budget (minimum along the budget line)


def max_separation(pr: Priors, s: float, q_max: float) -> tuple[float, float]:
    """Smallest final overlap reachable within a failure budget.

    Parameters
    ----------
    pr : Priors
        Prior probabilities (normalized internally to eta1 <= 1/2).
    s : float
        Initial overlap, in (0, 1).
    q_max : float
        Cap on the average failure probability, in [0, 1).

    Returns
    -------
    (s_prime_min, theta)
        The minimal final overlap and the tangency angle on the objective
        ellipse (``conics.ellipse_point``), both plain floats.  theta is 0
        for equal priors, and NaN where the ellipse degenerates
        (|eta2 - eta1| = 1) and when the budget covers unambiguous
        discrimination, where the answer is 0.

    Notes
    -----
    Below the discrimination cost the optimum spends the budget, on the
    line q2 = (Q - eta1*q1)/eta2, where the constraint gives the final
    overlap beta = (s - A)/B, A = sqrt(q1*q2), B = sqrt(p1*p2).  Brent finds
    the root of H = 2*A*B**3 * dbeta/dq1 (k = -eta1/eta2),

        H = (s - A)*A*(p2 + p1*k) - (q2 + q1*k)*p1*p2,

    in q1/q1_hi between the ends of the line in the unit square (H <= 0 at
    the low end, H >= 0 at the high end q1_hi).  theta inverts
    ``conics.ellipse_point`` there: Q*sin(theta) = eta1*q1 - eta2*q2 and
    Q*cos(theta) = 2*sqrt(eta1*q1*eta2*q2).
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s!r}")
    s = float(s)
    q = float(q_max)
    if not 0.0 <= q < 1.0:
        raise DomainError(f"q_max must lie in [0, 1), got {q!r}")
    prn, _ = pr.normalized()
    sep = _budget_line_minimum(prn.eta1, prn.eta2, s, q, q_ud(prn, s))
    return (0.0, math.nan) if sep is None else sep


def _budget_line_minimum(
    eta1: float, eta2: float, s: float, q: float, qud: float
) -> tuple[float, float] | None:
    """``max_separation``'s (s', theta) for checked inputs with eta1 <= 1/2.

    None where the budget ``q`` covers the discrimination cost ``qud``.
    """
    # s' vanishes linearly as the budget approaches the discrimination
    # cost, so budgets within rounding of it take the trivial branch.
    if q >= qud * (1.0 - 1e-13):
        return None
    delta = eta2 - eta1
    if q == 0.0:  # the line collapses into the origin; theta is its Q -> 0 limit
        return s, math.nan if delta == 1.0 else _tradeoff_range(s, eta1)[0]
    k, q1_hi = -eta1 / eta2, (q / eta1 if q < eta1 else 1.0)

    def slope(t: float) -> float:
        # The point on the line at t; the root's point below repeats these lines.
        q1 = t * q1_hi
        q2 = (q - eta1 * q1) / eta2  # past an edge of the square by rounding only
        q2 = 0.0 if q2 < 0.0 else 1.0 if q2 > 1.0 else q2
        a, p1, p2 = math.sqrt(q1 * q2), 1.0 - q1, 1.0 - q2
        return (s - a) * a * (p2 + p1 * k) - (q2 + q1 * k) * p1 * p2

    lo, hi = (q - eta2) / eta1 if q > eta2 else 0.0, 1.0  # q1_hi = 1 where lo > 0
    # At a corner of the square (Q = eta1 or eta2) H vanishes although beta
    # is infinite there; one float inwards H has its sign.
    if (f_lo := slope(lo)) == 0.0:
        f_lo = slope(lo := math.nextafter(lo, hi))
    if (f_hi := slope(hi)) == 0.0:
        f_hi = slope(hi := math.nextafter(hi, lo))
    t = _bracketed_root(slope, lo, hi, "budget-line q1/q1_hi", f_lo, f_hi)
    q1 = t * q1_hi  # as in slope
    q2 = (q - eta1 * q1) / eta2
    q2 = 0.0 if q2 < 0.0 else 1.0 if q2 > 1.0 else q2
    # beta without cancellation: A taken apart where q1*q2 underflows, and
    # next to s = 1, s - A as ((1 - A^2) - (1 - s^2))/(s + A), with
    # 1 - A^2 = p1 + p2*q1.
    p1, p2 = 1.0 - q1, 1.0 - q2
    a = math.sqrt(q1 * q2) if q1 * q2 >= _TINY else math.sqrt(q1) * math.sqrt(q2)
    b = math.sqrt(p1 * p2)
    if b == 0.0:
        raise NumericError(f"budget-line minimum on an edge of the square: q1={q1!r}, q2={q2!r}")
    gap = s - a if a < 0.5 else (p1 + p2 * q1 - (1.0 - s) * (1.0 + s)) / (s + a)
    cos_q = 2.0 * math.sqrt(eta1 * eta2) * a  # Q*cos(theta)
    theta = math.nan if delta == 1.0 else math.atan2(eta1 * q1 - eta2 * q2, cos_q)
    return min(max(gap / b, 0.0), s), theta


def critical_overlap(pr: Priors, q_max: float) -> float:
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


def _tradeoff_frame(s: float, eta1: float) -> tuple[float, float, float, float]:
    """``(delta, r, w, tau_plus)`` of the half-angle form (``_tradeoff_rows``).

    r = 2*sqrt(eta1*(1 - eta1)) avoids sqrt(1 - delta**2), which cancels as
    eta1 -> 0; every term is a product of nonnegative ones.  The smallest of
    them is r*w**3 (half the rows' Q numerator), and the frame raises
    NumericError where it is below the normal float range: only for s and
    sqrt(eta1) both below about 1e-77, where tau_plus's terms and the rows'
    Q coefficients underflow.
    """
    delta = 1.0 - 2.0 * eta1
    r = 2.0 * math.sqrt(eta1 * (1.0 - eta1))
    sd = s * delta
    w = math.sqrt(r * r + sd * sd)
    if r * w * w * w < _TINY:
        raise NumericError(
            f"tradeoff sweep cannot resolve eta1={eta1!r} at s={s!r}: its angle frame "
            f"underflows (r*w**3 = {r * w * w * w!r} is below the normal float range)"
        )
    tau_plus = (1.0 - s) * (1.0 + s) * r * r * r / ((w + sd) * (w + s) * (w + s))
    return delta, r, w, tau_plus


def _tradeoff_range(s: float, eta1: float) -> tuple[float, float]:
    """Ellipse angles (theta_lo, theta_hi) where the tradeoff sweep starts and ends.

    theta_lo = -atan2(s*delta, r) is the trivial protocol, with delta and r
    from ``_tradeoff_frame``: r in place of sqrt(1 - delta**2), which
    cancels next to certainty.  Full separation is at theta = 0 in the
    tangency regime (eta1 >= s**2/(1 + s**2)), and else at the half-angle
    offset tau_plus from theta_lo.
    """
    delta, r, _, tau_plus = _tradeoff_frame(s, eta1)
    theta_lo = -math.atan2(s * delta, r)
    if eta1 >= s * s / (1.0 + s * s):
        return theta_lo, 0.0
    return theta_lo, theta_lo + 2.0 * math.atan(tau_plus)


def _tradeoff_rows(
    thetas: Iterable[float], s: float, eta1: float, theta_lo: float, q_end: float
) -> tuple[list[float], list[float]]:
    """Columns (s_primes, qs) of the tradeoff curve at the ellipse angles ``thetas``.

    The paper's formulas at the angle theta, with S = sin(theta) and
    C = cos(theta), are

        s'**2 = r*rho**2/C*(r*(1 + s**2)*C - 2*s*(1 + delta*S)),
        Q = (s*r + delta*s'**2*C/S)/((1 - s'**2)*C),   rho = -S/(delta + S).

    Each angle is taken as its offset tau = tan((theta - theta_lo)/2) from
    the sweep's start, so a row is exact at theta_lo + (theta - theta_lo)
    and theta_lo's rounding moves only the labels.  With
    sin(theta_lo) = -s*delta/w and cos(theta_lo) = r/w (``_tradeoff_frame``)
    the half-angle identities give, each times w*(1 + tau**2),

        S         = -(tau0 - tau)*(s*delta*tau + w + r),
        C         = r*(1 - tau)*(1 + tau) + 2*s*delta*tau,
        delta + S = delta*(w - s) + (2*r + delta*(w + s)*tau)*tau,
        bracket   = (w + s)**2*(tau_plus - tau)*(tau - tau_minus),

    with w - s = r**2*(1 - s)*(1 + s)/(w + s), tau0 = s*delta/(w + r) at
    theta = 0, and tau_minus = -(1 - s)*(1 + s)*r*(w + s*delta)/(w + s)**2.
    So s' = rho*sqrt(r*(w + s)**2*(tau_plus - tau)*(tau - tau_minus)/C),
    never squared; it is s at tau = 0, and each factor is taken over its
    value there, so that the first rows keep the ulps of s.  Q, with its
    common factors cleared, is 2*r*w**3*tau*(1 + tau**2) over
    c0 + c1*tau + ... + c4*tau**4: c0 = delta*(w - s)**2,
    c1 = 2*r*(2*(w - s) + s*w**2), c2 = 6*delta*r**2*(1 - s)*(1 + s),
    c3 = 2*r*(2*w + s*(2 - w**2)), c4 = delta*(w + s)**2.  Below
    min(tau0, tau_plus) every factor is a sum of nonnegative terms; from
    there on (tau0 ends the tangency regime and tau_plus the lopsided one,
    and they cross at the second-order transition eta1 = s**2/(1 + s**2))
    the row is full separation, (0, q_end).  Q is capped at q_end and s'
    at s, and each Q is range-checked (``q_avg must lie in [0, 1]``),
    which only NaN fails.  The columns come back as lists, for the caller
    to add the ends.
    """
    delta, r, w, tau_plus = _tradeoff_frame(s, eta1)
    sd, gap, w_s, w_r = s * delta, (1.0 - s) * (1.0 + s), w + s, w + r
    w_gap = r * r * gap / w_s  # w - s
    tau0, tau_minus = sd / w_r, -gap * r * (w + sd) / (w_s * w_s)
    tau_end = tau0 if tau0 < tau_plus else tau_plus
    # rho's factors and C over their tau = 0 values; Q's c0..c4 over its numerator's constant.
    two_r, rho_0, q_num = 2.0 * r, delta * w_gap, 2.0 * r * w * w * w
    k0, k1, k2, k3 = sd / w_r, two_r / rho_0, delta * w_s / rho_0, 2.0 * sd / r
    c0, c1 = delta * w_gap * w_gap / q_num, two_r * (2.0 * w_gap + s * w * w) / q_num
    c2, c3 = 6.0 * delta * r * r * gap / q_num, two_r * (2.0 * w + s * (2.0 - w * w)) / q_num
    c4, tan, sqrt = delta * w_s * w_s / q_num, math.tan, math.sqrt
    s_primes: list[float] = []
    qs: list[float] = []
    add_s_prime, add_q = s_primes.append, qs.append
    for theta in thetas:
        tau = tan((theta - theta_lo) / 2.0)
        if tau >= tau_end:
            s_prime, q = 0.0, q_end
        else:
            t2 = tau * tau
            rho = (1.0 - tau / tau0) * (1.0 + k0 * tau) / (1.0 + (k1 + k2 * tau) * tau)
            cos = 1.0 - t2 + k3 * tau
            s_prime = s * rho * sqrt((1.0 - tau / tau_plus) * (1.0 - tau / tau_minus) / cos)
            den = c0 + (c1 + (c2 + (c3 + c4 * tau) * tau) * tau) * tau
            q = tau * (1.0 + t2) / den
            if q > q_end:
                q = q_end
        if not 0.0 <= q <= 1.0:
            raise _prob_error("q_avg", q)
        add_s_prime(s if s < s_prime else s_prime)
        add_q(q)
    return s_primes, qs


def _range_checked(qs: list[float]) -> list[float]:
    """``qs``, after the range check of each Q (``q_avg must lie in [0, 1]``), in order."""
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise _prob_error("q_avg", q)
    return qs


def tradeoff_curve(pr: Priors, s: float, n_samples: int = 512) -> list[TradeoffSample]:
    """Parametric sweep of the separation/failure tradeoff at fixed s.

    Returns samples with Q nondecreasing from 0 (no separation beyond the
    trivial s' = s) up to the unambiguous-discrimination cost (full
    separation, s' = 0), and s_prime nonincreasing from s to 0.

    Priors within 1e-9 of equal take a closed form with theta = 0, and
    those within 1e-9 of certainty and below 1e-6*s**2 one with theta NaN:
    there the angle range is a point, or shrinks like (eta1/s**2)**1.5.
    Others take ``_tradeoff_rows``.  A 50-digit referee in the tests
    confirms sampled rows to 1e-9 relative, with s out to subnormal values
    and to 1e-12 of 1, and eta1 out to 0 and to the equal-prior cutoff.
    The sweep refuses with NumericError where s*delta is below the normal
    float range, where the angle frame underflows (``_tradeoff_frame``: s
    and sqrt(eta1) both below about 1e-77), or where Q falls or s' rises
    by more than 1e-10.  Every branch range-checks Q, and builds the
    records with ``tuple.__new__``.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s!r}")
    if n_samples < 2:
        raise DomainError(f"n_samples must be at least 2, got {n_samples!r}")
    s = float(s)
    prn, _ = pr.normalized()
    delta = prn.delta

    if delta <= _DEGENERATE_PRIOR_TOL:
        # Equal priors: q1 = q2 = Q on the diagonal, so s' = (s - Q)/(1 - Q).
        thetas = repeat(0.0)
        qs = _range_checked(_linspace(0.0, s, n_samples))
        s_primes = [(s - q) / (1.0 - q) for q in qs]
    elif prn.eta1 <= _DEGENERATE_PRIOR_TOL and prn.eta1 <= _CERTAINTY_RATIO * s * s:
        # Next to certainty on state 2 the optimum at s' is, to first order
        # in eta1, the curve's zero-slope end (_zero_slope_end): there
        # q2 = (s^2 - s'^2)/(1 - s'^2) and q1 = q2/s^2, and Q = eta1*q1 +
        # eta2*q2.  q2 runs over the grid; at q2 = 0 (s' = s) Q is 0.
        thetas = repeat(math.nan)
        s2, eta1, eta2 = s * s, prn.eta1, prn.eta2
        q2s = _linspace(0.0, s2, n_samples)
        s_primes = [sqrt_clamped((s2 - q2) / (1.0 - q2)) for q2 in q2s]
        qs = _range_checked([0.0 if q2 == 0.0 else eta1 * (q2 / s2) + eta2 * q2 for q2 in q2s])
    else:
        if s * delta < _TINY:
            raise NumericError(
                f"tradeoff sweep needs s*delta to be a normal float, got "
                f"s*delta={s * delta!r} at eta1={prn.eta1!r}, s={s!r}"
            )
        thetas = _linspace(*_tradeoff_range(s, prn.eta1), n_samples)
        q_end = _q_ud(prn.eta1, prn.eta2, s)
        s_primes, qs = _tradeoff_rows(thetas[1:-1], s, prn.eta1, thetas[0], q_end)
        # The sweep starts at the trivial protocol and ends at full
        # separation; both are exact identities, emitted directly.
        s_primes = [s, *s_primes, 0.0]
        qs = [0.0, *qs, q_end]
        _check_tradeoff_order(s_primes, qs, s, prn.eta1)
    return list(map(tuple.__new__, repeat(TradeoffSample), zip(thetas, repeat(s), s_primes, qs)))


def _check_tradeoff_order(
    s_primes: list[float], qs: list[float], s: float, eta1: float
) -> None:
    """Refuse an angle sweep whose Q falls or s' rises by more than ``_MONOTONE_TOL``."""
    if sorted(qs) == qs and sorted(s_primes, reverse=True) == s_primes:
        return
    q_drop = max(map(sub, qs, qs[1:]))
    sp_rise = max(map(sub, s_primes[1:], s_primes))
    if q_drop > _MONOTONE_TOL or sp_rise > _MONOTONE_TOL:
        raise NumericError(
            f"tradeoff sweep out of order at eta1={eta1!r}, s={s!r}: Q falls by "
            f"{q_drop!r}, s_prime rises by {sp_rise!r}; the angle formulas cannot "
            "resolve these priors"
        )


def tradeoff_at(pr: Priors, s: float, q: float) -> TradeoffSample:
    """Tradeoff point at a specific failure budget.

    Below the discrimination cost the budget is saturated, so the point is
    ``max_separation``'s answer (s', theta) at budget ``q``, with ``q`` as
    the achieved budget.  Budgets at or above the discrimination cost
    return the full-separation endpoint (whose achieved budget is the
    discrimination cost itself, since larger margins are never saturated).
    ``q`` must lie in [0, 1]; every field of the record is a plain float.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s!r}")
    s = float(s)
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got {q!r}")
    prn, _ = pr.normalized()
    qud = _q_ud(prn.eta1, prn.eta2, s)
    sep = _budget_line_minimum(prn.eta1, prn.eta2, s, q, qud)
    if sep is None:
        return tuple.__new__(TradeoffSample, (math.nan, s, 0.0, qud))
    return tuple.__new__(TradeoffSample, (sep[1], s, sep[0], q))


# ---------------------------------------------------------------------------
# corollaries


def max_clones(s: float, q_max: float, pr: Priors) -> int | float:
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
        return qmin_at(Priors.of(eta1), ov)[0]

    q0 = q_of(eta_star)
    right = (q_of(eta_star + 2.0 * h) - 2.0 * q_of(eta_star + h) + q0) / (h * h)
    left = (q0 - 2.0 * q_of(eta_star - h) + q_of(eta_star - 2.0 * h)) / (h * h)
    return right - left

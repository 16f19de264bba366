"""Optimal-separation solvers.

Covers the closed-form and parametric solutions of the two-state
separation problem:

* ``q_ud`` -- minimum average failure probability of unambiguous
  discrimination (equivalently, full separation), in closed form.
* ``qmin_curve`` / ``qmin_at`` -- minimum failure probability at a fixed
  target overlap, parametrized along the constraint curve, or root-found
  for a specific prior as the tangency point on the curve's lower half.
* ``max_separation`` / ``critical_overlap`` -- smallest reachable final
  overlap under a failure budget, via the conic tangency system.
* ``tradeoff_curve`` / ``tradeoff_at`` -- the full (Q, s') tradeoff for a
  fixed initial overlap; ``tradeoff_at`` is ``max_separation`` plus the
  achieved budget, so every budget query shares one root-find.
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
(``core.lower_half_q2``).  The sweeps (``qmin_curve``, ``tradeoff_curve``)
walk their grid (``_linspace``, NumPy's ``linspace`` bit for bit) one
sample at a time.  ``_t_curve`` is the one implementation of the
parametric curve formulas: ``qmin_curve`` runs it over the grid, and
``curve_point`` and the scalar helpers that ``verify`` uses run it on one
parameter value.  ``_tradeoff_rows`` is the one implementation of the
tradeoff formulas; an independent scalar form is kept in the tests as its
referee.  Each loop raises at the first failing sample, guards first, and
then makes the range checks that a record's constructor would make; the
records are then built column by column without re-running those checks.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import sub
from typing import Callable, Iterable

from .conics import PolarAngle
from .core import (
    DomainError,
    FailureBudget,
    FailurePoint,
    NumericError,
    OverlapSpec,
    Priors,
    SQRT_CLAMP_TOL,
    _prob_error,
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
# Below this lower-half vertex, qmin_at root-finds in log(q1) instead of
# q1: Brent's absolute 1e-14 in q1 would leave a root of that size with few
# relative digits, and a tolerance scaled down with the vertex can need more
# than Brent's 100 steps when the bracket spans many decades.
_SMALL_VERTEX = 1e-6


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


def _bracketed_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    what: str,
    f_lo: float | None = None,
    f_hi: float | None = None,
) -> float:
    """Root of f on [lo, hi] by Brent's method.

    Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 4,
    in the step order of SciPy's ``brentq`` (same interpolate, extrapolate
    and bisect choices, xtol 1e-14, rtol 4*eps, 100 iterations), so the
    roots are bit-identical to it.  A caller that has already evaluated
    f(lo) or f(hi) passes the value as ``f_lo`` or ``f_hi``.  Raises
    NumericError when f does not change sign between lo and hi, when f
    returns NaN, or when the iteration does not converge.
    """

    def failed(reason: str) -> NumericError:
        return NumericError(f"root finding for {what} failed on [{lo!r}, {hi!r}]: {reason}")

    xpre, xcur = lo, hi
    fpre = f(xpre) if f_lo is None else f_lo
    fcur = f(xcur) if f_hi is None else f_hi
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
# grids and records


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


def _blank(cls: type, n: int) -> list:
    """``n`` instances of the slotted record ``cls``, none of whose slots is set yet."""
    return list(map(object.__new__, repeat(cls, n)))


def _fill(field, records: list, values: Iterable) -> None:
    """Write one value per record into slot ``field``, bypassing the record's checks.

    The slot descriptor's ``__set__`` is mapped over the whole column, so
    the loop runs in C; the sweeps call this only with values that have
    passed the checks the record's constructor makes.
    """
    deque(map(field.__set__, records, values), maxlen=0)


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


# The curve's guards: the errors that _t_curve raises at the first
# offending t.


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


def _t_curve(ts: Iterable[float], ov: OverlapSpec, derivatives: bool = True) -> list[tuple]:
    """The constraint curve at each parameter value in ``ts``, one row per t.

    A row is ``(t, q1, q2)``; with ``derivatives`` it is ``(t, eta1, Q,
    q1, q2, dq1/dt, dq2/dt)``, in ``QminSample``'s field order, where eta1
    is the prior whose objective line is tangent at the point, clamped to
    [0, 1/2], and Q = eta1*q1 + (1 - eta1)*q2, clamped to [0, 1].  At the
    slope -1 vertex (ry = 0) the derivatives are infinite and eta1 is 1/2.

    This is the one implementation of the parametric formulas: the sweep
    runs it over its grid and the scalar helpers over a single t.  The
    samples are taken in order, and each raises at its first failed check:
    the guards (a square root argument below the clamp tolerance, q1
    rounding below 0, a flat point off the vertex, equal derivatives) as
    NumericError, then, with ``derivatives``, ``FailurePoint``'s range
    checks of q1 and q2 as DomainError.
    """
    sp = ov.s_prime
    scale = sp / ov.s
    up, down = 1.0 + sp, 1.0 - sp
    tol = -SQRT_CLAMP_TOL
    sqrt, inf = math.sqrt, math.inf
    rows: list[tuple] = []
    add = rows.append
    for t in ts:
        x = (1.0 - up * t) / scale
        y = (1.0 - down * t) / scale
        # Each square root is sqrt_clamped's: a positive argument is taken
        # as it is, one below the clamp tolerance fails, and the rest is 0.
        arg = 1.0 - x * x
        if arg > 0.0:
            rx = sqrt(arg)
        elif arg < tol:
            raise _clamp_error(arg, t, ov)
        else:
            rx = 0.0
        arg = 1.0 - y * y
        if arg > 0.0:
            ry = sqrt(arg)
        elif arg < tol:
            raise _clamp_error(arg, t, ov)
        else:
            ry = 0.0
        c, rr = 1.0 - x * y, rx * ry
        q1, q2 = 0.5 * (c + rr), 0.5 * (c - rr)
        if q1 < 0.0:
            raise _negative_q1_error(q1, t, ov)
        # min(q1, 1.0) and max(q2, 0.0), keeping NaN, without builtin calls.
        if q1 > 1.0:
            q1 = 1.0
        if q2 < 0.0:
            q2 = 0.0
        if not derivatives:
            add((t, q1, q2))
            continue
        if ry == 0.0:
            d1, d2, eta1 = inf, -inf, 0.5
        else:
            if rx == 0.0:
                raise _flat_error(t, ov)
            a = up / rx
            b = down / ry
            arg = q1 * (1.0 - q1)
            if arg > 0.0:
                r1 = sqrt(arg)
            elif arg < tol:
                raise _clamp_error(arg, t, ov)
            else:
                r1 = 0.0
            arg = q2 * (1.0 - q2)
            if arg > 0.0:
                r2 = sqrt(arg)
            elif arg < tol:
                raise _clamp_error(arg, t, ov)
            else:
                r2 = 0.0
            d1 = r1 / scale * (a + b)
            d2 = r2 / scale * (a - b)
            if d1 == inf or d1 == -inf:
                eta1 = 0.5
            elif d2 == d1:
                raise _equal_derivatives_error(d1, t, ov)
            else:
                # min(max(eta1, 0.0), 0.5), keeping -0.0 and NaN.
                eta1 = d2 / (d2 - d1)
                if eta1 < 0.0:
                    eta1 = 0.0
                elif eta1 > 0.5:
                    eta1 = 0.5
        if not 0.0 <= q1 <= 1.0:
            raise _prob_error("q1", q1)
        if not 0.0 <= q2 <= 1.0:
            raise _prob_error("q2", q2)
        q = eta1 * q1 + (1.0 - eta1) * q2
        if q < 0.0:
            q = 0.0
        elif q > 1.0:
            q = 1.0
        add((t, eta1, q, q1, q2, d1, d2))
    return rows


def _curve_q(t: float, ov: OverlapSpec) -> tuple[float, float]:
    """Clamped point (q1, q2) at parameter t."""
    return _t_curve((t,), ov, derivatives=False)[0][1:]


def _curve_dq(t: float, ov: OverlapSpec) -> tuple[float, float]:
    """Derivatives (dq1/dt, dq2/dt); infinite at the slope -1 vertex."""
    return _t_curve((t,), ov)[0][5:]


def _eta1_at(t: float, ov: OverlapSpec) -> float:
    """Tangent prior at parameter t, as ``qmin_curve`` reports it."""
    return _t_curve((t,), ov)[0][1]


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
    q1, q2 = _curve_q(t, ov)
    return FailurePoint(q1, q2)


def _qmin_records(
    t: tuple[float, ...],
    eta1: tuple[float, ...],
    q_min: tuple[float, ...],
    q1: tuple[float, ...],
    q2: tuple[float, ...],
    d1: tuple[float, ...],
    d2: tuple[float, ...],
) -> list[QminSample]:
    """The sweep's records from range-checked columns.

    Each record is the one ``QminSample(t, eta1, q_min, FailurePoint(q1,
    q2), dq1/dt, dq2/dt)`` builds, but its slots are written column by
    column, so ``FailurePoint``'s per-field checks do not run a second time.
    """
    n = len(t)
    points = _blank(FailurePoint, n)
    _fill(FailurePoint.q1, points, q1)
    _fill(FailurePoint.q2, points, q2)
    samples = _blank(QminSample, n)
    _fill(QminSample.t, samples, t)
    _fill(QminSample.eta1, samples, eta1)
    _fill(QminSample.q_min, samples, q_min)
    _fill(QminSample.point, samples, points)
    _fill(QminSample.dq1_dt, samples, d1)
    _fill(QminSample.dq2_dt, samples, d2)
    return samples


def qmin_curve(ov: OverlapSpec, n_samples: int = 512) -> list[QminSample]:
    """Sweep of the minimum failure probability against the prior.

    Samples t uniformly over the tangency range and reports, for each
    point, the prior eta1 whose objective line is tangent there together
    with the failure probability that tangency achieves.  eta1 runs
    monotonically from 1/2 (curve vertex) to 0; a monotonicity violation
    beyond 1e-10 aborts with diagnostics rather than return a wrong
    branch.

    The samples come from ``_t_curve``, one t at a time with ``math``, so
    each has the bits ``curve_point`` and the scalar helpers give at its t;
    a failed guard raises NumericError naming the first offending t.  The
    same loop range-checks q1 and q2 as ``FailurePoint`` would, and the
    records are built column by column after it.
    """
    _require_curve_overlaps(ov)
    if n_samples < 2:
        raise DomainError(f"n_samples must be at least 2, got {n_samples!r}")
    ts = _linspace(t_slope_minus_one(ov), t_slope_zero(ov), n_samples)
    columns = list(zip(*_t_curve(ts, ov)))
    eta1 = columns[1]
    worst = max(map(sub, eta1[1:], eta1))
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
    nothing, s = 1 cannot be separated, s_prime = 0 is unambiguous
    discrimination.  Otherwise the objective line touches the curve's
    lower half q2(q1) (``core.lower_half_q2``) where, with A = sqrt(q1*q2)
    and B = sqrt((1-q1)*(1-q2)),

        f(q1) = eta1*(q1*B - beta*(1-q1)*A) - eta2*(q2*B - beta*(1-q2)*A)

    vanishes; f is 2*A*B*(eta1*dF/dq2 - eta2*dF/dq1) for the constraint F.
    Brent finds that root between the vertex q1 = q2 = (s-beta)/(1-beta),
    where f <= 0, and the zero-slope end, where f >= 0; an end where f has
    the other sign is itself the answer.  It works in q1 (to 1e-14), or in
    log(q1) (to 1e-14 relative) when the vertex is below 1e-6, so that a
    root that small keeps its relative digits.  Q is evaluated on the
    objective at the root, so its error is second order in the root
    tolerance.  When (s-beta)(s+beta) is below the
    normal float range (s below about 1e-146), the lower half cannot be
    resolved and the vertex is returned: it lies on the curve, and its Q,
    below 1.5e-154, is within that of the minimum.
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

    s, beta = ov.s, ov.beta
    eta1, eta2 = prn.eta1, prn.eta2
    vertex = (s - beta) / (1.0 - beta)
    n0 = (s - beta) * (s + beta)
    if n0 < _TINY:
        return _ret(vertex, FailurePoint(vertex, vertex))
    q2_zero = n0 / ((1.0 - beta) * (1.0 + beta))
    hi = q2_zero / (q2_zero + beta * beta * (1.0 - q2_zero))
    if hi == 1.0:
        # At q1 = 1, f keeps only its beta*A terms, which underflow to 0
        # for tiny beta; the float below 1 is within rounding of q1z.
        hi = 1.0 - _EPS / 2.0

    def tangency(q1: float) -> float:
        q2 = lower_half_q2(q1, s, beta)
        a = math.sqrt(q1 * q2)
        b = math.sqrt((1.0 - q1) * (1.0 - q2))
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
    return _ret(eta1 * q1 + eta2 * q2, FailurePoint(q1, q2))


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


def _cot_overflow_error(theta: float, s: float, delta: float, st: float, ct: float) -> NumericError:
    return NumericError(
        f"tradeoff formulas overflow at theta={theta!r}, s={s!r}, delta={delta!r}: "
        f"cos(theta)/sin(theta) = {ct!r}/{st!r} exceeds the float range"
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


def _tradeoff_rows(thetas: Iterable[float], s: float, delta: float) -> list[tuple[float, float]]:
    """Rows (s_prime, Q) of the tradeoff curve at each ellipse angle theta <= 0.

    theta = 0 is the upper endpoint of the equal-slope family: full
    separation (s' = 0) at the tangency-regime discrimination cost
    s*sqrt(1 - delta^2).  Elsewhere s'^2 and Q come from the parametric
    formulas, Q clamped to [0, 1] and s' capped at s.  The angles are taken
    in order, and each raises at its first failed check: NumericError where
    the formulas are singular (delta + sin(theta) or cos(theta) is 0),
    where s'^2 is negative beyond its rounding noise, or where cot(theta)
    overflows; then ``FailureBudget``'s range check of Q as DomainError.
    """
    root = math.sqrt(1.0 - delta * delta)
    s_root = s * root
    envelope = root * (1.0 + s * s)
    two_s = 2.0 * s
    sin, cos, sqrt, inf = math.sin, math.cos, math.sqrt, math.inf
    rows: list[tuple[float, float]] = []
    add = rows.append
    for theta in thetas:
        if theta == 0.0:
            s_prime, q = 0.0, s_root
        else:
            st, ct = sin(theta), cos(theta)
            if delta + st == 0.0 or ct == 0.0:
                raise _singular_error(theta, s, delta, st, ct)
            gain = root * (st / (delta + st)) ** 2 / ct
            term_envelope = envelope * ct
            term_budget = two_s * (1.0 + delta * st)
            sp2 = gain * (term_envelope - term_budget)
            if sp2 < 0.0:
                # Where the two terms cancel (the full-separation end of the
                # sweep, severe for near-certainty priors) rounding leaves a
                # negative residue of order eps times the amplification; only
                # values beyond that noise floor indicate a real bug.
                noise = 32.0 * _EPS * abs(gain) * (abs(term_envelope) + abs(term_budget))
                if sp2 < -(noise if noise > 1e-12 else 1e-12):
                    raise _negative_sp2_error(sp2, theta, s, delta)
                sp2 = 0.0
            cot = ct / st
            if cot == inf or cot == -inf:
                # For |theta| below about 1e-308 (tiny s*delta), where
                # delta*sp2*cot would be 0*inf.
                raise _cot_overflow_error(theta, s, delta, st, ct)
            num = s_root + delta * sp2 * cot
            den = (1.0 - sp2) * ct
            # An s'^2 that rounds to exactly 1 zeroes den; divide as IEEE
            # does (num/±0 is num*±inf) rather than raise.
            q = num / den if den else num * math.copysign(inf, den)
            s_prime = sqrt(sp2)
            # min(max(q, 0.0), 1.0), keeping NaN.
            if q < 0.0:
                q = 0.0
            elif q > 1.0:
                q = 1.0
        if not 0.0 <= q <= 1.0:
            raise _prob_error("q_avg", q)
        add((s if s < s_prime else s_prime, q))
    return rows


def _tradeoff_records(
    thetas: list[float], s: float, s_primes: Iterable[float], qs: Iterable[float]
) -> list[TradeoffSample]:
    """The sweep's records from a range-checked Q column.

    Each record is the one ``TradeoffSample(PolarAngle(theta), s, s_prime,
    FailureBudget(Q))`` builds, but its slots are written column by column,
    so ``FailureBudget``'s check does not run a second time.
    """
    n = len(thetas)
    angles = _blank(PolarAngle, n)
    _fill(PolarAngle.theta, angles, thetas)
    budgets = _blank(FailureBudget, n)
    _fill(FailureBudget.q_avg, budgets, qs)
    samples = _blank(TradeoffSample, n)
    _fill(TradeoffSample.theta, samples, angles)
    _fill(TradeoffSample.s, samples, repeat(s, n))
    _fill(TradeoffSample.s_prime, samples, s_primes)
    _fill(TradeoffSample.q, samples, budgets)
    return samples


def _range_checked(qs: list[float]) -> list[float]:
    """``qs``, after ``FailureBudget``'s range check of each, in order."""
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise _prob_error("q_avg", q)
    return qs


def tradeoff_curve(pr: Priors, s: float, n_samples: int = 512) -> list[TradeoffSample]:
    """Parametric sweep of the separation/failure tradeoff at fixed s.

    Returns samples with Q nondecreasing from 0 (no separation beyond the
    trivial s' = s) up to the unambiguous-discrimination cost (full
    separation, s' = 0), and s_prime nonincreasing from s to 0.

    Equal priors and certainty priors bypass the angle sweep and use their
    explicit closed forms; their samples carry theta = 0 and theta = NaN
    respectively.  The angle sweep's interior comes from ``_tradeoff_rows``,
    one angle at a time with ``math``; a failed guard raises NumericError
    naming the first offending theta.  Every branch range-checks its Q
    values as ``FailureBudget`` would, and the records are built column by
    column after that check.
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
        qs = _range_checked(_linspace(0.0, s, n_samples))
        s_primes = [(s - q) / (1.0 - q) for q in qs]
        return _tradeoff_records([0.0] * n_samples, s, s_primes, qs)
    if prn.eta1 <= _DEGENERATE_PRIOR_TOL:
        # Certainty on state 2: Q = q2 = (s^2 - s'^2)/(1 - s'^2).
        qs = _linspace(0.0, s * s, n_samples)
        s_primes = [sqrt_clamped((s * s - q) / (1.0 - q)) for q in qs]
        return _tradeoff_records([math.nan] * n_samples, s, s_primes, _range_checked(qs))

    thetas = _linspace(*_tradeoff_range(s, delta, prn.eta1), n_samples)
    rows = _tradeoff_rows(thetas[1:-1], s, delta)
    # The sweep starts at the trivial protocol and ends at full separation;
    # both endpoint values are exact identities, so they are emitted
    # directly instead of through the cancellation-prone generic formulas.
    s_primes, qs = zip((s, 0.0), *rows, (0.0, float(q_ud(prn, s))))
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

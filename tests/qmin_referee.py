"""A 50-digit referee for the minimum average failure probability Q_min.

It never imports ``statesep``: everything is written from the unitarity
constraint

    F(q1, q2) = beta*sqrt((1-q1)*(1-q2)) + sqrt(q1*q2) - s = 0,    beta = s_prime,

in a private 50-digit ``mpmath`` context.  With ``eta1 <= 1/2`` (the swap
symmetry covers the rest) the minimum of ``eta1*q1 + eta2*q2`` lies on the
curve's lower half, from the diagonal crossing ``q1 = (s-beta)/(1-beta)``
to the endpoint ``(1, s**2)``.  That half is convex, so the objective along
it is unimodal, and it stays unimodal in ``u = log(q1)``.

Golden section in ``u`` first narrows the minimum to a bracket 1e-2 wide.
On that bracket the tangency condition, whose sign is that of dQ/du, is
then solved by regula falsi (the Illinois variant) in ``r = sqrt(-u)``: in
``u`` the condition grows like ``1/sqrt(1 - q1)`` next to ``q1 = 1``, in
``r`` it is smooth there, so a minimum within 1e-20 of ``q1 = 1`` is found
as fast as any other.  Where the bracket holds no sign change of the
condition (``s' = 0`` with the bracket at ``q1 = 1``, where the condition
vanishes), golden section runs on to the end instead.  Either way ``u`` is
known to 1e-20, at every scale from subnormal ``s`` to ``q1`` within 1e-20
of 1.

The point it reports is checked against the constraint itself, so a wrong
ordinate fails here instead of passing silently, and the reported minimum
is the objective at a point on the curve: it never undercuts the true one.
A root of the tangency condition is not taken on trust either: the
objective 1e-12 to either side of it in ``u`` must be no lower, less a
slack of 1e-20 relative.  By unimodality that puts the minimum within
1e-12 of the root, or no more than the slack below it, whatever the
condition's formula.  The slack is needed: next to ``s = 1`` the 50-digit
objective is good only to about 2e-22 of itself, and a minimum that flat
moves by less than that over 1e-12.

:func:`qmin` is cached for the test session, keyed by its exact float
arguments, so the edge suites that judge the same overlap twice pay for it
once.  :func:`is_q_min` is their one judge of a claimed minimum.
"""

import functools
import math

import mpmath

mp = mpmath.MPContext()
mp.dps = 50

# Width in log(q1) of the final bracket, so q1 is known to 1e-20 relative
# and Q to about that much of itself.
_LOG_WIDTH = mp.mpf("1e-20")
# Width in log(q1) at which golden section hands over to regula falsi.
_COARSE_WIDTH = mp.mpf("1e-2")
# Regula falsi steps before it gives way to golden section; it takes about
# ten.
_FALSI_STEPS = 100
# Offset in log(q1) of the two probes that confirm a root of the tangency
# condition as the minimum, and how far, relative, they may lie below it.
_PROBE = mp.mpf("1e-12")
_PROBE_SLACK = mp.mpf("1e-20")
_GOLDEN = (mp.sqrt(5) - 1) / 2
# Largest constraint residual, relative to s, accepted at the minimum.
_ORDINATE_CHECK = mp.mpf("1e-40")
# Ulps of slack that is_q_min gives the overlap a claimed minimum is at.
SLACK_ULPS = 4


def residual(q1, q2, s, beta):
    """Unitarity residual beta*sqrt(p1*p2) + sqrt(q1*q2) - s at 50 digits."""
    q1, q2, s, beta = (mp.mpf(v) for v in (q1, q2, s, beta))
    return beta * mp.sqrt((1 - q1) * (1 - q2)) + mp.sqrt(q1 * q2) - s


def lower_q2(q1, p1, s, beta):
    """Lower-half ordinate q2 at q1, given p1 = 1 - q1 (mpf arguments).

    The constraint is quadratic in ``x = sqrt(q2)``:
    ``R2*x**2 - 2*s*sqrt(q1)*x + c = 0`` with ``R2 = q1 + beta**2*p1``
    and ``c = s**2 - beta**2*p1``.  The smaller root is taken as
    ``c / (s*sqrt(q1) + sqrt(disc))``, which keeps all 50 digits even where
    ``x`` is tiny.  ``p1`` is passed in rather than formed from ``q1``, and
    for ``q1 >= 1/2`` the ``q1 - s**2`` in ``disc`` is expanded as
    ``(1-s)*(1+s) - p1``, so neither cancels next to ``q1 = 1`` or
    ``s = 1``; below 1/2 that form would cancel instead.  Squaring admits a
    spurious root, so :func:`qmin` checks its answer against the constraint
    itself.
    """
    b2 = beta * beta * p1
    c = s * s - b2
    gap = q1 - s * s if q1 < 0.5 else (1 - s) * (1 + s) - p1
    disc = b2 * (gap + b2)
    x = c / (s * mp.sqrt(q1) + mp.sqrt(disc))
    return x * x


def _golden(objective, a, b, c, d, fc, fd, width):
    """Golden section on [a, b], interior points c < d, down to ``width``."""
    while b - a > width:
        if fc[0] < fd[0]:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(d)
    return a, b, c, d, fc, fd


def _illinois(f, lo, hi, f_lo, f_hi):
    """Root r of f between lo and hi, where f_lo > 0 >= f_hi, or None.

    Regula falsi, halving the value kept at an end that survives two steps
    in a row (the Illinois variant), until the bracket is ``_LOG_WIDTH``
    wide in ``u = -r**2``; then the end with the smaller |f|.
    """
    side = 0
    for _ in range(_FALSI_STEPS):
        if f_hi == 0:
            return hi
        if (hi - lo) * (hi + lo) <= _LOG_WIDTH:
            return lo if abs(f_lo) < abs(f_hi) else hi
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        fx = f(x)
        if fx > 0:
            lo, f_lo = x, fx
            if side == -1:
                f_hi /= 2
            side = -1
        else:
            hi, f_hi = x, fx
            if side == 1:
                f_lo /= 2
            side = 1
    return None


@functools.cache
def qmin(eta1: float, s: float, s_prime: float):
    """(Q_min, q1, q2) for priors (eta1, 1 - eta1), in the normalized frame.

    ``q1 >= q2`` is the optimal point for ``min(eta1, 1 - eta1)``; the
    caller mirrors it for ``eta1 > 1/2``.
    """
    e1 = mp.mpf(eta1)
    e1 = min(e1, 1 - e1)
    e2 = 1 - e1
    s, beta = mp.mpf(s), mp.mpf(s_prime)
    if beta == s:
        return mp.zero, mp.zero, mp.zero
    if s == 1:
        return mp.one, mp.one, mp.one

    def objective(u):
        q1 = mp.exp(u)
        q2 = lower_q2(q1, -mp.expm1(u), s, beta)
        return e1 * q1 + e2 * q2, q1, q2

    def tangency(r):
        # e1*dF/dq2 - e2*dF/dq1 at u = -r**2, times 2*sqrt(q1*q2*(1-q1)*(1-q2))
        # so that it stays finite at q1 = 1.  dF/dq2 > 0 on the lower half,
        # so its sign is that of dQ/du: it falls as r grows.
        q1, p1 = mp.exp(-r * r), -mp.expm1(-r * r)
        q2 = lower_q2(q1, p1, s, beta)
        a, b = mp.sqrt(q1 * q2), mp.sqrt(p1 * (1 - q2))
        return e1 * (q1 * b - beta * p1 * a) - e2 * (q2 * b - beta * (1 - q2) * a)

    a = vertex = mp.log((s - beta) / (1 - beta))
    b = mp.zero
    best = min(objective(a), objective(b))
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    a, b, c, d, fc, fd = _golden(objective, a, b, c, d, fc, fd, _COARSE_WIDTH)
    r_lo, r_hi = mp.sqrt(-b), mp.sqrt(-a)
    t_lo, t_hi = tangency(r_lo), tangency(r_hi)
    root = None
    if t_lo > 0 >= t_hi:
        root = _illinois(tangency, r_lo, r_hi, t_lo, t_hi)
    if root is None:
        _, _, _, _, fc, fd = _golden(objective, a, b, c, d, fc, fd, _LOG_WIDTH)
        q, q1, q2 = min(best, fc, fd)
    else:
        u = -root * root
        found = objective(u)
        for probe in (max(u - _PROBE, vertex), min(u + _PROBE, mp.zero)):
            assert objective(probe)[0] >= found[0] * (1 - _PROBE_SLACK), (eta1, s, s_prime)
        q, q1, q2 = min(best, found)
    # On the curve, and on its lower half: the minimum is attained.
    assert abs(residual(q1, q2, s, beta)) <= _ORDINATE_CHECK * s, (eta1, s, s_prime)
    assert q2 <= q1 / (q1 + beta * beta * (1 - q1)), (eta1, s, s_prime)
    return q, q1, q2


def is_q_min(eta1: float, s: float, s_prime: float, q: float, tol: float) -> bool:
    """Whether q is the minimum failure at s_prime, give or take SLACK_ULPS ulps of s_prime.

    ``q`` passes when it is within ``tol`` of ``Q_min(s_prime)``.  The
    inverse, the overlap that a budget ``q`` buys, is ill-conditioned as
    ``s' -> s -> 1``, so ``q`` also passes when it falls between ``Q_min``
    at ``s_prime`` moved SLACK_ULPS ulps up and down, each to within
    ``tol``: ``Q_min`` falls as the overlap grows.
    """

    def q_min(overlap: float) -> float:
        return float(qmin(eta1, s, overlap)[0])

    if abs(q_min(s_prime) - q) <= tol:
        return True
    slack = SLACK_ULPS * math.ulp(s_prime)
    hi, lo = min(s_prime + slack, s), max(s_prime - slack, 0.0)
    return q_min(hi) <= q + tol and q_min(lo) >= q - tol

"""A 50-digit referee for the minimum average failure probability Q_min.

It never imports ``statesep``: everything is written from the unitarity
constraint

    beta*sqrt((1-q1)*(1-q2)) + sqrt(q1*q2) = s,        beta = s_prime,

in a private 50-digit ``mpmath`` context.  With ``eta1 <= 1/2`` (the swap
symmetry covers the rest) the minimum of ``eta1*q1 + eta2*q2`` lies on the
curve's lower half, from the diagonal crossing ``q1 = (s-beta)/(1-beta)``
to the endpoint ``(1, s**2)``.  That half is convex, so the objective along
it is unimodal, and it stays unimodal in ``u = log(q1)``; golden section
in ``u`` resolves the minimum at every scale, from subnormal ``s`` to
``q1`` within 1e-20 of 1.  The point it reports is checked against the
constraint itself, so a wrong ordinate fails here instead of passing
silently, and the reported minimum is the objective at a point on the
curve: it never undercuts the true one.
"""

import mpmath

mp = mpmath.MPContext()
mp.dps = 50

# Golden-section stop: width of the bracket in log(q1), so q1 is known to
# 1e-20 relative and Q to about that much of itself.
_LOG_WIDTH = mp.mpf("1e-20")
_GOLDEN = (mp.sqrt(5) - 1) / 2
# Largest constraint residual, relative to s, accepted at the minimum.
_ORDINATE_CHECK = mp.mpf("1e-40")


def residual(q1, q2, s, beta):
    """Unitarity residual beta*sqrt(p1*p2) + sqrt(q1*q2) - s at 50 digits."""
    q1, q2, s, beta = (mp.mpf(v) for v in (q1, q2, s, beta))
    return beta * mp.sqrt((1 - q1) * (1 - q2)) + mp.sqrt(q1 * q2) - s


def lower_q2(q1, s, beta):
    """Lower-half ordinate q2 at q1 (mpf arguments).

    The constraint is quadratic in ``x = sqrt(q2)``:
    ``R2*x**2 - 2*s*sqrt(q1)*x + c = 0`` with ``R2 = q1 + beta**2*(1-q1)``
    and ``c = s**2 - beta**2*(1-q1)``.  The smaller root is taken as
    ``c / (s*sqrt(q1) + sqrt(disc))``, which keeps all 50 digits even where
    ``x`` is tiny.  Squaring admits a spurious root, so :func:`qmin` checks
    its answer against the constraint itself.
    """
    b2 = beta * beta * (1 - q1)
    c = s * s - b2
    disc = b2 * (q1 + b2 - s * s)
    x = c / (s * mp.sqrt(q1) + mp.sqrt(disc))
    return x * x


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
        q2 = lower_q2(q1, s, beta)
        return e1 * q1 + e2 * q2, q1, q2

    a, b = mp.log((s - beta) / (1 - beta)), mp.zero
    best = min(objective(a), objective(b))
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > _LOG_WIDTH:
        if fc[0] < fd[0]:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(d)
    q, q1, q2 = min(best, fc, fd)
    # On the curve, and on its lower half: the minimum is attained.
    assert abs(residual(q1, q2, s, beta)) <= _ORDINATE_CHECK * s, (eta1, s, s_prime)
    assert q2 <= q1 / (q1 + beta * beta * (1 - q1)), (eta1, s, s_prime)
    return q, q1, q2

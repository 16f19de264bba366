"""Brute-force ground truth for the separation solvers.

Minimizes the average failure probability directly over the unitarity
curve, without touching any of the parametric machinery the closed-form
solvers are built on: at fixed q1 the constraint is ``a*cos(phi) +
b*sin(phi) = s`` in ``q2 = sin(phi)**2``, whose lower root has a closed
form (:func:`statesep.core.lower_half_q2`).  The feasible set is convex,
so the objective has a single minimum along the lower half of the curve,
from the diagonal crossing to q1 = 1, and keeps a single minimum in
``u = log(q1)``.  Golden-section search in ``u`` finds it one plain float
at a time, and every ordinate is checked back against the constraint
residual.  Used in tests and in ``statesep verify`` as the independent
check on every solver.  ``max_separation`` is judged in Q at the s' it
returns: wherever the budget binds, ``oracle_qmin`` there must meet it.
The minimum falls monotonically in s', so a judge in Q is equivalent to
one in s'.
"""

from __future__ import annotations

import math

from .core import FailurePoint, NumericError, OverlapSpec, Priors, _oriented, lower_half_q2

__all__ = ["oracle_qmin"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Largest constraint residual accepted at a computed curve ordinate.
_RESIDUAL_CHECK = 1e-9
# Width in log(q1) of the golden-section search's final bracket, so q1 is
# known to about 1e-12 of itself.
_LOG_WIDTH = 1e-12


def _diagonal_q(s: float, beta: float) -> float:
    """Point where the constraint curve crosses q1 = q2.

    On the diagonal the residual is beta*(1-q) + q - s, linear in q.
    """
    return (s - beta) / (1.0 - beta)


def _off_curve_error(residual: float, q1: float, s: float, beta: float) -> NumericError:
    return NumericError(
        f"curve ordinate off the constraint: residual {residual!r} above "
        f"{_RESIDUAL_CHECK!r} at q1={q1!r} (s={s!r}, beta={beta!r})"
    )


def _lower_q2_scalar(q1: float, s: float, beta: float) -> float:
    """One lower-half ordinate, checked against the constraint residual.

    beta = 0 takes the exact hyperbola ``s*s/q1``.
    """
    if beta == 0.0:
        return s * s / q1
    q2 = lower_half_q2(q1, s, beta)
    residual = abs(beta * math.sqrt((1.0 - q1) * (1.0 - q2)) + math.sqrt(q1 * q2) - s)
    if not residual <= _RESIDUAL_CHECK:
        raise _off_curve_error(residual, q1, s, beta)
    return q2


def oracle_qmin(pr: Priors, ov: OverlapSpec) -> tuple[float, FailurePoint]:
    """Minimum average failure probability by direct search on the curve.

    Golden-sections ``u = log(q1)`` along the lower half of the constraint
    curve, from its diagonal crossing to the endpoint (1, s^2), down to a
    bracket 1e-12 wide; the two ends of the lower half are candidates too.
    With eta1 <= 1/2 (oriented once, ``core._oriented``) each point of the
    upper half costs at least as much as its mirror on the lower half, so
    it is never searched; the answer's point is built once, mirrored back.
    """
    s, beta = ov.s, ov.s_prime
    if beta == s:
        # (0, 0) already satisfies the constraint: nothing ever fails.
        return 0.0, FailurePoint(0.0, 0.0)
    if s == 1.0:
        return 1.0, FailurePoint(1.0, 1.0)
    eta1, eta2, swapped = _oriented(pr)

    def point(q1: float) -> tuple[float, float, float]:
        """(average failure, q1, q2) at lower-half abscissa q1."""
        q2 = _lower_q2_scalar(q1, s, beta)
        return eta1 * q1 + eta2 * q2, q1, q2

    q_diag = _diagonal_q(s, beta)
    ends = (point(q_diag), (eta1 + eta2 * (s * s), 1.0, s * s))

    # The search compares values alone, so a tie moves the bracket's lower
    # end up; the final pick takes the smallest (Q, q1, q2), so among equal
    # values the smallest q1 wins.
    a, b = math.log(q_diag), 0.0
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = point(math.exp(c)), point(math.exp(d))
    while b - a > _LOG_WIDTH:
        if fc[0] < fd[0]:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = point(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = point(math.exp(d))
    q, q1, q2 = min(*ends, fc, fd)
    # Each candidate is in the unit square; prior-sum slack can lift Q past 1.
    return min(q, 1.0), (FailurePoint(q2, q1) if swapped else FailurePoint(q1, q2))


"""Brute-force ground truth for the separation solvers.

Minimizes the average failure probability directly over the unitarity
curve, without touching any of the parametric machinery the closed-form
solvers are built on: at fixed q1 the constraint is ``a*cos(phi) +
b*sin(phi) = s`` in ``q2 = sin(phi)**2``, whose lower root has a closed
form (:func:`statesep.core.lower_half_q2`).  A dense grid of that lower
half (4096 points, from the diagonal crossing to q1 = 1) picks
the best bracket, and golden-section search polishes it one plain float
at a time.  Every ordinate is checked back against the constraint
residual.  Used in tests and in ``statesep verify`` as the independent
check on every solver.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    SQRT_CLAMP_TOL,
    DomainError,
    FailureBudget,
    FailurePoint,
    NumericError,
    OverlapSpec,
    Priors,
    _off_range_error,
    _underflow_error,
    lower_half_q2,
)

__all__ = ["oracle_qmin", "oracle_max_separation"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Largest constraint residual accepted at a computed curve ordinate.
_RESIDUAL_CHECK = 1e-9
# Search effort: lower-half grid points, golden-section steps (which stop
# once the bracket in q1 is below 1e-2 of the tolerance), and the tolerance
# on s' of the max-separation bisection.
_GRID_SIZE = 4096
_REFINE_ITERS = 60
_TOLERANCE = 1e-8


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


def _lower_q2_grid(q1: np.ndarray, s: float, beta: float) -> np.ndarray:
    """Lower-half curve ordinates q2(q1): numpy twin of ``core.lower_half_q2``.

    The operations and their order are the scalar's, so each element has
    its bits; beta = 0 takes the exact hyperbola ``s*s/q1`` instead.
    """
    if beta == 0.0:
        return s * s / q1
    n0 = (s - beta) * (s + beta)
    d = q1 * (1.0 - beta) * (1.0 + beta) - n0
    off = d < -SQRT_CLAMP_TOL
    if off.any():
        raise _off_range_error(float(q1[np.argmax(off)]), s, beta)
    root = np.sqrt(np.where(d > 0.0, d, 0.0))
    den = np.sqrt(q1) * s + beta * np.sqrt(1.0 - q1) * root
    under = den == 0.0
    if under.any():
        raise _underflow_error(float(q1[np.argmax(under)]), s, beta)
    y = (n0 + beta * beta * q1) / den
    q2 = np.minimum(y * y, 1.0)
    residual = np.abs(beta * np.sqrt((1.0 - q1) * (1.0 - q2)) + np.sqrt(q1 * q2) - s)
    i = int(np.argmax(residual))
    if not residual[i] <= _RESIDUAL_CHECK:
        raise _off_curve_error(float(residual[i]), float(q1[i]), s, beta)
    return q2


def _lower_q2_scalar(q1: float, s: float, beta: float) -> float:
    """One lower-half ordinate, bit-identical to ``_lower_q2_grid`` at q1."""
    if beta == 0.0:
        return s * s / q1
    q2 = lower_half_q2(q1, s, beta)
    residual = abs(beta * math.sqrt((1.0 - q1) * (1.0 - q2)) + math.sqrt(q1 * q2) - s)
    if not residual <= _RESIDUAL_CHECK:
        raise _off_curve_error(residual, q1, s, beta)
    return q2


def _best_candidate(cand_q: np.ndarray, cand_q1: np.ndarray) -> int:
    """Index of the smallest Q; among ties, the first with the smallest q1.

    That is the head of a stable sort by (Q, q1), found in O(n).
    """
    ties = np.flatnonzero(cand_q == cand_q.min())
    return int(ties[np.argmin(cand_q1[ties])])


def oracle_qmin(pr: Priors, ov: OverlapSpec) -> tuple[FailureBudget, FailurePoint]:
    """Minimum average failure probability by exhaustive search on the curve.

    Sweeps the lower half of the constraint curve from its diagonal
    crossing to the endpoint (1, s^2) on a 4096-point grid in q1,
    evaluates the objective on both halves (mirror symmetry) plus the two
    endpoints, and golden-sections the best bracket (at most 60 steps, down
    to a width of 1e-10).
    """
    s, beta = ov.s, ov.s_prime
    prn, swapped = pr.normalized()

    def _ret(q: float, q1: float, q2: float) -> tuple[FailureBudget, FailurePoint]:
        pt = FailurePoint(min(max(q1, 0.0), 1.0), min(max(q2, 0.0), 1.0))
        return FailureBudget(min(max(q, 0.0), 1.0)), (pt.swapped() if swapped else pt)

    if beta == s:
        # (0, 0) already satisfies the constraint: nothing ever fails.
        return _ret(0.0, 0.0, 0.0)
    if s == 1.0:
        return _ret(1.0, 1.0, 1.0)

    q1 = np.linspace(_diagonal_q(s, beta), 1.0, _GRID_SIZE)
    q2 = _lower_q2_grid(q1, s, beta)

    # Both halves of the curve plus its endpoints are candidates.
    q_lower = prn.eta1 * q1 + prn.eta2 * q2
    q_upper = prn.eta1 * q2 + prn.eta2 * q1
    cand_q = np.concatenate([q_lower, q_upper])
    cand_q1 = np.concatenate([q1, q2])
    cand_q2 = np.concatenate([q2, q1])
    ends_q1 = np.array([1.0, s * s])
    ends_q2 = np.array([s * s, 1.0])
    cand_q = np.concatenate([cand_q, prn.eta1 * ends_q1 + prn.eta2 * ends_q2])
    cand_q1 = np.concatenate([cand_q1, ends_q1])
    cand_q2 = np.concatenate([cand_q2, ends_q2])

    best = _best_candidate(cand_q, cand_q1)
    best_q = float(cand_q[best])
    best_point = (float(cand_q1[best]), float(cand_q2[best]))

    # Golden-section polish around the best lower-half grid point.  The
    # objective along the lower half is convex (the curve slope increases
    # monotonically), so a three-point bracket is sound; with eta1 <= 1/2
    # the upper half can only tie the lower one on the diagonal.
    i = int(np.argmin(q_lower))
    lo = float(q1[max(i - 1, 0)])
    hi = float(q1[min(i + 1, len(q1) - 1)])

    def objective(x: float) -> tuple[float, float]:
        """Average failure at lower-half abscissa x, and the ordinate there."""
        y = _lower_q2_scalar(x, s, beta)
        return prn.eta1 * x + prn.eta2 * y, y

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    (fc, yc), (fd, yd) = objective(c), objective(d)
    for _ in range(_REFINE_ITERS):
        if b - a < _TOLERANCE * 1e-2:
            break
        if fc < fd:
            b, d, fd, yd = d, c, fc, yc
            c = b - _GOLDEN * (b - a)
            fc, yc = objective(c)
        else:
            a, c, fc, yc = c, d, fd, yd
            d = a + _GOLDEN * (b - a)
            fd, yd = objective(d)
    x, refined, y = (c, fc, yc) if fc < fd else (d, fd, yd)
    if refined < best_q:
        best_q = refined
        best_point = (x, y)

    return _ret(best_q, *best_point)


def oracle_max_separation(pr: Priors, s: float, q_max: float | FailureBudget) -> float:
    """Smallest final overlap whose minimum failure fits the budget.

    Bisects on s_prime, relying on the (test-verified) monotonicity of the
    oracle minimum in the target overlap.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s!r}")
    q_cap = float(q_max)
    if not 0.0 <= q_cap <= 1.0:
        raise DomainError(f"q_max must lie in [0, 1], got {q_cap!r}")

    def fits(s_prime: float) -> bool:
        q, _ = oracle_qmin(pr, OverlapSpec(s, s_prime))
        return float(q) <= q_cap

    if fits(0.0):
        return 0.0
    lo, hi = 0.0, s  # fits(s) is trivially true: zero failure at s' = s
    while hi - lo > _TOLERANCE:
        mid = 0.5 * (lo + hi)
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi

"""Independent numerical oracles shared by the test modules.

Everything here is deliberately written against the raw defining formulas
(constraint residual, dense grids, plain bisection) rather than the
package's own solvers, so agreement between the two is evidence and not
tautology.
"""

import numpy as np


def residual(q1, q2, s, beta):
    """Unitarity residual, vectorized, straight from its definition."""
    return beta * np.sqrt((1.0 - q1) * (1.0 - q2)) + np.sqrt(q1 * q2) - s


def dense_ud_min(eta1, s, n=20001, refine=80):
    """Minimum of eta1*q1 + eta2*q2 over the hyperbola q1*q2 = s**2.

    Dense grid over the full arc q1 in [s^2, 1] plus golden-section
    refinement of the best bracket; used as the ground truth for the
    discrimination closed form.
    """
    eta2 = 1.0 - eta1
    if s == 0.0:
        return 0.0
    q1 = np.linspace(s * s, 1.0, n)
    vals = eta1 * q1 + eta2 * s * s / q1
    i = int(np.argmin(vals))
    a, b = q1[max(i - 1, 0)], q1[min(i + 1, n - 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    f = lambda x: eta1 * x + eta2 * s * s / x
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(refine):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return min(float(vals[i]), float(fc), float(fd))


def curve_slope(q1, q2, beta):
    """Slope dq2/dq1 = -F_q1/F_q2 of the unitarity curve F = 0, from F's definition.

    With p_i = 1 - q_i, F_q1 = (sqrt(q2/q1) - beta*sqrt(p2/p1))/2 and
    F_q2 = (sqrt(q1/q2) - beta*sqrt(p1/p2))/2.
    """
    p1, p2 = 1.0 - q1, 1.0 - q2
    return -(np.sqrt(q2 / q1) - beta * np.sqrt(p2 / p1)) / (
        np.sqrt(q1 / q2) - beta * np.sqrt(p1 / p2)
    )


def lower_q2_bisect(q1, s, beta, iters=90):
    """Lower-half curve ordinate at fixed q1, by scalar bisection."""
    if beta == 0.0:
        return s * s / q1
    turn = q1 / (q1 + beta * beta * (1.0 - q1))
    lo, hi = 0.0, turn
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if residual(q1, mid, s, beta) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

"""Accuracy of the closed-form lower half against a 50-digit reference.

The reference never touches the package's curve code.  At fixed q1 it
writes q2 = sin(phi)**2, so the unitarity constraint reads
``a*cos(phi) + b*sin(phi) = s`` with ``a = beta*sqrt(1-q1)`` and
``b = sqrt(q1)``, and takes the lower root
``phi = atan2(b, a) - acos(s/R)`` in 50-digit arithmetic.  Each reference
point is then checked against the constraint residual itself and against
the turning point of the residual in q2, so a wrong reference fails here
rather than passing silently.
"""

import math

import mpmath
import numpy as np

from statesep.core import lower_half_q2
from statesep.oracle import _lower_q2_grid

# Absolute error allowed on q2, fixed before the first run.
BOUND = 2e-15
# Relative error allowed on q2: the rationalized form has no cancellation,
# so small ordinates keep the accuracy of large ones.
RELATIVE_BOUND = 2e-15

# A private context, so the working precision of other tests is untouched.
mp = mpmath.MPContext()
mp.dps = 50


def _reference_q2(q1: float, s: float, beta: float):
    q1m, sm, bm = mp.mpf(q1), mp.mpf(s), mp.mpf(beta)
    a = bm * mp.sqrt(1 - q1m)
    b = mp.sqrt(q1m)
    phi = mp.atan2(b, a) - mp.acos(sm / mp.hypot(a, b))
    q2 = mp.sin(phi) ** 2
    residual = bm * mp.sqrt((1 - q1m) * (1 - q2)) + mp.sqrt(q1m * q2) - sm
    assert abs(residual) < mp.mpf("1e-40"), (q1, s, beta)
    turn = q1m / (q1m + bm * bm * (1 - q1m))
    assert q2 <= turn + mp.mpf("1e-40"), (q1, s, beta)
    return q2


def _cases():
    """310 seeded (s, beta) pairs with ten q1 each: 3100 (q1, s, beta).

    beta/s runs from 1e-12 to 1 - 1e-9, plus ten pairs at beta = 0, where
    ``lower_half_q2`` has no shortcut and must still land on q2 = s**2/q1.
    """
    rng = np.random.Generator(np.random.Philox(key=8101))
    fracs = [0.0] * 10 + [1e-12, 1.0 - 1e-9]
    fracs += [float(f) for f in 10.0 ** rng.uniform(-12.0, 0.0, 148)]
    fracs += [float(1.0 - f) for f in 10.0 ** rng.uniform(-9.0, 0.0, 150)]
    for frac in fracs:
        s = float(rng.uniform(0.01, 0.99))
        beta = frac * s
        q_diag = (s - beta) / (1.0 - beta)
        q1s = [q_diag, 1.0] + [1.0 - k * 2.0**-53 for k in (1, 7, 45)]
        q1s += [float(x) for x in rng.uniform(q_diag, 1.0, 5)]
        yield s, beta, q1s


def test_closed_form_lower_half_matches_50_digit_reference():
    n = 0
    worst_scalar = worst_grid = worst_relative = 0.0
    for s, beta, q1s in _cases():
        grid = _lower_q2_grid(np.array(q1s), s, beta)
        for q1, q2_grid in zip(q1s, grid.tolist()):
            ref = _reference_q2(q1, s, beta)
            q2 = lower_half_q2(q1, s, beta)
            worst_scalar = max(worst_scalar, float(abs(q2 - ref)))
            worst_grid = max(worst_grid, float(abs(q2_grid - ref)))
            worst_relative = max(worst_relative, float(abs(q2 - ref) / ref))
            n += 1
    assert n >= 3000
    assert worst_scalar <= BOUND
    assert worst_grid <= BOUND
    assert worst_relative <= RELATIVE_BOUND


def test_lower_half_returns_the_diagonal_at_the_crossing():
    # At q1 = (s - beta)/(1 - beta) the curve crosses q1 = q2.  The float
    # crossing carries about 1 ulp of rounding, which the slope -1 there
    # doubles on q2 - q1, and the closed form adds a few more.  The form
    # is rationalized, so nothing cancels as beta -> s: 8 ulps flat.
    for s, beta, q1s in _cases():
        q_diag = q1s[0]
        grid = float(_lower_q2_grid(np.array([q_diag]), s, beta)[0])
        for q2 in (lower_half_q2(q_diag, s, beta), grid):
            ulps = abs(q2 - q_diag) / math.ulp(q_diag)
            assert ulps <= 8, (s, beta, q_diag, q2)

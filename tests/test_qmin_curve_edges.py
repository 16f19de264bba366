"""``qmin_curve`` against the 50-digit referee, out to the edges of its domain.

The sweep's domain is ``0 < s' < s <= 1``.  For each overlap it either
returns rows that are right, or raises ``NumericError``; it never raises
``DomainError`` for a valid overlap, and never leaks another exception.  A
row is right when its ``Q`` is within ``REL_TOL``, relative, of the
referee's minimum at the row's own ``eta1``.  A referee call costs several
milliseconds, so each sweep is judged at a few rows: the first one past
the vertex, the middle one and the last one.  Each strategy pushes ``s`` or
``s'/s`` to within 1e-12 of 0 or 1 (and to the edge itself) while the
other ranges over the whole domain.
"""

import sys

import pytest
from hypothesis import assume, example, given, settings

import qmin_referee
from edge_strategies import near_or_at, samples, unit_or_at
from statesep import NumericError, OverlapSpec, qmin_curve

REL_TOL = 1e-9

_EXAMPLES = settings(max_examples=16, deadline=None, derandomize=True)


def check_qmin_curve(s: float, s_prime: float, n: int) -> str:
    """``"answered"`` (and confirmed by the referee) or ``"refused"``."""
    try:
        rows = qmin_curve(OverlapSpec(s, s_prime), n)
    except NumericError:
        return "refused"
    for row in map(rows.__getitem__, sorted({1, n // 2, n - 1})):
        ref = float(qmin_referee.qmin(row.eta1, s, s_prime)[0])
        # Below the normal range a float has fewer digits than REL_TOL asks
        # for, so there the bound is relative to the smallest normal float.
        bound = REL_TOL * max(ref, sys.float_info.min)
        assert abs(row.q_min - ref) <= bound, (s, s_prime, n, row, ref)
    return "answered"


def check_fraction(s: float, frac: float, n: int) -> str:
    s_prime = frac * s
    assume(0.0 < s_prime < s)
    return check_qmin_curve(s, s_prime, n)


@_EXAMPLES
@given(s=near_or_at, frac=unit_or_at, n=samples)
@example(s=8.002035938234122e-30, frac=3.197006282588512e-30 / 8.002035938234122e-30, n=7)
@example(s=1.0626370286062564e-05, frac=1.062634972095687e-05 / 1.0626370286062564e-05, n=64)
def test_initial_overlap_near_zero(s, frac, n):
    check_fraction(s, frac, n)


@_EXAMPLES
@given(d=near_or_at, frac=unit_or_at, n=samples)
@example(d=0.0, frac=0.5, n=24)
# The tangency range spans about 40 ulps of t.
@example(d=1.934e-11, frac=0.9999822346754745, n=24)
def test_initial_overlap_near_one(d, frac, n):
    check_fraction(1.0 - d, frac, n)


@_EXAMPLES
@given(s=unit_or_at, frac=near_or_at, n=samples)
@example(s=0.6, frac=1e-9 / 0.6, n=512)
@example(s=1.101634294509729e-08, frac=1.5447711670666384e-18 / 1.101634294509729e-08, n=512)
def test_target_ratio_near_zero(s, frac, n):
    check_fraction(s, frac, n)


@_EXAMPLES
@given(s=unit_or_at, d=near_or_at, n=samples)
# t_slope_zero is 2.6e-7 off, relative, more than the range is wide, so
# most rows lie past the zero-slope end and must be that end.
@example(s=0.9999996220403191, d=2.612e-10, n=24)
def test_target_ratio_near_one(s, d, n):
    check_fraction(s, 1.0 - d, n)


@pytest.mark.parametrize(
    "s, s_prime, n",
    [
        # Rows 6.3e-2 off, relative, at s -> 0 with s' close to s.
        (1.0626370286062564e-05, 1.062634972095687e-05, 64),
        (0.6, 0.6e-12, 512),
        # Refused: a square root argument below the clamp tolerance.
        (0.6, 1e-9, 512),
        # Refused: q1 rounded to -2.2e-16 at the vertex.
        (8.002035938234122e-30, 3.197006282588512e-30, 7),
        # Refused: equal curve derivatives, so no tangent prior.
        (1.101634294509729e-08, 1.5447711670666384e-18, 512),
    ],
    ids=[
        "s-near-zero-wrong-rows",
        "sprime-over-s-1e-12",
        "clamp-at-small-sprime",
        "negative-q1-at-tiny-s",
        "equal-slopes",
    ],
)
def test_former_failures_are_answered(s, s_prime, n):
    assert check_qmin_curve(s, s_prime, n) == "answered"

"""``tradeoff_curve`` against the 50-digit referee, out to the edges of its domain.

The sweep's domain is every ``eta1`` in [0, 1] and ``0 < s < 1``.  For each
input it either returns rows that are right, or raises ``NumericError``; it
never raises ``DomainError`` for a valid input, and never leaks another
exception.  A row ``(s', Q)`` is right when ``Q`` is within ``REL_TOL`` of
the referee's minimum failure ``Q_min(s')`` at the sweep's prior, relative
to ``max(Q, smallest normal float)``.  ``Q(s')`` is ill-conditioned as
``s' -> s -> 1``, so ``s'`` gets ``qmin_referee.SLACK_ULPS`` ulps of
slack: ``Q`` must then lie between ``Q_min`` at ``s'`` moved that far up
and down.  ``qmin_referee.is_q_min`` is that judge, shared with
``test_max_separation_edges.py``.  A referee call costs milliseconds, so
each sweep is judged at three rows: 1, ``n // 2`` and ``n - 2``.

The strategies push ``s`` to 0 (subnormal values included) and to 1,
``eta1`` to 0 and to 1/2, and ``eta1`` onto the second-order transition
``s**2/(1 + s**2)``, where the sweep's two possible ends meet.  They
reach ``eta1`` in (0, 1e-9] too, where priors below ``1e-6*s**2`` take the
sweep's certainty closed form and the rest the angle sweep.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmin_referee
from edge_strategies import near, overlap, samples
from statesep import NumericError, Priors, tradeoff_curve

REL_TOL = 1e-9

_EXAMPLES = settings(max_examples=16, deadline=None, derandomize=True)

# A prior anywhere in (0, 1/2], often next to certainty or to 1/2.
prior = st.one_of(
    st.floats(0.0, 0.5, exclude_min=True),
    st.floats(-15.0, -1.0).map(lambda e: 10.0**e),
    near.map(lambda d: 0.5 - d),
)


def row_is_right(eta1: float, s: float, s_prime: float, q: float) -> bool:
    """Whether Q is the minimum failure at s', give or take SLACK_ULPS ulps of s'."""
    return qmin_referee.is_q_min(eta1, s, s_prime, q, REL_TOL * max(q, sys.float_info.min))


def check_tradeoff_curve(eta1: float, s: float, n: int) -> str:
    """``"answered"`` (and confirmed by the referee) or ``"refused"``."""
    try:
        rows = tradeoff_curve(Priors.of(eta1), s, n)
    except NumericError:
        return "refused"
    assert len(rows) == n
    for row in map(rows.__getitem__, sorted({1, n // 2, n - 2})):
        assert row_is_right(eta1, s, row.s_prime, row.q), (eta1, s, n, row)
    return "answered"


@_EXAMPLES
@given(eta1=prior, s=st.floats(-323.0, -1.0).map(lambda e: 10.0**e), n=samples)
@example(eta1=0.3, s=1e-160, n=512)
@example(eta1=0.3, s=1e-307, n=512)
@example(eta1=0.3, s=5e-324, n=24)
@example(eta1=1e-10, s=1e-4, n=24)  # the certainty closed form would be 9.3e-5 off
def test_initial_overlap_near_zero(eta1, s, n):
    if s > 0.0:
        check_tradeoff_curve(eta1, s, n)


@_EXAMPLES
@given(eta1=prior, d=near, n=samples, mirrored=st.booleans())
@example(eta1=0.16543972711991795, d=1.1102230246251565e-16, n=512, mirrored=False)
@example(eta1=4.13e-6, d=2.2424e-12, n=512, mirrored=True)
def test_initial_overlap_near_one(eta1, d, n, mirrored):
    s = 1.0 - d
    if s < 1.0:
        check_tradeoff_curve(1.0 - eta1 if mirrored else eta1, s, n)


@_EXAMPLES
@given(e=st.floats(-15.0, -1.0), s=overlap, n=samples, mirrored=st.booleans())
@example(e=math.log10(4.007445600139756e-08), s=0.7582373193779803, n=512, mirrored=False)
@example(e=math.log10(1.9302922127230343e-08), s=0.9710224874752635, n=512, mirrored=True)
def test_prior_near_certainty(e, s, n, mirrored):
    d = 10.0**e
    check_tradeoff_curve(1.0 - d if mirrored else d, s, n)


@_EXAMPLES
@given(d=st.one_of(near, st.just(0.0)), s=overlap, n=samples, above=st.booleans())
@example(d=0.5 - 0.4999999928165359, s=0.9999999999980536, n=512, above=False)
@example(d=4.9e-10, s=0.999999999999, n=24, above=True)  # the equal-prior closed form
def test_prior_near_one_half(d, s, n, above):
    check_tradeoff_curve(0.5 + d if above else 0.5 - d, s, n)


@_EXAMPLES
@given(s=overlap, ulps=st.integers(-4, 4), n=samples)
@example(s=0.6, ulps=0, n=512)
@example(s=1.0 - 1e-12, ulps=1, n=24)
def test_prior_at_the_second_order_transition(s, ulps, n):
    # eta1 = s**2/(1 + s**2) is where the sweep's end moves from theta = 0
    # (tangency) to the vanishing parabola bracket (lopsided priors).
    eta1 = s * s / (1.0 + s * s)
    for _ in range(abs(ulps)):
        eta1 = math.nextafter(eta1, 1.0 if ulps > 0 else 0.0)
    if eta1 > 0.0:
        check_tradeoff_curve(eta1, s, n)


@pytest.mark.parametrize(
    "eta1, s",
    [
        # Refused as out of order: Q saturated at 1, an interior Q above
        # q_ud, and a falling Q column.
        (0.16543972711991795, 0.9999999999999999),
        (0.01815023357532537, 0.999999791816749),
        (4.007445600139756e-08, 0.7582373193779803),
        # Refused by the negative-s'^2 and singular-angle guards.
        (1.9302922127230343e-08, 0.9710224874752635),
        (4.13e-6, 0.9999999999977576),
        # 21% off, then refused where cot(theta) overflowed.
        (0.3, 1e-160),
        (0.3, 1e-307),
        # theta_hi from acos fell below theta_lo.
        (0.4999999928165359, 0.9999999999980536),
    ],
    ids=[
        "q-saturates-at-1",
        "interior-q-above-q_ud",
        "q-falls-at-tiny-eta1",
        "negative-sp2",
        "singular-angle",
        "s-1e-160",
        "s-1e-307",
        "theta-hi-below-theta-lo",
    ],
)
def test_former_failures_are_answered(eta1, s):
    assert check_tradeoff_curve(eta1, s, 512) == "answered"


def test_s_delta_below_the_normal_range_is_refused():
    with pytest.raises(NumericError, match=r"s\*delta to be a normal float, got s\*delta=4e-321"):
        tradeoff_curve(Priors.of(0.3), 1e-320, 512)


def test_certainty_closed_form_is_off_next_to_certainty():
    # It was 9.9e-8 off here, when it took eta1 in (0, 1e-9] as 0.
    assert check_tradeoff_curve(1e-9, 0.1, 24) == "answered"


@pytest.mark.parametrize(
    "eta1, s",
    [(1e-300, 1e-300), (1e-200, 1e-100)],
    ids=["tau-plus-0-over-0", "q-numerator-0"],
)
def test_underflowing_angle_frame_is_refused(eta1, s):
    # Both leaked ZeroDivisionError: tau_plus's numerator and denominator
    # underflowed to 0 at the first, and the rows' Q numerator 2*r*w**3 at
    # the second.
    with pytest.raises(NumericError) as got:
        tradeoff_curve(Priors.of(eta1), s, 7)
    assert str(got.value) == (
        f"tradeoff sweep cannot resolve eta1={eta1!r} at s={s!r}: its angle frame "
        "underflows (r*w**3 = 0.0 is below the normal float range)"
    )


def test_tiny_overlaps_and_priors_answer_or_refuse():
    # s log-uniform over 1e-320..1 and eta1 over 1e-324..1/2.  Before the
    # frame's underflow check, 290 of these leaked ZeroDivisionError and 6
    # answered wrong rows.  Each sweep answers or raises NumericError, and
    # every 50th answer is judged (judging all 643 takes about 10 s).
    rng = np.random.default_rng(2501)
    answered = 0
    draws = 10.0 ** rng.uniform([-320.0, -324.0], [0.0, math.log10(0.5)], (1000, 2))
    for s, eta1 in draws.tolist():
        try:
            rows = tradeoff_curve(Priors.of(eta1), s, 7)
        except NumericError:
            continue
        if answered % 50 == 0:
            for row in (rows[1], rows[3], rows[5]):
                assert row_is_right(eta1, s, row.s_prime, row.q), (eta1, s, row)
        answered += 1
    assert answered == 643

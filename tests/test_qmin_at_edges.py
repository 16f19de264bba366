"""``qmin_at`` against the 50-digit referee, out to the edges of its domain.

The documented domain is every ``eta1`` in [0, 1] and ``0 <= s' <= s <= 1``.
For each input ``qmin_at`` either returns an answer whose ``Q`` is within
``Q_TOL`` of the referee's minimum and whose point is within
``RESIDUAL_TOL`` of the unitarity curve, or raises ``NumericError``.  It
never raises ``DomainError`` for a valid input, and never leaks another
exception.  Each strategy pushes one parameter to within 1e-12 of an edge
(and to the edge itself) while the others range over the whole domain.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmin_referee
from edge_strategies import near_or_at, unit_or_at
from statesep import NumericError, OverlapSpec, Priors, qmin_at
from statesep.solvers import _DEGENERATE_PRIOR_TOL

# Judged in Q, and in the returned point's constraint residual.
Q_TOL = 1e-8
RESIDUAL_TOL = 1e-9

_EXAMPLES = settings(max_examples=120, deadline=None, derandomize=True)


def check_qmin_at(eta1: float, s: float, s_prime: float) -> str:
    """``"answered"`` (and confirmed by the referee) or ``"refused"``."""
    try:
        q, pt = qmin_at(Priors.of(eta1), OverlapSpec(s, s_prime))
    except NumericError:
        return "refused"
    ref, _, _ = qmin_referee.qmin(eta1, s, s_prime)
    assert abs(q - ref) <= Q_TOL, (eta1, s, s_prime, q, float(ref))
    residual = qmin_referee.residual(pt.q1, pt.q2, s, s_prime)
    assert abs(residual) <= RESIDUAL_TOL, (eta1, s, s_prime, pt, float(residual))
    return "answered"


@_EXAMPLES
@given(eta1=unit_or_at, s=unit_or_at, frac=near_or_at)
@example(eta1=0.3, s=0.5, frac=1e-12)
@example(eta1=0.3, s=0.6, frac=1e-9 / 0.6)
@example(eta1=0.3, s=0.5, frac=1e-323)
@example(eta1=2.427136159006168e-127, s=2.427136159006168e-127, frac=2.427136159006168e-127)
@example(eta1=0.10320780595864278, s=1.101634294509729e-08, frac=1.4022540644979855e-10)
def test_target_overlap_near_zero(eta1, s, frac):
    check_qmin_at(eta1, s, frac * s)


@_EXAMPLES
@given(eta1=unit_or_at, d=near_or_at, frac=unit_or_at)
@example(eta1=0.3, d=1e-12, frac=0.5)
@example(eta1=4.13e-6, d=2.2424e-12, frac=1.0 - 1e-15)
# The closed-form ordinate rounds to 1.0000000000000004 at the vertex.
@example(eta1=0.0, d=1e-16, frac=4.0347645864651125e-13)
def test_initial_overlap_near_one(eta1, d, frac):
    s = 1.0 - d
    check_qmin_at(eta1, s, frac * s)


@_EXAMPLES
@given(eta1=unit_or_at, s=near_or_at, frac=unit_or_at)
@example(eta1=0.3, s=1e-300, frac=0.5)
@example(eta1=0.3, s=5e-324, frac=0.5)
@example(eta1=0.3, s=1.5e-154, frac=0.5)
@example(eta1=0.3, s=1e-150, frac=1e-100)
# f is of order 1e-280: Brent's extrapolation denominator underflows to 0.
@example(eta1=1.588885643864093e-140, s=1.588885643864093e-140, frac=0.5)
@example(eta1=0.3, s=8.002035938234122e-30, frac=3.197006282588512e-30 / 8.002035938234122e-30)
def test_initial_overlap_near_zero(eta1, s, frac):
    check_qmin_at(eta1, s, frac * s)


@_EXAMPLES
@given(d=near_or_at, s=unit_or_at, frac=unit_or_at, mirrored=st.booleans())
@example(d=0.0, s=0.6, frac=0.5, mirrored=False)
@example(d=1e-300, s=0.5, frac=1e-12, mirrored=True)
def test_prior_near_certainty(d, s, frac, mirrored):
    check_qmin_at(1.0 - d if mirrored else d, s, frac * s)


@_EXAMPLES
@given(
    d=st.one_of(near_or_at, st.floats(-17.0, -2.0).map(lambda e: 10.0**e)),
    s=unit_or_at,
    frac=unit_or_at,
    above=st.booleans(),
)
@example(d=0.5 * _DEGENERATE_PRIOR_TOL * (1.0 - 1e-3), s=0.6, frac=0.5, above=False)
@example(d=0.5 * _DEGENERATE_PRIOR_TOL * (1.0 + 1e-3), s=0.6, frac=0.5, above=False)
@example(d=0.5 * _DEGENERATE_PRIOR_TOL * (1.0 + 1e-3), s=0.8606296181953286, frac=1e-6, above=True)
def test_prior_near_one_half(d, s, frac, above):
    # |eta2 - eta1| = 2d runs from 0 to 2e-2, across _DEGENERATE_PRIOR_TOL.
    check_qmin_at(0.5 + d if above else 0.5 - d, s, frac * s)


@pytest.mark.parametrize(
    "eta1, s, s_prime, expected",
    [
        (0.3, 0.5, 5e-13, 0.45826),
        # The t-curve's tangent prior was singular here (equal derivatives).
        (0.10320780595864278, 1.101634294509729e-08, 1.5447711670666384e-18, 6.7030062669796e-09),
        # (s - s')(s + s') underflows to 0.
        (0.3, 1e-300, 5e-301, 4.5825756949558e-301),
    ],
    ids=["small-target", "equal-slopes", "s-squared-underflow"],
)
def test_former_failures_match_the_referee(eta1, s, s_prime, expected):
    assert check_qmin_at(eta1, s, s_prime) == "answered"
    ref, _, _ = qmin_referee.qmin(eta1, s, s_prime)
    assert math.isclose(float(ref), expected, rel_tol=1e-5)


@pytest.mark.parametrize(
    "eta1, s, s_prime",
    [
        (0.3, 1e-14, 5e-15),
        (1e-3, 1e-20, 5e-21),
        (1e-3, 1e-20, 1e-21),
        (0.3, 1e-12, 5e-13),
        (0.1, 1e-12, 1e-13),
        (0.45, 1e-12, 9e-13),
        (0.3, 0.5, 0.5 - 1e-12),
        (1e-300, 1e-150, 1e-162),
    ],
    ids=[
        "s-1e-14",
        "s-1e-20",
        "s-1e-20-small-target",
        "s-1e-12",
        "s-1e-12-eta-0.1",
        "s-1e-12-eta-0.45",
        "target-next-to-s",
        "stalled-root",
    ],
)
def test_small_vertex_answers_keep_their_relative_digits(eta1, s, s_prime):
    # With the vertex (s - s')/(1 - s') below 1e-6 the root is found in
    # log(q1).  Brent's absolute 1e-14 in q1 left these 3.7% off, 15 times
    # the minimum, and 2e-9, 2e-7 and 2e-5 off relatively.  At
    # stalled-root the tangency function is subnormal next to its root, so
    # Brent in log(q1) ran out of its 100 iterations and raised
    # NumericError; bisection on the function's sign now finishes it.
    q, _ = qmin_at(Priors.of(eta1), OverlapSpec(s, s_prime))
    ref, _, _ = qmin_referee.qmin(eta1, s, s_prime)
    assert abs(q - ref) <= 1e-9 * ref, (q, float(ref))


def edge_corpus(n: int, seed: int):
    """n seeded (eta1, s, s') cases, a third of each parameter near an edge.

    eta1 from (0.01, 0.5), log-uniform over 1e-12..1e-2, or that far below
    1/2; s from (0.05, 0.95), log-uniform over 1e-8..1e-1, or 1e-12..1e-1
    below 1; s'/s log-uniform over 1e-14..1.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(n):
        kind_eta, kind_s = rng.integers(0, 3, 2)
        eta1 = (
            rng.uniform(0.01, 0.5),
            10.0 ** rng.uniform(-12.0, -2.0),
            0.5 - 10.0 ** rng.uniform(-12.0, -2.0),
        )[kind_eta]
        s = (
            rng.uniform(0.05, 0.95),
            10.0 ** rng.uniform(-8.0, -1.0),
            1.0 - 10.0 ** rng.uniform(-12.0, -1.0),
        )[kind_s]
        frac = 10.0 ** rng.uniform(-14.0, 0.0)
        yield float(eta1), float(s), float(frac * s)


def test_edge_corpus_is_answered_and_confirmed():
    # The target is no refusals: every case has an answer, and gets it.
    outcomes = [check_qmin_at(*case) for case in edge_corpus(300, 1101)]
    assert outcomes.count("answered") == 300
    for eta1 in (0.0, 0.5, 1.0):  # the zero-slope end, the vertex, mirrored
        assert check_qmin_at(eta1, 0.6, 0.3) == "answered"


def underflow_corpus(n: int, seed: int):
    """n seeded (eta1, s, s') cases where (s - s')(s + s') underflows.

    eta1 log-uniform over 1e-12..1/2, s over 1e-300..1e-147 and
    s - s' over 1e-14..1 of s, kept where the product is subnormal or 0.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    cases = []
    while len(cases) < n:
        eta1 = 0.5 * 10.0 ** rng.uniform(-12.0, 0.0)
        s = 10.0 ** rng.uniform(-300.0, -147.0)
        s_prime = s * (1.0 - 10.0 ** rng.uniform(-14.0, 0.0))
        if 0.0 < s_prime < s and (s - s_prime) * (s + s_prime) < sys.float_info.min:
            cases.append((float(eta1), float(s), float(s_prime)))
    return cases


@pytest.mark.parametrize(
    "eta1, s, s_prime",
    # The vertex that qmin_at used to return here is 26.9 times the minimum.
    [(3.4639688583912255e-4, 3.2997198072130594e-150, 3.2997198072049243e-150)]
    + underflow_corpus(12, 1601),
)
def test_underflowing_vertex_product_keeps_its_relative_digits(eta1, s, s_prime):
    # Q_TOL is absolute, so it cannot see an error at this scale.
    q, pt = qmin_at(Priors.of(eta1), OverlapSpec(s, s_prime))
    ref, _, _ = qmin_referee.qmin(eta1, s, s_prime)
    assert abs(q - ref) <= 1e-9 * ref, (q, float(ref))
    assert abs(qmin_referee.residual(pt.q1, pt.q2, s, s_prime)) <= 1e-9 * s


@pytest.mark.parametrize(
    "eta1, s, s_prime",
    [
        # Once 2.0e-310, 38% below the minimum.
        (1e-300, 1e-150, 9.999999999e-151),
        # Once 0.66% off, at the zero-slope end.
        (1e-300, 3.2997198072130594e-150, 3.2997198072049243e-150),
    ],
    ids=["tangency", "zero-slope-end"],
)
def test_underflowing_vertex_product_refuses_a_coarse_hyperbola(eta1, s, s_prime):
    # beta*sqrt(eta2/eta1) is 1.0 and 3.3 here, far beyond 1e-12.
    with pytest.raises(NumericError, match=r"relative error term beta\*sqrt\(eta2/eta1\)"):
        qmin_at(Priors.of(eta1), OverlapSpec(s, s_prime))


def hyperbola_corpus(n: int, seed: int):
    """n seeded (eta1, s, s') cases on the hyperbola, across its error bound.

    s is log-uniform over 1e-160..1e-147 and s - s' over 1e-14..1 of s,
    kept where (s - s')(s + s') underflows; eta1 is set so that
    s'*sqrt(eta2/eta1) is log-uniform over 1e-16..1e-6, and kept where the
    minimum, about 2*sqrt(eta1)*(s - s'), is above 1e-310, so that relative
    digits can be judged.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    cases = []
    while len(cases) < n:
        s = 10.0 ** rng.uniform(-160.0, -147.0)
        s_prime = s * (1.0 - 10.0 ** rng.uniform(-14.0, 0.0))
        eta1 = (s_prime / 10.0 ** rng.uniform(-16.0, -6.0)) ** 2
        if (
            0.0 < s_prime < s
            and (s - s_prime) * (s + s_prime) < sys.float_info.min
            and 2.0 * math.sqrt(eta1) * (s - s_prime) > 1e-310
        ):
            cases.append((float(eta1), float(s), float(s_prime)))
    return cases


def test_hyperbola_answers_keep_their_relative_digits_or_refuse():
    outcomes = []
    for eta1, s, s_prime in hyperbola_corpus(40, 1901):
        try:
            q, _ = qmin_at(Priors.of(eta1), OverlapSpec(s, s_prime))
        except NumericError:
            assert s_prime * math.sqrt((1.0 - eta1) / eta1) > 1e-12
            outcomes.append("refused")
            continue
        ref, _, _ = qmin_referee.qmin(eta1, s, s_prime)
        assert abs(q - ref) <= 1e-9 * ref, (eta1, s, s_prime, q, float(ref))
        outcomes.append("answered")
    assert {"answered", "refused"} == set(outcomes)


def test_hyperbola_answers_a_certain_state_and_small_error_terms():
    # At eta1 = 0 the minimum is the zero-slope end itself, on the curve.
    q, _ = qmin_at(Priors.of(0.0), OverlapSpec(1e-150, 9.999999999e-151))
    ref, _, _ = qmin_referee.qmin(0.0, 1e-150, 9.999999999e-151)
    assert abs(q - ref) <= 1e-9 * ref
    # The error term is 1.8e-148 here: the answer keeps every bit.
    q, _ = qmin_at(
        Priors.of(3.4639688583912255e-4),
        OverlapSpec(3.2997198072130594e-150, 3.2997198072049243e-150),
    )
    assert q == 3.027643508732693e-163

"""``max_separation``, ``tradeoff_at`` and ``max_clones`` against the 50-digit referee.

The three share one kernel, the minimum of the final overlap along the
budget line.  For each input (priors, ``0 < s < 1`` and a budget from 0 to
the discrimination cost ``q_ud``) each of them either returns an answer
that is confirmed, or raises ``NumericError``.  None raises
``DomainError`` for a valid input or leaks another exception.

An overlap is judged in ``Q``, not in ``s'``: the least overlap ``s'`` that
a budget buys is right when the referee's minimum failure ``Q_min(s')`` is
within ``Q_TOL`` of the budget.  ``s'(Q)`` is ill-conditioned as
``s' -> s -> 1``, so ``s'`` gets ``qmin_referee.SLACK_ULPS`` ulps of
slack: the budget must lie between ``Q_min`` at ``s'`` moved that far up
and down (``qmin_referee.is_q_min``).  At ``s' = 0`` the budget need only
cover ``Q_min(0)``: a budget above the discrimination cost buys full
separation too.

A count of clones ``n`` is judged without the referee, on the ``s'`` that
``max_separation`` returned and the referee has just confirmed for the same
input: ``n`` clones fit exactly when ``s**(n+1) < s' <= s**n``, each end
widened by the slack that ``max_clones``' floor and ``s'`` itself carry,
and ``n`` is ``UNBOUNDED`` exactly when ``s'`` is 0.  Each strategy pushes
one parameter to within 1e-12 of an edge while the others range over the
whole domain.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qmin_referee
from edge_strategies import near, overlap, unit
from statesep import (
    UNBOUNDED,
    NumericError,
    OverlapSpec,
    Priors,
    max_clones,
    max_separation,
    q_ud,
    qmin_at,
    tradeoff_at,
)

# Relative to the budget, so that tiny budgets are judged too.  Below about
# 1e-292 the absolute floor Q_FLOOR takes over: subnormal budgets carry too
# few digits to be judged relatively.
Q_TOL = 1e-8
Q_FLOOR = 1e-300

_EXAMPLES = settings(max_examples=50, deadline=None, derandomize=True)


def tol(q: float) -> float:
    return Q_TOL * q + Q_FLOOR


def confirms(eta1: float, s: float, q: float, s_prime: float) -> bool:
    """Whether s_prime is the least overlap budget q buys, give or take SLACK_ULPS ulps."""
    if s_prime == 0.0:
        return float(qmin_referee.qmin(eta1, s, 0.0)[0]) <= q + tol(q)
    return qmin_referee.is_q_min(eta1, s, s_prime, q, tol(q))


def counts_clones(s: float, s_prime: float, n: float) -> bool:
    """Whether n is the number of clones of overlap s that overlap s_prime allows."""
    if n == UNBOUNDED or s_prime == 0.0:
        return n == UNBOUNDED and s_prime == 0.0
    if n != int(n) or n < 1:
        return False
    # max_clones floors log(s')/log(s) + 1e-12, which admits an overlap up
    # to that much of s**n above it; s' itself carries SLACK_ULPS ulps.
    rel = 1e-12 * -math.log(s) + qmin_referee.SLACK_ULPS * 2.0**-52
    return s ** (n + 1) * (1.0 - rel) <= s_prime <= min(s**n * (1.0 + rel), s)


def check(eta1: float, s: float, q: float) -> list[str]:
    """``"answered"`` (and confirmed) or ``"refused"`` for each of the three solvers."""
    pr = Priors.of(eta1)
    outcomes = []
    s_prime = None
    try:
        s_prime, _ = max_separation(pr, s, q)
    except NumericError:
        outcomes.append("refused")
    else:
        assert 0.0 <= s_prime <= s, (eta1, s, q, s_prime)
        assert confirms(eta1, s, q, s_prime), (eta1, s, q, s_prime)
        outcomes.append("answered")
    try:
        smp = tradeoff_at(pr, s, q)
    except NumericError:
        outcomes.append("refused")
    else:
        # A budget at or above the discrimination cost (within 1e-13 of
        # it) is not spent.
        spent = smp.q
        assert spent == q or (smp.s_prime == 0.0 and spent <= q + 1e-13 * spent), (eta1, s, q, smp)
        assert confirms(eta1, s, spent, smp.s_prime), (eta1, s, q, smp)
        outcomes.append("answered")
    try:
        n = max_clones(s, q, pr)
    except NumericError:
        outcomes.append("refused")
    else:
        # max_separation answered and was confirmed above.
        assert s_prime is not None and counts_clones(s, s_prime, n), (eta1, s, q, s_prime, n)
        outcomes.append("answered")
    return outcomes


def check_fraction(eta1: float, s: float, frac: float) -> list[str]:
    """:func:`check` at the budget ``frac * q_ud``."""
    return check(eta1, s, frac * q_ud(Priors.of(eta1), s))


@_EXAMPLES
@given(eta1=unit, d=near, frac=unit)
@example(eta1=4.13e-6, d=2.2424e-12, frac=0.5)
@example(eta1=0.3, d=1e-16, frac=0.5)
def test_initial_overlap_near_one(eta1, d, frac):
    s = 1.0 - d
    assume(s < 1.0)
    check_fraction(eta1, s, frac)


@_EXAMPLES
@given(eta1=unit, s=near, frac=unit)
@example(eta1=0.3, s=1e-300, frac=0.5)
@example(eta1=0.3, s=5e-324, frac=0.5)
def test_initial_overlap_near_zero(eta1, s, frac):
    check_fraction(eta1, s, frac)


@_EXAMPLES
@given(
    d=st.one_of(near, st.floats(-17.0, -2.0).map(lambda e: 10.0**e)),
    s=overlap,
    frac=unit,
    above=st.booleans(),
)
# |eta2 - eta1| just below and just above the former equal-prior cutoff 1e-9.
@example(d=0.5e-9 * (1.0 - 1e-3), s=0.6, frac=0.5, above=False)
@example(d=0.5e-9 * (1.0 + 1e-3), s=0.6, frac=0.5, above=False)
@example(d=0.5e-9 * (1.0 + 1e-3), s=0.8606296181953286, frac=0.3, above=True)
def test_prior_near_one_half(d, s, frac, above):
    check_fraction(0.5 + d if above else 0.5 - d, s, frac)


@_EXAMPLES
@given(d=near, s=overlap, frac=unit, mirrored=st.booleans())
@example(d=1.4e-10, s=8.31147688550587e-08, frac=0.99, mirrored=True)
@example(d=1e-300, s=0.5, frac=0.5, mirrored=False)
def test_prior_near_certainty(d, s, frac, mirrored):
    check_fraction(1.0 - d if mirrored else d, s, frac)


@_EXAMPLES
@given(eta1=unit, s=overlap, frac=near)
@example(eta1=0.3, s=0.6, frac=1e-300)
@example(eta1=0.3, s=1e-12, frac=1e-6)
def test_budget_near_zero(eta1, s, frac):
    check_fraction(eta1, s, frac)


@_EXAMPLES
@given(eta1=unit, s=overlap, d=near)
@example(eta1=0.3, s=0.6, d=1e-13)
@example(eta1=0.0, s=0.6, d=1e-12)
def test_budget_near_the_discrimination_cost(eta1, s, d):
    check_fraction(eta1, s, 1.0 - d)


@pytest.mark.parametrize(
    "eta1, s, q",
    [
        # s next to 1: an s' whose Q_min was 0.37, s' = s, and a refusal
        # (no sign change over the former angle bracket).
        (4.13e-6, 0.9999999999977576, 0.5),
        (0.4999998493953738, 0.9999999987250643, 0.7017249781547051),
        (0.9618, 0.9999998373, 0.9999996862),
        # |delta| about 4e-9, just above the former equal-prior cutoff: 2e-6 off in Q.
        (0.5000000019417503, 0.8606296181953286, 0.2421085643463361),
        # eta1 = 1.4e-10 with a budget between s**2 and q_ud: the former
        # certainty closed form had no root there and refused.
        (0.9999999998638587, 8.31147688550587e-08, 7.185772627703329e-13),
    ],
    ids=[
        "s-near-one-q-0.5",
        "s-near-one-delta-3e-7",
        "s-near-one-refused",
        "delta-4e-9",
        "certainty-budget",
    ],
)
def test_former_failures_are_answered_and_confirmed(eta1, s, q):
    assert check(eta1, s, q) == ["answered"] * 3


@pytest.mark.parametrize(
    "eta1, q", [(0.3, 0.3), (0.4, 0.6), (0.5, 0.5)], ids=["q-eta1", "q-eta2", "both"]
)
def test_budget_line_through_a_corner_of_the_square(eta1, q):
    # Q = eta1 or Q = eta2 puts an end of the budget line on a corner of
    # the unit square, where beta is infinite but H vanishes.
    assert check(eta1, 0.9, q) == ["answered"] * 3


def test_priors_summing_above_one_stay_in_the_domain():
    # Priors may sum to 1 + 1e-12; next to s = 1 their discrimination cost
    # and the objective round above 1, which the solvers cap at 1.
    pr, s = Priors(5e-13, 1.0), 1.0 - 1e-14
    assert q_ud(pr, s) == 1.0
    assert qmin_at(pr, OverlapSpec(s, 0.0))[0] == 1.0
    assert tradeoff_at(pr, s, 1.0).q == 1.0
    s_prime, _ = max_separation(pr, s, 0.5)
    assert confirms(5e-13, s, 0.5, s_prime)
    assert tradeoff_at(pr, s, 0.5).s_prime == s_prime
    assert counts_clones(s, s_prime, max_clones(s, 0.5, pr))


def edge_budgets(n: int, seed: int):
    """n seeded (eta1, s, budget) cases, a third of each parameter near an edge.

    eta1 from (0.01, 0.5), log-uniform over 1e-12..1e-2, or that far below
    1/2; s from (0.05, 0.95), log-uniform over 1e-8..1e-1, or 1e-12..1e-1
    below 1; the budget a fraction of q_ud from (0.01, 0.99), or
    log-uniformly 1e-12..1e-2 from 0 or from 1.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(n):
        kind_eta, kind_s, kind_q = rng.integers(0, 3, 3)
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
        d = 10.0 ** rng.uniform(-12.0, -2.0)
        frac = (rng.uniform(0.01, 0.99), d, 1.0 - d)[kind_q]
        yield float(eta1), float(s), float(frac * q_ud(Priors.of(float(eta1)), float(s)))


def test_edge_corpus_is_answered_and_confirmed():
    # The target is no refusals: every case has an answer, and gets it.
    for case in edge_budgets(200, 1401):
        assert check(*case) == ["answered"] * 3, case

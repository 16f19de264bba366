import __future__
import copy
import hashlib
import inspect
import math
import pickle
import re
import sys
import textwrap

import mpmath
import numpy as np
import pytest

from statesep import (
    UNBOUNDED,
    DomainError,
    FailurePoint,
    NumericError,
    OverlapSpec,
    Priors,
    QminSample,
    TradeoffSample,
    critical_overlap,
    curve_point,
    max_clones,
    max_separation,
    phase_transition_probe,
    q_ud,
    qmin_at,
    qmin_curve,
    t_slope_minus_one,
    t_slope_zero,
    tradeoff_at,
    tradeoff_curve,
    ud_tangency_point,
    unitarity_residual,
)

import helpers
import qmin_referee
import test_qmin_at_edges
from statesep import conics, solvers
from statesep.solvers import _EPS


# ---------------------------------------------------------------------------
# unambiguous discrimination closed form


def test_q_ud_equal_priors_is_s():
    assert q_ud(Priors.of(0.5), 0.6) == pytest.approx(0.6, abs=1e-15)


def test_q_ud_pivot_branches():
    # eta1 = 0.1 < s^2/(1+s^2) ~ 0.2647: pivot branch eta1 + s^2*eta2.
    assert q_ud(Priors.of(0.1), 0.6) == pytest.approx(0.424, abs=1e-15)
    # Swap symmetry puts eta1 = 0.9 on the mirrored branch, same value.
    assert q_ud(Priors.of(0.9), 0.6) == pytest.approx(0.424, abs=1e-15)


@pytest.mark.parametrize("eta1", [0.02, 0.1, 0.2647, 0.4, 0.5, 0.7, 0.95])
@pytest.mark.parametrize("s", [0.15, 0.45, 0.75])
def test_q_ud_matches_dense_minimization(eta1, s):
    dense = helpers.dense_ud_min(eta1, s)
    assert q_ud(Priors.of(eta1), s) == pytest.approx(dense, abs=1e-8)


def test_ud_tangency_point_is_optimal():
    for eta1, s in ((0.4, 0.6), (0.1, 0.6), (0.95, 0.3)):
        pr = Priors.of(eta1)
        pt = ud_tangency_point(pr, s)
        assert pt.q1 * pt.q2 == pytest.approx(s * s, abs=1e-12)
        q = pr.eta1 * pt.q1 + pr.eta2 * pt.q2
        assert q == pytest.approx(q_ud(pr, s), abs=1e-12)


@pytest.mark.parametrize("eta1", [0.1, 0.3, 0.5, 0.9])  # both pivots and the tangency
@pytest.mark.parametrize("s", [0.0, 0.6, 1, np.float64(0.6)], ids=repr)
def test_q_ud_is_a_plain_float(eta1, s):
    assert type(q_ud(Priors.of(eta1), s)) is float


@pytest.mark.parametrize("swap", [False, True], ids=["eta1-small", "eta1-large"])
def test_ud_point_next_to_the_regime_edge_is_answered(swap):
    # One float inside the tangency regime the tangency point's larger
    # coordinate rounds to 1.0000000000000002; it is the edge's own 1, for
    # ud_tangency_point and qmin_at at s' = 0 alike, and the 50-digit
    # referee confirms qmin_at's answer.
    eta1, s = 0.003420228673775402, 0.05858299057730698
    assert eta1 == math.nextafter(s * s / (1.0 + s * s), 1.0)
    pr = Priors.of(eta1).swapped() if swap else Priors.of(eta1)
    for pt in (ud_tangency_point(pr, s), qmin_at(pr, OverlapSpec(s, 0.0))[1]):
        assert max(pt.q1, pt.q2) == 1.0
    assert test_qmin_at_edges.check_qmin_at(eta1, s, 0.0) == "answered"


def test_ud_at_a_zero_prior_inside_the_tangency_regime_does_not_divide_by_zero():
    # Priors that sum to 1 within their 1e-12 slack can put eta2 = 0 inside
    # the tangency regime where s is below about 1e-6.  The cost is
    # 2*sqrt(eta1*eta2)*s = 0, and the point has q2 at the edge's 1.
    pr = Priors(1.0 - 5e-13, 0.0)
    assert q_ud(pr, 1e-7) == 0.0
    assert ud_tangency_point(pr, 1e-7) == FailurePoint(0.0, 1.0)


# ---------------------------------------------------------------------------
# curve parametrization


def test_curve_point_vertex():
    ov = OverlapSpec(0.6, 0.3)
    pt = curve_point(t_slope_minus_one(ov), ov)
    expected = (0.6 - 0.3) / (1.0 - 0.3)
    assert pt.q1 == pytest.approx(expected, abs=1e-12)
    assert pt.q2 == pytest.approx(expected, abs=1e-12)


def test_curve_point_flat_end():
    ov = OverlapSpec(0.6, 0.3)
    pt = curve_point(t_slope_zero(ov), ov)
    expected = (0.36 - 0.09) / (1.0 - 0.09)
    assert pt.q2 == pytest.approx(expected, abs=1e-12)


def test_curve_point_on_constraint():
    for s, sp in ((0.6, 0.3), (0.9, 0.05), (0.2, 0.19)):
        ov = OverlapSpec(s, sp)
        for t in np.linspace(t_slope_minus_one(ov), t_slope_zero(ov), 101):
            pt = curve_point(float(t), ov)
            assert abs(unitarity_residual(pt, ov)) <= 1e-12
            assert pt.q2 <= pt.q1 + 1e-12


def test_curve_point_range_errors():
    ov = OverlapSpec(0.6, 0.3)
    with pytest.raises(DomainError):
        curve_point(t_slope_minus_one(ov) - 1e-3, ov)
    with pytest.raises(DomainError):
        curve_point(t_slope_zero(ov) + 1e-3, ov)
    with pytest.raises(DomainError):
        t_slope_minus_one(OverlapSpec(0.6, 0.0))


# ---------------------------------------------------------------------------
# minimum failure probability sweeps


def test_qmin_curve_endpoints():
    s, sp = 0.6, 0.3
    samples = qmin_curve(OverlapSpec(s, sp), 65)
    first, last = samples[0], samples[-1]
    assert first.eta1 == pytest.approx(0.5, abs=1e-12)
    assert first.q_min == pytest.approx((s - sp) / (1 - sp), abs=1e-12)
    assert last.eta1 == pytest.approx(0.0, abs=1e-12)
    assert last.q_min == pytest.approx((s * s - sp * sp) / (1 - sp * sp), abs=1e-12)


def test_qmin_curve_monotone_and_consistent():
    for s, sp in ((0.6, 0.05), (0.6, 0.3), (0.6, 0.59), (0.85, 0.4)):
        samples = qmin_curve(OverlapSpec(s, sp), 129)
        etas = [smp.eta1 for smp in samples]
        qs = [smp.q_min for smp in samples]
        assert all(b <= a + 1e-10 for a, b in zip(etas, etas[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(qs, qs[1:]))
        for smp in samples:
            recomputed = smp.eta1 * smp.point.q1 + (1 - smp.eta1) * smp.point.q2
            assert smp.q_min == pytest.approx(recomputed, abs=1e-12)


def test_qmin_curve_slope_runs_minus_one_to_zero():
    s, sp = 0.6, 0.3
    samples = qmin_curve(OverlapSpec(s, sp), 257)
    slopes = [smp.dq2_dt / smp.dq1_dt for smp in samples[1:]]
    assert all(b >= a - 1e-10 for a, b in zip(slopes, slopes[1:]))
    assert slopes[-1] == pytest.approx(0.0, abs=1e-10)
    assert math.isinf(samples[0].dq1_dt)  # vertex derivatives blow up
    # Each interior row's slope is the constraint's, -F_q1/F_q2 at its point.
    for smp, slope in zip(samples[1:-1], slopes):
        q1, q2 = smp.point.q1, smp.point.q2
        assert slope == pytest.approx(helpers.curve_slope(q1, q2, sp), abs=1e-14)


def test_qmin_curve_vanishes_as_separation_vanishes():
    samples = qmin_curve(OverlapSpec(0.6, 0.6 - 1e-9), 33)
    assert max(smp.q_min for smp in samples) < 1e-8


def test_qmin_at_equal_priors_closed_form():
    q, pt = qmin_at(Priors.of(0.5), OverlapSpec(0.6, 0.3))
    assert q == pytest.approx(3.0 / 7.0, abs=1e-12)
    assert pt.q1 == pytest.approx(pt.q2, abs=1e-12)


def test_qmin_at_dispatches_to_ud():
    for eta1 in (0.05, 0.3, 0.5, 0.8):
        q, pt = qmin_at(Priors.of(eta1), OverlapSpec(0.6, 0.0))
        assert q == pytest.approx(q_ud(Priors.of(eta1), 0.6), abs=1e-15)
        assert abs(unitarity_residual(pt, OverlapSpec(0.6, 0.0))) <= 1e-12


def test_qmin_at_trivial_and_degenerate():
    q, pt = qmin_at(Priors.of(0.3), OverlapSpec(0.6, 0.6))
    assert q == 0.0 and pt == FailurePoint(0.0, 0.0)
    q, pt = qmin_at(Priors.of(0.3), OverlapSpec(1.0, 0.5))
    assert q == 1.0 and pt == FailurePoint(1.0, 1.0)


def test_qmin_at_swap_normalization():
    ov = OverlapSpec(0.6, 0.3)
    q_lo, pt_lo = qmin_at(Priors.of(0.2), ov)
    q_hi, pt_hi = qmin_at(Priors.of(0.8), ov)
    assert q_lo == pytest.approx(q_hi, abs=1e-12)
    assert (pt_hi.q1, pt_hi.q2) == pytest.approx((pt_lo.q2, pt_lo.q1), abs=1e-12)
    assert pt_lo.q1 >= pt_lo.q2  # lower half for eta1 <= 1/2


def test_qmin_at_point_is_tangent_and_feasible():
    for eta1, s, sp in ((0.17, 0.6, 0.3), (0.05, 0.8, 0.4), (0.45, 0.3, 0.12)):
        pr = Priors.of(eta1)
        ov = OverlapSpec(s, sp)
        q, pt = qmin_at(pr, ov)
        assert abs(unitarity_residual(pt, ov)) <= 1e-12
        assert pr.eta1 * pt.q1 + pr.eta2 * pt.q2 == pytest.approx(q, abs=1e-14)


def _qmin_branch(s, s_prime, pt, roots):
    """The return branch of qmin_at that gave ``pt``, calling Brent ``roots``."""
    if s_prime == s:
        return "s'=s"
    if s == 1.0:
        return "s=1"
    if s_prime == 0.0:
        return "s'=0"
    if (s - s_prime) * (s + s_prime) < sys.float_info.min:
        return "hyperbola"
    if roots:
        return roots[0]
    if pt.q1 == pt.q2 == (s - s_prime) / (1.0 - s_prime):
        return "vertex"
    assert pt.q1 == solvers._zero_slope_end(s, s_prime)[0]
    return "zero-slope end"


@pytest.mark.parametrize(
    "eta1, s, s_prime, branch",
    [
        (0.3, 0.6, 0.6, "s'=s"),
        (0.3, 1.0, 0.5, "s=1"),
        (0.3, 0.6, 0.0, "s'=0"),
        (3.4639688583912255e-4, 3.2997198072130594e-150, 3.2997198072049243e-150, "hyperbola"),
        (0.0, 1e-150, 9.999999999e-151, "hyperbola"),
        (0.5, 0.6, 0.3, "vertex"),
        (0.0, 0.6, 0.06, "zero-slope end"),
        (0.3, 0.6, 0.3, "tangency abscissa q1"),
        (0.3, 0.6, 0.6 - 1e-7, "tangency abscissa log(q1)"),
        (0.7, 0.6, 0.3, "tangency abscissa q1"),
    ],
    ids=[
        "s'=s", "s=1", "s'=0", "hyperbola-tangency", "hyperbola-end", "vertex",
        "zero-slope-end", "brent-q1", "brent-log-q1", "mirrored",
    ],
)
def test_qmin_at_budget_is_a_plain_float_on_every_branch(monkeypatch, eta1, s, s_prime, branch):
    roots = []
    bracketed_root = solvers._bracketed_root

    def spy(f, lo, hi, what, f_lo, f_hi):
        roots.append(what)
        return bracketed_root(f, lo, hi, what, f_lo, f_hi)

    monkeypatch.setattr(solvers, "_bracketed_root", spy)
    pr = Priors.of(eta1)
    q, pt = qmin_at(pr, OverlapSpec(s, s_prime))
    assert type(q) is float
    _, swapped = pr.normalized()
    assert _qmin_branch(s, s_prime, pt.swapped() if swapped else pt, roots) == branch


def test_qmin_bounded_by_ud_and_decreasing_in_target():
    s = 0.7
    for eta1 in (0.1, 0.3, 0.5):
        pr = Priors.of(eta1)
        qud = q_ud(pr, s)
        prev = None
        for sp in (0.0, 0.2 * s, 0.5 * s, 0.8 * s):
            q = qmin_at(pr, OverlapSpec(s, sp))[0]
            assert q <= qud + 1e-12
            if prev is not None:
                assert q <= prev + 1e-12  # cheaper as the target loosens
            prev = q
        assert qmin_at(pr, OverlapSpec(s, 0.0))[0] == pytest.approx(qud, abs=1e-15)


@pytest.mark.parametrize("eta1", [1e-9, 0.05, 0.3, 0.5])
@pytest.mark.parametrize("s", [1e-6, 0.5, 0.99])
def test_qmin_at_reaches_the_discrimination_cost(eta1, s):
    # Every protocol at s' satisfies sqrt(q1*q2) >= s - s', so
    # q_ud(s - s') <= Q_min(s') <= q_ud(s), and q_ud's slope in s is at
    # most 2: Q_min must reach the Jaeger-Shimony cost q_ud(s) linearly as
    # s' -> 0.
    pr = Priors.of(eta1)
    qud = q_ud(pr, s)
    for frac in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-100, 1e-300, 5e-324):
        sp = frac * s
        q = qmin_at(pr, OverlapSpec(s, sp))[0]
        assert qud - 2.0 * sp - 4.0 * _EPS * qud <= q <= qud + 4.0 * _EPS * qud, (frac, q, qud)


# ---------------------------------------------------------------------------
# maximum separation under a budget


def test_max_separation_worked_example():
    sp, theta = max_separation(Priors.of(0.3), 0.4, 0.35)
    assert sp == pytest.approx(0.032, abs=1e-3)
    assert float(theta) < 0.0


def test_max_separation_equal_priors_closed_form():
    for s in (0.3, 0.6, 0.9):
        for q in (0.0, 0.1, 0.25):
            sp, _ = max_separation(Priors.of(0.5), s, q)
            expected = 0.0 if s <= q else (s - q) / (1.0 - q)
            assert sp == pytest.approx(expected, abs=1e-12)


def test_max_separation_trivial_when_budget_covers_ud():
    pr = Priors.of(0.2)
    qud = q_ud(pr, 0.5)
    assert max_separation(pr, 0.5, qud)[0] == 0.0
    assert max_separation(pr, 0.5, min(qud + 0.1, 0.99))[0] == 0.0


def test_max_separation_zero_budget_recovers_identity():
    for eta1 in (0.1, 0.3, 0.5):
        sp, _ = max_separation(Priors.of(eta1), 0.37, 0.0)
        assert sp == pytest.approx(0.37, abs=1e-9)
    # Its angle is the tradeoff sweep's first label, bit for bit.
    for eta1 in (0.1, 0.3):
        pr = Priors.of(eta1)
        assert max_separation(pr, 0.37, 0.0)[1] == tradeoff_curve(pr, 0.37, 24)[0].theta


def test_max_separation_matches_qmin_inverse():
    # If separating to s' costs Q_min, then budget Q_min buys overlap s'.
    for eta1, s, sp in ((0.17, 0.6, 0.3), (0.35, 0.8, 0.1), (0.07, 0.45, 0.28)):
        pr = Priors.of(eta1)
        q = qmin_at(pr, OverlapSpec(s, sp))[0]
        back, _ = max_separation(pr, s, q)
        assert back == pytest.approx(sp, abs=1e-8)


def test_max_separation_certainty_prior():
    # eta1 = 0: only the second input matters; invert q2_min = (s^2-s'^2)/(1-s'^2).
    s, q = 0.6, 0.2
    sp, _ = max_separation(Priors.of(0.0), s, q)
    assert sp == pytest.approx(math.sqrt((s * s - q) / (1 - q)), abs=1e-12)


@pytest.mark.parametrize("solver", ["max_separation", "max_clones", "tradeoff_at"])
def test_certainty_priors_answer_budgets_between_s_squared_and_q_ud(solver):
    # eta1 = 1.4e-10 once took a certainty closed form, which has no root
    # for a budget between s^2 and q_ud = eta1 + s^2*eta2 and refused it.
    # The budget line answers, and the referee confirms the answer.
    pr, s, q = Priors.of(0.9999999998638587), 8.31147688550587e-08, 7.185772627703329e-13
    assert s * s < q < q_ud(pr, s)

    def q_min(overlap):
        return qmin_referee.qmin(pr.eta1, s, overlap)[0]

    if solver == "max_clones":
        # n clones of overlap s fit in the budget, and n + 1 do not.
        n = max_clones(s, q, pr)
        assert q_min(s**n) <= q < q_min(s ** (n + 1))
    else:
        if solver == "max_separation":
            s_prime, _ = max_separation(pr, s, q)
        else:
            s_prime = tradeoff_at(pr, s, q).s_prime
        assert abs(q_min(s_prime) - q) <= 1e-8 * q


def test_critical_overlap_values():
    assert critical_overlap(Priors.of(0.5), 0.2) == pytest.approx(0.2, abs=1e-15)
    assert critical_overlap(Priors.of(0.1), 0.4) == pytest.approx(
        math.sqrt((0.4 - 0.1) / 0.9), abs=1e-15
    )
    # A certain state with no budget: no division by sqrt(0).
    assert critical_overlap(Priors.of(1.0), 0.0) == 0.0


def test_critical_overlap_is_the_onset():
    for eta1, q in ((0.5, 0.2), (0.1, 0.4), (0.3, 0.15)):
        pr = Priors.of(eta1)
        s_cr = critical_overlap(pr, q)
        assert max_separation(pr, max(s_cr - 1e-4, 1e-9), q)[0] == 0.0
        assert max_separation(pr, min(s_cr + 1e-4, 1 - 1e-9), q)[0] > 0.0


# ---------------------------------------------------------------------------
# tradeoff curve


def test_tradeoff_endpoints():
    for eta1, s in ((0.1, 0.6), (0.3, 0.4), (0.5, 0.7)):
        pr = Priors.of(eta1)
        samples = tradeoff_curve(pr, s, 65)
        assert samples[0].q == 0.0
        assert samples[0].s_prime == s
        assert samples[-1].s_prime == 0.0
        assert samples[-1].q == pytest.approx(q_ud(pr, s), abs=1e-9)


def test_tradeoff_monotone():
    for eta1, s in ((0.1, 0.6), (0.25, 0.8), (0.45, 0.3)):
        samples = tradeoff_curve(Priors.of(eta1), s, 257)
        qs = [smp.q for smp in samples]
        sps = [smp.s_prime for smp in samples]
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(sps, sps[1:]))


@pytest.mark.parametrize(
    "eta1, s",
    [
        (0.16543972711991795, 0.9999999999999999),
        (0.01815023357532537, 0.999999791816749),
        (4.007445600139756e-08, 0.7582373193779803),
    ],
    ids=["q-saturates-at-1", "interior-q-above-q_ud", "q-falls-at-tiny-eta1"],
)
def test_tradeoff_curve_former_out_of_order_sweeps_are_answered(eta1, s):
    # The angle formulas used to leave these Q columns falling or peaking
    # above the final discrimination cost, and the sweep refused them.
    _check_angle_formula_rows(eta1, s, tradeoff_curve(Priors.of(eta1), s, 512))


def test_tradeoff_curve_edge_sweeps_are_answered_in_order():
    # s within 1e-9..1e-1 of 1, eta1 down to 1e-8, or both: every sweep is
    # answered, in order, and rows 1, n//2 and n-2 agree with the 50-digit
    # angle formulas.
    rng = np.random.default_rng(20261019)
    for i in range(240):
        eta1, s = rng.uniform(0.0, 1.0), rng.uniform(0.01, 0.99)
        if i % 3 != 1:
            s = 1.0 - _decade(rng, -9, -1)
        if i % 3 != 0:
            eta1 = _decade(rng, -8, -1)
        eta1, s = float(eta1), float(s)
        samples = tradeoff_curve(Priors.of(eta1), s, 512)
        qs, sps = [m.q for m in samples], [m.s_prime for m in samples]
        assert qs == sorted(qs) and sps == sorted(sps, reverse=True), (eta1, s)
        if _is_angle_sweep(eta1, s):
            _check_angle_formula_rows(eta1, s, samples, (1, 256, 510))


def test_tradeoff_equal_priors_closed_form():
    samples = tradeoff_curve(Priors.of(0.5), 0.6, 129)
    for smp in samples:
        q = smp.q
        assert smp.s_prime == pytest.approx((0.6 - q) / (1.0 - q), abs=1e-12)


def test_tradeoff_interior_matches_qmin():
    for eta1, s, sp in ((0.17, 0.6, 0.3), (0.35, 0.8, 0.1)):
        pr = Priors.of(eta1)
        q = qmin_at(pr, OverlapSpec(s, sp))[0]
        smp = tradeoff_at(pr, s, q)
        assert smp.s_prime == pytest.approx(sp, abs=1e-8)
        assert smp.q == pytest.approx(q, abs=1e-12)


def test_tradeoff_at_is_max_separation_plus_the_budget():
    # Below the discrimination cost, tradeoff_at is max_separation's
    # (s', theta) with the requested budget as the achieved one.
    rng = np.random.default_rng(9031)
    for eta1, s, frac in rng.uniform([0.0, 0.02, 0.0], [1.0, 0.98, 0.999], (200, 3)).tolist():
        pr = Priors.of(eta1)
        budget = frac * q_ud(pr, s)
        smp = tradeoff_at(pr, s, budget)
        sp, theta = max_separation(pr, s, budget)
        assert (smp.s_prime.hex(), float(smp.theta).hex()) == (sp.hex(), float(theta).hex())
        assert smp.s == s and smp.q == budget


@pytest.mark.parametrize(
    "eta1, s, q",
    [
        (0.9014816040240902, 0.9999999021727165, 0.5169815337229113),
        (0.5931531112068931, 0.9999981380399001, 0.9946218333004341),
        (0.3, 0.6, 0.2),
    ],
    ids=["s-near-1", "s-near-1-budget-near-q_ud", "interior"],
)
def test_tradeoff_at_budget_matches_50_digit_qmin(eta1, s, q):
    # The first two have s within 1e-7 and 2e-6 of 1; at every case the
    # returned s' must cost Q_min = q.
    smp = tradeoff_at(Priors.of(eta1), s, q)
    assert 0.0 < smp.s_prime < s and smp.q == q
    assert abs(qmin_referee.qmin(eta1, s, smp.s_prime)[0] - q) <= 1e-6


def test_tradeoff_at_edges():
    pr = Priors.of(0.2)
    smp = tradeoff_at(pr, 0.6, 0.0)
    assert smp.s_prime == 0.6 and smp.q == 0.0
    qud = q_ud(pr, 0.6)
    smp = tradeoff_at(pr, 0.6, 0.9)
    assert smp.s_prime == 0.0 and smp.q == pytest.approx(qud, abs=1e-15)


@pytest.mark.parametrize(
    "budget",
    [0.0, 0.2, "cost", 0.9],
    ids=["zero-budget", "brent", "at-cost", "above-cost"],
)
def test_budget_answers_are_plain_floats_for_a_numpy_s(budget):
    # A NumPy s is coerced like the budget, so no numpy.float64 reaches
    # an answer on any branch.
    pr, s = Priors.of(0.3), np.float64(0.6)
    q = q_ud(pr, 0.6) if budget == "cost" else budget
    assert [type(x) for x in max_separation(pr, s, q)] == [float, float]
    assert [type(x) for x in tradeoff_at(pr, s, q)] == [float] * 4


# ---------------------------------------------------------------------------
# cloning corollary


def test_max_clones_single_copy_budget():
    # Equal priors, s = 0.6, budget 0.3: s'_min = 3/7, and 0.6^2 < 3/7 < 0.6
    # so exactly one clone fits.
    s_min, _ = max_separation(Priors.of(0.5), 0.6, 0.3)
    assert s_min == pytest.approx(3.0 / 7.0, abs=1e-12)
    assert 0.6**2 < 3.0 / 7.0 < 0.6
    assert max_clones(0.6, 0.3, Priors.of(0.5)) == 1


def test_max_clones_deterministic_limit():
    assert max_clones(0.6, 0.0, Priors.of(0.5)) == 1
    assert max_clones(0.6, 0.0, Priors.of(0.25)) == 1


def test_max_clones_unbounded_and_multi():
    pr = Priors.of(0.5)
    assert max_clones(0.3, 0.9, pr) is UNBOUNDED
    # s = 0.9, budget 0.5: s' = 0.8, log(0.8)/log(0.9) ~ 2.12 -> 2 clones.
    assert max_clones(0.9, 0.5, pr) == 2


def test_max_clones_domain():
    with pytest.raises(DomainError):
        max_clones(1.0, 0.3, Priors.of(0.5))
    with pytest.raises(DomainError):
        max_clones(0.0, 0.3, Priors.of(0.5))


_V_BELOW_U = 0.3 - 5e-13  # below u by more than from_conic's 1e-14, within ConicPoint's 1e-12
_PR = Priors.of(0.3)
_OV = OverlapSpec(0.6, 0.3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: q_ud(_PR, 1.5), "s must lie in [0, 1], got 1.5"),
        (lambda: ud_tangency_point(_PR, -0.1), "s must lie in [0, 1], got -0.1"),
        (lambda: qmin_curve(_OV, 1), "n_samples must be at least 2, got 1"),
        (lambda: max_separation(_PR, 1.0, 0.3), "s must lie in (0, 1), got 1.0"),
        (lambda: max_separation(_PR, 0.6, 1.0), "q_max must lie in [0, 1), got 1.0"),
        (lambda: critical_overlap(_PR, 1.5), "q_max must lie in [0, 1], got 1.5"),
        (lambda: tradeoff_curve(_PR, 0.0), "s must lie in (0, 1), got 0.0"),
        (lambda: tradeoff_curve(_PR, 0.6, 1), "n_samples must be at least 2, got 1"),
        (lambda: tradeoff_at(_PR, 1.0, 0.3), "s must lie in (0, 1), got 1.0"),
        (lambda: tradeoff_at(_PR, 0.6, -0.1), "q must lie in [0, 1], got -0.1"),
        (
            lambda: conics.from_conic(conics.ConicPoint(0.3, _V_BELOW_U)),
            f"no preimage: v={_V_BELOW_U!r} < u=0.3",
        ),
        (
            lambda: conics.conic_slopes(0.1, _PR, 0.3, 0.6, 0.0),
            "parabola slope undefined at s_prime = 0",
        ),
        (
            lambda: conics.tangency_residuals(0.1, 0.3, _PR, 0.6, 0.0),
            "tangency system requires s_prime > 0",
        ),
    ],
    ids=[
        "q_ud-s", "ud_tangency_point-s", "qmin_curve-n_samples", "max_separation-s",
        "max_separation-q_max", "critical_overlap-q_max", "tradeoff_curve-s",
        "tradeoff_curve-n_samples", "tradeoff_at-s", "tradeoff_at-q", "from_conic-v_below_u",
        "conic_slopes-s_prime", "tangency_residuals-s_prime",
    ],
)
def test_domain_refusals_name_their_argument(call, message):
    # Each argument check refuses with its own message, before any arithmetic.
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# phase transition probe


def _ud_branch_jump_sympy(s_value):
    # Independent analytic oracle: differentiate the tangency-regime cost
    # 2*s*sqrt(eta*(1-eta)) twice; the pivot branch is linear in eta so the
    # branch difference is the middle branch's second derivative itself.
    sympy = pytest.importorskip("sympy")
    eta = sympy.symbols("eta", positive=True)
    s_sym = sympy.nsimplify(s_value, rational=True)
    middle = 2 * s_sym * sympy.sqrt(eta * (1 - eta))
    d2 = sympy.diff(middle, eta, 2)
    eta_star = s_sym**2 / (1 + s_sym**2)
    return float(d2.subs(eta, eta_star))


def test_phase_transition_jump_at_full_separation():
    s = 0.6
    eta_star = s * s / (1 + s * s)
    jump = phase_transition_probe(s, 0.0, eta_star, 1e-4)
    analytic = _ud_branch_jump_sympy(s)
    assert jump == pytest.approx(analytic, rel=0.05)
    assert abs(analytic) == pytest.approx((1 + s * s) ** 3 / (2 * s * s), rel=1e-12)


def test_phase_transition_smooth_for_positive_target():
    s = 0.6
    eta_star = s * s / (1 + s * s)
    jump_coarse = phase_transition_probe(s, 0.3, eta_star, 1e-4)
    assert abs(jump_coarse) < 1e-2
    jump_fine = phase_transition_probe(s, 0.3, eta_star, 5e-5)
    assert abs(jump_fine) < 0.75 * abs(jump_coarse)  # shrinks linearly in h


def test_phase_transition_silent_off_critical():
    # Inside the linear branch both one-sided second differences vanish.
    jump = phase_transition_probe(0.6, 0.0, 0.15, 1e-4)
    assert abs(jump) < 1e-6


def test_phase_transition_domain():
    with pytest.raises(DomainError):
        phase_transition_probe(0.6, 0.0, 0.6, 1e-4)
    with pytest.raises(DomainError):
        phase_transition_probe(0.6, 0.0, 0.3, 0.2)


# ---------------------------------------------------------------------------
# root finding: the Brent port against scipy.optimize.brentq


def _edge_inputs(rng, n):
    """n seeded (eta1, s, s'/s) triples, a quarter on each edge of the brackets.

    s'/s within 1e-12..1e-2 of 1 at s in 1e-12..1e-2 (a lower-half vertex
    below 1e-6, so qmin_at's log(q1) path), s within 1e-15..1e-9 of 1, and
    eta1 within 1e-12..1e-8 of 0 or of 1/2; the other parameters are
    interior.
    """
    out = []
    for k in range(n):
        eta1, s, frac = rng.uniform([0.01, 0.05, 0.02], [0.49, 0.95, 0.98])
        if k % 4 == 0:
            s, frac = _decade(rng, -12.0, -2.0), 1.0 - _decade(rng, -12.0, -2.0)
        elif k % 4 == 1:
            s = 1.0 - _decade(rng, -15.0, -9.0)
        elif k % 4 == 2:
            eta1 = _decade(rng, -12.0, -8.0)
        else:
            eta1 = 0.5 - _decade(rng, -12.0, -8.0)
        out.append((float(eta1), float(s), float(frac)))
    return out


def _solver_brackets(monkeypatch):
    """(f, lo, hi, what, end values) of every bracket that qmin_at,
    max_separation and tradeoff_at hand to the root finder on seeded
    interior and edge inputs; the end values are the f(lo), f(hi) the
    caller passes in."""
    brackets = []
    original = solvers._bracketed_root

    def record(f, lo, hi, what, *ends):
        brackets.append((f, lo, hi, what, ends))
        return original(f, lo, hi, what, *ends)

    monkeypatch.setattr(solvers, "_bracketed_root", record)
    rng = np.random.default_rng(1506)
    interior = rng.uniform([0.01, 0.05, 0.02], [0.99, 0.95, 0.98], (120, 3)).tolist()
    for eta1, s, frac in interior + _edge_inputs(rng, 800):
        pr = Priors.of(eta1)
        budget = frac * q_ud(pr, s)
        for solve in (
            lambda: qmin_at(pr, OverlapSpec(s, frac * s)),
            lambda: max_separation(pr, s, budget),
            lambda: tradeoff_at(pr, s, budget),
        ):
            try:
                solve()
            except NumericError:
                pass  # the bracket is recorded all the same
    monkeypatch.undo()
    return brackets


def _brent_outcome(solve):
    """The root, or the class of the error brentq raises in the same case."""
    try:
        return solve()
    except NumericError as exc:
        assert "no sign change" in str(exc), exc
        return ValueError
    except ValueError:
        return ValueError


def test_bracketed_root_is_bit_identical_to_brentq(monkeypatch):
    from scipy.optimize import brentq

    brackets = _solver_brackets(monkeypatch)
    log_path = [b for b in brackets if b[3] == "tangency abscissa log(q1)"]
    assert len(brackets) >= 1900 and len(log_path) >= 150
    for f, lo, hi, what, ends in brackets:
        # brentq evaluates both ends itself, so this also checks the values
        # that qmin_at hands in.  Not on the log(q1) path: there qmin_at
        # hands in f(vertex), not f(exp(log(vertex))), which can differ in
        # the last bit, so the port gets the ends as brentq evaluates them.
        if what == "tangency abscissa log(q1)":
            ends = (f(lo), f(hi))
        ours = _brent_outcome(lambda: solvers._bracketed_root(f, lo, hi, "test", *ends))
        ref = _brent_outcome(
            lambda: brentq(f, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps, maxiter=100)
        )
        assert ours == ref, (what, lo, hi, ours, ref)


@pytest.mark.parametrize("scale", [1e-110, 1e-150, 1e-200])
def test_bracketed_root_bisects_where_the_interpolation_underflows(scale):
    # The extrapolation's denominator is a product of three differences of
    # f, which underflows to 0 for f this small.  brentq's C division then
    # gives inf or NaN and it bisects; the port must do the same, not raise
    # ZeroDivisionError.
    from scipy.optimize import brentq

    def f(x):
        return scale * (x**3 - 0.2)

    ref = brentq(f, 0.0, 1.0, xtol=1e-14, rtol=4 * np.finfo(float).eps, maxiter=100)
    assert solvers._bracketed_root(f, 0.0, 1.0, "test", f(0.0), f(1.0)) == ref


@pytest.mark.parametrize(
    "scale, grow, odd_step",
    [(1e-310, 1.0, "-0.0"), (1e300, 1e10, "nan")],
    ids=["subnormal-f", "overflowing-f"],
)
def test_bracketed_root_takes_brentqs_choice_on_zero_and_nan_steps(
    monkeypatch, scale, grow, odd_step
):
    # The loop tests |step| by its sign, with no abs().  With f subnormal
    # the interpolation's numerator underflows, so a trial step is -0.0;
    # with f overflowing to inf it is inf/inf, NaN.  Either must lead to the
    # step brentq takes.
    from scipy.optimize import brentq

    def f(x):
        return scale * (x**3 - 0.2) * grow

    ref = brentq(f, 0.0, 1.0, xtol=1e-14, rtol=4 * np.finfo(float).eps, maxiter=100)
    assert solvers._bracketed_root(f, 0.0, 1.0, "test", f(0.0), f(1.0)) == ref
    steps = []
    _with_fault(
        monkeypatch,
        "_bracketed_root",
        "lim = 3 * (sbis if sbis > 0.0 else -sbis) - delta",
        "_fault(num, den)",
        lambda num, den: den != 0.0 and steps.append(num / den),
    )
    assert solvers._bracketed_root(f, 0.0, 1.0, "test", f(0.0), f(1.0)) == ref
    assert odd_step in {repr(step) for step in steps}


@pytest.mark.parametrize("end", ["lo", "hi"])
def test_bracketed_root_returns_an_end_where_f_vanishes(end):
    # brentq returns an end at which f is exactly 0 without iterating; so
    # must the port, rather than call the bracket sign-less.
    from scipy.optimize import brentq

    lo, hi = 0.0, 1.0

    def f(x):
        return x - (lo if end == "lo" else hi)

    ref = brentq(f, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps, maxiter=100)
    assert ref == (lo if end == "lo" else hi)
    assert solvers._bracketed_root(f, lo, hi, "test", f(lo), f(hi)) == ref


def _step(x):
    return -1.0 if x < 1.0 / 3.0 else 1.0


@pytest.mark.parametrize(
    "f, lo, hi, message, scipy_error",
    [
        (lambda x: x * x + 1.0, -1.0, 1.0, "no sign change", ValueError),
        (lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 0.0, 1.0, "NaN", ValueError),
        (lambda x: math.nan, 0.0, 1.0, "nan", ValueError),
        # A sign step on a huge bracket needs about 1000 bisections.
        (_step, -1e300, 1e300, "no convergence", RuntimeError),
    ],
    ids=["no-sign-change", "nan-inside", "nan-at-ends", "no-convergence"],
)
def test_bracketed_root_failures_raise_numeric_error(f, lo, hi, message, scipy_error):
    from scipy.optimize import brentq

    with pytest.raises(NumericError, match=message):
        solvers._bracketed_root(f, lo, hi, "test", f(lo), f(hi))
    # The cases are the ones in which brentq itself gives up.
    with pytest.raises(scipy_error):
        brentq(f, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps, maxiter=100)


# ---------------------------------------------------------------------------
# the point queries' output bits


# sha256 of the point-query corpus below, one repr (or error class) per line.
_POINT_QUERY_DIGEST = "9c5f587344e27b064927fa4a084ebdabb19db31fda26c28bdf577d5fdf9e9c20"


def _point_query_lines():
    """One line per answer of qmin_at, max_separation, tradeoff_at and
    max_clones on seeded interior and edge inputs, each prior also mirrored:
    the answer's repr, or the class of the error it raises."""
    rng = np.random.default_rng(2210)
    interior = rng.uniform([0.01, 0.05, 0.02], [0.99, 0.95, 0.98], (200, 3)).tolist()
    for eta1, s, frac in interior + _edge_inputs(rng, 400):
        for pr in (Priors.of(eta1), Priors.of(eta1).swapped()):
            budget = frac * q_ud(pr, s)
            for solve in (
                lambda: qmin_at(pr, OverlapSpec(s, frac * s)),
                lambda: qmin_at(pr, OverlapSpec(s, 0.0)),
                lambda: max_separation(pr, s, budget),
                lambda: tradeoff_at(pr, s, budget),
                lambda: tradeoff_at(pr, s, 1.0),
                lambda: max_clones(s, budget, pr),
            ):
                try:
                    yield repr(solve())
                except (DomainError, NumericError) as exc:
                    yield type(exc).__name__


def test_point_query_bits_are_pinned():
    # Every bit of every answer, and which inputs raise, is what it was
    # when pinned: a change to the solvers' arithmetic or branches shows here.
    lines = list(_point_query_lines())
    assert len(lines) == 7200
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _POINT_QUERY_DIGEST


# sha256 of the discrimination corpus below, one repr (or error class) per line.
_DISCRIMINATION_DIGEST = "1b28b14859607f8b1aba9132b5eda5d564a66a7c496019198b81bc58fe60fbfa"


def _discrimination_lines():
    """One line per answer of q_ud and ud_tangency_point, called directly on
    seeded priors, each also mirrored, at the ends and edges of s and at
    interior draws: the answer's repr, or the class of the error it raises.
    The priors include each s's regime boundary s**2/(1 + s**2) and its two
    neighbouring floats, so both regime tests are reached from each side,
    and priors that use the 1e-12 slack of their sum, which lift Q past 1
    next to s = 1."""
    rng = np.random.default_rng(3110)
    edges = [0.0, 5e-324, 1e-300, 0.6, 1.0 - 2.0**-53, 1.0]
    ss = edges + rng.uniform(0.0, 1.0, 20).tolist()
    draws = rng.uniform(0.0, 1.0, 30).tolist()
    etas = [0.0, 0.5, *draws]
    for s in ss:
        lo = s * s / (1.0 + s * s)
        etas += [math.nextafter(lo, 0.0), lo, math.nextafter(lo, 1.0)]
    priors = [Priors.of(eta1) for eta1 in etas]
    priors += [Priors(eta1, min(1.0 - eta1 + 5e-13, 1.0)) for eta1 in draws]
    for prior in priors:
        for pr in (prior, prior.swapped()):
            for s in ss:
                for solve in (q_ud, ud_tangency_point):
                    try:
                        yield repr(solve(pr, s))
                    except (DomainError, NumericError) as exc:
                        yield type(exc).__name__


def test_discrimination_bits_are_pinned():
    # Every bit of both discrimination answers, and which inputs raise, is
    # what it was when pinned.  The point-query pin reaches them only
    # through qmin_at's normalized priors; these call them directly.
    lines = list(_discrimination_lines())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (14560, _DISCRIMINATION_DIGEST)


# sha256 of the sweep corpus below, one repr (or error class) per line.
_SWEEP_DIGEST = "f86474263d4ebed4302321b9b95ee09b0820cffae4e8e983f0b45a9392df0bb4"


def _sweep_lines():
    """One line per row of qmin_curve and tradeoff_curve on seeded interior
    and edge inputs at 2, 7 and 512 samples: the row's repr, or the class
    of the error the sweep raises.  Each tradeoff prior is also mirrored,
    and the fixed priors reach the equal-prior and certainty branches."""
    rng = np.random.default_rng(2510)
    interior = rng.uniform([0.01, 0.05, 0.02], [0.99, 0.95, 0.98], (6, 3)).tolist()
    branches = [(0.5, 0.6, 0.5), (0.5 - 1e-10, 0.3, 0.5), (0.0, 0.6, 0.5), (1e-10, 0.6, 0.5)]
    sweeps = [
        # A refusal of each kind: the eta1 guard next to s = 1, s*delta
        # below the normal range, and an s' outside (0, s).
        lambda n: qmin_curve(OverlapSpec(0.9999999999999911, 0.9313299158166922), n),
        lambda n: tradeoff_curve(Priors.of(0.3), 1e-320, n),
        lambda n: qmin_curve(OverlapSpec(0.6, 0.0), n),
    ]
    for eta1, s, frac in interior + _edge_inputs(rng, 12) + branches:
        sweeps += [
            lambda n, s=s, sp=frac * s: qmin_curve(OverlapSpec(s, sp), n),
            lambda n, pr=Priors.of(eta1), s=s: tradeoff_curve(pr, s, n),
            lambda n, pr=Priors.of(eta1).swapped(), s=s: tradeoff_curve(pr, s, n),
        ]
    for sweep in sweeps:
        for n in (2, 7, 512):
            try:
                yield from map(repr, sweep(n))
            except (DomainError, NumericError) as exc:
                yield type(exc).__name__


def test_sweep_bits_are_pinned():
    # Every bit of every sweep row, and which sweeps raise, is what it was
    # when pinned: a change to the sweeps' arithmetic or records shows here.
    lines = list(_sweep_lines())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (34402, _SWEEP_DIGEST)


def test_tradeoff_curve_former_singular_angle_is_answered():
    # delta + sin(theta) rounded to 0 at one angle of this sweep, and the
    # sweep refused it; the half-angle form has no such denominator.
    rows = tradeoff_curve(Priors.of(4.13e-6), 0.9999999999977576, 512)
    _check_angle_formula_rows(4.13e-6, 0.9999999999977576, rows)


# ---------------------------------------------------------------------------
# the sweeps' grid and guard, and the 50-digit angle formulas


def _outcome(fn):
    """``("ok", value)`` or ``("raised", exception type, message)``."""
    try:
        return ("ok", fn())
    except (DomainError, NumericError) as exc:
        return ("raised", type(exc), str(exc))


_MP = mpmath.MPContext()
_MP.dps = 50
# Largest relative difference of a row from the 50-digit angle formulas.
_ANGLE_ROW_TOL = 1e-12


def _angle_formula_row(eta1: float, s: float, offset: float):
    """(s', Q) from the paper's angle formulas in mpmath, or None past an end.

    ``eta1 <= 1/2`` is the sweep's normalized prior, and ``offset`` a row's
    angle minus the sweep's first angle.  The angle is the exact start
    theta_lo = -atan(s*delta/r), with delta = 1 - 2*eta1 and
    r = 2*sqrt(eta1*(1 - eta1)), plus that offset, so that theta_lo's own
    rounding in the sweep moves only its labels.  At offset 0 the row is
    the trivial protocol (s, 0), and past full separation (sin(theta) >= 0,
    or s'**2 <= 0) there is no row.

    Next to theta_lo the bracket of s'**2 cancels down to about
    r**4*(1 - s**2)**2 of its terms, and Q's denominator holds 1 - s'**2,
    so the formulas run at 50 digits plus about
    log10(1/(r**4*(1 - s**2)**3)): 50 alone leave none next to s = 1.
    """
    if offset == 0:
        return s, 0.0
    r_float = 2.0 * math.sqrt(eta1 * (1.0 - eta1))
    lost = -math.log10(r_float**4 * ((1.0 - s) * (1.0 + s)) ** 3)
    with _MP.workdps(50 + max(int(lost), 0)):
        e1, s = _MP.mpf(eta1), _MP.mpf(s)
        delta, r = 1 - 2 * e1, 2 * _MP.sqrt(e1 * (1 - e1))
        theta = -_MP.atan(s * delta / r) + _MP.mpf(offset)
        ct, st = _MP.cos_sin(theta)
        if st >= 0:
            return None
        bracket = r * (1 + s * s) * ct - 2 * s * (1 + delta * st)
        sp2 = r * (st / (delta + st)) ** 2 / ct * bracket
        if sp2 <= 0:
            return None
        return _MP.sqrt(sp2), (s * r + delta * sp2 * ct / st) / ((1 - sp2) * ct)


def _is_angle_sweep(eta1, s):
    """Whether tradeoff_curve walks the angle sweep, not a closed form, at (eta1, s)."""
    prn, _ = Priors.of(eta1).normalized()
    certain = prn.eta1 <= min(solvers._DEGENERATE_PRIOR_TOL, solvers._CERTAINTY_RATIO * s * s)
    return prn.delta > solvers._DEGENERATE_PRIOR_TOL and not certain


def _check_angle_formula_rows(eta1, s, samples, rows=None):
    """An angle sweep's rows (all, or those indexed by ``rows``) agree with
    the angle formulas to ``_ANGLE_ROW_TOL``, relative, and its ends are the
    trivial protocol and full separation at q_ud, exactly."""
    prn, _ = Priors.of(eta1).normalized()
    theta_0 = _MP.mpf(samples[0].theta)
    assert samples[0][1:] == (s, s, 0.0)
    assert samples[-1][1:] == (s, 0.0, q_ud(prn, s))
    for k in range(1, len(samples) - 1) if rows is None else rows:
        smp = samples[k]
        want = _angle_formula_row(prn.eta1, s, _MP.mpf(smp.theta) - theta_0)
        if want is None:
            assert (smp.s_prime, smp.q) == (0.0, samples[-1].q), (eta1, s, k, smp)
            continue
        for got, ref in zip((smp.s_prime, smp.q), want):
            assert abs(got - ref) <= _ANGLE_ROW_TOL * abs(ref), (eta1, s, k, smp, want)


def _decade(rng, lo, hi):
    return 10 ** rng.uniform(lo, hi)


def _sweep_cases(seed, count):
    """Seeded (eta1, s, s', n_samples) reaching s'/s -> 1e-8, s -> 0, s -> 1,
    eta1 -> 0 and eta1 -> 1/2, at every sample count."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        s = (rng.uniform(0.05, 0.95), _decade(rng, -6, -1), 1 - _decade(rng, -9, -1))[i % 3]
        frac = _decade(rng, -8, 0) if i % 4 else 1 - _decade(rng, -9, -1)
        eta1 = (rng.uniform(0.01, 0.49), _decade(rng, -8, -2), 0.5 - _decade(rng, -8, -2))
        eta1 = eta1[i // 3 % 3]
        cases.append((float(eta1), float(s), float(frac * s), (2, 7, 200, 512)[i % 4]))
    return cases


# A tiny-s curve whose q1 used to round to -2.2e-16 at the vertex, where the
# sweep raised NumericError; it now starts at the vertex identity.
_NEGATIVE_Q1_CASE = (0.3, 8.002035938234122e-30, 3.197006282588512e-30, 7)


@pytest.mark.parametrize(
    "eta1, s, s_prime, n",
    _sweep_cases(20261018, 48) + [_NEGATIVE_Q1_CASE],
    ids=[f"case{i}" for i in range(48)] + ["negative-q1"],
)
def test_qmin_curve_grid_and_monotonicity_guard(eta1, s, s_prime, n):
    # The sweep's t column is np.linspace over the tangency range, bit for
    # bit, and the sweep refuses exactly where the eta1 column of its rows
    # on that grid rises by more than _MONOTONE_TOL.
    ov = OverlapSpec(s, s_prime)
    ts = np.linspace(t_slope_minus_one(ov), t_slope_zero(ov), n).tolist()
    etas = [row.eta1 for row in solvers._t_curve(ts, ov)]
    rise = max(b - a for a, b in zip(etas, etas[1:]))
    if rise > solvers._MONOTONE_TOL:
        with pytest.raises(NumericError, match=re.escape(f"(worst increase {rise!r} at")):
            qmin_curve(ov, n)
    else:
        assert [row.t.hex() for row in qmin_curve(ov, n)] == [t.hex() for t in ts]


@pytest.mark.parametrize(
    "eta1, s, n",
    [case[:2] + case[3:] for case in _sweep_cases(20261018, 48)],
    ids=[f"case{i}" for i in range(48)],
)
def test_tradeoff_rows_match_50_digit_angle_formulas(eta1, s, n):
    # Every row of the half-angle sweep is the paper's angle formulas at
    # the row's offset from the sweep's exact start, to 1e-12 relative.
    samples = tradeoff_curve(Priors.of(eta1), s, n)
    if _is_angle_sweep(eta1, s):
        _check_angle_formula_rows(eta1, s, samples)


@pytest.mark.parametrize("eta1, s", [(1e-8, 0.6), (1e-8, 0.999), (2e-9, 0.6), (0.2, 0.6)])
def test_tradeoff_start_label_is_theta_lo_to_an_ulp(eta1, s):
    # theta_lo = -atan(s*delta/sqrt(1 - delta**2)).  Next to certainty
    # sqrt(1 - delta**2) cancels; taken that way, the label was 1768 to
    # 9812 ulps off at these priors, more than the sweep's whole angle range
    # at the last two.  delta is 1 - 2*eta1, as in the frame that gives r:
    # eta2 - eta1 put the label at (0.2, 0.6) 1.5 ulp off.
    delta = 1 - 2 * _MP.mpf(eta1)
    want = -_MP.atan(s * delta / _MP.sqrt(1 - delta * delta))
    theta = tradeoff_curve(Priors.of(eta1), s, 24)[0].theta
    assert abs(_MP.mpf(theta) - want) <= math.ulp(theta)


def test_sweep_cases_reach_the_guards():
    # Neither sweep has a per-sample guard left: the t-curve and the
    # half-angle tradeoff rows answer every case.
    qmin, tradeoff = set(), set()
    for eta1, s, s_prime, n in _sweep_cases(20261018, 48):
        qmin.add(_outcome(lambda: qmin_curve(OverlapSpec(s, s_prime), n))[0])
        tradeoff.add(_outcome(lambda: tradeoff_curve(Priors.of(eta1), s, n))[0])
    assert qmin == {"ok"}
    assert tradeoff == {"ok"}


def test_float_constants_match_numpy_finfo():
    # solvers takes them from sys.float_info, so that it loads no NumPy.
    assert solvers._EPS == np.finfo(float).eps
    assert solvers._TINY == np.finfo(float).tiny


def test_qmin_curve_vertex_and_flat_end_bits():
    samples = qmin_curve(OverlapSpec(0.8, 0.4), 512)
    assert samples[0].eta1 == 0.5 and math.isinf(samples[0].dq1_dt)
    assert samples[0].point == FailurePoint((0.8 - 0.4) / (1.0 - 0.4), (0.8 - 0.4) / (1.0 - 0.4))
    # The flat end is emitted as the zero-slope point itself, with a tangent
    # prior and dq2/dt of +0.0.
    assert samples[-1].dq2_dt == 0.0 and math.copysign(1.0, samples[-1].dq2_dt) == 1.0
    assert samples[-1].eta1 == 0.0 and math.copysign(1.0, samples[-1].eta1) == 1.0
    assert samples[-1].point == FailurePoint(*solvers._zero_slope_end(0.8, 0.4))


def test_qmin_curve_clamps_a_q1_rounded_past_one():
    # At s' <= 1e-9 the sweep ends at t = 1, the curve's end (1, s**2), where
    # dq1/dt = (q1 - 1)*2*s**2/r vanishes.  At this s the factored q1 rounds
    # to 1 + 2**-52 there; clamped to 1 it gives that exact 0, unclamped
    # 6.5e-17.
    s = 0.3884895619350729
    end = qmin_curve(OverlapSpec(s, 1e-9), 2)[-1]
    assert end.t == 1.0 and end.eta1 == 0.0
    assert end.point == FailurePoint(*solvers._zero_slope_end(s, 1e-9))
    assert end.point.q1 == 1.0 and end.dq1_dt == 0.0


def test_qmin_curve_monotonicity_guard_fires(monkeypatch):
    monkeypatch.setattr(solvers, "_MONOTONE_TOL", -1.0)
    with pytest.raises(NumericError, match="failed to decrease monotonically"):
        qmin_curve(OverlapSpec(0.6, 0.3), 65)


@pytest.mark.parametrize(
    "pr, s",
    [(Priors.of(0.2), 0.6), (Priors.of(0.5), 0.6), (Priors.of(0.0), 0.6), (Priors.of(1.0), 0.3)],
    ids=["generic", "equal-priors", "certainty", "certainty-swapped"],
)
def test_sweeps_return_plain_floats(pr, s):
    for smp in tradeoff_curve(pr, s, 9):
        for v in (smp.theta, smp.s, smp.s_prime, smp.q):
            assert type(v) is float
    for smp in qmin_curve(OverlapSpec(s, s / 2), 9):
        for v in (smp.t, smp.eta1, smp.q_min, smp.point.q1, smp.point.q2, smp.dq1_dt, smp.dq2_dt):
            assert type(v) is float


@pytest.mark.parametrize("eta1, q", [(0.2, 0.3), (0.5, 0.3), (0.2, 0.0), (0.2, 0.9)])
def test_point_queries_return_plain_floats(eta1, q):
    # Interior, equal-prior, zero-budget and full-separation answers alike.
    pr = Priors.of(eta1)
    for v in (*max_separation(pr, 0.6, q), *tuple(tradeoff_at(pr, 0.6, q))):
        assert type(v) is float


@pytest.mark.parametrize(
    "ov, message",
    [(OverlapSpec(1e-300, 5e-301), r"s\*s to be a normal float, got s\*s=0\.0 at s=1e-300")],
    ids=["s-squared-underflow"],
)
def test_valid_curve_inputs_raise_numeric_error(ov, message):
    # A valid OverlapSpec that the t-curve cannot resolve is a numeric
    # failure, never a DomainError (a usage error) or a leaked
    # ZeroDivisionError.  qmin_at does not walk the t-curve: it answers, and
    # the 50-digit referee confirms the answer.
    with pytest.raises(NumericError, match=message):
        qmin_curve(ov, 512)
    assert test_qmin_at_edges.check_qmin_at(0.3, ov.s, ov.s_prime) == "answered"


@pytest.mark.parametrize("s", [1e-320])
def test_tradeoff_curve_at_subnormal_s_is_numeric_error(s):
    # Where s*delta is below the normal range, the angle range is a few
    # subnormal steps wide: the sweep raises NumericError instead of
    # returning rows with a handful of digits.
    with pytest.raises(NumericError, match=r"s\*delta to be a normal float, got s\*delta=4e-321"):
        tradeoff_curve(Priors.of(0.3), s, 512)


def test_tradeoff_curve_at_s_1e_307_is_answered():
    # cos(theta)/sin(theta) used to overflow here, and the sweep refused.
    _check_angle_formula_rows(0.3, 1e-307, tradeoff_curve(Priors.of(0.3), 1e-307, 512))


# ---------------------------------------------------------------------------
# the sweeps' records


def _leaves(rec):
    """(class, field, type, float hex) of every float inside a record."""
    out = []
    for name, v in zip(rec._fields, rec):
        if isinstance(v, FailurePoint):
            for f, x in (("q1", v.q1), ("q2", v.q2)):
                out.append(("FailurePoint", f, type(x).__name__, float.hex(x)))
        else:
            out.append((type(rec).__name__, name, type(v).__name__, float.hex(v)))
    return out


@pytest.mark.parametrize(
    "sweep, cls",
    [
        (lambda: qmin_curve(OverlapSpec(0.6, 0.3), 33), QminSample),
        (lambda: qmin_curve(OverlapSpec(0.8, 0.4), 9), QminSample),
        (lambda: tradeoff_curve(Priors.of(0.2), 0.6, 33), TradeoffSample),
        (lambda: tradeoff_curve(Priors.of(0.5), 0.6, 33), TradeoffSample),
        (lambda: tradeoff_curve(Priors.of(0.0), 0.6, 33), TradeoffSample),
        (lambda: tradeoff_curve(Priors.of(1.0), 0.3, 9), TradeoffSample),
        # The vertex row below the range, an interior row, the zero-slope end.
        (lambda: solvers._t_curve((0.0, 0.7, 1.0), OverlapSpec(0.6, 0.3)), QminSample),
    ],
    ids=[
        "qmin",
        "qmin-vertex",
        "generic",
        "equal-priors",
        "certainty",
        "certainty-swapped",
        "curve-row",
    ],
)
def test_sweep_records_match_the_public_constructors(sweep, cls):
    # The sweeps build their records with tuple.__new__, past the named
    # tuples' own __new__: each must be an instance of its class, equal to
    # what that class's constructor builds from its fields, immutable,
    # slot-free, plain floats throughout, with the field-by-field repr.
    for smp in sweep():
        assert type(smp) is cls
        if cls is QminSample:
            # The t-curve builds its points past FailurePoint's constructor.
            assert type(smp.point) is FailurePoint
            twin = FailurePoint(smp.point.q1, smp.point.q2)
            assert smp.point == twin and hash(smp.point) == hash(twin)
        # Field by field, so that a NaN theta equals itself.
        assert _leaves(type(smp)(*smp)) == _leaves(smp)
        assert {t for _, _, t, _ in _leaves(smp)} == {"float"}
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(smp._fields, smp))
        assert repr(smp) == f"{type(smp).__name__}({fields})"
        # No instance dict per record, and no field can be rebound.
        assert not hasattr(smp, "__dict__")
        for name in smp._fields:
            with pytest.raises(AttributeError):
                setattr(smp, name, 0.25)
        if cls is QminSample:
            for name in ("q1", "q2"):
                with pytest.raises(AttributeError):
                    setattr(smp.point, name, 0.25)
        # Certainty sweeps carry theta = NaN, which only compares equal to
        # itself, so the round trips are checked field by field.
        for twin in (pickle.loads(pickle.dumps(smp)), copy.deepcopy(smp)):
            assert type(twin) is type(smp) and repr(twin) == repr(smp)
            assert _leaves(twin) == _leaves(smp)
        assert copy.deepcopy(smp) == smp


def _with_fault(monkeypatch, name, anchor, fault_line, fault):
    """Replace ``solvers.<name>`` by a copy that runs ``fault_line`` right after ``anchor``.

    ``anchor`` is one source line, or a tuple of lines that each get the
    fault line.  The copy is compiled from the function's own source with
    those lines added, in the module's namespace plus ``_fault``, so a
    sweep runs its real guards and range checks on the faulty value.  The
    sweeps' loops have no other seam: a per-sample hook would cost them
    about a tenth of their time.
    """
    lines = textwrap.dedent(inspect.getsource(getattr(solvers, name))).splitlines()
    for line in (anchor,) if isinstance(anchor, str) else anchor:
        [i] = [i for i, text in enumerate(lines) if text.strip() == line]
        indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
        lines.insert(i + 1, indent + fault_line)
    code = compile(
        "\n".join(lines),
        f"<solvers.{name} with a fault>",
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = {**vars(solvers), "_fault": fault}
    exec(code, namespace)
    monkeypatch.setattr(solvers, name, namespace[name])


def _fault_qmin_point(monkeypatch, q1_values, q2_values):
    """Make the qmin sweep's q1/q2 at sample i the given values ({i: value}).

    The fault follows each assignment of the pair: the vertex row's, the
    general one and the zero-slope end's.
    """
    _with_fault(
        monkeypatch,
        "_t_curve",
        (
            "q1 = q2 = vertex",
            "q2 = a * (a / q1)",
            "q1, q2 = q1_end, q2_end",
        ),
        "q1, q2 = _fault(len(rows), q1, q2)",
        lambda i, q1, q2: (q1_values.get(i, q1), q2_values.get(i, q2)),
    )


@pytest.mark.parametrize("k", [0, 5, 32])
def test_qmin_curve_nan_in_q2_raises_the_constructor_error(monkeypatch, k):
    ov = OverlapSpec(0.6, 0.3)
    q1_k = qmin_curve(ov, 33)[k].point.q1
    with pytest.raises(DomainError) as want:
        FailurePoint(q1_k, math.nan)
    # A second bad value after k shows that the error is k's.
    _fault_qmin_point(monkeypatch, {}, {k: math.nan, k + 1: 2.0} if k < 32 else {k: math.nan})
    with pytest.raises(DomainError) as got:
        qmin_curve(ov, 33)
    assert str(got.value) == str(want.value) == "q2 must lie in [0, 1], got nan"


@pytest.mark.parametrize("k, wins", [(3, "q2"), (5, "q1"), (8, "q1")])
def test_qmin_curve_earlier_failure_wins(monkeypatch, k, wins):
    # A negative q1 at sample 5 and a NaN q2 at sample k each trip
    # FailurePoint's range check.  The earlier sample wins, and within one
    # sample q1 is checked first, as the constructor checks it.
    _fault_qmin_point(monkeypatch, {5: -0.25}, {k: math.nan})
    message = "q2 must lie in .* got nan" if wins == "q2" else r"q1 must lie in .* got -0\.25"
    with pytest.raises(DomainError, match=message):
        qmin_curve(OverlapSpec(0.6, 0.3), 33)


def _fault_tradeoff_q(monkeypatch, values):
    """Make the tradeoff sweep's Q at interior grid index i the given value ({i: value})."""
    _with_fault(
        monkeypatch,
        "_tradeoff_rows",
        "q = tau * (1.0 + t2) / den",
        "q = _fault(len(qs), q)",
        lambda i, q: values.get(i, q),
    )


def _fault_grid(monkeypatch, k):
    """Make the sweeps' grids NaN at index k."""
    original = solvers._linspace

    def patched(start, stop, n):
        grid = original(start, stop, n)
        grid[k] = math.nan
        return grid

    monkeypatch.setattr(solvers, "_linspace", patched)


@pytest.mark.parametrize("branch", ["generic", "equal-priors", "certainty"])
def test_tradeoff_curve_nan_in_q_raises_the_range_error(monkeypatch, branch):
    eta1 = {"generic": 0.2, "equal-priors": 0.5, "certainty": 0.0}[branch]
    if branch == "generic":
        _fault_tradeoff_q(monkeypatch, {6: math.nan})  # grid index 6 is sample 7
    else:
        _fault_grid(monkeypatch, 7)
    with pytest.raises(DomainError) as got:
        tradeoff_curve(Priors.of(eta1), 0.6, 33)
    assert str(got.value) == "q_avg must lie in [0, 1], got nan"


# The negative-s'^2 guard used to refuse this sweep at sample 269 (grid
# index 268); it is answered now.
_NEGATIVE_SP2_CASE = (1.9302922127230343e-08, 0.9710224874752635, 512)


@pytest.mark.parametrize("k", [99, 300, None], ids=["nan-before-drop", "nan-after-drop", "drop"])
def test_tradeoff_curve_range_check_precedes_the_order_check(monkeypatch, k):
    eta1, s, n = _NEGATIVE_SP2_CASE
    if k is None:
        _check_angle_formula_rows(eta1, s, tradeoff_curve(Priors.of(eta1), s, n))
    # Q = 0 at grid index 268 makes the column fall, which the order check
    # after the loop refuses; a NaN Q at index k fails Q's range check
    # inside the loop first, before or after the drop alike.
    _fault_tradeoff_q(monkeypatch, {268: 0.0} if k is None else {268: 0.0, k: math.nan})
    if k is None:
        with pytest.raises(NumericError, match="out of order"):
            tradeoff_curve(Priors.of(eta1), s, n)
    else:
        with pytest.raises(DomainError, match="q_avg must lie in .* got nan"):
            tradeoff_curve(Priors.of(eta1), s, n)

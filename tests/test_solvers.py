import __future__
import copy
import inspect
import math
import pickle
import textwrap

import numpy as np
import pytest

from statesep import (
    UNBOUNDED,
    DomainError,
    FailureBudget,
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
from statesep import solvers
from statesep.solvers import _EPS, _cot_overflow_error, _negative_sp2_error, _singular_error


# ---------------------------------------------------------------------------
# unambiguous discrimination closed form


def test_q_ud_equal_priors_is_s():
    assert float(q_ud(Priors.of(0.5), 0.6)) == pytest.approx(0.6, abs=1e-15)


def test_q_ud_pivot_branches():
    # eta1 = 0.1 < s^2/(1+s^2) ~ 0.2647: pivot branch eta1 + s^2*eta2.
    assert float(q_ud(Priors.of(0.1), 0.6)) == pytest.approx(0.424, abs=1e-15)
    # Swap symmetry puts eta1 = 0.9 on the mirrored branch, same value.
    assert float(q_ud(Priors.of(0.9), 0.6)) == pytest.approx(0.424, abs=1e-15)


@pytest.mark.parametrize("eta1", [0.02, 0.1, 0.2647, 0.4, 0.5, 0.7, 0.95])
@pytest.mark.parametrize("s", [0.15, 0.45, 0.75])
def test_q_ud_matches_dense_minimization(eta1, s):
    dense = helpers.dense_ud_min(eta1, s)
    assert float(q_ud(Priors.of(eta1), s)) == pytest.approx(dense, abs=1e-8)


def test_ud_tangency_point_is_optimal():
    for eta1, s in ((0.4, 0.6), (0.1, 0.6), (0.95, 0.3)):
        pr = Priors.of(eta1)
        pt = ud_tangency_point(pr, s)
        assert pt.q1 * pt.q2 == pytest.approx(s * s, abs=1e-12)
        q = pr.eta1 * pt.q1 + pr.eta2 * pt.q2
        assert q == pytest.approx(float(q_ud(pr, s)), abs=1e-12)


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


def test_curve_point_range_and_flag_errors():
    ov = OverlapSpec(0.6, 0.3)
    with pytest.raises(DomainError):
        curve_point(t_slope_minus_one(ov) - 1e-3, ov)
    with pytest.raises(DomainError):
        curve_point(t_slope_zero(ov) + 1e-3, ov)
    with pytest.raises(DomainError):
        curve_point(0.8, OverlapSpec(0.6, 0.3, kappa=0.9))
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
    # The slope tends to -1 at the vertex; probe the limit just inside.
    t_lo, t_hi = samples[0].t, samples[-1].t
    d1, d2 = helpers.curve_dq_raw(t_lo + 1e-12 * (t_hi - t_lo), s, sp)
    assert d2 / d1 == pytest.approx(-1.0, abs=1e-5)


def test_qmin_curve_vanishes_as_separation_vanishes():
    samples = qmin_curve(OverlapSpec(0.6, 0.6 - 1e-9), 33)
    assert max(smp.q_min for smp in samples) < 1e-8


def test_qmin_at_equal_priors_closed_form():
    q, pt = qmin_at(Priors.of(0.5), OverlapSpec(0.6, 0.3))
    assert float(q) == pytest.approx(3.0 / 7.0, abs=1e-12)
    assert pt.q1 == pytest.approx(pt.q2, abs=1e-12)


def test_qmin_at_dispatches_to_ud():
    for eta1 in (0.05, 0.3, 0.5, 0.8):
        q, pt = qmin_at(Priors.of(eta1), OverlapSpec(0.6, 0.0))
        assert float(q) == pytest.approx(float(q_ud(Priors.of(eta1), 0.6)), abs=1e-15)
        assert abs(unitarity_residual(pt, OverlapSpec(0.6, 0.0))) <= 1e-12


def test_qmin_at_trivial_and_degenerate():
    q, pt = qmin_at(Priors.of(0.3), OverlapSpec(0.6, 0.6))
    assert float(q) == 0.0 and pt == FailurePoint(0.0, 0.0)
    q, pt = qmin_at(Priors.of(0.3), OverlapSpec(1.0, 0.5))
    assert float(q) == 1.0 and pt == FailurePoint(1.0, 1.0)


def test_qmin_at_swap_normalization():
    ov = OverlapSpec(0.6, 0.3)
    q_lo, pt_lo = qmin_at(Priors.of(0.2), ov)
    q_hi, pt_hi = qmin_at(Priors.of(0.8), ov)
    assert float(q_lo) == pytest.approx(float(q_hi), abs=1e-12)
    assert (pt_hi.q1, pt_hi.q2) == pytest.approx((pt_lo.q2, pt_lo.q1), abs=1e-12)
    assert pt_lo.q1 >= pt_lo.q2  # lower half for eta1 <= 1/2


def test_qmin_at_point_is_tangent_and_feasible():
    for eta1, s, sp in ((0.17, 0.6, 0.3), (0.05, 0.8, 0.4), (0.45, 0.3, 0.12)):
        pr = Priors.of(eta1)
        ov = OverlapSpec(s, sp)
        q, pt = qmin_at(pr, ov)
        assert abs(unitarity_residual(pt, ov)) <= 1e-12
        assert pr.eta1 * pt.q1 + pr.eta2 * pt.q2 == pytest.approx(float(q), abs=1e-14)


def test_qmin_bounded_by_ud_and_decreasing_in_target():
    s = 0.7
    for eta1 in (0.1, 0.3, 0.5):
        pr = Priors.of(eta1)
        qud = float(q_ud(pr, s))
        prev = None
        for sp in (0.0, 0.2 * s, 0.5 * s, 0.8 * s):
            q = float(qmin_at(pr, OverlapSpec(s, sp))[0])
            assert q <= qud + 1e-12
            if prev is not None:
                assert q <= prev + 1e-12  # cheaper as the target loosens
            prev = q
        assert float(qmin_at(pr, OverlapSpec(s, 0.0))[0]) == pytest.approx(qud, abs=1e-15)


@pytest.mark.parametrize("eta1", [1e-9, 0.05, 0.3, 0.5])
@pytest.mark.parametrize("s", [1e-6, 0.5, 0.99])
def test_qmin_at_reaches_the_discrimination_cost(eta1, s):
    # Every protocol at s' satisfies sqrt(q1*q2) >= s - s', so
    # q_ud(s - s') <= Q_min(s') <= q_ud(s), and q_ud's slope in s is at
    # most 2: Q_min must reach the Jaeger-Shimony cost q_ud(s) linearly as
    # s' -> 0.
    pr = Priors.of(eta1)
    qud = float(q_ud(pr, s))
    for frac in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-100, 1e-300, 5e-324):
        sp = frac * s
        q = float(qmin_at(pr, OverlapSpec(s, sp))[0])
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
    qud = float(q_ud(pr, 0.5))
    assert max_separation(pr, 0.5, qud)[0] == 0.0
    assert max_separation(pr, 0.5, min(qud + 0.1, 0.99))[0] == 0.0


def test_max_separation_zero_budget_recovers_identity():
    for eta1 in (0.1, 0.3, 0.5):
        sp, _ = max_separation(Priors.of(eta1), 0.37, 0.0)
        assert sp == pytest.approx(0.37, abs=1e-9)


def test_max_separation_matches_qmin_inverse():
    # If separating to s' costs Q_min, then budget Q_min buys overlap s'.
    for eta1, s, sp in ((0.17, 0.6, 0.3), (0.35, 0.8, 0.1), (0.07, 0.45, 0.28)):
        pr = Priors.of(eta1)
        q = float(qmin_at(pr, OverlapSpec(s, sp))[0])
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
    assert s * s < q < float(q_ud(pr, s))

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
        assert float(samples[0].q) == 0.0
        assert samples[0].s_prime == s
        assert samples[-1].s_prime == 0.0
        assert float(samples[-1].q) == pytest.approx(float(q_ud(pr, s)), abs=1e-9)


def test_tradeoff_monotone():
    for eta1, s in ((0.1, 0.6), (0.25, 0.8), (0.45, 0.3)):
        samples = tradeoff_curve(Priors.of(eta1), s, 257)
        qs = [float(smp.q) for smp in samples]
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
def test_tradeoff_curve_refuses_out_of_order_sweeps(eta1, s):
    # Each passes every per-angle guard, but its Q column falls or peaks
    # above the final discrimination cost.
    with pytest.raises(NumericError, match="out of order"):
        tradeoff_curve(Priors.of(eta1), s, 512)


def test_tradeoff_curve_edge_sweeps_are_ordered_or_refused():
    # s within 1e-9..1e-1 of 1, eta1 down to 1e-8, or both: every sweep is
    # returned in order or refused as a numeric failure.
    rng = np.random.default_rng(20261019)
    outcomes = set()
    for i in range(240):
        eta1, s = rng.uniform(0.0, 1.0), rng.uniform(0.01, 0.99)
        if i % 3 != 1:
            s = 1.0 - _decade(rng, -9, -1)
        if i % 3 != 0:
            eta1 = _decade(rng, -8, -1)
        try:
            samples = tradeoff_curve(Priors.of(float(eta1)), float(s), 512)
        except NumericError as exc:
            outcomes.add("out of order" if "out of order" in str(exc) else "per-angle")
            continue
        rows = [(float(m.theta), m.s_prime, float(m.q)) for m in samples]
        assert not _tradeoff_out_of_order(rows), (eta1, s)
        outcomes.add("ok")
    assert outcomes == {"ok", "out of order", "per-angle"}


def test_tradeoff_equal_priors_closed_form():
    samples = tradeoff_curve(Priors.of(0.5), 0.6, 129)
    for smp in samples:
        q = float(smp.q)
        assert smp.s_prime == pytest.approx((0.6 - q) / (1.0 - q), abs=1e-12)


def test_tradeoff_interior_matches_qmin():
    for eta1, s, sp in ((0.17, 0.6, 0.3), (0.35, 0.8, 0.1)):
        pr = Priors.of(eta1)
        q = float(qmin_at(pr, OverlapSpec(s, sp))[0])
        smp = tradeoff_at(pr, s, q)
        assert smp.s_prime == pytest.approx(sp, abs=1e-8)
        assert float(smp.q) == pytest.approx(q, abs=1e-12)


def test_tradeoff_at_is_max_separation_plus_the_budget():
    # Below the discrimination cost, tradeoff_at is max_separation's
    # (s', theta) with the requested budget as the achieved one.
    rng = np.random.default_rng(9031)
    for eta1, s, frac in rng.uniform([0.0, 0.02, 0.0], [1.0, 0.98, 0.999], (200, 3)).tolist():
        pr = Priors.of(eta1)
        budget = frac * float(q_ud(pr, s))
        smp = tradeoff_at(pr, s, budget)
        sp, theta = max_separation(pr, s, budget)
        assert (smp.s_prime.hex(), float(smp.theta).hex()) == (sp.hex(), float(theta).hex())
        assert smp.s == s and smp.q == FailureBudget(budget).q_avg


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
    assert 0.0 < smp.s_prime < s and float(smp.q) == q
    assert abs(qmin_referee.qmin(eta1, s, smp.s_prime)[0] - q) <= 1e-6


def test_tradeoff_at_edges():
    pr = Priors.of(0.2)
    smp = tradeoff_at(pr, 0.6, 0.0)
    assert smp.s_prime == 0.6 and float(smp.q) == 0.0
    qud = float(q_ud(pr, 0.6))
    smp = tradeoff_at(pr, 0.6, 0.9)
    assert smp.s_prime == 0.0 and float(smp.q) == pytest.approx(qud, abs=1e-15)


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
    interior and edge inputs; the end values are the f(lo), f(hi) a caller
    passes in, if any."""
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
        budget = frac * float(q_ud(pr, s))
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
        # the last bit, so the port evaluates the ends itself as brentq does.
        if what == "tangency abscissa log(q1)":
            ends = ()
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
    assert solvers._bracketed_root(f, 0.0, 1.0, "test") == ref


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
    assert solvers._bracketed_root(f, 0.0, 1.0, "test") == ref
    steps = []
    _with_fault(
        monkeypatch,
        "_bracketed_root",
        "lim = 3 * (sbis if sbis > 0.0 else -sbis) - delta",
        "_fault(num, den)",
        lambda num, den: den != 0.0 and steps.append(num / den),
    )
    assert solvers._bracketed_root(f, 0.0, 1.0, "test") == ref
    assert odd_step in {repr(step) for step in steps}


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
        solvers._bracketed_root(f, lo, hi, "test")
    # The cases are the ones in which brentq itself gives up.
    with pytest.raises(scipy_error):
        brentq(f, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps, maxiter=100)


@pytest.mark.parametrize(
    "solve, message",
    [
        (
            lambda: tradeoff_curve(Priors.of(4.13e-6), 0.9999999999977576, 512),
            r"delta \+ sin\(theta\) = 0\.0",
        ),
    ],
    ids=["tradeoff_curve-singular-angle"],
)
def test_singular_formulas_raise_numeric_error(solve, message):
    with pytest.raises(NumericError, match=message):
        solve()


# ---------------------------------------------------------------------------
# the sweeps against the scalar helpers and the scalar tradeoff referee


def _outcome(fn):
    """``("ok", value)`` or ``("raised", exception type, message)``."""
    try:
        return ("ok", fn())
    except (DomainError, NumericError) as exc:
        return ("raised", type(exc), str(exc))


def _hex_rows(rows):
    return [tuple(float.hex(v) for v in row) for row in rows]


def _qmin_rows_scalar(ov, n):
    """qmin_curve's samples, one scalar helper call at a time."""
    ts = np.linspace(t_slope_minus_one(ov), t_slope_zero(ov), n).tolist()
    return [
        (m.t, m.eta1, m.q_min, m.point.q1, m.point.q2, m.dq1_dt, m.dq2_dt)
        for m in (solvers._curve_row(t, ov) for t in ts)
    ]


def _tradeoff_eval(theta: float, s: float, delta: float) -> tuple[float, float]:
    """(s_prime, Q) on the tradeoff curve at angle theta < 0."""
    st, ct = math.sin(theta), math.cos(theta)
    if delta + st == 0.0 or ct == 0.0:
        raise _singular_error(theta, s, delta, st, ct)
    one = 1.0 - delta * delta
    gain = math.sqrt(one) * (st / (delta + st)) ** 2 / ct
    term_envelope = math.sqrt(one) * (1.0 + s * s) * ct
    term_budget = 2.0 * s * (1.0 + delta * st)
    sp2 = gain * (term_envelope - term_budget)
    # Where the two terms cancel (the full-separation end of the sweep,
    # severe for near-certainty priors) rounding leaves a negative residue
    # of order eps times the amplification; only values beyond that noise
    # floor indicate a real bug.
    noise = max(1e-12, 32.0 * _EPS * abs(gain) * (abs(term_envelope) + abs(term_budget)))
    if sp2 < -noise:
        raise _negative_sp2_error(sp2, theta, s, delta)
    sp2 = max(sp2, 0.0)
    if math.isinf(ct / st):
        raise _cot_overflow_error(theta, s, delta, st, ct)
    q = (s * math.sqrt(one) + delta * sp2 * (ct / st)) / ((1.0 - sp2) * ct)
    return math.sqrt(sp2), min(max(q, 0.0), 1.0)


def _tradeoff_sample(theta: float, s: float, delta: float) -> tuple[float, float]:
    if theta == 0.0:
        # Upper endpoint of the equal-slope family: full separation at the
        # tangency-regime discrimination cost.
        return 0.0, s * math.sqrt(1.0 - delta * delta)
    return _tradeoff_eval(theta, s, delta)


def _qmin_rows(ov, n):
    return [
        (m.t, m.eta1, m.q_min, m.point.q1, m.point.q2, m.dq1_dt, m.dq2_dt)
        for m in qmin_curve(ov, n)
    ]


def _tradeoff_rows_scalar(pr, s, n):
    """tradeoff_curve's samples on the angle sweep, one _tradeoff_sample at a time."""
    prn, _ = pr.normalized()
    thetas = np.linspace(*solvers._tradeoff_range(s, prn.delta, prn.eta1), n).tolist()
    rows = [(thetas[0], s, 0.0)]
    for theta in thetas[1:-1]:
        s_prime, q = _tradeoff_sample(theta, s, prn.delta)
        FailureBudget(q)
        rows.append((theta, min(s_prime, s), q))
    return rows + [(thetas[-1], 0.0, float(q_ud(prn, s)))]


def _tradeoff_rows(pr, s, n):
    return [(m.theta, m.s_prime, m.q) for m in tradeoff_curve(pr, s, n)]


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
def test_sweeps_match_scalar_helpers_in_hex(eta1, s, s_prime, n):
    # Every sample (or the error raised) of the array sweeps is what the
    # scalar helpers give at the same grid t / theta, bit for bit.
    ov = OverlapSpec(s, s_prime)
    want = _outcome(lambda: _qmin_rows_scalar(ov, n))
    got = _outcome(lambda: _qmin_rows(ov, n))
    if want[0] == "raised":
        assert got == want
    elif got[0] == "raised":
        # Only the sweep-level guard may reject samples the helpers accept.
        etas = [row[1] for row in want[1]]
        assert got[1] is NumericError and "monotonically" in got[2]
        assert max(b - a for a, b in zip(etas, etas[1:])) > solvers._MONOTONE_TOL
    else:
        assert _hex_rows(got[1]) == _hex_rows(want[1])

    pr = Priors.of(eta1)
    want = _outcome(lambda: _tradeoff_rows_scalar(pr, s, n))
    got = _outcome(lambda: _tradeoff_rows(pr, s, n))
    if want[0] == "raised":
        assert got == want
    elif got[0] == "raised":
        assert got[1] is NumericError and "out of order" in got[2]
        assert _tradeoff_out_of_order(want[1])
    else:
        assert _hex_rows(got[1]) == _hex_rows(want[1])


def _tradeoff_out_of_order(rows):
    """Whether (theta, s', Q) rows break tradeoff_curve's order guard."""
    sps = [row[1] for row in rows]
    qs = [row[2] for row in rows]
    return (
        max(a - b for a, b in zip(qs, qs[1:])) > solvers._MONOTONE_TOL
        or max(b - a for a, b in zip(sps, sps[1:])) > solvers._MONOTONE_TOL
        or max(qs[1:-1], default=0.0) > qs[-1]
    )


def test_sweep_cases_reach_the_guards():
    # The hex comparison above must see failing sweeps as well as clean ones.
    # The t-curve has no per-sample guard left and answers every case; the
    # tradeoff rows keep their negative-s'^2 guard.
    qmin, tradeoff = set(), set()
    for eta1, s, s_prime, n in _sweep_cases(20261018, 48):
        qmin.add(_outcome(lambda: _qmin_rows_scalar(OverlapSpec(s, s_prime), n))[0])
        out = _outcome(lambda: _tradeoff_rows_scalar(Priors.of(eta1), s, n))
        tradeoff.add(out[2].split(" ")[0] if out[0] == "raised" else "ok")
    assert qmin == {"ok"}
    assert {"ok", "negative"} <= tradeoff


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


@pytest.mark.parametrize("s", [1e-307, 1e-320])
def test_tradeoff_curve_at_subnormal_s_is_numeric_error(s):
    # Where cos(theta)/sin(theta) overflows, delta*s'^2*cot(theta) is 0*inf:
    # the sweep, like its referee, raises NumericError naming theta instead
    # of leaving a NaN Q for FailureBudget to call a DomainError.
    pr = Priors.of(0.3)
    with pytest.raises(NumericError, match=r"overflow at theta=-[0-9.e-]+, s=1e-3"):
        tradeoff_curve(pr, s, 512)
    assert _outcome(lambda: _tradeoff_rows(pr, s, 512)) == _outcome(
        lambda: _tradeoff_rows_scalar(pr, s, 512)
    )


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
        (
            lambda: [solvers._curve_row(t, OverlapSpec(0.6, 0.3)) for t in (0.0, 0.7, 1.0)],
            QminSample,
        ),
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
            assert type(smp.point) is FailurePoint
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


def _fault_tradeoff_q(monkeypatch, k):
    """Make the tradeoff sweep's Q NaN at interior grid index k."""
    _with_fault(
        monkeypatch,
        "_tradeoff_rows",
        "q = num / den if den else num * math.copysign(inf, den)",
        "q = _fault(len(qs), q)",
        lambda i, q: math.nan if i == k else q,
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
def test_tradeoff_curve_nan_in_q_raises_the_constructor_error(monkeypatch, branch):
    with pytest.raises(DomainError) as want:
        FailureBudget(math.nan)
    eta1 = {"generic": 0.2, "equal-priors": 0.5, "certainty": 0.0}[branch]
    if branch == "generic":
        _fault_tradeoff_q(monkeypatch, 6)  # grid index 6 is sample 7
    else:
        _fault_grid(monkeypatch, 7)
    with pytest.raises(DomainError) as got:
        tradeoff_curve(Priors.of(eta1), 0.6, 33)
    assert str(got.value) == str(want.value) == "q_avg must lie in [0, 1], got nan"


# This sweep's negative-s'^2 guard fires at sample 269 (grid index 268).
_NEGATIVE_SP2_CASE = (1.9302922127230343e-08, 0.9710224874752635, 512)


@pytest.mark.parametrize("k, wins", [(99, "q"), (268, "guard"), (300, "guard")])
def test_tradeoff_curve_earlier_failure_wins(monkeypatch, k, wins):
    eta1, s, n = _NEGATIVE_SP2_CASE
    prn, _ = Priors.of(eta1).normalized()
    theta = solvers._linspace(*solvers._tradeoff_range(s, prn.delta, prn.eta1), n)[1:-1][268]
    with pytest.raises(NumericError, match="negative squared overlap") as guard:
        tradeoff_curve(Priors.of(eta1), s, n)
    assert f"at theta={theta!r}," in str(guard.value)
    _fault_tradeoff_q(monkeypatch, k)
    if wins == "q":
        with pytest.raises(DomainError, match="q_avg must lie in"):
            tradeoff_curve(Priors.of(eta1), s, n)
    else:
        with pytest.raises(NumericError, match="negative squared overlap"):
            tradeoff_curve(Priors.of(eta1), s, n)

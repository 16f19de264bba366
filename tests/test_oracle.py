import sys

import numpy as np
import pytest

import qmin_referee
from statesep import (
    FailurePoint,
    NumericError,
    OverlapSpec,
    Priors,
    critical_overlap,
    max_separation,
    oracle_qmin,
    q_ud,
    qmin_at,
)
from statesep import oracle, verify
from statesep.oracle import _diagonal_q, _lower_q2_scalar


def test_oracle_equal_priors_diagonal():
    q, pt = oracle_qmin(Priors.of(0.5), OverlapSpec(0.6, 0.3))
    assert q == pytest.approx(3.0 / 7.0, abs=1e-8)
    assert pt.q1 == pytest.approx(pt.q2, abs=1e-6)


def test_oracle_full_separation_pivot():
    q, pt = oracle_qmin(Priors.of(0.1), OverlapSpec(0.6, 0.0))
    assert q == pytest.approx(0.424, abs=1e-8)
    assert (pt.q1, pt.q2) == pytest.approx((1.0, 0.36), abs=1e-6)


def test_oracle_trivial_target():
    q, pt = oracle_qmin(Priors.of(0.37), OverlapSpec(0.5, 0.5))
    assert q == 0.0
    assert (pt.q1, pt.q2) == (0.0, 0.0)


@pytest.mark.parametrize(
    "eta1, s, s_prime",
    [(0.3, 0.6, 0.6), (0.3, 1.0, 0.5), (0.3, 0.6, 0.3), (0.7, 0.6, 0.3), (0.1, 0.6, 0.0)],
    ids=["s'=s", "s=1", "search", "mirrored", "end-candidate"],
)
def test_oracle_budget_is_a_plain_float(eta1, s, s_prime):
    q, _ = oracle_qmin(Priors.of(eta1), OverlapSpec(s, s_prime))
    assert type(q) is float


@pytest.mark.parametrize("eta1", [0.2, 0.8])
def test_oracle_identical_states_always_fail(eta1):
    # s = 1 with s' < 1: only the certain-failure point (1, 1) is feasible.
    ov = OverlapSpec(1.0, 0.5)
    expected = (1.0, FailurePoint(1.0, 1.0))
    assert qmin_at(Priors.of(eta1), ov) == expected
    assert oracle_qmin(Priors.of(eta1), ov) == expected


def test_oracle_swap_normalization():
    ov = OverlapSpec(0.6, 0.25)
    q_lo, pt_lo = oracle_qmin(Priors.of(0.2), ov)
    q_hi, pt_hi = oracle_qmin(Priors.of(0.8), ov)
    assert q_lo == pytest.approx(q_hi, abs=1e-12)
    # The minimum is flat, so the located point is ~sqrt(tol) less precise
    # than the value.
    assert (pt_hi.q1, pt_hi.q2) == pytest.approx((pt_lo.q2, pt_lo.q1), abs=1e-4)


def test_oracle_never_beaten_by_boundary_points():
    # 10^5 random points on the constraint curve, recovered by an inline
    # vectorized bisection; none may undercut the oracle minimum.
    rng = np.random.Generator(np.random.Philox(key=77))
    for eta1, s, sp in ((0.3, 0.6, 0.2), (0.5, 0.45, 0.3), (0.12, 0.8, 0.05)):
        beta = sp
        q_diag_lo, q_diag_hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (q_diag_lo + q_diag_hi)
            if beta * (1 - mid) + mid - s < 0:
                q_diag_lo = mid
            else:
                q_diag_hi = mid
        q1 = rng.uniform(q_diag_hi, 1.0, 100_000)
        lo = np.zeros_like(q1)
        hi = q1 / (q1 + beta * beta * (1.0 - q1))
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            f = beta * np.sqrt((1 - q1) * (1 - mid)) + np.sqrt(q1 * mid) - s
            lo = np.where(f < 0, mid, lo)
            hi = np.where(f < 0, hi, mid)
        q2 = 0.5 * (lo + hi)
        values = np.minimum(
            eta1 * q1 + (1 - eta1) * q2, eta1 * q2 + (1 - eta1) * q1
        )
        q_star = oracle_qmin(Priors.of(eta1), OverlapSpec(s, sp))[0]
        assert q_star <= float(values.min()) + 1e-9


def test_oracle_monotone_in_target_overlap():
    # This monotonicity makes a judge in Q equivalent to one in s': the
    # least s' a budget buys is where the minimum failure meets the budget
    # (test_oracle_confirms_max_separation_in_q).
    for eta1, s in ((0.15, 0.7), (0.5, 0.4)):
        pr = Priors.of(eta1)
        qs = [
            oracle_qmin(pr, OverlapSpec(s, float(sp)))[0]
            for sp in np.linspace(0.0, s, 9)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(qs, qs[1:]))


def test_oracle_agreement_small_grid():
    worst = 0.0
    for eta1 in (0.05, 0.25, 0.5):
        pr = Priors.of(eta1)
        for s in (0.2, 0.55, 0.9):
            for frac in (0.0, 0.4, 0.95):
                ov = OverlapSpec(s, frac * s)
                a = qmin_at(pr, ov)[0]
                b = oracle_qmin(pr, ov)[0]
                worst = max(worst, abs(a - b))
    assert worst <= 1e-6


def test_oracle_agreement_worst_is_order_independent():
    # check_oracle_agreement walks eta1 innermost; its worst deviation must
    # match, bit for bit, the eta1-outermost walk.
    grid = 4
    worst = 0.0
    for eta1 in np.linspace(0.02, 0.5, grid):
        pr = Priors.of(float(eta1))
        for s in np.linspace(0.1, 0.9, grid):
            for frac in np.linspace(0.0, 1.0, grid):
                ov = OverlapSpec(float(s), float(frac * s))
                q_oracle = oracle_qmin(pr, ov)[0]
                worst = max(worst, abs(qmin_at(pr, ov)[0] - q_oracle))
    assert worst > 0.0
    assert verify.check_oracle_agreement(grid).worst.hex() == worst.hex()


def test_oracle_matches_the_referee_at_the_edges():
    # The minimum's q1 can sit far below 1e-10 (s -> 0 with s'/s -> 1) and
    # within 1e-9 of the diagonal or of q1 = 1; the search in log(q1)
    # resolves each to 1e-9 relative.
    worst = (0.0,)
    for s in (1e-9, 1e-4, 0.6, 1.0 - 1e-9):
        for frac in (1.0 - 1e-12, 1.0 - 1e-8, 1.0 - 1e-4, 1e-12):
            for eta1 in (1e-9, 0.3, 0.5 - 1e-9):
                q = oracle_qmin(Priors.of(eta1), OverlapSpec(s, frac * s))[0]
                ref = float(qmin_referee.qmin(eta1, s, frac * s)[0])
                worst = max(worst, (abs(q - ref) / max(ref, sys.float_info.min), eta1, s, frac))
    assert worst[0] <= 1e-9, worst


@pytest.mark.parametrize("eta1", [0.1, 0.9])
def test_oracle_takes_the_endpoint_exactly_when_the_minimum_sits_there(eta1):
    # With s' = 0 and eta2/eta1 >= 1/s^2 the objective still falls at q1 = 1,
    # so the search's last bracket is beaten by the (1, s^2) end candidate,
    # which comes back bit for bit (mirrored when the priors are swapped).
    s = 0.6
    pr = Priors.of(eta1)
    prn, swapped = pr.normalized()
    q, pt = oracle_qmin(pr, OverlapSpec(s, 0.0))
    assert q == prn.eta1 + prn.eta2 * (s * s)
    end = FailurePoint(1.0, s * s)
    assert pt == (end.swapped() if swapped else end)


def test_oracle_value_is_the_value_of_its_point_on_the_lower_half():
    # The minimum is picked as one (Q, q1, q2) tuple: the returned Q is the
    # objective at the returned point, whose q2 is the closed-form lower-half
    # ordinate at its q1 (s^2 at the q1 = 1 end), between the diagonal
    # crossing and q1 = 1.
    rng = np.random.Generator(np.random.Philox(key=31))
    for _ in range(40):
        eta1 = float(rng.uniform(0.01, 0.99))
        s = float(rng.uniform(0.05, 0.95))
        beta = float(rng.uniform(0.0, 0.95)) * s
        pr = Priors.of(eta1)
        prn, swapped = pr.normalized()
        q, pt = oracle_qmin(pr, OverlapSpec(s, beta))
        if swapped:
            pt = pt.swapped()
        assert _diagonal_q(s, beta) <= pt.q1 <= 1.0
        on_curve = s * s if pt.q1 == 1.0 else _lower_q2_scalar(pt.q1, s, beta)
        assert pt.q2 == on_curve, (eta1, s, beta)
        assert q == prn.eta1 * pt.q1 + prn.eta2 * pt.q2, (eta1, s, beta)


@pytest.mark.parametrize(
    "eta1, s, q_max",
    [
        (0.3, 0.4, 0.35),
        (0.3, 0.6, 0.35),
        (0.3, 0.8, 0.35),
        (0.3, 0.95, 0.35),
        (0.5, 0.6, 0.3),
        (0.1, 0.9, 0.2),
        (0.7, 0.7, 0.3),
        (0.05, 0.3, 0.01),
    ],
)
def test_oracle_confirms_max_separation_in_q(eta1, s, q_max):
    # Judged in Q at the solver's own s': where the budget binds, the
    # oracle's minimum failure there is the budget, to 1e-15.
    pr = Priors.of(eta1)
    assert critical_overlap(pr, q_max) < s
    sp, _ = max_separation(pr, s, q_max)
    assert 0.0 < sp < s
    assert oracle_qmin(pr, OverlapSpec(s, sp))[0] == pytest.approx(q_max, rel=0.0, abs=1e-15)


def test_residual_post_check_refuses_off_curve_ordinates(monkeypatch):
    # The closed form lands on the constraint, so the 1e-9 residual check is
    # reached only by a NaN or a wrong ordinate; both must be refused.
    with pytest.raises(NumericError, match="off the constraint"):
        _lower_q2_scalar(float("nan"), 0.6, 0.3)
    monkeypatch.setattr(oracle, "lower_half_q2", lambda q1, s, beta: 0.5)
    with pytest.raises(NumericError, match="off the constraint"):
        _lower_q2_scalar(0.7, 0.6, 0.3)


def test_scalar_lower_half_rejects_off_curve_q1():
    # q1 = 1e-3 is below the curve's range (R < s).
    with pytest.raises(NumericError, match="q1 is outside the curve's range"):
        _lower_q2_scalar(1e-3, 0.6, 0.3)


def test_lower_half_at_the_ends_of_the_float_range():
    # s one ulp below 1: at the vertex the rationalized ordinate rounds to
    # 1 + 2 ulps, which is clamped to 1.
    s = 0.9999999999999999
    beta = s * 6.795039231553378e-13
    q_diag = _diagonal_q(s, beta)
    assert _lower_q2_scalar(q_diag, s, beta) == 1.0
    # s = 1e-300: s*sqrt(q1) and the numerator both underflow to 0, so the
    # ordinate would be 0/0, which is refused.
    with pytest.raises(NumericError, match="ordinate underflows at q1=1e-300"):
        _lower_q2_scalar(1e-300, 1e-300, 5e-301)

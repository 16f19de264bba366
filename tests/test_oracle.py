import math

import numpy as np
import pytest

from statesep import (
    DomainError,
    FailureBudget,
    FailurePoint,
    NumericError,
    OverlapSpec,
    Priors,
    oracle_max_separation,
    oracle_qmin,
    q_ud,
    qmin_at,
)
from statesep import oracle, verify
from statesep.oracle import _best_candidate, _diagonal_q, _lower_q2_grid, _lower_q2_scalar


def test_oracle_equal_priors_diagonal():
    q, pt = oracle_qmin(Priors.of(0.5), OverlapSpec(0.6, 0.3))
    assert float(q) == pytest.approx(3.0 / 7.0, abs=1e-8)
    assert pt.q1 == pytest.approx(pt.q2, abs=1e-6)


def test_oracle_full_separation_pivot():
    q, pt = oracle_qmin(Priors.of(0.1), OverlapSpec(0.6, 0.0))
    assert float(q) == pytest.approx(0.424, abs=1e-8)
    assert (pt.q1, pt.q2) == pytest.approx((1.0, 0.36), abs=1e-6)


def test_oracle_trivial_target():
    q, pt = oracle_qmin(Priors.of(0.37), OverlapSpec(0.5, 0.5))
    assert float(q) == 0.0
    assert (pt.q1, pt.q2) == (0.0, 0.0)


@pytest.mark.parametrize("eta1", [0.2, 0.8])
def test_oracle_identical_states_always_fail(eta1):
    # s = 1 with s' < 1: only the certain-failure point (1, 1) is feasible.
    ov = OverlapSpec(1.0, 0.5)
    expected = (FailureBudget(1.0), FailurePoint(1.0, 1.0))
    assert qmin_at(Priors.of(eta1), ov) == expected
    assert oracle_qmin(Priors.of(eta1), ov) == expected


def test_oracle_swap_normalization():
    ov = OverlapSpec(0.6, 0.25)
    q_lo, pt_lo = oracle_qmin(Priors.of(0.2), ov)
    q_hi, pt_hi = oracle_qmin(Priors.of(0.8), ov)
    assert float(q_lo) == pytest.approx(float(q_hi), abs=1e-12)
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
        q_star = float(oracle_qmin(Priors.of(eta1), OverlapSpec(s, sp))[0])
        assert q_star <= float(values.min()) + 1e-9


def test_oracle_monotone_in_target_overlap():
    # The bisection in oracle_max_separation leans on this monotonicity.
    for eta1, s in ((0.15, 0.7), (0.5, 0.4)):
        pr = Priors.of(eta1)
        qs = [
            float(oracle_qmin(pr, OverlapSpec(s, float(sp)))[0])
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
                a = float(qmin_at(pr, ov)[0])
                b = float(oracle_qmin(pr, ov)[0])
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
                q_oracle = float(oracle_qmin(pr, ov)[0])
                worst = max(worst, abs(float(qmin_at(pr, ov)[0]) - q_oracle))
    assert worst > 0.0
    assert verify.check_oracle_agreement(grid).worst.hex() == worst.hex()


def test_best_candidate_matches_lexsort_order():
    # Smallest Q first, then smallest q1, then the earliest index.  Values
    # are drawn from a few levels so that ties in Q and in (Q, q1) occur.
    rng = np.random.Generator(np.random.Philox(key=59))
    for n in (1, 2, 3, 8, 100, 8194):
        for _ in range(50):
            cand_q = rng.integers(0, 3, n) * 0.25
            cand_q1 = rng.integers(0, 3, n) * 0.5
            assert _best_candidate(cand_q, cand_q1) == np.lexsort((cand_q1, cand_q))[0]


def test_oracle_max_separation_examples():
    assert oracle_max_separation(Priors.of(0.3), 0.4, 0.35) == pytest.approx(
        0.032, abs=2e-3
    )
    assert oracle_max_separation(Priors.of(0.5), 0.6, 0.3) == pytest.approx(
        3.0 / 7.0, abs=1e-6
    )
    pr = Priors.of(0.2)
    assert oracle_max_separation(pr, 0.5, float(q_ud(pr, 0.5)) + 0.05) == 0.0


@pytest.mark.parametrize("q_max", [-0.5, math.nan, 1.5, -math.inf, math.inf])
def test_oracle_max_separation_refuses_budgets_outside_the_unit_interval(monkeypatch, q_max):
    # Refused before the bisection runs a single oracle minimum.
    def never(*args):
        raise AssertionError("oracle_qmin called")

    monkeypatch.setattr(oracle, "oracle_qmin", never)
    with pytest.raises(DomainError, match=r"q_max must lie in \[0, 1\], got"):
        oracle_max_separation(Priors.of(0.3), 0.6, q_max)


def test_scalar_lower_half_is_bit_identical_to_grid():
    # The golden-section polish evaluates the curve one float at a time; it
    # must land on exactly the ordinates the vectorized grid sweep finds.
    # Seeded cases cover beta = 0, beta -> 0, beta -> s, and q1 at the
    # diagonal crossing and near 1.
    rng = np.random.Generator(np.random.Philox(key=31))
    for s in rng.uniform(0.05, 0.95, 12):
        s = float(s)
        for frac in (0.0, 1e-12, 1e-6, float(rng.uniform(0.0, 1.0)), 1.0 - 1e-3, 1.0 - 1e-9):
            beta = frac * s
            q_diag = _diagonal_q(s, beta)
            q1s = [q_diag, 1.0 - 1e-6, 1.0 - 1e-12, 1.0]
            q1s += [float(x) for x in rng.uniform(q_diag, 1.0, 4)]
            for q1 in q1s:
                grid = float(_lower_q2_grid(np.array([q1]), s, beta)[0])
                scalar = _lower_q2_scalar(q1, s, beta)
                assert scalar.hex() == grid.hex(), (q1, s, beta)


def test_residual_post_check_refuses_off_curve_ordinates(monkeypatch):
    # The closed form lands on the constraint, so the 1e-9 residual check is
    # reached only by a NaN or a wrong ordinate; both paths must refuse.
    with pytest.raises(NumericError, match="off the constraint"):
        _lower_q2_grid(np.array([0.8, float("nan")]), 0.6, 0.3)
    with pytest.raises(NumericError, match="off the constraint"):
        _lower_q2_scalar(float("nan"), 0.6, 0.3)
    monkeypatch.setattr(oracle, "lower_half_q2", lambda q1, s, beta: 0.5)
    with pytest.raises(NumericError, match="off the constraint"):
        _lower_q2_scalar(0.7, 0.6, 0.3)


def test_scalar_lower_half_rejects_off_curve_q1():
    # q1 = 1e-3 is below the curve's range (R < s): both refuse.
    with pytest.raises(NumericError, match="q1 is outside the curve's range"):
        _lower_q2_scalar(1e-3, 0.6, 0.3)
    with pytest.raises(NumericError, match="q1 is outside the curve's range"):
        _lower_q2_grid(np.array([1e-3]), 0.6, 0.3)


def test_lower_half_at_the_ends_of_the_float_range():
    # s one ulp below 1: at the vertex the rationalized ordinate rounds to
    # 1 + 2 ulps, which both paths clamp to 1.
    s = 0.9999999999999999
    beta = s * 6.795039231553378e-13
    q_diag = _diagonal_q(s, beta)
    assert _lower_q2_scalar(q_diag, s, beta) == 1.0
    assert float(_lower_q2_grid(np.array([q_diag]), s, beta)[0]) == 1.0
    # s = 1e-300: s*sqrt(q1) and the numerator both underflow to 0, so the
    # ordinate would be 0/0; both paths refuse.
    with pytest.raises(NumericError, match="ordinate underflows at q1=1e-300"):
        _lower_q2_scalar(1e-300, 1e-300, 5e-301)
    with pytest.raises(NumericError, match="ordinate underflows at q1=1e-300"):
        _lower_q2_grid(np.array([0.5, 1e-300]), 1e-300, 5e-301)

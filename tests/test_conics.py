import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from statesep import (
    ConicPoint,
    DomainError,
    FailurePoint,
    OverlapSpec,
    Priors,
    conic_slopes,
    curve_point,
    ellipse_point,
    from_conic,
    max_separation,
    parabola_v,
    t_slope_minus_one,
    t_slope_zero,
    tangency_residuals,
)


def _mean_coordinates(pt):
    """The conic image (u, v) of a failure point, straight from its definition."""
    return ConicPoint(math.sqrt(pt.q1 * pt.q2), 0.5 * (pt.q1 + pt.q2))


# ---------------------------------------------------------------------------
# transform and inverse


def test_conic_point_checks_and_value_semantics():
    cp = ConicPoint(0.3, 0.4)
    assert cp == ConicPoint(v=0.4, u=0.3) and hash(cp) == hash((0.3, 0.4))
    assert repr(cp) == "ConicPoint(u=0.3, v=0.4)" and pickle.loads(pickle.dumps(cp)) == cp
    with pytest.raises(dataclasses.FrozenInstanceError):
        cp.u = 0.1
    with pytest.raises(DomainError) as err:
        ConicPoint(-0.1, 0.4)
    assert str(err.value) == "conic coordinates must be nonnegative, got ConicPoint(u=-0.1, v=0.4)"
    with pytest.raises(DomainError, match="geometric mean exceeds arithmetic mean"):
        ConicPoint(0.5, 0.3)


@given(q1=st.floats(0.0, 1.0), q2=st.floats(0.0, 1.0))
# Near the diagonal at q1 = 1, rounding u and v pushed the large root to
# 1 + 1.5e-8, beyond the old 1e-12 snap.
@example(q1=1.0, q2=0.9999999999999999)
def test_am_gm_and_round_trip(q1, q2):
    cp = _mean_coordinates(FailurePoint(q1, q2))
    assert cp.u <= cp.v + 1e-12
    lower, upper = from_conic(cp)
    assert sorted((lower.q1, lower.q2)) == pytest.approx(sorted((q1, q2)), abs=1e-7)
    assert upper == lower.swapped()
    back = _mean_coordinates(lower)
    assert back.u == pytest.approx(cp.u, abs=1e-12)
    assert back.v == pytest.approx(cp.v, abs=1e-12)


def test_from_conic_values():
    lower, upper = from_conic(ConicPoint(0.25, 0.25))
    assert lower == FailurePoint(0.25, 0.25) == upper
    # Quadratic roots: v +/- sqrt(v^2 - u^2) with u = 0.6, v = (1+0.36)/2.
    lower, _ = from_conic(ConicPoint(0.6, 0.5 * 1.36))
    assert lower.q1 == pytest.approx(1.0, abs=1e-12)
    assert lower.q2 == pytest.approx(0.36, abs=1e-12)


def test_from_conic_rejects_v_below_u():
    with pytest.raises(DomainError):
        from_conic(ConicPoint(0.5, 0.3))


# ---------------------------------------------------------------------------
# parabola family


def test_parabola_touches_envelope_at_s():
    for s in (0.2, 0.5, 0.8):
        for sp in (0.1 * s, 0.7 * s, s):
            assert parabola_v(s, s, sp) == pytest.approx(0.5 * (1 + s * s), abs=1e-15)


def test_parabola_through_origin_when_sprime_equals_s():
    assert parabola_v(0.0, 0.4, 0.4) == pytest.approx(0.0, abs=1e-15)


def test_parabola_envelope_and_thinning():
    us = np.linspace(0.0, 1.0, 201)
    for s in (0.2, 0.5, 0.8):
        vals = np.array([parabola_v(u, s, 0.5 * s) for u in us])
        env = 0.5 * (1 + us * us)
        assert np.all(vals <= env + 1e-12)
        interior = np.abs(us - s) > 1e-3
        assert np.all(vals[interior] < env[interior])
        thinner = np.array([parabola_v(u, s, 0.25 * s) for u in us])
        assert np.all(thinner[interior] < vals[interior])


def test_parabola_rejects_degenerate_sprime():
    with pytest.raises(DomainError):
        parabola_v(0.3, 0.6, 0.0)


def test_curve_points_map_onto_parabola():
    # Cross-module consistency: the constraint curve in mean coordinates is
    # exactly the parabola.
    for s, sp in ((0.6, 0.3), (0.8, 0.1), (0.3, 0.25)):
        ov = OverlapSpec(s, sp)
        for t in np.linspace(t_slope_minus_one(ov), t_slope_zero(ov), 33):
            cp = _mean_coordinates(curve_point(float(t), ov))
            assert parabola_v(cp.u, s, sp) == pytest.approx(cp.v, abs=1e-12)


def test_parabola_degenerates_to_vertical_segment():
    # As s' -> 0 the only points with bounded v cluster at u = s.
    s = 0.5
    for u in np.linspace(0, 1, 51):
        v = parabola_v(u, s, 1e-6)
        if abs(u - s) > 1e-3:
            assert v < -1e5
    assert parabola_v(s, s, 1e-6) == pytest.approx(0.5 * (1 + s * s), abs=1e-12)


# ---------------------------------------------------------------------------
# ellipse family


def test_ellipse_collapses_at_zero_budget():
    cp = ellipse_point(0.7, 0.0, Priors.of(0.3))
    assert cp.u == 0.0 and cp.v == 0.0


def test_ellipse_degenerates_for_equal_priors():
    cp = ellipse_point(0.0, 0.4, Priors.of(0.5))
    assert (cp.u, cp.v) == pytest.approx((0.4, 0.4), abs=1e-15)
    # Horizontal segment: v = Q for every angle.
    for th in np.linspace(-1.5, 1.5, 21):
        cp = ellipse_point(float(th), 0.4, Priors.of(0.5 - 5e-7))
        assert cp.v == pytest.approx(0.4, abs=1e-5)


def test_ellipse_rejects_certain_priors():
    with pytest.raises(DomainError):
        ellipse_point(0.3, 0.2, Priors.of(0.0))


def test_ellipse_envelope_is_diagonal():
    # v - u >= 0 with equality exactly at theta = -arcsin(delta).
    for eta1, q in ((0.2, 0.3), (0.35, 0.6), (0.45, 0.1)):
        pr = Priors.of(eta1)
        theta_star = -math.asin(pr.delta)
        cp = ellipse_point(theta_star, q, pr)
        assert cp.v - cp.u == pytest.approx(0.0, abs=1e-12)
        for th in np.linspace(-1.5, 1.5, 41):
            cp = ellipse_point(float(th), q, pr)
            assert cp.v - cp.u >= -1e-12
            if abs(th - theta_star) > 0.05:
                assert cp.v - cp.u > 1e-6


# ---------------------------------------------------------------------------
# slopes and the tangency system


def test_slope_values():
    # Parabola slope at u = s is s; ellipse slope vanishes at theta = pi/2.
    e, p = conic_slopes(math.pi / 2, Priors.of(0.2), u=0.5, s=0.5, s_prime=0.25)
    assert p == pytest.approx(0.5, abs=1e-12)
    assert e == pytest.approx(0.0, abs=1e-12)


def test_slope_infinite_flag():
    e, _ = conic_slopes(0.0, Priors.of(0.2), u=0.4, s=0.5, s_prime=0.25)
    assert math.isinf(e) and e < 0


def test_tangency_solution_zeroes_residuals():
    pr, s, q_max = Priors.of(0.3), 0.4, 0.35
    sp, theta = max_separation(pr, s, q_max)
    r1, r2 = tangency_residuals(theta, q_max, pr, s, sp)
    assert abs(r1) <= 1e-9 and abs(r2) <= 1e-9
    e, p = conic_slopes(theta, pr, ellipse_point(theta, q_max, pr).u, s, sp)
    assert e == pytest.approx(p, abs=1e-9)


def test_tangency_residuals_at_equal_priors_optimum():
    # Equal priors: the optimum is theta = 0, the end of the degenerate
    # segment v = Q, where sin(theta) = 0 once divided by zero.  The point
    # lies on the parabola; the slope residual is the parabola's slope.
    pr, s, q_max = Priors.of(0.5), 0.6, 0.3
    sp, theta = max_separation(pr, s, q_max)
    assert float(theta) == 0.0 and sp == pytest.approx(3 / 7, abs=1e-15)
    r1, r2 = tangency_residuals(theta, q_max, pr, s, sp)
    assert abs(r1) <= 1e-12
    _, p = conic_slopes(theta, pr, q_max, s, sp)
    assert r2 == p and p == pytest.approx(q_max + (s - q_max) / sp**2, abs=1e-12)


def test_tangency_residuals_slope_is_parabola_minus_ellipse():
    pr, s, sp, q = Priors.of(0.2), 0.6, 0.3, 0.4
    for theta in (-1.2, -0.4, -1e-3):
        _, r2 = tangency_residuals(theta, q, pr, s, sp)
        e, p = conic_slopes(theta, pr, ellipse_point(theta, q, pr).u, s, sp)
        assert r2 == p - e
    _, r2 = tangency_residuals(0.0, q, pr, s, sp)
    assert r2 == math.inf  # the ellipse slope's -inf flag at sin(theta) = 0


def test_tangency_point_satisfies_objective_and_constraint():
    pr, s, q_max = Priors.of(0.3), 0.4, 0.35
    sp, theta = max_separation(pr, s, q_max)
    lower, _ = from_conic(ellipse_point(theta, q_max, pr))
    assert pr.eta1 * lower.q1 + pr.eta2 * lower.q2 == pytest.approx(q_max, abs=1e-9)
    resid = math.sqrt(lower.p1 * lower.p2) * sp + math.sqrt(lower.q1 * lower.q2) - s
    assert resid == pytest.approx(0.0, abs=1e-9)


def test_tangency_boundary_consistency():
    # At the upper end of the angle range the parabola has degenerated into
    # the vertical segment u = s: membership reduces to u(theta_max) = s.
    delta, q = 0.8, 0.5  # q >= 1 - delta, the nontrivial branch
    theta_max = math.asin((1.0 - q - delta) / q)
    u = q * math.cos(theta_max) / math.sqrt(1 - delta * delta)
    s_end = math.sqrt((2 * q + delta - 1) / (1 + delta))
    assert u == pytest.approx(s_end, abs=1e-12)
    # Just inside the range (an initial overlap 1e-6 above s_end) the
    # solver's tangency still closes the full system.
    pr = Priors.of(0.5 * (1 - delta))
    sp, theta = max_separation(pr, s_end + 1e-6, q)
    assert 0.0 < theta_max - float(theta) <= 1e-5
    r1, r2 = tangency_residuals(theta, q, pr, s_end + 1e-6, sp)
    assert abs(r1) <= 1e-9 and abs(r2) <= 1e-9


def test_tangency_nondegeneracy_probe():
    pr, s, q_max = Priors.of(0.3), 0.4, 0.35
    sp, theta = max_separation(pr, s, q_max)
    r1, r2 = tangency_residuals(float(theta) + 0.1, q_max, pr, s, sp)
    assert max(abs(r1), abs(r2)) > 1e-4

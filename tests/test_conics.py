import math

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
    to_conic,
)


# ---------------------------------------------------------------------------
# transform and inverse


def test_to_conic_values():
    cp = to_conic(FailurePoint(0.25, 0.25))
    assert (cp.u, cp.v) == (0.25, 0.25)
    s = 0.6
    cp = to_conic(FailurePoint(1.0, s * s))
    assert cp.u == pytest.approx(s, abs=1e-15)
    assert cp.v == pytest.approx(0.5 * (1 + s * s), abs=1e-15)
    cp = to_conic(FailurePoint(0.3, 0.5))
    assert cp.u == pytest.approx(math.sqrt(0.15), abs=1e-15)
    assert cp.v == pytest.approx(0.4, abs=1e-15)


@given(q1=st.floats(0.0, 1.0), q2=st.floats(0.0, 1.0))
# Near the diagonal at q1 = 1, rounding u and v pushed the large root to
# 1 + 1.5e-8, beyond the old 1e-12 snap.
@example(q1=1.0, q2=0.9999999999999999)
def test_am_gm_and_round_trip(q1, q2):
    cp = to_conic(FailurePoint(q1, q2))
    assert cp.u <= cp.v + 1e-12
    lower, upper = from_conic(cp)
    assert sorted((lower.q1, lower.q2)) == pytest.approx(sorted((q1, q2)), abs=1e-7)
    assert upper == lower.swapped()
    back = to_conic(lower)
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
            cp = to_conic(curve_point(float(t), ov))
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
    # Just inside the range the full system still closes on itself.
    pr = Priors.of(0.5 * (1 - delta))
    from statesep.solvers import _maxsep_s, _maxsep_s_prime

    th = theta_max - 1e-6
    s_th, sp_th = _maxsep_s(th, q, delta), _maxsep_s_prime(th, q, delta)
    r1, r2 = tangency_residuals(th, q, pr, s_th, sp_th)
    assert abs(r1) <= 1e-9 and abs(r2) <= 1e-9


def test_tangency_nondegeneracy_probe():
    pr, s, q_max = Priors.of(0.3), 0.4, 0.35
    sp, theta = max_separation(pr, s, q_max)
    r1, r2 = tangency_residuals(float(theta) + 0.1, q_max, pr, s, sp)
    assert max(abs(r1), abs(r2)) > 1e-4

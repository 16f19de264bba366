import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from statesep import (
    DomainError,
    FailurePoint,
    OverlapSpec,
    Priors,
    sqrt_clamped,
    unitarity_residual,
)
from statesep import verify
from statesep.core import NumericError, lower_half_q2

import helpers


# ---------------------------------------------------------------------------
# types


def test_priors_validation():
    Priors(0.3, 0.7)
    with pytest.raises(DomainError):
        Priors(0.3, 0.6)
    with pytest.raises(DomainError):
        Priors(-0.1, 1.1)
    assert Priors.of(0.25).eta2 == 0.75
    assert Priors.of(0.1).delta == pytest.approx(0.8, abs=1e-15)
    prn, swapped = Priors.of(0.8).normalized()
    assert swapped and prn.eta1 == pytest.approx(0.2, abs=1e-15)


def test_overlap_spec_validation():
    ov = OverlapSpec(0.6, 0.3)
    assert (ov.s, ov.s_prime) == (0.6, 0.3)
    with pytest.raises(DomainError):
        OverlapSpec(0.3, 0.6)
    # The target overlap is the whole of the constraint's beta: there is no
    # success-flag overlap to set.
    with pytest.raises(TypeError):
        OverlapSpec(0.6, 0.3, kappa=0.5)
    with pytest.raises(TypeError):
        OverlapSpec(0.6, 0.3, 0.5)


def test_failure_point_validation():
    pt = FailurePoint(0.3, 0.5)
    assert pt.p1 == 0.7 and pt.p2 == 0.5
    assert pt.swapped() == FailurePoint(0.5, 0.3)
    with pytest.raises(DomainError):
        FailurePoint(1.2, 0.0)


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Priors(_NAN, 0.5), "eta1 must lie in [0, 1], got nan"),
        (lambda: Priors(-0.1, 1.1), "eta1 must lie in [0, 1], got -0.1"),
        (lambda: Priors(_INF, -_INF), "eta1 must lie in [0, 1], got inf"),
        # eta1 is checked before eta2 is converted.
        (lambda: Priors(_NAN, "x"), "eta1 must lie in [0, 1], got nan"),
        (lambda: Priors(0.3, 1.5), "eta2 must lie in [0, 1], got 1.5"),
        (lambda: Priors(0.3, _NAN), "eta2 must lie in [0, 1], got nan"),
        (lambda: Priors(0.3, 0.6), "priors must sum to 1 within 1e-12, got 0.3 + 0.6"),
        (
            lambda: Priors(0.5, 0.5 + 1e-12),
            "priors must sum to 1 within 1e-12, got 0.5 + 0.500000000001",
        ),
        (lambda: Priors.of(1.5), "eta1 must lie in [0, 1], got 1.5"),
        (lambda: Priors.of(_NAN), "eta1 must lie in [0, 1], got nan"),
        (lambda: Priors.of(-1e-300), "eta1 must lie in [0, 1], got -1e-300"),
        (lambda: OverlapSpec(1.5, 0.3), "s must lie in [0, 1], got 1.5"),
        (lambda: OverlapSpec(_NAN, _NAN), "s must lie in [0, 1], got nan"),
        (lambda: OverlapSpec(-1, 2), "s must lie in [0, 1], got -1.0"),
        (lambda: OverlapSpec(0.6, -0.1), "s_prime must lie in [0, 1], got -0.1"),
        (
            lambda: OverlapSpec(0.3, 0.6),
            "s_prime must not exceed s, got s_prime=0.6 > s=0.3",
        ),
        (
            lambda: OverlapSpec(0.5, 0.5000000000000001),
            "s_prime must not exceed s, got s_prime=0.5000000000000001 > s=0.5",
        ),
        (lambda: FailurePoint(1.2, 0.0), "q1 must lie in [0, 1], got 1.2"),
        (lambda: FailurePoint(_NAN, 2), "q1 must lie in [0, 1], got nan"),
        (lambda: FailurePoint(-0.5, "x"), "q1 must lie in [0, 1], got -0.5"),
        (lambda: FailurePoint(0.5, -1e-300), "q2 must lie in [0, 1], got -1e-300"),
        (lambda: FailurePoint(0.5, _INF), "q2 must lie in [0, 1], got inf"),
    ],
)
def test_constructors_refuse_with_the_first_bad_field(build, message):
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == message


def test_constructors_pass_conversion_errors_through():
    with pytest.raises(ValueError, match="could not convert string to float: 'a'"):
        Priors("a", 0.5)
    with pytest.raises(TypeError, match="not 'NoneType'"):
        FailurePoint(None, 0.5)


def _plain(*values):
    return all(type(v) is float for v in values)


def test_constructors_coerce_with_float():
    pr = Priors(0, 1)
    assert (pr.eta1, pr.eta2) == (0.0, 1.0) and _plain(pr.eta1, pr.eta2)
    pr = Priors.of(np.float32(0.25))
    assert (pr.eta1, pr.eta2) == (0.25, 0.75) and _plain(pr.eta1, pr.eta2)
    ov = OverlapSpec(np.float64(0.6), Fraction(3, 10))
    assert (ov.s, ov.s_prime) == (0.6, 0.3)
    assert _plain(ov.s, ov.s_prime)
    # float32 keeps its own value, not the decimal it was written as.
    pt = FailurePoint(np.float32(0.3), 1)
    assert pt.q1 == float(np.float32(0.3)) != 0.3 and pt.q2 == 1.0 and _plain(pt.q1, pt.q2)
    assert OverlapSpec(0.6, "0.3").s_prime == 0.3


_INSTANCES = [
    Priors(0.3, 0.7),
    Priors.of(0.0),
    OverlapSpec(0.6, 0.3),
    OverlapSpec(0.6, 0.0),
    FailurePoint(0.3, 0.5),
]


# The fields of each domain type, in constructor order.
_FIELDS = {
    Priors: ("eta1", "eta2"),
    OverlapSpec: ("s", "s_prime"),
    FailurePoint: ("q1", "q2"),
}


@pytest.mark.parametrize("obj", _INSTANCES, ids=lambda o: repr(o))
def test_domain_types_are_frozen_slotted_values(obj):
    names = _FIELDS[type(obj)]
    values = tuple(getattr(obj, name) for name in names)
    assert not hasattr(obj, "__dict__")
    assert type(obj).__slots__ == names
    assert type(obj).__match_args__ == names
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 0.25)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    # Field-wise ==, hash and repr, as a frozen dataclass has them.
    twin = type(obj)(*values)
    assert twin == obj and hash(twin) == hash(obj) == hash(values)
    assert obj != values
    assert repr(obj) == f"{type(obj).__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)
    ) + ")"
    assert type(obj)(**dict(zip(names, values))) == obj
    for copied in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(copied) is type(obj) and copied == obj and repr(copied) == repr(obj)


def test_domain_types_are_unequal_across_types():
    pt = FailurePoint(0.5, 0.5)
    assert pt != Priors(0.5, 0.5) and Priors(0.5, 0.5) != pt
    assert pt != (0.5, 0.5) and (0.5, 0.5) != pt
    assert pt.__eq__(Priors(0.5, 0.5)) is NotImplemented


def _unchecked(cls, *values):
    """An instance whose fields skipped the constructor's checks."""
    obj = object.__new__(cls)
    for name, value in zip(_FIELDS[cls], values):
        getattr(cls, name).__set__(obj, value)
    return obj


@pytest.mark.parametrize(
    "obj, message",
    [
        (_unchecked(FailurePoint, 2.0, 0.5), "q1 must lie in [0, 1], got 2.0"),
        (_unchecked(Priors, 0.3, 0.6), "priors must sum to 1 within 1e-12, got 0.3 + 0.6"),
        (
            _unchecked(OverlapSpec, 0.3, 0.6),
            "s_prime must not exceed s, got s_prime=0.6 > s=0.3",
        ),
    ],
    ids=["FailurePoint", "Priors", "OverlapSpec"],
)
def test_copy_and_pickle_rebuild_through_the_checks(obj, message):
    for rebuild in (copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))):
        with pytest.raises(DomainError) as err:
            rebuild(obj)
        assert str(err.value) == message


def test_sqrt_clamped():
    assert sqrt_clamped(-1e-15) == 0.0
    assert sqrt_clamped(4.0) == 2.0
    with pytest.raises(DomainError):
        sqrt_clamped(-1e-13)


# ---------------------------------------------------------------------------
# unitarity residual and feasibility


@pytest.mark.parametrize("beta_frac", [0.0, 0.25, 0.75, 1.0])
@pytest.mark.parametrize("s", [0.1, 0.6, 0.95])
def test_endpoint_identity(s, beta_frac):
    ov = OverlapSpec(s, s * beta_frac)
    assert abs(unitarity_residual(FailurePoint(1.0, s * s), ov)) <= 1e-12
    assert abs(unitarity_residual(FailurePoint(s * s, 1.0), ov)) <= 1e-12


def test_residual_on_diagonal_bisection_oracle():
    # Bisection on the diagonal q1 = q2 = q: beta*(1-q) + q - s = 0.
    s, beta = 0.6, 0.45
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if beta * (1.0 - mid) + mid - s < 0.0:
            lo = mid
        else:
            hi = mid
    q_star = 0.5 * (lo + hi)
    ov = OverlapSpec(s, beta)
    assert abs(unitarity_residual(FailurePoint(q_star, q_star), ov)) <= 1e-12


@given(
    q1=st.floats(0.0, 1.0),
    q2=st.floats(0.0, 1.0),
    s=st.floats(0.0, 1.0),
    frac=st.floats(0.0, 1.0),
)
def test_residual_swap_symmetry(q1, q2, s, frac):
    ov = OverlapSpec(s, s * frac)
    r1 = unitarity_residual(FailurePoint(q1, q2), ov)
    r2 = unitarity_residual(FailurePoint(q2, q1), ov)
    assert r1 == pytest.approx(r2, abs=1e-15)


def _feasible(pt, ov):
    """Membership of the feasible set: the residual is nonnegative up to rounding."""
    return unitarity_residual(pt, ov) >= -1e-12


def test_feasibility_trivial():
    assert _feasible(FailurePoint(1, 1), OverlapSpec(0.9, 0.2))
    assert not _feasible(FailurePoint(0, 0), OverlapSpec(0.6, 0.3))
    # (0, 0) is feasible exactly when beta = s (trivial identity protocol).
    assert _feasible(FailurePoint(0, 0), OverlapSpec(0.6, 0.6))


def test_set_nesting_random():
    # Membership at a smaller beta must imply it at a larger one.
    assert verify.check_set_nesting(1001).passed


def test_convexity_random():
    rng = np.random.Generator(np.random.Philox(key=1002))
    for s in (0.3, 0.6, 0.9):
        for beta in (0.1 * s, 0.6 * s, s):
            chunks = []
            while sum(len(c) for c in chunks) < 20_000:
                pts = rng.uniform(0, 1, (200_000, 2))
                keep = helpers.residual(pts[:, 0], pts[:, 1], s, beta) >= -1e-12
                chunks.append(pts[keep])
            feas = np.concatenate(chunks)
            a, b = feas[:10_000], feas[10_000:20_000]
            lam = rng.uniform(0, 1, 10_000)[:, None]
            mix = lam * a + (1 - lam) * b
            res = helpers.residual(mix[:, 0], mix[:, 1], s, beta)
            assert np.min(res) >= -1e-12


def test_convex_combination_api():
    ov = OverlapSpec(0.6, 0.3)
    p1, p2 = FailurePoint(1.0, 0.36), FailurePoint(0.5, 0.5)
    assert _feasible(p1, ov) and _feasible(p2, ov)
    for lam in (0.25, 0.5, 0.75):
        mix = FailurePoint(
            lam * p1.q1 + (1 - lam) * p2.q1, lam * p1.q2 + (1 - lam) * p2.q2
        )
        assert _feasible(mix, ov)


def test_hyperbola_degeneration_at_beta_zero():
    s = 0.6
    ov = OverlapSpec(s, 0.0)
    for q1 in np.linspace(s * s, 1.0, 101):
        assert abs(unitarity_residual(FailurePoint(q1, s * s / q1), ov)) <= 1e-12
    # Conversely, curve points recovered by bisection land on the hyperbola.
    for q1 in np.linspace(s * s + 1e-6, 1.0, 23):
        q2 = helpers.lower_q2_bisect(q1, s, 0.0)
        assert abs(q1 * q2 - s * s) <= 1e-12


# ---------------------------------------------------------------------------
# endpoint tangency


@pytest.mark.parametrize(
    "s, beta",
    [
        (0.6, 0.3),
        (0.6, 0.59),
        (0.6, math.nextafter(0.6, 0.0)),
        (0.6, 0.0),
        (0.2, 0.1),
        (1e-3, 5e-4),
        (1e-9, 5e-10),
        (0.2, 0.0),
    ],
    ids=[
        "interior",
        "near-s",
        "ulp-below-s",
        "beta-zero",
        "low-s",
        "small-s",
        "tiny-s",
        "beta-zero-low-s",
    ],
)
def test_endpoint_tangency_from_the_gradient(s, beta):
    # Toward (1, s^2), F_q1 grows like -beta*sqrt(p2/p1)/2 while F_q2 stays
    # finite, so for beta > 0 the lower half's slope grows without bound like
    # beta*s*sqrt(1 - s^2)/sqrt(p1) (vertical tangency), and its mirror
    # toward (s^2, 1) tends to 0 (horizontal tangency).  At beta = 0 the
    # curve is the hyperbola q1*q2 = s^2, with finite end slopes -s^2 and
    # -1/s^2.  The approach to each limit is within 3*sqrt(p1) relative for
    # beta > 0, and within 3*p1 at beta = 0.
    limit = beta * s * math.sqrt(1.0 - s * s)
    for k in range(2, 13):
        q1 = 1.0 - 10.0**-k
        p1 = 1.0 - q1
        q2 = lower_half_q2(q1, s, beta)
        slope, mirror = helpers.curve_slope(q1, q2, beta), helpers.curve_slope(q2, q1, beta)
        if beta > 0.0:
            rel = 3.0 * math.sqrt(p1)
            assert slope * math.sqrt(p1) == pytest.approx(limit, rel=rel)
            assert mirror / math.sqrt(p1) == pytest.approx(1.0 / limit, rel=rel)
        else:
            assert slope == pytest.approx(-s * s, rel=3.0 * p1)
            assert mirror == pytest.approx(-1.0 / (s * s), rel=3.0 * p1)


@pytest.mark.parametrize(
    "s, beta",
    [
        (0.6, 0.3),
        (0.6, 0.59),
        (0.6, math.nextafter(0.6, 0.0)),
        (0.6, 0.0),
        (0.2, 0.1),
        (0.85, 0.4),
        (0.9, 0.05),
        (0.999, 0.5),
        (1e-3, 5e-4),
        (1e-3, 0.0),
    ],
    ids=[
        "interior",
        "near-s",
        "ulp-below-s",
        "beta-zero",
        "low-s",
        "high-s",
        "small-beta",
        "s-near-one",
        "small-s",
        "beta-zero-small-s",
    ],
)
def test_gradient_slope_is_the_bisected_curves_derivative(s, beta):
    # The gradient slope, the reference for the endpoint lemma and for the
    # sweep's slopes, is the derivative of the lower half found by plain
    # bisection: central differences of width 2e-3*p1 at q1 = 1 - p1 agree
    # with it to 1e-6 relative, next to the vertical end included.
    for p1 in (1e-3, 1e-4, 1e-5, 1e-6):
        q1, h = 1.0 - p1, 1e-3 * p1
        above = helpers.lower_q2_bisect(q1 + h, s, beta)
        below = helpers.lower_q2_bisect(q1 - h, s, beta)
        ref = (above - below) / (2.0 * h)
        slope = helpers.curve_slope(q1, lower_half_q2(q1, s, beta), beta)
        assert slope == pytest.approx(ref, rel=1e-6)


def test_lower_half_refuses_q1_below_the_curve_range():
    # The lower half exists for R >= s, i.e. q1 >= (s^2 - beta^2)/(1 - beta^2).
    s, beta = 0.6, 0.3
    q1_min = (s - beta) * (s + beta) / ((1.0 - beta) * (1.0 + beta))
    with pytest.raises(NumericError, match="q1 is outside the curve's range"):
        lower_half_q2(1e-3, s, beta)
    with pytest.raises(NumericError, match="q1 is outside the curve's range"):
        lower_half_q2(q1_min - 1e-12, s, beta)
    # At the range's end D is zero up to rounding.  Two ulps below it D
    # rounds to -5.6e-17, which is clamped, not refused.  The root there is
    # the turning point q1/R^2.
    below = q1_min - 2 * math.ulp(q1_min)
    assert below * (1.0 - beta) * (1.0 + beta) - (s - beta) * (s + beta) < 0.0
    for q1 in (q1_min, below):
        q2 = lower_half_q2(q1, s, beta)
        assert q2 == pytest.approx(q1 / (q1 + beta * beta * (1.0 - q1)), rel=1e-12)


def test_beta_zero_endpoint_slope_is_finite():
    # At beta = 0 the curve is the hyperbola q2 = s^2/q1, whose slope at the
    # endpoint (s^2, 1) equals -1/s^2: finite, so no tangency to the border.
    s = 0.6
    h = 1e-9
    slope = ((s * s / (s * s + h)) - (s * s / (s * s - h))) / (2 * h)
    assert slope == pytest.approx(-1.0 / (s * s), rel=1e-6)

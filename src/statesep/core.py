"""Domain types and the constraint geometry of two-state separation.

A probabilistic machine transforms two pure states with overlap ``s`` into
states with overlap ``s_prime``, flagging failure with probability ``q_i``
when fed state ``i``.  Physically realizable protocols are exactly those
whose failure point ``(q1, q2)`` satisfies the unitarity constraint

    sqrt(p1 * p2) * s_prime + sqrt(q1 * q2) >= s,        p_i = 1 - q_i.

The optimal protocols share one success flag, so the target overlap enters
the constraint as it is; the kernels below call it ``beta``.  The boundary
curve of this set, its fixed endpoints ``(1, s**2)`` and ``(s**2, 1)``, and
the convexity of the enclosed region are what every solver in this package
leans on.

All values are plain floats in [0, 1]; everything here is pure and
immutable, so instances can be shared freely across threads.  The three
domain types (``Priors``, ``OverlapSpec``, ``FailurePoint``) are frozen,
slotted value classes: their constructors check every field, and a small
private base gives them field-wise ``==``, hash, repr, ``__match_args__``
and copy/pickle through those constructors.  A failure budget Q is a
plain float.  The package's other value classes (``conics.ConicPoint``,
optics' ``ModeState``, ``Interferometer`` and ``ShotCounts``, and
``verify.CheckResult``) share that base; ``ModeState`` and
``Interferometer`` hold arrays, so they compare them whole and do not
hash.  None of them is a dataclass, so ``dataclasses.replace``/``fields``
do not apply to them; the package imports no ``dataclasses`` until one of
them is written to.
"""

from __future__ import annotations

import math

__all__ = [
    "DomainError",
    "NumericError",
    "SQRT_CLAMP_TOL",
    "Priors",
    "OverlapSpec",
    "FailurePoint",
    "sqrt_clamped",
    "unitarity_residual",
    "lower_half_q2",
]

# Square-root arguments within this distance below zero are rounding debris
# from the curve endpoints and are clamped; anything more negative is a bug.
SQRT_CLAMP_TOL = 1e-14


class DomainError(ValueError):
    """An input lies outside the domain an operation is defined on."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge or detected an inconsistency."""


def sqrt_clamped(x: float, tol: float = SQRT_CLAMP_TOL) -> float:
    """sqrt(x) with tiny negative arguments clamped to zero.

    Arguments below ``-tol`` raise :class:`DomainError` instead of being
    silently absorbed.
    """
    if x < -tol:
        raise DomainError(f"square root argument {x!r} below clamp tolerance {-tol!r}")
    return math.sqrt(x) if x > 0.0 else 0.0


def _prob_error(name: str, value: float) -> DomainError:
    return DomainError(f"{name} must lie in [0, 1], got {value!r}")


class _Value:
    """Frozen value semantics over the fields a subclass names in ``__slots__``.

    Field-wise ``==`` (within one class), hash and repr, as a frozen
    dataclass has them; copy and pickle rebuild through the subclass's
    checking ``__init__``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = zip(self.__match_args__, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __reduce__(self):
        return type(self), self._values()

    def _fill(self, *values) -> None:
        """Set the fields, in ``__slots__`` order, past the frozen ``__setattr__``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    # A write is always an error, so dataclasses loads only when one happens.
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Priors(_Value):
    """Prior probabilities (eta1, eta2) of the two input states."""

    __slots__ = ("eta1", "eta2")
    eta1: float
    eta2: float

    def __init__(self, eta1: float, eta2: float) -> None:
        eta1 = float(eta1)
        if not 0.0 <= eta1 <= 1.0:
            raise _prob_error("eta1", eta1)
        eta2 = float(eta2)
        if not 0.0 <= eta2 <= 1.0:
            raise _prob_error("eta2", eta2)
        if abs(eta1 + eta2 - 1.0) > 1e-12:
            raise DomainError(f"priors must sum to 1 within 1e-12, got {eta1!r} + {eta2!r}")
        _set_eta1(self, eta1)
        _set_eta2(self, eta2)

    @classmethod
    def of(cls, eta1: float) -> "Priors":
        """Priors with the second component filled in as ``1 - eta1``."""
        eta1 = float(eta1)
        return cls(eta1, 1.0 - eta1)

    @property
    def delta(self) -> float:
        """Prior imbalance eta2 - eta1."""
        return self.eta2 - self.eta1

    def swapped(self) -> "Priors":
        return Priors(self.eta2, self.eta1)

    def normalized(self) -> tuple["Priors", bool]:
        """Equivalent priors with eta1 <= 1/2, plus whether a swap happened.

        The separation problem is exactly symmetric under
        (eta1, eta2, q1, q2) -> (eta2, eta1, q2, q1), so solvers work on the
        normalized instance and mirror their failure point back if needed.
        """
        if self.eta1 > 0.5:
            return self.swapped(), True
        return self, False


class OverlapSpec(_Value):
    """Initial overlap s and target overlap s_prime, with s_prime <= s.

    The unitarity constraint sees the target through s_prime alone: the
    protocols here succeed into one shared flag state.  s_prime = 0 is
    unambiguous discrimination.
    """

    __slots__ = ("s", "s_prime")
    s: float
    s_prime: float

    def __init__(self, s: float, s_prime: float) -> None:
        s = float(s)
        if not 0.0 <= s <= 1.0:
            raise _prob_error("s", s)
        s_prime = float(s_prime)
        if not 0.0 <= s_prime <= 1.0:
            raise _prob_error("s_prime", s_prime)
        if s_prime > s:
            raise DomainError(
                f"s_prime must not exceed s, got s_prime={s_prime!r} > s={s!r}"
            )
        _set_s(self, s)
        _set_s_prime(self, s_prime)


class FailurePoint(_Value):
    """Conditional failure probabilities (q1, q2) of a protocol."""

    __slots__ = ("q1", "q2")
    q1: float
    q2: float

    def __init__(self, q1: float, q2: float) -> None:
        q1 = float(q1)
        if not 0.0 <= q1 <= 1.0:
            raise _prob_error("q1", q1)
        q2 = float(q2)
        if not 0.0 <= q2 <= 1.0:
            raise _prob_error("q2", q2)
        _set_q1(self, q1)
        _set_q2(self, q2)

    @property
    def p1(self) -> float:
        return 1.0 - self.q1

    @property
    def p2(self) -> float:
        return 1.0 - self.q2

    def swapped(self) -> "FailurePoint":
        return FailurePoint(self.q2, self.q1)


# The constructors above write each checked field through its slot
# descriptor; the frozen __setattr__ would refuse, and object.__setattr__
# is a slower route to the same descriptor.
_set_eta1, _set_eta2 = Priors.eta1.__set__, Priors.eta2.__set__
_set_s, _set_s_prime = OverlapSpec.s.__set__, OverlapSpec.s_prime.__set__
_set_q1, _set_q2 = FailurePoint.q1.__set__, FailurePoint.q2.__set__


def unitarity_residual(pt: FailurePoint, ov: OverlapSpec) -> float:
    """Residual sqrt(p1*p2)*s_prime + sqrt(q1*q2) - s of the unitarity constraint.

    Zero iff ``pt`` lies on the constraint curve; positive inside the
    feasible region.  Symmetric under q1 <-> q2.
    """
    return (
        sqrt_clamped(pt.p1 * pt.p2) * ov.s_prime
        + sqrt_clamped(pt.q1 * pt.q2)
        - ov.s
    )


def _off_range_error(q1: float, s: float, beta: float) -> NumericError:
    return NumericError(
        f"no unitarity-curve point at q1={q1!r} (s={s!r}, beta={beta!r}); "
        "q1 is outside the curve's range"
    )


def _underflow_error(q1: float, s: float, beta: float) -> NumericError:
    return NumericError(
        f"unitarity-curve ordinate underflows at q1={q1!r} (s={s!r}, beta={beta!r})"
    )


def lower_half_q2(q1: float, s: float, beta: float) -> float:
    """Smaller root q2 of the unitarity curve at fixed q1, in closed form.

    With ``q2 = sin(phi)**2``, ``a = beta*sqrt(1-q1)`` and ``b = sqrt(q1)``
    the constraint reads ``a*cos(phi) + b*sin(phi) = s``; for
    ``R**2 = a**2 + b**2`` and ``D = R**2 - s**2`` its lower root is
    ``sqrt(q2) = (b*s - a*sqrt(D)) / R**2``.  That difference cancels as
    q2 -> 0 (by up to 1/s as beta -> s), so it is rationalized:

        q2 = (((s-beta)*(s+beta) + beta**2*q1) / (b*s + a*sqrt(D)))**2,

    a sum of nonnegative terms over another, accurate to a few ulps
    relative at any q2 (and clamped to at most 1).  ``D`` is expanded as
    ``q1*(1-beta)*(1+beta) - (s-beta)*(s+beta)`` so that it does not cancel
    as beta -> s.  Only ``+ - * /`` and ``sqrt`` are used, all correctly
    rounded, so no platform's libm changes a bit.  There is no beta = 0
    shortcut: at beta = 0 this is the general formula on the hyperbola
    q1*q2 = s**2.

    Raises :class:`NumericError` when q1 lies outside the curve's range,
    i.e. ``R < s`` beyond rounding, and when the denominator underflows to
    0 (``s*sqrt(q1)`` below the smallest subnormal).
    """
    n0 = (s - beta) * (s + beta)
    d = q1 * (1.0 - beta) * (1.0 + beta) - n0
    if d < -SQRT_CLAMP_TOL:
        raise _off_range_error(q1, s, beta)
    root = math.sqrt(d) if d > 0.0 else 0.0
    den = math.sqrt(q1) * s + beta * math.sqrt(1.0 - q1) * root
    if den == 0.0:
        raise _underflow_error(q1, s, beta)
    y = (n0 + beta * beta * q1) / den
    # Rounding can lift q2 an ulp or two above 1 when s is that close to 1.
    q2 = y * y
    return q2 if q2 < 1.0 else 1.0

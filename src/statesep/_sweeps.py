"""Array pass of the curve sweeps ``qmin_curve`` and ``tradeoff_curve``.

This is the one part of ``solvers`` that uses NumPy; the sweeps import it
when called, so ``solvers``' point queries load no NumPy.  Each entry point
returns plain-float columns, which the sweeps turn into records.

Elementwise, each array expression performs the IEEE operations of its
scalar counterpart in ``solvers`` in the same order, so every sample has the
scalar helpers' bits.  Only + - * / and sqrt run in numpy, which rounds them
as math does; sin and cos stay per element in math, and so does x ** 2,
which goes through libm pow and differs from x * x by an ulp on some inputs.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import solvers
from .core import SQRT_CLAMP_TOL, OverlapSpec, _prob_error, sqrt_clamped


def _sqrt0(arg: np.ndarray) -> np.ndarray:
    """``sqrt_clamped`` without its guard: sqrt where arg > 0, else +0.0."""
    return np.sqrt(np.where(arg > 0.0, arg, 0.0))


def _clip(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``min(max(v, lo), hi)`` elementwise, keeping Python's -0.0 and NaN."""
    v = np.where(lo > v, lo, v)
    return np.where(hi < v, hi, v)


def _range_check(name: str, col: np.ndarray) -> tuple[np.ndarray, Callable[[int], Exception]]:
    """The [0, 1] check that a record's constructor makes on field ``name``, per sample."""
    return ~((0.0 <= col) & (col <= 1.0)), lambda i: _prob_error(name, col.item(i))


def _raise_first_failure(checks: list[tuple[np.ndarray, Callable[[int], Exception]]]) -> None:
    """Raise the error of the first sample failing a check, if any does.

    ``checks`` lists (mask, error) pairs in the order the scalar helpers
    and the record constructors test one sample, so a sweep stops at the
    sample, and with the error, a sample-by-sample loop would.
    """
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(bad.argmax())
        raise next(error(i) for mask, error in checks if mask[i])


# ---------------------------------------------------------------------------
# qmin_curve


def _qmin_grid(t: np.ndarray, ov: OverlapSpec) -> list[np.ndarray]:
    """Columns (q1, q2, dq1/dt, dq2/dt, eta1, Q) of the sweep at the grid t.

    ``_curve_q``, ``_curve_dq`` and ``_tangent_eta1`` in one array pass,
    with eta1 clamped to [0, 1/2] and Q to [0, 1].  Raises the error of the
    first failing sample; after the helpers' guards, the checks include
    ``FailurePoint``'s range check.
    """
    sp, scale = ov.s_prime, ov.s_prime / ov.s
    tol = SQRT_CLAMP_TOL
    # Vertex samples divide by ry = 0 and are then overwritten, as the
    # scalar helpers branch around them.
    with np.errstate(all="ignore"):
        x = (1.0 - (1.0 + sp) * t) / scale
        y = (1.0 - (1.0 - sp) * t) / scale
        x_arg, y_arg = 1.0 - x * x, 1.0 - y * y
        rx, ry = _sqrt0(x_arg), _sqrt0(y_arg)
        q1, q2 = solvers._q_pair(x, y, rx, ry)
        q1, q2 = np.where(1.0 < q1, 1.0, q1), np.where(0.0 > q2, 0.0, q2)
        a = (1.0 + sp) / rx
        b = (1.0 - sp) / ry
        d1_arg, d2_arg = q1 * (1.0 - q1), q2 * (1.0 - q2)
        vertex = ry == 0.0
        d1 = np.where(vertex, math.inf, _sqrt0(d1_arg) / scale * (a + b))
        d2 = np.where(vertex, -math.inf, _sqrt0(d2_arg) / scale * (a - b))
        steep = np.isinf(d1)
        eta1 = _clip(np.where(steep, 0.5, d2 / (d2 - d1)), 0.0, 0.5)
        q_min = _clip(eta1 * q1 + (1.0 - eta1) * q2, 0.0, 1.0)

    def clamp(arg: np.ndarray) -> Callable[[int], Exception]:
        return lambda i: solvers._clamp_error(arg.item(i), t.item(i), ov)

    off_vertex = ~vertex
    _raise_first_failure(
        [
            (x_arg < -tol, clamp(x_arg)),
            (y_arg < -tol, clamp(y_arg)),
            # The clamp to 1 leaves a negative q1 as it is.
            (q1 < 0.0, lambda i: solvers._negative_q1_error(q1.item(i), t.item(i), ov)),
            (off_vertex & (rx == 0.0), lambda i: solvers._flat_error(t.item(i), ov)),
            (off_vertex & (d1_arg < -tol), clamp(d1_arg)),
            (off_vertex & (d2_arg < -tol), clamp(d2_arg)),
            (
                ~steep & (d2 == d1),
                lambda i: solvers._equal_derivatives_error(d1.item(i), t.item(i), ov),
            ),
            _range_check("q1", q1),
            _range_check("q2", q2),
        ]
    )
    return [q1, q2, d1, d2, eta1, q_min]


def qmin_columns(
    t_lo: float, t_hi: float, n_samples: int, ov: OverlapSpec
) -> tuple[list[list[float]], float]:
    """Columns (t, q1, q2, dq1/dt, dq2/dt, eta1, Q) on ``n_samples`` t from
    ``t_lo`` to ``t_hi``, and the largest increase of eta1 between samples."""
    t = np.linspace(t_lo, t_hi, n_samples)
    columns = [t, *_qmin_grid(t, ov)]
    return [c.tolist() for c in columns], max(np.diff(columns[5]).tolist())


# ---------------------------------------------------------------------------
# tradeoff_curve


def _tradeoff_grid(thetas: list[float], s: float, delta: float) -> list[np.ndarray]:
    """Columns (s_prime, Q) of the tradeoff formulas at each angle, in one array pass.

    Raises the error of the first failing sample; after the formulas'
    guards, the checks include ``FailureBudget``'s range check on Q.
    """
    st = np.array([math.sin(th) for th in thetas])
    ct = np.array([math.cos(th) for th in thetas])
    root = math.sqrt(1.0 - delta * delta)
    # theta = 0 is the upper endpoint of the equal-slope family: full
    # separation at the tangency-regime discrimination cost.
    endpoint = np.array(thetas) == 0.0
    with np.errstate(all="ignore"):
        ratio = (st / (delta + st)).tolist()
        gain = root * np.array([r**2 for r in ratio]) / ct
        term_envelope = root * (1.0 + s * s) * ct
        term_budget = 2.0 * s * (1.0 + delta * st)
        sp2 = gain * (term_envelope - term_budget)
        # Where the two terms cancel (the full-separation end of the sweep,
        # severe for near-certainty priors) rounding leaves a negative
        # residue of order eps times the amplification; only values beyond
        # that noise floor indicate a real bug.
        noise = 32.0 * solvers._EPS * np.abs(gain) * (np.abs(term_envelope) + np.abs(term_budget))
        noise = np.where(noise > 1e-12, noise, 1e-12)
        sp2_floor = np.where(0.0 > sp2, 0.0, sp2)
        q = (s * root + delta * sp2_floor * (ct / st)) / ((1.0 - sp2_floor) * ct)
        s_prime = np.where(endpoint, 0.0, np.sqrt(sp2_floor))
        q = np.where(endpoint, s * root, _clip(q, 0.0, 1.0))
    live = ~endpoint
    _raise_first_failure(
        [
            (
                live & ((delta + st == 0.0) | (ct == 0.0)),
                lambda i: solvers._singular_error(thetas[i], s, delta, st.item(i), ct.item(i)),
            ),
            (
                live & (sp2 < -noise),
                lambda i: solvers._negative_sp2_error(sp2.item(i), thetas[i], s, delta),
            ),
            _range_check("q_avg", q),
        ]
    )
    return [s_prime, q]


def tradeoff_columns(
    theta_lo: float, theta_hi: float, n_samples: int, s: float, delta: float
) -> tuple[list[float], list[float], list[float]]:
    """Columns (theta, s_prime, Q) of the angle sweep; s_prime and Q cover
    the interior angles only, capped at s and range-checked."""
    thetas = np.linspace(theta_lo, theta_hi, n_samples).tolist()
    s_prime, q = _tradeoff_grid(thetas[1:-1], s, delta)
    return thetas, np.where(s < s_prime, s, s_prime).tolist(), q.tolist()


def equal_prior_columns(s: float, n_samples: int) -> tuple[list[float], list[float]]:
    """Columns (s_prime, Q) of the equal-prior closed form, Q range-checked."""
    qs = np.linspace(0.0, s, n_samples)
    _raise_first_failure([_range_check("q_avg", qs)])
    return ((s - qs) / (1.0 - qs)).tolist(), qs.tolist()


def certainty_columns(s: float, n_samples: int) -> tuple[list[float], list[float]]:
    """Columns (s_prime, Q) of the certainty closed form, Q range-checked."""
    qs = np.linspace(0.0, s * s, n_samples)
    s_primes = [sqrt_clamped(v) for v in ((s * s - qs) / (1.0 - qs)).tolist()]
    _raise_first_failure([_range_check("q_avg", qs)])
    return s_primes, qs.tolist()

"""Release-gate property checks, runnable from the command line.

Each check measures a worst-case deviation for one contract of the
package (constraint-geometry lemmas, solver/oracle agreement, round-trip
consistency across solution families, optics exactness and statistics)
and compares it against the tolerance the contract is specified at.
The acceptance suite (``tests/test_acceptance.py``) calls these checks at
its own seeds, so each release property has this one implementation.
"""

from __future__ import annotations

import math

import numpy as np

from . import conics, optics, solvers
from .core import OverlapSpec, Priors, _Value, lower_half_q2
from .oracle import oracle_qmin

__all__ = ["CheckResult", "run_all"]


class CheckResult(_Value):
    """One release-gate row: the worst deviation a check measured, and its bound."""

    __slots__ = ("name", "worst", "tolerance", "passed")
    name: str
    worst: float
    tolerance: float
    passed: bool

    def __init__(self, name: str, worst: float, tolerance: float, passed: bool) -> None:
        self._fill(name, worst, tolerance, passed)


def _result(name: str, worst: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(worst), tolerance, bool(worst <= tolerance))


def _residual_arr(q1, q2, s, beta):
    return beta * np.sqrt((1.0 - q1) * (1.0 - q2)) + np.sqrt(q1 * q2) - s


def check_endpoint_identities() -> CheckResult:
    worst = 0.0
    for s in np.linspace(0.05, 0.95, 19):
        for beta in np.linspace(0.0, s, 21):
            for q1, q2 in ((1.0, s * s), (s * s, 1.0)):
                worst = max(worst, abs(_residual_arr(q1, q2, s, beta)))
    return _result("lemma-endpoint-identities", worst, 1e-12)


def check_set_nesting(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.Philox(key=seed))
    trials = 10_000
    q1 = rng.uniform(0.0, 1.0, trials)
    q2 = rng.uniform(0.0, 1.0, trials)
    s = rng.uniform(0.05, 0.95, trials)
    b = np.sort(rng.uniform(0.0, 1.0, (trials, 2)), axis=1) * s[:, None]
    inner = _residual_arr(q1, q2, s, b[:, 0]) >= -1e-12
    outer = _residual_arr(q1, q2, s, b[:, 1])
    # Membership at the smaller beta must imply membership at the larger.
    worst = float(np.max(np.where(inner, -outer, -np.inf)))
    return _result("lemma-set-nesting", worst, 1e-12)


def check_convexity(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.Philox(key=seed))
    trials = 10_000
    # (s, beta/s) pairs; the acceptance suite's (0.6, 0.5) comes last, so
    # the 3x3 grid's draws do not depend on it.
    pairs = [(s, frac) for s in (0.2, 0.5, 0.8) for frac in (0.1, 0.5, 0.9)] + [(0.6, 0.5)]
    worst = -math.inf
    for s, frac in pairs:
        beta = frac * s
        pts = []
        while sum(len(p) for p in pts) < 2 * trials:
            cand = rng.uniform(0.0, 1.0, (4 * trials, 2))
            ok = _residual_arr(cand[:, 0], cand[:, 1], s, beta) >= -1e-12
            pts.append(cand[ok])
        feas = np.concatenate(pts)[: 2 * trials]
        lam = rng.uniform(0.0, 1.0, trials)[:, None]
        mix = lam * feas[:trials] + (1.0 - lam) * feas[trials:]
        res = _residual_arr(mix[:, 0], mix[:, 1], s, beta)
        worst = max(worst, float(np.max(-res)))
    return _result("lemma-convexity", worst, 1e-12)


def check_hyperbola_degeneration() -> CheckResult:
    worst = 0.0
    for s in (0.2, 0.6, 0.9):
        q1 = np.linspace(s * s, 1.0, 501)
        # Residual must vanish on the hyperbola, and the general closed-form
        # lower half at beta=0 (no s*s/q1 shortcut) must land back on it.
        worst = max(worst, float(np.max(np.abs(_residual_arr(q1, s * s / q1, s, 0.0)))))
        for q in q1[:: max(len(q1) // 50, 1)]:
            worst = max(worst, abs(q * lower_half_q2(float(q), s, 0.0) - s * s))
    return _result("lemma-hyperbola-degeneration", worst, 1e-12)


def check_curve_on_constraint(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = 0.0
    for _ in range(50):
        s = rng.uniform(0.1, 0.95)
        sp = rng.uniform(0.02, 0.98) * s
        ov = OverlapSpec(s, sp)
        t_lo, t_hi = solvers.t_slope_minus_one(ov), solvers.t_slope_zero(ov)
        for t in np.linspace(t_lo, t_hi, 64):
            pt = solvers.curve_point(float(t), ov)
            worst = max(worst, abs(_residual_arr(pt.q1, pt.q2, s, sp)))
    return _result("curve-on-constraint", worst, 1e-12)


def _gradient_slope(q1, q2, beta):
    """Slope dq2/dq1 = -F_q1/F_q2 of the curve F = beta*sqrt(p1*p2) + sqrt(q1*q2) - s = 0."""
    p1, p2 = 1.0 - q1, 1.0 - q2
    return -(np.sqrt(q2 / q1) - beta * np.sqrt(p2 / p1)) / (
        np.sqrt(q1 / q2) - beta * np.sqrt(p1 / p2)
    )


def check_slope_range(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = 0.0
    for _ in range(20):
        s = rng.uniform(0.2, 0.9)
        sp = rng.uniform(0.1, 0.9) * s
        ov = OverlapSpec(s, sp)
        samples = solvers.qmin_curve(ov, 256)
        slopes = [smp.dq2_dt / smp.dq1_dt for smp in samples[1:]]
        increase_violation = max(
            (a - b for a, b in zip(slopes, slopes[1:])), default=-math.inf
        )
        worst = max(worst, increase_violation, abs(slopes[-1]))
        # Every interior row's slope against the constraint's gradient, plus
        # rows 1e-10..1e-2 of the range from the vertex, where it tends to -1.
        t_lo, t_hi = solvers.t_slope_minus_one(ov), solvers.t_slope_zero(ov)
        edge = [t_lo + 10.0**-k * (t_hi - t_lo) for k in range(10, 1, -1)]
        rows = samples[1:-1] + solvers._t_curve(edge, ov)
        q1, q2, slope = np.array(
            [(smp.point.q1, smp.point.q2, smp.dq2_dt / smp.dq1_dt) for smp in rows]
        ).T
        worst = max(worst, float(np.max(np.abs(slope - _gradient_slope(q1, q2, sp)))))
    return _result("curve-slope-range", worst, 1e-4)


def check_qmin_monotonicity(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = -math.inf
    priors = [Priors.of(e) for e in np.linspace(0.02, 0.5, 25)]
    for _ in range(20):
        s = rng.uniform(0.2, 0.9)
        sp_values = np.sort(rng.uniform(0.05, 0.95, 3)) * s
        quds = np.array([solvers.q_ud(pr, s) for pr in priors])
        prev = None
        for sp in sp_values[::-1]:  # decreasing s'
            ov = OverlapSpec(s, float(sp))
            qs = np.array([solvers.qmin_at(pr, ov)[0] for pr in priors])
            worst = max(worst, float(np.max(-np.diff(qs))))  # nondecreasing in eta1
            worst = max(worst, float(np.max(qs - quds)))  # bounded by UD
            if prev is not None:
                worst = max(worst, float(np.max(prev - qs)))  # costlier as s' drops
            prev = qs
    return _result("qmin-monotonicity-and-ud-bound", worst, 1e-12)


def check_oracle_agreement(grid: int) -> CheckResult:
    # Each oracle call searches its own curve, so the loop order does not
    # matter: the worst is a max over the same cases in any order.
    worst = 0.0
    for s in np.linspace(0.1, 0.9, grid):
        for frac in np.linspace(0.0, 1.0, grid):
            ov = OverlapSpec(float(s), float(frac * s))
            for eta1 in np.linspace(0.02, 0.5, grid):
                pr = Priors.of(float(eta1))
                q_solver, _ = solvers.qmin_at(pr, ov)
                q_oracle, _ = oracle_qmin(pr, ov)
                worst = max(worst, abs(q_solver - q_oracle))
    return _result("oracle-agreement", worst, 1e-6)


def check_round_trip(seed: int) -> CheckResult:
    # A cycle through three kernels: the t-curve gives (eta1, Q_min) at s',
    # max_separation takes Q_min back to s', and qmin_at's q1 tangency
    # takes that s' back to Q_min; the first and last each write out the
    # tangency terms, so the cycle checks one copy against the other.
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = 0.0
    for _ in range(1000):
        s = float(rng.uniform(0.15, 0.9))
        sp = float(rng.uniform(0.05, 0.95) * s)
        ov = OverlapSpec(s, sp)
        t_lo, t_hi = solvers.t_slope_minus_one(ov), solvers.t_slope_zero(ov)
        t = float(rng.uniform(t_lo + 0.01 * (t_hi - t_lo), t_hi - 0.01 * (t_hi - t_lo)))
        smp = solvers._curve_row(t, ov)
        pr = Priors.of(smp.eta1)
        sp_back, _ = solvers.max_separation(pr, s, smp.q_min)
        q_back, _ = solvers.qmin_at(pr, OverlapSpec(s, sp_back))
        worst = max(worst, abs(sp_back - sp), abs(q_back - smp.q_min))
    return _result("round-trip-consistency", worst, 1e-6)


def check_conic_consistency(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = 0.0
    for _ in range(200):
        eta1 = float(rng.uniform(0.05, 0.45))
        s = float(rng.uniform(0.2, 0.9))
        pr = Priors.of(eta1)
        # At most 0.95 of the discrimination cost, so s' > 0 (above 0.012).
        q_cap = float(rng.uniform(0.3, 0.95)) * solvers.q_ud(pr, s)
        sp, theta = solvers.max_separation(pr, s, q_cap)
        r1, r2 = conics.tangency_residuals(theta, q_cap, pr, s, sp)
        worst = max(worst, abs(r1), abs(r2))
        cp = conics.ellipse_point(theta, q_cap, pr)
        lower, _ = conics.from_conic(cp)
        worst = max(worst, abs(pr.eta1 * lower.q1 + pr.eta2 * lower.q2 - q_cap))
        worst = max(worst, abs(_residual_arr(lower.q1, lower.q2, s, sp)))
    return _result("conic-tangency-consistency", worst, 1e-9)


def check_separation_onset(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = 0.0
    for _ in range(50):
        eta1 = float(rng.uniform(0.05, 0.5))
        pr = Priors.of(eta1)
        q_cap = float(rng.uniform(0.05, 0.9))
        s_cr = solvers.critical_overlap(pr, q_cap)  # in (0, 0.95) for these draws
        # Full separation saturates the budget exactly at the onset.
        worst = max(worst, abs(solvers.q_ud(pr, s_cr) - q_cap))
        if s_cr > 1e-3:
            sp_below, _ = solvers.max_separation(pr, max(s_cr - 1e-4, 1e-6), q_cap)
            worst = max(worst, abs(sp_below))
    return _result("full-separation-onset", worst, 1e-9)


def check_optics_exact(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = 0.0
    for _ in range(100):
        s = float(rng.uniform(0.02, 0.98))
        sp = float(rng.uniform(0.0, 1.0) * s)
        deviations, _ = optics._exact_deviations(optics.build_interferometer(s, sp))
        worst = max(worst, *deviations)
    return _result("optics-exactness", worst, 1e-12)


def check_optics_statistics(shots: int, seed: int) -> CheckResult:
    worst = 0.0
    passed_all = True
    for sp in (0.3, 0.0):
        itf = optics.build_interferometer(0.6, sp)
        report = optics.certify_separation(itf, shots, seed)
        passed_all = passed_all and report["passed"]
        for run in report["runs"]:
            band = run["three_sigma"]
            if band > 0.0:
                worst = max(worst, abs(run["empirical_q"] - run["expected_q"]) / band)
    # The measured normalized three-sigma deviation; the pass flag also
    # folds in the chi-square, ghost-click and exact-matrix checks.
    return CheckResult("optics-statistics", float(worst), 1.0, bool(passed_all and worst <= 1.0))


def run_all(
    oracle_grid: int = 10,
    shots: int = 1_000_000,
    seed: int = 20250810,
) -> list[CheckResult]:
    """Run every check; returns one result per contract."""
    return [
        check_endpoint_identities(),
        check_set_nesting(seed),
        check_convexity(seed + 1),
        check_hyperbola_degeneration(),
        check_curve_on_constraint(seed + 2),
        check_slope_range(seed + 3),
        check_qmin_monotonicity(seed + 4),
        check_oracle_agreement(oracle_grid),
        check_round_trip(seed + 5),
        check_conic_consistency(seed + 6),
        check_separation_onset(seed + 7),
        check_optics_exact(seed + 8),
        check_optics_statistics(shots, seed + 9),
    ]

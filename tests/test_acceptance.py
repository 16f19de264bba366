"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s` to see
them inline)."""

import math
import time

import numpy as np
import pytest

from statesep import (
    Priors,
    apply,
    build_interferometer,
    max_separation,
    phase_transition_probe,
    protocol_input,
    q_ud,
    simulate,
)
from statesep import verify
from statesep.cli import main

import helpers


def _report(num, name, ok, detail):
    print(f"criterion {num:>2} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}]: {detail}"


def test_criterion_1_worked_max_separation():
    start = time.perf_counter()
    sp, _ = max_separation(Priors.of(0.3), 0.4, 0.35)
    elapsed = time.perf_counter() - start
    ok = abs(sp - 0.032) <= 1e-3 and elapsed < 1.0
    _report(1, "worked max-separation example", ok, f"s'={sp:.6f}, {elapsed:.3f}s")


def test_criterion_2_ud_against_dense_minimization():
    start = time.perf_counter()
    worst = 0.0
    branches = set()
    for eta1 in np.linspace(0.02, 0.98, 10):
        for s in np.linspace(0.1, 0.9, 5):
            lo = s * s / (1 + s * s)
            branches.add("low" if eta1 <= lo else ("high" if eta1 >= 1 - lo else "mid"))
            dense = helpers.dense_ud_min(float(eta1), float(s))
            worst = max(worst, abs(q_ud(Priors.of(float(eta1)), float(s)) - dense))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and branches == {"low", "mid", "high"} and elapsed < 10.0
    _report(2, "discrimination closed form", ok,
            f"worst={worst:.2e} over 50 points, all branches hit, {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence_grid():
    start = time.perf_counter()
    worst = verify.check_oracle_agreement(10).worst
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 120.0
    _report(3, "solver/oracle agreement 10x10x10", ok,
            f"worst={worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_round_trip_families():
    worst = verify.check_round_trip(20250810).worst
    ok = worst <= 1e-6
    _report(4, "round-trip across solution families", ok, f"worst={worst:.2e}")


def test_criterion_5_lemma_property_suite():
    endpoint = verify.check_endpoint_identities()
    nesting = verify.check_set_nesting(424242)
    convexity = verify.check_convexity(424243)
    ok = endpoint.passed and nesting.passed and convexity.passed
    _report(5, "lemma property suite", ok,
            f"endpoint worst={endpoint.worst:.2e}, nesting worst={nesting.worst:.2e}, "
            f"convexity worst={convexity.worst:.2e}")


def test_criterion_6_phase_transition():
    sympy = pytest.importorskip("sympy")
    s = 0.6
    eta_star = s * s / (1 + s * s)
    h = 1e-4
    eta = sympy.symbols("eta", positive=True)
    s_sym = sympy.Rational(3, 5)
    middle = 2 * s_sym * sympy.sqrt(eta * (1 - eta))
    analytic = float(sympy.diff(middle, eta, 2).subs(eta, s_sym**2 / (1 + s_sym**2)))
    jump_sharp = phase_transition_probe(s, 0.0, eta_star, h)
    jump_smooth = phase_transition_probe(s, 0.05, eta_star, h)
    sharp_ok = abs(jump_sharp - analytic) <= 0.05 * abs(analytic)
    smooth_ok = abs(jump_smooth) < 1e-2
    _report(6, "phase transition at full separation", sharp_ok and smooth_ok,
            f"jump={jump_sharp:.4f} vs analytic {analytic:.4f}; "
            f"smooth jump={jump_smooth:.2e}")


def test_criterion_7_optics_exactness():
    worst = verify.check_optics_exact(777).worst
    ok = worst <= 1e-12
    _report(7, "optics exactness over 100 devices", ok, f"worst={worst:.2e}")


def test_criterion_8_optics_statistics():
    from scipy import stats

    start = time.perf_counter()
    shots = 1_000_000
    failures = []
    itf = build_interferometer(0.6, 0.3)
    q = 3.0 / 7.0
    band = 3.0 * math.sqrt(q * (1.0 - q) / shots)
    for index, seed in ((1, 101), (2, 102)):
        counts = simulate(itf, index, shots, seed)
        if abs(counts.empirical_q - q) > band:
            failures.append(f"input {index} off by {abs(counts.empirical_q - q):.2e}")
        probs = np.abs(apply(itf, protocol_input(0.6, index)).amplitudes) ** 2
        tallies = np.array([counts.n1, counts.n2, counts.n3], dtype=float)
        keep = probs > 0
        expected = probs[keep] * shots
        expected *= tallies[keep].sum() / expected.sum()
        pvalue = float(stats.chisquare(tallies[keep], expected).pvalue)
        if pvalue < 0.01:
            failures.append(f"input {index} chi2 p={pvalue:.4f}")
    itf0 = build_interferometer(0.6, 0.0)
    band0 = 3.0 * math.sqrt(0.6 * 0.4 / shots)
    for index, seed in ((1, 103), (2, 104)):
        counts = simulate(itf0, index, shots, seed)
        if abs(counts.empirical_q - 0.6) > band0:
            failures.append(f"ud input {index} off by {abs(counts.empirical_q - 0.6):.2e}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _report(8, "optics statistics at 10^6 shots", ok,
            f"{'; '.join(failures) or 'all within 3 sigma, chi2 >= 1%'}, {elapsed:.1f}s")


def test_criterion_9_figure_data_regeneration(tmp_path):
    problems = []

    def emit(name, args):
        p1 = tmp_path / f"{name}_a.csv"
        p2 = tmp_path / f"{name}_b.csv"
        assert main(args + ["--output", str(p1)]) == 0
        assert main(args + ["--output", str(p2)]) == 0
        if p1.read_bytes() != p2.read_bytes():
            problems.append(f"{name} not byte-stable")
        rows = [
            [float(x) for x in line.split(",")]
            for line in p1.read_text().splitlines()[1:]
        ]
        return np.array(rows)

    # Minimum-failure curves: eta1 decreasing, q_min decreasing along t.
    for sp in ("0.05", "0.3", "0.5", "0.59"):
        data = emit(f"qmin{sp}", ["qmin", "--s", "0.6", "--s-prime", sp, "--samples", "200"])
        if not np.all(np.diff(data[:, 1]) <= 1e-10):
            problems.append(f"qmin s'={sp}: eta1 not monotone")
        if not np.all(np.diff(data[:, 2]) <= 1e-12):
            problems.append(f"qmin s'={sp}: q_min not monotone")
    # Max-separation curves: s' nondecreasing in s.
    for eta1, qm in (("0.5", "0.2"), ("0.1", "0.4")):
        data = emit(f"maxsep{eta1}", ["maxsep", "--eta1", eta1, "--q-max", qm, "--samples", "200"])
        if not np.all(np.diff(data[:, 1]) >= -1e-12):
            problems.append(f"maxsep eta1={eta1}: s' not monotone")
    # Tradeoff curves: q nondecreasing, s' nonincreasing.
    for eta1 in ("0.1", "0.5"):
        data = emit(f"tradeoff{eta1}", ["tradeoff", "--eta1", eta1, "--s", "0.6", "--samples", "200"])
        if not np.all(np.diff(data[:, 1]) >= -1e-12):
            problems.append(f"tradeoff eta1={eta1}: q not monotone")
        if not np.all(np.diff(data[:, 2]) <= 1e-12):
            problems.append(f"tradeoff eta1={eta1}: s' not monotone")
    ok = not problems
    _report(9, "figure-data regeneration", ok, "; ".join(problems) or
            "8 files monotone and byte-stable")

import hashlib
import json
import math
import sys

import numpy as np
import pytest

from statesep import NumericError, OverlapSpec, Priors, q_ud, qmin_at
from statesep.cli import main
from statesep.solvers import _linspace


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[_maybe_float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def _maybe_float(v):
    try:
        return float(v)
    except ValueError:
        return v


# ---------------------------------------------------------------------------
# tabular commands


def test_qmin_table(capsys):
    code, out = run_cli(
        capsys, "qmin", "--s", "0.6", "--s-prime", "0.3", "--samples", "33"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "eta1", "q_min", "q1", "q2"]
    assert len(rows) == 33
    assert rows[0][1] == pytest.approx(0.5, abs=1e-12)
    assert rows[0][2] == pytest.approx(0.4285714285714286, abs=1e-9)
    etas = [r[1] for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(etas, etas[1:]))


def test_qmin_dispatches_to_ud(capsys):
    code, out = run_cli(
        capsys, "qmin", "--s", "0.6", "--s-prime", "0", "--samples", "5"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert [r[1] for r in rows] == pytest.approx([0.5, 0.375, 0.25, 0.125, 0.0])
    for r in rows:
        assert math.isnan(r[0])
        assert r[2] == pytest.approx(q_ud(Priors.of(r[1]), 0.6), abs=1e-12)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("s", ["0", "1e-300", "0.6", repr(1.0 - 1e-12), "1"])
@pytest.mark.parametrize("s_prime", ["0", "s"], ids=["full-separation", "no-separation"])
def test_degenerate_qmin_rows_are_qmin_at(capsys, s_prime, s, fmt):
    # With no curve to sweep, each row is qmin_at's answer at its eta1, bit for bit.
    s_prime = s if s_prime == "s" else s_prime
    code, out = run_cli(capsys, "qmin", "--s", s, "--s-prime", s_prime, "--format", fmt)
    assert code == 0
    if fmt == "csv":
        _, rows = parse_csv(out)
        assert all(math.isnan(row[0]) for row in rows)
    else:
        rows = [list(row.values()) for row in json.loads(out)["rows"]]
        assert all(row[0] is None for row in rows)
    ov = OverlapSpec(float(s), float(s_prime))
    expected = []
    for eta1 in _linspace(0.5, 0.0, 512):
        q, pt = qmin_at(Priors.of(eta1), ov)
        expected.append([eta1, q, pt.q1, pt.q2])
    assert [[float.hex(v) for v in row[1:]] for row in rows] == [
        [float.hex(v) for v in row] for row in expected
    ]


def test_maxsep_equal_priors_piecewise(capsys):
    code, out = run_cli(
        capsys, "maxsep", "--eta1", "0.5", "--q-max", "0.2", "--samples", "11"
    )
    assert code == 0
    _, rows = parse_csv(out)
    for s, sp in rows:
        expected = 0.0 if s <= 0.2 else (s - 0.2) / 0.8
        assert sp == pytest.approx(expected, abs=1e-9)
    # The breakpoint where full separation stops fitting is an explicit row.
    assert any(s == pytest.approx(0.2, abs=1e-15) for s, _ in rows)


def test_maxsep_worked_example_row(capsys):
    code, out = run_cli(
        capsys, "maxsep", "--eta1", "0.3", "--q-max", "0.35", "--samples", "6"
    )
    assert code == 0
    _, rows = parse_csv(out)
    by_s = {round(s, 12): sp for s, sp in rows}
    assert by_s[0.4] == pytest.approx(0.032, abs=1e-3)


def test_maxsep_zero_budget_identity(capsys):
    # eta1 = 1 (a certain state) once divided by zero in critical_overlap.
    for eta1 in ("0.3", "1"):
        code, out = run_cli(
            capsys, "maxsep", "--eta1", eta1, "--q-max", "0", "--samples", "9"
        )
        assert code == 0
        _, rows = parse_csv(out)
        for s, sp in rows:
            assert sp == pytest.approx(s, abs=1e-9)


def test_tradeoff_rows(capsys):
    code, out = run_cli(
        capsys, "tradeoff", "--eta1", "0.5", "--s", "0.6", "--samples", "17"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["theta", "q", "s_prime"]
    assert rows[0][1] == 0.0 and rows[0][2] == pytest.approx(0.6, abs=1e-15)
    assert rows[-1][2] == 0.0
    assert rows[-1][1] == pytest.approx(0.6, abs=1e-9)  # q_ud at equal priors
    for _, q, sp in rows:
        assert sp == pytest.approx((0.6 - q) / (1.0 - q), abs=1e-12)


def test_ud_table(capsys):
    code, out = run_cli(capsys, "ud", "--s", "0.6", "--samples", "21")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["eta1", "q_ud", "q1", "q2"]
    mid = rows[10]
    assert mid[0] == pytest.approx(0.5) and mid[1] == pytest.approx(0.6, abs=1e-12)


# ---------------------------------------------------------------------------
# formats, determinism, files


def test_json_output_schema(capsys):
    code, out = run_cli(
        capsys, "tradeoff", "--eta1", "0.1", "--s", "0.6", "--samples", "5",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "tradeoff"
    assert doc["meta"]["params"] == {"eta1": 0.1, "s": 0.6}
    assert doc["meta"]["version"]
    assert len(doc["rows"]) == 5
    assert set(doc["rows"][0]) == {"theta", "q", "s_prime"}


@pytest.mark.parametrize(
    "argv, column",
    [
        (["qmin", "--s", "0.6", "--s-prime", "0"], "t"),
        (["tradeoff", "--eta1", "0", "--s", "0.6"], "theta"),
    ],
    ids=["qmin-no-t", "tradeoff-nan-theta"],
)
def test_json_writes_missing_and_nan_cells_as_null(capsys, argv, column):
    # The full-separation qmin rows have no t, and the certainty tradeoff
    # rows a NaN theta; JSON has no NaN, so both are null.
    code, out = run_cli(capsys, *argv, "--samples", "3", "--format", "json")
    assert code == 0 and "NaN" not in out
    assert [row[column] for row in json.loads(out)["rows"]] == [None, None, None]


def test_byte_stable_output(tmp_path, capsys):
    args = ["qmin", "--s", "0.6", "--s-prime", "0.3", "--samples", "50"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(p1)]) == 0
    assert main(args + ["--output", str(p2)]) == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b"\r" not in b1  # LF line endings
    # 17 significant digits survive a round trip exactly.
    header, rows = parse_csv(b1.decode())
    assert rows[0][0] == pytest.approx(0.7142857142857143, abs=0)


def test_optics_json_report(capsys):
    code, out = run_cli(
        capsys, "optics", "--s", "0.6", "--s-prime", "0.3",
        "--shots", "20000", "--seed", "5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["passed"] is True
    assert doc["report"]["protocol"]["s_prime_from_amplitudes"] == pytest.approx(
        0.3, abs=1e-12
    )


def test_optics_csv_flatten(capsys):
    code, out = run_cli(
        capsys, "optics", "--s", "0.6", "--s-prime", "0.3", "--shots", "20000"
    )
    assert code == 0
    assert out.splitlines()[0] == "key,value"
    assert any(line.startswith("passed,") for line in out.splitlines())


_STDOUT_SHA256 = [
    (["ud", "--s", "0.6"], "28fcd67d07bd65a52e77acaf7e5518e239218ccb379e82625d704c4652d5b6d8"),
    (["qmin", "--s", "0.6", "--s-prime", "0.3"], "41d976e6b0771882cbb74395e7b6d4dedfbf72ce5593b427cd58f01e22ab3d0d"),
    (["qmin", "--s", "0.6", "--s-prime", "0.6"], "7d9e46e2845957b620d6a830c6f45a11fcdb85a29bf97856426dcdf820144054"),
    (["qmin", "--s", "0.6", "--s-prime", "0"], "6f2757707e8a4793ae4ced5562f647150512fa340221bf8f74ae9bb1c805cf03"),
    (["maxsep", "--eta1", "0.1", "--q-max", "0.4"], "7a673e0c66d07d27e879c0a84ddcf4b34e44c7094f56bea622fe59e2d3efda44"),
    (["tradeoff", "--eta1", "0.5", "--s", "0.6"], "efd60c0e5dfc2ebb441a6b283c7778990089eca7e5f612fd45062ffc4c3b1df3"),
    (["tradeoff", "--eta1", "0", "--s", "0.6"], "483e82bec21ee8921badace471f33634eb5d5b174e9769c1277ea23f0f7f9a84"),
    (["tradeoff", "--eta1", "0.2", "--s", "0.6"], "0c148f7c85ba74e73dfad4245fe90a1e78828ed1a7ceb8307b5664b010a84d8e"),
    (
        ["optics", "--s", "0.6", "--s-prime", "0.3", "--shots", "20000"],
        "3861ed6ee4bf28358b23c8edcc722e4d2c5b162eaec45ebaffc02d8d960163a6",
    ),
    (
        ["optics", "--s", "0.6", "--s-prime", "0.3", "--shots", "20000", "--format", "json"],
        "90ea8ca7d4c0237049505801a18d64a131bb66d656996402ec626992333e824a",
    ),
    (
        ["tradeoff", "--eta1", "0.2", "--s", "0.6", "--format", "json"],
        "583c73e35f56fd2b60e9543464d31345c1ed47fb6bfe0c4ed895453f6adef1b4",
    ),
    (
        ["verify", "--samples", "2", "--shots", "20000", "--seed", "903"],
        "947a45c98abb63678cc3eeae0ace6d2fbcf77c5286294cdc65b544a7ea75b170",
    ),
]


@pytest.mark.parametrize(
    "argv, digest",
    _STDOUT_SHA256,
    ids=[
        "ud", "qmin", "qmin-equal", "qmin-full-separation", "maxsep",
        "tradeoff-equal", "tradeoff-certainty", "tradeoff", "optics-csv", "optics-json",
        "tradeoff-json", "verify",
    ],
)
def test_stdout_bytes_pinned(capsys, argv, digest):
    # Every subcommand and branch, in both formats, byte for byte (x86-64
    # Linux, glibc libm); the JSON digest also pins the package version.
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_2(capsys):
    assert main(["qmin", "--s", "1.2", "--s-prime", "0.3"]) == 2
    assert main(["qmin", "--s", "0.3", "--s-prime", "0.6"]) == 2
    assert main(["maxsep", "--eta1", "0.5", "--q-max", "1.0"]) == 2
    assert main(["qmin", "--s", "0.6"]) == 2  # missing required flag
    assert main(["nonsense"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, samples_help",
    [
        ("verify", "per-axis oracle grid size"),
        *[(name, "number of rows to emit") for name in ("ud", "qmin", "maxsep", "tradeoff")],
    ],
)
def test_samples_help_says_what_the_flag_sets(capsys, command, samples_help):
    # verify's --samples is the oracle grid's size per axis, not a row count.
    assert main([command, "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert f"--samples SAMPLES {samples_help}" in out


_OPTICS = ["optics", "--s", "0.6", "--s-prime", "0.3", "--shots", "10000"]
_VERIFY = ["verify", "--samples", "2", "--shots", "20000"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (_OPTICS + ["--seed", "-1"], 2),
        (_OPTICS + ["--seed", str(2**128 - 1)], 2),
        (_OPTICS + ["--seed", str(2**128 - 2)], 0),
        (_OPTICS + ["--seed", "0"], 0),
        (_VERIFY + ["--seed", "-3"], 2),
        (_VERIFY + ["--seed", str(2**128 - 10)], 2),
        (_VERIFY + ["--seed", str(2**128 - 11)], 0),
        (["qmin", "--s", "0.6", "--s-prime", "0.3", "--samples", "3", "--seed", "-1"], 0),
        (["ud", "--s", "0.6", "--samples", "3", "--seed", str(2**128)], 0),
    ],
    ids=[
        "optics-negative", "optics-last-key-past-end", "optics-last-key-at-end", "optics-zero",
        "verify-negative", "verify-last-key-past-end", "verify-last-key-at-end",
        "qmin-negative", "ud-past-end",
    ],
)
def test_seed_range_exit_codes(capsys, argv, code):
    # optics keys Philox with seed and seed + 1, verify with seed up to
    # seed + 10, and NumPy takes keys in [0, 2**128): a seed whose keys
    # leave that range is a usage error.  The curve commands only record
    # the seed, so they take any integer.
    assert main(argv) == code
    err = capsys.readouterr().err
    assert ("--seed must lie in" in err) == (code == 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["ud", "--s", "0.6", "--shots", "5"],
        ["qmin", "--s", "0.6", "--s-prime", "0.3", "--shots", "5"],
        ["maxsep", "--eta1", "0.1", "--q-max", "0.4", "--shots", "5"],
        ["tradeoff", "--eta1", "0.2", "--s", "0.6", "--shots", "5"],
        ["optics", "--s", "0.6", "--s-prime", "0.3", "--samples", "5"],
    ],
    ids=["ud-shots", "qmin-shots", "maxsep-shots", "tradeoff-shots", "optics-samples"],
)
def test_flags_a_command_does_not_read_exit_2(capsys, argv):
    # A subcommand takes only the flags it reads; anything else is a usage
    # error rather than silently ignored.
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_numeric_failure_exits_3(capsys, monkeypatch):
    import statesep.solvers as solvers

    def boom(*args, **kwargs):
        raise NumericError("injected")

    monkeypatch.setattr(solvers, "max_separation", boom)
    monkeypatch.setattr("statesep.cli.solvers.max_separation", boom, raising=False)
    assert main(["maxsep", "--eta1", "0.3", "--q-max", "0.2", "--samples", "4"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "s, s_prime, samples, message",
    [("1e-300", "5e-301", "512", "normal float")],
    ids=["s-squared-underflow"],
)
def test_valid_qmin_inputs_exit_3(capsys, s, s_prime, samples, message):
    # Valid overlaps the curve cannot resolve are numeric failures, not
    # usage errors (exit 2) or tracebacks (exit 1).
    assert main(["qmin", "--s", s, "--s-prime", s_prime, "--samples", samples]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and message in err


@pytest.mark.parametrize(
    "s, s_prime, samples",
    [("0.6", "1e-9", "512"), ("8.002035938234122e-30", "3.197006282588512e-30", "7")],
    ids=["clamp-at-small-sprime", "negative-q1-at-tiny-s"],
)
def test_formerly_refused_qmin_inputs_are_answered(capsys, s, s_prime, samples):
    # These exited 3 while the t-curve had its clamp and negative-q1 guards.
    # Now every row is printed, and the 50-digit referee confirms the first
    # interior, the middle and the last row's Q at the row's own eta1.
    import qmin_referee

    code, out = run_cli(capsys, "qmin", "--s", s, "--s-prime", s_prime, "--samples", samples)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "eta1", "q_min", "q1", "q2"] and len(rows) == int(samples)
    for _, eta1, q_min, _, _ in (rows[1], rows[len(rows) // 2], rows[-1]):
        ref = float(qmin_referee.qmin(eta1, float(s), float(s_prime))[0])
        assert abs(q_min - ref) <= 1e-9 * ref, (eta1, q_min, ref)


@pytest.mark.parametrize(
    "eta1, s",
    [("4.13e-6", "0.9999999999977576"), ("0.3", "1e-307")],
    ids=["singular-angle", "s-1e-307"],
)
def test_formerly_refused_tradeoff_inputs_are_answered(capsys, eta1, s):
    # These exited 3 while the angle sweep had its singular-angle and
    # cot-overflow guards.  Now every row is printed, and the 50-digit
    # referee confirms rows 1, n//2 and n-2 to 1e-9 of Q, relative to
    # max(Q, smallest normal float).
    import qmin_referee

    code, out = run_cli(capsys, "tradeoff", "--eta1", eta1, "--s", s, "--samples", "200")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["theta", "q", "s_prime"] and len(rows) == 200
    for _, q, s_prime in (rows[1], rows[100], rows[198]):
        tol = 1e-9 * max(q, sys.float_info.min)
        assert qmin_referee.is_q_min(float(eta1), float(s), s_prime, q, tol), (eta1, s, q, s_prime)


@pytest.mark.parametrize("s", ["1e-320"])
def test_subnormal_s_tradeoff_exits_3(capsys, s):
    # s*delta below the normal range is a numeric failure, not a usage
    # error (exit 2) or a traceback (exit 1).
    assert main(["tradeoff", "--eta1", "0.3", "--s", s]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "s*delta to be a normal float" in err


def _grid_ranges(seed):
    """Seeded (start, stop) pairs where a grid is easy to get wrong: negative
    angle ranges like the tradeoff sweep's, start == stop, widths of a few
    ulps, and steps that underflow to 0 (NumPy's (i/(n-1))*width branch)."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(3):
        lo = -float(rng.uniform(0.0, math.pi / 2))
        cases.append(pytest.param(lo, lo * float(rng.uniform(0.0, 1.0)), id=f"angles-{i}"))
        x = float(rng.choice([0.0, rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-320.0, 0.0)]))
        cases.append(pytest.param(x, x, id=f"equal-ends-{i}"))
        x = float(rng.uniform(0.1, 1.0))
        width = int(rng.integers(1, 4))
        cases.append(pytest.param(x, x + width * math.ulp(x), id=f"sub-ulp-{i}"))
        tiny = float(rng.uniform(1.0, 100.0)) * 5e-324
        cases.append(pytest.param(-tiny, 0.0, id=f"step-underflow-{i}"))
    # The tradeoff sweep's angle range at s = 1e-322, eta1 = 0.3.
    cases.append(pytest.param(-4.4e-323, 0.0, id="tradeoff-s-1e-322"))
    return cases


@pytest.mark.parametrize("start, stop", [(0.0, 1.0), (0.5, 0.0), *_grid_ranges(1812)])
def test_cli_grid_matches_numpy_linspace_in_hex(start, stop):
    # The grids of the CLI and of the sweeps, built without NumPy, carry
    # np.linspace's bits.
    for n in [*range(2, 601), 1000, 4097]:
        want = np.linspace(start, stop, n)
        got = np.array(_linspace(start, stop, n))
        # Equal bit patterns, so -0.0 and 0.0 differ; float.hex on a mismatch.
        if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
            assert [float.hex(v) for v in got.tolist()] == [float.hex(v) for v in want.tolist()], n


def test_verify_small_run_passes(capsys):
    code, out = run_cli(
        capsys, "verify", "--samples", "3", "--shots", "20000", "--seed", "902"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["check", "worst_deviation", "tolerance", "status"]
    assert all(row[3] == "pass" for row in rows)
    assert any(row[0] == "oracle-agreement" for row in rows)


def test_check_results_are_frozen_values():
    import dataclasses

    from statesep.verify import CheckResult

    row = CheckResult("oracle-agreement", 5.6e-16, 1e-6, True)
    assert row == CheckResult("oracle-agreement", 5.6e-16, 1e-6, True)
    assert row != ("oracle-agreement", 5.6e-16, 1e-6, True)
    assert repr(row) == "CheckResult(name='oracle-agreement', worst=5.6e-16, tolerance=1e-06, passed=True)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.passed = False


def _halve_maxsep_root(monkeypatch):
    import statesep.solvers as solvers

    original = solvers._bracketed_root

    def moved(f, lo, hi, what, *ends):
        root = original(f, lo, hi, what, *ends)
        # Halfway from the budget line's minimum to its low end.
        return 0.5 * (lo + root) if what.startswith("budget-line") else root

    monkeypatch.setattr(solvers, "_bracketed_root", moved)


def _flip_residual_beta_sign(monkeypatch):
    import statesep.verify as verify

    original = verify._residual_arr
    monkeypatch.setattr(
        verify, "_residual_arr", lambda q1, q2, s, beta: original(q1, q2, s, -beta)
    )


def _offset_interferometer(monkeypatch):
    import statesep.optics as optics

    original = optics.build_interferometer

    def built(s, s_prime):
        itf = original(s, s_prime)
        u = itf.u.copy()
        # The third column never meets a protocol input, so apply() still
        # gets normalized states and verify runs to the end.
        u[2, 2] += 1e-9
        return optics.Interferometer(u, itf.bs1, itf.bs2, itf.s, itf.s_prime)

    monkeypatch.setattr(optics, "build_interferometer", built)


def _bend_interior_slope(monkeypatch):
    import statesep.solvers as solvers

    original = solvers._t_curve

    def bent(ts, ov):
        # Off by 1e-2*(q1 - q2) inside the curve, exact at the vertex: the
        # slope still runs from -1 to 0, monotonically.
        return [
            smp._replace(dq2_dt=smp.dq2_dt * (1.0 + 1e-2 * (smp.point.q1 - smp.point.q2)))
            for smp in original(ts, ov)
        ]

    monkeypatch.setattr(solvers, "_t_curve", bent)


@pytest.mark.parametrize(
    "inject, failing_rows",
    [
        (_halve_maxsep_root, {"round-trip-consistency"}),
        (_flip_residual_beta_sign, {"lemma-set-nesting", "lemma-convexity"}),
        (_offset_interferometer, {"optics-exactness"}),
        (_bend_interior_slope, {"curve-slope-range"}),
    ],
    ids=["maxsep-root", "residual-beta-sign", "interferometer-offset", "interior-slope"],
)
def test_verify_catches_injected_sign_error(capsys, monkeypatch, inject, failing_rows):
    # Mutation smoke test: corrupt what a check measures, and that check
    # must fail, driving a nonzero exit.
    inject(monkeypatch)
    code, out = run_cli(
        capsys, "verify", "--samples", "2", "--shots", "20000", "--seed", "903"
    )
    assert code == 4
    _, rows = parse_csv(out)
    failing = {row[0] for row in rows if row[3] == "FAIL"}
    assert failing_rows <= failing

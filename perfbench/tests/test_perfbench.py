"""Negative controls for the benchmark's own checks and tracer.

Each test shows that a metric is live: a wrong answer must raise the
failed count, and a wrapped function must show up in its span counts.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import numpy as np  # noqa: E402
import statesep  # noqa: E402
import sweep  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, layer_self_times  # noqa: E402


def _perturb(query: tuple, out: tuple, eps: float) -> tuple:
    """The outcome with its leading answer value moved by eps."""
    status, res = out
    if query[0] == "max_clones":
        return status, (res[0] + 1,)
    if query[0] in sweep.SWEEP_KINDS:
        rows = np.frombuffer(res).reshape(-1, 4 if query[0] == "qmin_curve" else 2).copy()
        rows[:, 1] += eps
        return status, rows.tobytes()
    return status, (res[0] + eps, *res[1:])


def _slide(query: tuple, out: tuple) -> tuple:
    """A qmin_at outcome moved along the constraint curve, away from the optimum."""
    status, (q, q1, q2) = out
    _, eta1, s, sp = query
    swapped = q1 < q2
    if swapped:
        q1, q2 = q2, q1
    vertex = (s - sp) / (1.0 - sp)
    # A tenth of the way towards the farther end of the lower branch.
    q1 += 0.1 * ((vertex - q1) if q1 - vertex > 1.0 - q1 else (1.0 - q1))
    q2 = float(sweep.lower_q2(q1, s, sp))
    if swapped:
        q1, q2 = q2, q1
    return status, (eta1 * q1 + (1.0 - eta1) * q2, q1, q2)


def _sample(seed: int, points: int, sweeps: int):
    batch = sweep.make_batch(seed)
    queries = [q for q in batch if q[0] in sweep.POINT_KINDS][:points]
    queries += [q for q in batch if q[0] in sweep.SWEEP_KINDS][:sweeps]
    return queries, [sweep.outcome(statesep, q) for q in queries]


def test_batch_is_seeded_and_follows_the_call_mix():
    assert sweep.make_batch(7) == sweep.make_batch(7)
    assert sweep.make_batch(7) != sweep.make_batch(8)
    batch = sweep.make_batch(7)
    kinds = [q[0] for q in batch]
    for kind, n in sweep.CALL_MIX.items():
        assert kinds.count(kind) == n * sweep.MIX_UNITS
    # Each kind is spread over the batch, not bunched: any stretch of one
    # mix unit holds every kind.
    unit = sum(sweep.CALL_MIX.values())
    for start in range(0, len(batch), 7 * unit):
        assert set(kinds[start : start + unit]) == set(sweep.CALL_MIX)


def test_referee_rejects_answers_moved_by_1e_5():
    queries, outs = _sample(3, 600, 6)
    base = sweep.judge(queries, outs)
    answered = [v == "answered" for v in base]
    moved = [_perturb(q, o, 1e-5) if ok else o for q, o, ok in zip(queries, outs, answered)]
    perturbed = sweep.judge(queries, moved)
    assert perturbed.count("failed") > base.count("failed")
    # A round trip cannot see a shift of s' where Q barely depends on s',
    # so a few moved answers near the edges pass; nearly all must be rejected.
    rejected = sum(ok and v == "failed" for ok, v in zip(answered, perturbed))
    assert rejected >= 0.95 * sum(answered)


def test_referee_rejects_feasible_answers_that_are_not_minimal():
    queries, outs = _sample(4, 800, 4)
    base = sweep.judge(queries, outs)
    picked = [i for i, q in enumerate(queries) if q[0] == "qmin_at" and base[i] == "answered"]
    slid = list(outs)
    for i in picked:
        slid[i] = _slide(queries[i], outs[i])
    # The slid points still lie on the curve and satisfy the objective.
    for i in picked:
        _, (q, q1, q2) = slid[i]
        assert abs(sweep._residual(q1, q2, queries[i][2], queries[i][3])) <= sweep.RESIDUAL_TOL
    verdicts = sweep.judge(queries, slid)
    assert sum(verdicts[i] == "failed" for i in picked) >= 0.95 * len(picked)

    # A qmin_curve whose eta1 are off the tangency: each sample keeps its
    # point and a consistent objective, but is no longer the minimum.
    curves = [i for i, q in enumerate(queries) if q[0] == "qmin_curve" and base[i] == "answered"]
    assert curves
    for i in curves:
        rows = np.frombuffer(outs[i][1]).reshape(-1, 4).copy()
        rows[:, 0] *= 0.99
        rows[:, 1] = rows[:, 0] * rows[:, 2] + (1.0 - rows[:, 0]) * rows[:, 3]
        slid[i] = ("ok", rows.tobytes())
    verdicts = sweep.judge(queries, slid)
    assert all(verdicts[i] == "failed" for i in curves)


def test_referee_minimum_matches_a_dense_grid():
    """The referee's minimum against a dense grid of the symmetric
    parametrization of the curve, a formula it does not use."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = rng.uniform(0.05, 0.95)
        sp = s * rng.uniform(0.02, 0.98)
        eta1 = rng.uniform(0.0, 0.5)
        t_lo, t_hi = (1.0 - sp / s) / (1.0 - sp), (1.0 - sp * sp / (s * s)) / (1.0 - sp * sp)
        # Squared spacing resolves the vertex, where q moves as sqrt(t - t_lo).
        t = t_lo + (t_hi - t_lo) * np.linspace(0.0, 1.0, 200_001) ** 2
        x = (1.0 - (1.0 + sp) * t) * s / sp
        y = (1.0 - (1.0 - sp) * t) * s / sp
        root = np.sqrt(np.clip(1.0 - x * x, 0.0, None) * np.clip(1.0 - y * y, 0.0, None))
        q1, q2 = 0.5 * (1.0 - x * y + root), 0.5 * (1.0 - x * y - root)
        grid = float(np.min(eta1 * q1 + (1.0 - eta1) * q2))
        ref = float(sweep.qmin_ref(eta1, s, sp))
        assert grid - 1e-9 <= ref <= grid + 1e-15
        assert abs(float(sweep.qmin_ref(1.0 - eta1, s, sp)) - ref) <= 1e-15
        q1 = rng.uniform((s - sp) / (1.0 - sp), 1.0, 50)
        assert np.all(np.abs(sweep._residual(q1, sweep.lower_q2(q1, s, sp), s, sp)) <= 1e-14)


def test_referee_counts_numeric_error_as_refused():
    q = ("tradeoff_at", 0.3, 0.5, 0.1)
    outs = [("raised", "NumericError"), ("raised", "ZeroDivisionError"), ("raised", "DomainError")]
    assert sweep.judge([q] * 3, outs) == ["refused", "failed", "failed"]


def test_figure_checks_catch_broken_output():
    argv = checks.figure_calls(1)[0]
    header = "t,eta1,q_min,q1,q2\n"
    rows = [f"{0.1 * i},{0.5 - 0.002 * i},{0.3 - 0.001 * i},0.5,0.1" for i in range(checks.FIGURE_SAMPLES)]
    good = header + "\n".join(rows) + "\n"
    assert checks.figure_ok(argv, 0, good)
    assert not checks.figure_ok(argv, 3, good)
    assert not checks.figure_ok(argv, 0, good.replace(rows[5], rows[5].replace("0.295", "0.2965")))
    assert not checks.figure_ok(argv, 0, header + "\n".join(rows[:-1]) + "\n")


def test_verify_outcome_counts_failed_rows():
    header = "check,worst_deviation,tolerance,status\n"
    rows = [f"c{i},1e-13,1e-12,pass" for i in range(checks.VERIFY_CHECKS)]
    assert checks.verify_outcome(0, header + "\n".join(rows) + "\n") == (0, 0.1)
    rows[3] = "c3,2e-12,1e-12,FAIL"
    assert checks.verify_outcome(4, header + "\n".join(rows) + "\n")[0] == 1
    assert checks.verify_outcome(0, header + "\n".join(rows) + "\n")[0] == checks.VERIFY_CHECKS
    assert checks.verify_outcome(1, "Traceback")[0] == checks.VERIFY_CHECKS


def test_wrapped_function_shows_in_span_counts():
    tracer = Tracer()
    tracer.install(statesep.solvers, "q_ud", "solvers.q_ud")
    tracer.install(statesep.solvers, "max_separation", "solvers.max_separation")
    try:
        pr = statesep.Priors.of(0.3)
        for _ in range(5):
            statesep.solvers.max_separation(pr, 0.6, 0.2)
        statesep.solvers.q_ud(pr, 0.6)
    finally:
        tracer.uninstall()
    statesep.solvers.q_ud(pr, 0.6)  # after uninstall: not counted
    summary = tracer.summary()
    assert summary["solvers.max_separation"]["calls"] == 5
    # q_ud is called once per max_separation, through the wrapped name.
    assert summary["solvers.q_ud"]["calls"] == 6
    ms = summary["solvers.max_separation"]
    assert ms["self_s"] < ms["busy_s"]
    layers = layer_self_times(summary)
    assert abs(layers["solvers"] - sum(r["self_s"] for r in summary.values())) < 1e-12


def test_tracer_records_exceptions_and_restores_classmethods():
    tracer = Tracer()
    tracer.install(statesep.core.Priors, "of", "core.Priors.of")
    try:
        statesep.Priors.of(0.25)
        try:
            statesep.Priors.of(2.0)
        except statesep.DomainError:
            pass
    finally:
        tracer.uninstall()
    row = tracer.summary()["core.Priors.of"]
    assert row["calls"] == 2 and row["errors"] == {"DomainError": 1}
    assert isinstance(vars(statesep.core.Priors)["of"], classmethod)


def test_trace_install_covers_reported_names():
    tracer = Tracer()
    import statesep.cli  # noqa: F401

    worker.install_trace(tracer, statesep)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            statesep.cli.main(["optics", "--s", "0.6", "--s-prime", "0.3", "--shots", "20000"])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["optics.certify_separation"]["work"] == 20000
    assert summary["optics.simulate"]["calls"] == 2
    assert summary["optics.simulate"]["work"] == 40000


def test_repeats_flags_a_round_that_differs():
    rep = checks.Repeats()
    rep.add([("ok", (1.0, float("nan"))), ("ok", b"\x00")])
    rep.add([("ok", (1.0, float("nan"))), ("ok", b"\x00")])
    assert rep.deterministic and rep.rounds == 2
    rep.add([("ok", (1.0, float("nan"))), ("ok", b"\x01")])
    assert not rep.deterministic and rep.rounds == 3


def test_run_rounds_keeps_the_minimum_and_the_deadline():
    import time

    calls = []
    assert len(checks.run_rounds(lambda: calls.append(1), time.perf_counter() - 1.0, 2)) == 2
    round_s = checks.run_rounds(lambda: time.sleep(0.01), time.perf_counter() + 0.1, 1)
    assert 5 <= len(round_s) <= 10

"""Workload definitions and output checks shared by run.py and worker.py.

``cli-figures`` is the criterion-9 figure set of the acceptance suite
(``qmin`` at four ``s'``, two ``maxsep`` and two ``tradeoff`` curves, 200
samples each) plus one ``ud`` curve and one ``optics`` certification.
``release-gate`` is one ``verify`` run.  The checks read the CSV a call
printed; they use no golden hashes, so a correct change that moves the
last digits still passes.  ``solver-sweep`` is defined in ``sweep.py``.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from typing import Callable

WORKLOADS = ("cli-figures", "release-gate", "solver-sweep")
# Solver functions whose spans the traced run reports.
SOLVERS = (
    "qmin_at",
    "max_separation",
    "tradeoff_at",
    "qmin_curve",
    "tradeoff_curve",
    "q_ud",
    "critical_overlap",
    "max_clones",
)

FIGURE_SAMPLES = 200
OPTICS_SHOTS = 1_000_000
VERIFY_GRID = 6
# The release-gate checks, as named by ``statesep.verify.check_<name>``.
VERIFY_CHECK_NAMES = (
    "endpoint_identities",
    "set_nesting",
    "convexity",
    "hyperbola_degeneration",
    "curve_on_constraint",
    "slope_range",
    "qmin_monotonicity",
    "oracle_agreement",
    "round_trip",
    "conic_consistency",
    "separation_onset",
    "optics_exact",
    "optics_statistics",
)
VERIFY_CHECKS = len(VERIFY_CHECK_NAMES)

_HEADERS = {
    "qmin": "t,eta1,q_min,q1,q2",
    "maxsep": "s,s_prime_min",
    "tradeoff": "theta,q,s_prime",
    "ud": "eta1,q_ud,q1,q2",
    "optics": "key,value",
    "verify": "check,worst_deviation,tolerance,status",
}


def figure_calls(seed: int) -> list[list[str]]:
    """Argument lists of one cli-figures round; the seed keys the optics run."""
    n = ["--samples", str(FIGURE_SAMPLES)]
    calls = [["qmin", "--s", "0.6", "--s-prime", sp, *n] for sp in ("0.05", "0.3", "0.5", "0.59")]
    calls += [
        ["maxsep", "--eta1", eta1, "--q-max", qm, *n] for eta1, qm in (("0.5", "0.2"), ("0.1", "0.4"))
    ]
    calls += [["tradeoff", "--eta1", eta1, "--s", "0.6", *n] for eta1 in ("0.1", "0.5")]
    calls.append(["ud", "--s", "0.6", *n])
    calls.append(
        ["optics", "--s", "0.6", "--s-prime", "0.3", "--shots", str(OPTICS_SHOTS), "--seed", str(seed)]
    )
    return calls


def verify_call(seed: int) -> list[str]:
    """Argument list of one release-gate round."""
    return ["verify", "--samples", str(VERIFY_GRID), "--seed", str(seed)]


def workload_calls(workload: str, seed: int) -> list[list[str]]:
    """Argument lists of one round of a CLI workload."""
    return figure_calls(seed) if workload == "cli-figures" else [verify_call(seed)]


def _rows(text: str, command: str) -> list[list[str]] | None:
    lines = text.split("\n")
    if not lines or lines[0] != _HEADERS[command] or lines[-1] != "":
        return None
    return [line.split(",") for line in lines[1:-1]]


def _floats(rows: list[list[str]]) -> list[list[float]]:
    return [[float(x) for x in row] for row in rows]


def _diffs(rows: list[list[float]], col: int) -> list[float]:
    return [b[col] - a[col] for a, b in zip(rows, rows[1:])]


def figure_ok(argv: list[str], code: int, text: str) -> bool:
    """Exit code, header, row count and the monotonicity rules of one call."""
    command = argv[0]
    rows = _rows(text, command) if code == 0 else None
    if rows is None:
        return False
    if command == "optics":
        return ["passed", "True"] in rows
    try:
        data = _floats(rows)
    except ValueError:
        return False
    # maxsep adds the full-separation breakpoint as one extra row.
    if len(data) not in ((FIGURE_SAMPLES, FIGURE_SAMPLES + 1) if command == "maxsep" else (FIGURE_SAMPLES,)):
        return False
    if command == "qmin":
        return max(_diffs(data, 1)) <= 1e-10 and max(_diffs(data, 2)) <= 1e-12
    if command == "maxsep":
        return min(_diffs(data, 1)) >= -1e-12
    if command == "tradeoff":
        return min(_diffs(data, 1)) >= -1e-12 and max(_diffs(data, 2)) <= 1e-12
    if command == "ud":
        s = float(argv[argv.index("--s") + 1])
        return all(
            abs(q1 * q2 - s * s) <= 1e-12 and abs(e * q1 + (1.0 - e) * q2 - q) <= 1e-12
            for e, q, q1, q2 in data
        )
    raise ValueError(f"no check for command {command!r}")


def verify_outcome(code: int, text: str) -> tuple[int, float]:
    """(checks not passed, gate margin) of one verify run.

    The margin is the largest worst_deviation / tolerance over the checks
    with a finite deviation (a check reports an infinite one only when it
    fails, which the count already records); a missing or unreadable row
    counts as not passed.  ``optics-statistics``
    is a seeded 1%-level test, so its outcome depends on the seed: compare
    two commits on the same seeds.
    """
    rows = _rows(text, "verify") if code in (0, 4) else None
    if rows is None:
        return VERIFY_CHECKS, 0.0
    passed = 0
    margin = 0.0
    for row in rows:
        try:
            worst, tol = float(row[1]), float(row[2])
        except (IndexError, ValueError):
            continue
        if math.isfinite(worst):
            margin = max(margin, worst / tol)
        passed += row[3] == "pass"
    failed = VERIFY_CHECKS - passed
    if code != (0 if failed == 0 else 4) or len(rows) != VERIFY_CHECKS:
        failed = VERIFY_CHECKS
    return failed, margin


def score(calls: list[list[str]], outs: list[tuple[int, str]]) -> tuple[int, int, dict]:
    """(operations per round, failed, details) of one round of CLI calls.

    An operation is a CLI call, or for ``verify`` each of its checks.
    """
    if calls[0][0] == "verify":
        failed, margin = verify_outcome(*outs[0])
        return VERIFY_CHECKS, failed, {"gate_margin": margin}
    return len(calls), sum(not figure_ok(a, code, text) for a, (code, text) in zip(calls, outs)), {}


# The host probes, and the time each takes on the reference host at its
# usual speed.  Both run no package code, so no change to the package
# moves them.
PROBE_LOOPS = 75_000
PROBE_SORT = 120_000
PROBE_REF_S = 0.03
# A probe runs about this share of the interval it closes.
PROBE_SHARE = 0.05


def _python_loop() -> None:
    total, table = 0.0, {}
    for i in range(PROBE_LOOPS):
        total += math.sqrt(i + 1.0)
        table[i & 1023] = total


def host_probe() -> float:
    """Seconds a pure-Python loop takes now: a gauge of the host's current
    speed for in-process solver work."""
    t = time.perf_counter()
    _python_loop()
    _python_loop()
    return time.perf_counter() - t


@functools.lru_cache(maxsize=1)
def _sort_input():
    # numpy is imported here, not with this module, so that the worker
    # still times the numpy import as part of ``import statesep``.
    import numpy as np

    return np, np.random.default_rng(0).random(PROBE_SORT)


def process_probe() -> float:
    """Seconds half that loop and a numpy sort take now: a gauge of the
    host's current speed for a fresh process, which imports modules and,
    in ``verify``, spends most of its time in numpy."""
    np, a = _sort_input()
    t = time.perf_counter()
    _python_loop()
    x = np.sqrt(a * 1.5 + 0.3)
    x[np.lexsort((a, x))].sum()
    return time.perf_counter() - t


class HostGauge:
    """Scales measured times to the reference host speed.

    A shared host's speed drifts by tens of percent over seconds to
    minutes, and the probe drifts with it.  Measured intervals follow
    one another, each closed by a probe that also opens the next; a time
    measured in an interval, multiplied by ``PROBE_REF_S`` over the mean
    of the probes around it, is what the same work would have taken at the
    reference speed.  A probe repeats for about ``PROBE_SHARE`` of the
    interval it closes, so that it averages the host's speed over a window
    that grows with the interval.  ``probe`` is ``host_probe`` for
    in-process work and ``process_probe`` for child processes: a probe
    that does work like the measured work drifts most like it.
    """

    def __init__(self, probe: Callable[[], float] = host_probe) -> None:
        self.probe = probe
        self.last = probe()

    def close(self, interval_s: float) -> float:
        """Probe now, and return the factor for the interval just ended."""
        repeats = max(1, round(PROBE_SHARE * interval_s / PROBE_REF_S))
        before, self.last = self.last, sum(self.probe() for _ in range(repeats)) / repeats
        return 2.0 * PROBE_REF_S / (before + self.last)

    def measure(self, fn: Callable[[], object]) -> tuple[object, float, float]:
        """(fn(), its wall seconds, the factor for them), as its own interval."""
        t = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t
        return out, wall, self.close(wall)


def run_rounds(run_round: Callable[[], object], deadline: float, min_rounds: int) -> list[float]:
    """Durations of rounds run back to back: at least ``min_rounds``, then
    another only while it should end by ``deadline`` (``perf_counter`` s)."""
    round_s: list[float] = []
    while len(round_s) < min_rounds or time.perf_counter() + statistics.median(round_s) <= deadline:
        t = time.perf_counter()
        run_round()
        round_s.append(time.perf_counter() - t)
    return round_s


class Repeats:
    """The outputs of a workload's first round, and whether every later
    round repeated them exactly."""

    def __init__(self) -> None:
        self.first: list | None = None
        self.rounds = 0
        self.deterministic = True

    def add(self, outs: list) -> None:
        if self.first is None:
            self.first = outs
        elif len(outs) != len(self.first) or not all(
            # repr() equality also holds for NaN fields, which == rejects.
            a == b or repr(a) == repr(b)
            for a, b in zip(outs, self.first)
        ):
            self.deterministic = False
        self.rounds += 1

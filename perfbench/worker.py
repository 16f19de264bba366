"""Runs one workload inside a single fresh process and reports as JSON.

Used for the solver-sweep end-to-end run (``--seconds``) and for every
traced run (``--trace-rounds``), which alternates untraced and traced
rounds of the same work.  The process imports statesep itself and times
that import.  CLI workloads call ``statesep.cli.main(argv)`` in-process
instead of starting a process per call.

    PYTHONPATH=src python3 perfbench/worker.py --workload solver-sweep \\
        --seed 1 --seconds 5 --out result.json
"""

from __future__ import annotations

import argparse
import array
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from typing import Callable

import checks

# Traced names.  Wrapping a name on the module its callers look it up in
# catches every call through it.  The two helpers are traced so that their
# time counts as solver time, but not reported on their own.
_SOLVER_FNS = checks.SOLVERS + ("ud_tangency_point", "curve_point")
# Seconds of solver-sweep queries between two host probes.
PROBE_EVERY_S = 0.25


def install_trace(tracer, statesep) -> None:
    """Wrap every traced name; cli and verify only when the workload loaded them."""
    cli, verify = sys.modules.get("statesep.cli"), sys.modules.get("statesep.verify")
    if cli is not None:
        tracer.install(cli, "main", "cli.main")
    if verify is not None:
        for check in checks.VERIFY_CHECK_NAMES:
            tracer.install(verify, f"check_{check}", f"verify.{check}")
        tracer.install(verify, "oracle_qmin", "oracle.oracle_qmin")
    for fn in _SOLVER_FNS:
        tracer.install(statesep.solvers, fn, f"solvers.{fn}")
    tracer.install(statesep.oracle, "oracle_qmin", "oracle.oracle_qmin")
    tracer.install(
        statesep.optics, "simulate", "optics.simulate", lambda a, k: k.get("shots", a[2] if len(a) > 2 else 0)
    )
    tracer.install(
        statesep.optics,
        "certify_separation",
        "optics.certify_separation",
        lambda a, k: k.get("shots", a[1] if len(a) > 1 else 0),
    )
    for fn in ("build_interferometer", "apply"):
        tracer.install(statesep.optics, fn, f"optics.{fn}")
    for fn in ("tangency_residuals", "ellipse_point", "from_conic"):
        tracer.install(statesep.conics, fn, f"conics.{fn}")
    tracer.install(statesep.core, "unitarity_residual", "core.unitarity_residual")
    # Input types the benchmark's own queries build; their validation is
    # core-layer work, not benchmark glue.
    tracer.install(statesep.core.Priors, "of", "core.Priors.of")
    tracer.install(statesep, "OverlapSpec", "core.OverlapSpec")


def in_process(statesep) -> Callable[[list[str]], tuple[int, str]]:
    """A CLI call as ``statesep.cli.main(argv)``: (exit code, stdout)."""

    def call(argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = statesep.cli.main(list(argv))
        return code, buf.getvalue()

    return call


class CliWorkload:
    """cli-figures or release-gate; ``call`` runs one CLI call."""

    def __init__(self, name: str, seed: int, call: Callable[[list[str]], tuple[int, str]]):
        self.calls = checks.workload_calls(name, seed)
        self.call = call
        self.repeats = checks.Repeats()

    def warm_up(self) -> None:
        pass

    def run_round(self, tracer=None) -> None:
        outs = []
        for argv in self.calls:
            if tracer:
                tracer.op += 1
            outs.append(self.call(argv))
        self.repeats.add(outs)

    def report(self) -> dict:
        """Counts over one round: every round repeats its calls exactly, so
        they depend on the seed only, not on how many rounds fit."""
        per_round, failed, extra = checks.score(self.calls, self.repeats.first)
        return {
            "attempted": per_round,
            "failed": failed,
            "answered": per_round - failed,
            "deterministic": self.repeats.deterministic,
            **extra,
        }


class SweepWorkload:
    """solver-sweep: a seeded batch of point queries and curve sweeps.

    With ``probe_every`` set, a host probe runs whenever that many seconds
    of queries have passed since the last one, and at the end of a round;
    each query's time is scaled to the reference host speed by the two
    probes around it (see ``checks.HostGauge``).
    """

    WARMUP_QUERIES = 400

    def __init__(self, name: str, seed: int, statesep, probe_every: float | None = None):
        import sweep

        self.sweep = sweep
        self.statesep = statesep
        self.queries = sweep.make_batch(seed)
        self.probe_every = probe_every
        self.gauge = None if probe_every is None else checks.HostGauge()
        self.repeats = checks.Repeats()
        # Flat arrays, so peak RSS does not grow with the number of rounds:
        # per query of every round, its time and its speed factor.
        self.lat = array.array("d")
        self.factor = array.array("d")

    def warm_up(self) -> None:
        for query in self.queries[: self.WARMUP_QUERIES]:
            self.sweep.outcome(self.statesep, query)

    def run_round(self, tracer=None) -> None:
        outcome, clock, statesep, lat, gauge = self.sweep.outcome, time.perf_counter, self.statesep, self.lat, self.gauge
        outs = []
        start, t_start = 0, clock()
        for i, query in enumerate(self.queries):
            if tracer:
                tracer.op += 1
            t = clock()
            outs.append(outcome(statesep, query))
            t_end = clock()
            lat.append(t_end - t)
            if gauge is not None and (t_end - t_start >= self.probe_every or i + 1 == len(self.queries)):
                self.factor.extend([gauge.close(t_end - t_start)] * (i + 1 - start))
                start, t_start = i + 1, clock()
        if gauge is None:
            self.factor.extend([1.0] * len(self.queries))
        self.repeats.add(outs)

    def report(self) -> dict:
        """Verdicts on the batch, which every round repeats exactly (so the
        counts depend on the seed only); times over all rounds, at reference
        speed (a round's time is the sum of its queries' times)."""
        import numpy as np

        rounds = self.repeats.rounds
        verdicts = self.sweep.judge(self.queries, self.repeats.first)
        raw = np.frombuffer(self.lat).reshape(rounds, -1)
        lat = raw * np.frombuffer(self.factor).reshape(rounds, -1)
        is_sweep = np.array([q[0] in self.sweep.SWEEP_KINDS for q in self.queries])
        point_lat = np.sort(lat[:, ~is_sweep].ravel())
        sweep_lat = lat[:, is_sweep].ravel()
        n = len(point_lat)
        return {
            "attempted": len(verdicts),
            "failed": verdicts.count("failed"),
            "answered": verdicts.count("answered"),
            "refused": verdicts.count("refused"),
            "deterministic": self.repeats.deterministic,
            "round_s": lat.sum(axis=1).tolist(),
            "round_raw_s": raw.sum(axis=1).tolist(),
            "speed_factor": float(np.median(np.frombuffer(self.factor))),
            "point_queries": n,
            "point_busy_s": float(point_lat.sum()),
            "sweep_busy_s": float(sweep_lat.sum()),
            "point_p50_us": float(point_lat[n // 2]) * 1e6,
            "point_p99_us": float(point_lat[min(int(n * 0.99), n - 1)]) * 1e6,
            "sweep_p50_ms": float(np.median(sweep_lat)) * 1e3,
            "call_p50_s": float(np.median(lat)),
        }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=checks.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument(
        "--seconds", type=float, default=None, help="untraced: time budget from process start to the last round"
    )
    ap.add_argument("--trace-rounds", type=int, default=None, help="traced: pairs of rounds to run")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if (args.seconds is None) == (args.trace_rounds is None):
        ap.error("give exactly one of --seconds and --trace-rounds")

    t_import = time.perf_counter()
    if args.workload == "solver-sweep":
        import statesep
    else:
        import statesep.cli  # what `python -m statesep` loads
    t_imported = time.perf_counter()
    import_s = t_imported - t_import

    if args.workload == "solver-sweep":
        # Untraced runs scale query times to the reference host speed.
        probe_every = PROBE_EVERY_S if args.seconds is not None else None
        work = SweepWorkload(args.workload, args.seed, statesep, probe_every)
    else:
        work = CliWorkload(args.workload, args.seed, in_process(statesep))
    _, warmup_s, warmup_factor = checks.HostGauge().measure(work.warm_up)

    def timed_round(tracer) -> float:
        t = time.perf_counter()
        work.run_round(tracer)
        return time.perf_counter() - t

    result: dict = {"import_s": import_s, "warmup_s": warmup_s, "warmup_factor": warmup_factor}
    if args.seconds is not None:
        checks.run_rounds(work.run_round, t_import + args.seconds, 1)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # Untraced and traced rounds alternate, in swapped order from pair
        # to pair, so drift in host speed falls on both sides alike.
        from tracing import Tracer, layer_self_times

        tracer = Tracer()
        tracer.record("import.statesep", t_import, t_imported)
        plain_s = traced_s = 0.0
        for pair in range(args.trace_rounds):
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                if traced:
                    install_trace(tracer, statesep)
                    traced_s += timed_round(tracer)
                    tracer.uninstall()
                else:
                    plain_s += timed_round(None)
        summary = tracer.summary()
        result["untraced_wall_s"] = import_s + plain_s
        result["traced_wall_s"] = import_s + traced_s
        result["spans"] = {
            name: {
                "calls": row["calls"],
                "busy_s": row["busy_s"],
                "self_s": row["self_s"],
                "p50_s": statistics.median(row["durations"]),
                "errors": dict(row["errors"]),
                "work": row["work"],
            }
            for name, row in summary.items()
        }
        result["layer_self_s"] = layer_self_times(summary)
    result.update(work.report())
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

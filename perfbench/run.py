"""statesep benchmark: three workloads, end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload cli-figures --seed 1 --seconds 36 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``cli-figures``  -- the figure-data CLI calls, each a fresh
  ``python -m statesep`` process, run one after another.
* ``release-gate`` -- ``python -m statesep verify`` as a fresh process.
* ``solver-sweep`` -- one process, imported and warmed up before timing,
  answering seeded point queries and curve sweeps.

A run lasts ``--seconds``, set-up included; the CLI workloads run at least
two rounds, so that every call repeats, even past it.
``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace 1``
runs the workload in one process, alternating untraced and traced rounds,
and prints the per-layer metrics.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and workload details.  All load comes from one
client issuing one operation at a time (a closed loop).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import worker  # noqa: E402

SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
CHILD_TIMEOUT_S = 150.0
# Pairs of untraced and traced rounds in a traced run; fixed, so that its
# counts repeat exactly.
TRACE_ROUNDS = {"cli-figures": 10, "release-gate": 1, "solver-sweep": 3}
LAYERS = ("import", "cli", "verify", "solvers", "conics", "core", "oracle", "optics")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], stem: str) -> tuple[int, float, float, str, str]:
    """Run a child to completion; (exit code, wall s, peak RSS MB, stdout, stderr).

    The wall time and peak RSS come from ``wait4`` on this child alone.
    """
    out_path, err_path = WORK / f"{stem}.out", WORK / f"{stem}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        done: list = []

        def reap() -> None:
            _, status, usage = os.wait4(proc.pid, 0)
            done.append((time.perf_counter(), status, usage))

        reaper = threading.Thread(target=reap)
        reaper.start()
        reaper.join(CHILD_TIMEOUT_S)
        if reaper.is_alive():
            proc.kill()
            reaper.join()
            raise RuntimeError(f"child timed out after {CHILD_TIMEOUT_S} s: {argv}")
    t1, status, usage = done[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        t1 - t0,
        usage.ru_maxrss / 1024.0,
        out_path.read_text(),
        err_path.read_text(),
    )


def setup_time(gauge: checks.HostGauge) -> tuple[float, float]:
    """Median time of a fresh interpreter up to ``import statesep``: (at
    reference speed, as measured)."""
    ref, walls = [], []
    for i in range(SETUP_PROBES):
        (code, wall, _, _, err), _, factor = gauge.measure(
            lambda: spawn([sys.executable, "-c", "import statesep"], f"setup{i}")
        )
        if code != 0:
            raise RuntimeError(f"import statesep failed:\n{err}")
        ref.append(wall * factor)
        walls.append(wall)
    return statistics.median(ref), statistics.median(walls)


def run_cli(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    """cli-figures or release-gate: fresh ``python -m statesep`` processes.

    At least two rounds run, so that every call is repeated once.  Each
    call is timed at reference speed on its own; a round is the sum of its
    calls.
    """
    gauge = checks.HostGauge(checks.process_probe)
    setup_s, setup_raw_s = setup_time(gauge)
    call_s: list[float] = []
    call_raw_s: list[float] = []
    peak = [0.0]

    def process_call(argv: list[str]) -> tuple[int, str]:
        (code, wall, rss, out, _), _, factor = gauge.measure(
            lambda: spawn([sys.executable, "-m", "statesep", *argv], f"call{len(call_s)}")
        )
        call_s.append(wall * factor)
        call_raw_s.append(wall)
        peak[0] = max(peak[0], rss)
        return code, out

    work = worker.CliWorkload(workload, seed, process_call)
    checks.run_rounds(work.run_round, deadline, 2)
    n = len(work.calls)
    round_s = [sum(call_s[i : i + n]) for i in range(0, len(call_s), n)]
    res = work.report()
    attempted = res["attempted"]
    result = {
        "correct": res["deterministic"],
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": {
            "wall_s": statistics.median(round_s),
            "setup_s": setup_s,
            "peak_rss_mb": peak[0],
            "ok_ratio": 1.0 - res["failed"] / attempted,
            "answered_ratio": res["answered"] / attempted,
            "ops_per_s": attempted * len(round_s) / sum(round_s),
            "call_p50_s": statistics.median(call_s),
        },
    }
    detail = {
        "rounds": len(round_s),
        "calls": len(call_s),
        "failed_ratio": res["failed"] / attempted,
        "measured_wall_s": statistics.median(
            sum(call_raw_s[i : i + n]) for i in range(0, len(call_raw_s), n)
        ),
        "measured_setup_s": setup_raw_s,
        "speed_factor": statistics.median(a / b for a, b in zip(call_s, call_raw_s)),
    }
    if "gate_margin" in res:
        detail["gate_margin"] = res["gate_margin"]
    return result, detail


def run_worker(workload: str, seed: int, stem: str, *extra: str) -> dict:
    out = WORK / f"{stem}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    code, _, _, _, err = spawn([*argv, *extra, "--out", str(out)], stem)
    if code != 0:
        raise RuntimeError(f"worker failed ({code}):\n{err}")
    return json.loads(out.read_text())


def run_sweep(seed: int, deadline: float) -> tuple[dict, dict]:
    """solver-sweep: one warmed-up process, timed per query."""
    import_s, import_raw_s = setup_time(checks.HostGauge(checks.process_probe))
    seconds = max(deadline - time.perf_counter(), 0.0)
    res = run_worker("solver-sweep", seed, "sweep", "--seconds", repr(seconds))
    attempted = res["attempted"]
    result = {
        "correct": res["deterministic"],
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": {
            "wall_s": statistics.median(res["round_s"]),
            "setup_s": import_s + res["warmup_s"] * res["warmup_factor"],
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": 1.0 - res["failed"] / attempted,
            "answered_ratio": res["answered"] / attempted,
            "ops_per_s": res["point_queries"] / res["point_busy_s"],
            "call_p50_s": res["call_p50_s"],
        },
    }
    detail = {
        "rounds": len(res["round_s"]),
        "failed_ratio": res["failed"] / attempted,
        "measured_wall_s": statistics.median(res["round_raw_s"]),
        "measured_setup_s": import_raw_s + res["warmup_s"],
        "speed_factor": res["speed_factor"],
        "refused_ratio": res["refused"] / attempted,
        "point_queries": res["point_queries"],
        "point_p50_us": res["point_p50_us"],
        "point_p99_us": res["point_p99_us"],
        "sweep_p50_ms": res["sweep_p50_ms"],
        "sweep_share": res["sweep_busy_s"] / (res["sweep_busy_s"] + res["point_busy_s"]),
    }
    return result, detail


# ---------------------------------------------------------------------------
# traced run


def import_times() -> dict[str, float]:
    """Medians over fresh processes of ``python -X importtime -c 'import statesep'``.

    ``total`` is the cumulative time of the statesep import; ``scipy`` and
    ``numpy`` sum the self time of every module of that package, so each
    counts only its own code wherever it was imported from.
    """
    probes = []
    for i in range(IMPORTTIME_PROBES):
        code, _, _, _, err = spawn([sys.executable, "-X", "importtime", "-c", "import statesep"], f"importtime{i}")
        if code != 0:
            raise RuntimeError(f"import statesep failed:\n{err}")
        totals = {"total": 0.0, "scipy": 0.0, "numpy": 0.0}
        for line in err.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, cum_us, name = (f.strip() for f in line[len("import time:") :].split("|"))
            if name == "statesep":
                totals["total"] = int(cum_us) / 1e6
            root = name.split(".", 1)[0]
            if root in ("scipy", "numpy"):
                totals[root] += int(self_us) / 1e6
        probes.append(totals)
    return {k: statistics.median(p[k] for p in probes) for k in probes[0]}


def run_trace(workload: str, seed: int) -> dict:
    imports = import_times()
    traced = run_worker(workload, seed, "traced", "--trace-rounds", str(TRACE_ROUNDS[workload]))
    spans = traced["spans"]

    def span(name: str) -> dict:
        return spans.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "p50_s": 0.0, "errors": {}, "work": 0})

    m: dict[str, tuple[float, str]] = {
        "import.total_s": (imports["total"], "s"),
        "import.scipy_s": (imports["scipy"], "s"),
        "import.numpy_s": (imports["numpy"], "s"),
        "cli.main.calls": (span("cli.main")["calls"], "count"),
        "cli.main.self_s": (span("cli.main")["self_s"], "s"),
    }
    for fn in checks.SOLVERS:
        row = span(f"solvers.{fn}")
        numeric = row["errors"].get("NumericError", 0)
        m[f"solvers.{fn}.calls"] = (row["calls"], "count")
        m[f"solvers.{fn}.busy_s"] = (row["busy_s"], "s")
        m[f"solvers.{fn}.p50_us"] = (row["p50_s"] * 1e6, "us")
        m[f"solvers.{fn}.numeric_error"] = (numeric, "count")
        m[f"solvers.{fn}.failed"] = (sum(row["errors"].values()) - numeric, "count")
    row = span("oracle.oracle_qmin")
    m["oracle.oracle_qmin.calls"] = (row["calls"], "count")
    m["oracle.oracle_qmin.busy_s"] = (row["busy_s"], "s")
    m["oracle.oracle_qmin.p50_ms"] = (row["p50_s"] * 1e3, "ms")
    for fn in ("simulate", "certify_separation"):
        row = span(f"optics.{fn}")
        m[f"optics.{fn}.calls"] = (row["calls"], "count")
        m[f"optics.{fn}.busy_s"] = (row["busy_s"], "s")
        m[f"optics.{fn}.shots"] = (row["work"], "count")
    m["conics.tangency_residuals.busy_s"] = (span("conics.tangency_residuals")["busy_s"], "s")
    m["core.unitarity_residual.calls"] = (span("core.unitarity_residual")["calls"], "count")
    for check in checks.VERIFY_CHECK_NAMES:
        row = span(f"verify.{check}")
        m[f"verify.{check}.busy_s"] = (row["busy_s"], "s")
        m[f"verify.{check}.self_s"] = (row["self_s"], "s")
    m["verify.gate_margin"] = (traced.get("gate_margin", 0.0), "ratio")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (traced["layer_self_s"].get(layer, 0.0), "s")
    covered = sum(traced["layer_self_s"].values())
    m["trace.wall_s"] = (traced["traced_wall_s"], "s")
    m["trace.untraced_wall_s"] = (traced["untraced_wall_s"], "s")
    m["trace.overhead_s"] = (traced["traced_wall_s"] - traced["untraced_wall_s"], "s")
    m["trace.unattributed_s"] = (traced["traced_wall_s"] - covered, "s")
    return {
        "correct": traced["deterministic"],
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in m.items()},
    }


# ---------------------------------------------------------------------------
# command line


def environment() -> dict:
    """Versions and machine facts recorded with every run."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit or "unknown (not a git checkout)",
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="statesep benchmark")
    ap.add_argument("--workload", required=True, choices=checks.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the run, set-up included")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.perf_counter() + args.seconds
    if not (SRC / "statesep" / "__init__.py").is_file():
        print(f"perfbench: no statesep sources under {SRC}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    WORK.mkdir(exist_ok=True)
    print(json.dumps({"environment": environment()}), flush=True)
    # One CPU for this process, its host probes and every child it starts, so
    # that a probe gauges the speed of the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.trace:
        result = run_trace(args.workload, args.seed)
    else:
        if args.workload == "solver-sweep":
            result, detail = run_sweep(args.seed, deadline)
        else:
            result, detail = run_cli(args.workload, args.seed, deadline)
        print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}), flush=True)
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

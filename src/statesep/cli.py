"""Command-line front end emitting curve data as CSV or JSON.

One subcommand per question the solvers answer:

* ``ud``       -- discrimination cost against the prior, at fixed s.
* ``qmin``     -- minimum failure probability against the prior, at fixed
                  (s, s').
* ``maxsep``   -- reachable final overlap against the initial overlap, at a
                  fixed budget (with the full-separation breakpoint as an
                  explicit row).
* ``tradeoff`` -- final overlap against failure budget, at fixed s.
* ``optics``   -- build, run and certify the linear-optics device.
* ``verify``   -- the release-gate property suite.

Output is byte-stable for fixed flags and seed: CSV uses 17 significant
digits, '.' decimals, LF line endings and a frozen header; JSON wraps the
same rows in {"meta": ..., "rows": [...]}.  Exit codes: 0 success, 2 usage
error, 3 numeric failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from . import __version__, solvers
from .core import DomainError, NumericError, OverlapSpec, Priors

__all__ = ["RunConfig", "main"]

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_NUMERIC = 3
_EXIT_VERIFY = 4


@dataclass(frozen=True)
class RunConfig:
    """Validated arguments of one CLI invocation."""

    command: str
    s: float | None = None
    s_prime: float | None = None
    eta1: float | None = None
    q_max: float | None = None
    samples: int = 512
    shots: int = 1_000_000
    seed: int = 12345
    format: str = "csv"
    output: str | None = None


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_cell(value):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return None
    return value


def _emit_rows(cfg: RunConfig, header: list[str], rows: list[tuple], params: dict) -> str:
    if cfg.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    doc = {
        "meta": {
            "command": cfg.command,
            "params": params,
            "seed": cfg.seed,
            "version": __version__,
        },
        "rows": [
            {name: _json_cell(value) for name, value in zip(header, row)} for row in rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _write(cfg: RunConfig, text: str) -> None:
    if cfg.output is None:
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_ud(cfg: RunConfig) -> str:
    rows = []
    for eta1 in solvers._linspace(0.0, 1.0, cfg.samples):
        pr = Priors.of(eta1)
        q = float(solvers.q_ud(pr, cfg.s))
        pt = solvers.ud_tangency_point(pr, cfg.s)
        rows.append((eta1, q, pt.q1, pt.q2))
    return _emit_rows(cfg, ["eta1", "q_ud", "q1", "q2"], rows, {"s": cfg.s})


def cmd_qmin(cfg: RunConfig) -> str:
    params = {"s": cfg.s, "s_prime": cfg.s_prime}
    header = ["t", "eta1", "q_min", "q1", "q2"]
    rows: list[tuple] = []
    if cfg.s_prime == cfg.s:
        for eta1 in solvers._linspace(0.5, 0.0, cfg.samples):
            rows.append((None, eta1, 0.0, 0.0, 0.0))
    elif cfg.s_prime == 0.0:
        # Full separation: the discrimination closed form is the curve.
        for eta1 in solvers._linspace(0.5, 0.0, cfg.samples):
            pr = Priors.of(eta1)
            pt = solvers.ud_tangency_point(pr, cfg.s)
            rows.append((None, eta1, float(solvers.q_ud(pr, cfg.s)), pt.q1, pt.q2))
    else:
        ov = OverlapSpec(cfg.s, cfg.s_prime)
        for smp in solvers.qmin_curve(ov, cfg.samples):
            rows.append((smp.t, smp.eta1, smp.q_min, smp.point.q1, smp.point.q2))
    return _emit_rows(cfg, header, rows, params)


def cmd_maxsep(cfg: RunConfig) -> str:
    pr = Priors.of(cfg.eta1)
    s_cr = solvers.critical_overlap(pr, cfg.q_max)
    grid = solvers._linspace(0.0, 1.0, cfg.samples)
    if 0.0 < s_cr < 1.0:
        grid.append(s_cr)  # breakpoint where full separation stops fitting
    rows = []
    for s in sorted(set(grid)):
        if s == 0.0:
            sp = 0.0
        elif s == 1.0:
            sp = 1.0 if cfg.q_max < 1.0 else 0.0
        else:
            sp, _ = solvers.max_separation(pr, s, cfg.q_max)
        rows.append((s, sp))
    return _emit_rows(
        cfg, ["s", "s_prime_min"], rows, {"eta1": cfg.eta1, "q_max": cfg.q_max}
    )


def cmd_tradeoff(cfg: RunConfig) -> str:
    pr = Priors.of(cfg.eta1)
    rows = [
        (float(smp.theta), float(smp.q), smp.s_prime)
        for smp in solvers.tradeoff_curve(pr, cfg.s, cfg.samples)
    ]
    return _emit_rows(cfg, ["theta", "q", "s_prime"], rows, {"eta1": cfg.eta1, "s": cfg.s})


def cmd_optics(cfg: RunConfig) -> tuple[str, bool]:
    from . import optics

    itf = optics.build_interferometer(cfg.s, cfg.s_prime)
    report = optics.certify_separation(itf, cfg.shots, cfg.seed)
    if cfg.format == "json":
        doc = {
            "meta": {
                "command": "optics",
                "params": {"s": cfg.s, "s_prime": cfg.s_prime, "shots": cfg.shots},
                "seed": cfg.seed,
                "version": __version__,
            },
            "report": report,
        }
        return json.dumps(doc, indent=2) + "\n", report["passed"]
    # CSV view: the report tree flattened to key,value rows.
    lines = ["key,value"]

    def _walk(prefix: str, node) -> None:
        if isinstance(node, dict):
            for key, val in node.items():
                _walk(f"{prefix}.{key}" if prefix else key, val)
        elif isinstance(node, list):
            for i, val in enumerate(node):
                _walk(f"{prefix}[{i}]", val)
        else:
            lines.append(f"{prefix},{_fmt(node)}")

    _walk("", report)
    return "\n".join(lines) + "\n", report["passed"]


def cmd_verify(cfg: RunConfig) -> tuple[str, bool]:
    from . import verify

    results = verify.run_all(oracle_grid=cfg.samples, shots=cfg.shots, seed=cfg.seed)
    rows = [
        (r.name, r.worst, r.tolerance, "pass" if r.passed else "FAIL") for r in results
    ]
    text = _emit_rows(
        cfg,
        ["check", "worst_deviation", "tolerance", "status"],
        rows,
        {"oracle_grid": cfg.samples, "shots": cfg.shots},
    )
    return text, all(r.passed for r in results)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statesep",
        description="Optimal two-state separation: curve data, certification and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, samples: int = 512) -> None:
        p.add_argument("--samples", type=int, default=samples, help="number of rows to emit")
        p.add_argument("--shots", type=int, default=1_000_000, help="photon-counting shots")
        p.add_argument("--seed", type=int, default=12345, help="RNG seed")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output path (default: stdout)")

    p = sub.add_parser("ud", help="discrimination cost vs prior at fixed s")
    p.add_argument("--s", type=float, required=True)
    add_common(p)

    p = sub.add_parser("qmin", help="minimum failure probability vs prior at fixed (s, s')")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--s-prime", type=float, required=True)
    add_common(p)

    p = sub.add_parser("maxsep", help="minimum final overlap vs s at a fixed budget")
    p.add_argument("--eta1", type=float, required=True)
    p.add_argument("--q-max", type=float, required=True)
    add_common(p)

    p = sub.add_parser("tradeoff", help="final overlap vs failure budget at fixed s")
    p.add_argument("--eta1", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    add_common(p)

    p = sub.add_parser("optics", help="build, simulate and certify the optical device")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--s-prime", type=float, required=True)
    add_common(p)

    p = sub.add_parser("verify", help="run the release-gate property suite")
    add_common(p, samples=10)

    return parser


def _validate(args: argparse.Namespace) -> RunConfig:
    def check_unit(name: str, value: float | None, hi_open: bool = False) -> None:
        if value is None:
            return
        if not 0.0 <= value <= 1.0 or (hi_open and value == 1.0):
            raise DomainError(f"--{name} must lie in [0, 1{')' if hi_open else ']'}, got {value!r}")

    s = getattr(args, "s", None)
    s_prime = getattr(args, "s_prime", None)
    eta1 = getattr(args, "eta1", None)
    q_max = getattr(args, "q_max", None)
    check_unit("s", s)
    check_unit("s-prime", s_prime)
    check_unit("eta1", eta1)
    check_unit("q-max", q_max, hi_open=True)
    if s is not None and s_prime is not None and s_prime > s:
        raise DomainError(f"--s-prime must not exceed --s ({s_prime!r} > {s!r})")
    if args.samples < 2:
        raise DomainError(f"--samples must be at least 2, got {args.samples!r}")
    if args.shots < 1:
        raise DomainError(f"--shots must be positive, got {args.shots!r}")
    return RunConfig(
        command=args.command,
        s=s,
        s_prime=s_prime,
        eta1=eta1,
        q_max=q_max,
        samples=args.samples,
        shots=args.shots,
        seed=args.seed,
        format=args.format,
        output=args.output,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else _EXIT_OK
    try:
        cfg = _validate(args)
        if cfg.command == "ud":
            _write(cfg, cmd_ud(cfg))
        elif cfg.command == "qmin":
            _write(cfg, cmd_qmin(cfg))
        elif cfg.command == "maxsep":
            _write(cfg, cmd_maxsep(cfg))
        elif cfg.command == "tradeoff":
            _write(cfg, cmd_tradeoff(cfg))
        elif cfg.command == "optics":
            text, passed = cmd_optics(cfg)
            _write(cfg, text)
            return _EXIT_OK if passed else _EXIT_VERIFY
        elif cfg.command == "verify":
            text, passed = cmd_verify(cfg)
            _write(cfg, text)
            return _EXIT_OK if passed else _EXIT_VERIFY
        return _EXIT_OK
    except DomainError as exc:
        print(f"statesep: invalid arguments: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except NumericError as exc:
        print(f"statesep: numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

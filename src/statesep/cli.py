"""Command-line front end emitting curve data as CSV or JSON.

One subcommand per question the solvers answer:

* ``ud``       -- discrimination cost against the prior, at fixed s.
* ``qmin``     -- minimum failure probability against the prior, at fixed
                  (s, s'): the curve sweep for 0 < s' < s, and ``qmin_at``'s
                  closed form at each prior for s' = 0 or s' = s.
* ``maxsep``   -- reachable final overlap against the initial overlap, at a
                  fixed budget (with the full-separation breakpoint as an
                  explicit row).
* ``tradeoff`` -- final overlap against failure budget, at fixed s.
* ``optics``   -- build, run and certify the linear-optics device.
* ``verify``   -- the release-gate property suite.

Every subcommand takes ``--seed``, ``--format`` and ``--output``.  The four
curve commands and ``verify`` take ``--samples`` (for ``verify``, the
per-axis oracle grid size); ``optics`` and ``verify`` take ``--shots``.
Any other flag is a usage error.  The curve commands draw no random
numbers; their ``--seed`` is only recorded in the JSON ``meta``.
``optics`` and ``verify`` key NumPy's Philox generator with ``--seed``
plus small offsets, so they refuse a seed whose keys leave [0, 2**128).

Output is byte-stable for fixed flags and seed: CSV uses 17 significant
digits, '.' decimals, LF line endings and a frozen header; JSON wraps the
same rows in {"meta": ..., "rows": [...]}.  Exit codes: 0 success, 2 usage
error, 3 numeric failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__, solvers
from .core import DomainError, NumericError, OverlapSpec, Priors

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_NUMERIC = 3
_EXIT_VERIFY = 4

# The largest offset a command adds to --seed for a Philox key, whose range
# is [0, 2**128): certify_separation keys its two runs with seed and
# seed + 1, and run_all hands seed + 9 to the optics statistics check.
_SEED_OFFSETS = {"optics": 1, "verify": 10}


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


def _meta(args: argparse.Namespace, params: dict) -> dict:
    return {"command": args.command, "params": params, "seed": args.seed, "version": __version__}


def _emit_rows(args: argparse.Namespace, header: list[str], rows: list[tuple], params: dict) -> str:
    if args.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    import json

    doc = {
        "meta": _meta(args, params),
        "rows": [
            {name: _json_cell(value) for name, value in zip(header, row)} for row in rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _write(args: argparse.Namespace, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands: each takes the validated arguments and returns (text, passed)


def cmd_ud(args: argparse.Namespace) -> tuple[str, bool]:
    rows = []
    for eta1 in solvers._linspace(0.0, 1.0, args.samples):
        pr = Priors.of(eta1)
        q = solvers.q_ud(pr, args.s)
        pt = solvers.ud_tangency_point(pr, args.s)
        rows.append((eta1, q, pt.q1, pt.q2))
    return _emit_rows(args, ["eta1", "q_ud", "q1", "q2"], rows, {"s": args.s}), True


def cmd_qmin(args: argparse.Namespace) -> tuple[str, bool]:
    params = {"s": args.s, "s_prime": args.s_prime}
    header = ["t", "eta1", "q_min", "q1", "q2"]
    ov = OverlapSpec(args.s, args.s_prime)
    rows: list[tuple] = []
    if 0.0 < ov.s_prime < ov.s:
        for smp in solvers.qmin_curve(ov, args.samples):
            rows.append((smp.t, smp.eta1, smp.q_min, smp.point.q1, smp.point.q2))
    else:
        # No curve to parametrize: qmin_at's closed forms give each row.
        for eta1 in solvers._linspace(0.5, 0.0, args.samples):
            q, pt = solvers.qmin_at(Priors.of(eta1), ov)
            rows.append((None, eta1, q, pt.q1, pt.q2))
    return _emit_rows(args, header, rows, params), True


def cmd_maxsep(args: argparse.Namespace) -> tuple[str, bool]:
    pr = Priors.of(args.eta1)
    s_cr = solvers.critical_overlap(pr, args.q_max)
    grid = solvers._linspace(0.0, 1.0, args.samples)
    if 0.0 < s_cr < 1.0:
        grid.append(s_cr)  # breakpoint where full separation stops fitting
    rows = []
    for s in sorted(set(grid)):
        if s == 0.0 or s == 1.0:
            # Orthogonal states stay orthogonal; identical ones stay
            # identical, since --q-max < 1 leaves them no budget to fail.
            sp = s
        else:
            sp, _ = solvers.max_separation(pr, s, args.q_max)
        rows.append((s, sp))
    params = {"eta1": args.eta1, "q_max": args.q_max}
    return _emit_rows(args, ["s", "s_prime_min"], rows, params), True


def cmd_tradeoff(args: argparse.Namespace) -> tuple[str, bool]:
    pr = Priors.of(args.eta1)
    rows = [
        (smp.theta, smp.q, smp.s_prime)
        for smp in solvers.tradeoff_curve(pr, args.s, args.samples)
    ]
    params = {"eta1": args.eta1, "s": args.s}
    return _emit_rows(args, ["theta", "q", "s_prime"], rows, params), True


def cmd_optics(args: argparse.Namespace) -> tuple[str, bool]:
    from . import optics

    itf = optics.build_interferometer(args.s, args.s_prime)
    report = optics.certify_separation(itf, args.shots, args.seed)
    if args.format == "json":
        import json

        params = {"s": args.s, "s_prime": args.s_prime, "shots": args.shots}
        doc = {"meta": _meta(args, params), "report": report}
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


def cmd_verify(args: argparse.Namespace) -> tuple[str, bool]:
    from . import verify

    results = verify.run_all(oracle_grid=args.samples, shots=args.shots, seed=args.seed)
    rows = [
        (r.name, r.worst, r.tolerance, "pass" if r.passed else "FAIL") for r in results
    ]
    text = _emit_rows(
        args,
        ["check", "worst_deviation", "tolerance", "status"],
        rows,
        {"oracle_grid": args.samples, "shots": args.shots},
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

    def add(name, run, summary, *required, samples: int | None = 512, shots=False) -> None:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        for flag in required:
            p.add_argument(flag, type=float, required=True)
        if samples is not None:
            what = "per-axis oracle grid size" if name == "verify" else "number of rows to emit"
            p.add_argument("--samples", type=int, default=samples, help=what)
        if shots:
            p.add_argument("--shots", type=int, default=1_000_000, help="photon-counting shots")
        p.add_argument("--seed", type=int, default=12345, help="RNG seed")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output path (default: stdout)")

    add("ud", cmd_ud, "discrimination cost vs prior at fixed s", "--s")
    add("qmin", cmd_qmin, "minimum failure probability vs prior at fixed (s, s')", "--s", "--s-prime")
    add("maxsep", cmd_maxsep, "minimum final overlap vs s at a fixed budget", "--eta1", "--q-max")
    add("tradeoff", cmd_tradeoff, "final overlap vs failure budget at fixed s", "--eta1", "--s")
    add("optics", cmd_optics, "build, simulate and certify the optical device", "--s", "--s-prime",
        samples=None, shots=True)
    add("verify", cmd_verify, "run the release-gate property suite", samples=10, shots=True)
    return parser


def _validate(args: argparse.Namespace) -> None:
    """Refuse values argparse lets through; flags a subcommand lacks are skipped."""

    def check_unit(name: str, value: float | None, hi_open: bool = False) -> None:
        if value is None:
            return
        if not 0.0 <= value <= 1.0 or (hi_open and value == 1.0):
            raise DomainError(f"--{name} must lie in [0, 1{')' if hi_open else ']'}, got {value!r}")

    s = getattr(args, "s", None)
    s_prime = getattr(args, "s_prime", None)
    check_unit("s", s)
    check_unit("s-prime", s_prime)
    check_unit("eta1", getattr(args, "eta1", None))
    check_unit("q-max", getattr(args, "q_max", None), hi_open=True)
    if s is not None and s_prime is not None and s_prime > s:
        raise DomainError(f"--s-prime must not exceed --s ({s_prime!r} > {s!r})")
    samples = getattr(args, "samples", None)
    if samples is not None and samples < 2:
        raise DomainError(f"--samples must be at least 2, got {samples!r}")
    shots = getattr(args, "shots", None)
    if shots is not None and shots < 1:
        raise DomainError(f"--shots must be positive, got {shots!r}")
    offset = _SEED_OFFSETS.get(args.command)
    if offset is not None and not 0 <= args.seed < 2**128 - offset:
        raise DomainError(f"--seed must lie in [0, 2**128 - {offset + 1}], got {args.seed!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else _EXIT_OK
    try:
        _validate(args)
        text, passed = args.run(args)
    except DomainError as exc:
        print(f"statesep: invalid arguments: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except NumericError as exc:
        print(f"statesep: numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    _write(args, text)
    return _EXIT_OK if passed else _EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver: validate | stack | quantize | admissibilize.

Exit codes: 0 success, 1 mathematical failure (nonzero residual or invalid
axioms), 2 input error.  All reports and certificates are deterministic
byte for byte for identical inputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from gammastack.liealg import classical_yang_baxter, theta2_shift, validate_gamma_lba
from gammastack.problemfile import (
    TRUNCATION_MIN,
    ProblemParseError,
    build_que_data,
    parse_problem,
    truncation_value,
)
from gammastack.quantum import (
    QuantumError,
    admissibilize,
    quantize_stack,
    validate_que_data,
)
from gammastack.stack import StackBuildError, verify_stack


def data_path(name: str) -> Path:
    """Path of a bundled problem file, in the package's `data` directory."""
    return Path(__file__).parent / "data" / name


def _load(path_str: str):
    path = Path(path_str)
    if not path.exists():
        bundled = data_path(path_str)
        if bundled.exists():
            path = bundled
        else:
            print(f"error: no such file: {path_str}", file=sys.stderr)
            raise SystemExit(2)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {path_str}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    try:
        return parse_problem(text)
    except ProblemParseError as exc:
        print(f"error: {path_str}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _out_error(out: str) -> str | None:
    """Why --out cannot be written, or None; checked before any computation."""
    if os.path.isdir(out):
        return "is a directory"
    if not os.path.isdir(os.path.dirname(out) or "."):
        return "parent directory does not exist"
    return None


def _emit(text: str, out: str | None):
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: {out}: {exc}", file=sys.stderr)
            raise SystemExit(2)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    problem = _load(args.file)
    issues = [str(i) for i in validate_gamma_lba(problem.G)]
    if problem.r is not None:
        cybe = classical_yang_baxter(problem.G.lba, problem.r)
        if cybe:
            issues.append("rmatrix: classical Yang-Baxter equation fails")
        for g in problem.G.group.elements():
            if theta2_shift(problem.G.theta[g], problem.r) != problem.G.f[g]:
                issues.append(
                    f"rmatrix: twist map differs from theta^2(r) - r at {problem.G.group.labels[g]}"
                )
    if problem.quantum is not None:
        try:
            data = build_que_data(problem)
            issues.extend(validate_que_data(data))
        except (QuantumError, ValueError) as exc:
            issues.append(f"quantum data: {exc}")
    if issues:
        for msg in sorted(issues):
            print(f"INVALID {msg}")
        return 1
    print("valid")
    return 0


def cmd_stack(args) -> int:
    problem = _load(args.file)
    bad = validate_gamma_lba(problem.G)
    if bad:
        print(f"INVALID {bad[0]}", file=sys.stderr)
        return 1
    n = args.degree if args.degree is not None else problem.degree
    try:
        cert = verify_stack(problem.G, n)
    except StackBuildError as exc:
        print(f"stack construction failed: {exc}", file=sys.stderr)
        return 1
    _emit(cert.to_json(problem.G.lba.labels), args.out)
    return 0 if cert.ok else 1


def _load_que(args):
    """The problem file and its Gamma-QUE data at --hbar/--pbw; exits 2 on a
    file without quantum data or data that cannot be built."""
    problem = _load(args.file)
    if problem.quantum is None:
        print("error: problem file carries no quantum data", file=sys.stderr)
        raise SystemExit(2)
    try:
        return problem, build_que_data(problem, M=args.hbar, D=args.pbw)
    except (QuantumError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def cmd_quantize(args) -> int:
    problem, data = _load_que(args)
    cert = quantize_stack(data)
    _emit(cert.to_json(problem.G.lba.labels), args.out)
    return 0 if cert.ok else 1


def cmd_admissibilize(args) -> int:
    problem, data = _load_que(args)
    glabels = problem.G.group.labels
    if args.target not in glabels:
        print(f"error: unknown group element {args.target!r}", file=sys.stderr)
        return 2
    g = glabels.index(args.target)
    try:
        b, fprime = admissibilize(data.ctx, data.F[g])
    except QuantumError as exc:
        print(f"admissibilization failed: {exc}", file=sys.stderr)
        return 1
    labels = problem.G.lba.labels
    lines = [
        f"gauge element b[{args.target}] = {b.format(labels)}",
        f"admissible twist F'[{args.target}] = {fprime.format(labels)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gammastack",
        description="Exact certificates for group Lie bialgebra stacks and their quantizations",
    )
    # accepted and ignored: no output depends on a seed, but bench/run.py passes one
    parser.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a problem file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("stack", help="build and verify the Poisson-Hopf stack certificate")
    p.add_argument("file")
    p.add_argument("--degree", "-N", default=None, help="truncation degree")
    p.add_argument("--out", default=None, help="certificate output path (default stdout)")
    p.set_defaults(fn=cmd_stack)

    p = sub.add_parser("quantize", help="build and verify the quantum stack certificate")
    p.add_argument("file")
    p.add_argument("--hbar", default=None, help="hbar truncation order")
    p.add_argument("--pbw", default=None, help="PBW degree bound")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("admissibilize", help="gauge one twist into admissible form")
    p.add_argument("file")
    p.add_argument("--target", required=True, help="group element label of F_{e,target}")
    p.add_argument("--hbar", default=None)
    p.add_argument("--pbw", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_admissibilize)

    args = parser.parse_args(argv)
    for name in TRUNCATION_MIN:
        value = getattr(args, name, None)
        if value is not None:
            try:
                setattr(args, name, truncation_value(name, value))
            except ValueError as exc:
                print(f"error: --{exc}", file=sys.stderr)
                return 2
    out = getattr(args, "out", None)
    reason = _out_error(out) if out else None
    if reason:
        print(f"error: {out}: {reason}", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

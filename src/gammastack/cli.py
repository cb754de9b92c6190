"""Command-line driver: validate | stack | quantize | admissibilize.

Exit codes: 0 success, 1 mathematical failure (nonzero residual or invalid
axioms), 2 input error.  All reports and certificates are deterministic
byte for byte for identical inputs.
"""

from __future__ import annotations

import argparse
import atexit
import gc
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

# Interpreter finalization runs one full garbage collection over every live
# container object, even with gc disabled; a CLI process that is about to end
# needs none of it.  Freezing at exit moves every object to the permanent
# generation, which no collection visits (atexit runs before that pass).
# Objects in reference cycles are then not finalized at exit; nothing here
# holds an OS resource in a cycle, and stdout is still flushed.
atexit.register(gc.freeze)


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


# the options whose value `truncation_value` reads
TRUNCATION_OPTIONS = {"-N", *(f"--{name}" for name in TRUNCATION_MIN)}


def _join_truncation_values(argv: list[str], options: dict[str, set[str]]) -> list[str]:
    """argv with each truncation option and a next token that starts with
    "-" but is no option of the command joined into `opt=value`, so that
    `-N -1_0` reaches `truncation_value` as `-N=-1_0` does; argparse would
    read such a token as an unknown option.  `options` maps each command to
    its option strings."""
    out: list[str] = []
    command = None
    for tok in argv:
        prev = out[-1] if out else None
        if (
            command is not None
            and prev in TRUNCATION_OPTIONS
            and tok.startswith("-")
            and tok.split("=", 1)[0] not in options[command]
        ):
            out[-1] = f"{prev}={tok}"
            continue
        if command is None and tok in options:
            command = tok
        out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gammastack",
        description="Exact certificates for group Lie bialgebra stacks and their quantizations",
    )
    # accepted and ignored: no output depends on a seed, but bench/run.py passes one
    parser.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)
    options: dict[str, set[str]] = {}  # each command's option strings

    def command(name: str, fn, help_text: str):
        """Add the command `name` with its file argument; returns the
        function that adds each further option and records its strings."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        p.set_defaults(fn=fn)
        options[name] = {"-h", "--help"}
        return lambda *flags, **kw: options[name].update(p.add_argument(*flags, **kw).option_strings)

    command("validate", cmd_validate, "validate a problem file")

    arg = command("stack", cmd_stack, "build and verify the Poisson-Hopf stack certificate")
    arg("--degree", "-N", default=None, help="truncation degree")
    arg("--out", default=None, help="certificate output path (default stdout)")

    arg = command("quantize", cmd_quantize, "build and verify the quantum stack certificate")
    arg("--hbar", default=None, help="hbar truncation order")
    arg("--pbw", default=None, help="PBW degree bound")
    arg("--out", default=None)

    arg = command("admissibilize", cmd_admissibilize, "gauge one twist into admissible form")
    arg("--target", required=True, help="group element label of F_{e,target}")
    arg("--hbar", default=None)
    arg("--pbw", default=None)
    arg("--out", default=None)

    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_truncation_values(argv, options))
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

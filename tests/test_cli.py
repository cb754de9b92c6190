from __future__ import annotations

import ast
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gammastack
from gammastack.cli import data_path, main

# the directory holding the imported package, so the child imports the same one
PACKAGE_ROOT = str(Path(gammastack.__file__).resolve().parent.parent)
ROOT = Path(__file__).resolve().parent.parent
# the certificate sha256 of every benchmark job, read only
REFERENCE = json.loads((ROOT / "bench" / "reference.json").read_text(encoding="utf-8"))
# the modules of the package and of tools/, which the import checks walk
SOURCE_MODULES = sorted(Path(gammastack.__file__).parent.glob("*.py")) + sorted(
    (ROOT / "tools").glob("*.py")
)


def run_python(*args) -> tuple[int, str, str]:
    """A fresh interpreter given `args`, importing the package under test."""
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(*args, module: str = "gammastack.cli") -> tuple[int, str, str]:
    return run_python("-m", module, *args)


def test_cli_import_loads_no_dataclasses_chain():
    """Records are NamedTuples or plain classes, so `import gammastack.cli`
    loads neither `dataclasses` nor what it imports: that chain was half of
    the start-up of every short CLI job."""
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, gammastack.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    assert run_python("-c", code) == (0, "\n", "")


def test_package_runs_on_its_own(tmp_path):
    """The package is what the CLI runs: a copy of `src/gammastack` alone,
    as the whole PYTHONPATH and run outside the repository, prints the
    golden certificates.  `import gammastack.cli` loads no module of
    `tools` (the generators and the serializer of the bundled files), even
    with it importable, and no `gammastack.builtin`."""
    site = tmp_path / "site"
    shutil.copytree(
        Path(gammastack.__file__).parent,
        site / "gammastack",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    work = tmp_path / "work"
    work.mkdir()

    def run(path: str, *args) -> tuple[int, bytes, bytes]:
        proc = subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            cwd=work,
            env={**os.environ, "PYTHONPATH": path},
        )
        return proc.returncode, proc.stdout, proc.stderr

    golden = ROOT / "tests" / "golden"
    for args, name in (
        (("stack", "axb.glb", "-N", "3"), "axb-stack-N3.json"),
        (("quantize", "trivial-que.glb"), "trivial-quantum.json"),
    ):
        assert run(str(site), "-m", "gammastack", *args) == (0, (golden / name).read_bytes(), b"")
    probe = (
        "import sys, gammastack.cli; print(gammastack.cli.__file__); "
        "print(*sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'tools' or m == 'gammastack.builtin'))"
    )
    tools_importable = os.pathsep.join([str(site), str(ROOT)])
    loaded = f"{site / 'gammastack' / 'cli.py'}\n\n".encode()
    assert run(tools_importable, "-c", probe) == (0, loaded, b"")


def test_validate_bundled_ok():
    for name in ("abelian", "axb", "sl2-weyl", "trivial-que", "abelian-que", "sl2-que"):
        code = main(["validate", str(data_path(f"{name}.glb"))])
        assert code == 0, name


def test_validate_accepts_bundled_shortnames():
    assert main(["validate", "axb.glb"]) == 0


def test_validate_corrupted_exits_1_naming_condition(tmp_path, capsys):
    text = data_path("axb.glb").read_text(encoding="utf-8")
    bad = tmp_path / "bad.glb"
    bad.write_text(text.replace("term -2 x y", "term -1 x y"), encoding="utf-8")
    code = main(["validate", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "condition-a" in out


SINGULAR_ACTION = """[algebra]
dim 3
labels x y z
cobracket y = 1 x y

[group]
labels e s
row e = e s
row s = s e

[action e]
map x = 1 x
map y = 1 y
map z = 0 z

[action s]
map x = 1 x
map y = 1 y
map z = 0 z
"""


def test_singular_action_at_the_identity_is_invalid(tmp_path):
    """theta_e = theta_s = the projection killing z is a homomorphism that
    preserves the (zero) bracket, but theta_e is not the identity: validate
    and stack exit 1 naming it."""
    bad = tmp_path / "singular.glb"
    bad.write_text(SINGULAR_ACTION, encoding="utf-8")
    line = "INVALID theta-homomorphism violated at (e): theta_e must be the identity\n"
    assert run_cli("validate", str(bad)) == (1, line, "")
    assert run_cli("stack", str(bad), "-N", "3") == (1, "", line)


def test_identity_checks_name_the_identity_by_its_label(tmp_path):
    """An identity labelled `id` with a nonzero twist is named `id`."""
    text = data_path("axb.glb").read_text(encoding="utf-8")
    for old, new in (
        ("labels e s", "labels id s"),
        ("row e = e s", "row id = id s"),
        ("row s = s e", "row s = s id"),
        ("[twist s]", "[twist id]\nterm 1 x y\n\n[twist s]"),
    ):
        text = text.replace(old, new)
    bad = tmp_path / "id.glb"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_cli("validate", str(bad))
    assert (code, err) == (1, "")
    assert "INVALID condition-b violated at (id): f_e must vanish" in out.splitlines()
    assert "(e)" not in out


def test_package_main_is_the_cli(tmp_path):
    """`python -m gammastack` prints the same bytes and exits with the same
    code as `python -m gammastack.cli`: 0, 1 and 2."""
    bad = tmp_path / "bad.glb"
    text = data_path("axb.glb").read_text(encoding="utf-8")
    bad.write_text(text.replace("term -2 x y", "term -1 x y"), encoding="utf-8")
    codes = []
    for args in (("stack", "axb.glb"), ("validate", str(bad)), ("validate", "missing.glb")):
        expected = run_cli(*args)
        assert run_cli(*args, module="gammastack") == expected
        codes.append(expected[0])
    assert codes == [0, 1, 2]


def test_parse_error_exit_2(tmp_path):
    f = tmp_path / "broken.glb"
    f.write_text("[algebra]\ndim 2\nlabels x y\nbracket x q = 1 x\n", encoding="utf-8")
    code, out, err = run_cli("validate", str(f))
    assert code == 2
    assert "line 4" in err


def test_ragged_entry_exit_2(tmp_path):
    """A bracket term without its label is an input error, not a traceback."""
    text = data_path("axb.glb").read_text(encoding="utf-8")
    bad = tmp_path / "ragged.glb"
    bad.write_text(text.replace("bracket x y = 1 x", "bracket x y = 1"), encoding="utf-8")
    code, _out, err = run_cli("validate", str(bad))
    assert code == 2
    assert "line 5" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, entry, replacement, line",
    [
        ("axb", "dim 2", "dim 2 7", 3),
        ("axb", "[action s]", "[action s e]", 13),
        ("axb", "term -2 x y", "term -2 x y y", 18),
        ("sl2-que", "term 1 e f", "term 1 e f f", 36),
        ("sl2-que", "term 1 -1/2 e|f", "term -1 -1/2 e|f", 76),
        ("sl2-que", "term 1 -1/2 e|f", "bogus 1 -1/2 e|f", 76),
        ("sl2-que", "term 2 -1/6 e|e f", "term 2 -1/6 e|f e", 58),
        ("sl2-que", "labels h e f", "labels h e e", 4),
        ("sl2-que", "labels e w w2 w3", "labels e w w2 w3 w3", 12),
        ("sl2-que", "row w = w w2 w3 e", "row w = w w2 w3", 14),
        ("sl2-que", "row e = e w w2 w3", "row e = e e e e", (13, 11)),
        ("axb", "dim 2\nlabels x y", "labels x y\ndim 3", (3, 4)),
        ("sl2-que", "labels h e f", "labels 1 e f", 4),
        ("sl2-que", "labels h e f", "labels h e f|g", 4),
        ("sl2-weyl", "bracket e f = 1 h", "bracket e f = 1 h\nbracket e e = 1 h", (7, 8)),
        ("sl2-weyl", "cobracket e = 1/2 h e", "cobracket e = 1/2 h e 1 e e", 8),
        ("axb", "[twist s]", "[twist e]\nterm 1 x x\n[twist s]", (17, 18)),
        ("axb", "dim 2\nlabels x y", "dim 0\nlabels", 3),
        ("axb", "dim 2", "dim -1", 3),
        ("axb", "cobracket y = 1 x y", "cobracket y = 1 x y\nlabels y x", (6, 7)),
        ("axb", "labels e s", "labels e s\nlabels s e", (9, 10)),
        ("axb", "dim 2", "dim 2\ndim 3", (3, 4)),
        ("axb", "row s = s e", "row s = s e\nrow s = e s", (11, 12)),
        ("axb", "degree 4", "degree 4\ndegree 5", (21, 22)),
        ("axb", "[twist s]", "[action s]\nmap x = -1 x\n\n[twist s]", 17),
        ("trivial-que", "[quantum-gauge e e]", "[quantum-morphism s y]\nterm 0 1 y y\n\n[quantum-gauge e e]", 47),
        ("axb", "labels e s", "labels e e,e", 9),
        ("axb", "dim 2", "dim \u0662", 3),
        ("axb", "term -2 x y", "term -2_0 x y", 18),
        ("sl2-que", "term 1 -1/2 e|f", "term 1 -1/\u0662 e|f", 76),
        ("sl2-que", "term 1 -1/2 e|f", "term 1_0 -1/2 e|f", 76),
    ],
    ids=["dim-trailing", "header-trailing", "twist-trailing", "rmatrix-trailing", "negative-hbar",
         "quantum-keyword", "word-not-pbw-ordered", "repeated-basis-label",
         "repeated-group-label", "short-row", "table-not-a-group", "dim-after-labels",
         "label-one", "label-with-bar", "diagonal-bracket", "diagonal-cobracket",
         "diagonal-twist", "dim-zero", "dim-negative", "repeated-algebra-labels",
         "repeated-group-labels", "repeated-dim", "repeated-row", "repeated-degree",
         "repeated-action-section", "repeated-quantum-section", "group-label-with-comma",
         "dim-non-ascii-digit", "scalar-underscore", "scalar-non-ascii-denominator",
         "hbar-power-underscore"],
)
def test_malformed_entry_exit_2(tmp_path, name, entry, replacement, line):
    """Extra tokens, negative hbar powers, a quantum line that does not start
    with `term`, a word out of PBW order (f e = e f - h in U(sl2), so it
    cannot be reordered silently), a repeated label and a group row of the
    wrong length exit 2 naming the line.  So do a basis label that a word or
    a tensor slot would misread ("1", "f|g"), a group label that a
    certificate key would misread ("e,e": keys join group labels with ","),
    an integer that is not ASCII digits with an optional sign ("1_0", an
    Arabic-Indic digit), an antisymmetric entry that pairs a label with
    itself (c and -c on one key) and a dim below 1.  A
    single-valued entry (dim, labels, a group row, a truncation) or a section
    header (name and arguments: a second [action s] would double theta_s, a
    second [quantum-morphism s y] add to the first) given twice is an error
    at its second line, not a silent re-index, override or sum.
    `line` is the line of `entry` (one or more lines), or (that line, the
    line reported) when the error is on another line: a table that is not
    a group names the [group] header, a label count that does not match dim
    names the later of the two, and an added line names itself."""
    edited, reported = line if isinstance(line, tuple) else (line, line)
    lines = data_path(f"{name}.glb").read_text(encoding="utf-8").splitlines()
    entry_lines = entry.split("\n")
    assert lines[edited - 1 : edited - 1 + len(entry_lines)] == entry_lines
    assert lines.index(entry_lines[0]) + 1 == edited
    lines[edited - 1 : edited - 1 + len(entry_lines)] = replacement.split("\n")
    bad = tmp_path / "bad.glb"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli("validate", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: line {reported}: ") and err.count("\n") == 1


def test_no_module_imports_random():
    """No certificate or bundled file depends on a random generator's state:
    no module of the package or of tools/ imports `random`."""
    for path in SOURCE_MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "random" for n in names), (path.name, node.lineno)


def test_no_module_imports_an_unused_name():
    """Every name a module of the package or of tools/ imports is used in
    that module, `__init__` too: no module re-exports a name."""
    for path in SOURCE_MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            else:
                continue
            unused = [name for name in bound if name not in used]
            assert not unused, (path.name, node.lineno, unused)


def test_missing_file_exit_2():
    code, _out, err = run_cli("validate", "/nonexistent/nope.glb")
    assert code == 2


def test_quantize_without_quantum_data_exit_2():
    code, _out, err = run_cli("quantize", str(data_path("axb.glb")))
    assert code == 2
    assert "no quantum data" in err


@pytest.mark.parametrize(
    "file, target, message",
    [
        ("axb.glb", "s", "error: problem file carries no quantum data\n"),
        ("abelian-que.glb", "nope", "error: unknown group element 'nope'\n"),
    ],
    ids=["no-quantum-data", "unknown-target"],
)
def test_admissibilize_input_errors_exit_2(file, target, message):
    """admissibilize shares the quantum loader of quantize: a file without
    quantum data and an unknown target each exit 2 with one stderr line."""
    code, out, err = run_cli("admissibilize", file, "--target", target)
    assert code == 2
    assert out == ""
    assert err == message


def test_validate_reports_rmatrix_mismatch(tmp_path):
    """An r-matrix that no longer fits the twist map: the classical
    Yang-Baxter failure, then the theta^2(r) - r mismatch at each element
    whose twist it changes, and exit 1."""
    lines = data_path("sl2-weyl.glb").read_text(encoding="utf-8").splitlines()
    lines[lines.index("term 1 e f")] = "term 2 e f"
    bad = tmp_path / "bad.glb"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli("validate", str(bad))
    assert code == 1
    assert err == ""
    assert out == (
        "INVALID rmatrix: classical Yang-Baxter equation fails\n"
        "INVALID rmatrix: twist map differs from theta^2(r) - r at w\n"
        "INVALID rmatrix: twist map differs from theta^2(r) - r at w3\n"
    )


def test_stack_certificate_written_and_valid(tmp_path):
    out = tmp_path / "cert.json"
    code = main(["stack", str(data_path("axb.glb")), "--degree", "3", "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["valid"] is True
    assert cert["kind"] == "poisson_stack_certificate"
    assert cert["schema_version"] == 1


def test_quantize_certificate(tmp_path):
    out = tmp_path / "qcert.json"
    code = main(
        ["quantize", str(data_path("abelian-que.glb")), "--hbar", "3", "--pbw", "4", "--out", str(out)]
    )
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["valid"] is True
    assert cert["kind"] == "quantum_stack_certificate"


@pytest.mark.parametrize(
    "entry, replacement, invalid",
    [
        ("bracket e f = 1 h", "bracket e f = 1 e", {
            "jacobi": ["(e,f,h)", "(e,h,f)", "(f,e,h)", "(f,h,e)", "(h,e,f)", "(h,f,e)"],
            "condition-c": ["(w)", "(w3)"],
        }),
        ("cobracket f = 1/2 h f", "cobracket f = 1/2 e f", {"co-jacobi": ["(f)"]}),
    ],
    ids=["jacobi", "co-jacobi"],
)
def test_validate_names_jacobi_co_jacobi_and_condition_c(tmp_path, entry, replacement, invalid):
    """One edited line of sl2-weyl.glb: [e, f] = e breaks the Jacobi
    identity and condition (c), delta(f) = 1/2 e^f the co-Jacobi identity.
    validate exits 1 and prints each violated tuple of these identities
    (with others the edit breaks too)."""
    lines = data_path("sl2-weyl.glb").read_text(encoding="utf-8").splitlines()
    lines[lines.index(entry)] = replacement
    bad = tmp_path / "bad.glb"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli("validate", str(bad))
    assert (code, err) == (1, "")
    for condition, where in invalid.items():
        named = [line for line in out.splitlines() if line.startswith(f"INVALID {condition} ")]
        assert named == [f"INVALID {condition} violated at {w}" for w in where]


def test_admissibilize_rejects_a_twist_outside_1_plus_hbar_u(tmp_path):
    """A constant e|f term in sl2-que's F[w] takes it out of 1 + hbar U:
    admissibilize exits 1 with one stderr line and prints nothing."""
    lines = data_path("sl2-que.glb").read_text(encoding="utf-8").splitlines()
    k = lines.index("[quantum-twist w]") + 1
    lines.insert(k, "term 0 1 e|f")
    bad = tmp_path / "bad.glb"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli("admissibilize", str(bad), "--target", "w")
    assert (code, out) == (1, "")
    assert err == "admissibilization failed: twist must lie in 1 + hbar U\n"


def test_admissibilize_command(capsys):
    code = main(["admissibilize", str(data_path("abelian-que.glb")), "--target", "s"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gauge element b[s]" in out
    assert "admissible twist F'[s]" in out


def test_certificates_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["stack", str(data_path("axb.glb")), "--degree", "3", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stack_sl2_weyl_via_cli(tmp_path):
    out = tmp_path / "sl2-cert.json"
    code = main(["stack", str(data_path("sl2-weyl.glb")), "--degree", "3", "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["valid"] is True
    assert len(cert["gauge_elements"]) == 64
    # pins PBW straightening in U(sl2*_gamma) through the Poisson brackets
    assert out.read_bytes() == (Path(__file__).parent / "golden" / "sl2-weyl-stack-N3.json").read_bytes()


def test_stack_on_invalid_problem_exit_1(tmp_path):
    text = data_path("axb.glb").read_text(encoding="utf-8")
    bad = tmp_path / "bad.glb"
    bad.write_text(text.replace("term -2 x y", "term -1 x y"), encoding="utf-8")
    code, _out, err = run_cli("stack", str(bad), "--degree", "3")
    assert code == 1
    assert "condition-a" in err


def test_quantize_truncation_overrides(tmp_path):
    """Down-truncation in hbar is a congruence (still valid); requesting more
    hbar orders than the file provides fails honestly with a recorded reason."""
    out2 = tmp_path / "m2.json"
    code = main(
        ["quantize", str(data_path("abelian-que.glb")), "--hbar", "2", "--pbw", "4", "--out", str(out2)]
    )
    assert code == 0
    assert json.loads(out2.read_text())["valid"] is True
    out4 = tmp_path / "m4.json"
    code = main(
        ["quantize", str(data_path("abelian-que.glb")), "--hbar", "4", "--pbw", "6", "--out", str(out4)]
    )
    assert code == 1
    cert = json.loads(out4.read_text())
    assert cert["valid"] is False
    assert cert["failures"]


def test_cli_process_exit_keeps_output(tmp_path):
    """`gammastack.cli` registers `gc.freeze` with atexit, so a CLI process
    skips the full collection of interpreter finalization.  The certificate
    still reaches stdout and `--out` byte for byte, and an atexit probe
    registered before the import (atexit runs last-in, first-out) sees the
    frozen objects."""
    golden = (ROOT / "tests" / "golden" / "axb-stack-N3.json").read_text(encoding="utf-8")
    assert run_cli("stack", "axb.glb", "-N", "3", module="gammastack") == (0, golden, "")
    out = tmp_path / "stack.json"
    assert run_cli("stack", "axb.glb", "-N", "3", "--out", str(out), module="gammastack") == (0, "", "")
    assert out.read_text(encoding="utf-8") == golden
    probe = (
        "import atexit, gc; "
        "atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
        "import gammastack.cli"
    )
    assert run_python("-c", probe) == (0, "True\n", "")


def test_golden_certificates_stable(tmp_path):
    """Certificate formats are pinned against golden files."""
    golden = Path(__file__).parent / "golden"
    out = tmp_path / "stack.json"
    assert main(["stack", str(data_path("axb.glb")), "--degree", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == (golden / "axb-stack-N3.json").read_bytes()
    out = tmp_path / "quantum.json"
    assert main(["quantize", str(data_path("trivial-que.glb")), "--out", str(out)]) == 0
    assert out.read_bytes() == (golden / "trivial-quantum.json").read_bytes()
    # pins straightening and the labeled product in U(sl2)[[hbar]] x| Gamma
    out = tmp_path / "sl2-quantum.json"
    assert main(["quantize", str(data_path("sl2-que.glb")), "--out", str(out)]) == 0
    assert out.read_bytes() == (golden / "sl2-que-quantum.json").read_bytes()


# each golden certificate and the benchmark job that produces the same bytes
GOLDEN_BENCH_JOBS = {
    "axb-stack-N3.json": "stack-axb-N3",
    "trivial-quantum.json": "quantize-trivial-que",
    "sl2-que-quantum.json": "quantize-sl2-que",
    "sl2-weyl-stack-N3.json": "stack-sl2-weyl",
}


def test_golden_certificates_match_bench_reference():
    """tests/golden and bench/reference.json pin the same certificate bytes."""
    golden = ROOT / "tests" / "golden"
    assert sorted(p.name for p in golden.glob("*.json")) == sorted(GOLDEN_BENCH_JOBS)
    for name, job in GOLDEN_BENCH_JOBS.items():
        digest = hashlib.sha256((golden / name).read_bytes()).hexdigest()
        assert digest == REFERENCE[job], name


def test_stack_sl2_weyl_N5_pinned():
    """Two steps past the sl2-weyl golden (N=3): the truncation cut of the
    slot calculus at degree 5, pinned by the stdout sha256."""
    code, out, _err = run_cli("stack", "sl2-weyl.glb", "-N", "5")
    assert code == 0
    assert (
        hashlib.sha256(out.encode("utf-8")).hexdigest()
        == "2700901c4a34dadf5f97ec0d8f407b58357a2e1739701d5e8117631b4ccabbdb"
    )


def test_stack_sl2_weyl_N6_pinned():
    """Three steps past the sl2-weyl golden (N=3), pinned by the stdout
    sha256.  Tuples that share their inputs share one evaluation, which
    keeps this degree within the fast suite."""
    code, out, _err = run_cli("stack", "sl2-weyl.glb", "-N", "6")
    assert code == 0
    assert (
        hashlib.sha256(out.encode("utf-8")).hexdigest()
        == "f0ee367fe45a94e16834f143c8508e037bbb4e500a2a733c004e76edb33823dd"
    )


@pytest.mark.parametrize(
    "job", sorted(j for j in REFERENCE if j.startswith(("stack-", "validate-")))
)
def test_formal_jobs_match_bench_reference(job):
    """The stdout of each `stack`/`validate` job of bench/reference.json has
    the sha256 recorded for it.  `stack-<file>` runs at the file's own
    truncation and `stack-<file>-N<n>` at n: sl2-weyl N=4 pins the degree-4
    solve of build_iso, axb N=6 BCH words up to length 5 and the gauge solve
    to degree 6."""
    cmd, _, target = job.partition("-")
    name, cut, n = target.rpartition("-N")
    args = (cmd, f"{name}.glb", "-N", n) if cut else (cmd, f"{target}.glb")
    code, out, _err = run_cli(*args)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REFERENCE[job]


@pytest.mark.parametrize(
    "args",
    [
        ["stack", "axb.glb", "-N", "-3"],
        ["stack", "axb.glb", "--degree", "1"],
        ["quantize", "trivial-que.glb", "--hbar", "0"],
        ["quantize", "sl2-que.glb", "--hbar", "1"],
        ["quantize", "trivial-que.glb", "--pbw", "0"],
        ["admissibilize", "abelian-que.glb", "--target", "s", "--hbar", "-1"],
        ["stack", "axb.glb", "-N", "0_3"],
        ["stack", "axb.glb", "-N", "\uff13"],
        ["quantize", "sl2-que.glb", "--hbar", "1_0"],
        ["quantize", "sl2-que.glb", "--pbw", "\u0662"],
        ["stack", "axb.glb", "-N", "-1_0"],
        ["quantize", "sl2-que.glb", "--hbar", "-0_2"],
        ["quantize", "sl2-que.glb", "--pbw", "-x"],
    ],
    ids=[
        "stack-N-negative",
        "stack-degree-1",
        "quantize-hbar-0",
        "quantize-hbar-1",
        "quantize-pbw-0",
        "admissibilize-hbar-negative",
        "stack-N-underscore",
        "stack-N-fullwidth-digit",
        "quantize-hbar-underscore",
        "quantize-pbw-arabic-indic-digit",
        "stack-N-dash-underscore",
        "quantize-hbar-dash-underscore",
        "quantize-pbw-dash-letter",
    ],
)
def test_truncation_below_minimum_exit_2(args):
    """A truncation option below its minimum, or not ASCII digits with an
    optional sign (the file's rule, `problemfile.truncation_value`), exits 2
    with one `error: --` line; so does a separate value that starts with
    "-", which argparse alone would read as an unknown option."""
    code, out, err = run_cli(*args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --") and err.count("\n") == 1


def test_separate_dash_value_reads_as_joined():
    """`-N -1_0` gives the one line that `-N=-1_0` gives, and `-N -1` still
    names the minimum."""
    joined = run_cli("stack", "axb.glb", "-N=-1_0")
    assert joined == (2, "", "error: --degree needs one integer value\n")
    assert run_cli("stack", "axb.glb", "-N", "-1_0") == joined
    assert run_cli("stack", "axb.glb", "-N", "-1") == (2, "", "error: --degree must be at least 2\n")


@pytest.mark.parametrize("entry", ["degree four", "degree", "hbar 0", "hbar 1", "degree 1_0", "degree \u0664"])
def test_malformed_truncation_entry_exit_2(tmp_path, entry):
    text = data_path("axb.glb").read_text(encoding="utf-8")
    bad = tmp_path / "bad.glb"
    bad.write_text(text.replace("degree 4", entry), encoding="utf-8")
    code, _out, err = run_cli("stack", str(bad))
    assert code == 2
    assert err.startswith(f"error: {bad}: line 21: ") and err.count("\n") == 1


def test_threads_option_removed():
    code, _out, err = run_cli("stack", "axb.glb", "--threads", "2")
    assert code == 2
    assert "unrecognized arguments: --threads" in err


def test_directory_input_exit_2(tmp_path):
    code, _out, err = run_cli("validate", str(tmp_path))
    assert code == 2
    assert err.startswith(f"error: {tmp_path}: ") and "Traceback" not in err


def test_non_utf8_input_exit_2(tmp_path):
    f = tmp_path / "latin1.glb"
    f.write_bytes("[algebra]\n# caf\xe9\n".encode("latin-1"))
    code, _out, err = run_cli("validate", str(f))
    assert code == 2
    assert err.startswith(f"error: {f}: ") and "utf-8" in err


@pytest.mark.parametrize(
    "args, work, target",
    [
        (["stack", "axb.glb"], "verify_stack", "missing"),
        (["quantize", "sl2-que.glb"], "quantize_stack", "directory"),
        (["admissibilize", "abelian-que.glb", "--target", "s"], "admissibilize", "missing"),
        (["admissibilize", "abelian-que.glb", "--target", "s"], "admissibilize", "directory"),
    ],
    ids=["stack-missing-parent", "quantize-directory", "admissibilize-missing-parent", "admissibilize-directory"],
)
def test_unusable_out_exit_2_before_computing(tmp_path, monkeypatch, capsys, args, work, target):
    """An --out whose parent is missing, or which is a directory, is refused
    before the command's computation starts."""
    import gammastack.cli as cli

    def not_called(*_args, **_kwargs):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.setattr(cli, work, not_called)
    out = tmp_path / "missing" / "cert.json" if target == "missing" else tmp_path
    assert main([*args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {out}: ") and captured.err.count("\n") == 1


def test_out_write_error_exit_2(tmp_path):
    """A write that fails after the computation exits 2, not with a traceback."""
    out = tmp_path / ("x" * 300)  # passes the up-front check, too long to create
    code, stdout, err = run_cli("admissibilize", "abelian-que.glb", "--target", "s", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: {out}: ") and "Traceback" not in err


# the quantum benchmark jobs no golden pins, with their command lines
QUANTUM_BENCH_JOBS = {
    "sweep-sl2-que-M3-D6": ("quantize", "sl2-que.glb", "--hbar", "3", "--pbw", "6"),
    "quantize-abelian-que": ("quantize", "abelian-que.glb"),
    "admissibilize-trivial-que": ("admissibilize", "trivial-que.glb", "--target", "s"),
    "admissibilize-abelian-que": ("admissibilize", "abelian-que.glb", "--target", "s"),
    "admissibilize-sl2-que": ("admissibilize", "sl2-que.glb", "--target", "w"),
}


@pytest.mark.parametrize("job", list(QUANTUM_BENCH_JOBS))
def test_quantum_jobs_match_bench_reference(job):
    """The stdout of each quantum job has the sha256 that bench/reference.json
    records for it (the sweep job is one step past the sl2-que golden)."""
    code, out, _err = run_cli(*QUANTUM_BENCH_JOBS[job])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REFERENCE[job]


def _trivial_que_duplicate_gauge(lines):
    assert lines[47] == "term 0 1 1\n"  # [quantum-gauge e e]: v = 1
    return lines[:48] + lines[47:]


def _trivial_que_second_twist(lines):
    k = lines.index("[quantum-twist s]\n") + 1
    assert lines[k] == "term 0 1 1|1\n"  # F_s = 1; a second term adds to it
    return lines[: k + 1] + lines[k:]


def _trivial_que_singular_morphism(lines):
    assert lines[44] == "term 0 1 y\n"  # [quantum-morphism s y]: i_s(y) = y
    return lines[:44] + ["term 0 1\n"] + lines[45:]


def _retune(section, old, new):
    """The edit replacing the first line `old` after the header `section`."""

    def edit(lines):
        start = lines.index(f"{section}\n")
        k = lines.index(f"{old}\n", start)
        assert all(line.strip() for line in lines[start:k])  # inside the section
        return lines[:k] + [f"{new}\n"] + lines[k + 1 :]

    return edit


def _trivial_que_not_invertible(lines):
    """i_s(y) = y + y^2 at hbar 2, pbw 8, where inverting i_s does not close."""
    for section, old, new in (
        ("[quantum-morphism s y]", "term 0 1 y", "term 0 1 y\nterm 0 1 y y"),
        ("[truncation]", "hbar 3", "hbar 2"),
        ("[truncation]", "pbw 4", "pbw 8"),
    ):
        lines = _retune(section, old, new)(lines)
    return lines


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("trivial-que", _trivial_que_duplicate_gauge, "v[e,e] not in 1 + hbar^2 U"),
        ("trivial-que", _trivial_que_second_twist, "F[s] not in 1 + hbar U^2"),
        ("trivial-que", _trivial_que_singular_morphism, "i[s] has a singular hbar^0 linear part"),
        ("trivial-que", _trivial_que_not_invertible, "i[s] is not invertible at truncation"),
        ("abelian-que", _retune("[quantum-coproduct x]", "term 2 1/2 y y|x", "term 2 -1/2 y y|x"),
         "coproduct not coassociative at generator 0"),
        ("abelian-que", _retune("[quantum-coproduct x]", "term 1 -1 y|x", "term 1 1 y|x"),
         "hbar^1 co-Poisson part wrong at generator 0"),
        ("trivial-que", _retune("[quantum-coproduct x]", "term 0 1 1|x", "term 0 -1 1|x"),
         "counit axiom fails at generator 0"),
        ("trivial-que", _retune("[quantum-coproduct x]", "term 0 1 1|x", "term 0 -1 1|x"),
         "coproduct not cocommutative mod hbar at generator 0"),
        ("trivial-que", _retune("[quantum-coproduct y]", "term 0 1 1|y", "term 0 -1 1|y"),
         "coproduct does not respect bracket at (0,1)"),
        ("abelian-que", _retune("[quantum-twist s]", "term 1 -1 x|y", "term 1 0 x|y"),
         "Alt of hbar^1 part of F[s] != twist tensor"),
        ("abelian-que", _retune("[quantum-twist s]", "term 2 1 y|x y", "term 2 -1 y|x y"),
         "twist equation fails for F[s]"),
        ("trivial-que", _retune("[quantum-morphism s y]", "term 0 1 y", "term 0 -1 y"),
         "i[s] not an algebra morphism at (0,1)"),
        ("sl2-que", _retune("[quantum-coproduct e]", "term 2 1/24 e|h", "term 2 -1/24 e|h"),
         "coproduct conjugation identity fails at (w, generator 1)"),
        ("trivial-que", _retune("[quantum-morphism s x]", "term 0 1 x", "term 0 2 x"),
         "morphism composition relation fails at (s,s)"),
        ("abelian-que", _retune("[quantum-morphism s y]", "term 0 1 y", "term 0 -1 y"),
         "gauge cocycle relation fails at (s,s,s)"),
        ("abelian-que", _retune("[quantum-gauge s s]", "term 2 -2 x x y", "term 2 -1 x x y"),
         "twist composition relation fails at (s,s)"),
    ],
    ids=[
        "duplicate-gauge", "second-twist", "singular-morphism", "not-invertible", "coassociativity",
        "co-poisson", "counit", "cocommutative", "bracket", "twist-alt", "twist-equation",
        "morphism", "conjugation", "morphism-composition", "gauge-cocycle", "twist-composition",
    ],
)
def test_unnormalised_quantum_data_is_reported_not_inverted(tmp_path, name, edit, message):
    """Quantum data that parses but fails a check of validate_que_data is an
    input-validation failure, with one case per message kind: validate names
    it, and quantize writes its exit-1 certificate.  The first four are not
    normalised (v = 2, F = 2, i_s(y) = 1, i_s(y) = y + y^2 at pbw 8), where
    inverting v, F or i would raise; each of the others changes one
    coefficient of a bundled file."""
    lines = data_path(f"{name}.glb").read_text(encoding="utf-8").splitlines(keepends=True)
    bad = tmp_path / "bad.glb"
    bad.write_text("".join(edit(lines)), encoding="utf-8")
    code, out, err = run_cli("validate", str(bad))
    assert (code, err) == (1, "")
    assert f"INVALID {message}\n" in out
    code, out, err = run_cli("quantize", str(bad))
    assert (code, err) == (1, "")
    cert = json.loads(out)
    assert not cert["valid"]
    assert f"input validation: {message}" in cert["failures"]


@pytest.mark.parametrize(
    "name, generators, digest",
    [
        ("trivial-que", ("x", "y"),
         "074c09b354d4eaf1f6095dd4a5236a7bf29d5c79e923e4c8586cfc8a9ec887ec"),
        ("sl2-que", ("h",), "af7dc8b40c0719446de9ab3f41f8c3ae38c123b77c9c71e274be890d46b4453f"),
    ],
    ids=["trivial-que", "sl2-que"],
)
def test_omitted_coproduct_section_is_primitive(tmp_path, name, generators, digest):
    """A generator with no [quantum-coproduct x] section is primitive: the
    bundled file without the sections of its primitive generators is valid
    and quantizes to the full file's certificate, byte for byte."""
    blocks = data_path(f"{name}.glb").read_text(encoding="utf-8").split("\n\n")
    omitted = {f"[quantum-coproduct {x}]" for x in generators}
    kept = [b for b in blocks if b.split("\n")[0] not in omitted]
    assert len(kept) == len(blocks) - len(omitted)
    short = tmp_path / f"{name}.glb"
    short.write_text("\n\n".join(kept), encoding="utf-8")
    assert run_cli("validate", str(short)) == (0, "valid\n", "")
    code, out, _err = run_cli("quantize", str(short))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert out == run_cli("quantize", f"{name}.glb")[1]


@pytest.mark.parametrize(
    "args, digest",
    [
        (("abelian-que.glb", "--hbar", "4", "--pbw", "6"),
         "4e1eb3caca5e19c30b9dde68a388e6c4cf6234b0271db61f41cb00bf02dcf01a"),
        (("sl2-que.glb", "--hbar", "4"),
         "05102dae06026fc5f37dfe52db86532e7851f4ee5b8b00edec4b047f2b1cc105"),
    ],
)
def test_quantize_failure_certificates_pinned(args, digest):
    """Past their generated hbar order the quantum files fail validation; the
    exit-1 certificate lists the validate_que_data messages (3 and 14) in
    report order, pinned byte for byte."""
    code, out, _err = run_cli("quantize", *args)
    assert code == 1
    assert json.loads(out)["failures"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

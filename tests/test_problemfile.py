from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gammastack.cli import data_path
from gammastack.liealg import validate_gamma_lba
from gammastack.problemfile import (
    Problem,
    ProblemParseError,
    build_que_data,
    parse_problem,
)
from gammastack.quantum import validate_que_data

from tools.bundled import bundled_problems, write_bundled_data
from tools.serialize import serialize_problem

F = Fraction


def test_bundled_files_match_generators(tmp_path):
    """Shipped .glb files are exactly what write_bundled_data writes."""
    written = write_bundled_data(tmp_path)
    assert written == [f"{name}.glb" for name in bundled_problems()]
    for name in written:
        shipped = data_path(name).read_text(encoding="utf-8")
        assert shipped == (tmp_path / name).read_text(encoding="utf-8"), f"{name} out of date"


def test_file_level_roundtrip():
    """serialize o parse is the identity on canonical files."""
    for name in ("abelian", "axb", "sl2-weyl", "trivial-que", "abelian-que", "sl2-que"):
        shipped = data_path(f"{name}.glb").read_text(encoding="utf-8")
        reparsed = parse_problem(shipped)
        again = serialize_problem(reparsed, header=f"bundled problem: {name}")
        assert again == shipped, name


def test_quantum_sections_hold_monomial_keys():
    """A quantum term's key is (hbar power, words), one PBW word per tensor
    slot, the key of `HElement` and the monomial of `SparseTensor`: the
    parsed sections are the element coefficients as they are, and they
    serialize back to the file."""
    text = data_path("sl2-que.glb").read_text(encoding="utf-8")
    problem = parse_problem(text)
    q = problem.quantum
    w = problem.G.group.labels.index("w")
    # [quantum-twist w]: term 1 -1/2 e|f and term 2 1/96 h|h h
    assert q.twists[w][(1, ((1,), (2,)))] == F(-1, 2)
    assert q.twists[w][(2, ((0,), (0, 0)))] == F(1, 96)
    slots = {"coproduct": 2, "twists": 2, "morphisms": 1, "gauges": 1}
    for name, n in slots.items():
        for coeffs in getattr(q, name).values():
            for a, words in coeffs:
                assert type(a) is int and len(words) == n
                assert all(type(i) is int for word in words for i in word)
    data = build_que_data(problem)
    assert {g: f.coeffs for g, f in data.F.items()} == q.twists
    assert serialize_problem(problem, header="bundled problem: sl2-que") == text


def test_object_level_roundtrip():
    for name, problem in bundled_problems().items():
        text = serialize_problem(problem)
        p2 = parse_problem(text)
        assert p2.G.lba.bracket == problem.G.lba.bracket
        assert p2.G.lba.cobracket == problem.G.lba.cobracket
        assert p2.G.theta == problem.G.theta
        assert p2.G.f == problem.G.f
        assert p2.r == problem.r
        assert (p2.degree, p2.hbar, p2.pbw) == (problem.degree, problem.hbar, problem.pbw)
        if problem.quantum is not None:
            assert p2.quantum is not None
            assert p2.quantum.coproduct == problem.quantum.coproduct
            assert p2.quantum.twists == problem.quantum.twists
            assert p2.quantum.morphisms == problem.quantum.morphisms
            assert p2.quantum.gauges == problem.quantum.gauges


def test_parsed_problems_validate():
    for name in ("abelian", "axb", "sl2-weyl"):
        problem = parse_problem(data_path(f"{name}.glb").read_text(encoding="utf-8"))
        assert validate_gamma_lba(problem.G) == []
    for name in ("trivial-que", "abelian-que", "sl2-que"):
        problem = parse_problem(data_path(f"{name}.glb").read_text(encoding="utf-8"))
        data = build_que_data(problem)
        assert validate_que_data(data) == []


def test_parse_error_reports_line():
    text = "[algebra]\ndim 2\nlabels x y\nbracket x q = 1 x\n"
    with pytest.raises(ProblemParseError) as exc:
        parse_problem(text)
    assert "line 4" in str(exc.value)
    assert exc.value.line == 4


def test_parse_error_bad_scalar():
    text = "[algebra]\ndim 2\nlabels x y\n[group]\nlabels e\nrow e = e\n[twist e]\nterm 1/0 x y\n"
    with pytest.raises(ProblemParseError) as exc:
        parse_problem(text)
    assert exc.value.line == 8


def test_parse_error_content_before_section():
    with pytest.raises(ProblemParseError) as exc:
        parse_problem("dim 2\n")
    assert exc.value.line == 1


def test_missing_group_row_names_the_element():
    """A missing row is reported at the [group] header, line 11."""
    lines = data_path("sl2-que.glb").read_text(encoding="utf-8").splitlines()
    lines.remove("row w2 = w2 w3 e w")
    assert lines.index("[group]") + 1 == 11
    with pytest.raises(ProblemParseError, match="no row for 'w2'") as exc:
        parse_problem("\n".join(lines) + "\n")
    assert exc.value.line == 11


def test_action_sums_a_repeated_term():
    """A repeated term in [action g] adds, as in every other section: the
    map x = 1 x -2 x is theta_s(x) = -x."""
    text = data_path("axb.glb").read_text(encoding="utf-8")
    problem = parse_problem(text.replace("map x = -1 x", "map x = 1 x -2 x"))
    assert problem.G.theta == parse_problem(text).G.theta
    assert problem.G.theta[1][0][0] == -1


def test_corrupted_twist_named_condition():
    """Mutating f_s in axb.glb is rejected naming the violated condition."""
    text = data_path("axb.glb").read_text(encoding="utf-8")
    mutated = text.replace("term -2 x y", "term -1 x y")
    problem = parse_problem(mutated)
    issues = validate_gamma_lba(problem.G)
    assert issues
    assert any(i.condition == "condition-a" for i in issues)


@pytest.mark.parametrize(
    "entry, message",
    [
        ("degree four", "degree needs one integer value"),
        ("degree", "degree needs one integer value"),
        ("degree 4 5", "degree needs one integer value"),
        ("degree 1", "degree must be at least 2"),
        ("degree -3", "degree must be at least 2"),
        ("hbar 0", "hbar must be at least 2"),
        ("hbar 1", "hbar must be at least 2"),
        ("pbw 0", "pbw must be at least 1"),
    ],
)
def test_parse_error_bad_truncation(entry, message):
    text = data_path("axb.glb").read_text(encoding="utf-8")
    lines = text.splitlines()
    ln = lines.index("degree 4") + 1
    lines[ln - 1] = entry
    with pytest.raises(ProblemParseError) as exc:
        parse_problem("\n".join(lines) + "\n")
    assert exc.value.line == ln
    assert message in str(exc.value)


@pytest.mark.parametrize(
    "name, entry, replacement, message",
    [
        ("axb", "dim 2", "dim two", "bad integer 'two'"),
        ("axb", "dim 2", "dim", "dim syntax"),
        ("axb", "row e = e s", "row e", "row syntax"),
        ("axb", "bracket x y = 1 x", "bracket x y = 1", "bracket syntax"),
        ("axb", "cobracket y = 1 x y", "cobracket y = 1 x", "cobracket syntax"),
        ("axb", "map x = -1 x", "map x = -1", "action syntax"),
        ("axb", "map x = -1 x", "map x", "action syntax"),
        ("axb", "term -2 x y", "term -2 x", "twist syntax"),
        ("axb", "[action s]", "[]", "empty section header"),
        ("axb", "[action s]", "[action]", "[action] needs 1 argument"),
        ("sl2-que", "term 1 e f", "term -2 e", "rmatrix syntax"),
        ("sl2-que", "term 1 -1/2 e|f", "term x 1 1|1", "bad integer 'x'"),
        ("sl2-que", "[quantum-gauge e w]", "[quantum-gauge e]", "needs 2 argument"),
        # trailing tokens are errors too, not silently dropped
        ("axb", "dim 2", "dim 2 7", "dim syntax"),
        ("axb", "[action s]", "[action s e]", "[action] needs 1 argument(s), got 2"),
        ("axb", "[group]", "[group s]", "[group] needs 0 argument(s), got 1"),
        ("axb", "term -2 x y", "term -2 x y y", "twist syntax"),
        ("sl2-que", "term 1 e f", "term 1 e f f", "rmatrix syntax"),
        ("sl2-que", "[quantum-gauge e w]", "[quantum-gauge e w s]", "needs 2 argument(s), got 3"),
        # a negative hbar power is not an element of U(g)[[hbar]]
        ("sl2-que", "term 1 -1/2 e|f", "term -1 -1/2 e|f", "hbar power must be >= 0, got -1"),
    ],
)
def test_parse_error_malformed_entry(name, entry, replacement, message):
    """Short or ragged entries and headers are parse errors naming the line."""
    lines = data_path(f"{name}.glb").read_text(encoding="utf-8").splitlines()
    ln = lines.index(entry) + 1
    lines[ln - 1] = replacement
    with pytest.raises(ProblemParseError) as exc:
        parse_problem("\n".join(lines) + "\n")
    assert exc.value.line == ln
    assert message in str(exc.value)


BUNDLED_LINES = {
    name: data_path(f"{name}.glb").read_text(encoding="utf-8").splitlines()
    for name in ("abelian", "axb", "sl2-weyl", "trivial-que", "abelian-que", "sl2-que")
}


@st.composite
def one_line_mutation(draw):
    """A bundled file with one line deleted, duplicated, or with one token
    replaced by another token of the same file."""
    lines = list(BUNDLED_LINES[draw(st.sampled_from(sorted(BUNDLED_LINES)))])
    i = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["delete", "duplicate", "replace"]))
    if action == "delete":
        del lines[i]
    elif action == "duplicate":
        lines.insert(i, lines[i])
    elif lines[i].split():
        toks = lines[i].split()
        toks[draw(st.integers(0, len(toks) - 1))] = draw(
            st.sampled_from(sorted({t for line in lines for t in line.split()}))
        )
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@given(one_line_mutation())
@settings(max_examples=500, deadline=None)
def test_parse_problem_fuzz_raises_only_parse_errors(text):
    """parse_problem returns a Problem or raises ProblemParseError, never
    any other exception, on one-line mutations of the bundled files."""
    try:
        problem = parse_problem(text)
    except ProblemParseError:
        return
    assert isinstance(problem, Problem)

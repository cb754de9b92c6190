"""Line-oriented text format for problems (.glb files).

Sections are [algebra], [group], [action g], [twist g], [rmatrix],
[truncation], and the quantum sections [quantum-coproduct x],
[quantum-twist g], [quantum-morphism g x], [quantum-gauge g h].  Scalars
are integers or p/q; monomial words are space-separated basis labels with
"1" for the empty word; tensor slots are separated by "|".  Parsing is
strict with line numbers in every error, and a section (name and
arguments) may appear once.  The package only reads problems; the
canonical writer of the bundled files is `tools/serialize.py`, outside it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from gammastack.liealg import FiniteGroup, GammaLieBialgebra, LieBialgebra, Tensor2
from gammastack.quantum import GammaQUEData, HElement, Key, QueContext

F = Fraction


# Smallest accepted truncations: a twist's leading term already has degree
# 2, and with hbar^1 = 0 the hbar^1 parts that validation matches with the
# classical data (the co-Poisson part of the coproduct, the Alt of each
# twist's hbar^1 part) would vanish.
TRUNCATION_MIN = {"degree": 2, "hbar": 2, "pbw": 1}


class ProblemParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class QuantumSections:
    """Raw quantum data in index form, independent of truncation context."""

    def __init__(self):
        self.coproduct: dict[int, dict[Key, Fraction]] = {}
        self.twists: dict[int, dict[Key, Fraction]] = {}
        self.morphisms: dict[tuple[int, int], dict[Key, Fraction]] = {}
        self.gauges: dict[tuple[int, int], dict[Key, Fraction]] = {}


class Problem(NamedTuple):
    G: GammaLieBialgebra
    r: Tensor2 | None
    quantum: QuantumSections | None
    degree: int
    hbar: int
    pbw: int


# an integer is ASCII digits with an optional sign: int() alone would also
# take "1_0" and non-ASCII digits such as "\u0662"
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_scalar(tok: str, line: int) -> Fraction:
    parts = tok.split("/")
    if len(parts) > 2 or not all(_INTEGER.fullmatch(p) for p in parts):
        raise ProblemParseError(f"bad scalar {tok!r}", line)
    try:
        return F(*map(int, parts))
    except ZeroDivisionError as exc:
        raise ProblemParseError(f"bad scalar {tok!r}: {exc}", line) from None


def _parse_int(tok: str, line: int) -> int:
    if not _INTEGER.fullmatch(tok):
        raise ProblemParseError(f"bad integer {tok!r}", line)
    return int(tok)


def truncation_value(name: str, tok: str) -> int:
    """The truncation `name` (a key of TRUNCATION_MIN) given as `tok`, for
    the file's [truncation] entries and the command line's options alike;
    ValueError names the rule that `tok` breaks."""
    if not _INTEGER.fullmatch(tok):
        raise ValueError(f"{name} needs one integer value")
    value, least = int(tok), TRUNCATION_MIN[name]
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    return value


def _groups(toks: list[str], width: int, syntax: str, line: int) -> list[list[str]]:
    """Split toks into consecutive groups of `width`; a ragged tail is an error."""
    if len(toks) % width:
        raise ProblemParseError(syntax, line)
    return [toks[t : t + width] for t in range(0, len(toks), width)]


def _distinct_labels(toks: list[str], line: int) -> list[str]:
    for t, tok in enumerate(toks):
        if tok in toks[:t]:
            raise ProblemParseError(f"repeated label {tok!r}", line)
    return toks


# each quantum section: its QuantumSections field, the kinds of its header
# arguments (g a group element, x a basis label) and the tensor slots of a term
QUANTUM_SECTIONS = {
    "quantum-coproduct": ("coproduct", "x", 2),
    "quantum-twist": ("twists", "g", 2),
    "quantum-morphism": ("morphisms", "gx", 1),
    "quantum-gauge": ("gauges", "gg", 1),
}

# header arguments each section needs, as in [action g] or [quantum-gauge g h]
SECTION_ARGS = {"action": 1, "twist": 1, **{k: len(v[1]) for k, v in QUANTUM_SECTIONS.items()}}


def parse_problem(text: str) -> Problem:
    lines = text.splitlines()
    section: tuple | None = None
    dim = None
    labels: list[str] = []
    label_index: dict[str, int] = {}
    bracket: dict = {}
    cobracket: dict = {}
    group_labels: list[str] = []
    group_index: dict[str, int] = {}
    rows: dict[int, list[int]] = {}
    actions: dict[int, dict[tuple[int, int], Fraction]] = {}
    twists: dict[int, Tensor2] = {}
    rmatrix: Tensor2 | None = None
    trunc = {"degree": 4, "hbar": 3, "pbw": 4}
    q = QuantumSections()
    seen_quantum = False
    single: set[str] = set()  # the section headers and single-valued entries seen so far

    def once(entry: str, ln: int):
        if entry in single:
            raise ProblemParseError(f"repeated {entry} entry", ln)
        single.add(entry)

    def glabel(tok: str, ln: int) -> int:
        if tok not in group_index:
            raise ProblemParseError(f"unknown group element {tok!r}", ln)
        return group_index[tok]

    def blabel(tok: str, ln: int) -> int:
        if tok not in label_index:
            raise ProblemParseError(f"unknown basis label {tok!r}", ln)
        return label_index[tok]

    def parse_word(tok: str, ln: int) -> tuple[int, ...]:
        tok = tok.strip()
        if tok == "1":
            return ()
        word = tuple(blabel(t, ln) for t in tok.split())
        if list(word) != sorted(word):
            # U(g) is not commutative: reordering a word changes the element
            raise ProblemParseError(f"word {tok!r} is not in PBW (label) order", ln)
        return word

    def parse_term_slots(parts: list[str], ln: int, slots: int) -> tuple[int, Fraction, tuple]:
        if len(parts) < 3 or parts[0] != "term":
            raise ProblemParseError("term syntax: term <hbar power> <coeff> <slots>", ln)
        a = _parse_int(parts[1], ln)
        if a < 0:
            raise ProblemParseError(f"hbar power must be >= 0, got {a}", ln)
        c = _parse_scalar(parts[2], ln)
        body = " ".join(parts[3:])
        slot_toks = body.split("|")
        if len(slot_toks) != slots:
            raise ProblemParseError(f"expected {slots} tensor slots", ln)
        words = tuple(parse_word(t, ln) for t in slot_toks)
        return a, c, words

    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ProblemParseError("unterminated section header", ln)
            head = line[1:-1].split()
            if not head:
                raise ProblemParseError("empty section header", ln)
            need = SECTION_ARGS.get(head[0], 0)
            if len(head) - 1 != need:
                raise ProblemParseError(
                    f"[{head[0]}] needs {need} argument(s), got {len(head) - 1}", ln
                )
            header = f"[{' '.join(head)}]"
            if header in single:
                raise ProblemParseError(f"repeated section {header}", ln)
            single.add(header)
            section = (head[0], tuple(head[1:]), ln)
            if head[0].startswith("quantum-"):
                seen_quantum = True
            continue
        if section is None:
            raise ProblemParseError("content before any section", ln)
        kind, args, _ = section
        parts = line.split()
        if kind == "algebra":
            if parts[0] == "dim":
                once("[algebra] dim", ln)
                if len(parts) != 2:
                    raise ProblemParseError("dim syntax: dim n", ln)
                dim = _parse_int(parts[1], ln)
                if dim < 1:
                    raise ProblemParseError(f"dim must be at least 1, got {dim}", ln)
                if labels and len(labels) != dim:
                    raise ProblemParseError("label count does not match dim", ln)
            elif parts[0] == "labels":
                once("[algebra] labels", ln)
                labels = _distinct_labels(parts[1:], ln)
                # a word "1" is the unit and "|" separates tensor slots
                for l in labels:
                    if l == "1" or "|" in l:
                        raise ProblemParseError(f"reserved basis label {l!r}", ln)
                label_index = {l: i for i, l in enumerate(labels)}
                if dim is not None and len(labels) != dim:
                    raise ProblemParseError("label count does not match dim", ln)
            elif parts[0] == "bracket":
                syntax = "bracket syntax: bracket a b = c1 l1 ..."
                if len(parts) < 5 or parts[3] != "=":
                    raise ProblemParseError(syntax, ln)
                i, j = blabel(parts[1], ln), blabel(parts[2], ln)
                if i == j:
                    raise ProblemParseError(f"label {parts[1]!r} paired with itself", ln)
                for c_tok, k_tok in _groups(parts[4:], 2, syntax, ln):
                    c = _parse_scalar(c_tok, ln)
                    k = blabel(k_tok, ln)
                    bracket[(i, j, k)] = bracket.get((i, j, k), F(0)) + c
                    bracket[(j, i, k)] = bracket.get((j, i, k), F(0)) - c
            elif parts[0] == "cobracket":
                syntax = "cobracket syntax: cobracket a = c1 l1 l2 ..."
                if len(parts) < 5 or parts[2] != "=":
                    raise ProblemParseError(syntax, ln)
                k = blabel(parts[1], ln)
                for c_tok, i_tok, j_tok in _groups(parts[3:], 3, syntax, ln):
                    c = _parse_scalar(c_tok, ln)
                    i, j = blabel(i_tok, ln), blabel(j_tok, ln)
                    if i == j:
                        raise ProblemParseError(f"label {i_tok!r} paired with itself", ln)
                    cobracket[(k, i, j)] = cobracket.get((k, i, j), F(0)) + c
                    cobracket[(k, j, i)] = cobracket.get((k, j, i), F(0)) - c
            else:
                raise ProblemParseError(f"unknown algebra entry {parts[0]!r}", ln)
        elif kind == "group":
            if parts[0] == "labels":
                once("[group] labels", ln)
                group_labels = _distinct_labels(parts[1:], ln)
                # certificate keys join group labels with ","
                for l in group_labels:
                    if "," in l:
                        raise ProblemParseError(f"reserved group label {l!r}", ln)
                group_index = {l: i for i, l in enumerate(group_labels)}
                group_line = section[2]
            elif parts[0] == "row":
                if len(parts) < 3 or parts[2] != "=":
                    raise ProblemParseError("row syntax: row g = g1 g2 ...", ln)
                g = glabel(parts[1], ln)
                once(f"[group] row {parts[1]}", ln)
                if len(parts) - 3 != len(group_labels):
                    raise ProblemParseError(f"row needs {len(group_labels)} entries", ln)
                rows[g] = [glabel(t, ln) for t in parts[3:]]
            else:
                raise ProblemParseError(f"unknown group entry {parts[0]!r}", ln)
        elif kind == "action":
            g = glabel(args[0], ln)
            syntax = "action syntax: map x = c1 l1 ..."
            if len(parts) < 3 or parts[0] != "map" or parts[2] != "=":
                raise ProblemParseError(syntax, ln)
            j = blabel(parts[1], ln)
            mat = actions.setdefault(g, {})
            for c_tok, i_tok in _groups(parts[3:], 2, syntax, ln):
                c = _parse_scalar(c_tok, ln)
                i = blabel(i_tok, ln)
                mat[(i, j)] = mat.get((i, j), F(0)) + c
        elif kind == "twist":
            g = glabel(args[0], ln)
            if len(parts) != 4 or parts[0] != "term":
                raise ProblemParseError("twist syntax: term c a b", ln)
            c = _parse_scalar(parts[1], ln)
            i, j = blabel(parts[2], ln), blabel(parts[3], ln)
            if i == j:
                raise ProblemParseError(f"label {parts[2]!r} paired with itself", ln)
            t = twists.setdefault(g, {})
            t[(i, j)] = t.get((i, j), F(0)) + c
            t[(j, i)] = t.get((j, i), F(0)) - c
        elif kind == "rmatrix":
            if len(parts) != 4 or parts[0] != "term":
                raise ProblemParseError("rmatrix syntax: term c a b", ln)
            c = _parse_scalar(parts[1], ln)
            i, j = blabel(parts[2], ln), blabel(parts[3], ln)
            rmatrix = rmatrix or {}
            rmatrix[(i, j)] = rmatrix.get((i, j), F(0)) + c
        elif kind == "truncation":
            if parts[0] not in trunc:
                raise ProblemParseError(f"unknown truncation entry {parts[0]!r}", ln)
            once(f"[truncation] {parts[0]}", ln)
            try:
                trunc[parts[0]] = truncation_value(parts[0], parts[1] if len(parts) == 2 else "")
            except ValueError as exc:
                raise ProblemParseError(str(exc), ln) from None
        elif kind in QUANTUM_SECTIONS:
            name, arg_kinds, slots = QUANTUM_SECTIONS[kind]
            idx = tuple((glabel if k == "g" else blabel)(t, ln) for k, t in zip(arg_kinds, args))
            a, c, words = parse_term_slots(parts, ln, slots)
            d = getattr(q, name).setdefault(idx if len(idx) > 1 else idx[0], {})
            d[(a, words)] = d.get((a, words), F(0)) + c
        else:
            raise ProblemParseError(f"unknown section [{kind}]", ln)

    if dim is None or not labels:
        raise ProblemParseError("missing [algebra] dim/labels", len(lines))
    if not group_labels:
        raise ProblemParseError("missing [group] section", len(lines))
    missing = [l for g, l in enumerate(group_labels) if g not in rows]
    if missing:
        raise ProblemParseError(f"[group] has no row for {missing[0]!r}", group_line)
    try:
        group = FiniteGroup(group_labels, [rows[g] for g in range(len(group_labels))])
    except ValueError as exc:
        raise ProblemParseError(f"[group] table is not a group: {exc}", group_line)
    try:
        lba = LieBialgebra(dim, labels, bracket, cobracket)
        theta = {}
        for g in range(len(group_labels)):
            entries = actions[g] if g in actions else {(i, i): F(1) for i in range(dim)}
            theta[g] = [[entries.get((i, j), F(0)) for j in range(dim)] for i in range(dim)]
        f = {g: twists.get(g, {}) for g in range(len(group_labels))}
        G = GammaLieBialgebra(lba, group, theta, f)
    except (KeyError, ValueError) as exc:
        raise ProblemParseError(f"structural error assembling problem: {exc}", len(lines))
    return Problem(
        G,
        rmatrix,
        q if seen_quantum else None,
        trunc["degree"],
        trunc["hbar"],
        trunc["pbw"],
    )


def build_que_data(problem: Problem, M: int | None = None, D: int | None = None) -> GammaQUEData:
    """Instantiate the quantum sections at a truncation (defaults from file)."""
    if problem.quantum is None:
        raise ValueError("problem file carries no quantum data")
    M = M if M is not None else problem.hbar
    D = D if D is not None else problem.pbw
    q = problem.quantum
    G = problem.G
    dim = G.lba.dim
    ctx = QueContext(G, M, D, q.coproduct)
    F_ = {}
    for g in G.group.elements():
        coeffs = q.twists.get(g)
        F_[g] = HElement(ctx, 2, coeffs) if coeffs is not None else ctx.unit(2)
    i_images = {}
    for g in G.group.elements():
        imgs = []
        for i in range(dim):
            coeffs = q.morphisms.get((g, i))
            imgs.append(HElement(ctx, 1, coeffs) if coeffs is not None else ctx.gen(i))
        i_images[g] = imgs
    v = {}
    for g in G.group.elements():
        for h in G.group.elements():
            coeffs = q.gauges.get((g, h))
            v[(g, h)] = HElement(ctx, 1, coeffs) if coeffs is not None else ctx.unit(1)
    return GammaQUEData(ctx, F_, i_images, v)

"""Canonical text of a problem (.glb), the writer of the bundled files.

`serialize_problem` writes what `gammastack.problemfile.parse_problem`
reads: scalars as integers or p/q, each section's entries in index order,
so a canonical file round-trips through parse/serialize byte for byte.
`quantum_sections_from_data` turns instantiated quantum data back into
the raw sections of a file.
"""

from __future__ import annotations

from fractions import Fraction

from gammastack.problemfile import QUANTUM_SECTIONS, Problem, QuantumSections
from gammastack.quantum import GammaQUEData, Key
from gammastack.tensors import word_str

F = Fraction


def _scalar_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _helement_lines(coeffs: dict[Key, Fraction], labels: list[str]) -> list[str]:
    out = []
    for (a, slots), c in sorted(coeffs.items()):
        body = "|".join(word_str(w, labels) for w in slots)
        out.append(f"term {a} {_scalar_str(c)} {body}")
    return out


def serialize_problem(problem: Problem, header: str | None = None) -> str:
    G = problem.G
    labels = G.lba.labels
    glabels = G.group.labels
    dim = G.lba.dim
    lines: list[str] = []
    if header:
        lines.append(f"# {header}")
    lines.append("[algebra]")
    lines.append(f"dim {dim}")
    lines.append("labels " + " ".join(labels))
    for i in range(dim):
        for j in range(i + 1, dim):
            terms = [
                (k, G.lba.bracket_coeff(i, j, k))
                for k in range(dim)
                if G.lba.bracket_coeff(i, j, k)
            ]
            if terms:
                body = " ".join(f"{_scalar_str(c)} {labels[k]}" for k, c in terms)
                lines.append(f"bracket {labels[i]} {labels[j]} = {body}")
    for k in range(dim):
        terms = []
        for i in range(dim):
            for j in range(i + 1, dim):
                c = G.lba.cobracket.get((k, i, j), F(0))
                if c:
                    terms.append(f"{_scalar_str(c)} {labels[i]} {labels[j]}")
        if terms:
            lines.append(f"cobracket {labels[k]} = " + " ".join(terms))
    lines.append("")
    lines.append("[group]")
    lines.append("labels " + " ".join(glabels))
    for g in G.group.elements():
        lines.append(
            f"row {glabels[g]} = " + " ".join(glabels[G.group.mul(g, h)] for h in G.group.elements())
        )
    ident = [[F(int(i == j)) for j in range(dim)] for i in range(dim)]
    for g in G.group.elements():
        if G.theta[g] == ident:
            continue
        lines.append("")
        lines.append(f"[action {glabels[g]}]")
        for j in range(dim):
            terms = [
                f"{_scalar_str(G.theta[g][i][j])} {labels[i]}"
                for i in range(dim)
                if G.theta[g][i][j]
            ]
            lines.append(f"map {labels[j]} = " + " ".join(terms))
    for g in G.group.elements():
        upper = [((i, j), c) for (i, j), c in sorted(G.f[g].items()) if i < j and c]
        if upper:
            lines.append("")
            lines.append(f"[twist {glabels[g]}]")
            for (i, j), c in upper:
                lines.append(f"term {_scalar_str(c)} {labels[i]} {labels[j]}")
    if problem.r:
        lines.append("")
        lines.append("[rmatrix]")
        for (i, j), c in sorted(problem.r.items()):
            if c:
                lines.append(f"term {_scalar_str(c)} {labels[i]} {labels[j]}")
    lines.append("")
    lines.append("[truncation]")
    lines.append(f"degree {problem.degree}")
    lines.append(f"hbar {problem.hbar}")
    lines.append(f"pbw {problem.pbw}")
    if problem.quantum is not None:
        for kind, (name, arg_kinds, _slots) in QUANTUM_SECTIONS.items():
            sections = getattr(problem.quantum, name)
            for idx in sorted(sections):
                toks = idx if isinstance(idx, tuple) else (idx,)
                names = [(glabels if k == "g" else labels)[t] for k, t in zip(arg_kinds, toks)]
                lines.append("")
                lines.append(f"[{kind} {' '.join(names)}]")
                lines.extend(_helement_lines(sections[idx], labels))
    return "\n".join(lines) + "\n"


def quantum_sections_from_data(data: GammaQUEData) -> QuantumSections:
    """Extract serializable raw sections from instantiated quantum data."""
    ctx = data.ctx
    q = QuantumSections()
    for i, img in enumerate(ctx.delta_images):
        q.coproduct[i] = dict(img.coeffs)
    for g, f in data.F.items():
        q.twists[g] = dict(f.coeffs)
    for g, imgs in data.i_images.items():
        for i, img in enumerate(imgs):
            q.morphisms[(g, i)] = dict(img.coeffs)
    for key, v in data.v.items():
        q.gauges[key] = dict(v.coeffs)
    return q

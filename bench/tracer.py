"""Span tracer for the gammastack benchmark.

The tracer wraps gammastack functions from outside the package.  Each
function is replaced wherever a caller looks it up: class attributes for
methods, and every gammastack module global that holds the same function
object for module-level functions (so ``stack.solve_coboundary``, imported
with ``from ... import``, is traced as well as ``cohomology.solve_coboundary``).

A span records name, start, end, parent span and whether it is the
outermost span of its name.  Spans stay in memory in flat arrays and are
written to one file per job when the job ends; :func:`summarize` derives
self times and the waste ratios from that file.  Tracing assumes one
thread, which holds because the benchmark never passes ``--threads``.
"""

from __future__ import annotations

import importlib
import pickle
import sys
import time
from array import array
from collections import Counter

# (defining module, function name); spans are named "<module>.<function>"
FUNCTIONS = [
    ("problemfile", "parse_problem"),
    ("problemfile", "build_que_data"),
    ("liealg", "validate_gamma_lba"),
    ("stack", "verify_stack"),
    ("stack", "lift_twist"),
    ("stack", "build_iso"),
    ("stack", "iso_residuals"),
    ("stack", "build_u"),
    ("stack", "solve_gauge"),
    ("cohomology", "solve_coboundary"),
    ("linalg", "solve_linear"),
    ("quantum", "validate_que_data"),
    ("quantum", "admissibilize"),
    ("quantum", "quantize_stack"),
    ("quantum", "build_semidirect"),
    ("quantum", "classical_limit_residuals"),
]

# (defining module, class, method names); dunder names lose their underscores
METHODS = [
    ("formal", "PairingContext", ["__init__", "poisson", "bch_star", "bch_star_dynkin",
                                  "ad_star", "insert", "coproduct"]),
    ("stack", "AlgebraMap", ["apply", "inverse"]),
    ("tensors", "SparseTensor", ["__add__", "__mul__"]),
    ("quantum", "QueContext", ["mul", "apply_endo", "inverse"]),
    ("quantum", "SemidirectBialgebra", ["product", "coproduct", "axiom_report"]),
]

# constructors called too often for a span each; only their calls are counted
COUNTED = [("tensors", "SparseTensor", "__init__"), ("quantum", "HElement", "__init__")]


def _method_label(name: str) -> str:
    return name.strip("_")


class Tracer:
    """Records spans and counters for the gammastack calls of one job."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        self.counters: Counter = Counter()
        self._open = [-1]
        self._depth: list[int] = []
        self._inverse_args: set = set()

    # -- wrapping ---------------------------------------------------------------

    def _span_wrapper(self, name: str, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        name_of, parent, start, end, outer = (
            self.name_of, self.parent, self.start, self.end, self.outer)
        open_spans, depth = self._open, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            name_of.append(nid)
            parent.append(open_spans[-1])
            outer.append(depth[nid] == 0)
            end.append(0.0)
            open_spans.append(idx)
            depth[nid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[nid] -= 1
                open_spans.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- layer statistics gathered at the call boundary ---------------------------

    def _poisson_before(self, args):
        ctx, a, b = args[0], args[1], args[2]
        hist_a = Counter(sum(len(s) for s in m) for m in a.coeffs)
        hist_b = Counter(sum(len(s) for s in m) for m in b.coeffs)
        trunc = ctx.trunc
        c = self.counters
        c["formal.PairingContext.poisson.pairs"] += len(a.coeffs) * len(b.coeffs)
        c["formal.PairingContext.poisson.useful_pairs"] += sum(
            na * nb
            for da, na in hist_a.items()
            for db, nb in hist_b.items()
            if da + db - 1 <= trunc
        )

    def _poisson_after(self, _args, result):
        self.counters["formal.PairingContext.poisson.terms_out"] += len(result.coeffs)

    def _solve_linear_before(self, args):
        system = args[0]
        self.counters["linalg.solve_linear.rows"] += len(system.rows)
        self.counters["linalg.solve_linear.cols"] += system.n_cols

    def _build_iso_before(self, args):
        self.counters["stack.build_iso.degrees"] += max(args[0].trunc - 1, 0)

    def _inverse_before(self, args):
        x = args[1]
        self._inverse_args.add((id(x.ctx), x.slots, frozenset(x.coeffs.items())))

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Patch the gammastack package in this process."""
        modules = {
            name: importlib.import_module(f"gammastack.{name}")
            for name in ("tensors", "linalg", "liealg", "formal", "cohomology",
                         "stack", "quantum", "problemfile", "cli")
        }
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "gammastack" or n.startswith("gammastack."))]
        hooks = {
            "stack.build_iso": (self._build_iso_before, None),
            "linalg.solve_linear": (self._solve_linear_before, None),
            "formal.PairingContext.poisson": (self._poisson_before, self._poisson_after),
            "quantum.QueContext.inverse": (self._inverse_before, None),
        }
        for mod, fname in FUNCTIONS:
            original = getattr(modules[mod], fname, None)
            if original is None:
                continue
            name = f"{mod}.{fname}"
            before, after = hooks.get(name, (None, None))
            wrapped = self._span_wrapper(name, original, before, after)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
        for mod, cls_name, methods in METHODS:
            cls = getattr(modules[mod], cls_name, None)
            for meth in methods:
                original = cls.__dict__.get(meth) if cls is not None else None
                if original is None:
                    continue
                name = f"{mod}.{cls_name}.{_method_label(meth)}"
                before, after = hooks.get(name, (None, None))
                setattr(cls, meth, self._span_wrapper(name, original, before, after))
        for mod, cls_name, meth in COUNTED:
            cls = getattr(modules[mod], cls_name, None)
            original = cls.__dict__.get(meth) if cls is not None else None
            if original is not None:
                name = f"{mod}.{cls_name}.{_method_label(meth)}.calls"
                self.counters[name] = 0
                setattr(cls, meth, self._count_wrapper(name, original))

    def dump(self, path: str, job: str, main: list[str]) -> None:
        """Write the spans and counters of this job to `path`."""
        self.counters["quantum.QueContext.inverse.distinct"] = len(self._inverse_args)
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "job": job,
                    "main": main,
                    "names": self.names,
                    "name_of": self.name_of,
                    "parent": self.parent,
                    "start": self.start,
                    "end": self.end,
                    "outer": self.outer,
                    "counters": dict(self.counters),
                },
                fh,
            )


def summarize(path: str) -> dict[str, float]:
    """Per-layer sums for one job from its span file.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of the spans under a main call add up to
    that call's duration (reported as ``trace.main_wall_s`` and
    ``trace.main_self_sum_s``).
    """
    with open(path, "rb") as fh:
        rec = pickle.load(fh)
    names, name_of, parent = rec["names"], rec["name_of"], rec["parent"]
    start, end, outer = rec["start"], rec["end"], rec["outer"]
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    out: Counter = Counter()
    for key, value in rec["counters"].items():
        out[key] += value
    main_ids = {names.index(m) for m in rec["main"] if m in names}
    root_main = [False] * n
    build_u_end: dict[int, float] = {}
    for i in range(n):
        name = names[name_of[i]]
        p = parent[i]
        self_s = dur[i] - child[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        if outer[i]:
            out[f"{name}.busy_s"] += dur[i]
        # a span inherits "under a main call" from its parent; spans are
        # stored in start order, so the parent is always seen first
        root_main[i] = (p < 0 and name_of[i] in main_ids) or (p >= 0 and root_main[p])
        if root_main[i]:
            out["trace.main_self_sum_s"] += self_s
            if p < 0:
                out["trace.main_wall_s"] += dur[i]
        if p >= 0 and names[name_of[p]] == "stack.build_iso" and name == "stack.iso_residuals":
            out["stack.build_iso.residual_evals"] += 1
        if p >= 0 and names[name_of[p]] == "stack.verify_stack" and name == "stack.build_u":
            build_u_end[p] = max(build_u_end.get(p, end[i]), end[i])
    for p, last in build_u_end.items():
        out["stack.verify_stack.residual_pass_s"] += end[p] - last
    return dict(out)

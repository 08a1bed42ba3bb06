"""Per-layer tracing of ncw from outside the package.

The tracer wraps public functions of each ncw module in place, records one
span per call (group, start, end, parent span, job id) in compact in-memory
arrays, and counts the cheap high-frequency operations (``Poly``
multiplication, addition and construction) without spans.  Nothing under
``src/`` knows about it: ``install`` patches every binding of a target
function, including the copies that ``from ... import`` made in other
modules, and ``uninstall`` puts every original back.

Self time of a span is its duration minus the durations of its direct child
spans.  ``aggregate`` turns the recorded spans and counters into the
per-layer metrics that ``run.py`` reports.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# span group -> the functions it wraps, as (module, qualified name)
SPANNED: dict[str, list[tuple[str, str]]] = {
    "cli.main": [("ncw.cli", "main")],
    "dsl.parse": [
        ("ncw.dsl", "parse_structure"),
        ("ncw.dsl", "parse_expression"),
        ("ncw.dsl", "parse_field"),
        ("ncw.dsl", "parse_one_form"),
    ],
    "dsl.build": [("ncw.dsl", "build_structure")],
    "structures.validate": [
        ("ncw.structures", "GalileiStructure.validate"),
        ("ncw.structures", "NCStructure.validate"),
        ("ncw.structures", "NCBStructure.validate"),
    ],
    "structures.induced": [
        ("ncw.structures", "NCBStructure.induced_nc"),
        ("ncw.structures", "assemble_connection"),
        ("ncw.structures", "geodesic_connection"),
        ("ncw.structures", "transverse_metric"),
    ],
    "tensors.lie": [
        ("ncw.tensors", "lie_derivative"),
        ("ncw.tensors", "lie_derivative_connection"),
        ("ncw.tensors", "raise_connection_transport"),
    ],
    "tensors.bracket": [
        ("ncw.tensors", "vector_bracket"),
        ("ncw.tensors", "directional"),
    ],
    "tensors.curvature": [
        ("ncw.tensors", "curvature"),
        ("ncw.tensors", "check_newtonian"),
    ],
    "solver.solve": [("ncw.solver", "solve_symmetries")],
    "solver.classify": [("ncw.solver", "classify")],
    "solver.structure_constants": [("ncw.solver", "structure_constants")],
    "linalg.eliminate": [
        ("ncw.linalg", "SparseEliminator.add_row"),
        ("ncw.linalg", "SparseEliminator.kernel"),
    ],
    "linalg.sparse_solve": [("ncw.linalg", "sparse_solve")],
    "linalg.dense": [
        ("ncw.linalg", "RationalMatrix.rref"),
        ("ncw.linalg", "nullspace"),
        ("ncw.linalg", "solve_inhomogeneous"),
        ("ncw.linalg", "inconsistency_certificate"),
    ],
    "extensions.f_solve": [
        ("ncw.extensions", "milne_f_split"),
        ("ncw.extensions", "galilei_f_solve"),
    ],
    "extensions.bracket": [
        ("ncw.extensions", "boost_for_coriolis"),
        ("ncw.extensions", "extended_cor_bracket"),
        ("ncw.extensions", "extended_mil_bracket"),
        ("ncw.extensions", "extended_gal_bracket"),
        ("ncw.extensions", "noncentrality_check"),
    ],
    "extensions.cocycle": [
        ("ncw.extensions", "gal_extension_cocycle"),
        ("ncw.extensions", "cocycle_triviality"),
    ],
    "gauge": [
        ("ncw.gauge", "infinitesimal_gauge"),
        ("ncw.gauge", "nc_projection_invariance_check"),
    ],
    "report.emit": [("ncw.report", "emit_report")],
}

GROUPS = list(SPANNED)
SOLVE_GROUP = GROUPS.index("solver.solve")

# counters, by index into Tracer.counts
COUNTERS = [
    "poly.mul.calls",
    "poly.mul.zero_operand",
    "poly.add.calls",
    "poly.init.calls",
    "linalg.rows_added",
    "linalg.rows_wasted",
    "solver.rows",
    "solver.ansatz_cols",
    "solver.rank",
    "solver.kernel_dim",
    "solver.poly.mul.calls",
    "solver.poly.mul.zero_operand",
    "report.bytes",
]
(
    MUL, MUL_ZERO, ADD, INIT, ROWS, WASTED,
    S_ROWS, S_COLS, S_RANK, S_KERNEL, S_MUL, S_MUL_ZERO, REPORT_BYTES,
) = range(len(COUNTERS))


def _resolve(module: str, qualname: str):
    """(owner, function) for a module-level function, or for a method given
    as Class.method."""
    mod = sys.modules[module]
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(mod, cls_name)
        return owner, owner.__dict__[attr]
    return mod, getattr(mod, qualname)


def _bindings(owner, fn) -> list[tuple[object, str]]:
    """Every place fn is looked up: all ncw module globals that hold it, or
    every class attribute that aliases it (``__rmul__ = __mul__``)."""
    if isinstance(owner, type):
        return [(owner, k) for k, v in list(owner.__dict__.items()) if v is fn]
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "ncw" or name.startswith("ncw.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                found.append((mod, attr))
    return found


class Tracer:
    """Spans and counters for one traced process; see the module docstring."""

    def __init__(self) -> None:
        self.group = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.job = -1
        self.counts = [0] * len(COUNTERS)
        self.job_counts: dict[int, list[int]] = {}
        self._mark = list(self.counts)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # patching

    def install(self) -> None:
        import ncw.cli  # noqa: F401  (loads every ncw module)
        from ncw.linalg import SparseEliminator
        from ncw.poly import Poly

        special = {
            SparseEliminator.__dict__["add_row"]: self._add_row_wrapper,
            SparseEliminator.__dict__["kernel"]: self._kernel_wrapper,
            sys.modules["ncw.solver"].solve_symmetries: self._solve_wrapper,
            sys.modules["ncw.report"].emit_report: self._emit_wrapper,
        }
        for gid, group in enumerate(GROUPS):
            for module, qualname in SPANNED[group]:
                owner, fn = _resolve(module, qualname)
                make = special.get(fn, self._span_wrapper)
                self._patch(owner, fn, make(gid, fn))
        self._patch_poly(Poly)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, fn, wrapper) -> None:
        for target, attr in _bindings(owner, fn):
            self._patches.append((target, attr, fn))
            setattr(target, attr, wrapper)

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every name currently patched."""
        return list(self._patches)

    # ------------------------------------------------------------------
    # wrappers

    def _span_wrapper(self, gid: int, fn):
        group, parent, job_of = self.group, self.parent, self.job_of
        start, end, stack = self.start, self.end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            group.append(gid)
            parent.append(stack[-1] if stack else -1)
            job_of.append(self.job)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return wrapper

    def _solver_parent(self) -> bool:
        stack = self.stack
        return bool(stack) and self.group[stack[-1]] == SOLVE_GROUP

    def _add_row_wrapper(self, gid: int, fn):
        inner = self._span_wrapper(gid, fn)
        counts = self.counts
        solver_parent = self._solver_parent

        @functools.wraps(fn)
        def add_row(elim, row):
            in_solver = solver_parent()
            before = len(elim.pivot_rows)
            result = inner(elim, row)
            counts[ROWS] += 1
            if len(elim.pivot_rows) == before:
                counts[WASTED] += 1
            if in_solver:
                counts[S_ROWS] += 1
            return result

        return add_row

    def _kernel_wrapper(self, gid: int, fn):
        inner = self._span_wrapper(gid, fn)
        counts = self.counts
        solver_parent = self._solver_parent

        @functools.wraps(fn)
        def kernel(elim):
            in_solver = solver_parent()
            result = inner(elim)
            if in_solver:
                counts[S_COLS] += elim.ncols
                counts[S_RANK] += len(elim.pivot_rows)
                counts[S_KERNEL] += len(result)
            return result

        return kernel

    def _solve_wrapper(self, gid: int, fn):
        inner = self._span_wrapper(gid, fn)
        counts = self.counts

        @functools.wraps(fn)
        def solve(*args, **kwargs):
            mul, zero = counts[MUL], counts[MUL_ZERO]
            try:
                return inner(*args, **kwargs)
            finally:
                counts[S_MUL] += counts[MUL] - mul
                counts[S_MUL_ZERO] += counts[MUL_ZERO] - zero

        return solve

    def _emit_wrapper(self, gid: int, fn):
        inner = self._span_wrapper(gid, fn)
        counts = self.counts

        @functools.wraps(fn)
        def emit(*args, **kwargs):
            text = inner(*args, **kwargs)
            counts[REPORT_BYTES] += len(text.encode("utf-8"))
            return text

        return emit

    def _patch_poly(self, poly_cls) -> None:
        counts = self.counts
        mul, add, init = (poly_cls.__dict__[k] for k in ("__mul__", "__add__", "__init__"))

        @functools.wraps(mul)
        def counted_mul(p, other):
            counts[MUL] += 1
            if not p.terms:
                counts[MUL_ZERO] += 1
            elif isinstance(other, poly_cls):
                if not other.terms:
                    counts[MUL_ZERO] += 1
            elif other == 0:
                counts[MUL_ZERO] += 1
            return mul(p, other)

        @functools.wraps(add)
        def counted_add(p, other):
            counts[ADD] += 1
            return add(p, other)

        @functools.wraps(init)
        def counted_init(p, *args, **kwargs):
            counts[INIT] += 1
            init(p, *args, **kwargs)

        self._patch(poly_cls, mul, counted_mul)
        self._patch(poly_cls, add, counted_add)
        self._patch(poly_cls, init, counted_init)

    # ------------------------------------------------------------------
    # jobs and output

    def begin_job(self, job: int) -> None:
        """Attribute the spans and counts that follow to ``job``."""
        self._close_job()
        self.job = job

    def end_jobs(self) -> None:
        self._close_job()
        self.job = -1

    def _close_job(self) -> None:
        if self.job >= 0:
            delta = [c - m for c, m in zip(self.counts, self._mark)]
            prev = self.job_counts.get(self.job)
            self.job_counts[self.job] = (
                delta if prev is None else [a + b for a, b in zip(prev, delta)]
            )
        self._mark = list(self.counts)

    def write(self, path: Path) -> None:
        """Write spans (binary arrays) and counters (JSON) next to each other."""
        with open(path.with_suffix(".spans"), "wb") as fh:
            for arr in (self.group, self.parent, self.job_of, self.start, self.end):
                arr.tofile(fh)
        meta = {
            "spans": len(self.start),
            "groups": GROUPS,
            "counters": COUNTERS,
            "counts": self.counts,
            "job_counts": {str(k): v for k, v in sorted(self.job_counts.items())},
        }
        path.with_suffix(".json").write_text(json.dumps(meta), encoding="utf-8")


def load(path: Path) -> dict:
    """Read what Tracer.write wrote."""
    meta = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    n = meta["spans"]
    arrays = [array("i"), array("i"), array("i"), array("d"), array("d")]
    with open(path.with_suffix(".spans"), "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    meta["group"], meta["parent"], meta["job_of"], meta["start"], meta["end"] = arrays
    return meta


def aggregate(trace: dict) -> dict[str, float]:
    """Per-layer metrics over one traced pass (see BENCHMARK.json)."""
    groups = trace["groups"]
    group, parent = trace["group"], trace["parent"]
    start, end = trace["start"], trace["end"]
    n = len(start)
    ng = len(groups)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    calls = [0] * ng
    self_s = [0.0] * ng
    outer_s = [0.0] * ng  # inclusive time, spans nested in their own group skipped
    resolve = 0
    gid = {g: k for k, g in enumerate(groups)}
    ext = {gid[g] for g in groups if g.startswith("extensions.")}
    solve = gid["solver.solve"]
    for i in range(n):
        g = group[i]
        calls[g] += 1
        self_s[g] += dur[i] - child[i]
        nested = False
        in_ext = False
        p = parent[i]
        while p >= 0:
            if group[p] == g:
                nested = True
            if group[p] in ext:
                in_ext = True
            p = parent[p]
        if not nested:
            outer_s[g] += dur[i]
        if g == solve and in_ext:
            resolve += 1

    def calls_of(name):
        return calls[gid[name]]

    def self_of(name):
        return self_s[gid[name]]

    def outer_of(name):
        return outer_s[gid[name]]

    c = dict(zip(trace["counters"], trace["counts"]))
    mul = c["poly.mul.calls"]
    rows = c["linalg.rows_added"]
    return {
        "poly.mul.calls": mul,
        "poly.mul.zero_operand_ratio": c["poly.mul.zero_operand"] / mul if mul else 0.0,
        "poly.add.calls": c["poly.add.calls"],
        "poly.init.calls": c["poly.init.calls"],
        "tensors.lie.calls": calls_of("tensors.lie"),
        "tensors.lie.self_s": self_of("tensors.lie"),
        "tensors.bracket.calls": calls_of("tensors.bracket"),
        "tensors.bracket.self_s": self_of("tensors.bracket"),
        "tensors.curvature.self_s": self_of("tensors.curvature"),
        "solver.assemble.self_s": self_of("solver.solve"),
        "solver.ansatz_cols": c["solver.ansatz_cols"],
        "solver.rows": c["solver.rows"],
        "solver.rank": c["solver.rank"],
        "solver.kernel_dim": c["solver.kernel_dim"],
        "solver.classify.calls": calls_of("solver.classify"),
        "solver.classify.s": outer_of("solver.classify"),
        "solver.structure_constants.s": outer_of("solver.structure_constants"),
        "linalg.rows_added": rows,
        "linalg.rows_wasted_ratio": c["linalg.rows_wasted"] / rows if rows else 0.0,
        "linalg.eliminate.s": outer_of("linalg.eliminate"),
        "linalg.sparse_solve.calls": calls_of("linalg.sparse_solve"),
        "linalg.sparse_solve.s": outer_of("linalg.sparse_solve"),
        "linalg.dense.s": outer_of("linalg.dense"),
        "extensions.f_solve.calls": calls_of("extensions.f_solve"),
        "extensions.f_solve.self_s": self_of("extensions.f_solve"),
        "extensions.bracket.self_s": self_of("extensions.bracket"),
        "extensions.resolve.calls": resolve,
        "extensions.cocycle.s": outer_of("extensions.cocycle"),
        "dsl.parse.self_s": self_of("dsl.parse"),
        "dsl.build.self_s": self_of("dsl.build"),
        "structures.validate.self_s": self_of("structures.validate"),
        "structures.induced.self_s": self_of("structures.induced"),
        "gauge.self_s": self_of("gauge"),
        "report.emit.self_s": self_of("report.emit"),
        "report.bytes": c["report.bytes"],
        "cli.main.self_s": self_of("cli.main"),
    }

"""Exact linear algebra over the rationals.

One Gaussian elimination, SparseEliminator: sparse rational rows absorbed
one at a time, pivoting on the least column index, so every kernel is the
canonical echelon basis.  It backs the large systems the symmetry solver
assembles, the positivity check of a Galilei structure, and the small dense
RationalMatrix that the cocycle system is posed on (rref, nullspace,
inhomogeneous solving and inconsistency certificates).

The solver's systems are mostly one-entry rows.  A pivot row {c: 1} marks
column c as known zero, and c is dropped from every later row before any
arithmetic; back substitution then walks only the multi-entry pivot rows.
The reduced echelon form is unique, so neither rule, nor the order rows
arrive in, can change a result.

Entries are canonical exact coefficients, as a Poly's are (``poly._q``):
an int when integral, else a Fraction with a denominator above 1.  A row
takes a multiple of a pivot row through the Poly terms' own sparse sum,
``poly._accumulate``, which keeps every entry canonical.  A new pivot row
is scaled to a leading 1 in the cheapest exact way: a lead of -1 negates
the row; any other int lead p divides each int entry in ints (``//``)
where p divides it and makes Fraction(v, p) where it does not; only a
Fraction lead takes a Fraction multiplication.  A
RationalMatrix and the right-hand sides are read to their sizes, and the
rows of sparse_solve entry by entry, as int and Fraction entries only
(``poly._exact_array``, ``poly._exact``); a float, a string or a bool is
refused, not approximated.  sparse_kernel and
SparseEliminator.add_row, the symmetry solver's hot path, take their rows
unchecked: their callers build them from canonical coefficients.

Determinants, adjugates and inverses come from one Faddeev-LeVerrier
recursion, which divides only by the integers 1..n, so it works over ints,
Fractions and Polys alike.  It keeps A and each M_k as rows of their
nonzero entries and multiplies only those, so a diagonal matrix costs n
products a step, not n^3.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, Iterable, Optional, Sequence

from .poly import Scalar, _accumulate, _check_size, _exact, _exact_array, _operands, _q

Vector = tuple[Scalar, ...]


class RationalMatrix:
    """Dense rows x cols matrix of exact rationals, on which
    cocycle_triviality poses its system."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence[object]]):
        _check_size("rows", rows, 0)
        _check_size("cols", cols, 0)
        self.rows = rows
        self.cols = cols
        self.entries: tuple[Vector, ...] = _exact_array("RationalMatrix", entries, rows, cols)

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[object]]) -> "RationalMatrix":
        rows = _exact_array("RationalMatrix", entries, None, None)
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def transpose(self) -> "RationalMatrix":
        data = [[self.entries[r][c] for r in range(self.rows)] for c in range(self.cols)]
        return RationalMatrix(self.cols, self.rows, data)

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns."""
        elim = SparseEliminator(self.cols)
        for row in _sparse_rows(self):
            elim.add_row(row)
        rows = elim.reduced_rows()
        pivots = tuple(sorted(rows))
        reduced = [[rows[p].get(c, 0) for c in range(self.cols)] for p in pivots]
        reduced += [[0] * self.cols] * (self.rows - len(pivots))
        return RationalMatrix(self.rows, self.cols, reduced), pivots


def nullspace(matrix: RationalMatrix) -> list[Vector]:
    """Canonical basis of the right kernel {v : Mv = 0}.

    The basis is in reduced echelon normal form: one vector per free column
    (ascending), carrying 1 in its own free column and 0 in every other free
    column, so the output is deterministic.
    """
    _operands("nullspace", (matrix, RationalMatrix))
    kernel = sparse_kernel(_sparse_rows(matrix), matrix.cols)
    return [_dense(v, matrix.cols) for v in kernel]


def solve_inhomogeneous(
    matrix: RationalMatrix, rhs: Sequence[object]
) -> Optional[tuple[Vector, list[Vector]]]:
    """Solve Mx = b exactly.

    Returns None when the system is inconsistent, otherwise one particular
    solution (free variables set to 0) together with the canonical kernel
    basis of M.
    """
    _operands("solve_inhomogeneous", (matrix, RationalMatrix))
    rhs = _exact_array("solve_inhomogeneous", rhs, matrix.rows)
    solution = sparse_solve(_sparse_rows(matrix), rhs, matrix.cols)
    if solution is None:
        return None
    particular, kernel = solution
    return tuple(particular), [_dense(v, matrix.cols) for v in kernel]


def inconsistency_certificate(
    matrix: RationalMatrix, rhs: Sequence[object]
) -> Optional[Vector]:
    """A row combination y with y.M = 0 but y.b != 0, if the system is inconsistent."""
    _operands("inconsistency_certificate", (matrix, RationalMatrix))
    vec = _exact_array("inconsistency_certificate", rhs, matrix.rows)
    for y in nullspace(matrix.transpose()):
        value = sum((a * b for a, b in zip(y, vec)), Fraction(0))
        if value != 0:
            return y
    return None


def _sparse_rows(matrix: RationalMatrix) -> list["SparseRow"]:
    return [{c: v for c, v in enumerate(row) if v} for row in matrix.entries]


def _dense(v: "SparseRow", ncols: int) -> Vector:
    return tuple(v.get(c, 0) for c in range(ncols))


def adjugate(a: Sequence[Sequence]) -> tuple[list[list], object]:
    """(adj A, det A) of a nonempty square matrix by the Faddeev-LeVerrier
    recursion

      M_1 = 1,  c_k = -tr(A M_k) / k,  M_{k+1} = A M_k + c_k 1,

    which divides only by integers, so the entries may be ints, Fractions or
    Polys: det A = (-1)^n c_n and adj A = (-1)^(n+1) M_n.  Scalars are kept
    canonical (``poly._q``), as a Poly keeps its coefficients, so an integer
    matrix, whose c_k and M_k are all integers, takes int arithmetic only.
    A and each M_k are walked by their nonzero entries only, so beyond the
    product by 0 that makes the entries' zero no product with a zero factor
    is taken, and a diagonal A costs n products a step: M_1 and most
    geometric A are sparse."""
    n = len(a)
    zero = a[0][0] * 0
    canon = _q if isinstance(zero, (int, Fraction)) else _unchanged
    zero = canon(zero)
    a_rows = [[(j, v) for j, v in enumerate(row) if v] for row in a]
    # M_k by rows of its nonzero entries, {column: entry}
    m: list[dict] = [{i: zero + 1} for i in range(n)]
    for k in range(1, n + 1):
        am = []
        for row in a_rows:
            out: dict = {}
            for j, v in row:
                for l, w in m[j].items():
                    out[l] = out[l] + v * w if l in out else v * w
            am.append({l: x for l, x in out.items() if x})
        c = canon(sum((row[i] for i, row in enumerate(am) if i in row), zero) * Fraction(-1, k))
        if k == n:
            break
        if c:
            for i, row in enumerate(am):
                if x := row.get(i, zero) + c:
                    row[i] = x
                else:
                    del row[i]
        m = am
    sign = (-1) ** n
    adj = [[canon(-sign * x) if (x := row.get(l)) else zero for l in range(n)] for row in m]
    return adj, canon(sign * c)


def _unchanged(x):
    """A Poly is canonical already."""
    return x


# ----------------------------------------------------------------------
# sparse eliminator (row dictionaries keyed by column index)

SparseRow = dict[int, Scalar]


class SparseEliminator:
    """Incremental Gaussian elimination over sparse rational rows.

    Rows are absorbed one at a time; a pivot row leads at the least column
    of its reduced row, with entry 1, so the reduced rows and the kernel
    are the canonical reduced row echelon form and echelon kernel basis.
    A row r that holds a pivot column c adds -r[c] times that pivot row:
    the pivot row's leading 1 cancels r's entry at c, and the sum deletes it.
    A one-entry row on a new column is a pivot row {c: 1} at once.  Such a
    row says x_c = 0: c is dropped from every later incoming row, and a
    pivot row already holding c keeps it until back substitution.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, SparseRow] = {}
        self._zero_cols: set[int] = set()

    def reduce(self, row: SparseRow) -> SparseRow:
        """The row less pivot-row multiples, until its lead column is not a
        pivot; the argument is not changed."""
        zero, pivots = self._zero_cols, self.pivot_rows
        row = {c: _q(v) for c, v in row.items() if v and c not in zero}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                return row
            _accumulate(row, pivot, -row[lead])
        return row

    def add_row(self, row: SparseRow) -> None:
        if len(row) == 1:
            ((lead, v),) = row.items()
            if not v or lead in self._zero_cols:
                return
            if lead not in self.pivot_rows:
                self.pivot_rows[lead] = {lead: 1}
                self._zero_cols.add(lead)
                return
        reduced = self.reduce(row)
        if not reduced:
            return
        lead = min(reduced)
        pivot = reduced[lead]
        if pivot == -1:
            reduced = {c: -v for c, v in reduced.items()}
        elif type(pivot) is not int:
            inv = 1 / pivot
            reduced = {c: _q(v * inv) for c, v in reduced.items()}
        elif pivot != 1:
            # an int quotient is taken in ints; any other one is not integral
            reduced = {
                c: v // pivot if type(v) is int and not v % pivot else Fraction(v, pivot)
                for c, v in reduced.items()
            }
        self.pivot_rows[lead] = reduced
        if len(reduced) == 1:
            self._zero_cols.add(lead)

    def reduced_rows(self) -> dict[int, SparseRow]:
        """The pivot rows, keyed by lead column, after back substitution:
        the nonzero rows of the reduced row echelon form."""
        pivots = self.pivot_rows
        # descending leads: every row a row pulls from is fully reduced, so
        # it brings in no pivot column; a one-entry row is reduced already
        for lead in sorted((lead for lead, row in pivots.items() if len(row) > 1), reverse=True):
            row = pivots[lead]
            for col in [c for c in row if c != lead and c in pivots]:
                _accumulate(row, pivots[col], -row[col])
        return pivots

    def kernel(self) -> list[SparseRow]:
        """Canonical kernel basis, one sparse vector per free column
        (ascending).  A row on a column outside range(ncols) is refused
        here, once: every column of an absorbed row is a lead or sits in a
        reduced pivot row."""
        pivots = self.reduced_rows()
        held_by: dict[int, list[int]] = {}
        for lead in sorted(lead for lead, row in pivots.items() if len(row) > 1):
            for c in pivots[lead]:
                if c != lead:
                    held_by.setdefault(c, []).append(lead)
        _check_columns((*pivots, *held_by), self.ncols)
        basis: list[SparseRow] = []
        for fc in range(self.ncols):
            if fc in pivots:
                continue
            v: SparseRow = {fc: 1}
            for lead in held_by.get(fc, ()):
                v[lead] = -pivots[lead][fc]
            basis.append(v)
        return basis


def _check_columns(columns: Collection[int], ncols: int) -> None:
    if columns and not (0 <= min(columns) and max(columns) < ncols):
        bad = min(c for c in columns if not 0 <= c < ncols)
        raise ValueError(f"column {bad} is outside range({ncols})")


def sparse_kernel(rows: Iterable[SparseRow], ncols: int) -> list[SparseRow]:
    """Canonical kernel basis of rows over ncols unknowns.  One-entry rows
    are added first, so that every later row sees all their known-zero
    columns, then the others in their order; the reduced echelon form is
    unique, so the order changes no result."""
    elim = SparseEliminator(ncols)
    longer = []
    for row in rows:
        if len(row) > 1:
            longer.append(row)
        else:
            elim.add_row(row)
    for row in longer:
        elim.add_row(row)
    return elim.kernel()


def sparse_solve(
    rows: Sequence[SparseRow], rhs: Sequence[object], ncols: int
) -> Optional[tuple[list[Scalar], list[SparseRow]]]:
    """Sparse analog of solve_inhomogeneous; rhs entries align with rows.

    The right-hand side is carried as an extra trailing column.  Returns
    (particular solution, kernel basis) or None when inconsistent.
    """
    rhs = _exact_array("sparse_solve", rhs, len(rows))
    elim = SparseEliminator(ncols + 1)
    for row, b in zip(rows, rhs):
        _check_columns(row, ncols)
        augmented = {c: _exact(v) for c, v in row.items()}
        if b:
            augmented[ncols] = b
        elim.add_row(augmented)
    if ncols in elim.pivot_rows:
        return None
    # the rhs column is free and last; its kernel vector carries -particular
    *kernel, last = elim.kernel()
    particular = [-last.get(c, 0) for c in range(ncols)]
    return particular, kernel

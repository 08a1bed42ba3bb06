"""Exact linear algebra over the rationals.

One Gaussian elimination, SparseEliminator: sparse rational rows absorbed
one at a time, pivoting on the least column index, so every kernel is the
canonical echelon basis.  It backs both the large systems the symmetry
solver assembles and the small dense RationalMatrix operations (rref,
rank, inverse, nullspace, inhomogeneous solving).

The solver's systems are mostly one-entry rows, so the eliminator is
shaped by them.  A pivot row {c: 1} marks column c as known zero: c is
dropped from every later row before any arithmetic and from every pivot
row already holding it.  A column index maps each column to the leads of
the pivot rows that hold it, so back substitution visits only those rows
and the kernel reads a free column's coefficients straight from it.  The
reduced echelon form is unique, so neither rule, nor the order rows
arrive in, can change a result.

Determinants and adjugates come from one division-free Faddeev-LeVerrier
recursion that works over Fractions and Polys alike.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Vector = tuple[Fraction, ...]


class RationalMatrix:
    """Dense rows x cols matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence[object]]):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match rows x cols")
        self.rows = rows
        self.cols = cols
        self.entries: tuple[Vector, ...] = tuple(
            tuple(Fraction(v) for v in row) for row in entries
        )

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[object]]) -> "RationalMatrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

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

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        return adjugate(self.entries)[1] if self.rows else Fraction(1)

    def inverse(self) -> "RationalMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse requires a square matrix")
        n = self.rows
        aug = RationalMatrix(
            n,
            2 * n,
            [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(self.entries)],
        )
        red, pivots = aug.rref()
        if pivots[:n] != tuple(range(n)):
            raise ValueError("matrix is singular")
        return RationalMatrix(n, n, [row[n:] for row in red.entries])


def nullspace(matrix: RationalMatrix) -> list[Vector]:
    """Canonical basis of the right kernel {v : Mv = 0}.

    The basis is in reduced echelon normal form: one vector per free column
    (ascending), carrying 1 in its own free column and 0 in every other free
    column, so the output is deterministic.
    """
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
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    solution = sparse_solve(_sparse_rows(matrix), rhs, matrix.cols)
    if solution is None:
        return None
    particular, kernel = solution
    return tuple(particular), [_dense(v, matrix.cols) for v in kernel]


def inconsistency_certificate(
    matrix: RationalMatrix, rhs: Sequence[object]
) -> Optional[Vector]:
    """A row combination y with y.M = 0 but y.b != 0, if the system is inconsistent."""
    vec = [Fraction(b) for b in rhs]
    for y in nullspace(matrix.transpose()):
        value = sum((a * b for a, b in zip(y, vec)), Fraction(0))
        if value != 0:
            return y
    return None


def _sparse_rows(matrix: RationalMatrix) -> list["SparseRow"]:
    return [{c: v for c, v in enumerate(row) if v} for row in matrix.entries]


def _dense(v: "SparseRow", ncols: int) -> Vector:
    return tuple(v.get(c, Fraction(0)) for c in range(ncols))


def adjugate(a: Sequence[Sequence]) -> tuple[list[list], object]:
    """(adj A, det A) of a nonempty square matrix by the Faddeev-LeVerrier
    recursion

      M_1 = 1,  c_k = -tr(A M_k) / k,  M_{k+1} = A M_k + c_k 1,

    which divides only by integers, so the entries may be Fractions or
    Polys: det A = (-1)^n c_n and adj A = (-1)^(n+1) M_n."""
    n = len(a)
    zero = a[0][0] * 0
    m = [[zero + 1 if i == l else zero for l in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [
            [sum((a[i][j] * m[j][l] for j in range(n) if a[i][j]), zero) for l in range(n)]
            for i in range(n)
        ]
        c = sum((am[i][i] for i in range(n)), zero) * Fraction(-1, k)
        if k == n:
            break
        m = [[am[i][l] + c if i == l else am[i][l] for l in range(n)] for i in range(n)]
    sign = (-1) ** n
    return [[-sign * x for x in row] for row in m], sign * c


# ----------------------------------------------------------------------
# sparse eliminator (row dictionaries keyed by column index)

SparseRow = dict[int, Fraction]
_ONE = Fraction(1)


class SparseEliminator:
    """Incremental Gaussian elimination over sparse rational rows.

    Rows are absorbed one at a time; pivot columns are chosen as the least
    column index of the reduced row, so the reduced rows and the kernel are
    the canonical reduced row echelon form and echelon kernel basis.

    Two structures follow the shape of the symmetry systems, most of whose
    rows have a single entry:

    - known-zero columns: a pivot row {c: 1} says x_c = 0.  Column c is
      dropped from every incoming row before any arithmetic, and at once
      from every pivot row that holds it; a pivot row left as {k: 1} makes
      k known-zero in turn.
    - a column index, mapping each column to the leads of the pivot rows
      that hold it off their lead.  It is kept up to date through add_row
      and back substitution, so back substitution touches only the rows
      that hold the column it clears, and kernel reads each free column's
      coefficients from it.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, SparseRow] = {}
        self._zero_cols: set[int] = set()
        self._held_by: dict[int, set[int]] = {}

    def reduce(self, row: SparseRow) -> SparseRow:
        """The row less pivot-row multiples, until its lead column is not a
        pivot; the argument is not changed."""
        zero, pivots = self._zero_cols, self.pivot_rows
        row = {c: v for c, v in row.items() if v and c not in zero}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                return row
            factor = row.pop(lead)
            for c, v in pivot.items():
                if c == lead:
                    continue
                if c not in row:
                    row[c] = -factor * v
                elif acc := row[c] - factor * v:
                    row[c] = acc
                else:
                    del row[c]
        return row

    def add_row(self, row: SparseRow) -> None:
        if len(row) == 1:
            ((lead, v),) = row.items()
            if not v or lead in self._zero_cols:
                return
            if lead not in self.pivot_rows:
                self.pivot_rows[lead] = {lead: _ONE}
                self._mark_zero(lead)
                return
        reduced = self.reduce(row)
        if not reduced:
            return
        lead = min(reduced)
        pivot = reduced[lead]
        if pivot != 1:
            inv = _ONE / pivot
            reduced = {c: v * inv for c, v in reduced.items()}
        self.pivot_rows[lead] = reduced
        if len(reduced) == 1:
            self._mark_zero(lead)
            return
        for c in reduced:
            if c != lead:
                self._held_by.setdefault(c, set()).add(lead)

    def _mark_zero(self, col: int) -> None:
        """Record x_col = 0 and clear col from the pivot rows holding it."""
        pivots, held_by = self.pivot_rows, self._held_by
        todo = [col]
        while todo:
            c = todo.pop()
            self._zero_cols.add(c)
            for lead in held_by.pop(c, ()):
                row = pivots[lead]
                del row[c]
                if len(row) == 1:
                    todo.append(lead)

    def reduced_rows(self) -> dict[int, SparseRow]:
        """The pivot rows, keyed by lead column, after back substitution:
        the nonzero rows of the reduced row echelon form."""
        pivots, held_by = self.pivot_rows, self._held_by
        # descending leads: each row is fully reduced before it is used
        for lead in sorted(pivots, reverse=True):
            holders = held_by.pop(lead, None)
            if not holders:
                continue
            row = pivots[lead]
            for other_lead in holders:
                other = pivots[other_lead]
                factor = other.pop(lead)
                for c, v in row.items():
                    if c == lead:
                        continue
                    if c not in other:
                        other[c] = -factor * v
                        held_by.setdefault(c, set()).add(other_lead)
                    elif acc := other[c] - factor * v:
                        other[c] = acc
                    else:
                        del other[c]
                        held_by[c].discard(other_lead)
                if len(other) == 1:
                    self._mark_zero(other_lead)
        return pivots

    def kernel(self) -> list[SparseRow]:
        """Canonical kernel basis, one sparse vector per free column (ascending)."""
        pivots = self.reduced_rows()
        held_by = self._held_by
        basis: list[SparseRow] = []
        for fc in range(self.ncols):
            if fc in pivots:
                continue
            v: SparseRow = {fc: _ONE}
            for lead in sorted(held_by.get(fc, ())):
                v[lead] = -pivots[lead][fc]
            basis.append(v)
        return basis

    def rank(self) -> int:
        return len(self.pivot_rows)


def sparse_kernel(rows: Sequence[SparseRow], ncols: int) -> list[SparseRow]:
    elim = SparseEliminator(ncols)
    for row in rows:
        elim.add_row(row)
    return elim.kernel()


def sparse_solve(
    rows: Sequence[SparseRow], rhs: Sequence[object], ncols: int
) -> Optional[tuple[list[Fraction], list[SparseRow]]]:
    """Sparse analog of solve_inhomogeneous; rhs entries align with rows.

    The right-hand side is carried as an extra trailing column.  Returns
    (particular solution, kernel basis) or None when inconsistent.
    """
    elim = SparseEliminator(ncols + 1)
    for row, b in zip(rows, rhs):
        augmented = dict(row)
        bb = Fraction(b)
        if bb:
            augmented[ncols] = bb
        elim.add_row(augmented)
    if ncols in elim.pivot_rows:
        return None
    # the rhs column is free and last; its kernel vector carries -particular
    *kernel, last = elim.kernel()
    particular = [-last.get(c, Fraction(0)) for c in range(ncols)]
    return particular, kernel

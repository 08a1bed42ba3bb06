"""Exact linear algebra over the rationals.

Dense matrices of Fractions with reduced-row-echelon elimination, nullspace
bases in canonical echelon normal form, and inhomogeneous solving.  A sparse
row-dict eliminator with the same pivoting discipline backs the larger
systems assembled by the symmetry solver; both paths produce identical
canonical kernels and are cross-checked in the test suite.
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

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def apply(self, vector: Sequence[object]) -> list[Fraction]:
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        vec = [Fraction(v) for v in vector]
        return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in self.entries]

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        cols = list(zip(*other.entries)) if other.entries else []
        data = [
            [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols]
            for row in self.entries
        ]
        return RationalMatrix(self.rows, other.cols, data)

    def transpose(self) -> "RationalMatrix":
        data = [[self.entries[r][c] for r in range(self.rows)] for c in range(self.cols)]
        return RationalMatrix(self.cols, self.rows, data)

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns."""
        m = [list(row) for row in self.entries]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pivot_row = next((i for i in range(r, self.rows) if m[i][c] != 0), None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = 1 / m[r][c]
            m[r] = [v * inv for v in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return RationalMatrix(self.rows, self.cols, m), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        m = [list(row) for row in self.entries]
        n = self.rows
        det = Fraction(1)
        for c in range(n):
            pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                det = -det
            det *= m[c][c]
            inv = 1 / m[c][c]
            for i in range(c + 1, n):
                if m[i][c] != 0:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det

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
    red, pivots = matrix.rref()
    pivot_set = set(pivots)
    free = [c for c in range(matrix.cols) if c not in pivot_set]
    basis: list[Vector] = []
    for fc in free:
        v = [Fraction(0)] * matrix.cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red.entries[i][fc]
        basis.append(tuple(v))
    return basis


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
    aug = RationalMatrix(
        matrix.rows,
        matrix.cols + 1,
        [list(row) + [Fraction(b)] for row, b in zip(matrix.entries, rhs)],
    )
    red, pivots = aug.rref()
    if matrix.cols in pivots:
        return None
    particular = [Fraction(0)] * matrix.cols
    for i, pc in enumerate(pivots):
        particular[pc] = red.entries[i][matrix.cols]
    return tuple(particular), nullspace(matrix)


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


# ----------------------------------------------------------------------
# sparse eliminator (row dictionaries keyed by column index)

SparseRow = dict[int, Fraction]


class SparseEliminator:
    """Incremental Gaussian elimination over sparse rational rows.

    Rows are absorbed one at a time; pivot columns are chosen as the least
    column index of the reduced row, matching the dense rref discipline, so
    the final kernel is the same canonical basis nullspace() produces.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, SparseRow] = {}

    def reduce(self, row: SparseRow) -> SparseRow:
        row = {c: v for c, v in row.items() if v != 0}
        while row:
            lead = min(row)
            pivot = self.pivot_rows.get(lead)
            if pivot is None:
                return row
            factor = row[lead]
            for c, v in pivot.items():
                acc = row.get(c, Fraction(0)) - factor * v
                if acc:
                    row[c] = acc
                else:
                    row.pop(c, None)
        return row

    def add_row(self, row: SparseRow) -> None:
        reduced = self.reduce(dict(row))
        if not reduced:
            return
        lead = min(reduced)
        inv = 1 / reduced[lead]
        self.pivot_rows[lead] = {c: v * inv for c, v in reduced.items()}

    def _back_substitute(self) -> None:
        for lead in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[lead]
            for other_lead, other in self.pivot_rows.items():
                if other_lead >= lead:
                    continue
                factor = other.get(lead)
                if not factor:
                    continue
                for c, v in row.items():
                    acc = other.get(c, Fraction(0)) - factor * v
                    if acc:
                        other[c] = acc
                    else:
                        other.pop(c, None)

    def kernel(self) -> list[SparseRow]:
        """Canonical kernel basis, one sparse vector per free column (ascending)."""
        self._back_substitute()
        pivots = sorted(self.pivot_rows)
        pivot_set = set(pivots)
        basis: list[SparseRow] = []
        for fc in range(self.ncols):
            if fc in pivot_set:
                continue
            v: SparseRow = {fc: Fraction(1)}
            for pc in pivots:
                coeff = self.pivot_rows[pc].get(fc)
                if coeff:
                    v[pc] = -coeff
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

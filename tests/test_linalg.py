"""Exact linear algebra: nullspace and solver examples, canonical-form laws.

The canonical forms are checked against sympy's dense Matrix (rref, rank,
nullspace, gauss_jordan_solve, det, inv), which shares no ncw code; those
tests skip when sympy is missing.  Determinants come from ``adjugate``, and
inverses are read off an AffineDiffeo's inverse images.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import is_canonical
from ncw.gauge import AffineDiffeo
from ncw.linalg import (
    RationalMatrix,
    SparseEliminator,
    adjugate,
    inconsistency_certificate,
    nullspace,
    solve_inhomogeneous,
    sparse_kernel,
    sparse_solve,
)


def times(m, v):
    """M.v, computed here rather than by the module under test."""
    return [sum((a * Fraction(x) for a, x in zip(row, v)), Fraction(0)) for row in m.entries]


def product(a, b):
    """A.B, column by column of B."""
    return RationalMatrix.from_rows([times(a, col) for col in zip(*b.entries)]).transpose()


def identity(n):
    return RationalMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def det(m):
    return adjugate(m.entries)[1]


def inverse(m):
    """L^{-1} of an invertible square matrix, read off the inverse images
    x = L^{-1} y of the affine map y = L x."""
    n = m.rows
    images = AffineDiffeo.make(m.entries, [0] * n).inverse_images()
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return RationalMatrix.from_rows([[x.coefficient(e) for e in units] for x in images])


class TestNullspaceExamples:
    def test_identity_trivial_kernel(self):
        assert nullspace(identity(3)) == []

    def test_zero_matrix_full_kernel(self):
        basis = nullspace(RationalMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))
        assert len(basis) == 3
        assert basis[0] == (1, 0, 0)

    def test_hand_elimination(self):
        # [[1,1,0],[0,0,1]]: hand Gaussian elimination gives x1 = -x2, x3 = 0
        m = RationalMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
        assert nullspace(m) == [(Fraction(-1), Fraction(1), Fraction(0))]

    def test_kernel_vectors_annihilated(self):
        m = RationalMatrix.from_rows([[2, 4, 1], [1, 2, 3]])
        for v in nullspace(m):
            assert all(x == 0 for x in times(m, v))


class TestSolveExamples:
    def test_identity(self):
        sol = solve_inhomogeneous(identity(2), [1, 2])
        assert sol == ((1, 2), [])

    def test_inconsistent(self):
        assert solve_inhomogeneous(RationalMatrix.from_rows([[0, 0], [0, 0]]), [1, 0]) is None

    def test_underdetermined(self):
        sol = solve_inhomogeneous(RationalMatrix.from_rows([[1, 1]]), [2])
        assert sol is not None
        particular, kernel = sol
        assert particular == (2, 0)
        assert kernel == [(Fraction(-1), Fraction(1))]

    def test_certificate_for_inconsistency(self):
        m = RationalMatrix.from_rows([[1, 1], [2, 2]])
        y = inconsistency_certificate(m, [1, 3])
        assert y is not None
        assert all(v == 0 for v in times(m.transpose(), y))


def random_matrix(rng, rows, cols):
    return RationalMatrix.from_rows(
        [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
    )


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


def to_sympy(sympy, m):
    return sympy.Matrix(
        m.rows, m.cols, [sympy.Rational(v.numerator, v.denominator) for row in m.entries for v in row]
    )


def to_fractions(values):
    return tuple(Fraction(int(v.p), int(v.q)) for v in values)


def sympy_kernel(sympy, m):
    return [to_fractions(col) for col in to_sympy(sympy, m).nullspace()]


def sympy_solve(sympy, m, b):
    """Particular solution with every free variable 0, or None if inconsistent."""
    rhs = sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in b])
    try:
        solution, params = to_sympy(sympy, m).gauss_jordan_solve(rhs)
    except ValueError:
        return None
    return to_fractions(solution.subs({p: 0 for p in params}))


class TestProperties:
    def test_roundtrip_solutions(self):
        rng = random.Random(7)
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = random_matrix(rng, rows, cols)
            w = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
            b = times(m, w)
            sol = solve_inhomogeneous(m, b)
            assert sol is not None
            particular, _ = sol
            assert times(m, particular) == b

    def test_kernel_independence_and_exactness(self):
        rng = random.Random(11)
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols)
            basis = nullspace(m)
            for v in basis:
                assert all(x == 0 for x in times(m, v))
            # echelon pivots distinct: each vector owns a free column where
            # it is 1 and every other basis vector is 0
            for i, v in enumerate(basis):
                own = [c for c, x in enumerate(v) if x == 1
                       and all(basis[j][c] == 0 for j in range(len(basis)) if j != i)]
                assert own
            assert len(basis) + len(m.rref()[1]) == cols

    def test_sparse_matches_dense(self, sympy):
        rng = random.Random(13)
        for _ in range(60):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols)
            dense = sympy_kernel(sympy, m)
            assert nullspace(m) == dense
            sparse_rows = [
                {c: v for c, v in enumerate(row) if v != 0} for row in m.entries
            ]
            sparse = sparse_kernel(sparse_rows, cols)
            densified = [
                tuple(v.get(c, Fraction(0)) for c in range(cols)) for v in sparse
            ]
            assert densified == dense

    def test_kernel_independent_of_row_order(self, sympy):
        # canonical echelon kernels cannot depend on equation arrival order
        rng = random.Random(19)
        for _ in range(40):
            rows, cols = rng.randint(2, 7), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols)
            reference = sympy_kernel(sympy, m)
            sparse_rows = [
                {c: v for c, v in enumerate(row) if v != 0} for row in m.entries
            ]
            rng.shuffle(sparse_rows)
            shuffled = sparse_kernel(sparse_rows, cols)
            densified = [
                tuple(v.get(c, Fraction(0)) for c in range(cols)) for v in shuffled
            ]
            assert densified == reference

    def test_sparse_solve_matches_dense(self, sympy):
        rng = random.Random(17)
        for _ in range(60):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols)
            b = [Fraction(rng.randint(-3, 3)) for _ in range(rows)]
            particular = sympy_solve(sympy, m, b)
            sparse_rows = [
                {c: v for c, v in enumerate(row) if v != 0} for row in m.entries
            ]
            sparse = sparse_solve(sparse_rows, b, cols)
            if particular is None:
                assert sparse is None
                assert solve_inhomogeneous(m, b) is None
            else:
                assert sparse is not None
                assert tuple(sparse[0]) == particular
                densified = [
                    tuple(v.get(c, Fraction(0)) for c in range(cols)) for v in sparse[1]
                ]
                assert densified == sympy_kernel(sympy, m)
                assert solve_inhomogeneous(m, b) == (particular, densified)

    def test_rref_matches_sympy(self, sympy):
        rng = random.Random(23)
        for _ in range(60):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols)
            reduced, pivots = m.rref()
            expected, expected_pivots = to_sympy(sympy, m).rref()
            assert pivots == expected_pivots
            assert reduced.entries == tuple(
                to_fractions(expected.row(i)) for i in range(rows)
            )
            assert len(m.rref()[1]) == to_sympy(sympy, m).rank()


def random_shaped_rows(rng, cols):
    """Rows shaped like the symmetry systems: mostly one entry, with repeats
    and rescaled repeats, the rest two to four entries, in random order."""
    rows = []
    for _ in range(rng.randint(1, 3 * cols)):
        if rng.random() < 0.6:
            rows.append({rng.randrange(cols): Fraction(rng.choice([-2, -1, 1, 2, 3]))})
        else:
            picked = rng.sample(range(cols), rng.randint(2, min(4, cols)))
            rows.append({c: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) for c in picked})
        if rng.random() < 0.3:
            rows.append({c: 2 * v for c, v in rows[-1].items()})
    rng.shuffle(rows)
    return rows


def dense_of(rows, cols):
    rows = rows or [{}]
    return RationalMatrix.from_rows([[row.get(c, Fraction(0)) for c in range(cols)] for row in rows])


def densified(vectors, cols):
    return [tuple(v.get(c, Fraction(0)) for c in range(cols)) for v in vectors]


def assert_matches_sympy(sympy, rows, cols, elim):
    """elim, fed rows, holds sympy's RREF and yields its nullspace."""
    expected, pivots = to_sympy(sympy, dense_of(rows, cols)).rref()
    reduced = elim.reduced_rows()
    assert tuple(sorted(reduced)) == pivots
    assert densified([reduced[p] for p in pivots], cols) == [
        to_fractions(expected.row(i)) for i in range(len(pivots))
    ]
    assert densified(elim.kernel(), cols) == sympy_kernel(sympy, dense_of(rows, cols))


def assert_reduces_in_row_space(sympy, rows, cols, row, reduced):
    """reduced - row lies in the span of rows, and reduced leads at a
    column that is not a pivot of their rref."""
    m = to_sympy(sympy, dense_of(rows, cols))
    diff = {c: reduced.get(c, 0) - row.get(c, 0) for c in range(cols)}
    assert to_sympy(sympy, dense_of(rows + [diff], cols)).rank() == m.rank()
    assert not reduced or min(reduced) not in m.rref()[1]


class TestEliminatorShapes:
    """Known-zero columns, the order of back substitution and reduce against
    sympy's rref, rank and nullspace, on systems shaped like the solver's."""

    def test_one_entry_rows_with_repeats_in_random_order(self, sympy):
        rng = random.Random(31)
        for _ in range(80):
            cols = rng.randint(2, 9)
            rows = random_shaped_rows(rng, cols)
            elim = SparseEliminator(cols)
            for row in rows:
                elim.add_row(row)
            assert_matches_sympy(sympy, rows, cols, elim)
            assert densified(sparse_kernel(rows, cols), cols) == sympy_kernel(
                sympy, dense_of(rows, cols)
            )

    def test_one_entry_row_after_a_pivot_on_its_lead(self, sympy):
        rng = random.Random(37)
        for _ in range(60):
            cols = rng.randint(3, 8)
            rows = [r for r in random_shaped_rows(rng, cols) if len(r) > 1]
            elim = SparseEliminator(cols)
            for row in rows:
                elim.add_row(row)
            leads = rng.sample(sorted(elim.pivot_rows), (len(elim.pivot_rows) + 1) // 2)
            late = [{lead: Fraction(rng.choice([-1, 2, 5]))} for lead in leads]
            for row in late:
                elim.add_row(row)
            assert_matches_sympy(sympy, rows + late, cols, elim)
        elim = SparseEliminator(3)
        elim.add_row({0: Fraction(1), 1: Fraction(2), 2: Fraction(3)})
        elim.add_row({0: Fraction(5)})
        assert elim.reduced_rows() == {0: {0: 1}, 1: {1: 1, 2: Fraction(3, 2)}}
        assert elim.kernel() == [{2: 1, 1: Fraction(-3, 2)}]

    def test_rows_added_after_a_reduction(self, sympy):
        # reduced_rows may run before every row is in
        rng = random.Random(41)
        for _ in range(60):
            cols = rng.randint(2, 8)
            rows = random_shaped_rows(rng, cols)
            half = len(rows) // 2
            elim = SparseEliminator(cols)
            for row in rows[:half]:
                elim.add_row(row)
            assert_matches_sympy(sympy, rows[:half], cols, elim)
            for row in rows[half:]:
                elim.add_row(row)
            assert_matches_sympy(sympy, rows, cols, elim)

    def test_one_entry_rows_on_held_columns(self, sympy):
        # a one-entry row, or a row that reduces to one entry, on a column a
        # pivot row holds off its lead: that pivot row keeps the column until
        # back substitution pulls it out with the one-entry row
        rng = random.Random(59)
        for _ in range(40):
            cols = rng.randint(4, 9)
            rows = [r for r in random_shaped_rows(rng, cols) if len(r) > 1]
            elim = SparseEliminator(cols)
            for row in rows:
                elim.add_row(row)
            for _ in range(rng.randint(1, 3)):
                held = [
                    (lead, c)
                    for lead, pivot in sorted(elim.pivot_rows.items())
                    for c in sorted(pivot)
                    if c != lead
                ]
                if not held:
                    break
                lead, c = rng.choice(held)
                if rng.random() < 0.5:
                    row = {c: Fraction(rng.choice([-2, 1, 3]))}
                else:
                    k = Fraction(rng.choice([-1, 2]))
                    row = {col: k * v for col, v in elim.pivot_rows[lead].items()}
                    row[c] += rng.choice([-1, 1])
                rows.append(row)
                elim.add_row(row)
            assert_matches_sympy(sympy, rows, cols, elim)
            probes = random_shaped_rows(rng, cols)
            for row, probe in zip(random_shaped_rows(rng, cols)[:4], probes):
                assert_reduces_in_row_space(sympy, rows, cols, probe, elim.reduce(probe))
                rows.append(row)
                elim.add_row(row)
            assert_matches_sympy(sympy, rows, cols, elim)

    def test_reduce_leaves_its_argument(self):
        elim = SparseEliminator(3)
        elim.add_row({0: Fraction(1)})
        elim.add_row({1: Fraction(1), 2: Fraction(1)})
        row = {0: Fraction(4), 1: Fraction(1), 2: Fraction(0)}
        assert elim.reduce(row) == {2: Fraction(-1)}
        assert row == {0: Fraction(4), 1: Fraction(1), 2: Fraction(0)}

    def test_entries_stay_canonical(self):
        # ints and Fractions mixed, integral Fractions among them: every
        # stored, reduced and kernel entry is an int or a Fraction with a
        # denominator above 1
        rng = random.Random(44)

        def row(cols):
            return {
                c: rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3))])
                for c in rng.sample(range(cols), rng.randint(1, cols))
            }

        for _ in range(200):
            cols = rng.randint(2, 7)
            elim = SparseEliminator(cols)
            for _ in range(rng.randint(1, cols)):
                elim.add_row(row(cols))
                assert all(is_canonical(v) for r in elim.pivot_rows.values() for v in r.values())
            for _ in range(3):
                assert all(is_canonical(v) for v in elim.reduce(row(cols)).values())
            vectors = list(elim.reduced_rows().values()) + elim.kernel()
            assert all(is_canonical(v) for vec in vectors for v in vec.values())

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_integer_pivots_give_the_nullspace_in_canonical_entries(self, data):
        # a multi-entry int row led by p != +-1 is divided in ints where p
        # divides an entry and into a Fraction where it does not
        sympy = pytest.importorskip("sympy")
        cols = data.draw(st.integers(2, 7))
        rows = []
        for _ in range(data.draw(st.integers(1, 2 * cols))):
            picked = sorted(data.draw(st.sets(st.integers(0, cols - 1), min_size=2, max_size=4)))
            row = {c: data.draw(st.integers(-6, 6).filter(bool)) for c in picked}
            row[picked[0]] = data.draw(st.sampled_from([-6, -4, -3, -2, 2, 3, 4, 6]))
            rows.append(row)
        elim = SparseEliminator(cols)
        for row in rows:
            elim.add_row(row)
            assert all(is_canonical(v) for r in elim.pivot_rows.values() for v in r.values())
        assert_matches_sympy(sympy, rows, cols, elim)
        vectors = list(elim.reduced_rows().values()) + elim.kernel()
        assert all(is_canonical(v) for vec in vectors for v in vec.values())

    def test_integer_rows_stay_exact(self):
        assert sparse_kernel([{0: 2, 1: 1}], 2) == [{1: 1, 0: Fraction(-1, 2)}]
        particular, kernel = sparse_solve([{0: 3, 1: 1}], [1], 2)
        values = particular + [v for vector in kernel for v in vector.values()]
        assert not any(isinstance(v, float) for v in values)
        assert particular == [Fraction(1, 3), 0]

    def test_inconsistent_one_entry_row_first_or_last(self, sympy):
        rng = random.Random(43)
        for _ in range(40):
            cols = rng.randint(2, 7)
            rows = random_shaped_rows(rng, cols)
            w = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
            rhs = [sum((v * w[c] for c, v in row.items()), Fraction(0)) for row in rows]
            assert sparse_solve(rows, rhs, cols) is not None
            b = Fraction(rng.choice([-2, 1, 3]))
            for ordered, values in (([{}] + rows, [b] + rhs), (rows + [{}], rhs + [b])):
                assert sympy_solve(sympy, dense_of(ordered, cols), values) is None
                assert sparse_solve(ordered, values, cols) is None


class TestMatrixOps:
    def test_inverse(self):
        m = RationalMatrix.from_rows([[1, 2], [3, 4]])
        inv = inverse(m)
        assert product(m, inv) == identity(2)
        sympy = pytest.importorskip("sympy")
        rng = random.Random(47)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n)
            reference = to_sympy(sympy, m)
            if reference.det() == 0:
                with pytest.raises(ValueError, match="affine map must be invertible"):
                    inverse(m)
                continue
            expected = reference.inv()
            assert inverse(m).entries == tuple(to_fractions(expected.row(i)) for i in range(n))

    def test_det(self):
        assert det(RationalMatrix.from_rows([[1, 2], [3, 4]])) == -2
        assert det(RationalMatrix.from_rows([[Fraction(1, 2), 0], [7, 2]])) == 1

    @pytest.mark.parametrize("entry", [0.1, "1/3", True], ids=["float", "str", "bool"])
    def test_inexact_entries_are_refused(self, entry):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            RationalMatrix.from_rows([[entry]])
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            RationalMatrix(1, 2, [[1, entry]])

    @pytest.mark.parametrize("entry", [0.1, "1/3", True], ids=["float", "str", "bool"])
    def test_inexact_right_hand_sides_are_refused(self, entry):
        m = RationalMatrix.from_rows([[1], [0]])
        for solve in (
            lambda: sparse_solve([{0: 1}, {}], [1, entry], 1),
            lambda: solve_inhomogeneous(m, [entry, 0]),
            lambda: inconsistency_certificate(m, [0, entry]),
        ):
            with pytest.raises(TypeError, match="not an int or a Fraction"):
                solve()

    @pytest.mark.parametrize(
        "rows, rhs",
        [([{0: 1}, {1: 1}], [1]), ([{0: 1}], [1, 5]), ([{0: 1}, {0: 1}], [1])],
        ids=["row-without-rhs", "rhs-without-row", "dependent-rows"],
    )
    def test_right_hand_side_of_the_wrong_length_is_refused(self, rows, rhs):
        # inconsistency_certificate's zip dropped the unmatched entries: the
        # dependent rows with [1] gave the certificate (-1, 1)
        m = RationalMatrix.from_rows([[row.get(c, 0) for c in range(2)] for row in rows])
        entries = "entry" if len(rows) == 1 else "entries"
        for solve, name in (
            (lambda: sparse_solve(rows, rhs, 2), "sparse_solve"),
            (lambda: solve_inhomogeneous(m, rhs), "solve_inhomogeneous"),
            (lambda: inconsistency_certificate(m, rhs), "inconsistency_certificate"),
        ):
            message = f"{name} needs {len(rows)} {entries}, not {len(rhs)}"
            with pytest.raises(ValueError, match=f"^{message}$"):
                solve()

    def test_a_consistent_system_has_no_certificate(self):
        m = RationalMatrix.from_rows([[1, 1], [2, 2]])
        assert inconsistency_certificate(m, [1, 2]) is None
        assert inconsistency_certificate(m, [0, 0]) is None
        assert inconsistency_certificate(identity(2), [3, Fraction(1, 2)]) is None

    @pytest.mark.parametrize("entry", [0.5, True, "1"], ids=["float", "bool", "str"])
    def test_sparse_solve_refuses_inexact_row_entries(self, entry):
        # 0.5 raised AttributeError ('float' object has no attribute
        # 'denominator'), and True was read as 1: ([1, 0], [{1: 1, 0: -1}])
        message = f"^coefficient {re.escape(repr(entry))} is not an int or a Fraction$"
        for rows in ([{0: entry, 1: 1}], [{1: 1}, {0: 1, 1: entry}]):
            with pytest.raises(TypeError, match=message):
                sparse_solve(rows, [1] * len(rows), 2)

    @pytest.mark.parametrize(
        "solve, column",
        [
            # column 2 was read as the right-hand side: ([5, 0], [{1: 1}])
            (lambda: sparse_solve([{0: 1, 2: 5}], [0], 2), 2),
            # x3 was dropped: x0 = 1 came back as the whole answer
            (lambda: sparse_solve([{0: 1, 3: 1}], [1], 2), 3),
            # x5 was dropped: [{1: 1}] came back
            (lambda: sparse_kernel([{0: 1, 5: 1}], 2), 5),
            # a pivot was taken at -1
            (lambda: sparse_kernel([{-1: 1}], 2), -1),
        ],
        ids=["solve-on-the-rhs-column", "solve-past-it", "kernel-past-ncols", "kernel-negative"],
    )
    def test_a_column_outside_the_unknowns_is_refused(self, solve, column):
        with pytest.raises(ValueError, match=re.escape(f"column {column} is outside range(2)")):
            solve()

    def test_entries_are_canonical(self):
        m = RationalMatrix.from_rows([[Fraction(4, 2), Fraction(1, 3)], [5, 0]])
        assert m.entries == ((2, Fraction(1, 3)), (5, 0))
        assert all(is_canonical(v) for row in m.entries for v in row)

    def test_det_matches_sympy(self, sympy):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(1, 6)
            m = RationalMatrix.from_rows(
                [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            )
            expected = to_sympy(sympy, m).det()
            assert det(m) == Fraction(int(expected.p), int(expected.q))

    @settings(max_examples=30)
    @given(st.integers(1, 4), st.integers(0, 1000))
    def test_det_multiplicative(self, n, seed):
        rng = random.Random(seed)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert det(product(a, b)) == det(a) * det(b)

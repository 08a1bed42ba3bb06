"""Exact linear algebra: nullspace and solver examples, canonical-form laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncw.linalg import (
    RationalMatrix,
    inconsistency_certificate,
    nullspace,
    solve_inhomogeneous,
    sparse_kernel,
    sparse_solve,
)


class TestNullspaceExamples:
    def test_identity_trivial_kernel(self):
        assert nullspace(RationalMatrix.identity(3)) == []

    def test_zero_matrix_full_kernel(self):
        basis = nullspace(RationalMatrix.zeros(2, 3))
        assert len(basis) == 3
        assert basis[0] == (1, 0, 0)

    def test_hand_elimination(self):
        # [[1,1,0],[0,0,1]]: hand Gaussian elimination gives x1 = -x2, x3 = 0
        m = RationalMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
        assert nullspace(m) == [(Fraction(-1), Fraction(1), Fraction(0))]

    def test_kernel_vectors_annihilated(self):
        m = RationalMatrix.from_rows([[2, 4, 1], [1, 2, 3]])
        for v in nullspace(m):
            assert all(x == 0 for x in m.apply(v))


class TestSolveExamples:
    def test_identity(self):
        sol = solve_inhomogeneous(RationalMatrix.identity(2), [1, 2])
        assert sol == ((1, 2), [])

    def test_inconsistent(self):
        assert solve_inhomogeneous(RationalMatrix.zeros(2, 2), [1, 0]) is None

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
        assert all(v == 0 for v in m.transpose().apply(y))


def random_matrix(rng, rows, cols):
    return RationalMatrix.from_rows(
        [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
    )


class TestProperties:
    def test_roundtrip_solutions(self):
        rng = random.Random(7)
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = random_matrix(rng, rows, cols)
            w = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
            b = m.apply(w)
            sol = solve_inhomogeneous(m, b)
            assert sol is not None
            particular, _ = sol
            assert m.apply(particular) == b

    def test_kernel_independence_and_exactness(self):
        rng = random.Random(11)
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols)
            basis = nullspace(m)
            for v in basis:
                assert all(x == 0 for x in m.apply(v))
            # echelon pivots distinct: each vector owns a free column where
            # it is 1 and every other basis vector is 0
            for i, v in enumerate(basis):
                own = [c for c, x in enumerate(v) if x == 1
                       and all(basis[j][c] == 0 for j in range(len(basis)) if j != i)]
                assert own
            assert len(basis) + m.rank() == cols

    def test_sparse_matches_dense(self):
        rng = random.Random(13)
        for _ in range(60):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols)
            dense = nullspace(m)
            sparse_rows = [
                {c: v for c, v in enumerate(row) if v != 0} for row in m.entries
            ]
            sparse = sparse_kernel(sparse_rows, cols)
            densified = [
                tuple(v.get(c, Fraction(0)) for c in range(cols)) for v in sparse
            ]
            assert densified == dense

    def test_kernel_independent_of_row_order(self):
        # canonical echelon kernels cannot depend on equation arrival order
        rng = random.Random(19)
        for _ in range(40):
            rows, cols = rng.randint(2, 7), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols)
            reference = nullspace(m)
            sparse_rows = [
                {c: v for c, v in enumerate(row) if v != 0} for row in m.entries
            ]
            rng.shuffle(sparse_rows)
            shuffled = sparse_kernel(sparse_rows, cols)
            densified = [
                tuple(v.get(c, Fraction(0)) for c in range(cols)) for v in shuffled
            ]
            assert densified == reference

    def test_sparse_solve_matches_dense(self):
        rng = random.Random(17)
        for _ in range(60):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols)
            b = [Fraction(rng.randint(-3, 3)) for _ in range(rows)]
            dense = solve_inhomogeneous(m, b)
            sparse_rows = [
                {c: v for c, v in enumerate(row) if v != 0} for row in m.entries
            ]
            sparse = sparse_solve(sparse_rows, b, cols)
            if dense is None:
                assert sparse is None
            else:
                assert sparse is not None
                assert tuple(sparse[0]) == dense[0]
                densified = [
                    tuple(v.get(c, Fraction(0)) for c in range(cols)) for v in sparse[1]
                ]
                assert densified == dense[1]


class TestMatrixOps:
    def test_inverse(self):
        m = RationalMatrix.from_rows([[1, 2], [3, 4]])
        inv = m.inverse()
        assert m.matmul(inv) == RationalMatrix.identity(2)

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            RationalMatrix.from_rows([[1, 2], [2, 4]]).inverse()

    def test_det(self):
        assert RationalMatrix.from_rows([[1, 2], [3, 4]]).det() == -2
        assert RationalMatrix.from_rows([[Fraction(1, 2), 0], [7, 2]]).det() == 1

    @settings(max_examples=30)
    @given(st.integers(1, 4), st.integers(0, 1000))
    def test_det_multiplicative(self, n, seed):
        rng = random.Random(seed)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert a.matmul(b).det() == a.det() * b.det()

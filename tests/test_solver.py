"""Symmetry solver: filtration dimensions, templates, nesting, classification,
and structure constants."""

import copy
import random
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncw.solver
from helpers import (
    SHAPES,
    basis_vector,
    coriolis_field,
    counting,
    fresh_frames,
    is_canonical,
    nonzero_coefficients,
    shaped_polys,
    var,
)
from ncw.extensions import (
    BargmannElement,
    ExtendedElement,
    ExtensionError,
    MilneStandardElement,
    bargmann_from_field,
    milne_standard_from_field,
)
from ncw.linalg import SparseEliminator, sparse_kernel
from ncw.poly import Poly, _q
from ncw.dsl import build_structure, parse_structure
from ncw.report import generator_label
from ncw.solver import (
    FLAVORS,
    NotInFlavorError,
    SymmetryBasis,
    _connection_rows,
    _FormPoly,
    _metric_pair_rows,
    _restrict,
    _time_terms,
    ansatz_monomials,
    classify,
    solve_symmetries,
    structure_constants,
    verify_coriolis_identity,
)
from ncw.structures import (
    GalileiStructure,
    NCStructure,
    StructureError,
    flat_galilei,
    flat_structure,
    standard_structure,
)
from ncw.tensors import (
    Connection,
    TensorField,
    lie_derivative,
    lie_derivative_connection,
    one_form,
    raise_connection_transport,
    vector,
    vector_bracket,
)


def cor_dim(n, d):
    return (n * (n - 1) // 2 + n) * (d + 1) + 1


def mil_dim(n, d):
    return n * (n - 1) // 2 + n * (d + 1) + 1


def gal_dim(n):
    return (n + 1) * (n + 2) // 2


class TestAnsatz:
    def test_monomial_family(self):
        monos = ansatz_monomials(3, 1)
        assert (1, 0, 0) in monos  # t
        assert (1, 1, 0) in monos  # t x1, one extra spatial degree
        assert (0, 2, 0) in monos  # x1^2
        assert (2, 0, 0) not in monos  # t^2 exceeds the time bound

    def test_count_matches_closed_form(self):
        # j <= d and j + |alpha| <= d + 1
        for dim in (2, 3):
            for d in (0, 1, 2):
                monos = ansatz_monomials(dim, d)
                manual = sum(
                    1
                    for m in ansatz_monomials(dim, d + 2)
                    if m[0] <= d and sum(m) <= d + 1
                )
                assert len(monos) == manual

    @pytest.mark.parametrize("n, d", [(1, 0), (1, 2), (2, 1), (3, 2)])
    def test_column_guard_counts_the_ansatz_exactly(self, n, d, monkeypatch):
        import ncw.solver

        s = flat_structure(n).induced_nc()
        columns = (n + 1) * len(ansatz_monomials(n + 1, d))
        monkeypatch.setattr(ncw.solver, "MAX_ANSATZ_COLUMNS", columns)
        solve_symmetries(s, "galilei", d)
        monkeypatch.setattr(ncw.solver, "MAX_ANSATZ_COLUMNS", columns - 1)
        with pytest.raises(ValueError, match=f"ansatz of {columns} columns exceeds the limit"):
            solve_symmetries(s, "galilei", d)


class TestFlatDimensions:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_coriolis(self, n, d):
        s = flat_structure(n).induced_nc()
        basis = solve_symmetries(s, "coriolis", d)
        assert basis.dimension == cor_dim(n, d)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_milne(self, n, d):
        s = flat_structure(n).induced_nc()
        basis = solve_symmetries(s, "milne", d)
        assert basis.dimension == mil_dim(n, d)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_galilei(self, n, d):
        s = flat_structure(n).induced_nc()
        basis = solve_symmetries(s, "galilei", d)
        assert basis.dimension == gal_dim(n)
        for f in basis.fields:
            # ExtensionError unless the field is affine
            bargmann_from_field(ExtendedElement(f, Poly.zero(n + 1)))

    def test_galilei_degree_two_stays_affine(self, ):
        s = flat_structure(2).induced_nc()
        basis = solve_symmetries(s, "gal", 2)
        assert basis.dimension == 6
        for f in basis.fields:
            for a in range(3):
                assert f.comp(a).total_degree() <= 1


class TestStandardStructure:
    def test_milne_matches_flat_counts_for_any_potential(self):
        # the once-raised transport condition of the standard structures does
        # not see the potential
        for phi in [Poly.zero(3), var(3, 1) ** 2, var(3, 1) * var(3, 2)]:
            s = standard_structure(2, phi).induced_nc()
            basis = solve_symmetries(s, "milne", 2)
            assert basis.dimension == mil_dim(2, 2)
            for f in basis.fields:
                # ExtensionError unless the rotation part is constant
                milne_standard_from_field(ExtendedElement(f, Poly.zero(3)))

    def test_coriolis_fits_time_template(self):
        s = standard_structure(2, var(3, 1) ** 2).induced_nc()
        basis = solve_symmetries(s, "coriolis", 2)
        assert basis.dimension == cor_dim(2, 2)
        for f in basis.fields:
            assert generator_label(f) != "raw"

    def test_harmonic_potential_galilei(self):
        # phi = x1^2: time translation survives, plain spatial translation
        # along x1 does not
        s = standard_structure(1, var(2, 1) ** 2).induced_nc()
        basis = solve_symmetries(s, "galilei", 2)
        flags = classify(basis_vector(2, 0), s)
        assert flags.is_galilei
        flags = classify(basis_vector(2, 1), s)
        assert not flags.is_galilei
        for f in basis.fields:
            assert classify(f, s).is_galilei


class TestNesting:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: flat_structure(2).induced_nc(),
            lambda: standard_structure(2, var(3, 1) ** 2).induced_nc(),
            lambda: flat_structure(3).induced_nc(),
        ],
    )
    def test_solved_bases_nest(self, make):
        s = make()
        gal = solve_symmetries(s, "galilei", 2)
        mil = solve_symmetries(s, "milne", 2)
        cor = solve_symmetries(s, "coriolis", 2)
        assert gal.dimension <= mil.dimension <= cor.dimension
        for f in gal.fields:
            flags = classify(f, s)
            assert flags.is_coriolis and flags.is_milne and flags.is_galilei
        for f in mil.fields:
            flags = classify(f, s)
            assert flags.is_coriolis and flags.is_milne

    def test_galilei_never_exceeds_maximal_dimension(self):
        for n in (1, 2):
            for phi in [Poly.zero(n + 1), var(n + 1, 1) ** 2]:
                s = standard_structure(n, phi).induced_nc()
                for d in (1, 2, 3):
                    basis = solve_symmetries(s, "galilei", d)
                    assert basis.dimension <= gal_dim(n)


class TestClassify:
    def test_flat_boost(self):
        s = flat_structure(2).induced_nc()
        boost = vector(3, [Poly.zero(3), var(3, 0), Poly.zero(3)])
        flags = classify(boost, s)
        assert (flags.is_coriolis, flags.is_milne, flags.is_galilei) == (
            True,
            True,
            True,
        )

    def test_accelerated_frame(self):
        # X^1 = t^2 on the potential-free standard structure: the raised
        # transport survives only at fully timelike lower slots, which the
        # metric contraction kills
        s = flat_structure(1).induced_nc()
        x = vector(2, [Poly.zero(2), var(2, 0) ** 2])
        flags = classify(x, s)
        assert (flags.is_coriolis, flags.is_milne, flags.is_galilei) == (
            True,
            True,
            False,
        )

    def test_dilation(self):
        s = flat_structure(1).induced_nc()
        x = vector(2, [Poly.zero(2), var(2, 1)])
        flags = classify(x, s)
        assert (flags.is_coriolis, flags.is_milne, flags.is_galilei) == (
            False,
            False,
            False,
        )


class TestCoriolisIdentity:
    def test_zero_field(self):
        s = flat_structure(2).induced_nc()
        assert verify_coriolis_identity(vector(3, [Poly.zero(3)] * 3), s)

    def test_solved_bases_on_standard_structures(self):
        x1 = var(3, 1)
        x2 = var(3, 2)
        for phi in [Poly.zero(3), x1, x1**2, x1 * x2]:
            s = standard_structure(2, phi).induced_nc()
            basis = solve_symmetries(s, "coriolis", 2)
            for f in basis.fields:
                assert verify_coriolis_identity(f, s)

    def test_rotating_frame_field(self):
        s = standard_structure(2, var(3, 1) ** 2).induced_nc()
        t = var(3, 0)
        x = vector(3, [Poly.zero(3), t * var(3, 2), -t * var(3, 1)])
        assert lie_derivative(x, s.base.gamma).is_zero
        assert verify_coriolis_identity(x, s)

    def test_non_coriolis_rejected(self):
        s = flat_structure(1).induced_nc()
        with pytest.raises(NotInFlavorError):
            verify_coriolis_identity(vector(2, [Poly.zero(2), var(2, 1)]), s)


def rotation_connection(n, coefficient):
    dim = n + 1
    eps = {(1, 2): coefficient, (2, 1): -coefficient}

    def fn(a, b, c):
        if a == 0 and (b, c) in eps:
            return eps[(b, c)]
        if b == 0 and (a, c) in eps:
            return eps[(a, c)]
        return Poly.zero(dim)

    return Connection.build(dim, fn)


class TestNonNewtonianSpecimen:
    def test_identity_remains_true_for_compatible_connections(self):
        """The doubly-raised transport only sees the fully spatial lower
        slots of the symbols, which compatibility pins down independently of
        the force choice; so the identity holds even for the non-closed
        (time-dependent) rotation deformation."""
        g = flat_galilei(2)
        conn = rotation_connection(2, var(3, 0))
        s = NCStructure(g, conn)
        basis = solve_symmetries(s, "coriolis", 2)
        assert basis.dimension == cor_dim(2, 2)
        for f in basis.fields:
            assert verify_coriolis_identity(f, s)

    def test_milne_condition_detects_the_deformation(self):
        # the once-raised condition does feel the rotation term: the plain
        # time translation stays milne for the flat connection but picks up
        # a forced rotation rate for the deformed one
        g = flat_galilei(2)
        flat_nc = flat_structure(2).induced_nc()
        deformed = NCStructure(g, rotation_connection(2, var(3, 0)))
        time_translation = basis_vector(3, 0)
        assert classify(time_translation, flat_nc).is_milne
        assert not classify(time_translation, deformed).is_milne
        # tau = 1 with matched unit rotation rate: milne for the deformed
        # connection only
        t = var(3, 0)
        matched = vector(3, [Poly.const(3, 1), t * var(3, 2), -t * var(3, 1)])
        assert classify(matched, deformed).is_milne
        assert not classify(matched, flat_nc).is_milne


class TestStructureConstants:
    def test_single_time_translation(self):
        s = flat_structure(2).induced_nc()
        basis = SymmetryBasis(s, "galilei", 1, (basis_vector(3, 0),))
        constants, closed = structure_constants(basis)
        assert closed
        assert constants == [[[Fraction(0)]]]

    def test_flat_galilei_brackets_resubstitute(self):
        s = flat_structure(2).induced_nc()
        basis = solve_symmetries(s, "galilei", 1)
        constants, closed = structure_constants(basis)
        assert closed
        k = basis.dimension
        for i in range(k):
            for j in range(k):
                recomposed = vector(3, [Poly.zero(3)] * 3)
                for m in range(k):
                    recomposed = recomposed + basis.fields[m].scale(
                        constants[i][j][m]
                    )
                direct = vector_bracket(basis.fields[i], basis.fields[j])
                assert (direct - recomposed).is_zero

    def test_named_generator_table_matches_parameter_oracle(self):
        # the structure constants of the named affine generators agree with
        # the parameter-form bracket (center dropped)
        from ncw.extensions import BargmannElement, bargmann_bracket

        s = flat_structure(2).induced_nc()
        named = [
            BargmannElement.make(2, omega={(1, 2): 1}),
            BargmannElement.make(2, beta={1: 1}),
            BargmannElement.make(2, beta={2: 1}),
            BargmannElement.make(2, sigma={1: 1}),
            BargmannElement.make(2, sigma={2: 1}),
            BargmannElement.make(2, tau=1),
        ]
        basis = SymmetryBasis(s, "galilei", 1, tuple(b.to_field() for b in named))
        constants, closed = structure_constants(basis)
        assert closed
        k = len(named)
        for i in range(k):
            for j in range(k):
                oracle = bargmann_bracket(named[i], named[j]).to_field()
                recomposed = vector(3, [Poly.zero(3)] * 3)
                for m in range(k):
                    recomposed = recomposed + basis.fields[m].scale(constants[i][j][m])
                assert (oracle - recomposed).is_zero

    def test_antisymmetry_and_jacobi(self):
        s = flat_structure(2).induced_nc()
        basis = solve_symmetries(s, "galilei", 1)
        constants, closed = structure_constants(basis)
        assert closed
        k = basis.dimension
        for i in range(k):
            for j in range(k):
                for m in range(k):
                    assert constants[i][j][m] == -constants[j][i][m]
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    for target in range(k):
                        total = Fraction(0)
                        for m in range(k):
                            total += constants[i][j][m] * constants[m][l][target]
                            total += constants[j][l][m] * constants[m][i][target]
                            total += constants[l][i][m] * constants[m][j][target]
                        assert total == 0

    def test_truncation_leakage_flag(self):
        # two coriolis fields whose bracket has higher time degree than the
        # span of the handed-in basis
        s = flat_structure(1).induced_nc()
        t = var(2, 0)
        f1 = basis_vector(2, 0)
        f2 = vector(2, [Poly.zero(2), t**2])
        basis = SymmetryBasis(s, "coriolis", 2, (f1, f2))
        constants, closed = structure_constants(basis)
        assert not closed

    def test_coriolis_closure_within_degree(self):
        # [time translation, t^2 boost] drops a degree, so closure holds for
        # the pairs present in the full degree-2 coriolis basis
        s = flat_structure(2).induced_nc()
        basis = solve_symmetries(s, "coriolis", 2)
        time_translation = None
        quad_boost = None
        for f in basis.fields:
            if f.comp(1).is_zero and f.comp(2).is_zero and f.comp(0) == 1:
                time_translation = f
            if f.comp(0).is_zero and f.comp(2).is_zero and f.comp(1) == var(3, 0) ** 2:
                quad_boost = f
        assert time_translation is not None and quad_boost is not None
        bracket = vector_bracket(time_translation, quad_boost)
        assert bracket.comp(1) == 2 * var(3, 0)


class TestStructureConstantsContract:
    """Hand-built bases, which the solver did not produce: a dependent basis
    raises before any bracket, wherever its brackets lie, and every call
    reduces the basis once, one eliminator row per field, with no per-pair
    solve."""

    @pytest.fixture
    def counted(self, monkeypatch):
        import ncw.linalg

        def no_solve(*args):
            raise AssertionError("structure_constants ran a sparse_solve")

        monkeypatch.setattr(ncw.linalg, "sparse_solve", no_solve)
        monkeypatch.setattr(ncw.solver, "sparse_solve", no_solve, raising=False)
        # a preset frame adds rows of its own the first time it is built
        flat_structure(1), flat_structure(2)
        return counting(monkeypatch, SparseEliminator, "add_row")

    def test_dependent_basis_with_a_bracket_in_its_span_raises(self, counted):
        s = flat_structure(1).induced_nc()
        t = var(2, 0)
        # [d_t, t d_x] = d_x, in the span of the repeated translation
        fields = (
            basis_vector(2, 0),
            vector(2, [Poly.zero(2), t]),
            basis_vector(2, 1),
            basis_vector(2, 1).scale(Fraction(2)),
        )
        with pytest.raises(ValueError, match="basis is linearly dependent"):
            structure_constants(SymmetryBasis(s, "coriolis", 1, fields))
        assert len(counted) == len(fields)

    def test_dependent_basis_whose_brackets_leave_the_span_raises(self, counted, monkeypatch):
        brackets = counting(monkeypatch, ncw.solver, "vector_bracket")
        t1, t2 = var(2, 0), var(3, 0)
        cases = [
            # on flat n=1, every bracket is +-[X, Y] = +-2t d_x, outside span{X, Y}
            (flat_structure(1), 2, basis_vector(2, 0), vector(2, [Poly.zero(2), t1**2])),
            # on flat n=2, [d_t, t d_1] = d_1 is outside span{d_t, t d_1}
            (flat_structure(2), 1, basis_vector(3, 0), vector(3, [Poly.zero(3), t2, Poly.zero(3)])),
        ]
        for structure, degree, x, y in cases:
            basis = SymmetryBasis(structure.induced_nc(), "coriolis", degree, (x, y, x + y))
            counted.clear()
            with pytest.raises(ValueError, match="basis is linearly dependent"):
                structure_constants(basis)
            assert len(counted) == 3
        assert brackets == []

    def test_bracket_outside_the_span_on_known_columns_is_open(self, counted):
        # on flat n=1, [x1 d_1, d_t + d_1] = -d_1: its one (component,
        # monomial) is a column of the basis rows, but -d_1 is not in the span
        s = flat_structure(1).induced_nc()
        one = Poly.const(2, 1)
        fields = (vector(2, [Poly.zero(2), var(2, 1)]), vector(2, [one, one]))
        assert vector_bracket(*fields) == vector(2, [Poly.zero(2), -one])
        constants, closed = structure_constants(SymmetryBasis(s, "coriolis", 1, fields))
        assert closed is False
        assert constants == [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
        assert len(counted) == 2

    def test_basis_of_the_zero_field_is_dependent(self):
        s = flat_structure(2).induced_nc()
        zero = vector(3, [Poly.zero(3)] * 3)
        with pytest.raises(ValueError, match="basis is linearly dependent"):
            structure_constants(SymmetryBasis(s, "coriolis", 1, (zero,)))

    def test_one_row_per_basis_field_and_no_solve(self, counted):
        s = flat_structure(2).induced_nc()
        for flavor in FLAVORS:
            basis = solve_symmetries(s, flavor, 1)
            counted.clear()
            structure_constants(basis)
            assert len(counted) == basis.dimension

    def test_each_basis_field_is_differentiated_once(self, monkeypatch):
        # k - 1 brackets read each field's derivative; it is computed once
        from ncw.tensors import _Entries

        s = flat_structure(2).induced_nc()
        derived = counting(monkeypatch, _Entries.__dict__["derivative"], "func")
        for flavor in FLAVORS:
            basis = solve_symmetries(s, flavor, 1)
            derived.clear()
            structure_constants(basis)
            counts = [sum(field is x for (field,) in derived) for x in basis.fields]
            assert counts == [1] * basis.dimension


class TestCurvedCoefficients:
    """The sheared structure: flat geometry written in polynomial curvilinear
    coordinates, so the connection has nonzero fully spatial symbols and the
    raised-transport contractions do nontrivial work."""

    def sheared_nc(self):
        from ncw.structures import GalileiStructure, geodesic_connection
        from ncw.tensors import TensorField, one_form

        dim = 3
        x = var(dim, 1)
        rows = {
            (1, 1): Poly.const(dim, 1),
            (1, 2): x,
            (2, 1): x,
            (2, 2): 1 + x * x,
        }
        gamma = TensorField.build(
            dim, 2, 0, lambda idx: rows.get(idx, Poly.zero(dim))
        )
        theta = one_form(
            dim, [Poly.const(dim, 1), Poly.zero(dim), Poly.zero(dim)]
        )
        g = GalileiStructure(2, gamma, theta)
        u = basis_vector(3, 0)
        conn = geodesic_connection(g, u)
        s = NCStructure(g, conn)
        s.validate()
        return s

    def test_spatial_symbols_are_nonzero(self):
        s = self.sheared_nc()
        spatial = [
            s.connection.symbol(a, b, c)
            for a in (1, 2)
            for b in (1, 2)
            for c in (1, 2)
        ]
        assert any(not p.is_zero for p in spatial)

    def test_nesting_and_identity_on_solved_bases(self):
        s = self.sheared_nc()
        cor = solve_symmetries(s, "coriolis", 2)
        assert cor.dimension > 0
        for f in cor.fields:
            assert verify_coriolis_identity(f, s)
        for f in solve_symmetries(s, "galilei", 2).fields:
            flags = classify(f, s)
            assert flags.is_coriolis and flags.is_milne and flags.is_galilei

    def test_doubly_raised_transport_matches_tensor_transport(self):
        # with L_X gamma = 0 the doubly-raised transport equals the
        # tensor-style Lie derivative of the raised symbols plus the
        # double-raised second-derivative term
        from ncw.tensors import (
            TensorField,
            lie_derivative,
            lie_derivative_connection,
            raise_connection,
            raise_connection_transport,
        )

        s = self.sheared_nc()
        gamma = s.base.gamma
        basis = solve_symmetries(s, "coriolis", 2)
        raised = raise_connection(s.connection, gamma, 2)
        for x in basis.fields:
            ld = lie_derivative_connection(x, s.connection)
            lhs = raise_connection_transport(ld, gamma, 2)

            def hessian(idx, x=x):
                a, b, c = idx
                total = Poly.zero(3)
                for k in range(3):
                    for l in range(3):
                        total = total + gamma.comp(a, k) * gamma.comp(b, l) * x.comp(
                            c
                        ).partial(k).partial(l)
                return total

            rhs = lie_derivative(x, raised) + TensorField.build(3, 3, 0, hessian)
            assert (lhs - rhs).is_zero


class TestDeterminism:
    def test_repeat_solve_is_identical(self):
        s = standard_structure(2, var(3, 1) ** 2).induced_nc()
        b1 = solve_symmetries(s, "milne", 2)
        b2 = solve_symmetries(s, "milne", 2)
        assert len(b1.fields) == len(b2.fields)
        for f1, f2 in zip(b1.fields, b2.fields):
            assert (f1 - f2).is_zero


def rows_column_by_column(s, flavor, monos):
    """The rows of the flavor's defining equations assembled one column at a
    time, from the one-monomial field of each column, keyed (condition
    block, index, monomial) like the one-pass assembly."""
    g = s.base
    dim = g.dimension
    rows = {}
    for comp in range(dim):
        for j, mono in enumerate(monos):
            comps = [Poly.zero(dim)] * dim
            comps[comp] = Poly.monomial(dim, mono)
            x = vector(dim, comps)
            ld = lie_derivative_connection(x, s.connection)
            blocks = [lie_derivative(x, g.gamma), lie_derivative(x, g.theta)] + {
                "coriolis": [],
                "milne": [raise_connection_transport(ld, g.gamma, 1)],
                "galilei": [ld],
            }[flavor]
            for block, field in enumerate(blocks):
                for idx, poly in field.nonzero.items():
                    for exps, coeff in poly.terms.items():
                        rows.setdefault((block, idx, exps), {})[comp * len(monos) + j] = coeff
    return rows


SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def projected_rows(rows, kernel):
    """The joint rows of the connection block (block 2) restricted to
    Y = sum_i y_i k_i: row r becomes {i: r . k_i}, keyed with block 0 like
    stage two's rows; rows that vanish on the kernel are left out."""
    out = {}
    for (block, idx, exps), row in rows.items():
        if block != 2:
            continue
        projected = {i: sum(row.get(c, 0) * v for c, v in k.items()) for i, k in enumerate(kernel)}
        if projected := {i: v for i, v in projected.items() if v}:
            out[(0, idx, exps)] = projected
    return out


def ansatz_vectors(basis, monos):
    """Each basis field as its sparse vector over the ansatz columns."""
    index = {m: j for j, m in enumerate(monos)}
    return [
        {c * len(monos) + index[m]: v for (c,), p in f.nonzero.items() for m, v in p.terms.items()}
        for f in basis.fields
    ]


def kernel_in_order(rows, order, ncols):
    elim = SparseEliminator(ncols)
    for key in order:
        elim.add_row(rows[key])
    return elim.kernel()


def dropped(key, flavor):
    """Whether a row of the column-by-column reference lies in a triangle
    the solver leaves out: L_X gamma (block 0) and, for galilei, the lower
    pair of L_X G (block 2) keep index[-2] <= index[-1] only."""
    block, idx, _ = key
    return (block == 0 or (block == 2 and flavor == "galilei")) and idx[-2] > idx[-1]


def mirrored(key):
    """The key with the last two indices of its index swapped."""
    block, idx, exps = key
    return block, idx[:-2] + (idx[-1], idx[-2]), exps


@pytest.mark.parametrize("sample", ["flat2", "oscillator", "sheared"])
def test_one_pass_rows_equal_the_column_by_column_rows(sample):
    # stage one's rows are the joint metric-pair rows of one triangle of
    # L_X gamma; stage two's are the joint connection rows on the
    # coordinates of the Coriolis kernel, of one triangle for galilei
    s = build_structure(parse_structure((SAMPLES / f"{sample}.ncw").read_text())).nc
    monos = ansatz_monomials(s.base.dimension, 2)
    metric = _metric_pair_rows(s, monos)
    assert all(metric.values())
    reference = rows_column_by_column(s, "coriolis", monos)
    assert metric == {key: row for key, row in reference.items() if not dropped(key, "coriolis")}
    kernel = sparse_kernel(metric.values(), s.base.dimension * len(monos))
    for flavor in ("milne", "galilei"):
        joint = {
            key: row
            for key, row in rows_column_by_column(s, flavor, monos).items()
            if not dropped(key, flavor)
        }
        assert metric == {key: row for key, row in joint.items() if key[0] < 2}, flavor
        rows = _connection_rows(s, flavor, kernel, monos)
        assert rows == projected_rows(joint, kernel), flavor
        assert all(rows.values()), flavor


@pytest.mark.parametrize("sample", ["flat2", "oscillator", "sheared"])
def test_each_dropped_triangle_equals_the_kept_one(sample):
    # L_X gamma and the lower pair of L_X G are symmetric, so every row the
    # solver leaves out equals the kept row of the mirrored index, in the
    # joint system and on the Coriolis kernel alike; the milne block is not
    # symmetric and loses nothing
    s = build_structure(parse_structure((SAMPLES / f"{sample}.ncw").read_text())).nc
    monos = ansatz_monomials(s.base.dimension, 2)
    kernel = sparse_kernel(_metric_pair_rows(s, monos).values(), s.base.dimension * len(monos))
    for flavor in ("milne", "galilei"):
        joint = rows_column_by_column(s, flavor, monos)
        assert any(dropped(key, flavor) for key in joint), flavor
        # stage two's rows are keyed block 0; only the galilei ones are symmetric
        stage_two = projected_rows(joint, kernel) if flavor == "galilei" else {}
        for rows in (joint, stage_two):
            gone = [key for key in rows if dropped(key, flavor)]
            for key in gone:
                assert rows.get(mirrored(key)) == rows[key], (flavor, key)
            assert {mirrored(key) for key in gone} == {
                key for key in rows if len(key[1]) > 1 and dropped(mirrored(key), flavor)
            }, flavor


def test_solve_refuses_an_asymmetric_gamma():
    # stage one reads one triangle of L_X gamma, which is all of it only for
    # a symmetric gamma: gamma_11 = gamma_22 = 1 with gamma_21 = x1 alone
    # would solve a different system, so the solver refuses it first
    dim = 3
    one = Poly.const(dim, 1)
    gamma = TensorField(dim, 2, 0, {(1, 1): one, (2, 2): one, (2, 1): var(dim, 1)})
    theta = TensorField(dim, 0, 1, {(0,): one})
    s = NCStructure(GalileiStructure(2, gamma, theta), Connection.zero(dim))
    for flavor in FLAVORS:
        with pytest.raises(StructureError, match=r"^gamma not symmetric at \(1,2\)$"):
            solve_symmetries(s, flavor, 1)


@pytest.mark.parametrize("degree", [1.9, True, "1", 1.0], ids=["float", "bool", "str", "integral-float"])
def test_a_degree_that_is_not_an_int_is_refused(degree):
    # int(degree) solved each of these at degree 1
    s = flat_structure(1).induced_nc()
    with pytest.raises(ValueError, match=f"degree bound must be an int, not {type(degree).__name__}$"):
        solve_symmetries(s, "cor", degree)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_a_structure_that_is_not_an_nc_structure_is_refused(flavor):
    # an NCB structure failed with AttributeError for milne and galilei,
    # and coriolis quietly solved it
    with pytest.raises(TypeError, match="^solve_symmetries needs an NCStructure, not NCBStructure$"):
        solve_symmetries(flat_structure(1), flavor, 1)


def test_rows_and_basis_stay_canonical_on_a_fractional_metric():
    # gamma = diag(1/2, 2): assembly multiplies Fractions by ints into
    # integral values, which must come out as ints
    text = "n = 2\ngamma[1][1] = 1/2\ngamma[2][2] = 2\ntheta[0] = 1\nU[0] = 1\nA[0] = 0\n"
    s = build_structure(parse_structure(text)).nc
    monos = ansatz_monomials(3, 2)
    metric = _metric_pair_rows(s, monos)
    kernel = sparse_kernel(metric.values(), 3 * len(monos))
    stages = [_connection_rows(s, flavor, kernel, monos) for flavor in ("milne", "galilei")]
    for rows in [metric] + stages:
        assert rows
        assert all(is_canonical(v) for form in rows.values() for v in form.values())
    for flavor in FLAVORS:
        fields = solve_symmetries(s, flavor, 2).fields
        assert fields, flavor
        assert all(
            is_canonical(c)
            for f in fields
            for comp in f.nonzero.values()
            for c in comp.terms.values()
        ), flavor
    # d/dx1 of (x1^2 / 2) u_0 is the int form x1 u_0
    form = _FormPoly(3, {(0, 0, 0): {0: 1}}) * (Fraction(1, 2) * var(3, 1) ** 2)
    assert form.partial(1).terms == {(0, 1, 0): {0: 1}}
    assert type(form.partial(1).terms[(0, 1, 0)][0]) is int


@pytest.mark.parametrize(
    "text, flavor",
    [("flat n=3", "milne"), ("standard n=3 phi = x1^2 + x2^2 + t*x3", "galilei")],
)
def test_kernel_does_not_depend_on_row_order(text, flavor):
    # the reduced echelon form is unique, so each stage may feed its rows in
    # whatever order eliminates fastest, and the chain gives the canonical
    # kernel of the joint system in any order
    s = build_structure(parse_structure(text + "\n")).nc
    monos = ansatz_monomials(s.base.dimension, 3)
    ncols = s.base.dimension * len(monos)

    def orders(rows):
        shuffled = sorted(rows)
        random.Random(5).shuffle(shuffled)
        # the solver's feed: one-entry rows first, then the others in stage order
        feed = [k for k in rows if len(rows[k]) == 1] + [k for k in rows if len(rows[k]) > 1]
        return [sorted(rows, key=lambda k: (len(rows[k]) > 1, k)), sorted(rows), shuffled, feed]

    metric = _metric_pair_rows(s, monos)
    kernels = [kernel_in_order(metric, order, ncols) for order in orders(metric)]
    assert all(kernel == kernels[0] for kernel in kernels[1:])
    rows = _connection_rows(s, flavor, kernels[0], monos)
    coords = [kernel_in_order(rows, order, len(kernels[0])) for order in orders(rows)]
    assert all(coord == coords[0] for coord in coords[1:])
    basis = solve_symmetries(s, flavor, 3)
    assert len(coords[0]) == basis.dimension
    joint = rows_column_by_column(s, flavor, monos)
    assert ansatz_vectors(basis, monos) == kernel_in_order(joint, orders(joint)[2], ncols)


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_degree_zero_matches_the_joint_kernel(n, flavor):
    phi = sum((var(n + 1, a) ** 2 for a in range(1, n + 1)), var(n + 1, 0) * var(n + 1, n))
    monos = ansatz_monomials(n + 1, 0)
    for s in (flat_structure(n).induced_nc(), standard_structure(n, phi).induced_nc()):
        joint = rows_column_by_column(s, flavor, monos)
        basis = solve_symmetries(s, flavor, 0)
        assert basis.dimension
        expected = kernel_in_order(joint, sorted(joint), (n + 1) * len(monos))
        assert ansatz_vectors(basis, monos) == expected


@pytest.mark.parametrize("flavor", ["milne", "galilei"])
def test_no_stage_two_rows_keeps_the_coriolis_basis(flavor):
    # at degree 0 every flat Coriolis field is affine: its second derivatives
    # and the flat symbols vanish, so L_X G has no term on the kernel
    s = flat_structure(2).induced_nc()
    monos = ansatz_monomials(3, 0)
    kernel = sparse_kernel(_metric_pair_rows(s, monos).values(), 3 * len(monos))
    assert kernel
    assert _connection_rows(s, flavor, kernel, monos) == {}
    assert _restrict(s, flavor, kernel, monos) == kernel
    coriolis = solve_symmetries(s, "coriolis", 0).fields
    assert solve_symmetries(s, flavor, 0).fields == coriolis


def test_empty_coriolis_kernel():
    # gamma^11 = 1 + t x1 admits no Coriolis field at these degrees, so
    # stage two never runs; on an empty kernel it has no rows and no basis
    dim = 2
    gamma = TensorField(dim, 2, 0, {(1, 1): 1 + var(dim, 0) * var(dim, 1)})
    theta = TensorField(dim, 0, 1, {(0,): Poly.const(dim, 1)})
    s = NCStructure(GalileiStructure(1, gamma, theta), Connection.zero(dim))
    for d in range(3):
        for flavor in FLAVORS:
            assert solve_symmetries(s, flavor, d).fields == (), (flavor, d)
    flat = flat_structure(1).induced_nc()
    monos = ansatz_monomials(dim, 1)
    for flavor in ("milne", "galilei"):
        assert _connection_rows(flat, flavor, [], monos) == {}
        assert _restrict(flat, flavor, [], monos) == []


# ----------------------------------------------------------------------
# the Coriolis kernel kept on the Galilei pair, once per degree bound


def oscillator(n):
    """The potential x1^2 + ... + xn^2 of the standard oscillator preset."""
    return sum((var(n + 1, a) ** 2 for a in range(1, n + 1)), Poly.zero(n + 1))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [0, 1, 2])
def test_a_preset_basis_is_the_basis_on_a_pair_of_its_own(n, d):
    # the flat and oscillator presets of one n hold the frame's pair: the
    # first solve of (n, d) fills its kernel and the second reads it, and
    # each equals the solve on a fresh flat pair with the same connection
    for flavor in FLAVORS:
        fresh_frames()
        presets = [flat_structure(n).induced_nc(), standard_structure(n, oscillator(n)).induced_nc()]
        assert presets[0].base is presets[1].base
        assert d not in presets[0].base._coriolis_kernels
        for s in presets:
            own = NCStructure(flat_galilei(n), s.connection)
            fields = solve_symmetries(s, flavor, d).fields
            assert fields == solve_symmetries(own, flavor, d).fields, flavor
            assert d in s.base._coriolis_kernels


def test_a_second_preset_solve_adds_no_stage_one_rows(monkeypatch):
    fresh_frames()
    flat, osc = flat_structure(2).induced_nc(), standard_structure(2, oscillator(2)).induced_nc()
    calls = counting(monkeypatch, ncw.solver, "lie_derivative")
    solve_symmetries(flat, "coriolis", 1)
    assert [args[1] for args in calls] == [flat.base.gamma, flat.base.theta]
    for flavor in FLAVORS:
        calls.clear()
        solve_symmetries(osc, flavor, 1)
        solve_symmetries(flat, flavor, 1)
        assert not any(args[1] is osc.base.gamma for args in calls), flavor
    # another bound is another stage one
    solve_symmetries(osc, "milne", 2)
    assert sum(args[1] is osc.base.gamma for args in calls) == 1


@pytest.mark.parametrize("sample", ["flat2", "oscillator", "sheared"])
def test_the_cached_kernel_is_not_changed_by_stage_two(sample):
    # the flat2 and oscillator documents hold the frame's pair
    fresh_frames()
    s = build_structure(parse_structure((SAMPLES / f"{sample}.ncw").read_text())).nc
    coriolis = solve_symmetries(s, "coriolis", 2).fields
    kernel = s.base._coriolis_kernels[2]
    before = copy.deepcopy(kernel)
    assert solve_symmetries(s, "milne", 2).dimension
    assert solve_symmetries(s, "galilei", 2).dimension
    assert s.base._coriolis_kernels[2] is kernel
    assert kernel == before
    assert solve_symmetries(s, "coriolis", 2).fields == coriolis


@pytest.mark.parametrize(
    "flavor, degree",
    [("cor", True), ("cor", -1), ("cor", 1.5), ("cor", 200), ("lorentz", 1), (1, 1)],
    ids=["bool", "negative", "float", "too-many-columns", "unknown-flavor", "int-flavor"],
)
def test_a_refused_solve_leaves_the_cache_empty(flavor, degree):
    # every check runs before the lookup: True is never read as key 1
    s = NCStructure(flat_galilei(2), flat_structure(2).induced_connection())
    with pytest.raises(ValueError):
        solve_symmetries(s, flavor, degree)
    assert s.base._coriolis_kernels == {}
    solve_symmetries(s, "cor", 1)
    assert list(s.base._coriolis_kernels) == [1]


def test_two_parsed_documents_do_not_share_their_cache():
    text = (SAMPLES / "sheared.ncw").read_text()
    first, second = (build_structure(parse_structure(text)).nc for _ in range(2))
    assert first.base is not second.base
    solve_symmetries(first, "coriolis", 1)
    assert second.base._coriolis_kernels == {}
    solve_symmetries(second, "coriolis", 1)
    ours, theirs = first.base._coriolis_kernels[1], second.base._coriolis_kernels[1]
    assert ours == theirs and ours is not theirs


@pytest.mark.parametrize("flavor", [1, None, 1.0, ["gal"]])
def test_a_flavor_that_is_not_a_string_is_refused(flavor):
    # .lower() raised AttributeError on each of these
    with pytest.raises(ValueError, match="^unknown symmetry flavor "):
        solve_symmetries(flat_structure(1).induced_nc(), flavor, 1)


def test_classify_refuses_a_structure_that_is_not_an_nc_structure():
    # an NCB structure failed with "'NCBStructure' object has no attribute
    # 'connection'"
    x = basis_vector(3, 0)
    for s in (flat_structure(2), flat_galilei(2), None):
        with pytest.raises(TypeError, match=f"^classify needs an NCStructure, not {type(s).__name__}$"):
            classify(x, s)
    with pytest.raises(TypeError, match="^classify needs an NCStructure, not NCBStructure$"):
        verify_coriolis_identity(x, flat_structure(2))


@st.composite
def form_polys(draw, dimension=2):
    """A _FormPoly over columns 0..3 whose terms often share one form."""
    forms = draw(
        st.lists(
            st.dictionaries(
                st.integers(0, 3), nonzero_coefficients().map(_q), min_size=1, max_size=3
            ),
            min_size=1,
            max_size=3,
        )
    )
    keys = draw(st.lists(st.tuples(*[st.integers(0, 3)] * dimension), max_size=4, unique=True))
    return _FormPoly(dimension, {e: draw(st.sampled_from(forms)) for e in keys})


def reference_terms(pairs):
    """The sum of coeff * form over (exponents, coeff, form) triples, in
    Fractions, with zero coefficients and empty forms dropped."""
    out = {}
    for exps, coeff, form in pairs:
        target = out.setdefault(exps, {})
        for col, v in form.items():
            target[col] = target.get(col, Fraction(0)) + Fraction(coeff) * Fraction(v)
    out = {e: {col: v for col, v in form.items() if v} for e, form in out.items()}
    return {e: form for e, form in out.items() if form}


def assert_clean(result, oracle):
    assert result.terms == oracle
    for form in result.terms.values():
        assert form and all(v != 0 and is_canonical(v) for v in form.values()), result.terms


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_form_poly_arithmetic_matches_a_brute_force_reference(shape, data):
    f = data.draw(form_polys())
    g = data.draw(form_polys())
    p = data.draw(shaped_polys(2, shape))
    before = copy.deepcopy((f.terms, g.terms, p.terms))
    product = reference_terms(
        (tuple(a + b for a, b in zip(e1, e2)), c, form)
        for e1, form in f.terms.items()
        for e2, c in p.terms.items()
    )
    assert_clean(f * p, product)
    assert_clean(p * f, product)
    total = [(e, 1, form) for h in (f, g) for e, form in h.terms.items()]
    assert_clean(f + g, reference_terms(total))
    for axis in range(2):
        derivative = reference_terms(
            (e[:axis] + (e[axis] - 1,) + e[axis + 1 :], e[axis], form)
            for e, form in f.terms.items()
            if e[axis]
        )
        assert_clean(f.partial(axis), derivative)
    if shape == "one":
        assert f * p is f and p * f is f
    # results share forms with their operands, which therefore must not change
    assert (f.terms, g.terms, p.terms) == before


@pytest.mark.parametrize(
    "text, flavor",
    [("flat n=3", "milne"), ("standard n=3 phi = x1^2 + x2^2 + t*x3", "galilei")],
)
def test_assembly_and_solve_change_none_of_their_operands(text, flavor, monkeypatch):
    # products by 1, monomial shifts, sums and partials share forms and Poly
    # terms with their operands, and the map back reads the Coriolis kernel
    # vectors after stage two has used them: none of them may be changed in
    # place.  A fresh frame, whose pair has no Coriolis kernel yet, makes
    # the solve run stage one
    fresh_frames()
    s = build_structure(parse_structure(text + "\n")).nc

    def structure_terms():
        fields = (s.base.gamma, s.base.theta, s.connection)
        return [{idx: p.terms for idx, p in f.nonzero.items()} for f in fields]

    structure_before = copy.deepcopy(structure_terms())
    generic, rows, kernels = [], [], []
    add_row, kernel = SparseEliminator.add_row, SparseEliminator.kernel

    def recording(operator):
        def record(x, t, **options):
            generic.append((x, copy.deepcopy([c.terms for c in x.nonzero.values()])))
            return operator(x, t, **options)

        return record

    def recording_add_row(self, row):
        rows.append((row, copy.deepcopy(row)))
        return add_row(self, row)

    def recording_kernel(self):
        vectors = kernel(self)
        kernels.append((vectors, copy.deepcopy(vectors)))
        return vectors

    for name in ("lie_derivative", "lie_derivative_connection"):
        monkeypatch.setattr(ncw.solver, name, recording(getattr(ncw.solver, name)))
    monkeypatch.setattr(SparseEliminator, "add_row", recording_add_row)
    monkeypatch.setattr(SparseEliminator, "kernel", recording_kernel)
    assert solve_symmetries(s, flavor, 3).dimension
    # stage one's field (for gamma, then theta), then stage two's, whose
    # unknowns are the coordinates on the Coriolis kernel
    assert len(generic) == 3 and generic[0][0] is generic[1][0]
    assert len(kernels) == 2 and rows
    coriolis = kernels[0][0]
    assert {
        col for c in generic[2][0].nonzero.values() for form in c.terms.values() for col in form
    } == set(range(len(coriolis)))
    assert structure_terms() == structure_before
    for x, terms in generic:
        assert [c.terms for c in x.nonzero.values()] == terms
    for row, copied in rows:
        assert row == copied
    for vectors, copied in kernels:
        assert vectors == copied
    one = Poly.const(s.base.dimension, 1)
    x, terms = generic[0]
    for c, c_terms in zip(x.nonzero.values(), terms):
        assert c * one is c and one * c is c
        assert c.terms == c_terms


# ----------------------------------------------------------------------
# the one-pass template reading against the fit it replaced

# The fit and affine reading that the one-pass reading replaced, kept as the
# reference: it builds a Poly for every omega^A_B and compares Polys.


class Template(NamedTuple):
    """X^0 = tau; X^A = omega(t)^A_B x^B + rho(t)^A, omega keyed (a, b) with
    1 <= a < b <= n."""

    n: int
    omega: dict[tuple[int, int], Poly]
    rho: tuple[Poly, ...]
    tau: Fraction


class Affine(NamedTuple):
    """A template with constant omega and rho = beta t + sigma."""

    n: int
    omega: dict[tuple[int, int], Fraction]
    beta: tuple[Fraction, ...]
    sigma: tuple[Fraction, ...]
    tau: Fraction


def reference_time_fit(x: TensorField) -> Template | None:
    """Exact template fit; None when the field does not have the shape."""
    dim = x.dimension
    n = dim - 1
    x0 = x.comp(0)
    if not x0.depends_only_on([]):  # constant
        return None
    tau = x0.coefficient((0,) * dim)
    omega_full: dict[tuple[int, int], Poly] = {}
    rho = []
    for a in range(1, dim):
        comp = x.comp(a)
        rho_terms = {}
        omega_terms: dict[int, dict] = {b: {} for b in range(1, dim)}
        for exps, coeff in comp.terms.items():
            spatial = [(i, e) for i, e in enumerate(exps) if i >= 1 and e > 0]
            if not spatial:
                rho_terms[exps] = coeff
            elif len(spatial) == 1 and spatial[0][1] == 1:
                b = spatial[0][0]
                key = (exps[0],) + (0,) * n
                omega_terms[b][key] = coeff
            else:
                return None
        rho.append(Poly(dim, rho_terms))
        for b in range(1, dim):
            omega_full[(a, b)] = Poly(dim, omega_terms[b])
    for a in range(1, dim):
        for b in range(1, dim):
            if omega_full[(a, b)] != -omega_full[(b, a)]:
                return None
    omega = {
        (a, b): omega_full[(a, b)]
        for a in range(1, dim)
        for b in range(a + 1, dim)
    }
    return Template(n, omega, tuple(rho), tau)


def reference_affine_template(fit: Template) -> Affine | None:
    """The affine form of a time-template fit; None when it is not affine."""
    dim = fit.n + 1
    omega = {}
    for key, w in fit.omega.items():
        if not w.depends_only_on([]):
            return None
        omega[key] = w.coefficient((0,) * dim)
    beta = []
    sigma = []
    t_unit = tuple([1] + [0] * fit.n)
    zero = (0,) * dim
    for r in fit.rho:
        if r.total_degree() > 1 or not r.depends_only_on([0]):
            return None
        beta.append(r.coefficient(t_unit))
        sigma.append(r.coefficient(zero))
    return Affine(fit.n, omega, tuple(beta), tuple(sigma), fit.tau)


def reference_generator_label(x: TensorField) -> str:
    """Best-effort template tag for a symmetry field; raw on no fit."""
    timed = reference_time_fit(x)
    if timed is None:
        return "raw"
    affine = reference_affine_template(timed)
    if affine is not None:
        parts = []
        for (a, b), w in sorted(affine.omega.items()):
            if w:
                parts.append(f"rotation[{a},{b}]" + ("" if w == 1 else f"*{w}"))
        for i, v in enumerate(affine.beta, start=1):
            if v:
                parts.append(f"boost[{i}]" + ("" if v == 1 else f"*{v}"))
        for i, v in enumerate(affine.sigma, start=1):
            if v:
                parts.append(f"translation[{i}]" + ("" if v == 1 else f"*{v}"))
        if affine.tau:
            parts.append(
                "time-translation" + ("" if affine.tau == 1 else f"*{affine.tau}")
            )
        return " + ".join(parts) if parts else "zero"

    def coeff(tag, p):
        return tag if p == 1 else f"{tag}*({p})"

    parts = []
    for (a, b), w in sorted(timed.omega.items()):
        if not w.is_zero:
            parts.append(coeff(f"rotation[{a},{b}]", w))
    for i, r in enumerate(timed.rho, start=1):
        if not r.is_zero:
            parts.append(coeff(f"translation[{i}]", r))
    if timed.tau:
        parts.append("time-translation" + ("" if timed.tau == 1 else f"*{timed.tau}"))
    return " + ".join(parts) if parts else "zero"


MISSES = ("clock", "square", "product", "diagonal", "one-sided")


@st.composite
def template_fields(draw):
    """(field, template): a field of the template shape, with polynomial
    omega(t) and rho(t) and constant tau, and the template it was built from;
    or (near miss, None), that field spoiled by one term off the shape."""
    n = draw(st.integers(1, 3))
    dim = n + 1
    t = Poly.variable(dim, 0)
    coefficients = st.one_of(st.just(0), nonzero_coefficients())

    def time_poly():
        coeffs = draw(st.lists(coefficients, max_size=3))
        return sum((c * t**k for k, c in enumerate(coeffs)), Poly.zero(dim))

    omega = {(a, b): time_poly() for a in range(1, dim) for b in range(a + 1, dim)}
    rho = tuple(time_poly() for _ in range(n))
    tau = draw(coefficients)
    full = omega | {(b, a): -w for (a, b), w in omega.items()}
    x = coriolis_field(n, full, rho, tau)
    miss = draw(st.sampled_from((None,) + MISSES))
    if miss is None:
        return x, Template(n, omega, rho, tau)
    comps = [x.comp(a) for a in range(dim)]
    term = draw(nonzero_coefficients()) * t ** draw(st.integers(0, 2))
    # two distinct spatial axes; for n = 1 both are x1
    a, b = draw(st.permutations(range(1, dim)))[:2] if n > 1 else (1, 1)
    if miss == "clock":
        comps[0] += term * var(dim, draw(st.integers(0, n)))
    elif miss == "square":
        comps[a] += term * var(dim, b) ** 2
    elif miss == "product":
        comps[a] += term * var(dim, a) * var(dim, b)
    else:
        # omega^A_A, or omega^A_B with no matching omega^B_A
        comps[a] += term * var(dim, a if miss == "diagonal" else b)
    return vector(dim, comps), None


@settings(max_examples=150, deadline=None)
@given(template_fields())
def test_one_pass_fit_matches_the_reference(drawn):
    x, template = drawn
    fit = reference_time_fit(x)
    assert fit == template
    assert generator_label(x) == reference_generator_label(x)
    dim = x.dimension
    e = ExtendedElement(x, Poly.zero(dim))
    constant = fit is not None and all(w.depends_only_on([]) for w in fit.omega.values())
    affine = None if fit is None else reference_affine_template(fit)
    if not constant:
        with pytest.raises(ExtensionError):
            milne_standard_from_field(e)
    else:
        rotation = {key: w.coefficient((0,) * dim) for key, w in fit.omega.items()}
        rows = BargmannElement.make(fit.n, omega=rotation).omega
        milne = milne_standard_from_field(e)
        assert milne == MilneStandardElement(rows, fit.rho, fit.tau, e.f)
        assert milne.to_field() == x
    if affine is None:
        with pytest.raises(ExtensionError):
            bargmann_from_field(e)
    else:
        enumerated = [dict(enumerate(v, 1)) for v in (affine.beta, affine.sigma)]
        assert bargmann_from_field(e) == BargmannElement.make(
            affine.n, affine.omega, *enumerated, affine.tau
        )


@pytest.mark.parametrize(
    "field",
    [
        one_form(2, [Poly.zero(2), Poly.const(2, 1)]),
        TensorField(2, 2, 0, {(0, 1): Poly.const(2, 1)}),
    ],
    ids=["constant-one-form", "two-zero-tensor"],
)
def test_template_fits_refuse_fields_that_are_not_vectors(field):
    # a constant 1-form is not a translation, and a (2,0) tensor has no
    # component X^a to read
    # the refits read only an ExtendedElement, which refuses the field first
    for fit in (_time_terms, generator_label, lambda f: ExtendedElement(f, Poly.zero(2))):
        with pytest.raises(ValueError, match="needs a vector field"):
            fit(field)

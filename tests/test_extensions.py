"""Extended algebras: pinned boosts, parameter splits, the standard-case
bracket table, the Bargmann algebra, and cocycle (non)triviality."""

import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncw.extensions
from helpers import (
    basis_vector,
    coboundary_from_functional,
    counting,
    is_canonical,
    nonzero_coefficients,
    random_poly,
    var,
)
from ncw.extensions import (
    BargmannElement,
    CocycleError,
    ExtendedElement,
    ExtensionError,
    MilneStandardElement,
    bargmann_bracket,
    boost_for_coriolis,
    cocycle_triviality,
    extended_cor_bracket,
    extended_gal_bracket,
    extended_mil_bracket,
    extend,
    gal_extension_cocycle,
    galilei_f_solve,
    bargmann_from_field,
    milne_f_split,
    milne_standard_from_field,
    noncentrality_check,
)
from ncw.gauge import GaugeElement, infinitesimal_gauge
from ncw.poly import Poly
from ncw.solver import (
    NotInFlavorError,
    SymmetryBasis,
    solve_symmetries,
)
from ncw.structures import flat_structure, standard_structure
from ncw.tensors import TensorField, gradient, lie_derivative, one_form, vector


def milne_oracle(e1: MilneStandardElement, e2: MilneStandardElement):
    """Independent implementation of the standard-case bracket table on
    parameters: rotation commutator, rotated/boosted translations, and the
    time-function output tau xi'. - tau' xi. + rho.rho'. - rho'.rho. ."""
    n = e1.n

    def matmul(a, b):
        return tuple(
            tuple(
                sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
                for j in range(n)
            )
            for i in range(n)
        )

    def matvec(m, v):
        return tuple(
            sum((m[i][k] * v[k] for k in range(n)), Poly.zero(v[0].dimension))
            for i in range(n)
        )

    p21 = matmul(e2.omega, e1.omega)
    p12 = matmul(e1.omega, e2.omega)
    omega = tuple(tuple(p21[i][j] - p12[i][j] for j in range(n)) for i in range(n))
    rho_dot1 = tuple(r.partial(0) for r in e1.rho)
    rho_dot2 = tuple(r.partial(0) for r in e2.rho)
    rho = tuple(
        matvec(e2.omega, e1.rho)[i]
        - matvec(e1.omega, e2.rho)[i]
        + e1.tau * rho_dot2[i]
        - e2.tau * rho_dot1[i]
        for i in range(n)
    )
    dim = e1.rho[0].dimension
    xi = (
        e1.tau * e2.xi.partial(0)
        - e2.tau * e1.xi.partial(0)
        + sum((e1.rho[i] * rho_dot2[i] for i in range(n)), Poly.zero(dim))
        - sum((e2.rho[i] * rho_dot1[i] for i in range(n)), Poly.zero(dim))
    )
    return MilneStandardElement(omega, rho, Fraction(0), xi)


def mk_milne(n, omega=None, rho=None, tau=0, xi=None):
    dim = n + 1
    om = [[Fraction(0)] * n for _ in range(n)]
    if omega:
        for (a, b), v in omega.items():
            om[a - 1][b - 1] = Fraction(v)
            om[b - 1][a - 1] = -Fraction(v)
    rh = [Poly.zero(dim) for _ in range(n)]
    if rho:
        for a, p in rho.items():
            rh[a - 1] = p
    return MilneStandardElement(
        tuple(tuple(r) for r in om),
        tuple(rh),
        Fraction(tau),
        xi if xi is not None else Poly.zero(dim),
    )


@pytest.mark.parametrize("f", [0, Fraction(1, 2), "t"], ids=["int", "fraction", "str"])
def test_extended_element_refuses_a_parameter_that_is_not_a_poly(f):
    with pytest.raises(TypeError, match=f"^{re.escape(repr(f))} is not a Poly$"):
        ExtendedElement(basis_vector(3, 0), f)


@pytest.mark.parametrize("x", [0, "X", Poly.zero(3)], ids=["int", "str", "poly"])
def test_extended_element_refuses_a_field_that_is_not_a_tensor_field(x):
    with pytest.raises(TypeError, match=f"^{re.escape(repr(x))} is not a TensorField$"):
        ExtendedElement(x, Poly.zero(3))


def test_milne_refit_refuses_a_parameter_that_depends_on_space():
    e = ExtendedElement(basis_vector(3, 1), var(3, 1))
    with pytest.raises(ExtensionError, match="^parameter must depend on time only$"):
        milne_standard_from_field(e)


class TestBoostForCoriolis:
    def test_space_translation_needs_no_boost(self):
        s = flat_structure(2)
        psi = boost_for_coriolis(basis_vector(3, 1), s)
        assert psi.is_zero

    def test_boost_field(self):
        s = flat_structure(2)
        x = vector(3, [Poly.zero(3), var(3, 0), Poly.zero(3)])
        psi = boost_for_coriolis(x, s)
        assert psi.comp(1) == Poly.const(3, 1)
        assert psi.comp(0).is_zero and psi.comp(2).is_zero
        d = infinitesimal_gauge(s, GaugeElement(x, psi, Poly.zero(3)))
        assert d.d_u.is_zero

    def test_time_dependent_rotation(self):
        s = flat_structure(2)
        t, x1, x2 = var(3, 0), var(3, 1), var(3, 2)
        x = vector(3, [Poly.zero(3), t * x2, -t * x1])
        psi = boost_for_coriolis(x, s)
        assert psi.comp(1) == x2
        assert psi.comp(2) == -x1
        assert psi.comp(0).is_zero

    def test_fixes_ether_field_for_random_coriolis(self):
        from helpers import random_coriolis_field

        rng = random.Random(41)
        s = standard_structure(2, var(3, 1) ** 2)
        for _ in range(10):
            x = random_coriolis_field(rng, 2)
            psi = boost_for_coriolis(x, s)
            d = infinitesimal_gauge(s, GaugeElement(x, psi, Poly.zero(3)))
            assert d.d_u.is_zero

    def test_rejects_non_coriolis(self):
        s = flat_structure(1)
        with pytest.raises(NotInFlavorError):
            boost_for_coriolis(vector(2, [Poly.zero(2), var(2, 1)]), s)


class TestExtendedCoriolis:
    def test_self_bracket(self):
        s = flat_structure(2)
        e = ExtendedElement(basis_vector(3, 1), var(3, 0) * var(3, 1))
        out = extended_cor_bracket(e, e, s)
        assert out.x.is_zero and out.f.is_zero

    def test_time_translation_against_function(self):
        s = flat_structure(2)
        e1 = ExtendedElement(basis_vector(3, 0), Poly.zero(3))
        e2 = ExtendedElement(TensorField.zero(3, 1, 0), var(3, 0) * var(3, 1))
        out = extended_cor_bracket(e1, e2, s)
        assert out.x.is_zero
        assert out.f == var(3, 1)

    def test_function_ideal_is_abelian(self):
        rng = random.Random(42)
        s = flat_structure(2)
        zero_x = TensorField.zero(3, 1, 0)
        for _ in range(10):
            e1 = ExtendedElement(zero_x, random_poly(rng, 3))
            e2 = ExtendedElement(zero_x, random_poly(rng, 3))
            out = extended_cor_bracket(e1, e2, s)
            assert out.x.is_zero and out.f.is_zero

    def test_jacobi_and_stabilizer_closure(self):
        from helpers import random_coriolis_field

        rng = random.Random(43)
        s = flat_structure(2)
        for _ in range(10):
            es = [
                ExtendedElement(random_coriolis_field(rng, 2), random_poly(rng, 3))
                for _ in range(3)
            ]
            out = extended_cor_bracket(es[0], es[1], s)
            # output preserves the metric pair again
            assert lie_derivative(out.x, s.base.gamma).is_zero
            assert lie_derivative(out.x, s.base.theta).is_zero
            total_x = TensorField.zero(3, 1, 0)
            total_f = Poly.zero(3)
            for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
                term = extended_cor_bracket(
                    extended_cor_bracket(es[i], es[j], s), es[k], s
                )
                total_x = total_x + term.x
                total_f = total_f + term.f
            assert total_x.is_zero and total_f.is_zero


class TestMilneSplit:
    def test_space_translation(self):
        s = flat_structure(2)
        f, ok = milne_f_split(basis_vector(3, 1), s)
        assert ok and f.is_zero

    def test_accelerating_translation(self):
        # X = t^2 d_1 on the n=1 standard structure: d_1 f = 2t
        s = flat_structure(1)
        x = vector(2, [Poly.zero(2), var(2, 0) ** 2])
        f, ok = milne_f_split(x, s)
        assert ok
        assert f == 2 * var(2, 0) * var(2, 1)

    def test_constant_rotation(self):
        s = flat_structure(2)
        x = vector(3, [Poly.zero(3), var(3, 2), -var(3, 1)])
        f, ok = milne_f_split(x, s)
        assert ok and f.is_zero

    def test_solved_basis_members_verify(self):
        s = standard_structure(2, var(3, 1) * var(3, 2))
        basis = solve_symmetries(s.induced_nc(), "milne", 2)
        g = s.base
        for x in basis.fields:
            f, ok = milne_f_split(x, s)
            assert ok
            assert f == f - (f - f)  # exact poly, sanity
            from ncw.tensors import vector_bracket

            rhs = vector_bracket(s.v, x)
            for a in range(3):
                acc = Poly.zero(3)
                for k in range(3):
                    acc = acc + g.gamma.comp(a, k) * f.partial(k)
                assert acc == rhs.comp(a)
            # normalization: no purely time-dependent terms
            assert all(any(e[1:]) for e in f.terms)

    def test_rejects_non_milne(self):
        s = flat_structure(2)
        t, x1, x2 = var(3, 0), var(3, 1), var(3, 2)
        rotation = vector(3, [Poly.zero(3), t * x2, -t * x1])
        with pytest.raises(NotInFlavorError):
            milne_f_split(rotation, s)


class TestExtendedMilne:
    @pytest.mark.parametrize("entry", [0.1, "1/3", True], ids=["float", "str", "bool"])
    @pytest.mark.parametrize("field", ["omega", "rho", "tau", "xi"])
    def test_inexact_or_non_poly_fields_are_refused(self, field, entry):
        zero = Poly.zero(3)
        fields = {"omega": ((0, 1), (-1, 0)), "rho": (zero, zero), "tau": 1, "xi": zero}
        fields[field] = {"omega": ((0, entry), (0, 0)), "rho": (entry, zero)}.get(field, entry)
        message = "is not a Poly" if field in ("rho", "xi") else "not an int or a Fraction"
        with pytest.raises(TypeError, match=message):
            MilneStandardElement(**fields)

    def test_polys_of_another_dimension_are_refused(self):
        # n = 2 takes Polys of dimension 3
        for rho, xi in [((Poly.zero(5), Poly.zero(5)), Poly.zero(5)), ((var(3, 0), var(3, 0)), var(2, 0))]:
            with pytest.raises(ValueError, match="must have dimension 3$"):
                MilneStandardElement(((0, 1), (-1, 0)), rho, 0, xi)

    def test_matches_parameter_oracle_on_examples(self):
        s = flat_structure(2)
        t = var(3, 0)
        cases = [
            (mk_milne(2, rho={1: t}), mk_milne(2, rho={1: t**2})),
            (mk_milne(2, rho={1: t}), mk_milne(2, rho={2: t})),
            (mk_milne(2, omega={(1, 2): 1}, tau=1), mk_milne(2, rho={1: t**2}, xi=t)),
            (mk_milne(2, tau=1, xi=t), mk_milne(2, omega={(1, 2): 2}, rho={2: t}, xi=t**2)),
        ]
        for e1, e2 in cases:
            out = extended_mil_bracket(e1.to_extended(), e2.to_extended(), s)
            expected = milne_oracle(e1, e2)
            refit = milne_standard_from_field(out)
            assert refit.omega == expected.omega
            assert all(
                (a - b).is_zero for a, b in zip(refit.rho, expected.rho)
            )
            assert refit.tau == expected.tau
            assert refit.xi == expected.xi

    def test_quadratic_translation_pair(self):
        # rho = (t, 0), rho' = (t^2, 0): parameter output t.2t - t^2.1 = t^2
        s = flat_structure(2)
        t = var(3, 0)
        e1 = mk_milne(2, rho={1: t})
        e2 = mk_milne(2, rho={1: t**2})
        out = extended_mil_bracket(e1.to_extended(), e2.to_extended(), s)
        assert out.f == t**2

    def test_constant_translations_commute(self):
        s = flat_structure(2)
        one = Poly.const(3, 1)
        e1 = mk_milne(2, rho={1: one})
        e2 = mk_milne(2, rho={2: 3 * one})
        out = extended_mil_bracket(e1.to_extended(), e2.to_extended(), s)
        assert out.x.is_zero and out.f.is_zero

    def test_time_translation_acts_on_parameters(self):
        s = flat_structure(2)
        e1 = mk_milne(2, tau=1)
        e2 = mk_milne(2, xi=var(3, 0))
        out = extended_mil_bracket(e1.to_extended(), e2.to_extended(), s)
        assert out.x.is_zero
        assert out.f == Poly.const(3, 1)

    def test_jacobi_on_random_standard_elements(self):
        rng = random.Random(44)
        s = flat_structure(2)
        t = var(3, 0)

        def rand_elem():
            return mk_milne(
                2,
                omega={(1, 2): rng.randint(-2, 2)},
                rho={
                    1: sum((Fraction(rng.randint(-2, 2)) * t**k for k in range(3)), Poly.zero(3)),
                    2: sum((Fraction(rng.randint(-2, 2)) * t**k for k in range(3)), Poly.zero(3)),
                },
                tau=rng.randint(-2, 2),
                xi=sum((Fraction(rng.randint(-2, 2)) * t**k for k in range(4)), Poly.zero(3)),
            ).to_extended()

        for _ in range(10):
            es = [rand_elem() for _ in range(3)]
            total_x = TensorField.zero(3, 1, 0)
            total_f = Poly.zero(3)
            for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
                term = extended_mil_bracket(
                    extended_mil_bracket(es[i], es[j], s), es[k], s
                )
                total_x = total_x + term.x
                total_f = total_f + term.f
            assert total_x.is_zero and total_f.is_zero

    def test_antisymmetry(self):
        s = flat_structure(2)
        t = var(3, 0)
        e1 = mk_milne(2, omega={(1, 2): 1}, rho={1: t**2}, tau=1, xi=t).to_extended()
        e2 = mk_milne(2, rho={2: t}, xi=t**3).to_extended()
        ab = extended_mil_bracket(e1, e2, s)
        ba = extended_mil_bracket(e2, e1, s)
        assert (ab.x + ba.x).is_zero
        assert (ab.f + ba.f).is_zero

    def test_reduces_to_semidirect_bracket_without_accelerations(self):
        # time-independent elements have vanishing parameter splits, so the
        # observer-stabilizer bracket collapses to the metric-pair one
        s = flat_structure(2)
        one = Poly.const(3, 1)
        t = var(3, 0)
        elems = [
            mk_milne(2, omega={(1, 2): 1}, xi=t).to_extended(),
            mk_milne(2, rho={1: one}, tau=1, xi=t**2).to_extended(),
            mk_milne(2, rho={2: 2 * one}, xi=one).to_extended(),
        ]
        for e1 in elems:
            for e2 in elems:
                mil = extended_mil_bracket(e1, e2, s)
                cor = extended_cor_bracket(e1, e2, s)
                assert (mil.x - cor.x).is_zero
                assert mil.f == cor.f

    def test_forgetting_parameters_gives_plain_brackets(self):
        from ncw.tensors import vector_bracket

        s = flat_structure(2)
        t = var(3, 0)
        e1 = mk_milne(2, omega={(1, 2): 1}, rho={1: t**2}, tau=1, xi=t).to_extended()
        e2 = mk_milne(2, rho={2: t}, xi=t**3).to_extended()
        out = extended_mil_bracket(e1, e2, s)
        assert (out.x - vector_bracket(e1.x, e2.x)).is_zero
        b1 = BargmannElement.make(2, beta={1: 1}, xi=3)
        b2 = BargmannElement.make(2, sigma={1: 1}, tau=1, xi=5)
        direct = bargmann_bracket(b1, b2)
        assert (
            direct.to_field() - vector_bracket(b1.to_field(), b2.to_field())
        ).is_zero


class TestTwistedObserver:
    """An NCB presentation with a spatial gauge form, so the observer is
    genuinely different from the unit field."""

    def twisted(self):
        from ncw.structures import flat_galilei, ncb_structure
        from ncw.tensors import one_form

        g = flat_galilei(2)
        x1, x2 = var(3, 1), var(3, 2)
        a_form = one_form(3, [Poly.zero(3), x2 * x2, x1])
        s = ncb_structure(g, basis_vector(3, 0), a_form)
        s.validate()
        assert not (s.v - s.u).is_zero
        return s

    def test_boost_fixes_unit_field(self):
        from helpers import random_coriolis_field

        rng = random.Random(48)
        s = self.twisted()
        for _ in range(5):
            x = random_coriolis_field(rng, 2)
            psi = boost_for_coriolis(x, s)
            d = infinitesimal_gauge(s, GaugeElement(x, psi, Poly.zero(3)))
            assert d.d_u.is_zero

    def test_parameter_splits_verify_where_solvable(self):
        s = self.twisted()
        basis = solve_symmetries(s.induced_nc(), "milne", 2)
        from ncw.tensors import vector_bracket

        solvable = 0
        for x in basis.fields:
            f, ok = milne_f_split(x, s)
            if not ok:
                continue
            solvable += 1
            rhs = vector_bracket(s.v, x)
            for a in range(3):
                acc = Poly.zero(3)
                for k in range(3):
                    acc = acc + s.base.gamma.comp(a, k) * f.partial(k)
                assert acc == rhs.comp(a)
        assert solvable > 0


class TestNonCentrality:
    def test_standard_structure_is_noncentral(self):
        s = flat_structure(2)
        flag, witness = noncentrality_check(s, solve_symmetries(s.induced_nc(), "milne", 2))
        assert flag
        assert witness is not None and not witness[1].is_zero

    def test_needs_a_milne_basis(self):
        s = flat_structure(2)
        basis = solve_symmetries(s.induced_nc(), "galilei", 1)
        with pytest.raises(ValueError, match="milne basis"):
            noncentrality_check(s, basis)

    def test_full_stabilizer_center_is_central(self):
        s = flat_structure(2)
        basis = solve_symmetries(s.induced_nc(), "galilei", 1)
        zero_x = TensorField.zero(3, 1, 0)
        center = ExtendedElement(zero_x, Poly.const(3, 1))
        for x in basis.fields:
            out = extended_gal_bracket(
                ExtendedElement(x, Poly.zero(3)), center, s
            )
            assert out.x.is_zero and out.f.is_zero


class TestExtensionErrorContract:
    """Which error each faulty operand raises, and which fault wins when a
    pair has two: operands are checked in order, each for membership before
    its parameter."""

    STABILIZERS = {
        "milne": (
            extended_mil_bracket,
            "field does not preserve the raised symbols",
            "observer-stabilizer parameter must depend on time only",
        ),
        "galilei": (
            extended_gal_bracket,
            "field does not preserve the connection",
            "full-stabilizer parameter must be constant",
        ),
    }
    t, x1, x2 = var(3, 0), var(3, 1), var(3, 2)
    zero = Poly.zero(3)
    member = basis_vector(3, 1)
    # preserves the metric pair only: in neither stabilizer
    rotation = vector(3, [zero, t * x2, -t * x1])
    # in the observer stabilizer, not in the full one
    accelerating = vector(3, [zero, t**2, zero])

    @pytest.mark.parametrize("flavor", ["milne", "galilei"])
    def test_non_member_operand(self, flavor):
        bracket, not_member, _ = self.STABILIZERS[flavor]
        s = flat_structure(2)
        inside = ExtendedElement(self.member, self.zero)
        outside = ExtendedElement(self.rotation, self.zero)
        for e1, e2 in [(outside, inside), (inside, outside)]:
            with pytest.raises(NotInFlavorError, match=not_member):
                bracket(e1, e2, s)

    def test_full_stabilizer_rejects_an_observer_member(self):
        s = flat_structure(2)
        e1 = ExtendedElement(self.member, self.zero)
        e2 = ExtendedElement(self.accelerating, self.zero)
        extended_mil_bracket(e1, e2, s)
        with pytest.raises(NotInFlavorError, match="preserve the connection"):
            extended_gal_bracket(e1, e2, s)

    @pytest.mark.parametrize("flavor", ["milne", "galilei"])
    def test_parameter_outside_its_space(self, flavor):
        bracket, _, bad_parameter = self.STABILIZERS[flavor]
        s = flat_structure(2)
        good = ExtendedElement(self.member, self.zero)
        bad = ExtendedElement(self.member, self.x1 if flavor == "milne" else self.t)
        for e1, e2 in [(bad, good), (good, bad)]:
            with pytest.raises(ExtensionError, match=bad_parameter):
                bracket(e1, e2, s)

    @pytest.mark.parametrize("flavor", ["milne", "galilei"])
    def test_first_fault_in_operand_order_wins(self, flavor):
        bracket, not_member, bad_parameter = self.STABILIZERS[flavor]
        s = flat_structure(2)
        E = ExtendedElement
        # one operand with both faults: membership is checked first
        with pytest.raises(NotInFlavorError, match=not_member):
            bracket(E(self.rotation, self.x1), E(self.member, self.zero), s)
        # a bad parameter on the first operand beats a non-member second
        with pytest.raises(ExtensionError, match=bad_parameter):
            bracket(E(self.member, self.x1), E(self.rotation, self.zero), s)
        # a non-member first beats a bad parameter on the second
        with pytest.raises(NotInFlavorError, match=not_member):
            bracket(E(self.rotation, self.zero), E(self.member, self.x1), s)

    def test_basis_routines_check_hand_built_bases(self):
        s = flat_structure(2)
        nc = s.induced_nc()
        gal = SymmetryBasis(nc, "galilei", 1, (self.member, self.accelerating))
        with pytest.raises(NotInFlavorError, match="preserve the connection"):
            gal_extension_cocycle(gal, s)
        mil = SymmetryBasis(nc, "milne", 1, (self.rotation, self.member))
        with pytest.raises(NotInFlavorError, match="preserve the raised symbols"):
            noncentrality_check(s, mil)

    def test_noncentrality_checks_fields_after_its_witness(self):
        # the time translation is already a witness: t -> 1; the rotation
        # after it must still be checked, in either order
        s = flat_structure(2)
        nc = s.induced_nc()
        time_translation = basis_vector(3, 0)
        for fields in [(time_translation, self.rotation), (self.rotation, time_translation)]:
            mil = SymmetryBasis(nc, "milne", 1, fields)
            with pytest.raises(NotInFlavorError, match="preserve the raised symbols"):
                noncentrality_check(s, mil)


@pytest.mark.parametrize(
    "flavor, stabilizer", [("milne", "observer"), ("galilei", "full")]
)
def test_bracket_checks_the_parameter_it_derives(flavor, stabilizer):
    """The private bracket takes the gradients of its operands' full
    parameters on trust and derives f_[X,X'] from them without a solve; a
    wrong one must fail the exact check against the stabilizer equation."""
    from ncw.extensions import _bracket

    s = flat_structure(2)
    x1, x2 = var(3, 1), var(3, 2)
    zero = Poly.zero(3)
    translation = basis_vector(3, 1)
    rotation = vector(3, [zero, -x2, x1])
    # on the flat structure both fields have f_X = 0
    good = _bracket(translation, gradient(zero), rotation, gradient(zero), s, flavor)
    assert good.x == basis_vector(3, 2) and good.f.is_zero
    # with f = x1^2 for the translation, g = 2 x1 x2 is no parameter of [X, X']
    with pytest.raises(ExtensionError, match=f"bracket left the {stabilizer} stabilizer"):
        _bracket(translation, gradient(x1 * x1), rotation, gradient(zero), s, flavor)


class TestRadialPrimitive:
    def test_weights_each_term_by_its_radial_degree(self):
        # f = x1^2 / 2 + x1 x2 + t x2^3 / 3, integrated along x1 and x2 from
        # d_1 f = x1 + x2 and d_2 f = x1 + t x2^2
        t, x1, x2 = var(3, 0), var(3, 1), var(3, 2)
        form = one_form(3, [Poly.zero(3), x1 + x2, x1 + t * x2**2])
        f = ncw.extensions._radial_primitive(form, [1, 2])
        assert f == Fraction(1, 2) * x1**2 + x1 * x2 + Fraction(1, 3) * t * x2**3
        assert f.coefficient((0, 2, 0)) == Fraction(1, 2)
        assert all(is_canonical(c) for c in f.terms.values())

    def test_integral_of_x1(self):
        x1 = var(2, 1)
        f = ncw.extensions._radial_primitive(one_form(2, [Poly.zero(2), x1]), [1])
        assert f.terms == {(0, 2): Fraction(1, 2)}

    def test_a_curl_between_two_axes_has_no_primitive(self):
        # d_2 w_1 - d_1 w_2 = 1, with 1 and 2 both axes
        form = one_form(3, [Poly.zero(3), var(3, 2), Poly.zero(3)])
        assert ncw.extensions._radial_primitive(form, [1, 2]) is None

    def test_a_curl_through_another_axis_does_not_count(self):
        # d_0 w_1 - d_1 w_0 = -1 involves axis 0, which is no axis here; along
        # x1 and x2 the form is zero, and so is its primitive
        x1 = var(3, 1)
        form = one_form(3, [x1, Poly.zero(3), Poly.zero(3)])
        assert ncw.extensions._radial_primitive(form, [1, 2]) == Poly.zero(3)


class TestGalileiSolve:
    def test_boost_carries_linear_parameter(self):
        s = flat_structure(2)
        x = vector(3, [Poly.zero(3), var(3, 0), Poly.zero(3)])
        f, ok = galilei_f_solve(x, s)
        assert ok
        assert f == var(3, 1)

    def test_translation_parameter_vanishes(self):
        s = flat_structure(2)
        f, ok = galilei_f_solve(basis_vector(3, 1), s)
        assert ok and f.is_zero

    def test_rotation_parameter_vanishes(self):
        s = flat_structure(2)
        x = vector(3, [Poly.zero(3), var(3, 2), -var(3, 1)])
        f, ok = galilei_f_solve(x, s)
        assert ok and f.is_zero

    def test_rejects_non_galilei(self):
        s = standard_structure(1, var(2, 1) ** 2)
        with pytest.raises(NotInFlavorError):
            galilei_f_solve(basis_vector(2, 1), s)


class TestBargmann:
    @pytest.mark.parametrize("entry", [0.1, "1/3", True], ids=["float", "str", "bool"])
    @pytest.mark.parametrize("param", ["omega", "beta", "sigma", "tau", "xi"])
    def test_inexact_parameters_are_refused(self, param, entry):
        value = {"omega": {(1, 2): entry}, "beta": {1: entry}, "sigma": {2: entry}}
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            BargmannElement.make(2, **{param: value.get(param, entry)})

    @pytest.mark.parametrize("entry", [0.1, "1/3", True], ids=["float", "str", "bool"])
    @pytest.mark.parametrize("field", ["omega", "beta", "sigma", "tau", "xi"])
    def test_inexact_fields_are_refused_on_direct_construction(self, field, entry):
        fields = {"omega": ((0, 1), (-1, 0)), "beta": (1, 0), "sigma": (0, 1), "tau": 1, "xi": 2}
        fields[field] = {"omega": ((0, entry), (0, 0)), "beta": (entry, 0), "sigma": (0, entry)}.get(
            field, entry
        )
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            BargmannElement(**fields)

    def test_direct_construction_keeps_entries_canonical(self):
        b = BargmannElement(((0, Fraction(2, 2)), (-1, 0)), (Fraction(1, 3), 0), (0, 1), 0, 0)
        assert b.omega == ((0, 1), (-1, 0)) and type(b.omega[0][1]) is int
        assert bargmann_bracket(b, b).xi == 0

    @pytest.mark.parametrize(
        "param, entries",
        [
            ("beta", {0: 1}),
            ("beta", {3: 1}),
            ("sigma", {-1: 1}),
            ("omega", {(0, 1): 1}),
            ("omega", {(1, 3): 1}),
        ],
        ids=["beta-0", "beta-above", "sigma-negative", "omega-0", "omega-above"],
    )
    def test_out_of_range_keys_are_refused(self, param, entries):
        (key,) = entries
        with pytest.raises(ValueError, match=re.escape(f"parameter key {key!r} is outside 1..2")):
            BargmannElement.make(2, **{param: entries})

    @pytest.mark.parametrize("n", [-1, True, 2.0, "2"], ids=["negative", "bool", "float", "str"])
    def test_dimension_that_is_not_a_non_negative_int_is_refused(self, n):
        with pytest.raises(ValueError, match=re.escape(f"dimension {n!r} is not a non-negative int")):
            BargmannElement.make(n)

    def test_exact_parameters_are_kept_canonical(self):
        b = BargmannElement.make(
            2, omega={(1, 2): Fraction(4, 2)}, beta={1: Fraction(1, 3)}, tau=3, xi=Fraction(1, 2)
        )
        assert b.omega == ((0, 2), (-2, 0)) and type(b.omega[0][1]) is int
        assert b.beta == (Fraction(1, 3), 0) and b.tau == 3 and b.xi == Fraction(1, 2)

    def test_translation_boost_center(self):
        b1 = BargmannElement.make(2, sigma={1: 1})
        b2 = BargmannElement.make(2, beta={1: 1})
        out = bargmann_bracket(b1, b2)
        assert out.xi == 1
        assert out.beta == (0, 0) and out.sigma == (0, 0) and out.tau == 0
        assert all(v == 0 for row in out.omega for v in row)

    def test_self_bracket(self):
        b = BargmannElement.make(
            2, omega={(1, 2): 3}, beta={1: 1}, sigma={2: 2}, tau=1, xi=5
        )
        out = bargmann_bracket(b, b)
        assert out.xi == 0 and out.beta == (0, 0) and out.sigma == (0, 0)

    def test_boost_against_time_translation(self):
        b1 = BargmannElement.make(2, beta={1: 1})
        b2 = BargmannElement.make(2, tau=1)
        out = bargmann_bracket(b1, b2)
        assert out.sigma == (-1, 0)
        assert out.xi == 0

    def test_matches_generic_machinery_on_flat_structure(self):
        rng = random.Random(45)
        s = flat_structure(2)
        for _ in range(10):
            b1 = BargmannElement.make(
                2,
                omega={(1, 2): rng.randint(-2, 2)},
                beta={1: rng.randint(-2, 2), 2: rng.randint(-2, 2)},
                sigma={1: rng.randint(-2, 2), 2: rng.randint(-2, 2)},
                tau=rng.randint(-2, 2),
                xi=rng.randint(-2, 2),
            )
            b2 = BargmannElement.make(
                2,
                omega={(1, 2): rng.randint(-2, 2)},
                beta={1: rng.randint(-2, 2), 2: rng.randint(-2, 2)},
                sigma={1: rng.randint(-2, 2), 2: rng.randint(-2, 2)},
                tau=rng.randint(-2, 2),
                xi=rng.randint(-2, 2),
            )
            direct = bargmann_bracket(b1, b2)
            generic = extended_gal_bracket(
                ExtendedElement(b1.to_field(), Poly.const(3, b1.xi)),
                ExtendedElement(b2.to_field(), Poly.const(3, b2.xi)),
                s,
            )
            # tau, beta, sigma, omega and xi at once
            assert bargmann_from_field(generic) == direct

    def test_jacobi_random(self):
        rng = random.Random(46)
        for _ in range(20):
            elems = [
                BargmannElement.make(
                    2,
                    omega={(1, 2): rng.randint(-2, 2)},
                    beta={1: rng.randint(-2, 2), 2: rng.randint(-2, 2)},
                    sigma={1: rng.randint(-2, 2), 2: rng.randint(-2, 2)},
                    tau=rng.randint(-2, 2),
                    xi=rng.randint(-2, 2),
                )
                for _ in range(3)
            ]
            totals = None
            for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
                term = bargmann_bracket(bargmann_bracket(elems[i], elems[j]), elems[k])
                if totals is None:
                    totals = term
                else:
                    totals = BargmannElement(
                        tuple(
                            tuple(a + b for a, b in zip(ra, rb))
                            for ra, rb in zip(totals.omega, term.omega)
                        ),
                        tuple(a + b for a, b in zip(totals.beta, term.beta)),
                        tuple(a + b for a, b in zip(totals.sigma, term.sigma)),
                        totals.tau + term.tau,
                        totals.xi + term.xi,
                    )
            assert all(v == 0 for row in totals.omega for v in row)
            assert all(v == 0 for v in totals.beta)
            assert all(v == 0 for v in totals.sigma)
            assert totals.tau == 0 and totals.xi == 0


# ----------------------------------------------------------------------
# the two parameter presentations and their refits

COEFFICIENTS = st.one_of(st.just(0), nonzero_coefficients())


@st.composite
def bargmann_elements(draw, min_n=0):
    n = draw(st.integers(min_n, 3))
    vectors = [dict(enumerate(draw(st.lists(COEFFICIENTS, min_size=n, max_size=n)), 1)) for _ in "bs"]
    return BargmannElement.make(
        n,
        {key: draw(COEFFICIENTS) for key in combinations(range(1, n + 1), 2)},
        *vectors,
        draw(COEFFICIENTS),
        draw(COEFFICIENTS),
    )


@st.composite
def milne_elements(draw):
    """A rotation block and time translation as drawn for a BargmannElement,
    with rho and xi polynomials of t of degree up to 2."""
    b = draw(bargmann_elements())
    t = var(b.n + 1, 0)

    def time_poly():
        coeffs = draw(st.lists(COEFFICIENTS, max_size=3))
        return sum((c * t**k for k, c in enumerate(coeffs)), Poly.zero(b.n + 1))

    return MilneStandardElement(b.omega, tuple(time_poly() for _ in range(b.n)), b.tau, time_poly())


@settings(max_examples=60, deadline=None)
@given(bargmann_elements(), milne_elements())
def test_parameter_presentations_round_trip(b, m):
    assert bargmann_from_field(ExtendedElement(b.to_field(), Poly.const(b.n + 1, b.xi))) == b
    assert milne_standard_from_field(m.to_extended()) == m


NEAR_MISSES = {
    "time-dependent rotation": "rotation part is not constant",
    "quadratic translation": "translation part is not affine in time",
    "non-constant parameter": "parameter is not constant",
}


@settings(max_examples=30, deadline=None)
@given(bargmann_elements(min_n=2), st.sampled_from(sorted(NEAR_MISSES)), nonzero_coefficients())
def test_parameter_refits_refuse_a_near_miss(b, miss, c):
    """One term off the Bargmann shape; only a time-dependent rotation is off
    the standard-case shape too."""
    dim = b.n + 1
    t, x1, x2 = var(dim, 0), var(dim, 1), var(dim, 2)
    comps = [b.to_field().comp(a) for a in range(dim)]
    f = Poly.const(dim, b.xi)
    if miss == "time-dependent rotation":
        comps[1] += c * t * x2
        comps[2] -= c * t * x1
    elif miss == "quadratic translation":
        comps[1] += c * t**2
    else:
        f += c * t
    e = ExtendedElement(vector(dim, comps), f)
    with pytest.raises(ExtensionError, match=NEAR_MISSES[miss]):
        bargmann_from_field(e)
    if miss == "time-dependent rotation":
        with pytest.raises(ExtensionError, match=NEAR_MISSES[miss]):
            milne_standard_from_field(e)
    else:
        assert milne_standard_from_field(e).to_extended() == e


class TestCocycles:
    @pytest.mark.parametrize("entry", [0.1, "1/3", True], ids=["float", "str", "bool"])
    def test_inexact_cocycles_and_functionals_are_refused(self, entry):
        basis = solve_symmetries(flat_structure(1).induced_nc(), "galilei", 1)
        k = basis.dimension
        cocycle = [[0] * k for _ in range(k)]
        cocycle[0][1] = entry
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            cocycle_triviality(basis, cocycle)
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            coboundary_from_functional(basis, [entry] + [0] * (k - 1))

    @pytest.mark.parametrize("functional", [[1, 0, 0, 5, 7], [1]], ids=["long", "short"])
    def test_functional_of_the_wrong_length_is_refused(self, functional):
        basis = solve_symmetries(flat_structure(1).induced_nc(), "galilei", 1)
        assert basis.dimension == 3
        with pytest.raises(CocycleError, match=f"functional has {len(functional)} entries, the basis 3"):
            coboundary_from_functional(basis, functional)

    def test_zero_cocycle_trivial(self):
        s = flat_structure(2)
        basis = solve_symmetries(s.induced_nc(), "galilei", 1)
        k = basis.dimension
        result = cocycle_triviality(basis, [[0] * k for _ in range(k)])
        assert result.trivial
        assert all(v == 0 for v in result.witness)

    def test_central_charge_cocycle_is_nontrivial(self):
        s = flat_structure(2)
        basis = solve_symmetries(s.induced_nc(), "galilei", 1)
        cocycle = gal_extension_cocycle(basis, s)
        assert any(v != 0 for row in cocycle for v in row)
        result = cocycle_triviality(basis, cocycle)
        assert not result.trivial
        assert result.certificate is not None
        # certificate kills every bracket row but pairs the cocycle
        from ncw.solver import structure_constants

        constants, _ = structure_constants(basis)
        k = basis.dimension
        for m in range(k):
            total = Fraction(0)
            for y, (i, j) in zip(result.certificate, result.pairs):
                total += y * constants[i][j][m]
            assert total == 0
        paired = Fraction(0)
        for y, (i, j) in zip(result.certificate, result.pairs):
            paired += y * cocycle[i][j]
        assert paired != 0

    def test_random_coboundary_roundtrip(self):
        rng = random.Random(47)
        s = flat_structure(2)
        basis = solve_symmetries(s.induced_nc(), "galilei", 1)
        k = basis.dimension
        for _ in range(5):
            lam = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
            cocycle = coboundary_from_functional(basis, lam)
            result = cocycle_triviality(basis, cocycle)
            assert result.trivial
            rebuilt = coboundary_from_functional(basis, result.witness)
            assert rebuilt == cocycle

    def test_identity_violation_detected(self):
        s = flat_structure(2)
        t = var(3, 0)
        x1, x2 = var(3, 1), var(3, 2)
        named = (
            basis_vector(3, 0),  # time translation
            vector(3, [Poly.zero(3), t, Poly.zero(3)]),  # boost along x1
            vector(3, [Poly.zero(3), x2, -x1]),  # rotation
            basis_vector(3, 1),  # space translation x1
        )
        basis = SymmetryBasis(s.induced_nc(), "galilei", 1, named)
        bad = [[Fraction(0)] * 4 for _ in range(4)]
        bad[2][3] = Fraction(1)  # pairs rotation with a translation only
        bad[3][2] = Fraction(-1)
        with pytest.raises(CocycleError, match="identity"):
            cocycle_triviality(basis, bad)

    def test_antisymmetry_checked(self):
        s = flat_structure(1)
        basis = solve_symmetries(s.induced_nc(), "galilei", 1)
        k = basis.dimension
        bad = [[Fraction(1)] * k for _ in range(k)]
        with pytest.raises(CocycleError, match="antisymmetric"):
            cocycle_triviality(basis, bad)

    def test_identity_check_agrees_with_the_dense_sum(self):
        """The cocycle identity, checked over the nonzero constants only,
        raises exactly when the full k^4 sum finds a violated triple."""
        from ncw.solver import structure_constants

        rng = random.Random(11)
        s = flat_structure(2)
        basis = solve_symmetries(s.induced_nc(), "galilei", 1)
        constants, _ = structure_constants(basis)
        k = basis.dimension

        def violated(c):
            return any(
                sum(
                    constants[i][j][m] * c[m][l]
                    + constants[j][l][m] * c[m][i]
                    + constants[l][i][m] * c[m][j]
                    for m in range(k)
                )
                for i in range(k)
                for j in range(k)
                for l in range(k)
            )

        seen = set()
        for trial in range(40):
            if trial % 2:
                lam = [Fraction(rng.randint(-2, 2)) for _ in range(k)]
                c = coboundary_from_functional(basis, lam)
            else:
                c = [[Fraction(0)] * k for _ in range(k)]
            for _ in range(rng.randint(0, 2)):
                i, j = rng.sample(range(k), 2)
                v = Fraction(rng.randint(-2, 2))
                c[i][j] += v
                c[j][i] -= v
            expected = violated(c)
            seen.add(expected)
            if expected:
                with pytest.raises(CocycleError, match="identity"):
                    cocycle_triviality(basis, c)
            else:
                cocycle_triviality(basis, c)
        assert seen == {True, False}


SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def _run_extend(sample, flavor, degree, capsys):
    import ncw.cli

    argv = ["extend", "--input", str(SAMPLES / sample), "--flavor", flavor,
            "--degree", str(degree)]
    assert ncw.cli.main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("degree", [1.5, True], ids=["float", "bool"])
def test_extend_refuses_a_degree_that_is_not_an_int(degree):
    # int(degree) extended each of these at degree 1
    with pytest.raises(ValueError, match=f"degree bound must be an int, not {type(degree).__name__}$"):
        extend(flat_structure(1), "gal", degree)


@pytest.mark.parametrize("flavor", [3, None])
def test_extend_refuses_a_flavor_that_is_not_a_string(flavor):
    # .lower() raised AttributeError on each of these
    with pytest.raises(ValueError, match=f"^unknown symmetry flavor {flavor}$"):
        extend(flat_structure(1), flavor, 1)


@pytest.mark.parametrize("flavor", ["cor", "mil", "gal"])
def test_extend_refuses_a_structure_that_is_not_an_ncb_structure(flavor):
    # an NC structure failed with "'NCStructure' object has no attribute
    # 'induced_nc'"; the message names the type, not the data
    with pytest.raises(TypeError, match="^extend needs an NCBStructure, not NCStructure$"):
        extend(flat_structure(1).induced_nc(), flavor, 1)


@pytest.mark.parametrize("flavor", ["milne", "galilei"])
def test_extend_solves_each_gauge_parameter_once(flavor, monkeypatch, capsys):
    """`ncw extend` integrates each basis element's f_X once, in basis order,
    and the bracket table, the noncentrality scan and the cocycle reuse it.
    A bracket integrates nothing: X(f') - X'(f) is a parameter of [X, X'],
    so f_[X,X'] is that less its xi part."""
    fields = solve_symmetries(flat_structure(2).induced_nc(), flavor, 1).fields
    integrated = counting(monkeypatch, ncw.extensions, "_integrate")
    _run_extend("flat2.ncw", flavor, 1, capsys)
    assert [(x, fl) for x, s, fl in integrated] == [(x, flavor) for x in fields]
    assert len(fields) == 6


def test_extend_differentiates_each_field_and_each_parameter_once(monkeypatch):
    """On flat n=2, galilei, d=1, every basis field is bracketed against the
    five others, against V in its right side, and again in the cocycle's
    structure constants; its derivative is computed once.  Each parameter's
    gradient is taken once, by its integration check, and the brackets
    contract that gradient."""
    from ncw.tensors import _Entries

    derived = counting(monkeypatch, _Entries.__dict__["derivative"], "func")
    grads = counting(monkeypatch, ncw.extensions, "gradient")
    ext = extend(flat_structure(2), "galilei", 1)
    fields = ext.basis.fields
    assert len(fields) == 6 and None not in ext.parameters
    assert [sum(field is x for (field,) in derived) for x in fields] == [1] * 6
    assert [sum(p is f for (p,) in grads) for f in ext.parameters] == [1] * 6


@pytest.mark.parametrize("flavor", ["coriolis", "milne", "galilei"])
def test_extend_makes_no_classify_call(flavor, monkeypatch, capsys):
    """The solve proved every basis field a member, so `ncw extend` checks
    none of them again: no `classify` call past the solve, on flat n=2 at
    d=1 and on the oscillator at d=2."""
    import ncw.cli
    import ncw.solver

    calls = [
        counting(monkeypatch, module, "classify")
        for module in (ncw.solver, ncw.extensions, ncw.cli)
    ]
    _run_extend("flat2.ncw", flavor, 1, capsys)
    _run_extend("oscillator.ncw", flavor, 2, capsys)
    assert calls == [[], [], []]


@pytest.mark.parametrize("s", [flat_structure(2), standard_structure(2, var(3, 1) ** 2)])
@pytest.mark.parametrize("degree", [1, 2])
def test_extend_agrees_with_the_basis_views(s, degree):
    """extend's witness and cocycle are what noncentrality_check and
    gal_extension_cocycle give on the basis it solved; its bracket table is
    the extended bracket of each pair with zero xi."""
    mil = extend(s, "mil", degree)
    assert mil.basis == solve_symmetries(s.induced_nc(), "milne", degree)
    assert mil.witness is not None
    assert noncentrality_check(s, mil.basis) == (True, mil.witness)
    assert mil.cocycle is None and mil.triviality is None
    gal = extend(s, "gal", degree)
    assert gal.witness is None
    assert gal.cocycle == gal_extension_cocycle(gal.basis, s)
    assert gal.triviality == cocycle_triviality(gal.basis, gal.cocycle)
    cor = extend(s, "cor", degree)
    assert cor.witness is None and cor.cocycle is None
    assert cor.parameters == tuple(boost_for_coriolis(x, s) for x in cor.basis.fields)
    for ext, bracket in [(cor, extended_cor_bracket), (mil, extended_mil_bracket),
                         (gal, extended_gal_bracket)]:
        zero = Poly.zero(3)
        fields = ext.basis.fields
        assert list(ext.brackets) == list(combinations(range(len(fields)), 2))
        for (i, j), out in ext.brackets.items():
            assert out == bracket(ExtendedElement(fields[i], zero),
                                  ExtendedElement(fields[j], zero), s)


def test_extend_takes_the_potential_gradient_once(monkeypatch):
    """The full stabilizer's right side contracts the structure's cached
    d(phi), so extend differentiates phi once, however many parameters it
    integrates and brackets it checks."""
    import ncw.structures
    import ncw.tensors

    calls = [
        counting(monkeypatch, module, "gradient")
        for module in (ncw.tensors, ncw.structures, ncw.extensions)
    ]
    s = standard_structure(2, var(3, 1) ** 2)
    extend(s, "galilei", 1)
    assert sum(f is s.phi for recorded in calls for (f,) in recorded) == 1

"""Structure construction: transverse metrics, the geodesic connection, the
force-form assembly, and the observer/potential dictionary."""

import dataclasses
import random
import time
from fractions import Fraction

import pytest

from helpers import basis_vector, random_one_form, random_poly, var
from ncw.poly import Poly
from ncw.structures import (
    GalileiStructure,
    NCStructure,
    StructureError,
    assemble_connection,
    curl_defect,
    field_strength,
    flat_galilei,
    flat_structure,
    geodesic_connection,
    geodesic_defect,
    ncb_structure,
    observer_and_potential,
    potential_to_gauge,
    standard_structure,
    transverse_metric,
)
from ncw.tensors import (
    Connection,
    TensorField,
    check_newtonian,
    covariant_derivative,
    curvature,
    gradient,
    one_form,
    vector,
)


def sheared_galilei():
    """Spatial block [[1, x1], [x1, 1 + x1^2]]: unimodular, curved-looking
    coefficients, exercises the generic polynomial solve."""
    dim = 3
    x = var(dim, 1)
    rows = {
        (1, 1): Poly.const(dim, 1),
        (1, 2): x,
        (2, 1): x,
        (2, 2): 1 + x * x,
    }

    def entry(idx):
        return rows.get(idx, Poly.zero(dim))

    gamma = TensorField.build(dim, 2, 0, entry)
    theta = one_form(dim, [Poly.const(dim, 1), Poly.zero(dim), Poly.zero(dim)])
    return GalileiStructure(2, gamma, theta)


class TestGalileiValidation:
    def test_flat_passes(self):
        flat_galilei(3).validate()

    def test_sheared_passes(self):
        sheared_galilei().validate()

    def test_kernel_violation(self):
        dim = 2
        gamma = TensorField.build(
            dim, 2, 0, lambda idx: Poly.const(dim, 1)
        )  # gamma(theta) != 0
        theta = one_form(dim, [Poly.const(dim, 1), Poly.zero(dim)])
        with pytest.raises(StructureError, match="kernel"):
            GalileiStructure(1, gamma, theta).validate()

    def test_rank_violation(self):
        g = GalileiStructure(
            1,
            TensorField.zero(2, 2, 0),
            one_form(2, [Poly.const(2, 1), Poly.zero(2)]),
        )
        with pytest.raises(StructureError, match="rank"):
            g.validate()

    def test_negative_definite_rejected(self):
        dim = 2

        def entry(idx):
            return Poly.const(dim, -1) if idx == (1, 1) else Poly.zero(dim)

        g = GalileiStructure(
            1,
            TensorField.build(dim, 2, 0, entry),
            one_form(dim, [Poly.const(dim, 1), Poly.zero(dim)]),
        )
        with pytest.raises(StructureError, match="positive"):
            g.validate()

    def test_indefinite_full_rank_metric_names_the_minor(self):
        dim = 3
        signs = {(1, 1): 1, (2, 2): -1}
        g = GalileiStructure(
            2,
            TensorField.build(dim, 2, 0, lambda idx: Poly.const(dim, signs.get(idx, 0))),
            one_form(dim, [Poly.const(dim, 1), Poly.zero(dim), Poly.zero(dim)]),
        )
        with pytest.raises(StructureError, match=r"not positive definite .* \(leading minor 2\)$"):
            g.validate()

    def test_failed_validation_raises_again_with_the_same_message(self):
        # rank 0 at the origin; the cached global check must not cache failure
        dim = 2
        g = GalileiStructure(
            1,
            TensorField.build(dim, 2, 0, lambda idx: var(dim, 1) ** 2 if idx == (1, 1) else Poly.zero(dim)),
            one_form(dim, [Poly.const(dim, 1), Poly.zero(dim)]),
        )
        flat = flat_structure(1)
        stack = dataclasses.replace(flat, base=g)
        nc = NCStructure(g, flat.induced_connection())
        messages = set()
        for check in (g.validate, g.validate, nc.validate, stack.validate, stack.validate):
            with pytest.raises(StructureError) as exc:
                check()
            messages.add(str(exc.value))
        assert messages == {"gamma has rank 0 (expected 1) at (0, 0)"}

    def test_open_clock_form_rejected(self):
        dim = 3
        x1 = var(dim, 1)
        theta = one_form(dim, [Poly.const(dim, 1), Poly.zero(dim), x1])

        def entry(idx):
            return Poly.const(dim, 1) if idx == (1, 1) else Poly.zero(dim)

        g = GalileiStructure(2, TensorField.build(dim, 2, 0, entry), theta)
        with pytest.raises(StructureError, match="closed|kernel"):
            g.validate()


class TestTransverseMetric:
    def test_flat_rest_observer(self):
        g = flat_galilei(2)
        u = basis_vector(3, 0)
        h = transverse_metric(g, u)
        for a in range(3):
            for b in range(3):
                expected = Poly.const(3, 1) if (a == b and a >= 1) else Poly.zero(3)
                assert h.comp(a, b) == expected

    def test_boosted_observer(self):
        # U = d_t + x1 d_1 on the n=1 flat pair
        g = flat_galilei(1)
        x1 = var(2, 1)
        u = vector(2, [Poly.const(2, 1), x1])
        h = transverse_metric(g, u)
        assert h.comp(1, 1) == Poly.const(2, 1)
        assert h.comp(0, 1) == -x1
        assert h.comp(1, 0) == -x1
        assert h.comp(0, 0) == x1 * x1

    def test_annihilates_observer(self):
        rng = random.Random(21)
        g = flat_galilei(2)
        for _ in range(10):
            u = vector(
                3,
                [Poly.const(3, 1), random_poly(rng, 3), random_poly(rng, 3)],
            )
            h = transverse_metric(g, u)
            for a in range(3):
                total = Poly.zero(3)
                for k in range(3):
                    total = total + h.comp(a, k) * u.comp(k)
                assert total.is_zero

    def test_generic_solver_matches_flat_formula(self):
        # on the flat pair: h_AB = delta_AB, h_0B = -U^B, h_00 = sum_B (U^B)^2
        rng = random.Random(22)
        g = flat_galilei(2)
        for _ in range(5):
            u = vector(
                3,
                [Poly.const(3, 1), random_poly(rng, 3, 1), random_poly(rng, 3, 1)],
            )

            def flat(idx):
                a, b = idx
                if a >= 1 and b >= 1:
                    return Poly.const(3, 1) if a == b else Poly.zero(3)
                if a == 0 and b >= 1:
                    return -u.comp(b)
                if b == 0 and a >= 1:
                    return -u.comp(a)
                return u.comp(1) * u.comp(1) + u.comp(2) * u.comp(2)

            expected = TensorField.build(3, 0, 2, flat)
            assert (transverse_metric(g, u) - expected).is_zero

    def test_sheared_metric_inverse_block(self):
        g = sheared_galilei()
        u = basis_vector(3, 0)
        h = transverse_metric(g, u)
        x = var(3, 1)
        assert h.comp(1, 1) == 1 + x * x
        assert h.comp(1, 2) == -x
        assert h.comp(2, 2) == Poly.const(3, 1)
        for a in range(3):
            assert h.comp(a, 0).is_zero
            assert h.comp(0, a).is_zero

    def test_requires_unit_observer(self):
        g = flat_galilei(1)
        with pytest.raises(StructureError, match="theta"):
            transverse_metric(g, basis_vector(2, 1))

    def test_rank_deficient_metric_is_inconsistent(self):
        # gamma missing a spatial direction: the defining contractions have
        # no solution, which the exact solve reports
        dim = 3

        def entry(idx):
            return Poly.const(dim, 1) if idx == (1, 1) else Poly.zero(dim)

        g = GalileiStructure(
            2,
            TensorField.build(dim, 2, 0, entry),
            one_form(dim, [Poly.const(dim, 1), Poly.zero(dim), Poly.zero(dim)]),
        )
        with pytest.raises(StructureError, match="rank deficient"):
            transverse_metric(g, basis_vector(3, 0))

    def test_nonconstant_determinant_is_not_polynomial(self):
        # gamma^11 = 1 + x1^2 is a valid pair whose h_11 = 1/(1 + x1^2)
        dim = 2
        x1 = var(dim, 1)
        gamma = TensorField.build(
            dim, 2, 0, lambda idx: 1 + x1 * x1 if idx == (1, 1) else Poly.zero(dim)
        )
        g = GalileiStructure(1, gamma, one_form(dim, [Poly.const(dim, 1), Poly.zero(dim)]))
        g.validate()
        with pytest.raises(StructureError, match=r"det\(gamma \+ W\(x\)W\) = x1\^2 \+ 1"):
            transverse_metric(g, basis_vector(dim, 0))

    def test_pair_preconditions_share_the_validate_messages(self):
        dim = 2
        theta = one_form(dim, [Poly.const(dim, 1), Poly.zero(dim)])
        skew = TensorField.build(
            dim, 2, 0, lambda idx: Poly.const(dim, 1) if idx == (0, 1) else Poly.zero(dim)
        )
        full = TensorField.build(dim, 2, 0, lambda idx: Poly.const(dim, 1))
        for gamma, message in [
            (skew, r"gamma not symmetric at \(0,1\)"),
            (full, r"theta is not in the kernel of gamma \(component 0\)"),
        ]:
            g = GalileiStructure(1, gamma, theta)
            with pytest.raises(StructureError, match=message):
                g.validate()
            with pytest.raises(StructureError, match=message):
                transverse_metric(g, basis_vector(dim, 0))

    def test_nonconstant_clock_form_falls_back_to_the_unit_field(self):
        # theta = d(t + (t + x1)^2) has no constant component, so W = U;
        # gamma = v v^T with theta(v) = 0
        dim = 2
        s = var(dim, 0) + var(dim, 1)
        theta = one_form(dim, [1 + 2 * s, 2 * s])
        v = [2 * s, -(1 + 2 * s)]
        gamma = TensorField.build(dim, 2, 0, lambda idx: v[idx[0]] * v[idx[1]])
        g = GalileiStructure(1, gamma, theta)
        g.validate()
        u = vector(dim, [Poly.const(dim, 1), Poly.const(dim, -1)])
        _assert_transverse_contractions(g, u, transverse_metric(g, u))

    def test_sheared_n6_is_polynomial_of_degree_10(self):
        g, u = sheared_n6()
        start = time.perf_counter()
        h = transverse_metric(g, u)
        assert time.perf_counter() - start < 5
        assert max(c.total_degree() for c in h.components) == 10
        _assert_transverse_contractions(g, u, h)
        s = ncb_structure(g, u, TensorField.zero(7, 0, 1))
        s.validate()
        assert (s.transverse - h).is_zero


def sheared_n6():
    """gamma^11 = 1, gamma^AA = 1 + x1^2 (A = 2..6), gamma^{A,A+1} = x1
    (A = 1..5), theta = dt, U = d_t: a unimodular spatial block whose
    inverse has degree 10."""
    dim = 7
    x1 = var(dim, 1)
    entries = {(1, 1): Poly.const(dim, 1)}
    for a in range(2, 7):
        entries[a, a] = 1 + x1 * x1
    for a in range(1, 6):
        entries[a, a + 1] = entries[a + 1, a] = x1
    gamma = TensorField.build(dim, 2, 0, lambda idx: entries.get(idx, Poly.zero(dim)))
    theta = one_form(dim, [Poly.const(dim, 1)] + [Poly.zero(dim)] * 6)
    return GalileiStructure(6, gamma, theta), basis_vector(dim, 0)


def _assert_transverse_contractions(g, u, h):
    dim = g.dimension
    for a in range(dim):
        for b in range(dim):
            assert h.comp(a, b) == h.comp(b, a)
            lhs = sum(
                (h.comp(a, k) * g.gamma.comp(k, b) for k in range(dim)), Poly.zero(dim)
            )
            expected = -u.comp(b) * g.theta.comp(a) + (1 if a == b else 0)
            assert lhs == expected
        assert sum((h.comp(a, k) * u.comp(k) for k in range(dim)), Poly.zero(dim)).is_zero


class TestGeodesicConnection:
    def test_rest_observer_flat(self):
        g = flat_galilei(2)
        assert geodesic_connection(g, basis_vector(3, 0)).is_zero

    def test_accelerating_observer(self):
        # U = d_t + t d_1 on n=1 flat: the only symbol is UG_00^1 = -1
        g = flat_galilei(1)
        t = var(2, 0)
        u = vector(2, [Poly.const(2, 1), t])
        ug = geodesic_connection(g, u)
        assert ug.symbol(0, 0, 1) == Poly.const(2, -1)
        nonzero = [
            (a, b, c)
            for a in range(2)
            for b in range(2)
            for c in range(2)
            if not ug.symbol(a, b, c).is_zero
        ]
        assert nonzero == [(0, 0, 1)]
        assert geodesic_defect(ug, u).is_zero
        assert covariant_derivative(ug, g.gamma).is_zero
        assert covariant_derivative(ug, g.theta).is_zero

    def test_observer_family_properties(self):
        rng = random.Random(23)
        g = flat_galilei(2)
        for _ in range(6):
            u = vector(
                3,
                [Poly.const(3, 1), random_poly(rng, 3, 1), random_poly(rng, 3, 1)],
            )
            ug = geodesic_connection(g, u)
            h = transverse_metric(g, u)
            assert geodesic_defect(ug, u).is_zero
            assert curl_defect(ug, u, h).is_zero
            assert covariant_derivative(ug, g.gamma).is_zero
            assert covariant_derivative(ug, g.theta).is_zero

    def test_curved_coefficients(self):
        g = sheared_galilei()
        u = basis_vector(3, 0)
        ug = geodesic_connection(g, u)
        assert not ug.is_zero  # spatial symbols survive
        assert covariant_derivative(ug, g.gamma).is_zero
        assert covariant_derivative(ug, g.theta).is_zero
        assert geodesic_defect(ug, u).is_zero
        ok, _ = check_newtonian(curvature(ug), g.gamma)
        assert ok


class TestFieldStrength:
    def test_exact_form_closed(self):
        rng = random.Random(24)
        for _ in range(10):
            f = random_poly(rng, 3)
            assert field_strength(gradient(f)).is_zero

    def test_standard_gauge_components(self):
        # A = -phi theta with phi = x1, theta = dt
        g = flat_galilei(1)
        phi = var(2, 1)
        a = one_form(2, [-phi, Poly.zero(2)])
        f = field_strength(a)
        assert f.comp(1, 0) == Poly.const(2, -1)
        assert f.comp(0, 1) == Poly.const(2, 1)
        assert f.comp(0, 0).is_zero and f.comp(1, 1).is_zero

    def test_antisymmetric(self):
        rng = random.Random(25)
        for _ in range(10):
            a = random_one_form(rng, 3)
            f = field_strength(a)
            for i in range(3):
                for j in range(3):
                    assert f.comp(i, j) == -f.comp(j, i)


class TestAssembly:
    def test_standard_gauge_reproduces_potential_gradient(self):
        for n, phi in [
            (1, var(2, 1) ** 2),
            (2, var(3, 1) + var(3, 2)),
            (2, var(3, 1) * var(3, 2)),
        ]:
            s = standard_structure(n, phi)
            conn = s.induced_connection()
            dim = n + 1
            for a in range(dim):
                for b in range(dim):
                    for c in range(dim):
                        if a == 0 and b == 0 and c >= 1:
                            assert conn.symbol(a, b, c) == phi.partial(c)
                        else:
                            assert conn.symbol(a, b, c).is_zero

    def test_zero_force(self):
        g = flat_galilei(1)
        t = var(2, 0)
        u = vector(2, [Poly.const(2, 1), t])
        ug = geodesic_connection(g, u)
        f = TensorField.zero(2, 0, 2)
        assert assemble_connection(ug, g.theta, f, g.gamma).symbols == ug.symbols

    def test_rejects_symmetric_force(self):
        g = flat_galilei(1)
        bad = TensorField.build(
            2, 0, 2, lambda idx: Poly.const(2, 1) if idx == (0, 1) else Poly.zero(2)
        )
        with pytest.raises(StructureError, match="antisymmetric"):
            assemble_connection(Connection.zero(2), g.theta, bad, g.gamma)


class TestObserverDictionary:
    def test_standard_gauge(self):
        phi = var(3, 1) ** 2
        s = standard_structure(2, phi)
        assert (s.v - s.u).is_zero
        assert s.phi == phi

    def test_zero_gauge(self):
        s = flat_structure(2)
        assert (s.v - s.u).is_zero
        assert s.phi.is_zero

    def test_spatial_gauge_form(self):
        # n=1, A = dx1, U = d_t: V = d_t - d_1, phi = 1/2
        g = flat_galilei(1)
        u = basis_vector(2, 0)
        a = one_form(2, [Poly.zero(2), Poly.const(2, 1)])
        v, phi = observer_and_potential(g, u, a)
        assert v.comp(0) == Poly.const(2, 1)
        assert v.comp(1) == Poly.const(2, -1)
        assert phi == Poly.const(2, Fraction(1, 2))

    def test_rest_observer_reconstruction(self):
        # V = U forces A = -phi theta
        g = flat_galilei(2)
        u = basis_vector(3, 0)
        phi = var(3, 1) * var(3, 2)
        a = potential_to_gauge(g, u, u, phi)
        for k in range(3):
            assert a.comp(k) == -phi * g.theta.comp(k)

    def test_roundtrip_from_gauge_form(self):
        rng = random.Random(26)
        g = flat_galilei(2)
        u = basis_vector(3, 0)
        for _ in range(10):
            a = random_one_form(rng, 3)
            v, phi = observer_and_potential(g, u, a)
            back = potential_to_gauge(g, u, v, phi)
            assert (back - a).is_zero

    def test_roundtrip_from_observer(self):
        rng = random.Random(27)
        g = flat_galilei(2)
        u = basis_vector(3, 0)
        for _ in range(10):
            v = vector(
                3, [Poly.const(3, 1), random_poly(rng, 3), random_poly(rng, 3)]
            )
            phi = random_poly(rng, 3)
            a = potential_to_gauge(g, u, v, phi)
            v2, phi2 = observer_and_potential(g, u, a)
            assert (v2 - v).is_zero
            assert phi2 == phi


class TestNCBInvariants:
    def test_standard_validates(self):
        for phi in [Poly.zero(3), var(3, 1) ** 2, var(3, 1) * var(3, 2)]:
            s = standard_structure(2, phi)
            s.validate()
            s.induced_nc().validate()

    def test_assembled_connection_is_newtonian_for_random_gauges(self):
        rng = random.Random(28)
        g = flat_galilei(2)
        u = basis_vector(3, 0)
        for _ in range(6):
            a = random_one_form(rng, 3)
            s = ncb_structure(g, u, a)
            s.validate()
            s.induced_nc().validate()

    def test_force_must_be_the_field_strength_of_the_gauge_form(self):
        s = flat_structure(1)
        x1 = var(2, 1)
        force = TensorField.build(
            2, 0, 2, lambda idx: {(0, 1): x1, (1, 0): -x1}.get(idx, Poly.zero(2))
        )
        bad = dataclasses.replace(s, force=force)
        with pytest.raises(StructureError, match="field strength"):
            bad.validate()

    def test_boosted_ether_field(self):
        # Eq-built connection for U = d_t + t d_1 on flat data stays Newtonian
        g = flat_galilei(1)
        t = var(2, 0)
        u = vector(2, [Poly.const(2, 1), t])
        s = ncb_structure(g, u, TensorField.zero(2, 0, 1))
        s.validate()
        s.induced_nc().validate()

"""Structure construction: transverse metrics, the geodesic connection, the
force-form assembly, and the observer/potential dictionary."""

import dataclasses
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ncw.structures
from helpers import (
    basis_vector,
    counting,
    curl_defect,
    fresh_frames,
    geodesic_defect,
    is_canonical,
    random_one_form,
    random_poly,
    var,
)
from ncw.dsl import build_structure, parse_structure
from ncw.poly import Poly
from ncw.structures import (
    GalileiStructure,
    NCBStructure,
    NCStructure,
    StructureError,
    _flat_frame,
    _on_frame,
    assemble_connection,
    field_strength,
    flat_galilei,
    flat_structure,
    geodesic_connection,
    ncb_structure,
    observer_and_potential,
    observer_structure,
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


def open_clock_galilei():
    """theta = dt + t dx1, which is not closed, with gamma = v(x)v for
    v = -t d_t + d_x1 in its kernel; det(gamma + d_t(x)d_t) = 1."""
    t, one = var(2, 0), Poly.const(2, 1)
    gamma = TensorField(2, 2, 0, {(0, 0): t * t, (0, 1): -t, (1, 0): -t, (1, 1): one})
    return GalileiStructure(1, gamma, one_form(2, [one, t]))


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

    @pytest.mark.parametrize(
        "point", [[0, 0.5, 0, 0], [0, "1/3", 0, 0], [0, 0, True, 0]], ids=["float", "str", "bool"]
    )
    def test_inexact_sample_points_are_refused(self, point):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            flat_galilei(3).validate([point])

    def test_exact_sample_points_pass(self):
        flat_galilei(3).validate([[0, Fraction(1, 2), -3, Fraction(7, 3)]])

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

    def test_clock_with_a_non_unit_coefficient(self):
        # theta = 2 dt: W = e_0 / 2 and N = diag(1/4, 1, 1); with
        # U = d_t / 2 + d_1 / 3, P e_0 = e_0 - 2U = -2/3 e_1
        dim = 3
        entries = {(1, 1): Poly.const(dim, 1), (2, 2): Poly.const(dim, 1)}
        g = GalileiStructure(
            2,
            TensorField.build(dim, 2, 0, lambda idx: entries.get(idx, Poly.zero(dim))),
            one_form(dim, [Poly.const(dim, 2), Poly.zero(dim), Poly.zero(dim)]),
        )
        u = vector(dim, [Poly.const(dim, Fraction(1, 2)), Poly.const(dim, Fraction(1, 3)), Poly.zero(dim)])
        h = transverse_metric(g, u)
        expected = {(0, 0): Fraction(4, 9), (0, 1): Fraction(-2, 3), (1, 0): Fraction(-2, 3),
                    (1, 1): 1, (2, 2): 1}
        for a in range(dim):
            for b in range(dim):
                assert h.comp(a, b) == Poly.const(dim, expected.get((a, b), 0))
                assert all(is_canonical(c) for c in h.comp(a, b).terms.values())
        _assert_transverse_contractions(g, u, h)

    def test_determinant_that_is_not_a_unit(self):
        # gamma^11 = 2: det(gamma + W(x)W) = 2 and h_11 = 1/2
        dim = 3
        entries = {(1, 1): Poly.const(dim, 2), (2, 2): Poly.const(dim, 1)}
        g = GalileiStructure(
            2,
            TensorField.build(dim, 2, 0, lambda idx: entries.get(idx, Poly.zero(dim))),
            one_form(dim, [Poly.const(dim, 1), Poly.zero(dim), Poly.zero(dim)]),
        )
        h = transverse_metric(g, basis_vector(dim, 0))
        expected = {(1, 1): Fraction(1, 2), (2, 2): 1}
        for a in range(dim):
            for b in range(dim):
                assert h.comp(a, b) == Poly.const(dim, expected.get((a, b), 0))
                assert all(is_canonical(c) for c in h.comp(a, b).terms.values())

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

    def test_asymmetry_names_the_least_key_of_the_pair(self):
        # only gamma[1][0] is set: the refusal names the pair's least key
        dim = 2
        theta = one_form(dim, [Poly.const(dim, 1), Poly.zero(dim)])
        gamma = TensorField(dim, 2, 0, {(1, 0): Poly.const(dim, 1)})
        with pytest.raises(StructureError, match=r"^gamma not symmetric at \(0,1\)$"):
            GalileiStructure(1, gamma, theta).validate()

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
        assert max(c.total_degree() for c in h.nonzero.values()) == 10
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

    @pytest.mark.parametrize(
        "case", ["geodesic-of-a-one-form", "curl-of-a-one-form", "curl-with-vector-h"]
    )
    def test_defects_refuse_misshapen_fields(self, case):
        # G_00^1 = x1 on n = 1; each call used to return a meaningless field
        # or fail inside a contraction
        x1 = var(2, 1)
        conn = Connection(2, {(0, 0, 1): x1})
        form = one_form(2, [Poly.const(2, 1), x1])
        u = vector(2, [Poly.const(2, 1), x1])
        h = TensorField(2, 0, 2, {(1, 1): Poly.const(2, 1)})
        call, match = {
            "geodesic-of-a-one-form": (lambda: geodesic_defect(conn, form), "vector field"),
            "curl-of-a-one-form": (lambda: curl_defect(conn, form, h), "vector field"),
            "curl-with-vector-h": (lambda: curl_defect(conn, u, u), r"\(0,2\) tensor"),
        }[case]
        with pytest.raises(ValueError, match=match):
            call()

    def test_an_open_clock_is_refused_after_the_transverse_metric(self):
        g = open_clock_galilei()
        u = basis_vector(2, 0)
        transverse_metric(g, u)
        with pytest.raises(StructureError, match="^geodesic connection needs theta closed$"):
            geodesic_connection(g, u)

    def test_a_unit_field_error_comes_before_the_open_clock(self):
        u = vector(2, [Poly.const(2, 2), Poly.zero(2)])
        with pytest.raises(StructureError, match=r"^U must satisfy theta\(U\) = 1$"):
            geodesic_connection(open_clock_galilei(), u)


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
        assert assemble_connection(ug, g.theta, f, g.gamma) == ug

    def test_rejects_symmetric_force(self):
        g = flat_galilei(1)
        bad = TensorField.build(
            2, 0, 2, lambda idx: Poly.const(2, 1) if idx == (0, 1) else Poly.zero(2)
        )
        with pytest.raises(StructureError, match="antisymmetric"):
            assemble_connection(Connection.zero(2), g.theta, bad, g.gamma)

    def test_rejects_symmetric_and_diagonal_forces(self):
        g = flat_galilei(1)
        one = Poly.const(2, 1)
        for entries in ({(0, 1): one, (1, 0): one}, {(1, 1): one}):
            with pytest.raises(StructureError, match="^force form must be antisymmetric$"):
                assemble_connection(Connection.zero(2), g.theta, TensorField(2, 0, 2, entries), g.gamma)


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
        a = observer_structure(g, u, u, phi).a_form
        for k in range(3):
            assert a.comp(k) == -phi * g.theta.comp(k)

    def test_roundtrip_from_gauge_form(self):
        rng = random.Random(26)
        g = flat_galilei(2)
        u = basis_vector(3, 0)
        for _ in range(10):
            a = random_one_form(rng, 3)
            v, phi = observer_and_potential(g, u, a)
            back = observer_structure(g, u, v, phi).a_form
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
            a = observer_structure(g, u, v, phi).a_form
            v2, phi2 = observer_and_potential(g, u, a)
            assert (v2 - v).is_zero
            assert phi2 == phi

    def test_an_observer_error_comes_before_the_transverse_metric(self):
        # theta(V) = 1 is checked before h is built, so a bad U is not reached
        g = flat_galilei(2)
        twice = vector(3, [Poly.const(3, 2), Poly.zero(3), Poly.zero(3)])
        for u in (basis_vector(3, 0), twice):
            with pytest.raises(StructureError, match=r"^V must satisfy theta\(V\) = 1$"):
                observer_structure(g, u, twice, Poly.zero(3)).a_form


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

    def test_boosted_ether_field(self):
        # Eq-built connection for U = d_t + t d_1 on flat data stays Newtonian
        g = flat_galilei(1)
        t = var(2, 0)
        u = vector(2, [Poly.const(2, 1), t])
        s = ncb_structure(g, u, TensorField.zero(2, 0, 1))
        s.validate()
        s.induced_nc().validate()


class TestPresetFrame:
    """Every preset of one n shares one frame, checked once: the flat pair,
    U = d/dt, h and the geodesic part; A, F and the connection are its own."""

    def test_presets_of_one_n_share_the_frame_and_of_two_do_not(self):
        a, b = flat_structure(2), standard_structure(2, var(3, 1) ** 2)
        for name in ("base", "u", "transverse", "geodesic_part"):
            assert getattr(a, name) is getattr(b, name), name
        assert a.a_form != b.a_form and a.force is not b.force
        assert a.induced_connection() is not flat_structure(2).induced_connection()
        c = flat_structure(3)
        assert c.transverse is not a.transverse
        assert c.geodesic_part is not a.geodesic_part

    def test_the_frame_is_built_and_checked_once_per_n(self, monkeypatch):
        fresh_frames()
        transverse = counting(monkeypatch, ncw.structures, "transverse_metric")
        points = counting(monkeypatch, GalileiStructure, "_check_point")
        pairs = counting(monkeypatch, GalileiStructure.__dict__["_valid_pair"], "func")
        contractions = counting(monkeypatch, NCBStructure.__dict__["_valid_transverse"], "func")
        for n in (1, 2, 3, 2, 1, 3, 2):
            x1 = var(n + 1, 1)
            for s in (flat_structure(n), standard_structure(n, x1**2 - x1)):
                s.validate()
                s.induced_nc().validate()
        assert len(transverse) == len(points) == len(pairs) == len(contractions) == 3
        # sample points are checked on every call
        s = flat_structure(2)
        s.base.validate([(1, 2, 3)])
        s.base.validate([(1, 2, 3), (0, 1, 0)])
        assert len(points) == 3 + 3

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_shared_values_equal_a_fresh_computation(self, n):
        dim = n + 1
        one = Poly.const(dim, 1)
        g = GalileiStructure(
            n,
            TensorField(dim, 2, 0, {(a, a): one for a in range(1, dim)}),
            one_form(dim, [one] + [Poly.zero(dim)] * n),
        )
        u = basis_vector(dim, 0)
        s = standard_structure(n, var(dim, n) ** 2)
        assert (s.base, s.u) == (g, u)
        assert s.transverse == transverse_metric(g, u)
        assert s.geodesic_part == geodesic_connection(g, u)

    def test_a_gauge_document_computes_its_own_h(self, monkeypatch):
        flat = flat_structure(2)
        calls = counting(monkeypatch, ncw.structures, "transverse_metric")
        text = "n = 2\ngamma[1][1] = 1\ngamma[2][2] = 1\ntheta[0] = 1\nU[0] = 1\nA[0] = 0\n"
        ncb = build_structure(parse_structure(text)).ncb
        assert len(calls) == 1
        assert ncb.transverse == flat.transverse and ncb.transverse is not flat.transverse

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({(0, 0): 1, (1, 1): 1, (2, 2): 1}, "transverse metric does not annihilate U"),
            ({(1, 1): 2, (2, 2): 1}, "transverse metric contraction failed"),
        ],
    )
    def test_a_wrong_h_raises_the_same_message_twice(self, entries, message):
        dim = 3
        h = TensorField(dim, 0, 2, {k: Poly.const(dim, v) for k, v in entries.items()})
        u, a = basis_vector(dim, 0), TensorField.zero(dim, 0, 1)
        s = _on_frame(flat_galilei(2), u, a, transverse=h)
        for _ in range(2):
            with pytest.raises(StructureError, match=f"^{message}$"):
                s.validate()
        assert "_valid_transverse" not in s.__dict__

    @pytest.mark.parametrize("n", [True, False, 0, -1, 1.0, 2.5, "2", None])
    def test_an_n_that_is_not_a_positive_int_is_refused_before_the_cache(self, n):
        fresh_frames()
        for make in (
            lambda: flat_structure(n),
            lambda: standard_structure(n, Poly.zero(2)),
            lambda: flat_galilei(n),
        ):
            with pytest.raises(ValueError, match=f"^n {re.escape(repr(n))} is not a positive int$"):
                make()
        assert _flat_frame.cache_info().currsize == 0

    @pytest.mark.parametrize("phi", [5, Fraction(1, 2), None, "x1"])
    def test_a_potential_that_is_not_a_poly_is_refused_before_the_cache(self, phi):
        # an int failed with "'int' object has no attribute 'dimension'",
        # after the frame was built
        fresh_frames()
        with pytest.raises(TypeError, match=f"^standard_structure needs a Poly, not {type(phi).__name__}$"):
            standard_structure(2, phi)
        assert _flat_frame.cache_info().currsize == 0

    def test_importing_the_cli_builds_no_frame(self):
        code = "import ncw.cli, ncw.structures as s; print(s._flat_frame.cache_info().currsize)"
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout == "0\n"


class TestOneSource:
    """V, phi, F and h are derived from (gamma, theta, U, A) alone."""

    def test_the_gauge_presentation_is_the_only_state(self):
        names = [f.name for f in dataclasses.fields(NCBStructure)]
        assert names == ["base", "u", "a_form"]

    def test_derived_values_equal_their_formulas(self):
        rng = random.Random(43)
        t = var(3, 0)
        cases = [
            (flat_galilei(2), basis_vector(3, 0)),
            (flat_galilei(2), vector(3, [Poly.const(3, 1), t, -t])),
            (sheared_galilei(), basis_vector(3, 0)),
        ]
        for g, u in cases:
            for _ in range(4):
                a = random_one_form(rng, 3)
                s = ncb_structure(g, u, a)
                v, phi = observer_and_potential(g, u, a)
                assert s.v == v
                assert s.phi == phi
                assert s.force == field_strength(a)
                assert s.transverse == transverse_metric(g, u)
                s.validate()

    def test_a_transverse_metric_that_is_not_polynomial_is_refused_on_construction(self):
        # gamma^11 = 1 + t: det N = 1 + t, so h is not polynomial
        dim = 2
        gamma = TensorField(dim, 2, 0, {(1, 1): 1 + var(dim, 0)})
        g = GalileiStructure(1, gamma, one_form(dim, [Poly.const(dim, 1), Poly.zero(dim)]))
        with pytest.raises(StructureError, match="not a nonzero constant"):
            ncb_structure(g, basis_vector(dim, 0), TensorField.zero(dim, 0, 1))

    @pytest.mark.parametrize(
        "a_form, message",
        [
            (TensorField.zero(3, 1, 0), "needs a (0,1) field, not a (1,0) field"),
            (TensorField.zero(2, 0, 1), "needs operands of one dimension, not 3 and 2"),
        ],
        ids=["vector", "dimension"],
    )
    def test_a_gauge_form_of_the_wrong_shape_is_refused(self, a_form, message):
        with pytest.raises(ValueError, match=f"^ncb_structure {re.escape(message)}$"):
            ncb_structure(flat_galilei(2), basis_vector(3, 0), a_form)

"""Gauge action: infinitesimal variations, the gauge-algebra bracket, the
finite action, and invariance of the induced Newton-Cartan data."""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import basis_vector, counting, random_one_form, random_poly, random_vector, var
from ncw.dsl import build_structure, parse_structure
from ncw.gauge import (
    AffineDiffeo,
    FiniteGauge,
    GaugeElement,
    _shifted,
    finite_gauge_apply,
    gauge_bracket,
    infinitesimal_gauge,
    nc_projection_invariance_check,
)
from ncw.poly import Poly
from ncw.structures import flat_structure, standard_structure
from ncw.tensors import TensorField, apply_metric, one_form, pairing, vector


def random_gauge_element(rng, dim, degree=2):
    return GaugeElement(
        x=random_vector(rng, dim, degree),
        psi=random_one_form(rng, dim, degree),
        f=random_poly(rng, dim, degree),
    )


class TestInfinitesimal:
    @pytest.mark.parametrize("f", [0, Fraction(1, 2), "t"], ids=["int", "fraction", "str"])
    def test_a_parameter_that_is_not_a_poly_is_refused(self, f):
        zero = GaugeElement.zero(3)
        with pytest.raises(TypeError, match=f"^GaugeElement needs a Poly, not {type(f).__name__}$"):
            GaugeElement(zero.x, zero.psi, f)

    @pytest.mark.parametrize("slot", ["x", "psi"])
    @pytest.mark.parametrize("value", [0, Poly.zero(3)], ids=["int", "poly"])
    def test_a_field_that_is_not_a_tensor_field_is_refused(self, slot, value):
        parts = vars(GaugeElement.zero(3)) | {slot: value}
        with pytest.raises(TypeError, match=f"^GaugeElement needs a TensorField, not {type(value).__name__}$"):
            GaugeElement(**parts)

    def test_zero_element(self):
        s = standard_structure(2, var(3, 1) ** 2)
        assert infinitesimal_gauge(s, GaugeElement.zero(3)).is_zero

    def test_pure_boost_moves_only_u(self):
        rng = random.Random(31)
        s = flat_structure(2)
        psi = random_one_form(rng, 3)
        e = GaugeElement(TensorField.zero(3, 1, 0), psi, Poly.zero(3))
        d = infinitesimal_gauge(s, e)
        assert d.d_gamma.is_zero and d.d_theta.is_zero
        assert d.d_v.is_zero and d.d_phi.is_zero
        assert (d.d_u - apply_metric(s.base.gamma, psi)).is_zero

    def test_scalar_gauge_time_slope(self):
        s = flat_structure(2)
        e = GaugeElement(
            TensorField.zero(3, 1, 0), TensorField.zero(3, 0, 1), var(3, 0)
        )
        d = infinitesimal_gauge(s, e)
        assert d.d_phi == Poly.const(3, 1)  # V(f) with V = d_t, f = t


class TestBracket:
    def test_self_bracket_vanishes(self):
        rng = random.Random(32)
        e = random_gauge_element(rng, 3)
        b = gauge_bracket(e, e)
        assert b.x.is_zero and b.psi.is_zero and b.f.is_zero

    def test_translation_against_time_boost(self):
        zero_psi = TensorField.zero(3, 0, 1)
        zero_f = Poly.zero(3)
        e1 = GaugeElement(basis_vector(3, 0), zero_psi, zero_f)
        e2 = GaugeElement(
            vector(3, [Poly.zero(3), var(3, 0), Poly.zero(3)]), zero_psi, zero_f
        )
        b = gauge_bracket(e1, e2)
        assert (b.x - basis_vector(3, 1)).is_zero
        assert b.psi.is_zero and b.f.is_zero

    def test_antisymmetry_and_jacobi(self):
        rng = random.Random(33)
        for _ in range(15):
            e1 = random_gauge_element(rng, 2)
            e2 = random_gauge_element(rng, 2)
            e3 = random_gauge_element(rng, 2)
            ab = gauge_bracket(e1, e2)
            ba = gauge_bracket(e2, e1)
            assert (ab.x + ba.x).is_zero
            assert (ab.psi + ba.psi).is_zero
            assert (ab.f + ba.f).is_zero
            jac_parts = [
                gauge_bracket(e1, gauge_bracket(e2, e3)),
                gauge_bracket(e2, gauge_bracket(e3, e1)),
                gauge_bracket(e3, gauge_bracket(e1, e2)),
            ]
            assert sum((p.x for p in jac_parts), TensorField.zero(2, 1, 0)).is_zero
            assert sum((p.psi for p in jac_parts), TensorField.zero(2, 0, 1)).is_zero
            assert sum((p.f for p in jac_parts), Poly.zero(2)).is_zero

    def test_internal_pairs_commute(self):
        # the (psi, f) directions form an abelian ideal
        rng = random.Random(34)
        zero_x = TensorField.zero(3, 1, 0)
        for _ in range(10):
            e1 = GaugeElement(zero_x, random_one_form(rng, 3), random_poly(rng, 3))
            e2 = GaugeElement(zero_x, random_one_form(rng, 3), random_poly(rng, 3))
            b = gauge_bracket(e1, e2)
            assert b.x.is_zero and b.psi.is_zero and b.f.is_zero


class TestFiniteAction:
    @pytest.mark.parametrize(
        "slot, kind",
        [("diffeo", "an AffineDiffeo"), ("boost", "a TensorField"), ("scalar", "a Poly")],
    )
    @pytest.mark.parametrize("value", [0, "t"], ids=["int", "str"])
    def test_a_part_of_the_wrong_type_is_refused(self, slot, kind, value):
        parts = {
            "diffeo": AffineDiffeo.identity(3),
            "boost": TensorField.zero(3, 0, 1),
            "scalar": Poly.zero(3),
        } | {slot: value}
        with pytest.raises(TypeError, match=f"^FiniteGauge needs {kind}, not {type(value).__name__}$"):
            FiniteGauge(**parts)

    def test_identity_fixes_structure(self):
        s = standard_structure(2, var(3, 1) ** 2)
        gt = FiniteGauge(
            AffineDiffeo.identity(3), TensorField.zero(3, 0, 1), Poly.zero(3)
        )
        out = finite_gauge_apply(s, gt)
        assert (out.u - s.u).is_zero
        assert (out.a_form - s.a_form).is_zero
        assert (out.base.gamma - s.base.gamma).is_zero

    def test_internal_shift_preserves_connection(self):
        rng = random.Random(35)
        s = standard_structure(2, var(3, 1) * var(3, 2))
        for _ in range(5):
            assert nc_projection_invariance_check(
                s, random_one_form(rng, 3), random_poly(rng, 3)
            )

    @pytest.mark.parametrize("name", ["flat", "oscillator", "sheared"])
    def test_invariance_check_is_the_identity_gauge_without_a_pushforward(
        self, name, monkeypatch
    ):
        x1, x2 = var(3, 1), var(3, 2)
        if name == "sheared":
            text = (Path(__file__).parent.parent / "samples" / "sheared.ncw").read_text()
            s = build_structure(parse_structure(text)).ncb
        else:
            s = standard_structure(2, x1**2 + x2**2 if name == "oscillator" else Poly.zero(3))
        rng = random.Random(36)
        shifts = [(random_one_form(rng, 3), random_poly(rng, 3)) for _ in range(4)]
        identity = [
            finite_gauge_apply(s, FiniteGauge(AffineDiffeo.identity(3), *shift))
            for shift in shifts
        ]

        def no_pushforward(self, t):
            raise AssertionError("the invariance check pushed a field forward")

        monkeypatch.setattr(AffineDiffeo, "push_tensor", no_pushforward)
        for shift, pushed in zip(shifts, identity):
            # the shifted structure is the identity gauge's, field for field
            shifted = _shifted(s, *shift)
            assert (shifted.base, shifted.u, shifted.a_form) == (
                pushed.base, pushed.u, pushed.a_form
            )
            expected = pushed.induced_connection() == s.induced_connection()
            assert nc_projection_invariance_check(s, *shift) == expected

    def test_matched_boost_recovers_flat_data(self):
        # y1 = x1 + b t with boost form -b dx1 and scalar -b x1 - b^2 t / 2
        b = Fraction(2)
        s = flat_structure(1)
        diffeo = AffineDiffeo.make([[1, 0], [b, 1]], [0, 0])
        boost = one_form(2, [Poly.zero(2), Poly.const(2, -b)])
        scalar = -b * var(2, 1) - Fraction(1, 2) * b * b * var(2, 0)
        out = finite_gauge_apply(s, FiniteGauge(diffeo, boost, scalar))
        assert (out.u - s.u).is_zero
        assert (out.v - s.v).is_zero
        assert out.phi.is_zero
        assert out.a_form.is_zero
        assert (out.base.gamma - s.base.gamma).is_zero
        assert (out.base.theta - s.base.theta).is_zero

    def test_general_affine_transform_preserves_invariants(self):
        # shift by a random internal pair, push along a shear-boost map, and
        # check the full structure stack still validates
        rng = random.Random(38)
        s = standard_structure(2, var(3, 1) ** 2)
        diffeo = AffineDiffeo.make(
            [[1, 0, 0], [3, 1, 0], [-1, 2, 1]], [2, 0, 1]
        )
        gt = FiniteGauge(diffeo, random_one_form(rng, 3, 1), random_poly(rng, 3, 2))
        out = finite_gauge_apply(s, gt)
        out.validate()
        out.induced_nc().validate()

    @pytest.mark.parametrize(
        "linear, translation",
        [
            ([[1, 0], [0, 1]], [0.1, Fraction(1, 3)]),
            ([[1, 0], [0, 1]], [0, "1/3"]),
            ([[1, 0.5], [0, 1]], [0, 0]),
            ([[1, "2"], [0, 1]], [0, 0]),
        ],
        ids=["float-translation", "str-translation", "float-linear", "str-linear"],
    )
    def test_inexact_input_is_refused(self, linear, translation):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            AffineDiffeo.make(linear, translation)

    def test_translation_is_canonical(self):
        diffeo = AffineDiffeo.make([[1, 0], [0, 1]], [Fraction(4, 2), Fraction(1, 3)])
        assert diffeo.translation == (2, Fraction(1, 3))
        assert type(diffeo.translation[0]) is int

    def test_singular_linear_part_rejected(self):
        with pytest.raises(ValueError, match="affine map must be invertible"):
            AffineDiffeo.make([[1, 0, 0], [2, 1, 3], [4, 2, 6]], [0, 0, 0])

    @pytest.mark.parametrize(
        "linear, translation, message",
        [
            ([], [], "dimension 0 is not a positive int"),
            ([[1, 0], [0]], [0, 0], "AffineDiffeo needs 2 entries, not 1"),
            ([[1, 0]], [0], "AffineDiffeo needs 1 entry, not 2"),
            ([[1, 0], [0, 1]], [0], "AffineDiffeo needs 1 entry, not 2"),
        ],
        ids=["empty", "ragged", "not-square", "short-translation"],
    )
    def test_malformed_linear_part_rejected(self, linear, translation, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AffineDiffeo.make(linear, translation)

    def test_linear_part_is_inverted_once_per_map(self, monkeypatch):
        import ncw.gauge

        calls = counting(monkeypatch, ncw.gauge, "adjugate")
        diffeo = AffineDiffeo.make([[1, 0, 0], [2, 1, 3], [0, 0, 1]], [1, 0, -2])
        assert diffeo.linear == ((1, 0, 0), (2, 1, 3), (0, 0, 1))
        rng = random.Random(39)
        for _ in range(3):
            diffeo.push_tensor(random_one_form(rng, 3))
            diffeo.push_tensor(random_vector(rng, 3))
        assert len(calls) == 1

    def test_pushforward_preserves_pairings(self):
        rng = random.Random(36)
        diffeo = AffineDiffeo.make([[1, 0, 0], [2, 1, 3], [0, 0, 1]], [1, 0, -2])
        for _ in range(5):
            w = random_one_form(rng, 3)
            v = random_vector(rng, 3)
            lhs = pairing(diffeo.push_tensor(w), diffeo.push_tensor(v))
            rhs = diffeo.push_scalar(pairing(w, v))
            assert lhs == rhs


def truncate_eps(p, eps_axis, order=2):
    kept = {e: c for e, c in p.terms.items() if e[eps_axis] < order}
    return Poly(p.dimension, kept)


class TestLinearization:
    def test_first_order_matches_infinitesimal(self):
        """Run the finite recipe with a formal deformation parameter carried
        as an extra polynomial variable, truncate at second order, and
        compare against the infinitesimal variation.  Fields over the
        extended ring are held as plain component lists."""
        rng = random.Random(37)
        n = 2
        dim = n + 1
        edim = dim + 1  # formal parameter eps on the last axis
        eps = Poly.variable(edim, dim)

        for _ in range(4):
            s = standard_structure(n, random_poly(rng, dim, 2))
            lin = [
                [Fraction(rng.randint(-1, 1)) for _ in range(dim)] for _ in range(dim)
            ]
            shift = [Fraction(rng.randint(-2, 2)) for _ in range(dim)]
            x = vector(
                dim,
                [
                    sum(
                        (lin[a][j] * Poly.variable(dim, j) for j in range(dim)),
                        Poly.const(dim, shift[a]),
                    )
                    for a in range(dim)
                ],
            )
            psi = random_one_form(rng, dim)
            f = random_poly(rng, dim)
            delta = infinitesimal_gauge(s, GaugeElement(x, psi, f))

            xe = [x.comp(i).extended(edim) for i in range(dim)]
            # inverse of y = x - eps X(x) to first order: x = y + eps X(y)
            images = [Poly.variable(edim, i) + eps * xe[i] for i in range(dim)] + [eps]
            jac = [
                [
                    (1 if a == k else 0) - eps * xe[a].partial(k)
                    for k in range(dim)
                ]
                for a in range(dim)
            ]
            inv_jac = [
                [
                    (1 if k == b else 0) + eps * xe[k].partial(b)
                    for b in range(dim)
                ]
                for k in range(dim)
            ]

            def cut(p):
                return truncate_eps(p, dim)

            def move(comps):
                return [cut(c.extended(edim).substitute(images)) for c in comps]

            def push_vector(comps):
                moved = move(comps)
                return [
                    cut(sum((jac[a][k] * moved[k] for k in range(dim)), Poly.zero(edim)))
                    for a in range(dim)
                ]

            def push_form(comps):
                moved = move(comps)
                return [
                    cut(sum((inv_jac[k][b] * moved[k] for k in range(dim)), Poly.zero(edim)))
                    for b in range(dim)
                ]

            def push_metric(field):
                moved = {
                    (a, b): cut(field.comp(a, b).extended(edim).substitute(images))
                    for a in range(dim)
                    for b in range(dim)
                }
                out = {}
                for a in range(dim):
                    for b in range(dim):
                        acc = Poly.zero(edim)
                        for k in range(dim):
                            for l in range(dim):
                                acc = acc + jac[a][k] * jac[b][l] * moved[(k, l)]
                        out[(a, b)] = cut(acc)
                return out

            g = s.base
            gamma_e = {
                (a, b): g.gamma.comp(a, b).extended(edim)
                for a in range(dim)
                for b in range(dim)
            }
            grad_f = [f.partial(i).extended(edim) for i in range(dim)]
            gdf = [
                sum((gamma_e[(a, k)] * grad_f[k] for k in range(dim)), Poly.zero(edim))
                for a in range(dim)
            ]
            gpsi = [
                sum(
                    (gamma_e[(a, k)] * psi.comp(k).extended(edim) for k in range(dim)),
                    Poly.zero(edim),
                )
                for a in range(dim)
            ]
            u_e = [s.u.comp(i).extended(edim) for i in range(dim)]
            v_e = [s.v.comp(i).extended(edim) for i in range(dim)]

            u_shift = [u_e[i] + eps * gpsi[i] for i in range(dim)]
            v_shift = [v_e[i] + eps * gdf[i] for i in range(dim)]
            phi_shift = (
                s.phi.extended(edim)
                + eps
                * sum(
                    (v_e[k] * grad_f[k] for k in range(dim)),
                    Poly.zero(edim),
                )
                + eps * eps * Fraction(1, 2)
                * sum((grad_f[k] * gdf[k] for k in range(dim)), Poly.zero(edim))
            )

            # gamma: pure transport equals gamma + eps L_X gamma
            finite_gamma = push_metric(g.gamma)
            for a in range(dim):
                for b in range(dim):
                    expected = gamma_e[(a, b)] + eps * delta.d_gamma.comp(a, b).extended(edim)
                    assert finite_gamma[(a, b)] == expected
            # theta
            finite_theta = push_form([g.theta.comp(i) for i in range(dim)])
            for b in range(dim):
                expected = g.theta.comp(b).extended(edim) + eps * delta.d_theta.comp(
                    b
                ).extended(edim)
                assert finite_theta[b] == expected
            # U and V: shift then transport
            for shifted, base, d_field in [
                (u_shift, u_e, delta.d_u),
                (v_shift, v_e, delta.d_v),
            ]:
                moved = [cut(c.substitute(images)) for c in shifted]
                pushed = [
                    cut(
                        sum((jac[a][k] * moved[k] for k in range(dim)), Poly.zero(edim))
                    )
                    for a in range(dim)
                ]
                for a in range(dim):
                    expected = base[a] + eps * d_field.comp(a).extended(edim)
                    assert pushed[a] == expected
            # phi: scalar transport of the shifted potential
            moved_phi = cut(phi_shift.substitute(images))
            assert moved_phi == s.phi.extended(edim) + eps * delta.d_phi.extended(edim)

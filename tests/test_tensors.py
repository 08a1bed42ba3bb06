"""Tensor calculus: Lie derivatives, covariant derivative, curvature, and the
Newtonian symmetry check, all against hand-expanded oracles."""

import gc
import random
from fractions import Fraction

import pytest

from ncw.poly import Poly
from ncw.structures import standard_structure
from ncw.tensors import (
    Connection,
    TensorField,
    apply_metric,
    check_newtonian,
    contract,
    covariant_derivative,
    curvature,
    gradient,
    lie_derivative,
    lie_derivative_connection,
    one_form,
    pairing,
    raise_connection,
    raise_connection_transport,
    tensor_product,
    vector,
    vector_bracket,
)


def flat_gamma(n):
    """Sum of d_A (x) d_A over spatial axes; time row and column vanish."""
    dim = n + 1

    def entry(idx):
        a, b = idx
        if a == b and a >= 1:
            return Poly.const(dim, 1)
        return Poly.zero(dim)

    return TensorField.build(dim, 2, 0, entry)


def dt_form(n):
    dim = n + 1
    return one_form(dim, [Poly.const(dim, 1)] + [Poly.zero(dim)] * n)


def standard_connection(n, phi):
    """Christoffel symbols with the (0,0) lower pair carrying spatial
    gradients of the potential."""
    dim = n + 1

    def fn(a, b, c):
        if a == 0 and b == 0 and c >= 1:
            return phi.partial(c)
        return Poly.zero(dim)

    return Connection.build(dim, fn)


def basis_vector(dim, axis):
    comps = [Poly.zero(dim)] * dim
    comps[axis] = Poly.const(dim, 1)
    return vector(dim, comps)


def random_poly(rng, dim, degree=2, terms=3):
    out = Poly.zero(dim)
    for _ in range(terms):
        exps = [0] * dim
        for _ in range(degree):
            exps[rng.randrange(dim)] += rng.randint(0, 1)
        out = out + Poly.monomial(dim, exps, Fraction(rng.randint(-3, 3)))
    return out


def random_tensor(rng, dim, p, q):
    return TensorField(
        dim, p, q, tuple(random_poly(rng, dim) for _ in range(dim ** (p + q)))
    )


def random_vector(rng, dim, degree=2):
    return vector(dim, [random_poly(rng, dim, degree) for _ in range(dim)])


class TestLieDerivative:
    def test_zero_field(self):
        rng = random.Random(1)
        t = random_tensor(rng, 3, 1, 1)
        x = TensorField.zero(3, 1, 0)
        assert lie_derivative(x, t).is_zero

    def test_constant_metric_translation(self):
        g = flat_gamma(2)
        x = basis_vector(3, 1)
        assert lie_derivative(x, g).is_zero

    def test_boost_preserves_clock_form(self):
        # n=1, X^1 = 3t: (L_X theta)_a = theta_k d_a X^k = d_a X^0 = 0
        theta = dt_form(1)
        x = vector(2, [Poly.zero(2), 3 * Poly.variable(2, 0)])
        assert lie_derivative(x, theta).is_zero

    def test_derivation_over_tensor_product(self):
        rng = random.Random(2)
        for _ in range(25):
            x = random_vector(rng, 2)
            s = random_tensor(rng, 2, 1, 0)
            t = random_tensor(rng, 2, 0, 1)
            lhs = lie_derivative(x, tensor_product(s, t))
            rhs = tensor_product(lie_derivative(x, s), t) + tensor_product(
                s, lie_derivative(x, t)
            )
            assert (lhs - rhs).is_zero

    def test_commutator_law(self):
        rng = random.Random(3)
        for _ in range(25):
            x = random_vector(rng, 2, degree=2)
            y = random_vector(rng, 2, degree=2)
            t = random_tensor(rng, 2, 1, 1)
            lhs = lie_derivative(vector_bracket(x, y), t)
            rhs = lie_derivative(x, lie_derivative(y, t)) - lie_derivative(
                y, lie_derivative(x, t)
            )
            assert (lhs - rhs).is_zero

    def test_scalar_contraction_consistency(self):
        rng = random.Random(4)
        w = random_tensor(rng, 3, 0, 1)
        v = random_tensor(rng, 3, 1, 0)
        x = random_vector(rng, 3)
        scalar = contract(tensor_product(v, w), 0, 0)
        direct = lie_derivative(x, scalar)
        split = contract(
            tensor_product(lie_derivative(x, v), w)
            + tensor_product(v, lie_derivative(x, w)),
            0,
            0,
        )
        assert (direct - split).is_zero


class TestLieDerivativeConnection:
    def test_affine_field_flat_connection(self):
        g = Connection.zero(3)
        t = Poly.variable(3, 0)
        x2 = Poly.variable(3, 2)
        x = vector(3, [Poly.const(3, 2), t + x2, 5 * t])
        assert lie_derivative_connection(x, g).is_zero

    def test_quadratic_field_flat_connection(self):
        # only the Hessian term survives: d_0 d_0 X^1 = 2
        g = Connection.zero(2)
        t = Poly.variable(2, 0)
        x = vector(2, [Poly.zero(2), t * t])
        ld = lie_derivative_connection(x, g)
        assert ld.comp(1, 0, 0) == Poly.const(2, 2)
        others = [
            ld.comp(c, a, b)
            for c in range(2)
            for a in range(2)
            for b in range(2)
            if (c, a, b) != (1, 0, 0)
        ]
        assert all(p.is_zero for p in others)

    def test_constant_everything(self):
        phi = Poly.variable(3, 1)  # constant gradient
        g = standard_connection(2, phi)
        x = basis_vector(3, 2)
        assert lie_derivative_connection(x, g).is_zero

    def test_symmetric_in_lower_pair(self):
        rng = random.Random(5)
        for _ in range(20):
            n = 3
            halves = {
                (a, b): random_poly(rng, n)
                for a in range(n)
                for b in range(a, n)
            }
            g = Connection.build(
                n, lambda a, b, c: halves[(min(a, b), max(a, b))] * (c + 1)
            )
            x = random_vector(rng, n)
            ld = lie_derivative_connection(x, g)
            for c in range(n):
                for a in range(n):
                    for b in range(n):
                        assert ld.comp(c, a, b) == ld.comp(c, b, a)


class TestRaiseConnection:
    def test_zero(self):
        g = Connection.zero(3)
        assert raise_connection(g, flat_gamma(2), 1).is_zero
        assert raise_connection(g, flat_gamma(2), 2).is_zero

    def test_standard_both_contractions_vanish(self):
        # gamma kills the time slots, and the standard symbols only
        # populate the (0,0) lower pair
        phi = Poly.variable(2, 1)
        g = standard_connection(1, phi)
        assert raise_connection(g, flat_gamma(1), 2).is_zero
        assert raise_connection(g, flat_gamma(1), 1).is_zero


class TestMetricContractions:
    def test_apply_metric_rejects_mismatched_shapes(self):
        rng = random.Random(40)
        upper = random_tensor(rng, 3, 2, 0)
        lower = random_tensor(rng, 3, 0, 2)
        form = random_tensor(rng, 3, 0, 1)
        vec = random_tensor(rng, 3, 1, 0)
        for t, w in [
            (upper, vec),
            (lower, form),
            (random_tensor(rng, 3, 1, 1), form),
            (form, upper),
            (upper, random_tensor(rng, 2, 0, 1)),
        ]:
            with pytest.raises(ValueError):
                apply_metric(t, w)

    def test_pairing_rejects_mismatched_shapes(self):
        rng = random.Random(41)
        form = random_tensor(rng, 3, 0, 1)
        vec = random_tensor(rng, 3, 1, 0)
        for w, v in [
            (vec, form),
            (form, form),
            (random_tensor(rng, 3, 0, 2), vec),
            (form, random_tensor(rng, 2, 1, 0)),
        ]:
            with pytest.raises(ValueError):
                pairing(w, v)

    def test_transverse_metric_annihilates_unit_field(self):
        phi = Poly.variable(3, 1) ** 2 + Poly.variable(3, 0) * Poly.variable(3, 2)
        s = standard_structure(2, phi)
        hu = apply_metric(s.transverse, s.u)
        assert (hu.p, hu.q) == (0, 1)
        assert hu.is_zero


class TestCovariantDerivative:
    def test_flat_constant(self):
        g = Connection.zero(3)
        t = flat_gamma(2)
        assert covariant_derivative(g, t).is_zero

    def test_standard_clock_form_parallel(self):
        phi = Poly.variable(3, 1) * Poly.variable(3, 2)
        g = standard_connection(2, phi)
        assert covariant_derivative(g, dt_form(2)).is_zero

    def test_standard_metric_parallel(self):
        phi = Poly.variable(2, 1) ** 2
        g = standard_connection(1, phi)
        assert covariant_derivative(g, flat_gamma(1)).is_zero


class TestCurvature:
    def test_flat(self):
        assert curvature(Connection.zero(3)).is_zero

    def test_standard_quadratic_potential(self):
        # phi = x1^2, n=1: R_100^1 = d_1 G_00^1 = 2 and R_010^1 = -2
        phi = Poly.variable(2, 1) ** 2
        r = curvature(standard_connection(1, phi))
        assert r.comp(1, 0, 0, 1) == Poly.const(2, 2)
        assert r.comp(0, 1, 0, 1) == Poly.const(2, -2)
        assert len(r.nonzero_entries()) == 2

    def test_standard_mixed_potential_hessian_pattern(self):
        phi = Poly.variable(3, 1) * Poly.variable(3, 2)
        r = curvature(standard_connection(2, phi))
        for a in (1, 2):
            for d in (1, 2):
                assert r.comp(a, 0, 0, d) == phi.partial(a).partial(d)

    def test_antisymmetry_and_first_bianchi(self):
        rng = random.Random(6)
        for _ in range(10):
            n = 3
            halves = {
                (a, b): random_poly(rng, n)
                for a in range(n)
                for b in range(a, n)
            }
            g = Connection.build(
                n, lambda a, b, c: halves[(min(a, b), max(a, b))] * (2 * c - 1)
            )
            r = curvature(g)
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        for d in range(n):
                            assert r.comp(a, b, c, d) == -r.comp(b, a, c, d)
                            cyclic = (
                                r.comp(a, b, c, d)
                                + r.comp(b, c, a, d)
                                + r.comp(c, a, b, d)
                            )
                            assert cyclic.is_zero


def rotation_connection(time_coefficient):
    """n=2 connection whose mixed time-space symbols carry an antisymmetric
    rotation block epsilon(t); compatible with the flat pair for any
    coefficient, and curvature-symmetric exactly when the coefficient is
    constant."""
    dim = 3
    eps = {(1, 2): time_coefficient, (2, 1): -time_coefficient}

    def fn(a, b, c):
        if a == 0 and b >= 1 and (b, c) in eps:
            return eps[(b, c)]
        if b == 0 and a >= 1 and (a, c) in eps:
            return eps[(a, c)]
        return Poly.zero(dim)

    return Connection.build(dim, fn)


class TestNewtonianCheck:
    def test_flat_curvature(self):
        ok, witness = check_newtonian(curvature(Connection.zero(3)), flat_gamma(2))
        assert ok and witness is None

    def test_standard_structures_pass(self):
        t = Poly.variable(3, 0)
        x1 = Poly.variable(3, 1)
        x2 = Poly.variable(3, 2)
        for phi in [Poly.zero(3), x1, x1**2, x1 * x2, t * x1 + x2**2]:
            r = curvature(standard_connection(2, phi))
            ok, _ = check_newtonian(r, flat_gamma(2))
            assert ok

    def test_time_dependent_rotation_fails(self):
        # epsilon(t) = t: the antisymmetric d_t epsilon part breaks the symmetry
        g = rotation_connection(Poly.variable(3, 0))
        gamma = flat_gamma(2)
        theta = dt_form(2)
        # the specimen is genuinely compatible
        assert covariant_derivative(g, gamma).is_zero
        assert covariant_derivative(g, theta).is_zero
        ok, witness = check_newtonian(curvature(g), gamma)
        assert not ok
        assert witness is not None

    def test_constant_rotation_passes(self):
        # with a constant coefficient the force form is closed, so the
        # rotation connection is curvature-symmetric
        g = rotation_connection(Poly.const(3, 1))
        assert covariant_derivative(g, flat_gamma(2)).is_zero
        ok, _ = check_newtonian(curvature(g), flat_gamma(2))
        assert ok

    def test_insensitive_to_overall_sign(self):
        for g in [
            rotation_connection(Poly.variable(3, 0)),
            standard_connection(2, Poly.variable(3, 1) ** 2),
        ]:
            r = curvature(g)
            gamma = flat_gamma(2)
            assert check_newtonian(r, gamma)[0] == check_newtonian(r.negated(), gamma)[0]


class TestAbsentMeansZero:
    def test_curvature_and_newtonian_check_multiply_only_nonzero_entries(self, monkeypatch):
        from ncw.structures import flat_structure

        x1, x2 = Poly.variable(3, 1), Poly.variable(3, 2)
        structures = {
            "flat n=3": flat_structure(3).induced_nc(),
            "oscillator n=2": standard_structure(2, x1**2 + x2**2).induced_nc(),
        }
        original = Poly.__mul__
        operands = []

        def recorded(self, other):
            operands.append((self, other))
            return original(self, other)

        monkeypatch.setattr(Poly, "__mul__", recorded)
        monkeypatch.setattr(Poly, "__rmul__", recorded)
        for name, s in structures.items():
            operands.clear()
            ok, _ = check_newtonian(curvature(s.connection), s.base.gamma)
            assert ok, name
            assert all(a and b for a, b in operands), name
        assert operands  # the oscillator's curvature is not zero

    def test_solver_and_classify_multiply_only_nonzero_entries(self, monkeypatch):
        from ncw.solver import FLAVORS, _FormPoly, classify, solve_symmetries
        from ncw.structures import flat_structure

        x1, x2 = Poly.variable(3, 1), Poly.variable(3, 2)
        structures = {
            "flat n=2": flat_structure(2).induced_nc(),
            "oscillator n=2": standard_structure(2, x1**2 + x2**2).induced_nc(),
        }
        operands = []
        for cls in (Poly, _FormPoly):
            original = cls.__mul__

            def recorded(self, other, original=original):
                operands.append((self, other))
                return original(self, other)

            monkeypatch.setattr(cls, "__mul__", recorded)
            monkeypatch.setattr(cls, "__rmul__", recorded)
        outsider = vector(3, [Poly.zero(3), x1 * x2, x1])
        for name, s in structures.items():
            for flavor in FLAVORS:
                operands.clear()
                basis = solve_symmetries(s, flavor, 2)
                assert operands, (name, flavor)
                assert all(a and b for a, b in operands), (name, flavor)
                operands.clear()
                for x in basis.fields + (outsider,):
                    classify(x, s)
                assert operands, (name, flavor)
                assert all(a and b for a, b in operands), (name, flavor)

    def test_contractions_leave_no_reference_cycles(self):
        from ncw.solver import solve_symmetries

        t, x1, x2, x3 = (Poly.variable(4, i) for i in range(4))
        s = standard_structure(3, x1**2 + x2**2 + t * x3).induced_nc()
        curvature(s.connection)
        gc.collect()
        gc.disable()
        try:
            curvature(s.connection)
            assert gc.collect() == 0
            solve_symmetries(s, "galilei", 1)
            assert gc.collect() == 0
        finally:
            gc.enable()


def random_coriolis_field(rng, n, degree=2):
    """Template fields preserving the flat pair: constant time component,
    spatial part omega(t).x + rho(t) with omega antisymmetric."""
    dim = n + 1
    t = Poly.variable(dim, 0)

    def tpoly():
        return sum(
            (Fraction(rng.randint(-2, 2)) * t**k for k in range(degree + 1)),
            Poly.zero(dim),
        )

    omega = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            w = tpoly()
            omega[(a, b)] = w
            omega[(b, a)] = -w
    rho = {a: tpoly() for a in range(1, n + 1)}
    comps = [Poly.const(dim, rng.randint(-2, 2))]
    for a in range(1, n + 1):
        acc = rho[a]
        for b in range(1, n + 1):
            if (a, b) in omega:
                acc = acc + omega[(a, b)] * Poly.variable(dim, b)
        comps.append(acc)
    return vector(dim, comps)


class TestContractionIdentity:
    def test_raised_transport_matches_tensor_transport(self):
        # with L_X gamma = 0 the once-raised transport equals the tensor-style
        # Lie derivative of the raised symbols plus the gamma-raised Hessian
        rng = random.Random(8)
        n = 2
        dim = n + 1
        gamma = flat_gamma(n)
        phi = Poly.variable(dim, 1) ** 2 + Poly.variable(dim, 0) * Poly.variable(dim, 2)
        g = standard_connection(n, phi)
        for _ in range(10):
            x = random_coriolis_field(rng, n)
            assert lie_derivative(x, gamma).is_zero
            ld = lie_derivative_connection(x, g)
            lhs = raise_connection_transport(ld, gamma, 1)
            tensorish = lie_derivative(x, raise_connection(g, gamma, 1))

            def hessian(idx):
                b, c, a = idx
                total = Poly.zero(dim)
                for k in range(dim):
                    total = total + gamma.comp(b, k) * x.comp(c).partial(a).partial(k)
                return total

            rhs = tensorish + TensorField.build(dim, 2, 1, hessian)
            assert (lhs - rhs).is_zero


class TestBracketAndHelpers:
    def test_vector_bracket_example(self):
        t = Poly.variable(3, 0)
        x = basis_vector(3, 0)
        y = vector(3, [Poly.zero(3), t, Poly.zero(3)])
        assert (vector_bracket(x, y) - basis_vector(3, 1)).is_zero

    def test_gradient_pairing(self):
        f = Poly.variable(2, 0) * Poly.variable(2, 1)
        df = gradient(f)
        assert df.comp(0) == Poly.variable(2, 1)
        assert df.comp(1) == Poly.variable(2, 0)

    def test_connection_torsion_rejected(self):
        dim = 2
        syms = [Poly.zero(dim)] * 8
        syms[(0 * dim + 1) * dim + 0] = Poly.const(dim, 1)  # G_01^0 != G_10^0
        with pytest.raises(ValueError):
            Connection(dim, tuple(syms))


class TestIndexRange:
    def test_component_index_out_of_range_raises(self):
        t = TensorField.zero(3, 0, 2)
        for indices in [(0, 3), (0, 4), (3, 0), (-1, 0), (0, -1)]:
            with pytest.raises(ValueError, match="out of range"):
                t.comp(*indices)

    def test_symbol_index_out_of_range_raises(self):
        conn = Connection.zero(3)
        for indices in [(0, 0, 3), (3, 0, 0), (0, 3, 0), (0, 0, -1), (-1, 0, 0)]:
            with pytest.raises(ValueError, match="out of range"):
                conn.symbol(*indices)

    def test_contraction_beyond_the_slot_letters_raises(self):
        # the kernel names each slot by a letter; 24 slots fit, 26 do not
        two = Poly.const(1, 2)
        t12 = TensorField(1, 12, 0, (two,))
        assert tensor_product(t12, t12).comp(*[0] * 24) == Poly.const(1, 4)
        t13 = TensorField(1, 13, 0, (two,))
        with pytest.raises(ValueError, match="more than 24 slots"):
            tensor_product(t13, t13)

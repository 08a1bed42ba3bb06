"""Tensor calculus: Lie derivatives, covariant derivative, curvature, and the
Newtonian symmetry check, all against hand-expanded oracles."""

import copy
import gc
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import SHAPES, contract, fresh_frames, nonzero_coefficients, shaped_polys
from ncw.poly import Poly, _q
from ncw.solver import _generic_field, ansatz_monomials
from ncw.structures import field_strength, standard_structure
from ncw.tensors import (
    Connection,
    CurvatureField,
    TensorField,
    _LETTERS,
    _einsum,
    _plan,
    apply_metric,
    check_newtonian,
    covariant_derivative,
    curvature,
    directional,
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
    return TensorField.build(dim, p, q, lambda idx: random_poly(rng, dim))


def stores_no_zero(*fields):
    """Whether every field keeps only nonzero components."""
    return all(all(f.nonzero.values()) for f in fields)


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
        x1 = Poly.variable(2, 1)
        for _ in range(25):
            x = random_vector(rng, 2)
            s = random_tensor(rng, 2, 1, 0)
            t = random_tensor(rng, 2, 0, 1)
            lhs = lie_derivative(x, tensor_product(s, t))
            rhs = tensor_product(lie_derivative(x, s), t) + tensor_product(
                s, lie_derivative(x, t)
            )
            assert (lhs - rhs).is_zero
            assert lhs == rhs and stores_no_zero(lhs, rhs, lhs - rhs, -rhs, lhs.scale(x1))

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
            assert stores_no_zero(lhs, rhs, vector_bracket(x, y), lhs.scale(0))

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
            assert stores_no_zero(g, ld, raise_connection(g, flat_gamma(2), 2))
            raised = raise_connection_transport(ld, tensor_product(x, x), 1)
            assert stores_no_zero(covariant_derivative(g, x), raised)
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

    def test_directional_rejects_mismatched_shapes(self):
        # as pairing does: a 1-form is not a vector field, and a zero vector
        # of dimension 2 does not differentiate a function of dimension 3
        rng = random.Random(43)
        f = random_poly(rng, 3)
        for vec, fn in [
            (random_tensor(rng, 3, 0, 1), f),
            (vector(2, [Poly.zero(2)] * 2), f),
            (random_tensor(rng, 2, 1, 0), f),
        ]:
            with pytest.raises(ValueError, match="directional needs"):
                directional(vec, fn)

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


    def test_one_triangle_of_d_gamma_is_zero_exactly_when_all_of_it_is(self):
        # gamma = L L^T on the spatial block, L unit lower triangular with
        # drawn entries, theta = dt and U = d/dt: the induced connection of
        # a drawn gauge form parallelizes gamma, and one added symmetric
        # pair of symbols mostly breaks that.  covariant_derivative computes
        # one triangle of D gamma and mirrors it; the full sum here does not
        from ncw.structures import GalileiStructure, ncb_structure

        seen = set()
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(1, 3)
            dim = n + 1
            zero = Poly.zero(dim)
            lower = {
                (i, j): Poly.const(dim, 1) if i == j else random_poly(rng, dim, 1, 1)
                for i in range(1, dim)
                for j in range(1, i + 1)
            }
            gamma = TensorField.build(dim, 2, 0, lambda idx: sum(
                (lower[idx[0], k] * lower[idx[1], k] for k in range(1, min(idx) + 1)), zero
            ))
            a_form = one_form(dim, [random_poly(rng, dim) for _ in range(dim)])
            g = GalileiStructure(n, gamma, dt_form(n))
            conn = ncb_structure(g, basis_vector(dim, 0), a_form).induced_connection()
            if rng.random() < 0.5:
                a, b, c = (rng.randrange(dim) for _ in range(3))
                entries = dict(conn.nonzero)
                extra = random_poly(rng, dim)
                for key in {(a, b, c), (b, a, c)}:
                    entries[key] = entries.get(key, zero) + extra
                conn = Connection(dim, {key: v for key, v in entries.items() if v})

            def d_gamma(a, b, c):
                # (D gamma)^{ab}_c = d_c gamma^{ab} + G_ck^a gamma^{kb} + G_ck^b gamma^{ak}
                total = gamma.comp(a, b).partial(c)
                for k in range(dim):
                    total += conn.symbol(c, k, a) * gamma.comp(k, b)
                    total += conn.symbol(c, k, b) * gamma.comp(a, k)
                return total

            full = TensorField.build(dim, 2, 1, lambda idx: d_gamma(*idx))
            assert covariant_derivative(conn, gamma) == full
            seen.add(full.is_zero)
        assert seen == {True, False}


class TestCurvature:
    def test_flat(self):
        assert curvature(Connection.zero(3)).is_zero

    def test_standard_quadratic_potential(self):
        # phi = x1^2, n=1: R_100^1 = d_1 G_00^1 = 2 and R_010^1 = -2
        phi = Poly.variable(2, 1) ** 2
        r = curvature(standard_connection(1, phi))
        assert r.comp(1, 0, 0, 1) == Poly.const(2, 2)
        assert r.comp(0, 1, 0, 1) == Poly.const(2, -2)
        assert len(r.nonzero) == 2

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
            assert stores_no_zero(r, r.negated())
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

    def test_one_contraction_matches_the_two_contraction_form(self):
        def reference(r, gamma):
            lhs = _einsum("bk,akcd->acbd", gamma, r)
            rhs = _einsum("dk,ckab->acbd", gamma, r)
            zero = Poly.zero(r.dimension)
            defect = [k for k in lhs.keys() | rhs.keys() if lhs.get(k, zero) != rhs.get(k, zero)]
            return (False, min(defect)) if defect else (True, None)

        rng = random.Random(53)
        verdicts = []
        for _ in range(30):
            n = rng.randint(1, 3)
            dim = n + 1
            symbols = {}

            def fn(a, b, c):
                # torsion-free, about a third of the symbols nonzero
                key = (min(a, b), max(a, b), c)
                if key not in symbols:
                    symbols[key] = random_poly(rng, dim) if rng.random() < 0.3 else Poly.zero(dim)
                return symbols[key]

            connections = [
                standard_connection(n, random_poly(rng, dim, degree=3)),
                Connection.build(dim, fn),
            ]
            if n == 2:
                connections.append(rotation_connection(random_poly(rng, dim)))
            metrics = [flat_gamma(n), TensorField.build(dim, 2, 0, lambda idx: random_poly(rng, dim))]
            for g in connections:
                r = curvature(g)
                for gamma in metrics:
                    expected = reference(r, gamma)
                    assert check_newtonian(r, gamma) == expected
                    verdicts.append(expected[0])
        assert True in verdicts and False in verdicts

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
        # both presets hold the frame's pair, so each solve is on a preset
        # built on a fresh frame, whose pair has no Coriolis kernel yet: every
        # solve runs stage one (flat galilei's stage two multiplies nothing)
        structures = {
            "flat n=2": lambda: flat_structure(2).induced_nc(),
            "oscillator n=2": lambda: standard_structure(2, x1**2 + x2**2).induced_nc(),
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
        for name, build in structures.items():
            for flavor in FLAVORS:
                fresh_frames()
                s = build()
                operands.clear()
                basis = solve_symmetries(s, flavor, 2)
                assert operands, (name, flavor)
                assert all(a and b for a, b in operands), (name, flavor)
                operands.clear()
                for x in basis.fields + (outsider,):
                    classify(x, s)
                assert operands, (name, flavor)
                assert all(a and b for a, b in operands), (name, flavor)

    def test_transverse_metric_multiplies_only_nonzero_entries(self, monkeypatch):
        from pathlib import Path

        from ncw.dsl import build_structure, parse_structure
        from ncw.structures import flat_structure, transverse_metric

        x1, x2 = Poly.variable(3, 1), Poly.variable(3, 2)
        sheared = Path(__file__).parent.parent / "samples" / "sheared.ncw"
        # every h is computed on Poly entries, so the one product with a zero
        # operand is the adjugate's product by the integer 0 that makes its
        # zero entry; no product walks an absent entry
        structures = {
            "flat n=2": flat_structure(2),
            "flat n=3": flat_structure(3),
            "oscillator n=2": standard_structure(2, x1**2 + x2**2),
            "sheared": build_structure(parse_structure(sheared.read_text())).ncb,
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
            h = transverse_metric(s.base, s.u)
            assert h == s.transverse, name
            assert operands, name
            assert [b for a, b in operands if not (a and b)] == [0], name

    def test_contractions_leave_no_reference_cycles(self):
        from ncw.solver import solve_symmetries

        t, x1, x2, x3 = (Poly.variable(4, i) for i in range(4))
        s = standard_structure(3, x1**2 + x2**2 + t * x3).induced_nc()
        x = vector(4, [Poly.const(4, 1), x2, -x1, t])

        def contract():
            lie_derivative(x, s.base.gamma)
            check_newtonian(curvature(s.connection), s.base.gamma)

        contract()
        gc.collect()
        gc.disable()
        try:
            contract()
            assert gc.collect() == 0
            solve_symmetries(s, "galilei", 1)
            assert gc.collect() == 0
        finally:
            gc.enable()


def kernel_case(spec, dim, seed):
    """Sparse factors for spec: entries drawn from a small pool, so that
    sums cancel often; every other factor is a field, the rest plain dicts."""
    rng = random.Random(seed)
    x1 = Poly.variable(dim, 1)
    pool = [Poly.const(dim, 1), Poly.const(dim, -1), Poly.const(dim, 2), x1, -x1,
            x1 * Poly.variable(dim, 0)]
    factors = []
    for i, term in enumerate(spec.split("->")[0].split(",")):
        entries = {
            idx: rng.choice(pool)
            for idx in product(range(dim), repeat=len(term))
            if rng.random() < 0.5
        }
        factors.append(entries if i % 2 else TensorField(dim, len(term), 0, entries))
    return factors


def dense_einsum(spec, dim, factors):
    """The contraction by brute force: every assignment of every letter."""
    inputs, output = spec.split("->")
    terms = inputs.split(",")
    letters = sorted(set(inputs) - {","})
    entries = [getattr(f, "nonzero", f) for f in factors]
    out = {}
    for values in product(range(dim), repeat=len(letters)):
        at = dict(zip(letters, values))
        term = Poly.const(dim, 1)
        for letters_of, factor in zip(terms, entries):
            term = term * factor.get(tuple(at[ch] for ch in letters_of), Poly.zero(dim))
        key = tuple(at[ch] for ch in output)
        out[key] = out.get(key, Poly.zero(dim)) + term
    return {key: value for key, value in out.items() if value}


@st.composite
def kernel_specs(draw):
    """1 to 4 terms over at most 4 of the slot letters; a letter may repeat
    within a term and the output is any ordering of some of the letters used."""
    letters = draw(st.lists(st.sampled_from(_LETTERS), min_size=1, max_size=4, unique=True))
    terms = draw(st.lists(st.text(letters, min_size=0, max_size=3), min_size=1, max_size=4))
    used = sorted(set("".join(terms)))
    output = draw(st.permutations(used))[: draw(st.integers(0, len(used)))]
    return ",".join(terms) + "->" + "".join(output)


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(kernel_specs(), st.integers(2, 3), st.integers(0, 1000))
    @example("aa->a", 3, 0)
    @example("akk->a", 3, 1)
    @example("k,k->", 2, 2)
    @example("bac->abc", 3, 3)
    @example("ckl,ak,bl->abc", 2, 4)
    @example("ab,b,ab->", 2, 5)
    # one for each shape of the generated loop nest
    @example("ak,k->a", 3, 6)  # every letter of a factor bound: one lookup
    @example("ab,aa->b", 3, 7)  # bound, with a repeated letter
    @example("ab->a", 3, 8)  # a letter summed in the first factor
    @example(",a->a", 3, 9)  # an empty term
    @example("ba->ab", 3, 10)  # a re-keying
    @example("a,abb->ab", 3, 11)  # grouped by a bound letter, a new one repeated
    def test_matches_the_dense_sum(self, spec, dim, seed):
        factors = kernel_case(spec, dim, seed)
        result = _einsum(spec, *factors)
        expected = dense_einsum(spec, dim, factors)
        assert result == expected
        assert all(result.values())
        # a field of the kernel's entries equals one of the same entries in
        # the reverse order, and one built component by component
        rank = len(spec.split("->")[1])
        field = TensorField(dim, rank, 0, result)
        assert field == TensorField(dim, rank, 0, dict(reversed(expected.items())))
        zero = Poly.zero(dim)
        assert field == TensorField.build(dim, rank, 0, lambda idx: expected.get(idx, zero))

    def test_golden_matrix_compiles_few_specs(self):
        # each spec is compiled on first use, so a one-shot process pays
        # once for every spec its command meets
        from regen_golden import CASES, run_case

        per_case = {}
        for name, argv in CASES.items():
            _plan.cache_clear()
            run_case(argv)
            per_case[name] = _plan.cache_info().currsize
        assert max(per_case.values()) <= 16, per_case
        _plan.cache_clear()
        for argv in CASES.values():
            run_case(argv)
        assert 0 < _plan.cache_info().currsize < 64

    @pytest.mark.parametrize("spec", ["a;b->a", "a->a->a", "aB->a", "ab", "ab->c", "ab->aa",
                                      "ay->a", "a b->a", "a,b->a\n"])
    def test_malformed_spec_is_refused_before_any_source(self, spec, monkeypatch):
        def refuse(*args):
            raise AssertionError("source generated for a malformed spec")

        monkeypatch.setattr("ncw.tensors.compile", refuse, raising=False)
        one = {(0,): Poly.const(1, 1)}
        with pytest.raises(ValueError, match="malformed contraction spec"):
            _einsum(spec, one, one)

    def test_wrong_factor_count_is_refused(self):
        one = {(0, 0): Poly.const(1, 1)}
        for factors in [(one, one), ()]:
            with pytest.raises(ValueError):
                _einsum("ab->a", *factors)


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
        with pytest.raises(ValueError, match="torsion"):
            Connection(dim, {(0, 1, 0): Poly.const(dim, 1)})  # G_01^0 != G_10^0

    def test_torsion_names_the_least_key_of_the_mismatched_pair(self):
        # only G_10^c is set: the refusal names the pair's least key, (0,1)
        dim = 3
        for c in range(dim):
            message = rf"^connection has torsion at lower pair \(0,1\), upper {c}$"
            with pytest.raises(ValueError, match=message):
                Connection(dim, {(1, 0, c): Poly.const(dim, 1)})


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

    def test_curvature_index_out_of_range_raises(self):
        r = curvature(standard_connection(1, Poly.variable(2, 1) ** 2))
        for indices in [(0, 0, 0, 2), (0, 0, 0, -1), (2, 0, 0, 0), (1, 0, 0, 2)]:
            with pytest.raises(ValueError, match="out of range"):
                r.comp(*indices)

    @pytest.mark.parametrize(
        "make, rank",
        [
            (lambda entries: TensorField(2, 1, 1, entries), 2),
            (lambda entries: Connection(2, entries), 3),
            (lambda entries: CurvatureField(2, entries), 4),
        ],
        ids=["tensor", "connection", "curvature"],
    )
    def test_constructors_refuse_anything_but_nonzero_entries_in_range(self, make, rank):
        one = Poly.const(2, 1)
        assert make({}).is_zero
        bad = [
            {(0,) * rank: Poly.zero(2)},  # a zero value
            {(0,) * (rank - 1) + (2,): one},  # out of range
            {(0,) * (rank - 1) + (-1,): one},
            {(0,) * (rank + 1): one},  # wrong length
            {(0,) * (rank - 1): one},
            {(0,) * rank: Poly.const(3, 1)},  # wrong dimension
            {(0,) * rank: 1},
            {str((0,) * rank): one},  # not a tuple
            (one,) * 2**rank,  # a dense tuple, the old way
            [one] * 2**rank,
        ]
        for entries in bad:
            with pytest.raises(ValueError):
                make(entries)

    def test_bool_index_is_refused(self):
        # True == 1 and hash(True) == hash(1), but an index is an int
        x1 = Poly.variable(3, 1)
        for index in [(True,), (False,)]:
            with pytest.raises(ValueError, match="is not an int"):
                TensorField(3, 1, 0, {index: x1})
        with pytest.raises(ValueError, match="is not an int"):
            Connection(3, {(0, 0, True): x1})
        with pytest.raises(ValueError, match="is not an int"):
            vector(3, [x1, x1, x1]).comp(True)
        with pytest.raises(ValueError, match="is not an int"):
            Connection.zero(3).symbol(0, False, 0)

    def test_contraction_beyond_the_slot_letters_raises(self):
        # the kernel names each slot by a letter; 24 slots fit, 26 do not
        two = Poly.const(1, 2)
        t12 = TensorField(1, 12, 0, {(0,) * 12: two})
        assert tensor_product(t12, t12).comp(*[0] * 24) == Poly.const(1, 4)
        t13 = TensorField(1, 13, 0, {(0,) * 13: two})
        with pytest.raises(ValueError, match="more than 24 slots"):
            tensor_product(t13, t13)


# ----------------------------------------------------------------------
# operator results are stored as the constructors require

def _terms(entries):
    """A field's (or an entry dict's) terms, comparable for Poly and the
    solver's _FormPoly alike; _FormPoly has no ==."""
    return {idx: value.terms for idx, value in getattr(entries, "nonzero", entries).items()}


def assert_stored(field):
    """The storage invariant the constructors enforce: only nonzero
    components of the field's dimension, under index tuples of its rank
    with every index in range."""
    for idx, value in field.nonzero.items():
        assert type(idx) is tuple and len(idx) == field.rank, idx
        assert all(type(i) is int and 0 <= i < field.dimension for i in idx), idx
        assert value and value.dimension == field.dimension, (idx, value)


@st.composite
def drawn_polys(draw, dim):
    return draw(shaped_polys(dim, draw(st.sampled_from(SHAPES))))


@st.composite
def drawn_fields(draw, dim, p, q):
    keys = st.tuples(*[st.integers(0, dim - 1)] * (p + q))
    entries = draw(st.dictionaries(keys, drawn_polys(dim), max_size=4))
    return TensorField(dim, p, q, {idx: v for idx, v in entries.items() if v})


@st.composite
def drawn_connections(draw, dim):
    index = st.integers(0, dim - 1)
    entries = draw(st.dictionaries(st.tuples(index, index, index), drawn_polys(dim), max_size=4))
    symbols = {}
    for (a, b, c), v in entries.items():
        if v:
            symbols[a, b, c] = symbols[b, a, c] = v
    return Connection(dim, symbols)


@st.composite
def generic_fields(draw, dim):
    """The solver's generic field sum_i y_i v_i over drawn ansatz vectors,
    whose components are _FormPolys."""
    monos = ansatz_monomials(dim, draw(st.integers(0, 1)))
    position = st.integers(0, dim * len(monos) - 1)
    columns = draw(st.lists(
        st.dictionaries(position, nonzero_coefficients().map(_q), min_size=1, max_size=3),
        min_size=1, max_size=3,
    ))
    return _generic_field(dim, monos, columns)


class TestStoredResults:
    """The operators wrap their results without the constructors' entry
    checks, so this property guards the invariant those checks enforce, on
    Poly fields and on the solver's generic field: every result stores only
    nonzero in-range entries of its dimension, and a second call gives the
    same result and leaves each operand's cached derivative as it was."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_result_is_stored_as_the_constructors_require(self, data):
        dim = data.draw(st.integers(2, 3))
        p, q = data.draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]))
        t = data.draw(drawn_fields(dim, p, q))
        t2 = data.draw(drawn_fields(dim, p, q))
        y = data.draw(drawn_fields(dim, 1, 0))
        x = data.draw(st.one_of(drawn_fields(dim, 1, 0), generic_fields(dim)))
        w = data.draw(drawn_fields(dim, 0, 1))
        gamma = data.draw(drawn_fields(dim, 2, 0))
        conn = data.draw(drawn_connections(dim))
        f = data.draw(drawn_polys(dim))
        operators = {
            "add": lambda: t + t2,
            "sub": lambda: t - t2,
            "neg": lambda: -t,
            "tensor_product": lambda: tensor_product(t, x),
            "apply_metric": lambda: apply_metric(gamma, w),
            "gradient": lambda: gradient(f),
            "vector_bracket": lambda: vector_bracket(x, y),
            "lie_derivative": lambda: lie_derivative(x, t),
            "lie_derivative_connection": lambda: lie_derivative_connection(x, conn),
            "raise_connection": lambda: raise_connection(conn, gamma, 2),
            "raise_connection_transport": lambda: raise_connection_transport(
                lie_derivative_connection(x, conn), gamma, 1
            ),
            "covariant_derivative": lambda: covariant_derivative(conn, t),
            "curvature": lambda: curvature(conn),
            "negated": lambda: curvature(conn).negated(),
            "field_strength": lambda: field_strength(w),
        }
        if p and q:
            operators["contract"] = lambda: contract(t, 0, 0)
        operands = (t, t2, y, x, w, gamma, conn)
        for name, op in operators.items():
            first = op()
            assert_stored(first)
            cached = [
                (o, o.derivative, copy.deepcopy(_terms(o.derivative)))
                for o in operands
                if "derivative" in vars(o)
            ]
            again = op()
            assert (type(again), _terms(again)) == (type(first), _terms(first)), name
            for o, derivative, before in cached:
                assert o.derivative is derivative and _terms(derivative) == before, name

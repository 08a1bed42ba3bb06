"""Polynomial core: arithmetic examples, ring axioms, calculus laws, and
the canonical exact coefficient (an int when integral, else a Fraction with
a denominator above 1)."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SHAPES, is_canonical, shaped_polys
from ncw.poly import Poly, _accumulate, grlex_monomials, time_part


def P(dim, terms):
    return Poly(dim, terms)


t = Poly.variable(2, 0)
x1 = Poly.variable(2, 1)


class TestArithmeticExamples:
    def test_monomial_product(self):
        assert x1 * x1 == Poly.monomial(2, (0, 2))

    def test_additive_identity(self):
        p = 3 * t + x1**2
        assert p + Poly.zero(2) == p

    def test_difference_of_squares(self):
        # (t + x1)(t - x1): term-by-term oracle gives t^2 + t*x1 - t*x1 - x1^2
        expected = Poly(2, {(2, 0): 1, (0, 2): -1})
        assert (t + x1) * (t - x1) == expected

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Poly.variable(2, 0) + Poly.variable(3, 0)

    def test_scalar_coercion(self):
        assert (x1 + 1) - 1 == x1
        assert Fraction(1, 2) * (2 * x1) == x1

    def test_power(self):
        assert (t + x1) ** 0 == Poly.const(2, 1)
        assert (t + x1) ** 3 == (t + x1) * (t + x1) * (t + x1)


class TestPartial:
    def test_power_rule(self):
        assert (x1**2).partial(1) == 2 * x1

    def test_independent_variable(self):
        assert x1.partial(0) == Poly.zero(2)

    def test_termwise_product(self):
        # d/dx1 (t*x1*x2) = t*x2 by the term-wise rule
        t3 = Poly.variable(3, 0)
        a = Poly.variable(3, 1)
        b = Poly.variable(3, 2)
        assert (t3 * a * b).partial(1) == t3 * b

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            x1.partial(2)

    @pytest.mark.parametrize("index", [True, False, 1.0, 0.5, Fraction(1)])
    def test_an_index_or_axis_that_is_not_an_int_is_refused(self, index):
        # a bool is an int, so True read as 1 before; a float failed in
        # list indexing with a TypeError
        message = f"variable index {index!r} is not an int in range(0, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Poly.variable(3, index)
        message = f"axis {index!r} is not an int in range(0, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Poly.variable(3, 1).partial(index)

    @pytest.mark.parametrize("axis", [-1, 3, 5])
    def test_degree_in_refuses_an_axis_out_of_range(self, axis):
        # -1 read the last variable, and 5 raised an IndexError
        message = f"axis {axis} is not an int in range(0, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Poly.variable(3, 1).degree_in(axis)

    @pytest.mark.parametrize("axis", [True, 1.0])
    def test_degree_in_refuses_an_axis_that_is_not_an_int(self, axis):
        message = f"axis {axis!r} is not an int in range(0, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Poly.variable(3, 1).degree_in(axis)

    @pytest.mark.parametrize("exps", [(1,), (0, 1, 0)])
    def test_coefficient_refuses_an_exponent_tuple_of_the_wrong_length(self, exps):
        # (1,) read as a missing monomial and returned 0
        message = f"^Poly.coefficient needs 2 entries, not {len(exps)}$"
        with pytest.raises(ValueError, match=message):
            x1.coefficient(exps)
        assert x1.coefficient((0, 1)) == 1

    @pytest.mark.parametrize("power", [True, False, 2.0, -1])
    def test_a_power_that_is_not_a_non_negative_int_is_refused(self, power):
        # x1 ** True returned x1
        with pytest.raises(ValueError, match=f"^power {re.escape(repr(power))} is not a non-negative int$"):
            x1**power


def small_fractions():
    return st.fractions(min_value=-5, max_value=5, max_denominator=4)


def coefficients():
    """ints and Fractions mixed, integral Fractions among them."""
    return st.one_of(st.integers(-5, 5), small_fractions())


@st.composite
def polys(draw, dimension=2, max_degree=3, max_terms=5):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(0, max_degree)) for _ in range(dimension)
        )
        terms[exps] = draw(coefficients())
    return Poly(dimension, terms)


def as_fractions(p):
    """p with every coefficient a Fraction, integral ones included, built
    past the canonical form: the all-Fraction input the oracles run on."""
    return Poly._raw(p.dimension, {e: Fraction(c) for e, c in p.terms.items()})


class TestRingAxioms:
    @settings(max_examples=60)
    @given(polys(), polys(), polys())
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)

    @settings(max_examples=60)
    @given(polys(), polys(), polys())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60)
    @given(polys(), polys())
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @settings(max_examples=60)
    @given(polys(dimension=3))
    def test_mixed_partials_commute(self, p):
        for i in range(3):
            for j in range(3):
                assert p.partial(i).partial(j) == p.partial(j).partial(i)

    @settings(max_examples=40)
    @given(polys(), polys())
    def test_leibniz(self, a, b):
        for axis in range(2):
            assert (a * b).partial(axis) == a.partial(axis) * b + a * b.partial(axis)

    @settings(max_examples=60)
    @given(polys(), polys(), coefficients())
    def test_results_are_canonical_and_match_all_fraction_inputs(self, a, b, c):
        fa, fb, fc = as_fractions(a), as_fractions(b), Fraction(c)
        cases = [
            (a + b, fa + fb),
            (a - b, fa - fb),
            (-a, -fa),
            (a * b, fa * fb),
            (c * a, fc * fa),
            (a * c, fa * fc),
            (a.partial(0), fa.partial(0)),
            (a.partial(1), fa.partial(1)),
            (a.substitute([b, a + b]), fa.substitute([fb, fa + fb])),
            (a.extended(3), fa.extended(3)),
            (time_part(a), time_part(fa)),
        ]
        for result, oracle in cases:
            assert all(is_canonical(v) for v in result.terms.values()), result.terms
            assert result == oracle


def reference_product(a, b):
    """a * b by the all-Fraction double loop, built with the trusted
    constructor: the oracle for every shape of operand."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            out[exps] = out.get(exps, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return Poly._raw(a.dimension, {e: c for e, c in out.items() if c})


def reference_sum(a, b):
    """a + b in Fractions, built with the trusted constructor."""
    out = {e: Fraction(c) for e, c in a.terms.items()}
    for e, c in b.terms.items():
        out[e] = out.get(e, Fraction(0)) + Fraction(c)
    return Poly._raw(a.dimension, {e: c for e, c in out.items() if c})


@pytest.mark.parametrize("shape_b", SHAPES)
@pytest.mark.parametrize("shape_a", SHAPES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_products_of_every_shape_match_the_double_loop(shape_a, shape_b, data):
    a = data.draw(shaped_polys(2, shape_a))
    b = data.draw(shaped_polys(2, shape_b))
    before = (dict(a.terms), dict(b.terms))
    oracle = reference_product(a, b)
    for result in (a * b, b * a):
        assert result == oracle
        assert all(is_canonical(v) for v in result.terms.values()), result.terms
        assert all(v != 0 for v in result.terms.values())
    for result in (a + b, b + a):
        assert result == reference_sum(a, b)
        assert all(is_canonical(v) for v in result.terms.values()), result.terms
    assert (a.terms, b.terms) == before
    if shape_b == "one":
        # a product by 1 is the other operand itself, not a copy
        assert a * b is a
    # and so is a sum with zero
    assert a + 0 is a and 0 + a is a
    if shape_b == "zero":
        # a zero self is returned as it is, so of two zeros the left one
        assert a + b is a and b + a is (a if a.terms else b)


class TestExactCoefficients:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Poly.const(2, 0.1),
            lambda: Poly.const(2, True),
            lambda: Poly(2, {(0, 0): "1/3"}),
            lambda: Poly(2, {(0, 0): True}),
            lambda: Poly(2, {(1, 0): 0.5}),
            lambda: Poly.monomial(2, (1, 0), 0.5),
            lambda: Poly.monomial(2, (1, 0), "2"),
        ],
        ids=["const-float", "const-bool", "init-str", "init-bool", "init-float",
             "monomial-float", "monomial-str"],
    )
    def test_public_constructors_refuse_inexact_coefficients(self, make):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            make()

    @pytest.mark.parametrize(
        "exps", [(1.5, 0), (True, 0), ("1", 0)], ids=["float", "bool", "str"]
    )
    def test_constructor_refuses_exponents_that_are_not_ints(self, exps):
        # a float exponent would render as t^1.5, which does not parse again
        with pytest.raises(ValueError, match=f"exponents in {re.escape(repr(exps))}"):
            Poly(2, {exps: 1})

    @pytest.mark.parametrize("dimension", [True, False, 2.5, 0, -1, "2"])
    def test_a_dimension_that_is_not_a_positive_int_is_refused(self, dimension):
        # Poly(True) gave Poly[True](0), and Poly(2.5) was taken
        message = f"^dimension {re.escape(repr(dimension))} is not a positive int$"
        for make in (
            lambda: Poly(dimension), lambda: Poly.zero(dimension), lambda: Poly.const(dimension, 1)
        ):
            with pytest.raises(ValueError, match=message):
                make()

    @pytest.mark.parametrize("flag", [True, False])
    def test_a_bool_scalar_is_refused_in_a_product(self, flag):
        # x1 * True returned x1, while x1 + True and Poly.const(2, True)
        # were refused
        for product in (lambda: x1 * flag, lambda: flag * x1):
            with pytest.raises(TypeError, match=f"^coefficient {flag} is not an int or a Fraction$"):
                product()
        assert x1 * 1 == x1 and x1 * Fraction(1, 2) == Poly.monomial(2, (0, 1), Fraction(1, 2))

    def test_float_scalars_are_refused(self):
        with pytest.raises(TypeError):
            x1 * 0.5
        with pytest.raises(TypeError):
            x1 + 0.5

    def test_integral_coefficients_are_stored_as_int(self):
        p = Poly(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2), (0, 0): 3})
        assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 2), (0, 0): 3}
        assert all(is_canonical(c) for c in p.terms.values())
        assert type(Poly.const(2, Fraction(6, 3)).coefficient((0, 0))) is int
        # 1/2 * (2 x1), d/dx1 (x1^2 / 2), (x1 / 2)^2 * 4 and 1/3 + 2/3 come out integral
        half = Fraction(1, 2)
        for q in (
            half * (2 * x1),
            (half * x1**2).partial(1),
            (half * x1) ** 2 * 4,
            Poly.const(2, Fraction(1, 3)) + Fraction(2, 3),
        ):
            assert q.terms and all(type(c) is int for c in q.terms.values())

    def test_int_and_fraction_forms_compare_and_render_alike(self):
        assert Poly.const(2, 3) == Fraction(3)
        assert Poly.const(2, 3) == 3
        assert Poly.const(2, 0) == 0
        assert str(Poly.monomial(2, (1, 1), 3)) == str(Fraction(3) * t * x1) == "3*t*x1"


def _canonical(f):
    return f.numerator if f.denominator == 1 else f


_coefficients = (
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool).map(_canonical)
)
_factors = st.one_of(st.sampled_from([1, -1]), st.integers(-4, 4).filter(bool), _coefficients)


class TestAccumulate:
    """The one sparse exact sum, target += factor * source, shared by Poly
    terms, the solver's linear forms and the eliminator's rows."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_a_fraction_reference(self, data):
        target = data.draw(st.dictionaries(st.integers(0, 6), _coefficients, max_size=6))
        source = data.draw(st.dictionaries(st.integers(0, 6), _coefficients, max_size=6))
        factor = data.draw(_factors)
        # some shared keys cancel exactly
        for key in data.draw(st.sets(st.sampled_from(sorted(target)))) if target else ():
            source[key] = _canonical(Fraction(-target[key]) / factor)
        expected = {k: Fraction(v) for k, v in target.items()}
        for k, v in source.items():
            expected[k] = expected.get(k, 0) + factor * Fraction(v)
        before = [(k, type(v), v) for k, v in source.items()]
        _accumulate(target, source, factor)
        # kept keys in their place, new keys after them in source order
        assert list(target.items()) == [(k, v) for k, v in expected.items() if v]
        assert all(v != 0 and is_canonical(v) for v in target.values()), target
        assert [(k, type(v), v) for k, v in source.items()] == before


class TestQueries:
    def test_evaluate(self):
        p = Fraction(3, 2) * t**2 * x1 + 1
        assert p.evaluate([2, Fraction(1, 3)]) == Fraction(3, 2) * 4 * Fraction(1, 3) + 1
        assert type(p.evaluate([2, Fraction(2, 3)])) is int

    @pytest.mark.parametrize("point", [[0.1, 0], [1, "1/3"], [True, 0]], ids=["float", "str", "bool"])
    def test_evaluate_refuses_inexact_coordinates(self, point):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            (t + x1).evaluate(point)

    def test_substitute_affine(self):
        p = t * x1
        # t -> t, x1 -> x1 + 2t
        q = p.substitute([t, x1 + 2 * t])
        assert q == t * x1 + 2 * t**2

    def test_substitute_changes_dimension(self):
        p = x1**2
        y = Poly.variable(3, 2)
        q = p.substitute([Poly.variable(3, 0), y])
        assert q == y * y

    def test_extended(self):
        assert x1.extended(4).dimension == 4
        assert x1.extended(4) == Poly.variable(4, 1)

    def test_time_part(self):
        p = t**2 + 3 * t * x1 + 5
        assert time_part(p) == t**2 + 5

    def test_depends_only_on(self):
        assert (t**2 + 1).depends_only_on([0])
        assert not (t * x1).depends_only_on([0])

    def test_degrees(self):
        p = t**2 * x1 + x1
        assert p.total_degree() == 3
        assert p.degree_in(0) == 2
        assert Poly.zero(2).total_degree() == -1


class TestRendering:
    def test_canonical_strings(self):
        assert str(Poly.zero(2)) == "0"
        assert str(Fraction(3, 2) * t**2 * x1) == "3/2*t^2*x1"
        assert str(x1 - t) == "-t + x1"  # graded-lex descending, t major
        assert str(-x1) == "-x1"
        assert str(Poly.const(2, Fraction(-5, 3))) == "-5/3"

    def test_grlex_enumeration(self):
        monos = grlex_monomials(2, 2)
        assert monos[0] == (0, 0)
        assert len(monos) == 6
        assert len(set(monos)) == 6
        degrees = [sum(m) for m in monos]
        assert degrees == sorted(degrees)

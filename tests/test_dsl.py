"""Structure-file parsing: grammar, presets, errors with positions, and the
parse/print round trip."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_poly
from ncw.dsl import (
    MAX_TERMS,
    ParseError,
    build_structure,
    parse_expression,
    parse_field,
    parse_one_form,
    parse_structure,
)
from ncw.poly import Poly
from ncw.structures import StructureError


class TestExpressions:
    def test_rational_coefficient_monomial(self):
        p = parse_expression("3/2*t^2*x1", 3)
        assert p == Poly(3, {(2, 1, 0): Fraction(3, 2)})

    def test_precedence_and_parentheses(self):
        assert parse_expression("1 + 2*3", 2) == Poly.const(2, 7)
        assert parse_expression("(1 + 2)*3", 2) == Poly.const(2, 9)
        assert parse_expression("2*x1^2", 2) == 2 * Poly.variable(2, 1) ** 2

    def test_unary_minus(self):
        x1 = Poly.variable(2, 1)
        assert parse_expression("-x1^2", 2) == -(x1**2)
        assert parse_expression("- -x1", 2) == x1
        assert parse_expression("1 - -2", 2) == Poly.const(2, 3)

    def test_variable_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_expression("x3", 3)  # n = 2 here

    def test_polynomial_division_rejected(self):
        with pytest.raises(ParseError, match="trailing input"):
            parse_expression("x1/2", 2)
        with pytest.raises(ParseError, match="integer literals"):
            parse_expression("3/x1", 2)

    def test_error_carries_position(self):
        try:
            parse_expression("1 + ?", 2)
        except ParseError as exc:
            assert exc.line == 1
            assert exc.col == 5
        else:
            pytest.fail("expected a parse error")

    def test_roundtrip_canonical_rendering(self):
        rng = random.Random(51)
        for _ in range(40):
            p = random_poly(rng, 3)
            assert parse_expression(str(p), 3) == p

    @settings(max_examples=80)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
            st.fractions(min_value=-9, max_value=9, max_denominator=7),
            max_size=6,
        )
    )
    def test_roundtrip_property(self, terms):
        p = Poly(3, terms)
        assert parse_expression(str(p), 3) == p


class TestDocuments:
    def test_flat_header(self):
        doc = parse_structure("flat n=2\n")
        assert doc.preset == "flat" and doc.n == 2
        built = build_structure(doc)
        assert built.nc.connection.is_zero
        assert built.ncb is not None

    def test_standard_header(self):
        doc = parse_structure("standard n=3 phi = x1^2\n")
        built = build_structure(doc)
        conn = built.nc.connection
        assert conn.symbol(0, 0, 1) == 2 * Poly.variable(4, 1)

    def test_assignment_form(self):
        text = """
        # the flat pair, written out
        name = by-hand
        n = 1
        gamma[1][1] = 1
        theta[0] = 1
        U[0] = 1
        A[0] = -1/2*x1^2
        """
        doc = parse_structure(text)
        assert doc.name == "by-hand"
        built = build_structure(doc)
        assert built.ncb is not None
        assert built.ncb.phi == Fraction(1, 2) * Poly.variable(2, 1) ** 2
        assert built.nc.connection.symbol(0, 0, 1) == Poly.variable(2, 1)

    def test_observer_form(self):
        text = """
        n = 1
        gamma[1][1] = 1
        theta[0] = 1
        U[0] = 1
        V[0] = 1
        phi = x1
        """
        built = build_structure(parse_structure(text))
        assert built.nc.connection.symbol(0, 0, 1) == Poly.const(2, 1)

    def test_presentation_routes_agree(self):
        # the same geometry through preset, gauge, and observer documents
        preset = build_structure(parse_structure("standard n=2 phi = x1*x2\n"))
        gauge = build_structure(
            parse_structure(
                "n = 2\n"
                "gamma[1][1] = 1\n"
                "gamma[2][2] = 1\n"
                "theta[0] = 1\n"
                "U[0] = 1\n"
                "A[0] = -x1*x2\n"
            )
        )
        observer = build_structure(
            parse_structure(
                "n = 2\n"
                "gamma[1][1] = 1\n"
                "gamma[2][2] = 1\n"
                "theta[0] = 1\n"
                "U[0] = 1\n"
                "V[0] = 1\n"
                "phi = x1*x2\n"
            )
        )
        reference = preset.nc.connection.symbols
        for built in (gauge, observer):
            assert all(
                (a - b).is_zero for a, b in zip(built.nc.connection.symbols, reference)
            )

    def test_explicit_connection_form(self):
        text = """
        n = 2
        gamma[1][1] = 1
        gamma[2][2] = 1
        theta[0] = 1
        Gamma[0][0][1] = x1
        Gamma[0][0][2] = x2
        """
        built = build_structure(parse_structure(text))
        assert built.ncb is None
        assert built.nc.connection.symbol(0, 0, 1) == Poly.variable(3, 1)

    def test_missing_theta_named_in_error(self):
        with pytest.raises(StructureError, match="kernel condition"):
            build_structure(parse_structure("n = 1\ngamma[1][1] = 1\nGamma[0][0][1] = 1\n"))

    def test_shape_must_be_unique(self):
        text = """
        flat n=2
        Gamma[0][0][1] = 1
        """
        with pytest.raises(StructureError, match="exactly one"):
            parse_structure(text)

    def test_missing_dimension(self):
        with pytest.raises(StructureError, match="n is required"):
            parse_structure("gamma[1][1] = 1\n")

    def test_duplicate_assignments_rejected(self):
        # a directive given twice is refused where it repeats, never overwritten
        cases = [
            ("n = 1\nn = 2\n", "line 2, column 5: duplicate n"),
            ("standard n=1 phi = x1^2\nphi = 0\n", "line 2, column 5: duplicate phi"),
            ("phi = 1\nstandard n=1 phi = 2\n", "line 2, column 18: duplicate phi"),
            ("flat n=1\nname = a\nname = b\n", "line 3, column 6: duplicate name"),
        ]
        for text, message in cases:
            with pytest.raises(ParseError, match=message):
                parse_structure(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("flat n=0\n", "line 1, column 8: n must be a positive integer"),
            ("n = 0\n", "line 1, column 5: n must be a positive integer"),
            ("flat n=2 n=3\n", "line 1, column 12: duplicate n"),
            ("n = 2\nflat n=2\n", "line 2, column 8: duplicate n"),
            ("standard n=x1 phi = 1\n", "n must be a positive integer"),
        ],
    )
    def test_header_and_line_read_n_alike(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_structure(text)
        with pytest.raises(ParseError, match="duplicate component"):
            parse_structure("n = 1\ngamma[1][1] = 1\ngamma[1][1] = 2\n")

    def test_desk_scale_guards(self):
        with pytest.raises(ParseError, match="exceeds the limit"):
            parse_expression("x1^100000", 2)
        with pytest.raises(ParseError, match="exceeds the limit"):
            parse_structure("flat n=1000\n")
        with pytest.raises(ParseError, match="exceeds the limit"):
            parse_structure("n = 1000\ngamma[1][1] = 1\n")
        with pytest.raises(ParseError, match="nesting"):
            parse_expression("(" * 100 + "1" + ")" * 100, 2)
        # long unary chains are iterative, not recursive
        assert parse_expression("-" * 3001 + "1", 2) == Poly.const(2, -1)


class TestHyphens:
    """'-' between operands is subtraction; only a name keeps its hyphens."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("t-1", "t - 1"),
            ("x1-x2", "x1 - x2"),
            ("t-x2", "t - x2"),
            ("x2-t*x1", "-t*x1 + x2"),
            ("t--1", "t + 1"),
        ],
    )
    def test_subtraction_without_spaces(self, text, expected):
        assert str(parse_expression(text, 3)) == expected

    def test_preset_potential(self):
        doc = parse_structure("standard n=2 phi = x1-x2\n")
        assert doc.potential == Poly.variable(3, 1) - Poly.variable(3, 2)
        assert build_structure(doc).ncb is not None

    def test_field_component(self):
        x = parse_field("X[1] = t-x2", 3)
        assert x.comp(1) == Poly.variable(3, 0) - Poly.variable(3, 2)

    @pytest.mark.parametrize("name", ["by-hand", "a-1", "two-x2-t", "a_b-c9"])
    def test_name_keeps_its_hyphens(self, name):
        assert parse_structure(f"name = {name}\nflat n=1\n").name == name

    def test_spaced_hyphen_ends_the_name(self):
        with pytest.raises(ParseError, match="column 11: expected a directive"):
            parse_structure("name = by - hand\nflat n=1\n")


class TestTermBudget:
    """Products and powers are refused before expanding when their result
    could exceed MAX_TERMS terms, or has an exponent above MAX_EXPONENT."""

    def test_runaway_power_is_refused_at_once(self):
        from time import perf_counter

        text = "(t+" + "+".join(f"x{i}" for i in range(1, 10)) + ")^256"
        start = perf_counter()
        with pytest.raises(ParseError, match=f"exceed the limit {MAX_TERMS} terms"):
            parse_expression(text, 10)
        assert perf_counter() - start < 1

    def test_largest_accepted_powers(self):
        assert len(parse_expression("(t+x1+x2)^40", 3).terms) == 861
        # C(m + p - 1, p) is exact for distinct variables
        assert len(parse_expression("(t+x1+x2)^43", 3).terms) == 990 <= MAX_TERMS
        with pytest.raises(ParseError, match="column 11: expansion may exceed"):
            parse_expression("(t+x1+x2)^44", 3)

    def test_product_bound(self):
        def powers(var, count):
            return "(" + "+".join(f"{var}^{k}" for k in range(count)) + ")"

        # 31 * 33 = 1023 possible terms
        with pytest.raises(ParseError, match="expansion may exceed"):
            parse_expression(f"{powers('t', 31)}*{powers('x1', 33)}", 3)
        assert len(parse_expression(f"{powers('t', 31)}*{powers('x1', 32)}", 3).terms) == 992

    def test_result_exponents_stay_within_the_limit(self):
        # t^260 would render as a report that does not parse again
        with pytest.raises(ParseError, match="column 10: exponent 260 exceeds the limit 256"):
            parse_expression("((t)^13)^20", 2)
        with pytest.raises(ParseError, match="column 6: exponent 257 exceeds the limit 256"):
            parse_expression("t^200*t^57", 2)
        assert parse_expression("t^200*t^56", 2) == Poly.monomial(2, (256, 0))
        assert parse_expression("(t^2)^128", 2) == Poly.monomial(2, (256, 0))

    def test_zero_and_constant_bases(self):
        assert parse_expression("0^0", 2) == Poly.const(2, 1)
        assert parse_expression("0^256", 2).is_zero
        assert parse_expression("(3/2)^256", 2) == Poly.const(2, Fraction(3, 2) ** 256)


class TestParserRobustness:
    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_arbitrary_text_never_crashes(self, text):
        try:
            doc = parse_structure(text)
            build_structure(doc)
        except (ParseError, StructureError, ValueError):
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="tx12 +-*^()/[]=0123456789", max_size=40))
    def test_expression_soup_never_crashes(self, text):
        try:
            parse_expression(text, 3)
        except (ParseError, ValueError):
            pass

    def test_invalid_structure_rejected(self):
        # gamma does not annihilate theta
        text = """
        n = 1
        gamma[0][0] = 1
        theta[0] = 1
        Gamma[0][0][0] = 0
        """
        with pytest.raises(StructureError, match="kernel"):
            build_structure(parse_structure(text))

    def test_non_newtonian_explicit_connection_rejected(self):
        # time-dependent rotation deformation fails the curvature symmetry
        text = """
        n = 2
        gamma[1][1] = 1
        gamma[2][2] = 1
        theta[0] = 1
        Gamma[0][1][2] = t
        Gamma[1][0][2] = t
        Gamma[0][2][1] = -t
        Gamma[2][0][1] = -t
        """
        with pytest.raises(StructureError, match="Newtonian symmetry"):
            build_structure(parse_structure(text))


class TestFieldParsing:
    def test_components_default_to_zero(self):
        x = parse_field("X[1] = t^2", 3)
        assert x.comp(0).is_zero
        assert x.comp(1) == Poly.variable(3, 0) ** 2
        assert x.comp(2).is_zero

    def test_multiline(self):
        x = parse_field("X[0] = 1\nX[2] = x1", 3)
        assert x.comp(0) == Poly.const(3, 1)
        assert x.comp(2) == Poly.variable(3, 1)

    def test_wrong_symbol_rejected(self):
        with pytest.raises(ParseError, match="expected component"):
            parse_field("Y[0] = 1", 2)

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_field, "X[1] = t\nX[1] = 1", "line 2, column 6: duplicate component X[1]"),
            (parse_one_form, "psi[0] = 1\npsi[0] = t", "line 2, column 8: duplicate component psi[0]"),
        ],
    )
    def test_duplicate_component_rejected(self, parse, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse(text, 2)

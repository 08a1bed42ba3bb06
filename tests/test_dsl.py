"""Structure-file parsing: grammar, presets, errors with positions, and the
parse/print round trip."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_poly
from ncw.cli import main
from ncw.dsl import (
    MAX_TERMS,
    ParseError,
    build_structure,
    parse_expression,
    parse_field,
    parse_one_form,
    parse_structure,
    tokenize,
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
        for built in (gauge, observer):
            assert built.nc.connection == preset.nc.connection

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("flat n=1\ngamma[1][1] = 7\ntheta[0] = t\n",
             "the flat preset does not use gamma, theta"),
            ("flat n=2 phi = x1\n", "the flat preset does not use phi"),
            ("standard n=1 phi = x1\nU[0] = 1\n", "the standard preset does not use U"),
            # refused before the stray expression is ever parsed
            ("n = 1\ngamma[1][1] = 1\ntheta[0] = 1\nGamma[0][0][1] = 0\nA[0] = x1^300 +\n",
             "explicit data does not use A"),
            ("n = 1\ngamma[1][1] = 1\ntheta[0] = 1\nU[0] = 1\nA[0] = 0\nphi = x1\n",
             "gauge data does not use phi"),
        ],
    )
    def test_stray_data_is_refused(self, text, message):
        with pytest.raises(StructureError, match=re.escape(message)):
            parse_structure(text)

    def test_observer_data_reads_every_field_it_may_carry(self):
        text = "n = 1\ngamma[1][1] = 1\ntheta[0] = 1\nU[0] = 1\nV[0] = 1\nphi = x1\n"
        assert parse_structure(text).data_shape == "observer"
        # the remaining fields each make a second shape
        for extra, shape in (("A[0] = 0", "gauge"), ("Gamma[0][0][1] = 0", "explicit")):
            with pytest.raises(StructureError, match=f"exactly one.*'{shape}'"):
                parse_structure(text + extra + "\n")

    @pytest.mark.parametrize(
        "line, column, rest",
        [
            ("gamma[1][2] = 1", 10, "theta[0] = 1\nU[0] = 1\nA[0] = 0"),
            ("theta[2] = 1", 7, "gamma[1][1] = 1\nU[0] = 1\nA[0] = 0"),
            ("U[3] = 1", 3, "gamma[1][1] = 1\ntheta[0] = 1\nA[0] = 0"),
            ("A[2] = 1", 3, "gamma[1][1] = 1\ntheta[0] = 1\nU[0] = 1"),
            ("V[2] = 1", 3, "gamma[1][1] = 1\ntheta[0] = 1\nU[0] = 1"),
            ("Gamma[0][2][0] = 1", 10, "gamma[1][1] = 1\ntheta[0] = 1"),
        ],
    )
    def test_index_out_of_range_is_a_positioned_parse_error(self, line, column, rest):
        doc = parse_structure(f"n = 1\n{line}\n{rest}\n")
        index = line[column - 1]
        message = f"line 2, column {column}: component index {index} out of range"
        with pytest.raises(ParseError, match=message):
            build_structure(doc)

    @pytest.mark.parametrize(
        "text, line, column, char",
        [
            ("flat n=\u00b2", 1, 8, "\u00b2"),
            ("standard n=1 phi = x1^\u00b2", 1, 23, "\u00b2"),
            ("n = 1\ngamma[\uff11][1] = 1\ntheta[0] = 1\nU[0] = 1\nA[0] = 0", 2, 7, "\uff11"),
            ("n = 1\ngamma[1][1] = \u0663\ntheta[0] = 1\nU[0] = 1\nA[0] = 0", 2, 15, "\u0663"),
            ("standard n=1 phi = x\u0661^2", 1, 21, "\u0661"),
        ],
        ids=["superscript-dimension", "superscript-exponent", "fullwidth-index",
             "arabic-indic-value", "arabic-indic-variable"],
    )
    def test_tokens_are_ascii(self, text, line, column, char):
        message = f"line {line}, column {column}: unexpected character {char!r}"
        with pytest.raises(ParseError, match=re.escape(message)):
            build_structure(parse_structure(text))

    def test_lines_end_only_at_line_feeds(self):
        # a form feed is a blank, not a line break: the ? is on line 4, as an
        # editor shows it; \r\n ends a line as \n does
        message = "line 4, column 18: unexpected character '?'"
        for text in (
            "n = 1\f\ngamma[1][1] = 1\ntheta[0] = 1\nGamma[0][0][0] = ?\n",
            "n = 1\r\ngamma[1][1] = 1\r\ntheta[0] = 1\x0b\r\nGamma[0][0][0] = ?\r\n",
        ):
            with pytest.raises(ParseError, match=re.escape(message)):
                parse_structure(text)
        # the end of input follows the last line under the same line model
        for text, line in [("", 1), ("n = 1", 2), ("n = 1\n", 2), ("n = 1\r\n\f\n", 3)]:
            end = tokenize(text)[-1]
            assert (end.kind, end.line, end.col) == ("END", line, 1)
        for char in "\x1c\x85\u2028":
            message = f"line 1, column 6: unexpected character {char!r}"
            with pytest.raises(ParseError, match=re.escape(message)):
                tokenize(f"n = 1{char}")

    def test_unicode_space_is_refused_by_the_cli(self, tmp_path, capsys):
        path = tmp_path / "nbsp.ncw"
        path.write_text("flat\u00a0n=2\n", encoding="utf-8")
        assert main(["validate", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 1, column 5: unexpected character '\\xa0'" in captured.err

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

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("flat n=1\nflat n=1\n", ParseError, "line 2, column 1: duplicate preset"),
            ("flat m=1\n", ParseError,
             "line 1, column 6: preset headers take n=... and phi=..., found 'm'"),
            ("standard n=1\n", StructureError, "standard preset requires phi = <expression>"),
            ("name = 5\n", ParseError, "line 1, column 8: name must be an identifier"),
        ],
        ids=["duplicate-preset", "unknown-header-key", "standard-without-phi", "numeric-name"],
    )
    def test_header_and_name_refusals(self, text, error, message):
        with pytest.raises(error) as refused:
            parse_structure(text)
        assert str(refused.value) == message

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


    @pytest.mark.parametrize(
        "read, text, column",
        [
            (lambda text: build_structure(parse_structure(text)), "standard n=1 phi = {}", 20),
            (parse_structure, "n = {}", 5),
            (lambda text: parse_field(text, 3), "X[1] = t^{}", 10),
            (lambda text: parse_expression(text, 3), "x{}", 1),
            (parse_structure, "n = 1\ngamma[{}][1] = 1", 7),
        ],
        ids=["expression", "dimension", "exponent", "variable", "index"],
    )
    def test_number_longer_than_python_reads_is_refused_at_its_token(self, read, text, column):
        line = text.count("\n") + 1
        message = f"line {line}, column {column}: number exceeds the limit 4300 digits"
        with pytest.raises(ParseError, match=re.escape(message)):
            read(text.format("1" * 5000))

    def test_every_number_python_reads_still_parses(self):
        # 4,300 digits, leading zeros included, is Python's default int-string limit
        big = "9" * 4300
        assert parse_expression(f"{big}/{big}", 2) == Poly.const(2, 1)
        assert parse_expression("0" * 4299 + "7", 2) == Poly.const(2, 7)


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

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_field, "X[0] = 1 X[1] = t", "line 1, column 10: unexpected trailing input 'X'"),
            (parse_one_form, "psi[1] = t\npsi[0] = 1 psi[2] = 1",
             "line 2, column 12: unexpected trailing input 'psi'"),
            (parse_field, "X[x1] = 1", "line 1, column 3: component indices are integers"),
            (parse_field, "X[0] = 1\nX[3] = 1", "line 2, column 3: component index 3 out of range"),
        ],
    )
    def test_field_line_errors_carry_positions(self, parse, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse(text, 3)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.dictionaries(
                st.tuples(*[st.integers(0, 2)] * 3),
                st.fractions(min_value=-5, max_value=5, max_denominator=4),
                max_size=3,
            ),
            min_size=2,
            max_size=2,
        ),
        st.randoms(use_true_random=False),
    )
    def test_document_and_field_argument_read_components_alike(self, spatial, rng):
        # U[0] = 1 keeps theta(U) = 1; the spatial components are drawn
        components = [Poly.const(3, 1)] + [Poly(3, terms) for terms in spatial]
        lines = [(i, str(c)) for i, c in enumerate(components) if c]
        rng.shuffle(lines)
        doc = parse_structure(
            "n = 2\ngamma[1][1] = 1\ngamma[2][2] = 1\ntheta[0] = 1\nA[0] = 0\n"
            + "".join(f"U[{i}] = {e}\n" for i, e in lines)
        )
        field = parse_field("\n".join(f"X[{i}] = {e}" for i, e in lines), 3)
        assert build_structure(doc, validate=False).ncb.u == field
        assert [field.comp(i) for i in range(3)] == components

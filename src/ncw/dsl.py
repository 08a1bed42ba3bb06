"""Structure-definition language: a small line-oriented text format for
describing spacetime structures, plus the polynomial expression grammar.

Expressions: integers, rationals ``p/q``, the variables ``t, x1..xn``,
operators ``+ - * ^`` and parentheses.  ``^`` takes a non-negative integer
literal; ``/`` only joins integer literals into a rational.  There is no
implicit multiplication.  One ASCII pattern reads each token (see _TOKEN);
any other character, a non-ASCII digit, letter or space included, is
refused at its line and column, and so is a number longer than Python
reads as an int.  ``-`` is always an operator (``t-1`` is ``t - 1``);
only a ``name`` value keeps its hyphens.  A product or power whose result
could exceed MAX_TERMS terms, or an exponent of MAX_EXPONENT, is refused
before it is expanded.

A document is a sequence of lines; ``#`` starts a comment.  Either a preset
header

    flat n=2
    standard n=2 phi = x1^2

or component assignments with 0-based indices (index 0 is time):

    n = 2
    gamma[1][1] = 1
    theta[0] = 1
    U[0] = 1
    A[0] = -x1^2

Exactly one of the four data shapes must be present: a preset, explicit
connection data (gamma, theta, Gamma), gauge data (gamma, theta, U, A), or
observer data (gamma, theta, U, V, phi).  Data the shape does not read is
refused, and so is an index outside 0..n, at its token.  Field arguments
(``X[1] = t``, ``psi[1] = 1``) take the same component lines, one
assignment per line.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Callable, Sequence

from .poly import Poly
from .structures import (
    GalileiStructure,
    NCBStructure,
    NCStructure,
    StructureError,
    ncb_structure,
    observer_structure,
    standard_structure,
)
from .tensors import Connection, Index, TensorField


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# desk-scale guards: keep pathological inputs from hanging the process
MAX_EXPONENT = 256
# the most terms a product or power may expand to, bounded before expanding
MAX_TERMS = 1_000
MAX_SPATIAL_DIMENSION = 9
MAX_NESTING = 64


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER IDENT SYMBOL NEWLINE END
    text: str
    line: int
    col: int


# a NUMBER, IDENT or SYMBOL token, or a run of blanks that makes none; all
# ASCII, where \d, \w and \s would take any Unicode digit, letter or space
_TOKEN = re.compile(
    r"(?P<NUMBER>[0-9]+)|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<SYMBOL>[-+*^()\[\]=/])|[ \t\r\f\v]+"
)


def _lines(text: str) -> list[str]:
    """The lines of a document as an editor numbers them: a line ends only
    at \n or \r\n (str.splitlines also ends one at a form feed, a lone \r
    and Unicode separators), and a final line break starts no line."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return [line.removesuffix("\r") for line in lines]


def tokenize(text: str) -> list[Token]:
    """Each line cut at ``#`` and read by _TOKEN match after match, closed by
    NEWLINE if it has tokens; END follows the last line."""
    tokens: list[Token] = []
    lines = _lines(text)
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        col = 0
        while col < len(line):
            match = _TOKEN.match(line, col)
            if match is None:
                raise ParseError(f"unexpected character {line[col]!r}", line_no, col + 1)
            if match.lastgroup:
                tokens.append(Token(match.lastgroup, match.group(), line_no, col + 1))
            col = match.end()
        if tokens and tokens[-1].kind != "NEWLINE":
            tokens.append(Token("NEWLINE", "", line_no, len(line) + 1))
    tokens.append(Token("END", "", len(lines) + 1, 1))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "END":
            self.pos += 1
        return tok

    def expect_symbol(self, text: str) -> Token:
        tok = self.next()
        if tok.kind != "SYMBOL" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or tok.kind!r}", tok.line, tok.col)
        return tok

    def at_symbol(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYMBOL" and tok.text == text


class ExpressionParser:
    """Recursive-descent parser for the polynomial grammar."""

    def __init__(self, stream: _TokenStream, dimension: int):
        self.stream = stream
        self.dimension = dimension
        self.depth = 0

    def parse(self) -> Poly:
        return self._expr()

    def _descend(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nesting exceeds the limit {MAX_NESTING}",
                tok.line,
                tok.col,
            )

    def _expr(self) -> Poly:
        total = self._term()
        while self.stream.at_symbol("+") or self.stream.at_symbol("-"):
            op = self.stream.next().text
            rhs = self._term()
            total = total + rhs if op == "+" else total - rhs
        return total

    def _term(self) -> Poly:
        total = self._factor()
        while self.stream.at_symbol("*"):
            tok = self.stream.next()
            rhs = self._factor()
            _check_expansion(
                len(total.terms) * len(rhs.terms),
                [total.degree_in(i) + rhs.degree_in(i) for i in range(self.dimension)],
                tok,
            )
            total = total * rhs
        return total

    def _factor(self) -> Poly:
        negate = False
        while self.stream.at_symbol("-"):
            self.stream.next()
            negate = not negate
        result = self._power()
        return -result if negate else result

    def _power(self) -> Poly:
        base = self._atom()
        if self.stream.at_symbol("^"):
            self.stream.next()
            tok = self.stream.next()
            if tok.kind != "NUMBER":
                raise ParseError("exponent must be an integer literal", tok.line, tok.col)
            power = _integer(tok)
            if power > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {power} exceeds the limit {MAX_EXPONENT}",
                    tok.line,
                    tok.col,
                )
            # a product of `power` of the base's m terms is one of the
            # C(m + power - 1, power) multisets of them
            _check_expansion(
                comb(max(len(base.terms), 1) + power - 1, power),
                [base.degree_in(i) * power for i in range(self.dimension)],
                tok,
            )
            return base**power
        return base

    def _atom(self) -> Poly:
        tok = self.stream.next()
        if tok.kind == "NUMBER":
            value = Fraction(_integer(tok))
            if self.stream.at_symbol("/"):
                self.stream.next()
                den = self.stream.next()
                if den.kind != "NUMBER":
                    raise ParseError(
                        "'/' joins integer literals into a rational", den.line, den.col
                    )
                if not (q := _integer(den)):
                    raise ParseError("zero denominator", den.line, den.col)
                value /= q
            return Poly.const(self.dimension, value)
        if tok.kind == "IDENT":
            return self._variable(tok)
        if tok.kind == "SYMBOL" and tok.text == "(":
            self._descend(tok)
            inner = self._expr()
            self.depth -= 1
            self.stream.expect_symbol(")")
            return inner
        raise ParseError(
            f"expected a number, variable, or '(', found {tok.text or tok.kind!r}",
            tok.line,
            tok.col,
        )

    def _variable(self, tok: Token) -> Poly:
        name = tok.text
        if name == "t":
            return Poly.variable(self.dimension, 0)
        if name.startswith("x") and name[1:].isdigit():
            index = _integer(tok, name[1:])
            if not 1 <= index <= self.dimension - 1:
                raise ParseError(
                    f"variable {name} out of range (spatial indices 1..{self.dimension - 1})",
                    tok.line,
                    tok.col,
                )
            return Poly.variable(self.dimension, index)
        raise ParseError(f"unknown variable {name!r}", tok.line, tok.col)


def _integer(tok: Token, digits: str | None = None) -> int:
    """A token's digits (its whole text by default) as an int, refused at the
    token past Python's int-string limit."""
    try:
        return int(tok.text if digits is None else digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"number exceeds the limit {limit} digits", tok.line, tok.col) from None


def _check_expansion(terms: int, degrees: list[int], tok: Token) -> None:
    """Refuse a product or power before expanding it: its result has at most
    `terms` terms and, in each variable, exactly the given degree, which must
    stay within MAX_EXPONENT for the result to render back into the grammar."""
    degree = max(degrees)
    if degree > MAX_EXPONENT:
        raise ParseError(
            f"exponent {degree} exceeds the limit {MAX_EXPONENT}", tok.line, tok.col
        )
    if terms > MAX_TERMS:
        raise ParseError(
            f"expansion may exceed the limit {MAX_TERMS} terms", tok.line, tok.col
        )


def parse_expression(text: str, dimension: int) -> Poly:
    """Parse one standalone polynomial expression."""
    return _parse_tokens(tokenize(text), dimension)


def _parse_tokens(tokens: list[Token], dimension: int) -> Poly:
    """Parse one expression from its tokens; errors carry their positions."""
    stream = _TokenStream(tokens)
    poly = ExpressionParser(stream, dimension).parse()
    tok = stream.peek()
    if tok.kind not in ("NEWLINE", "END"):
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return poly


# ----------------------------------------------------------------------
# documents

# one component line: its index tokens, and its expression's own tokens
# closed by an END token at the end of its line, so that errors point into
# the text it came from
_Component = tuple[tuple[Token, ...], list[Token]]


@dataclass
class StructureDocument:
    name: str | None = None
    n: int | None = None
    preset: str | None = None  # "flat" | "standard"
    phi: list[Token] | None = None  # its expression's tokens, as in a _Component
    components: dict[str, dict[Index, _Component]] = field(default_factory=dict)

    FIELD_RANKS = {"gamma": 2, "theta": 1, "U": 1, "A": 1, "V": 1, "Gamma": 3}
    # the fields (and phi) each data shape reads; presets read none but a
    # standard preset's phi
    _SHAPE_FIELDS = {
        "preset": (),
        "explicit": ("gamma", "theta", "Gamma"),
        "gauge": ("gamma", "theta", "U", "A"),
        "observer": ("gamma", "theta", "U", "V", "phi"),
    }

    def data_shape(self) -> str:
        """Which of the four data shapes the document carries; data the
        shape does not read is refused, never dropped.  Found on the first
        call, which parse_structure makes once it has read the whole
        document, and kept."""
        return self._shape

    @cached_property
    def _shape(self) -> str:
        shapes = []
        if self.preset:
            shapes.append("preset")
        have = set(self.components)
        if "Gamma" in have:
            shapes.append("explicit")
        if {"U", "A"} <= have:
            shapes.append("gauge")
        if {"U", "V"} <= have:
            shapes.append("observer")
        if len(shapes) != 1:
            raise StructureError(
                "exactly one of preset, explicit connection data, gauge data, "
                f"or observer data must be provided (found: {shapes or 'none'})"
            )
        shape = shapes[0]
        used = self._SHAPE_FIELDS[shape] + (("phi",) if self.preset == "standard" else ())
        given = [*self.components] + (["phi"] if self.phi is not None else [])
        stray = [name for name in given if name not in used]
        if stray:
            reader = f"the {self.preset} preset" if self.preset else f"{shape} data"
            raise StructureError(f"{reader} does not use {', '.join(stray)}")
        return shape

    @cached_property
    def potential(self) -> Poly:
        """phi over dimension n+1, parsed once (zero when absent)."""
        dim = self.n + 1
        return Poly.zero(dim) if self.phi is None else _parse_tokens(self.phi, dim)


def parse_structure(text: str) -> StructureDocument:
    doc = StructureDocument()
    stream = _TokenStream(tokenize(text))
    while True:
        tok = stream.peek()
        if tok.kind == "END":
            break
        if tok.kind == "NEWLINE":
            stream.next()
            continue
        if tok.kind != "IDENT":
            raise ParseError(
                f"expected a directive, found {tok.text or tok.kind!r}", tok.line, tok.col
            )
        if tok.text in ("flat", "standard"):
            _parse_preset_header(stream, doc)
        else:
            _parse_assignment(stream, doc)
    if doc.n is None:
        raise StructureError("spatial dimension n is required")
    doc.data_shape()
    return doc


def _parse_preset_header(stream: _TokenStream, doc: StructureDocument) -> None:
    tok = stream.next()
    if doc.preset is not None:
        raise ParseError("duplicate preset", tok.line, tok.col)
    doc.preset = tok.text
    while (key := stream.peek()).kind not in ("NEWLINE", "END"):
        if key.kind != "IDENT" or key.text not in ("n", "phi"):
            raise ParseError(
                f"preset headers take n=... and phi=..., found {key.text!r}",
                key.line,
                key.col,
            )
        _parse_assignment(stream, doc)
    if doc.preset == "standard" and doc.phi is None:
        raise StructureError("standard preset requires phi = <expression>")


def _expression_tokens(stream: _TokenStream) -> list[Token]:
    tokens = []
    while stream.peek().kind not in ("NEWLINE", "END"):
        tokens.append(stream.next())
    end = stream.peek()
    return tokens + [Token("END", "", end.line, end.col)]


def _parse_assignment(stream: _TokenStream, doc: StructureDocument) -> None:
    key = stream.next()
    name = key.text
    if name == "name":
        eq = stream.expect_symbol("=")
        if doc.name is not None:
            raise ParseError("duplicate name", eq.line, eq.col)
        value = stream.next()
        if value.kind != "IDENT":
            raise ParseError("name must be an identifier", value.line, value.col)
        # a name may carry hyphens, which tokenize as minus signs: join the
        # identifiers, numbers and '-' that follow it without a space
        name = value.text
        while (tok := stream.peek()).col == value.col + len(name) and (
            tok.kind in ("IDENT", "NUMBER") or tok.text == "-"
        ):
            name += stream.next().text
        doc.name = name
        return
    if name == "n":
        stream.expect_symbol("=")
        num = stream.next()
        n = _integer(num) if num.kind == "NUMBER" else 0
        if n < 1:
            raise ParseError("n must be a positive integer", num.line, num.col)
        if n > MAX_SPATIAL_DIMENSION:
            raise ParseError(f"n exceeds the limit {MAX_SPATIAL_DIMENSION}", num.line, num.col)
        if doc.n is not None:
            raise ParseError("duplicate n", num.line, num.col)
        doc.n = n
        return
    if name == "phi":
        eq = stream.expect_symbol("=")
        if doc.phi is not None:
            raise ParseError("duplicate phi", eq.line, eq.col)
        doc.phi = _expression_tokens(stream)
        return
    if name in StructureDocument.FIELD_RANKS:
        slot = doc.components.setdefault(name, {})
        _read_component(stream, name, StructureDocument.FIELD_RANKS[name], slot)
        return
    raise ParseError(f"unknown directive {name!r}", key.line, key.col)


def _read_component(
    stream: _TokenStream, name: str, rank: int, slot: dict[Index, _Component]
) -> None:
    """Read ``[i]...[k] = <expression to end of line>`` after a field's name
    into slot, under its index tuple; a tuple given twice is refused."""
    indices = []
    for _ in range(rank):
        stream.expect_symbol("[")
        num = stream.next()
        if num.kind != "NUMBER":
            raise ParseError("component indices are integers", num.line, num.col)
        indices.append(num)
        stream.expect_symbol("]")
    eq = stream.expect_symbol("=")
    key = tuple(map(_integer, indices))
    if key in slot:
        raise ParseError(f"duplicate component {name}{list(key)}", eq.line, eq.col)
    slot[key] = (tuple(indices), _expression_tokens(stream))


def _realize(slot: dict[Index, _Component], dimension: int) -> dict[Index, Poly]:
    """The nonzero components of one field's assignments; each index is
    checked against the dimension at its token."""
    entries = {}
    for key, (indices, expression) in slot.items():
        for num, i in zip(indices, key):
            if i >= dimension:
                raise ParseError(f"component index {i} out of range", num.line, num.col)
        if value := _parse_tokens(expression, dimension):
            entries[key] = value
    return entries


# ----------------------------------------------------------------------
# document -> structures

@dataclass(frozen=True)
class BuiltStructure:
    """A realized document.  ncb is None for explicit connection data.  When
    the connection cannot be derived because the Galilei pair fails its
    checks (an open clock has no geodesic connection), derived holds that
    failure, and nc and ncb raise it, so that check commands report it as a
    verdict."""

    doc: StructureDocument
    base: GalileiStructure
    derived: tuple[NCStructure, NCBStructure | None] | StructureError

    @property
    def nc(self) -> NCStructure:
        return self._parts()[0]

    @property
    def ncb(self) -> NCBStructure | None:
        return self._parts()[1]

    def _parts(self) -> tuple[NCStructure, NCBStructure | None]:
        if isinstance(self.derived, StructureError):
            raise self.derived
        return self.derived

    def checks(self, points: Sequence[Sequence[object]] = ()) -> list[tuple[str, Callable]]:
        """The named checks in report order, each raising StructureError
        when it fails: the Galilei pair (at the origin and the sample
        points), the connection, and the gauge presentation of gauge or
        observer data."""
        checks = [
            ("metric-pair", lambda: self.base.validate(points)),
            ("connection-compatibility-and-symmetry", lambda: self.nc.validate()),
        ]
        if self.doc.data_shape() != "explicit":
            checks.append(("gauge-presentation", lambda: self.ncb.validate()))
        return checks


def build_structure(doc: StructureDocument, validate: bool = True) -> BuiltStructure:
    """Realize a parsed document.

    With validate=True (the default) the Galilei pair is checked before
    anything is derived from it, then every check of BuiltStructure.checks
    runs, and the first violation raises StructureError.  Check-style
    commands build with validate=False and report violations as verdicts
    instead."""
    shape = doc.data_shape()
    dim = doc.n + 1
    if shape == "preset":
        ncb = standard_structure(doc.n, doc.potential)  # a flat preset's phi is 0
        base = ncb.base
    else:
        missing = [f for f in ("gamma", "theta") if f not in doc.components]
        if missing:
            raise StructureError(
                f"{missing[0]} is required; the kernel condition is unverifiable without it"
            )
        fields = {name: _realize(slot, dim) for name, slot in doc.components.items()}
        gamma = TensorField(dim, 2, 0, fields["gamma"])
        base = GalileiStructure(doc.n, gamma, TensorField(dim, 0, 1, fields["theta"]))
        if validate:
            base.validate()
    try:
        if shape == "explicit":
            derived = (NCStructure(base, Connection(dim, fields["Gamma"])), None)
        else:
            if shape == "gauge":
                u, a = TensorField(dim, 1, 0, fields["U"]), TensorField(dim, 0, 1, fields["A"])
                ncb = ncb_structure(base, u, a)
            elif shape == "observer":
                u, v = (TensorField(dim, 1, 0, fields[f]) for f in ("U", "V"))
                ncb = observer_structure(base, u, v, doc.potential)
            derived = (ncb.induced_nc(), ncb)
    except StructureError:
        # the pair's shapes, symmetry and kernel, which the transverse metric
        # needs, stay input errors; a pair failing its other checks is the
        # cause, and a verdict
        base._valid_pair
        try:
            base.validate()
        except StructureError as failure:
            derived = failure
        else:
            raise
    built = BuiltStructure(doc, base, derived)
    if validate:
        for _, check in built.checks():
            check()
    return built


def parse_field(text: str, dimension: int, symbol: str = "X") -> TensorField:
    """Parse a vector field from component lines ``X[i] = ...``, one per
    line; unassigned components are zero."""
    slot: dict[Index, _Component] = {}
    stream = _TokenStream(tokenize(text))
    while (tok := stream.next()).kind != "END":
        if tok.kind == "NEWLINE":
            continue
        if tok.kind != "IDENT" or tok.text != symbol:
            raise ParseError(f"expected component assignments of {symbol!r}", tok.line, tok.col)
        _read_component(stream, symbol, 1, slot)
    return TensorField(dimension, 1, 0, _realize(slot, dimension))


def parse_one_form(text: str, dimension: int, symbol: str = "psi") -> TensorField:
    """Parse a 1-form from component lines ``psi[i] = ...``, as parse_field."""
    return TensorField(dimension, 0, 1, parse_field(text, dimension, symbol).nonzero)

"""Structure-definition language: a small line-oriented text format for
describing spacetime structures, plus the polynomial expression grammar.

Expressions: integers, rationals ``p/q``, the variables ``t, x1..xn``,
operators ``+ - * ^`` and parentheses.  ``^`` takes a non-negative integer
literal; ``/`` only joins integer literals into a rational.  There is no
implicit multiplication.  ``-`` is always an operator (``t-1`` is
``t - 1``); only a ``name`` value keeps its hyphens.  A product or power
whose result could exceed MAX_TERMS terms, or an exponent of MAX_EXPONENT,
is refused before it is expanded.

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
observer data (gamma, theta, U, V, phi).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb

from .poly import Poly
from .structures import (
    GalileiStructure,
    NCBStructure,
    NCStructure,
    StructureError,
    flat_structure,
    ncb_structure,
    potential_to_gauge,
    standard_structure,
)
from .tensors import Connection, TensorField, one_form, vector


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


_SYMBOLS = "+-*^()[]=/"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col = 0
        while col < len(line):
            ch = line[col]
            if ch.isspace():
                col += 1
                continue
            start = col + 1
            if ch.isdigit():
                end = col
                while end < len(line) and line[end].isdigit():
                    end += 1
                tokens.append(Token("NUMBER", line[col:end], line_no, start))
                col = end
            elif ch.isalpha() or ch == "_":
                end = col
                while end < len(line) and (line[end].isalnum() or line[end] == "_"):
                    end += 1
                tokens.append(Token("IDENT", line[col:end], line_no, start))
                col = end
            elif ch in _SYMBOLS:
                tokens.append(Token("SYMBOL", ch, line_no, start))
                col += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", line_no, start)
        if tokens and tokens[-1].kind != "NEWLINE":
            tokens.append(Token("NEWLINE", "", line_no, len(line) + 1))
    tokens.append(Token("END", "", len(text.splitlines()) + 1, 1))
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
            power = int(tok.text)
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
            value = Fraction(int(tok.text))
            if self.stream.at_symbol("/"):
                self.stream.next()
                den = self.stream.next()
                if den.kind != "NUMBER":
                    raise ParseError(
                        "'/' joins integer literals into a rational", den.line, den.col
                    )
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.line, den.col)
                value /= int(den.text)
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
            index = int(name[1:])
            if not 1 <= index <= self.dimension - 1:
                raise ParseError(
                    f"variable {name} out of range (spatial indices 1..{self.dimension - 1})",
                    tok.line,
                    tok.col,
                )
            return Poly.variable(self.dimension, index)
        raise ParseError(f"unknown variable {name!r}", tok.line, tok.col)


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

@dataclass
class StructureDocument:
    name: str | None = None
    n: int | None = None
    preset: str | None = None  # "flat" | "standard"
    # each expression as its own tokens, closed by an END token at the end
    # of its line, so that parse errors point into the document
    phi: list[Token] | None = None
    components: dict[str, dict[tuple[int, ...], list[Token]]] = field(default_factory=dict)

    FIELD_RANKS = {"gamma": 2, "theta": 1, "U": 1, "A": 1, "V": 1, "Gamma": 3}

    def data_shape(self) -> str:
        """Which of the four data shapes the document carries."""
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
        return shapes[0]

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
    while stream.peek().kind not in ("NEWLINE", "END"):
        key = stream.next()
        if key.kind != "IDENT" or key.text not in ("n", "phi"):
            raise ParseError(
                f"preset headers take n=... and phi=..., found {key.text!r}",
                key.line,
                key.col,
            )
        stream.expect_symbol("=")
        if key.text == "n":
            _parse_dimension(stream, doc)
        else:
            doc.phi = _expression_tokens(stream)
    if doc.preset == "standard" and doc.phi is None:
        raise StructureError("standard preset requires phi = <expression>")


def _parse_dimension(stream: _TokenStream, doc: StructureDocument) -> None:
    """The value of n, in a preset header or on its own line."""
    num = stream.next()
    if num.kind != "NUMBER" or int(num.text) < 1:
        raise ParseError("n must be a positive integer", num.line, num.col)
    if int(num.text) > MAX_SPATIAL_DIMENSION:
        raise ParseError(f"n exceeds the limit {MAX_SPATIAL_DIMENSION}", num.line, num.col)
    if doc.n is not None:
        raise ParseError("duplicate n", num.line, num.col)
    doc.n = int(num.text)


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
        stream.expect_symbol("=")
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
        _parse_dimension(stream, doc)
        return
    if name == "phi":
        stream.expect_symbol("=")
        doc.phi = _expression_tokens(stream)
        return
    if name in StructureDocument.FIELD_RANKS:
        rank = StructureDocument.FIELD_RANKS[name]
        indices = []
        for _ in range(rank):
            stream.expect_symbol("[")
            num = stream.next()
            if num.kind != "NUMBER":
                raise ParseError("component indices are integers", num.line, num.col)
            indices.append(int(num.text))
            stream.expect_symbol("]")
        eq = stream.expect_symbol("=")
        expr_tokens = _expression_tokens(stream)
        slot = doc.components.setdefault(name, {})
        key_idx = tuple(indices)
        if key_idx in slot:
            raise ParseError(
                f"duplicate component {name}{list(indices)}", eq.line, eq.col
            )
        slot[key_idx] = expr_tokens
        return
    raise ParseError(f"unknown directive {name!r}", key.line, key.col)


# ----------------------------------------------------------------------
# document -> structures

@dataclass(frozen=True)
class BuiltStructure:
    """A realized document.  ncb is None for explicit connection data.  When
    gauge or observer data cannot be realized because their Galilei pair
    fails its checks, derived holds that failure, and nc and ncb raise it,
    so that check commands report it as a verdict."""

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


def build_structure(doc: StructureDocument, validate: bool = True) -> BuiltStructure:
    """Realize a parsed document.

    With validate=True (the default) every structure invariant is checked
    and the first violation raises StructureError.  Check-style commands
    build with validate=False and report violations as verdicts instead."""
    shape = doc.data_shape()
    n = doc.n
    assert n is not None
    dim = n + 1
    if shape == "preset":
        if doc.preset == "flat":
            ncb = flat_structure(n)
        else:
            ncb = standard_structure(n, doc.potential)
        if validate:
            ncb.validate()
        nc = ncb.induced_nc()
        if validate:
            nc.validate()
        return BuiltStructure(doc, ncb.base, (nc, ncb))

    def tensor_from(name: str, p: int, q: int):
        entries = doc.components.get(name, {})
        comps = {}
        for idx, tokens in entries.items():
            if any(not 0 <= i <= n for i in idx):
                raise StructureError(
                    f"{name} index {idx} out of range for n={n}"
                )
            comps[idx] = _parse_tokens(tokens, dim)

        def entry(idx):
            return comps.get(tuple(idx), Poly.zero(dim))

        return TensorField.build(dim, p, q, entry)

    missing = [f for f in ("gamma", "theta") if f not in doc.components]
    if missing:
        raise StructureError(
            f"{missing[0]} is required; the kernel condition is unverifiable without it"
        )
    gamma = tensor_from("gamma", 2, 0)
    theta = tensor_from("theta", 0, 1)
    base = GalileiStructure(n, gamma, theta)
    if validate:
        base.validate()

    if shape == "explicit":
        entries = doc.components.get("Gamma", {})
        symbols = {}
        for idx, tokens in entries.items():
            if any(not 0 <= i <= n for i in idx):
                raise StructureError(f"Gamma index {idx} out of range for n={n}")
            symbols[idx] = _parse_tokens(tokens, dim)
        conn = Connection.build(
            dim, lambda a, b, c: symbols.get((a, b, c), Poly.zero(dim))
        )
        nc = NCStructure(base, conn)
        if validate:
            nc.validate()
        return BuiltStructure(doc, base, (nc, None))

    u = tensor_from("U", 1, 0)
    if shape == "gauge":
        a_form, v, phi = tensor_from("A", 0, 1), None, None
    else:
        a_form, v, phi = None, tensor_from("V", 1, 0), doc.potential
    try:
        if a_form is None:
            a_form = potential_to_gauge(base, u, v, phi)
        ncb = ncb_structure(base, u, a_form)
    except StructureError:
        # the pair's shapes, symmetry and kernel, which the transverse
        # metric needs, stay input errors; a pair failing its other checks
        # is the cause, and a verdict
        base._valid_pair
        try:
            base.validate()
        except StructureError as failure:
            return BuiltStructure(doc, base, failure)
        raise
    if validate:
        ncb.validate()
    nc = ncb.induced_nc()
    if validate:
        nc.validate()
    return BuiltStructure(doc, base, (nc, ncb))


def _parse_component_assignments(
    text: str, dimension: int, symbol: str
) -> list[Poly]:
    """Assignments like ``X[0] = 1`` separated by newlines; unassigned
    components default to zero."""
    comps: dict[int, Poly] = {}
    stream = _TokenStream(tokenize(text))
    while True:
        tok = stream.peek()
        if tok.kind == "END":
            break
        if tok.kind == "NEWLINE":
            stream.next()
            continue
        ident = stream.next()
        if ident.kind != "IDENT" or ident.text != symbol:
            raise ParseError(
                f"expected component assignments of {symbol!r}", ident.line, ident.col
            )
        stream.expect_symbol("[")
        num = stream.next()
        if num.kind != "NUMBER":
            raise ParseError("component index must be an integer", num.line, num.col)
        idx = int(num.text)
        if not 0 <= idx <= dimension - 1:
            raise ParseError(f"component index {idx} out of range", num.line, num.col)
        stream.expect_symbol("]")
        stream.expect_symbol("=")
        comps[idx] = ExpressionParser(stream, dimension).parse()
    return [comps.get(i, Poly.zero(dimension)) for i in range(dimension)]


def parse_field(text: str, dimension: int, symbol: str = "X") -> TensorField:
    """Parse a vector field from component assignment lines."""
    return vector(dimension, _parse_component_assignments(text, dimension, symbol))


def parse_one_form(text: str, dimension: int, symbol: str = "psi") -> TensorField:
    """Parse a 1-form from component assignment lines."""
    return one_form(dimension, _parse_component_assignments(text, dimension, symbol))

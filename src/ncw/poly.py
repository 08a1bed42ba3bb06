"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial in the coordinates (x0, x1, ..., x_n) is a dictionary mapping
exponent tuples to rational coefficients.  Coordinate 0 is time, written
``t`` in the text grammar; the remaining coordinates are spatial.  This
representation is exact: no rounding ever occurs, so polynomial identity
tests are fully reliable.

  terms = {(2, 1): Fraction(3, 2), (0, 0): 5}  with dimension 2
  means  3/2 * t^2 * x1 + 5

Every coefficient has one canonical form (``_q``): an ``int`` when it is
integral, otherwise a ``Fraction`` whose denominator exceeds 1; never a
float.  Most coefficients are integers, and int arithmetic is exact and
much cheaper than Fraction arithmetic.  ``3 == Fraction(3)`` with equal
hashes and equal strings, so the form changes no comparison or rendering.

The zero polynomial has an empty term dictionary.  Stored coefficients are
never zero, so two polynomials are equal iff their term dictionaries are.
The public constructors check and canonicalize their input; arithmetic
builds its already-canonical results through the trusted ``Poly._raw``.
Every sparse sum, of Poly terms here and of the solver's linear forms and
the eliminator's rows, is ``_accumulate``: it stores each value canonical
and deletes a zero sum.

Most products in the tensor operators have a one-term operand, so a
product takes the operand with fewer terms as its multiplier and runs no
double loop when it has one term: a zero gives zero, the constant 1 gives
the other Poly itself (shared, which immutability makes safe), another
constant scales every coefficient and a monomial shifts every exponent.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

Exponent = tuple[int, ...]

Scalar = int | Fraction


def _q(c: Scalar) -> Scalar:
    """The canonical form of an exact coefficient: an int when integral,
    else a Fraction with a denominator above 1."""
    return c if type(c) is int else c.numerator if c.denominator == 1 else c


def _exact(value: object) -> Scalar:
    """A constructor argument as a canonical coefficient; anything but an
    int (not a bool) or a Fraction is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"coefficient {value!r} is not an int or a Fraction")
    return _q(value)


def _accumulate(target: dict, source: Mapping, factor: Scalar = 1) -> None:
    """target += factor * source, in place: each new or summed value is
    stored canonical and a zero sum is deleted.  The one sparse exact sum,
    of Poly terms, the solver's linear forms and the eliminator's rows."""
    scale = factor != 1
    for key, value in source.items():
        if scale:
            value *= factor
        if key not in target:
            target[key] = _q(value)
        elif acc := target[key] + value:
            target[key] = _q(acc)
        else:
            del target[key]


class Poly:
    """Immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("dimension", "terms")

    dimension: int
    terms: dict[Exponent, int | Fraction]

    def __init__(self, dimension: int, terms: Mapping[Exponent, Scalar] | None = None):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        clean: dict[Exponent, Scalar] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != dimension:
                    raise ValueError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {dimension}"
                    )
                if any(type(e) is not int or e < 0 for e in exps):
                    raise ValueError(f"exponents in {exps!r} must be non-negative ints")
                c = _exact(coeff)
                if c != 0:
                    clean[tuple(exps)] = c
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, dimension: int, terms: dict[Exponent, Scalar]) -> "Poly":
        """Trusted constructor for internal results: terms must already be
        canonical (nonzero canonical coefficients, well-formed exponents)
        and are kept, not copied."""
        p = object.__new__(cls)
        object.__setattr__(p, "dimension", dimension)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, dimension: int) -> "Poly":
        return cls(dimension)

    @classmethod
    def const(cls, dimension: int, value: Scalar) -> "Poly":
        return cls(dimension, {(0,) * dimension: value})

    @classmethod
    def variable(cls, dimension: int, index: int) -> "Poly":
        """The coordinate polynomial x_index (index 0 is time)."""
        if type(index) is not int:  # a bool is an int too, but no index
            raise ValueError(f"variable index {index!r} is not an int")
        if not 0 <= index < dimension:
            raise ValueError(f"variable index {index} out of range for dimension {dimension}")
        exps = [0] * dimension
        exps[index] = 1
        return cls(dimension, {tuple(exps): 1})

    @classmethod
    def monomial(cls, dimension: int, exps: Sequence[int], coeff: Scalar = 1) -> "Poly":
        return cls(dimension, {tuple(exps): coeff})

    # ------------------------------------------------------------------
    # ring operations

    def _coerce(self, other: object) -> "Poly | None":
        if isinstance(other, Poly):
            if other.dimension != self.dimension:
                raise ValueError(
                    f"dimension mismatch: {self.dimension} vs {other.dimension}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.dimension, other)
        return None

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        # a sum with zero is the other operand itself, as a product by 1 is
        if not p.terms:
            return self
        if not self.terms:
            return p
        out = dict(self.terms)
        _accumulate(out, p.terms)
        return Poly._raw(self.dimension, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(self.dimension, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other: "Poly | Scalar") -> "Poly":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return p + (-self)

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly._raw(self.dimension, {})
            return Poly._raw(self.dimension, {e: _q(k * other) for e, k in self.terms.items()})
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        # the operand with fewer terms is the multiplier
        big, small = (self, p) if len(self.terms) >= len(p.terms) else (p, self)
        if len(small.terms) <= 1:
            if not small.terms:
                return small
            ((e2, c2),) = small.terms.items()
            if not any(e2):
                if c2 == 1:
                    return big
                return Poly._raw(self.dimension, {e: _q(k * c2) for e, k in big.terms.items()})
            # a monomial shifts every exponent once: distinct terms stay distinct
            if c2 == 1:
                terms = {tuple(map(add, e, e2)): k for e, k in big.terms.items()}
            else:
                terms = {tuple(map(add, e, e2)): _q(k * c2) for e, k in big.terms.items()}
            return Poly._raw(self.dimension, terms)
        # a sum of one-term products c1 * x^e1 * small
        out: dict[Exponent, Scalar] = {}
        for e1, c1 in big.terms.items():
            _accumulate(out, {tuple(map(add, e1, e2)): c2 for e2, c2 in small.terms.items()}, c1)
        return Poly._raw(self.dimension, out)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Poly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Poly.const(self.dimension, 1)
        base = self
        k = power
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(0,) * self.dimension: other} if other else {})
        if not isinstance(other, Poly):
            return NotImplemented
        return self.dimension == other.dimension and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ------------------------------------------------------------------
    # calculus and queries

    def partial(self, axis: int) -> "Poly":
        """Formal partial derivative with respect to coordinate ``axis``."""
        if type(axis) is not int or not 0 <= axis < self.dimension:  # one test: hot
            raise ValueError(
                f"axis {axis} out of range for dimension {self.dimension}"
                if type(axis) is int
                else f"axis {axis!r} is not an int"
            )
        # distinct terms have distinct derivative monomials: nothing cancels
        out: dict[Exponent, Scalar] = {}
        for exps, coeff in self.terms.items():
            e = exps[axis]
            if e:
                out[exps[:axis] + (e - 1,) + exps[axis + 1 :]] = _q(coeff * e)
        return Poly._raw(self.dimension, out)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, axis: int) -> int:
        if not self.terms:
            return -1
        return max(e[axis] for e in self.terms)

    def depends_only_on(self, axes: Iterable[int]) -> bool:
        allowed = set(axes)
        return all(
            all(e == 0 for i, e in enumerate(exps) if i not in allowed)
            for exps in self.terms
        )

    def coefficient(self, exps: Sequence[int]) -> Scalar:
        return self.terms.get(tuple(exps), 0)

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """Exact value at a rational point, in canonical form; a coordinate
        that is not an int or a Fraction is refused."""
        if len(point) != self.dimension:
            raise ValueError("point has wrong length")
        vals = [_exact(v) for v in point]
        total: Scalar = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term *= v**e
            total += term
        return _q(total)

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Substitute coordinate i by images[i]; images share one dimension."""
        if len(images) != self.dimension:
            raise ValueError("need one image polynomial per coordinate")
        dims = {p.dimension for p in images}
        if len(dims) != 1:
            raise ValueError("image polynomials must share a dimension")
        new_dim = dims.pop()
        total = Poly(new_dim)
        for exps, coeff in self.terms.items():
            term = Poly.const(new_dim, coeff)
            for img, e in zip(images, exps):
                if e:
                    term = term * img**e
            total = total + term
        return total

    def extended(self, new_dimension: int) -> "Poly":
        """Reinterpret in a larger coordinate ring (new variables appended)."""
        if new_dimension < self.dimension:
            raise ValueError("cannot shrink dimension")
        pad = (0,) * (new_dimension - self.dimension)
        return Poly._raw(new_dimension, {e + pad: c for e, c in self.terms.items()})

    # ------------------------------------------------------------------
    # canonical rendering (grammar shared with the structure-file parser)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=_grlex_key, reverse=True)
        pieces: list[str] = []
        for exps in ordered:
            coeff = self.terms[exps]
            mono = _render_monomial(exps)
            if mono:
                if coeff == 1:
                    body = mono
                elif coeff == -1:
                    body = f"-{mono}"
                else:
                    body = f"{coeff}*{mono}"
            else:
                body = str(coeff)
            if not pieces:
                pieces.append(body)
            elif body.startswith("-"):
                pieces.append(f" - {body[1:]}")
            else:
                pieces.append(f" + {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Poly[{self.dimension}]({self})"


def _grlex_key(exps: Exponent) -> tuple[int, Exponent]:
    return (sum(exps), exps)


def grlex_monomials(dimension: int, max_degree: int) -> list[Exponent]:
    """All exponent tuples of total degree <= max_degree, graded-lex ascending."""
    out: list[Exponent] = []
    for degree in range(max_degree + 1):
        out.extend(sorted(_exact_degree(degree, dimension), reverse=True))
    return out


def _exact_degree(degree: int, slots: int) -> Iterator[Exponent]:
    """The exponent tuples of the given length and total degree."""
    if slots == 1:
        yield (degree,)
        return
    for e in range(degree, -1, -1):
        for rest in _exact_degree(degree - e, slots - 1):
            yield (e,) + rest


def _render_monomial(exps: Exponent) -> str:
    parts: list[str] = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        name = "t" if i == 0 else f"x{i}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def time_part(p: Poly) -> Poly:
    """The purely time-dependent part: p with all spatial coordinates at 0."""
    return Poly._raw(p.dimension, {e: c for e, c in p.terms.items() if not any(e[1:])})

"""Typed tensor fields over exact polynomials, and the differential operators
on them: Lie derivatives (of tensors and of connections), covariant
derivatives, and the curvature tensor with its Newtonian symmetry check.

Index conventions, fixed once here:

* ``TensorField`` components are indexed contravariant slots first, then
  covariant slots; every index runs over 0..n with 0 the time coordinate.
* ``Connection.symbol(a, b, c)`` is the Christoffel symbol with lower pair
  (a, b) and upper index c; connections are torsion-free, symmetric in
  (a, b).
* ``lie_derivative_connection`` returns a (1,2)-shaped field L with
  ``L.comp(c, a, b)`` the component carrying upper index c and lower (a, b).
* ``curvature`` returns R with ``R.comp(a, b, c, d)`` antisymmetric in
  (a, b), c the remaining lower index and d the upper one, built as

      R_abc^d = d_a G_bc^d - d_b G_ac^d + G_ak^d G_bc^k - G_bk^d G_ac^k

  The overall sign is a convention; the Newtonian symmetry check is
  insensitive to it (both sides flip together), which the tests assert.
* ``covariant_derivative`` prepends the derivative index to the covariant
  slots: ``(DT).comp(uppers..., c, lowers...)`` is the c-derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Sequence

from .poly import Poly, Scalar


def _index_tuples(dimension: int, rank: int) -> Iterable[tuple[int, ...]]:
    return product(range(dimension), repeat=rank)


@dataclass(frozen=True)
class TensorField:
    """Dense (p,q) tensor field with Poly components.

    Vector fields are the p=1, q=0 case and one-forms the p=0, q=1 case;
    both are plain TensorFields built with the helpers below.
    """

    dimension: int
    p: int
    q: int
    components: tuple[Poly, ...]

    def __post_init__(self):
        expected = self.dimension ** (self.p + self.q)
        if len(self.components) != expected:
            raise ValueError(
                f"need {expected} components for a ({self.p},{self.q}) tensor "
                f"in dimension {self.dimension}, got {len(self.components)}"
            )
        for c in self.components:
            if c.dimension != self.dimension:
                raise ValueError("component polynomial dimension mismatch")

    @property
    def rank(self) -> int:
        return self.p + self.q

    def _offset(self, indices: Sequence[int]) -> int:
        n = self.dimension
        off = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for dimension {n}")
            off = off * n + i
        return off

    def comp(self, *indices: int) -> Poly:
        if len(indices) != self.rank:
            raise ValueError(f"expected {self.rank} indices, got {len(indices)}")
        return self.components[self._offset(indices)]

    @classmethod
    def build(
        cls,
        dimension: int,
        p: int,
        q: int,
        fn: Callable[[tuple[int, ...]], Poly],
    ) -> "TensorField":
        comps = tuple(fn(idx) for idx in _index_tuples(dimension, p + q))
        return cls(dimension, p, q, comps)

    @classmethod
    def zero(cls, dimension: int, p: int, q: int) -> "TensorField":
        z = Poly.zero(dimension)
        return cls(dimension, p, q, (z,) * dimension ** (p + q))

    # ------------------------------------------------------------------
    # pointwise algebra

    def _check_same_shape(self, other: "TensorField") -> None:
        if (self.dimension, self.p, self.q) != (other.dimension, other.p, other.q):
            raise ValueError("tensor shape mismatch")

    def __add__(self, other: "TensorField") -> "TensorField":
        self._check_same_shape(other)
        comps = tuple(a + b for a, b in zip(self.components, other.components))
        return TensorField(self.dimension, self.p, self.q, comps)

    def __sub__(self, other: "TensorField") -> "TensorField":
        self._check_same_shape(other)
        comps = tuple(a - b for a, b in zip(self.components, other.components))
        return TensorField(self.dimension, self.p, self.q, comps)

    def __neg__(self) -> "TensorField":
        return TensorField(self.dimension, self.p, self.q, tuple(-c for c in self.components))

    def scale(self, factor: Poly | Scalar) -> "TensorField":
        comps = tuple(c * factor for c in self.components)
        return TensorField(self.dimension, self.p, self.q, comps)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __str__(self) -> str:
        nonzero = [
            f"[{','.join(map(str, idx))}]={c}"
            for idx, c in zip(_index_tuples(self.dimension, self.rank), self.components)
            if not c.is_zero
        ]
        return f"Tensor({self.p},{self.q}){{{'; '.join(nonzero) or '0'}}}"


def vector(dimension: int, components: Sequence[Poly]) -> TensorField:
    """A vector field X = X^a d_a from its component list."""
    return TensorField(dimension, 1, 0, tuple(components))

def one_form(dimension: int, components: Sequence[Poly]) -> TensorField:
    """A 1-form from its component list."""
    return TensorField(dimension, 0, 1, tuple(components))


def tensor_product(a: TensorField, b: TensorField) -> TensorField:
    """Tensor product; upper slots of a then of b, lower slots likewise."""
    if a.dimension != b.dimension:
        raise ValueError("dimension mismatch")
    n = a.dimension

    def entry(idx: tuple[int, ...]) -> Poly:
        ua = idx[: a.p]
        ub = idx[a.p : a.p + b.p]
        la = idx[a.p + b.p : a.p + b.p + a.q]
        lb = idx[a.p + b.p + a.q :]
        return a.comp(*ua, *la) * b.comp(*ub, *lb)

    return TensorField.build(n, a.p + b.p, a.q + b.q, entry)


def contract(t: TensorField, upper_slot: int, lower_slot: int) -> TensorField:
    """Contract one contravariant slot against one covariant slot."""
    if not 0 <= upper_slot < t.p or not 0 <= lower_slot < t.q:
        raise ValueError("contraction slots out of range")
    n = t.dimension

    def entry(idx: tuple[int, ...]) -> Poly:
        uppers = list(idx[: t.p - 1])
        lowers = list(idx[t.p - 1 :])
        total = Poly.zero(n)
        for k in range(n):
            full_up = uppers[:upper_slot] + [k] + uppers[upper_slot:]
            full_lo = lowers[:lower_slot] + [k] + lowers[lower_slot:]
            total = total + t.comp(*full_up, *full_lo)
        return total

    return TensorField.build(n, t.p - 1, t.q - 1, entry)


def apply_metric(t: TensorField, w: TensorField) -> TensorField:
    """Contract a 2-tensor with a field on its second slot: t^{ak} w_k for a
    (2,0) tensor and a 1-form (a vector), t_{ak} V^k for a (0,2) tensor and a
    vector field (a 1-form)."""
    if (t.p, t.q, w.p, w.q) not in ((2, 0, 0, 1), (0, 2, 1, 0)) or t.dimension != w.dimension:
        raise ValueError(
            "apply_metric needs a (2,0) tensor with a 1-form or a (0,2) tensor "
            "with a vector field, of one dimension"
        )
    n = t.dimension

    def entry(idx: tuple[int, ...]) -> Poly:
        (a,) = idx
        total = Poly.zero(n)
        for k in range(n):
            total = total + t.comp(a, k) * w.comp(k)
        return total

    return TensorField.build(n, w.q, w.p, entry)


def pairing(form: TensorField, vec: TensorField) -> Poly:
    """w_a X^a for a 1-form and a vector field."""
    if (form.p, form.q, vec.p, vec.q) != (0, 1, 1, 0) or form.dimension != vec.dimension:
        raise ValueError("pairing needs a 1-form, then a vector field, of one dimension")
    n = form.dimension
    total = Poly.zero(n)
    for k in range(n):
        total = total + form.comp(k) * vec.comp(k)
    return total


def gradient(f: Poly) -> TensorField:
    """The 1-form df."""
    n = f.dimension
    return one_form(n, [f.partial(a) for a in range(n)])


def directional(vec: TensorField, f: Poly) -> Poly:
    """X(f) = X^k d_k f."""
    n = vec.dimension
    total = Poly.zero(n)
    for k in range(n):
        total = total + vec.comp(k) * f.partial(k)
    return total


def vector_bracket(x: TensorField, y: TensorField) -> TensorField:
    """[X, Y]^a = X^k d_k Y^a - Y^k d_k X^a."""
    n = x.dimension
    comps = [directional(x, y.comp(a)) - directional(y, x.comp(a)) for a in range(n)]
    return vector(n, comps)


def lie_derivative(x: TensorField, t: TensorField) -> TensorField:
    """Lie derivative of a (p,q) tensor along the vector field x.

    (L_X T) = X^k d_k T  minus a dX-contraction per contravariant slot,
    plus one per covariant slot.
    """
    if x.dimension != t.dimension or (x.p, x.q) != (1, 0):
        raise ValueError("lie_derivative needs a vector field of matching dimension")
    n = t.dimension

    def entry(idx: tuple[int, ...]) -> Poly:
        uppers = idx[: t.p]
        lowers = idx[t.p :]
        total = directional(x, t.comp(*idx))
        for slot, a in enumerate(uppers):
            for k in range(n):
                swapped = uppers[:slot] + (k,) + uppers[slot + 1 :]
                total = total - x.comp(a).partial(k) * t.comp(*swapped, *lowers)
        for slot, b in enumerate(lowers):
            for k in range(n):
                swapped = lowers[:slot] + (k,) + lowers[slot + 1 :]
                total = total + x.comp(k).partial(b) * t.comp(*uppers, *swapped)
        return total

    return TensorField.build(n, t.p, t.q, entry)


# ----------------------------------------------------------------------
# connections

@dataclass(frozen=True)
class Connection:
    """Torsion-free Christoffel symbols; not a tensor, transported by its
    own Lie-derivative formula."""

    dimension: int
    symbols: tuple[Poly, ...]  # flat [a][b][c] with a,b lower and c upper

    def __post_init__(self):
        n = self.dimension
        if len(self.symbols) != n**3:
            raise ValueError("need dimension^3 Christoffel entries")
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(n):
                    if self.symbol(a, b, c) != self.symbol(b, a, c):
                        raise ValueError(
                            f"connection has torsion at lower pair ({a},{b}), upper {c}"
                        )

    def symbol(self, a: int, b: int, c: int) -> Poly:
        n = self.dimension
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            raise ValueError(f"symbol index ({a},{b},{c}) out of range for dimension {n}")
        return self.symbols[(a * n + b) * n + c]

    @classmethod
    def build(cls, dimension: int, fn: Callable[[int, int, int], Poly]) -> "Connection":
        n = dimension
        return cls(n, tuple(fn(a, b, c) for a in range(n) for b in range(n) for c in range(n)))

    @classmethod
    def zero(cls, dimension: int) -> "Connection":
        z = Poly.zero(dimension)
        return cls(dimension, (z,) * dimension**3)

    def __add__(self, other: "Connection") -> "Connection":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        return Connection(self.dimension, tuple(a + b for a, b in zip(self.symbols, other.symbols)))

    @property
    def is_zero(self) -> bool:
        return all(s.is_zero for s in self.symbols)

    def __str__(self) -> str:
        n = self.dimension
        nonzero = [
            f"[{a}{b}^{c}]={self.symbol(a, b, c)}"
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if not self.symbol(a, b, c).is_zero
        ]
        return f"Connection{{{'; '.join(nonzero) or '0'}}}"


def lie_derivative_connection(x: TensorField, g: Connection) -> TensorField:
    """Lie transport of Christoffel symbols along x, (1,2)-shaped output.

    (L_X G)_ab^c = X^k d_k G_ab^c + G_kb^c d_a X^k + G_ak^c d_b X^k
                   - G_ab^k d_k X^c + d_a d_b X^c
    """
    if x.dimension != g.dimension or (x.p, x.q) != (1, 0):
        raise ValueError("lie_derivative_connection needs a matching vector field")
    n = g.dimension

    def entry(idx: tuple[int, ...]) -> Poly:
        c, a, b = idx
        total = directional(x, g.symbol(a, b, c))
        for k in range(n):
            total = total + g.symbol(k, b, c) * x.comp(k).partial(a)
            total = total + g.symbol(a, k, c) * x.comp(k).partial(b)
            total = total - g.symbol(a, b, k) * x.comp(c).partial(k)
        total = total + x.comp(c).partial(a).partial(b)
        return total

    return TensorField.build(n, 1, 2, entry)


def raise_connection(g: Connection, gamma: TensorField, slots: int) -> TensorField:
    """Contract lower connection slots with gamma.

    slots=1: G_a^{bc} = gamma^{bk} G_ak^c, returned as comp(b, c, a);
    slots=2: G^{abc} = gamma^{ak} gamma^{bl} G_kl^c, returned as comp(a, b, c).
    The symbols are viewed as the (1,2)-shaped field comp(c, a, b) = G_ab^c
    and raised by raise_connection_transport.
    """
    if gamma.dimension != g.dimension:
        raise ValueError("dimension mismatch")
    n = g.dimension
    symbols = TensorField.build(n, 1, 2, lambda idx: g.symbol(idx[1], idx[2], idx[0]))
    return raise_connection_transport(symbols, gamma, slots)


def raise_connection_transport(
    ld: TensorField, gamma: TensorField, slots: int
) -> TensorField:
    """Apply the same gamma-contractions to a (1,2)-shaped Lie transport.

    With L = lie_derivative_connection(x, g) and L_x gamma = 0 this computes
    the transport of the raised symbols; slots as in raise_connection.
    """
    n = ld.dimension
    if slots == 1:

        def entry_one(idx: tuple[int, ...]) -> Poly:
            b, c, a = idx
            total = Poly.zero(n)
            for k in range(n):
                total = total + gamma.comp(b, k) * ld.comp(c, a, k)
            return total

        return TensorField.build(n, 2, 1, entry_one)
    if slots == 2:

        def entry_two(idx: tuple[int, ...]) -> Poly:
            a, b, c = idx
            total = Poly.zero(n)
            for k in range(n):
                for l in range(n):
                    total = total + gamma.comp(a, k) * gamma.comp(b, l) * ld.comp(c, k, l)
            return total

        return TensorField.build(n, 3, 0, entry_two)
    raise ValueError("slots must be 1 or 2")


def covariant_derivative(g: Connection, t: TensorField) -> TensorField:
    """Covariant derivative; the derivative index is the first covariant slot."""
    if g.dimension != t.dimension:
        raise ValueError("dimension mismatch")
    n = t.dimension

    def entry(idx: tuple[int, ...]) -> Poly:
        uppers = idx[: t.p]
        c = idx[t.p]
        lowers = idx[t.p + 1 :]
        total = t.comp(*uppers, *lowers).partial(c)
        for slot, a in enumerate(uppers):
            for k in range(n):
                swapped = uppers[:slot] + (k,) + uppers[slot + 1 :]
                total = total + g.symbol(c, k, a) * t.comp(*swapped, *lowers)
        for slot, b in enumerate(lowers):
            for k in range(n):
                swapped = lowers[:slot] + (k,) + lowers[slot + 1 :]
                total = total - g.symbol(c, b, k) * t.comp(*uppers, *swapped)
        return total

    return TensorField.build(n, t.p, t.q + 1, entry)


@dataclass(frozen=True)
class CurvatureField:
    """Curvature components R.comp(a,b,c,d) = R_abc^d, antisymmetric in (a,b)."""

    dimension: int
    components: tuple[Poly, ...]

    def comp(self, a: int, b: int, c: int, d: int) -> Poly:
        n = self.dimension
        return self.components[((a * n + b) * n + c) * n + d]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def negated(self) -> "CurvatureField":
        return CurvatureField(self.dimension, tuple(-c for c in self.components))

    def nonzero_entries(self) -> list[tuple[tuple[int, int, int, int], Poly]]:
        n = self.dimension
        out = []
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        v = self.comp(a, b, c, d)
                        if not v.is_zero:
                            out.append(((a, b, c, d), v))
        return out


def curvature(g: Connection) -> CurvatureField:
    """R_abc^d = d_a G_bc^d - d_b G_ac^d + G_ak^d G_bc^k - G_bk^d G_ac^k."""
    n = g.dimension
    comps = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    total = g.symbol(b, c, d).partial(a) - g.symbol(a, c, d).partial(b)
                    for k in range(n):
                        total = total + g.symbol(a, k, d) * g.symbol(b, c, k)
                        total = total - g.symbol(b, k, d) * g.symbol(a, c, k)
                    comps.append(total)
    return CurvatureField(n, tuple(comps))


def check_newtonian(
    r: CurvatureField, gamma: TensorField
) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Newtonian curvature symmetry, exactly.

    True iff gamma^{bk} R_akc^d = gamma^{dk} R_cka^b for every (a, c, b, d);
    on failure the first violating index tuple (a, c, b, d) is returned.
    """
    if r.dimension != gamma.dimension:
        raise ValueError("dimension mismatch")
    n = r.dimension
    for a in range(n):
        for c in range(n):
            for b in range(n):
                for d in range(n):
                    lhs = Poly.zero(n)
                    rhs = Poly.zero(n)
                    for k in range(n):
                        lhs = lhs + gamma.comp(b, k) * r.comp(a, k, c, d)
                        rhs = rhs + gamma.comp(d, k) * r.comp(c, k, a, b)
                    if lhs != rhs:
                        return False, (a, c, b, d)
    return True, None

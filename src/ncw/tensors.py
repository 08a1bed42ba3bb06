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

A field's only storage is its ``nonzero`` mapping from index tuple to
component, for a ``TensorField``, a ``Connection`` and a ``CurvatureField``
alike: a dict with no zero value ever stored, so ``==`` compares fields.  An
absent entry is zero.  Nothing below visits one, and every operator leaves
out each entry of its result that sums to zero, so a result is stored as it
comes.  Its order is unspecified; whatever renders entries sorts them by
index.

The differential operators walk their terms directly, each in one pass
that adds every term, sign included, into a single result dict, and each
is written once.  ``lie_derivative`` (the body of ``vector_bracket``) and
``covariant_derivative`` are each a derivative term plus one slot action,
``_act``: of -dX for the Lie derivative, of G_c for the covariant
derivative.  The derivative term is one walk of the field's cached
``derivative``, for X^k d_k T (or d_c T).  The action groups its matrix
once by the index a slot is summed against, then walks the field's entries
once, every slot swapped through the group of the index it holds.
``lie_derivative_connection`` is ``lie_derivative`` of the symbols' (1,2)
view ``Connection.as_field``, comp(c, a, b) = G_ab^c, plus d_a d_b X^c.  Of
the derivative of a T whose last two slots are both upper or both lower,
with symmetric entries (no ``_pair_asymmetry``, the witness found once per
field), as gamma and the torsion-free view are, an operator computes one
triangle, key[-2] <= key[-1], skipping every other key before its product,
and ``_mirrored`` stores each entry under its mirror key too; a field of
one slot pays at most two attribute tests for this.  ``curvature`` sums
S, symmetric in (b, c), once per b <= c.  ``pairing`` and ``directional``
share one sparse dot product, ``_dot``; symmetry checks compare each entry
with its mirror, ``_asymmetry``.

Every other contraction goes through one sparse kernel, ``_einsum(spec,
*factors)``: raising indices with gamma, ``apply_metric``,
``check_newtonian``, the transverse metric, the pushforward of tensors,
and ``tensor_product``.  The spec uses numpy's subscripts: one
letter per slot of each factor, in the factor's index order above, then
``->`` and the letters of the result, so ``_einsum("bk,akcd->acbd", gamma,
r)`` is gamma^{bk} R_akc^d keyed (a, c, b, d).  A letter repeated across or
within factors is summed.  A factor is a field, read through its
``nonzero`` mapping, or such a mapping itself.

Each spec is compiled once, on first use (``_plan``, cached), into one
plain Python function: a loop nest with one level per factor, written as
source and turned into code by ``exec``.  A factor whose letters earlier
factors all bind is one ``get`` of its key; one that binds only new letters
is a ``for`` over its entries, the key unpacked into the letters' local
names; one that does both is grouped once per call by the letters already
bound, and its level loops over the group they pick.  A letter repeated
within a term is an equality test.  Each level multiplies its entry onto
the product of the levels above, and the innermost adds the product
straight into the result under the output letters.  The spec is checked
before any source is written, and no spec text but its letters, as local
names, reaches the source.  Compiling costs about 0.1 ms a spec, paid once
per process; one command meets a dozen or so specs.  The function is not a
generator or a closure, so a call leaves no reference cycle behind.

A field is differentiated once.  ``derivative``, the dict of d_c T_idx
keyed (c, *idx), is a cached property of the immutable field, and every
operator that differentiates a field reads it: a basis field bracketed
against k - 1 others, or transported by several operators, computes its
partials once, and the cache dies with the field.  A connection's view
``as_field`` is cached the same way, with its derivative: its transports
and ``raise_connection`` read the view, and ``curvature`` reads d_a G_bc^d
off the view's derivative, so each connection is differentiated once.
Operator results are wrapped by the trusted ``_raw`` constructor, as
``Poly`` results are by ``Poly._raw``: their inputs have passed their shape
checks, and the operators, the kernel, ``_add``, ``_neg`` and
``derivative`` yield only nonzero entries of the field's dimension under
in-range keys of the right length, so the public constructors' entry checks
would only repeat them.  The public constructors keep every check, and
connections are always built through theirs, which also refuses torsion.

An entry needs only ``+``, unary ``-``, ``*`` and truth, in the operators
and the kernel alike, and the operators on a vector field X
(``directional``, ``vector_bracket``, ``lie_derivative``,
``lie_derivative_connection``) also ``partial`` of X's components.  Each
product keeps one operand order: X or dX before T (the symbols' view
included), the connection before T.  The operators are linear in X, so the
symmetry solver runs them once on a generic field whose components carry
linear forms in the unknowns, which multiply a ``Poly`` on either side.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate, product
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .poly import Poly, Scalar, _check_size, _exact_array, _operands

Index = tuple[int, ...]

_LETTERS = "abcdefghijklmnopqrstuvwx"  # slot letters; y and z are left free


def _index_tuples(dimension: int, rank: int) -> Iterable[Index]:
    _check_size("dimension", dimension, 1)
    return product(range(dimension), repeat=rank)


_zero = cache(Poly.zero)  # the shared zero of each dimension, immutable


def _check_index(dimension: int, rank: int, indices: Sequence[int]) -> None:
    if len(indices) != rank:
        _exact_array("index tuple", indices, rank)  # refused here
    for i in indices:
        if type(i) is not int or not 0 <= i < dimension:  # one test: hot
            _check_size("index", i, 0, dimension)


class _Entries:
    """What the three field classes share.  ``nonzero`` maps index tuples of
    ``rank`` indices in range(dimension) to nonzero components of the field's
    dimension; absent entries are zero.  The dimension is a positive int."""

    def __post_init__(self):
        _check_size("dimension", self.dimension, 1)
        if not isinstance(self.nonzero, Mapping):
            raise ValueError(
                "a field takes a mapping from index tuple to nonzero component, "
                f"not a {type(self.nonzero).__name__}"
            )
        for idx, value in self.nonzero.items():
            if type(idx) is not tuple:
                raise ValueError(f"index {idx!r} is not a tuple")
            _check_index(self.dimension, self.rank, idx)
            if not value:
                raise ValueError(f"zero component stored at {idx}")
            if getattr(value, "dimension", None) != self.dimension:
                raise ValueError(f"component at {idx} is not of dimension {self.dimension}")

    @classmethod
    def _raw(cls, *values):
        """Trusted constructor for operator results, as ``Poly._raw`` is for
        Poly's: values are the dataclass fields in order, and the entries
        must already be stored as ``__post_init__`` requires; they are kept,
        not copied, and nothing is checked."""
        field = object.__new__(cls)
        field.__dict__.update(zip(cls.__match_args__, values))
        return field

    @cached_property
    def derivative(self) -> dict[Index, Poly]:
        """d_c of every entry keyed (c, *idx), over the nonzero entries;
        computed once per field."""
        return {
            (c, *idx): d
            for idx, value in self.nonzero.items()
            for c in range(self.dimension)
            if (d := value.partial(c))
        }

    def _get(self, indices: Index) -> Poly:
        _check_index(self.dimension, self.rank, indices)
        return self.nonzero.get(indices) or _zero(self.dimension)

    @property
    def is_zero(self) -> bool:
        return not self.nonzero


@cache
def _slots(*counts: int) -> tuple[str, ...]:
    """Consecutive groups of distinct slot letters, one group per count."""
    ends = list(accumulate(counts, initial=0))
    if ends[-1] > len(_LETTERS):
        raise ValueError(f"more than {len(_LETTERS)} slots in one contraction")
    return tuple(_LETTERS[i:j] for i, j in zip(ends, ends[1:]))


_SPEC = re.compile(f"[{_LETTERS}]*(?:,[{_LETTERS}]*)*->[{_LETTERS}]*")


@cache
def _plan(spec: str) -> Callable[..., dict[Index, Poly]]:
    """The spec compiled to one function of the factors, which returns the
    summed products with zero sums still in.  Its source holds no spec text
    but checked letters: each letter is the local name of its index, fixed
    names (upper case, ``factors``) hold the rest, and a letter repeated
    within a term is read into ``<letter>_<position>`` and tested equal."""
    inputs, _, output = spec.partition("->")
    if not _SPEC.fullmatch(spec) or len(set(output)) < len(output) or not set(output) <= set(inputs):
        raise ValueError(f"malformed contraction spec {spec!r}")
    terms = inputs.split(",")
    names = [f"F{i}" for i in range(len(terms))]
    head = ["def contract(*factors):", f"    ({', '.join(names)},) = factors"]
    head += [f"    {f} = getattr({f}, 'nonzero', {f})" for f in names]
    head.append("    OUT = {}")
    nest: list[str] = []
    depth = 1
    bound: set[str] = set()
    acc = ""

    def line(text: str, opens: bool = False) -> None:
        nonlocal depth
        nest.append("    " * depth + text)
        depth += opens

    for i, term in enumerate(terms):
        first = {ch: term.index(ch) for ch in term}
        local = [ch if first[ch] == pos else f"{ch}_{pos}" for pos, ch in enumerate(term)]
        equal = " and ".join(f"{ch} == {name}" for ch, name in zip(term, local) if ch != name)
        joined = [ch for ch in first if ch in bound]
        fresh = [ch for ch in first if ch not in bound]
        if not fresh:  # every letter bound: one lookup
            line(f"V{i} = F{i}.get({_tuple(term)})")
            line(f"if V{i} is not None:", True)
        elif not joined:
            line(f"for {_tuple(local)}, V{i} in F{i}.items():", True)
            if equal:
                line(f"if {equal}:", True)
        else:  # grouped once per call by the letters earlier factors bind
            entry = f"G{i}.setdefault({_key(joined)}, []).append(({_key(fresh)}, V{i}))"
            head += [f"    G{i} = {{}}", f"    for {_tuple(local)}, V{i} in F{i}.items():"]
            head += [f"        if {equal}:", f"            {entry}"] if equal else [f"        {entry}"]
            line(f"for {_key(fresh)}, V{i} in G{i}.get({_key(joined)}, ()):", True)
        if acc:
            line(f"P{i} = {acc} * V{i}")
        acc = f"P{i}" if acc else f"V{i}"
        bound.update(fresh)
    line(f"K = {_tuple(output)}")
    line(f"OUT[K] = OUT[K] + {acc} if K in OUT else {acc}")
    namespace: dict = {}
    source = "\n".join(head + nest + ["    return OUT\n"])
    exec(compile(source, f"<contraction {spec}>", "exec"), namespace)
    return namespace.pop("contract")  # not left in its own globals: no cycle


def _tuple(names: Sequence[str]) -> str:
    """The source of the tuple of names."""
    return f"({names[0]},)" if len(names) == 1 else f"({', '.join(names)})"


def _key(names: Sequence[str]) -> str:
    """The source of a group key or value: one name alone, several as a tuple."""
    return names[0] if len(names) == 1 else _tuple(names)


def _einsum(spec: str, *factors) -> dict[Index, Poly]:
    """Sum of products over the repeated letters of spec; see the module
    docstring.  Only nonzero entries are visited, and zero sums are left out."""
    return _nonzero(_plan(spec)(*factors))


def _nonzero(entries: Mapping[Index, Poly]) -> dict[Index, Poly]:
    """The entries with a nonzero value."""
    return {key: value for key, value in entries.items() if value}


def _add(*parts: Mapping[Index, Poly]) -> dict[Index, Poly]:
    """Entrywise sum of sparse entries, zero sums left out."""
    out: dict[Index, Poly] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out[key] + value if key in out else value
    return _nonzero(out)


def _neg(entries: Mapping[Index, Poly]) -> dict[Index, Poly]:
    return {key: -value for key, value in entries.items()}


def _asymmetry(entries: Mapping[Index, Poly], mirror: Callable[[Index], Index]) -> Index | None:
    """The least key of the pairs (key, mirror(key)), mirror an involution,
    whose entries differ (an absent one is zero); None when none do."""
    return min(
        (min(key, other) for key, value in entries.items()
         if entries.get(other := mirror(key)) != value),
        default=None,
    )


def _mirrored(out: Mapping[Index, Poly], symmetric: bool) -> dict[Index, Poly]:
    """The nonzero entries of out; if symmetric, out holds one triangle,
    key[-2] <= key[-1], and each entry is stored under its mirror key too."""
    full = _nonzero(out)
    if symmetric:
        full.update([(key[:-2] + (key[-1], key[-2]), v) for key, v in full.items()])
    return full


@dataclass(frozen=True)
class TensorField(_Entries):
    """(p,q) tensor field: its nonzero Poly components by index tuple.

    Vector fields are the p=1, q=0 case and one-forms the p=0, q=1 case;
    both are plain TensorFields built with the helpers below.
    """

    dimension: int
    p: int
    q: int
    nonzero: dict[Index, Poly]

    def __post_init__(self):
        _check_size("p", self.p, 0)
        _check_size("q", self.q, 0)
        super().__post_init__()

    @property
    def rank(self) -> int:
        return self.p + self.q

    def comp(self, *indices: int) -> Poly:
        return self._get(indices)

    @cached_property
    def _pair_asymmetry(self) -> Index | None:
        """The least key whose entry changes when its last two indices swap, or None."""
        return _asymmetry(self.nonzero, lambda key: key[:-2] + (key[-1], key[-2]))

    @classmethod
    def build(
        cls,
        dimension: int,
        p: int,
        q: int,
        fn: Callable[[tuple[int, ...]], Poly],
    ) -> "TensorField":
        _check_size("p", p, 0)
        _check_size("q", q, 0)
        entries = {idx: c for idx in _index_tuples(dimension, p + q) if (c := fn(idx))}
        return cls(dimension, p, q, entries)

    @classmethod
    def zero(cls, dimension: int, p: int, q: int) -> "TensorField":
        return cls(dimension, p, q, {})

    # ------------------------------------------------------------------
    # pointwise algebra

    def __add__(self, other: "TensorField") -> "TensorField":
        if not isinstance(other, TensorField):
            return NotImplemented
        shape = (self.p, self.q)
        _operands("tensor addition", (self, TensorField, "any"), (other, TensorField, shape))
        return TensorField._raw(self.dimension, self.p, self.q, _add(self.nonzero, other.nonzero))

    def __sub__(self, other: "TensorField") -> "TensorField":
        return self + -other if isinstance(other, TensorField) else NotImplemented

    def __neg__(self) -> "TensorField":
        return TensorField._raw(self.dimension, self.p, self.q, _neg(self.nonzero))

    def scale(self, factor: Poly | Scalar) -> "TensorField":
        entries = {idx: v for idx, c in self.nonzero.items() if (v := c * factor)}
        return TensorField(self.dimension, self.p, self.q, entries)

    def __str__(self) -> str:
        nonzero = [f"[{','.join(map(str, idx))}]={c}" for idx, c in sorted(self.nonzero.items())]
        return f"Tensor({self.p},{self.q}){{{'; '.join(nonzero) or '0'}}}"


def vector(dimension: int, components: Sequence[Poly]) -> TensorField:
    """A vector field X = X^a d_a from its component list."""
    return TensorField(dimension, 1, 0, _listed("vector", dimension, components))


def one_form(dimension: int, components: Sequence[Poly]) -> TensorField:
    """A 1-form from its component list."""
    return TensorField(dimension, 0, 1, _listed("one_form", dimension, components))


def _listed(operation: str, dimension: int, components: Sequence[Poly]) -> dict[Index, Poly]:
    """The nonzero entries of a list or tuple of one component per index."""
    _check_size("dimension", dimension, 1)
    if not isinstance(components, (list, tuple)) or len(components) != dimension:
        _exact_array(operation, components, dimension)  # refused here
    return {(a,): c for a, c in enumerate(components) if c}


def tensor_product(a: TensorField, b: TensorField) -> TensorField:
    """Tensor product; upper slots of a then of b, lower slots likewise."""
    _operands("tensor_product", (a, TensorField, "any"), (b, TensorField, "any"))
    ua, la, ub, lb = _slots(a.p, a.q, b.p, b.q)
    entries = _einsum(f"{ua}{la},{ub}{lb}->{ua}{ub}{la}{lb}", a, b)
    return TensorField._raw(a.dimension, a.p + b.p, a.q + b.q, entries)


def apply_metric(t: TensorField, w: TensorField) -> TensorField:
    """Contract a 2-tensor with a field on its second slot: t^{ak} w_k for a
    (2,0) tensor and a 1-form (a vector), t_{ak} V^k for a (0,2) tensor and a
    vector field (a 1-form)."""
    upper = getattr(t, "p", 0) == 2  # the pair's shapes, read before the check
    _operands("apply_metric", (t, TensorField, (2, 0) if upper else (0, 2)),
              (w, TensorField, (0, 1) if upper else (1, 0)))
    return TensorField._raw(t.dimension, w.q, w.p, _einsum("ak,k->a", t, w))


def pairing(form: TensorField, vec: TensorField) -> Poly:
    """w_a X^a for a 1-form and a vector field."""
    _operands("pairing", (form, TensorField, (0, 1)), (vec, TensorField, (1, 0)))
    return _dot(form.nonzero, vec.nonzero, form.dimension)


def gradient(f: Poly) -> TensorField:
    """The 1-form df."""
    _operands("gradient", (f, Poly))
    n = f.dimension
    return TensorField._raw(n, 0, 1, {(a,): d for a in range(n) if (d := f.partial(a))})


def directional(vec: TensorField, f: Poly) -> Poly:
    """X(f) = X^k d_k f."""
    _operands("directional", (vec, TensorField, (1, 0)), (f, Poly, "any"))
    return _dot(vec.nonzero, gradient(f).nonzero, vec.dimension)


def _dot(u: Mapping[Index, Poly], v: Mapping[Index, Poly], dimension: int) -> Poly:
    """The sum of u_k v_k over the keys of u found in v, each product taken
    u's entry first; the zero of the dimension when nothing is left."""
    total = None
    for key, a in u.items():
        b = v.get(key)
        if b is not None:
            term = a * b
            total = term if total is None else total + term
    return total or _zero(dimension)


def vector_bracket(x: TensorField, y: TensorField) -> TensorField:
    """[X, Y]^a = X^k d_k Y^a - Y^k d_k X^a, which is L_X Y."""
    _operands("vector_bracket", (x, TensorField, (1, 0)), (y, TensorField, (1, 0)))
    return lie_derivative(x, y)


def lie_derivative(x: TensorField, t: TensorField) -> TensorField:
    """Lie derivative of a (p,q) tensor along the vector field x.

    (L_X T) = X^k d_k T, minus d_k X^a T with a contravariant slot's k
    swapped for a, plus d_b X^k T with a covariant slot's k swapped for b,
    summed over every slot: the derivative term, then the slot action
    ``_act`` of -dX, keyed (k, a) = d_k X^a.
    """
    _operands("lie_derivative", (x, TensorField, (1, 0)), (t, TensorField, "any"))
    symmetric = t.q != 1 and t.p + t.q > 1 and t._pair_asymmetry is None
    xs = x.nonzero
    out: dict[Index, Poly] = {}
    for key, d in t.derivative.items():  # (k, *idx): d_k T_idx
        if (xk := xs.get(key[:1])) is not None and not (symmetric and key[-2] > key[-1]):
            idx = key[1:]
            term = xk * d
            out[idx] = out[idx] + term if idx in out else term
    _act(x.derivative, -1, t, out, symmetric)
    return TensorField._raw(t.dimension, t.p, t.q, _mirrored(out, symmetric))


def _act(
    matrix: Mapping[Index, Poly], sign: int, t: TensorField, out: dict, symmetric: bool
) -> None:
    """Add into out, for each entry of T and each slot, the entry with that
    slot swapped through matrix, which maps (*head, k, a) to A^a_k: an upper
    k becomes a with coefficient sign * A (sign is 1 or -1), a lower a
    becomes k with -sign * A, keyed head + the swapped index, A the left
    operand.  Each grouped matrix entry is negated at most once.  With
    ``symmetric`` a key with key[-2] > key[-1] is skipped before its product."""
    p = t.p
    up: dict[int, list] = {}  # k: [(head, a, sign * A^a_k)]
    down: dict[int, list] = {}  # a: [(head, k, -sign * A^a_k)]
    for key, v in matrix.items():
        head, (k, a) = key[:-2], key[-2:]
        if p:
            up.setdefault(k, []).append((head, a, v if sign > 0 else -v))
        if t.q:
            down.setdefault(a, []).append((head, k, v if sign < 0 else -v))
    for idx, value in t.nonzero.items():
        for s, k in enumerate(idx):
            for head, new, v in (up if s < p else down).get(k, ()):
                key = head + idx[:s] + (new,) + idx[s + 1 :]
                if symmetric and key[-2] > key[-1]:
                    continue
                term = v * value
                out[key] = out[key] + term if key in out else term


# ----------------------------------------------------------------------
# connections

@dataclass(frozen=True)
class Connection(_Entries):
    """Torsion-free Christoffel symbols; not a tensor: their Lie transport
    adds d_a d_b X^c to the tensor one of their view ``as_field``."""

    dimension: int
    nonzero: dict[Index, Poly]  # (a, b, c): G_ab^c, a and b lower, c upper
    rank = 3

    def __post_init__(self):
        super().__post_init__()
        if torsion := _asymmetry(self.nonzero, itemgetter(1, 0, 2)):
            a, b, c = torsion
            raise ValueError(f"connection has torsion at lower pair ({a},{b}), upper {c}")

    def symbol(self, a: int, b: int, c: int) -> Poly:
        return self._get((a, b, c))

    @cached_property
    def as_field(self) -> TensorField:
        """The symbols viewed as the (1,2)-shaped field comp(c, a, b) =
        G_ab^c, built once per connection; its derivative is cached with it."""
        entries = {(c, a, b): v for (a, b, c), v in self.nonzero.items()}
        view = TensorField._raw(self.dimension, 1, 2, entries)
        view.__dict__["_pair_asymmetry"] = None  # the symbols are torsion-free
        return view

    @classmethod
    def build(cls, dimension: int, fn: Callable[[int, int, int], Poly]) -> "Connection":
        return cls(dimension, {idx: s for idx in _index_tuples(dimension, 3) if (s := fn(*idx))})

    @classmethod
    def zero(cls, dimension: int) -> "Connection":
        return cls(dimension, {})

    def __str__(self) -> str:
        nonzero = [f"[{a}{b}^{c}]={sym}" for (a, b, c), sym in sorted(self.nonzero.items())]
        return f"Connection{{{'; '.join(nonzero) or '0'}}}"


def lie_derivative_connection(x: TensorField, g: Connection) -> TensorField:
    """Lie transport of Christoffel symbols along x, (1,2)-shaped output.

    (L_X G)_ab^c = X^k d_k G_ab^c + G_kb^c d_a X^k + G_ak^c d_b X^k
                   - G_ab^k d_k X^c + d_a d_b X^c

    The first four terms are the tensor Lie derivative of the symbols'
    (1,2) view, ``g.as_field``; only d_a d_b X^c is added here, per a <= b.
    """
    _operands("lie_derivative_connection", (x, TensorField, (1, 0)), (g, Connection, "any"))
    out = lie_derivative(x, g.as_field).nonzero  # its field is dropped: out is ours
    for (b, c), d in x.derivative.items():
        for a in range(b + 1):
            if dd := d.partial(a):  # d_a d_b X^c
                out[c, a, b] = out[c, b, a] = out[c, a, b] + dd if (c, a, b) in out else dd
    return TensorField._raw(g.dimension, 1, 2, _nonzero(out))


def raise_connection(g: Connection, gamma: TensorField, slots: int) -> TensorField:
    """Contract lower connection slots with gamma.

    slots=1: G_a^{bc} = gamma^{bk} G_ak^c, returned as comp(b, c, a);
    slots=2: G^{abc} = gamma^{ak} gamma^{bl} G_kl^c, returned as comp(a, b, c).
    The symbols' (1,2) view ``g.as_field`` is raised by
    raise_connection_transport.
    """
    _operands("raise_connection", (g, Connection, "any"), (gamma, TensorField, (2, 0)))
    return raise_connection_transport(g.as_field, gamma, slots)


def raise_connection_transport(
    ld: TensorField, gamma: TensorField, slots: int
) -> TensorField:
    """Apply the same gamma-contractions to a (1,2)-shaped Lie transport.

    With L = lie_derivative_connection(x, g) and L_x gamma = 0 this computes
    the transport of the raised symbols; slots as in raise_connection.
    """
    _operands("raise_connection_transport", (ld, TensorField, (1, 2)), (gamma, TensorField, (2, 0)))
    _check_size("slots", slots, 1, 3)
    n = ld.dimension
    if slots == 1:
        return TensorField._raw(n, 2, 1, _einsum("cak,bk->bca", ld, gamma))
    return TensorField._raw(n, 3, 0, _einsum("ckl,ak,bl->abc", ld, gamma, gamma))


def covariant_derivative(g: Connection, t: TensorField) -> TensorField:
    """Covariant derivative; the derivative index c is the first covariant
    slot.  (DT) = d_c T, plus G_ck^a T with a contravariant slot's k swapped
    for a, minus G_cb^k T with a covariant slot's k swapped for b: d_c T and
    the slot action ``_act`` of G_c, both keyed (c, *idx), then re-keyed."""
    _operands("covariant_derivative", (g, Connection, "any"), (t, TensorField, "any"))
    p = t.p
    symmetric = t.q != 1 and t.p + t.q > 1 and t._pair_asymmetry is None
    d = t.derivative  # (c, *idx): d_c T_idx
    out = {key: v for key, v in d.items() if key[-2] <= key[-1]} if symmetric else dict(d)
    _act(g.nonzero, 1, t, out, symmetric)
    out = _mirrored(out, symmetric)
    if p:  # c goes after the upper slots
        out = {key[1 : p + 1] + key[:1] + key[p + 1 :]: v for key, v in out.items()}
    return TensorField._raw(t.dimension, p, t.q + 1, out)


@dataclass(frozen=True)
class CurvatureField(_Entries):
    """Curvature components R.comp(a,b,c,d) = R_abc^d, antisymmetric in (a,b)."""

    dimension: int
    nonzero: dict[Index, Poly]
    rank = 4

    def comp(self, a: int, b: int, c: int, d: int) -> Poly:
        return self._get((a, b, c, d))

    def negated(self) -> "CurvatureField":
        return CurvatureField._raw(self.dimension, _neg(self.nonzero))


def curvature(g: Connection) -> CurvatureField:
    """R_abc^d = d_a G_bc^d - d_b G_ac^d + G_ak^d G_bc^k - G_bk^d G_ac^k,
    taken as S_abcd - S_bacd with S_abcd = d_a G_bc^d + G_ak^d G_bc^k.

    S is symmetric in (b, c), as G is, so it is summed once per b <= c.
    Each entry of S is then added, with its sign, to the R_abcd with a < b
    it enters, under either ordering of its symmetric pair; R_bacd = -R_abcd
    is stored with each.  R_aacd is zero and never formed."""
    _operands("curvature", (g, Connection))
    by_upper: dict[int, list] = {}  # k: [(b, c, G_bc^k)], b <= c
    for (b, c, k), v in g.nonzero.items():
        if b <= c:
            by_upper.setdefault(k, []).append((b, c, v))
    s = {(a, b, c, d): v for (a, d, b, c), v in g.as_field.derivative.items() if b <= c}
    for (a, k, d), v in g.nonzero.items():
        for b, c, w in by_upper.get(k, ()):
            key, term = (a, b, c, d), v * w
            s[key] = s[key] + term if key in s else term
    half: dict[Index, Poly] = {}  # R_abcd with a < b
    for (a, b, c, d), v in s.items():
        for x, y, z in ((a, b, c), (a, c, b)) if b < c else ((a, b, c),):
            if x != y:  # S_xyzd enters R_xyzd and, negated, R_yxzd
                key, term = ((x, y, z, d), v) if x < y else ((y, x, z, d), -v)
                half[key] = half[key] + term if key in half else term
    out: dict[Index, Poly] = {}
    for (a, b, c, d), v in half.items():
        if v:
            out[a, b, c, d] = v
            out[b, a, c, d] = -v
    return CurvatureField._raw(g.dimension, out)


def check_newtonian(
    r: CurvatureField, gamma: TensorField
) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Newtonian curvature symmetry, exactly.

    True iff gamma^{bk} R_akc^d = gamma^{dk} R_cka^b for every (a, c, b, d);
    on failure the first violating index tuple (a, c, b, d) is returned.
    The right side at (a, c, b, d) is the left side at (c, a, d, b), so one
    contraction gives both, and each entry is compared with that mirror.
    """
    _operands("check_newtonian", (r, CurvatureField, "any"), (gamma, TensorField, (2, 0)))
    witness = _asymmetry(_einsum("bk,akcd->acbd", gamma, r), itemgetter(1, 0, 3, 2))
    return (True, None) if witness is None else (False, witness)

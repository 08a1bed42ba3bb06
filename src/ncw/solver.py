"""Symmetry algebras of a Newton-Cartan structure over polynomial ansaetze.

Three nested flavors of infinitesimal symmetry:

* coriolis  - fields preserving the degenerate metric pair (gamma, theta);
* milne     - coriolis fields that also preserve the once-raised symbols
              gamma^{bk} G_ak^c (the contraction is taken after transporting
              the symbols, the only reading that makes the non-tensorial
              connection transportable; valid on the L_X gamma = 0 kernel,
              which is where the solver imposes it);
* galilei   - coriolis fields preserving the full connection.

The infinite-dimensional algebras are explored through an exhaustive degree
filtration: for bound d the component ansatz spans the monomials t^j x^alpha
with j <= d and j + |alpha| <= d + 1, i.e. time-coefficient functions of
degree up to d in the spatially-affine solution templates are all reachable
at bound d.  The nesting makes the solve a chain of sparse linear systems:
L_X gamma = 0 and L_X theta = 0 over the full ansatz give the Coriolis
kernel, which is the coriolis basis; milne and galilei then impose their
connection condition on the kernel's coordinates alone and map the result
back.  Kernels come out in canonical reduced echelon form, so bases are
reproducible regardless of evaluation order, and the chain gives the very
basis one joint system over the full ansatz would.

Stage one depends only on the Galilei pair and the degree bound, so the
pair keeps its Coriolis kernel once per bound, computed on the first solve
that passes every check and read, never changed, by every later one.  The
flat and standard presets of one n share their frame's pair, and so solve
stage one once per (n, d); any other structure's pair keeps its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from operator import add
from typing import Literal, Sequence

from .linalg import SparseEliminator, SparseRow, sparse_kernel
from .poly import Exponent, Poly, Scalar, _accumulate, _check_size, _operands, _q, grlex_monomials
from .structures import NCStructure
from .tensors import (
    Connection,
    TensorField,
    lie_derivative,
    lie_derivative_connection,
    raise_connection_transport,
    vector,
    vector_bracket,
)

Flavor = Literal["coriolis", "milne", "galilei"]

FLAVORS: tuple[Flavor, ...] = ("coriolis", "milne", "galilei")

_ALIASES = {
    "cor": "coriolis",
    "coriolis": "coriolis",
    "mil": "milne",
    "milne": "milne",
    "gal": "galilei",
    "galilei": "galilei",
}


def canonical_flavor(name: str) -> Flavor:
    flavor = _ALIASES.get(name.lower()) if isinstance(name, str) else None
    if flavor is None:
        raise ValueError(f"unknown symmetry flavor {name!r}")
    return flavor  # type: ignore[return-value]


# desk-scale guard, like the DSL's input limits: the most ansatz columns
# (components x admitted monomials) a solve assembles
MAX_ANSATZ_COLUMNS = 20_000


class NotInFlavorError(ValueError):
    """A field handed to a flavor-specific operation fails its defining
    equations; the message names the first violated condition."""


def ansatz_monomials(dimension: int, degree: int) -> list[Exponent]:
    """Component monomials admitted at the given bound, canonically ordered."""
    return [m for m in grlex_monomials(dimension, degree + 1) if m[0] <= degree]


@dataclass(frozen=True)
class SymmetryBasis:
    structure: NCStructure
    flavor: Flavor
    degree: int
    fields: tuple[TensorField, ...]

    def __post_init__(self):
        _operands("SymmetryBasis", (self.structure, NCStructure), (self.fields, tuple))
        object.__setattr__(self, "flavor", canonical_flavor(self.flavor))
        _check_size("degree", self.degree, 0)
        _operands("SymmetryBasis", (self.structure, NCStructure, "any"),
                  *[(x, TensorField, (1, 0)) for x in self.fields])

    @property
    def dimension(self) -> int:
        return len(self.fields)


class _FormPoly:
    """A polynomial whose coefficients are sparse linear forms in the ansatz
    unknowns: terms maps an exponent tuple to {column: coefficient}, with no
    empty form and no zero coefficient, and coefficients as canonical as a
    Poly's.  The components of the generic field are of this type.  The
    tensor operators are linear in their vector field and need of it only
    +, unary -, products with a Poly on either side (Poly.__mul__ returns
    NotImplemented for it), partial and truth.

    A form, once built, is never changed in place, because results share
    the forms of their operands wherever a form carries over unchanged: a
    product by 1 is the operand itself, a product by a monic monomial and
    partial keep every form they do not scale, and + keeps every form it
    does not merge.  A changed form is always a new dict.  Forms are
    merged and scaled through ``poly._accumulate``, the sum Poly terms
    take."""

    __slots__ = ("dimension", "terms")

    def __init__(self, dimension: int, terms: dict[Exponent, dict[int, Scalar]]):
        self.dimension = dimension
        self.terms = terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "_FormPoly") -> "_FormPoly":
        out = dict(self.terms)
        for exps, form in other.terms.items():
            mine = out.get(exps)
            if mine is None:
                out[exps] = form
                continue
            merged = dict(mine)
            _accumulate(merged, form)
            if merged:
                out[exps] = merged
            else:
                del out[exps]
        return _FormPoly(self.dimension, out)

    def __neg__(self) -> "_FormPoly":
        return _FormPoly(
            self.dimension,
            {e: {col: -v for col, v in form.items()} for e, form in self.terms.items()},
        )

    def __mul__(self, other: Poly) -> "_FormPoly":
        if not isinstance(other, Poly):
            return NotImplemented
        if len(other.terms) == 1:
            ((e2, c2),) = other.terms.items()
            if c2 == 1:
                if not any(e2):
                    return self
                terms = {tuple(map(add, e1, e2)): form for e1, form in self.terms.items()}
            else:
                # a nonzero multiple of a nonzero coefficient is nonzero
                terms = {
                    tuple(map(add, e1, e2)): {col: _q(c2 * v) for col, v in form.items()}
                    for e1, form in self.terms.items()
                }
            return _FormPoly(self.dimension, terms)
        out: dict[Exponent, dict[int, Scalar]] = {}
        for e1, form in self.terms.items():
            for e2, coeff in other.terms.items():
                exps = tuple(map(add, e1, e2))
                _accumulate(out.setdefault(exps, {}), form, coeff)
        return _FormPoly(self.dimension, {e: form for e, form in out.items() if form})

    __rmul__ = __mul__

    def partial(self, axis: int) -> "_FormPoly":
        out = {}
        for exps, form in self.terms.items():
            e = exps[axis]
            if e:
                key = exps[:axis] + (e - 1,) + exps[axis + 1 :]
                out[key] = form if e == 1 else {col: _q(v * e) for col, v in form.items()}
        return _FormPoly(self.dimension, out)


def _generic_field(
    dim: int, monos: Sequence[Exponent], columns: Sequence[SparseRow]
) -> TensorField:
    """The generic field sum_i y_i v_i, whose unknown y_i is column i and
    whose v_i = columns[i] are ansatz vectors: position c * len(monos) + j
    holds the coefficient of component c on the monomial m_j."""
    terms: list[dict[Exponent, dict[int, Scalar]]] = [{} for _ in range(dim)]
    for i, vec in enumerate(columns):
        for pos, coeff in vec.items():
            comp, j = divmod(pos, len(monos))
            terms[comp].setdefault(monos[j], {})[i] = coeff
    return vector(dim, [_FormPoly(dim, t) for t in terms])


def _metric_pair_rows(
    s: NCStructure, monos: Sequence[Exponent]
) -> dict[tuple, dict[int, Scalar]]:
    """Stage one: L_X gamma and L_X theta on the generic field over the full
    ansatz, X^c = sum_j u_{c,j} m_j with u_{c,j} in column c * len(monos) + j.
    Each (block, index, monomial) term of the result is one row, keyed so.
    L_X gamma is symmetric, as gamma is: lie_derivative computes one
    triangle, a <= b, and mirrors it, and the rows come from that triangle."""
    g = s.base
    units = [{i: 1} for i in range(g.dimension * len(monos))]
    x = _generic_field(g.dimension, monos, units)
    return _form_rows(
        [_triangle(lie_derivative(x, g.gamma)), lie_derivative(x, g.theta).nonzero]
    )


def _connection_rows(
    s: NCStructure, flavor: Flavor, kernel: Sequence[SparseRow], monos: Sequence[Exponent]
) -> dict[tuple, dict[int, Scalar]]:
    """Stage two: the flavor's connection condition on Y = sum_i y_i k_i over
    the Coriolis kernel vectors k_i, with y_i in column i, keyed like stage
    one's rows with block 0.  The lower pair of L_Y G is symmetric, so the
    galilei rows come from the triangle, a <= b, that lie_derivative_connection
    computes; the raised milne transport is not, and is raised from all of it."""
    y = _generic_field(s.base.dimension, monos, kernel)
    transport = lie_derivative_connection(y, s.connection)
    if flavor == "milne":
        return _form_rows([raise_connection_transport(transport, s.base.gamma, 1).nonzero])
    return _form_rows([_triangle(transport)])


def _triangle(t: TensorField) -> dict:
    """The entries of t with key[-2] <= key[-1]."""
    return {key: v for key, v in t.nonzero.items() if key[-2] <= key[-1]}


def _form_rows(blocks: Sequence[dict]) -> dict[tuple, object]:
    """The (block, index, monomial) terms of a list of field entries: over
    _FormPoly each is one linear row, over Poly one right side; an entry
    that sums to zero has no terms and gives none."""
    return {
        (block, idx, exps): form
        for block, entries in enumerate(blocks)
        for idx, poly in entries.items()
        for exps, form in poly.terms.items()
    }


def _restrict(
    s: NCStructure, flavor: Flavor, kernel: Sequence[SparseRow], monos: Sequence[Exponent]
) -> list[SparseRow]:
    """The canonical kernel of the joint system, from the canonical Coriolis
    kernel K = [k_0 ... k_{m-1}] and stage two over its m coordinates.

    Each k_i holds 1 at its free column f_i, 0 at every other f_j and
    nothing past f_i, with the f_i ascending; the stage-two kernel vectors w
    have the same shape over the coordinates.  So the vectors sum_i w_i k_i
    have it over the ansatz, and are already the canonical basis of the
    joint kernel: no elimination over the ansatz is needed again."""
    out = []
    for w in sparse_kernel(_connection_rows(s, flavor, kernel, monos).values(), len(kernel)):
        vec: SparseRow = {}
        for i, coeff in w.items():
            _accumulate(vec, kernel[i], coeff)
        out.append(vec)
    return out


def solve_symmetries(
    s: NCStructure, flavor: str, degree: int
) -> SymmetryBasis:
    """Exact kernel of the flavor's defining equations over the ansatz."""
    _operands("solve_symmetries", (s, NCStructure))
    # stage one reads one triangle of L_X gamma, which needs gamma symmetric
    s.base._valid_pair
    fl = canonical_flavor(flavor)
    d = degree
    _check_size("degree", d, 0)
    dim = s.base.dimension
    # components x monomials t^j x^alpha, j <= d, |alpha| <= d + 1 - j
    columns = dim * sum(comb(d + dim - j, dim - 1) for j in range(d + 1))
    if columns > MAX_ANSATZ_COLUMNS:
        raise ValueError(f"ansatz of {columns} columns exceeds the limit {MAX_ANSATZ_COLUMNS}")
    monos = ansatz_monomials(dim, d)
    kernels = s.base._coriolis_kernels
    kernel = kernels.get(d)
    if kernel is None:
        kernel = sparse_kernel(_metric_pair_rows(s, monos).values(), dim * len(monos))
        kernels[d] = kernel
    if fl != "coriolis" and kernel:
        kernel = _restrict(s, fl, kernel, monos)

    fields = []
    for vec in kernel:
        terms: list[dict[Exponent, Scalar]] = [{} for _ in range(dim)]
        for col, coeff in vec.items():
            comp, j = divmod(col, len(monos))
            terms[comp][monos[j]] = coeff
        # kernel entries are canonical and nonzero, on in-range columns
        entries = {(a,): Poly._raw(dim, t) for a, t in enumerate(terms) if t}
        fields.append(TensorField._raw(dim, 1, 0, entries))
    return SymmetryBasis(s, fl, d, tuple(fields))


@dataclass(frozen=True)
class ClassifyFlags:
    is_coriolis: bool
    is_milne: bool
    is_galilei: bool
    # L_X G and gamma of a coriolis field, kept for its raised-transport
    # identity so that L_X G is not taken twice; no part of the verdict
    _transport: tuple[Connection, TensorField] | None = field(
        default=None, compare=False, repr=False
    )

    def raised_transport_identity(self) -> bool:
        """Whether the doubly-raised transport gamma^{ak} gamma^{bl}
        (L_X G)_kl^c of the classified field vanishes; NotInFlavorError
        unless it preserves the metric pair."""
        if self._transport is None:
            raise NotInFlavorError(
                "field does not preserve the metric pair (coriolis conditions fail)"
            )
        ld, gamma = self._transport
        return raise_connection_transport(ld, gamma, 2).is_zero


def classify(x: TensorField, s: NCStructure) -> ClassifyFlags:
    """Exact membership flags; nesting enforced (galilei => milne => coriolis)."""
    _operands("classify", (x, TensorField, (1, 0)), (s, NCStructure))
    g = s.base
    cor = (
        lie_derivative(x, g.gamma).is_zero
        and lie_derivative(x, g.theta).is_zero
    )
    if not cor:
        return ClassifyFlags(False, False, False)
    ld = lie_derivative_connection(x, s.connection)
    mil = raise_connection_transport(ld, g.gamma, 1).is_zero
    gal = mil and ld.is_zero
    return ClassifyFlags(True, mil, gal, (ld, g.gamma))


def verify_coriolis_identity(x: TensorField, s: NCStructure) -> bool:
    """Whether the doubly-raised transport gamma^{ak} gamma^{bl} (L_X G)_kl^c
    vanishes; requires x to preserve the metric pair."""
    return classify(x, s).raised_transport_identity()


# ----------------------------------------------------------------------
# structure constants

def structure_constants(
    basis: SymmetryBasis,
) -> tuple[list[list[list[Scalar]]], bool]:
    """Expand [X_i, X_j] in the basis through one elimination.

    Row i holds X_i's (component, monomial) coefficients and a tag 1 in
    column tag + i, after every data column.  A tag column that pivots is a
    linear relation between the fields, refused with ValueError before any
    bracket is taken.  A bracket with a (component, monomial) no basis field
    has leaves the span; any other, reduced against the rows, either keeps a
    data column, and leaves the span, or keeps only tags, which are minus
    its coordinates.

    Returns the 3-index constants c[i][j][k] and a closure flag; the flag is
    False when some bracket leaves the span (degree truncation need not be
    bracket-stable), in which case that pair's constants are zero.
    """
    _operands("structure_constants", (basis, SymmetryBasis))
    fields = basis.fields
    k = len(fields)
    rows = [_form_rows([f.nonzero]) for f in fields]
    columns: dict[tuple, int] = {}
    for terms in rows:
        for key in terms:
            columns.setdefault(key, len(columns))
    tag = len(columns)
    elim = SparseEliminator(tag + k)
    for i, terms in enumerate(rows):
        elim.add_row({columns[key]: v for key, v in terms.items()} | {tag + i: 1})
    # a pivot among the tags is a linear relation between basis fields
    if max(elim.pivot_rows, default=-1) >= tag:
        raise ValueError("basis is linearly dependent")

    constants = [[[0] * k for _ in range(k)] for _ in range(k)]
    closed = True
    for i, j in combinations(range(k), 2):
        terms = _form_rows([vector_bracket(fields[i], fields[j]).nonzero])
        if not terms.keys() <= columns.keys():  # a monomial no basis field has
            closed = False
            continue
        reduced = elim.reduce({columns[key]: v for key, v in terms.items()})
        if min(reduced, default=tag) < tag:
            closed = False
            continue
        for m in range(k):
            constants[j][i][m] = reduced.get(tag + m, 0)
            constants[i][j][m] = -constants[j][i][m]
    return constants, closed


# ----------------------------------------------------------------------
# solution templates
#
# X^0 = tau; X^A = omega(t)^A_B x^B + rho(t)^A with omega antisymmetric: the
# shape of every metric-pair-preserving field of the standard structures,
# with constant omega for milne fields.  _time_terms is the one reading of
# it: report.generator_label tags a field from it, and the two parameter
# presentations in extensions, BargmannElement and MilneStandardElement,
# refit a field through it.

def _time_terms(
    x: TensorField,
) -> tuple[Scalar, dict[tuple[int, int], dict[int, Scalar]], dict[int, dict[int, Scalar]]] | None:
    """The template reading of a vector field in one walk over its entries:
    tau, omega^A_B keyed (A, B) and rho^A keyed A, each of omega and rho as
    {t-exponent: coefficient} with only nonzero entries kept; None when the
    field does not have the shape.  Antisymmetry is checked on the dicts."""
    _operands("a time template", (x, TensorField, (1, 0)))
    dim = x.dimension
    origin = (0,) * dim
    tau: Scalar = 0
    omega: dict[tuple[int, int], dict[int, Scalar]] = {}
    rho: dict[int, dict[int, Scalar]] = {}
    for (a,), comp in x.nonzero.items():
        if not a:
            # a nonzero constant has the one term at the origin
            tau = comp.terms.get(origin, 0)
            if not tau or len(comp.terms) > 1:
                return None
            continue
        for exps, coeff in comp.terms.items():
            t = exps[0]
            spatial = sum(exps) - t  # the degree in x^1 .. x^n
            if not spatial:
                rho.setdefault(a, {})[t] = coeff
            elif spatial == 1:
                omega.setdefault((a, exps.index(1, 1)), {})[t] = coeff
            else:
                return None
    # omega^B_A = -omega^A_B; a diagonal entry fails, as w == -w only for w = 0
    if any(omega.get((b, a)) != {e: -c for e, c in w.items()} for (a, b), w in omega.items()):
        return None
    return tau, omega, rho


def _time_poly(dim: int, coeffs: dict[int, Scalar]) -> Poly:
    """The Poly of t of a {t-exponent: coefficient} reading."""
    # canonical nonzero coefficients of the field, on distinct t-powers
    rest = (0,) * (dim - 1)
    return Poly._raw(dim, {(e,) + rest: c for e, c in coeffs.items()})

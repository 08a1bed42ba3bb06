"""Extended symmetry algebras of an NCB structure and the Bargmann algebra.

Stabilizing more of the NCB data enlarges the symmetry objects by gauge
parameters:

* stabilizing (gamma, theta, U) pins the boost 1-form to h([U, X]) and
  leaves a free scalar: pairs (X, f) with the semidirect bracket
  ([X, X'], X(f') - X'(f));
* stabilizing V as well forces gamma(df) = [V, X]; the solution splits as
  f = xi + f_X with f_X normalized to vanish on the spatial origin, leaving
  a time-function parameter xi and the bracket

      ([X, X'], X(xi' + f_X') - X'(xi + f_X) - f_[X,X'])

  a non-central extension: time translations act on non-constant xi;
* stabilizing the potential too leaves only a constant xi, and the
  extension becomes central; on the flat structure it is the Bargmann
  algebra, whose cocycle pairs boosts with space translations and is not a
  coboundary.

Cocycles, functionals and the constant parameters of a BargmannElement or
a MilneStandardElement are taken only as ints and Fractions, arrays read to
their sizes (``poly._exact_array``); a float, a string or a bool is refused.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, NamedTuple, Sequence

from .linalg import RationalMatrix, inconsistency_certificate, solve_inhomogeneous
from .poly import Poly, _check_size, _exact, _exact_array, _operands, time_part
from .solver import (
    NotInFlavorError,
    SymmetryBasis,
    _time_poly,
    _time_terms,
    classify,
    solve_symmetries,
    structure_constants,
)
from .structures import NCBStructure, field_strength
from .tensors import (
    TensorField,
    apply_metric,
    gradient,
    pairing,
    vector,
    vector_bracket,
)


class ExtensionError(ValueError):
    """An extension computation left its target space; message says where."""


@dataclass(frozen=True)
class ExtendedElement:
    """A symmetry field with its gauge parameter.

    For the metric-pair stabilizer the parameter is a free scalar function;
    for the observer stabilizer it is a function of time only; for the full
    stabilizer it is a constant.
    """

    x: TensorField
    f: Poly

    def __post_init__(self):
        _operands("ExtendedElement", (self.x, TensorField, (1, 0)), (self.f, Poly, "any"))


def boost_for_coriolis(x: TensorField, s: NCBStructure) -> TensorField:
    """The unique boost 1-form (modulo theta) fixing U: psi = h([U, X])."""
    _operands("boost_for_coriolis", (x, TensorField, (1, 0)), (s, NCBStructure, "any"))
    _require(x, s, "coriolis")
    return _boost(x, s)


def _boost(x: TensorField, s: NCBStructure) -> TensorField:
    """h([U, X]) for a field known to preserve the metric pair."""
    return apply_metric(s.transverse, vector_bracket(s.u, x))


_PRESERVED = {
    "coriolis": "the metric pair",
    "milne": "the raised symbols",
    "galilei": "the connection",
}


def _require(x: TensorField, s: NCBStructure, flavor: str) -> None:
    """Raise NotInFlavorError unless x is a symmetry of the given flavor."""
    flags = classify(x, s.induced_nc())
    if not getattr(flags, f"is_{flavor}"):
        raise NotInFlavorError(f"field does not preserve {_PRESERVED[flavor]}")


def extended_cor_bracket(
    e1: ExtendedElement, e2: ExtendedElement, s: NCBStructure
) -> ExtendedElement:
    """Semidirect bracket ([X, X'], X(f') - X'(f)) on metric-pair
    stabilizer pairs."""
    _operands("extended_cor_bracket", (e1, ExtendedElement), (e2, ExtendedElement), (s, NCBStructure))
    _require(e1.x, s, "coriolis")
    _require(e2.x, s, "coriolis")
    return _bracket(e1.x, gradient(e1.f), e2.x, gradient(e2.f), s, "coriolis")


def _full_rhs(x: TensorField, s: NCBStructure) -> TensorField:
    """alpha_X = (-X(phi) + h(L_X V, V)) theta - h(L_X V)."""
    lowered = apply_metric(s.transverse, vector_bracket(x, s.v))
    scalar = pairing(lowered, s.v) - pairing(s.dphi, x)
    return s.base.theta.scale(scalar) - lowered


class _Stabilizer(NamedTuple):
    name: str
    dependence: list[int]  # the variables xi may depend on
    misplaced: str  # message for a xi outside them
    operator: Callable[[TensorField, NCBStructure], TensorField]  # D in D(f) = R(X), on df
    rhs: Callable[[TensorField, NCBStructure], TensorField]  # R
    xi_part: Callable[[Poly], Poly]  # g where the variables xi lacks vanish


# each stabilizer's equation D(f) = R(X) for the full parameter f = xi + f_X;
# D kills xi, so the solve's post-check and the bracket check share it.  D
# acts on df, so the gradient the post-check takes is the one brackets use
_STABILIZERS = {
    "milne": _Stabilizer(
        "the observer stabilizer", [0],
        "observer-stabilizer parameter must depend on time only",
        lambda df, s: apply_metric(s.base.gamma, df),
        lambda x, s: vector_bracket(s.v, x),
        time_part,
    ),
    "galilei": _Stabilizer(
        "the full stabilizer", [],
        "full-stabilizer parameter must be constant",
        lambda df, s: df,
        _full_rhs,
        lambda f: Poly.const(f.dimension, f.coefficient((0,) * f.dimension)),
    ),
}


# a parameter f_X and its gradient; None for a field that does not extend
_Found = tuple[Poly, TensorField] | None


def _parameter(x: TensorField, s: NCBStructure, flavor: str) -> _Found:
    """f_X of a field and its gradient, membership checked first."""
    _require(x, s, flavor)
    return _integrate(x, s, flavor)


def _split(found: _Found, s: NCBStructure) -> tuple[Poly, bool]:
    """(f_X, True) for a field that extends, (0, False) for one that does not."""
    return (found[0], True) if found else (Poly.zero(s.base.dimension), False)


def _integrate(x: TensorField, s: NCBStructure, flavor: str) -> _Found:
    """f_X of a member and its gradient: the primitive of df over the
    variables xi does not depend on, zero where they vanish, checked exactly
    against D(f) = R(X); None when that part of df is not closed (X does not
    extend)."""
    if flavor == "milne" and any(idx != (0,) for idx in s.base.theta.nonzero):
        raise ExtensionError(
            "observer-stabilizer parameters need a clock theta without spatial components"
        )
    st = _STABILIZERS[flavor]
    dim = s.base.dimension
    rhs = st.rhs(x, s)
    # h(gamma(df)) = df - theta U(f) agrees with df off the time axis
    form = apply_metric(s.transverse, rhs) if flavor == "milne" else rhs
    f = _radial_primitive(form, [a for a in range(dim) if a not in st.dependence])
    if f is None:
        return None
    df = gradient(f)
    if not (st.operator(df, s) - rhs).is_zero:
        raise ExtensionError(f"{st.name} parameter failed verification")
    return f, df


def _radial_primitive(form: TensorField, axes: Sequence[int]) -> Poly | None:
    """The polynomial f with d_a f = form_a along the given axes, zero where
    their coordinates vanish; the other coordinates ride along as
    parameters.  None when the form is not closed along the axes: when its
    field strength has an entry (a, b) with both a and b among them."""
    if any(a in axes and b in axes for a, b in field_strength(form).nonzero):
        return None
    terms: dict[tuple[int, ...], Fraction] = {}
    for a in axes:
        for exps, coeff in form.comp(a).terms.items():
            key = exps[:a] + (exps[a] + 1,) + exps[a + 1:]
            terms[key] = terms.get(key, 0) + Fraction(coeff, sum(exps[b] for b in axes) + 1)
    return Poly(form.dimension, terms)


def _bracket(
    x1: TensorField, df1: TensorField | None, x2: TensorField, df2: TensorField | None,
    s: NCBStructure, flavor: str,
) -> ExtendedElement:
    """([X, X'], X(f') - X'(f) - f_[X,X']) for checked operands, given the
    gradients of their full parameters f = xi + f_X (None: the operand does
    not extend); X(f') is X contracted with df'.

    The gauge bracket is a homomorphism and each stabilizer a subalgebra, so
    g = X(f') - X'(f) is a full parameter of [X, X']: f_[X,X'] is g less its
    xi part, which is the output.  No solve; f_[X,X'] is checked exactly
    against the stabilizer equation.  The metric-pair stabilizer has no
    f_[X,X']."""
    xb = vector_bracket(x1, x2)
    if flavor == "coriolis":
        return ExtendedElement(xb, pairing(df2, x1) - pairing(df1, x2))
    st = _STABILIZERS[flavor]
    if df1 is None or df2 is None:
        raise ExtensionError(f"element does not lie in {st.name}")
    g = pairing(df2, x1) - pairing(df1, x2)
    out = st.xi_part(g)
    if not (st.operator(gradient(g - out), s) - st.rhs(xb, s)).is_zero:
        raise ExtensionError(f"bracket left {st.name}")
    return ExtendedElement(xb, out)


def _checked_bracket(
    e1: ExtendedElement, e2: ExtendedElement, s: NCBStructure, flavor: str
) -> ExtendedElement:
    """The stabilizer bracket with each operand checked in turn: membership
    (by its parameter solve), then the form of its xi."""
    st = _STABILIZERS[flavor]
    grads = []
    for e in (e1, e2):
        found = _parameter(e.x, s, flavor)
        if not e.f.depends_only_on(st.dependence):
            raise ExtensionError(st.misplaced)
        grads.append(None if found is None else gradient(e.f + found[0]))
    return _bracket(e1.x, grads[0], e2.x, grads[1], s, flavor)


# ----------------------------------------------------------------------
# observer stabilizer

def milne_f_split(x: TensorField, s: NCBStructure) -> tuple[Poly, bool]:
    """Solve gamma(df) = [V, X] for polynomial f with f_X(t, 0) = 0.

    For theta without spatial components (ExtensionError otherwise), h turns
    this into d_A f = h([V, X])_A, so f_X is the radial primitive of that
    form over the spatial axes.  Returns (f_X, True), or (0, False) when the
    form is not closed: X does not extend to the observer stabilizer."""
    _operands("milne_f_split", (x, TensorField, (1, 0)), (s, NCBStructure, "any"))
    return _split(_parameter(x, s, "milne"), s)


def extended_mil_bracket(
    e1: ExtendedElement, e2: ExtendedElement, s: NCBStructure
) -> ExtendedElement:
    """Bracket on observer-stabilizer pairs (X, xi), xi a function of time.

    The parameter part X(xi' + f_X') - X'(xi + f_X) - f_[X,X'] is the time
    part of X(xi' + f_X') - X'(xi + f_X)."""
    _operands("extended_mil_bracket", (e1, ExtendedElement), (e2, ExtendedElement), (s, NCBStructure))
    return _checked_bracket(e1, e2, s, "milne")


def noncentrality_check(
    s: NCBStructure, basis: SymmetryBasis
) -> tuple[bool, tuple[int, Poly] | None]:
    """Whether the observer-stabilizer extension acts nontrivially on its
    time-function ideal.

    Checks every element first, through its parameter solve, then scans
    brackets against pure parameters t^k, k up to the basis degree, for the
    first witness (basis index, parameter output)."""
    _operands("noncentrality_check", (s, NCBStructure), (basis, SymmetryBasis))
    if basis.flavor != "milne":
        raise ValueError(f"noncentrality needs a milne basis, got {basis.flavor}")
    found = [_parameter(x, s, "milne") for x in basis.fields]
    witness = _algebra(s, basis, "milne", found).witness
    return witness is not None, witness


# ----------------------------------------------------------------------
# full stabilizer

def galilei_f_solve(x: TensorField, s: NCBStructure) -> tuple[Poly, bool]:
    """Integrate  df = (-X(phi) + h(L_X V, V)) theta - h(L_X V)  exactly.

    Returns (f, True) with the primitive vanishing at the origin, or
    (0, False) when the right side is not closed (X does not extend)."""
    _operands("galilei_f_solve", (x, TensorField, (1, 0)), (s, NCBStructure, "any"))
    return _split(_parameter(x, s, "galilei"), s)


def extended_gal_bracket(
    e1: ExtendedElement, e2: ExtendedElement, s: NCBStructure
) -> ExtendedElement:
    """Bracket on full-stabilizer pairs (X, xi) with constant xi; the
    parameter output is the value of X(xi' + f_X') - X'(xi + f_X) at the
    origin, again constant (central extension)."""
    _operands("extended_gal_bracket", (e1, ExtendedElement), (e2, ExtendedElement), (s, NCBStructure))
    return _checked_bracket(e1, e2, s, "galilei")


def gal_extension_cocycle(basis: SymmetryBasis, s: NCBStructure) -> list[list[Fraction]]:
    """The central 2-cocycle induced on a full-symmetry basis: c_ij is the
    constant parameter output of the bracket of (X_i, 0) and (X_j, 0).
    Every element is checked first, through its parameter solve."""
    _operands("gal_extension_cocycle", (basis, SymmetryBasis), (s, NCBStructure))
    found = [_parameter(x, s, "galilei") for x in basis.fields]
    return _algebra(s, basis, "galilei", found).cocycle


# ----------------------------------------------------------------------
# the extended algebra of a basis

@dataclass(frozen=True)
class Extension:
    """The extended algebra of a solved basis: per field its boost 1-form
    (coriolis) or f_X (None: it does not extend), the bracket of (X_i, 0) and
    (X_j, 0) for each pair i < j, the milne witness or the galilei cocycle
    and its triviality verdict."""

    basis: SymmetryBasis
    parameters: tuple[TensorField | Poly | None, ...]
    brackets: dict[tuple[int, int], ExtendedElement]
    witness: tuple[int, Poly] | None = None
    cocycle: list[list[Fraction]] | None = None
    triviality: TrivialityResult | None = None


def extend(s: NCBStructure, flavor: str, degree: int) -> Extension:
    """Solve the flavor's basis of s up to the degree bound and extend it.
    The solve proved every field a member, so none is checked again."""
    _operands("extend", (s, NCBStructure))
    basis = solve_symmetries(s.induced_nc(), flavor, degree)
    fl = basis.flavor
    if fl == "coriolis":
        zero = Poly.zero(s.base.dimension)
        boosts = tuple(_boost(x, s) for x in basis.fields)
        found = [(zero, gradient(zero))] * basis.dimension
        return replace(_algebra(s, basis, fl, found), parameters=boosts)
    ext = _algebra(s, basis, fl, [_integrate(x, s, fl) for x in basis.fields])
    if fl == "milne":
        return ext
    return replace(ext, triviality=cocycle_triviality(basis, ext.cocycle))


def _algebra(
    s: NCBStructure, basis: SymmetryBasis, flavor: str, found: Sequence[_Found]
) -> Extension:
    """The extension of a basis whose fields have the full parameters and
    gradients found (zero for the metric-pair stabilizer; None: the field
    does not extend).  Brackets contract the gradients given, so no
    parameter is differentiated again."""
    fields = basis.fields
    k = len(fields)
    grads = [None if p is None else p[1] for p in found]
    brackets = {
        (i, j): _bracket(fields[i], grads[i], fields[j], grads[j], s, flavor)
        for i, j in combinations(range(k), 2)
    }
    dim = s.base.dimension
    witness = cocycle = None
    if flavor == "milne":
        zero_x = TensorField.zero(dim, 1, 0)
        t = Poly.variable(dim, 0)
        # (X_i, f_X) against (0, t^p): the zero field's own f is zero
        outputs = (
            (i, _bracket(x, grads[i], zero_x, dxi, s, flavor).f)
            for dxi in (gradient(t**p) for p in range(1, max(basis.degree, 1) + 1))
            for i, x in enumerate(fields)
        )
        witness = next(((i, f) for i, f in outputs if not f.is_zero), None)
    elif flavor == "galilei":
        origin = (0,) * dim
        cocycle = [[0] * k for _ in range(k)]
        for (i, j), out in brackets.items():
            cocycle[i][j] = out.f.coefficient(origin)
            cocycle[j][i] = -cocycle[i][j]
    params = tuple(None if p is None else p[0] for p in found)
    return Extension(basis, params, brackets, witness, cocycle)


# ----------------------------------------------------------------------
# cocycle analysis

@dataclass(frozen=True)
class TrivialityResult:
    trivial: bool
    witness: tuple[Fraction, ...] | None  # linear functional on the basis
    certificate: tuple[Fraction, ...] | None  # inconsistent row combination
    pairs: tuple[tuple[int, int], ...]


class CocycleError(ValueError):
    pass


def cocycle_triviality(
    basis: SymmetryBasis, cocycle: Sequence[Sequence[object]]
) -> TrivialityResult:
    """Decide whether an antisymmetric 2-cocycle on the solved basis is a
    coboundary: c(X_i, X_j) = lambda([X_i, X_j]) for some linear functional.

    Checks antisymmetry and the cocycle identity first (raises
    CocycleError); returns either the coboundary witness lambda or an exact
    inconsistency certificate over the listed index pairs."""
    _operands("cocycle_triviality", (basis, SymmetryBasis))
    k = len(basis.fields)
    c = _exact_array("cocycle_triviality", cocycle, k, k)
    for i in range(k):
        for j in range(k):
            if c[i][j] != -c[j][i]:
                raise CocycleError("cocycle is not antisymmetric")
    constants, closed = structure_constants(basis)
    if not closed:
        raise CocycleError("basis does not close; cocycle identity undefined")
    # the cocycle identity sum_m C_ij^m c_ml + C_jl^m c_mi + C_li^m c_mj = 0
    # is the cyclic sum of s_ijl = sum_m C_ij^m c_ml, built from the nonzero
    # constants only; a triple with no entry in sums sums to zero
    sums: dict[tuple[int, int, int], Fraction] = {}
    for i, j, m in product(range(k), repeat=3):
        if constants[i][j][m]:
            for l in range(k):
                if c[m][l]:
                    sums[i, j, l] = sums.get((i, j, l), 0) + constants[i][j][m] * c[m][l]
    for i, j, l in sums:
        if sums[i, j, l] + sums.get((j, l, i), 0) + sums.get((l, i, j), 0):
            raise CocycleError("cocycle identity violated")

    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    matrix = RationalMatrix.from_rows(
        [[constants[i][j][m] for m in range(k)] for (i, j) in pairs]
        or [[0] * k]
    )
    rhs = [c[i][j] for (i, j) in pairs] or [0]
    solution = solve_inhomogeneous(matrix, rhs)
    if solution is not None:
        return TrivialityResult(True, solution[0], None, tuple(pairs))
    certificate = inconsistency_certificate(matrix, rhs)
    return TrivialityResult(False, None, certificate, tuple(pairs))


# ----------------------------------------------------------------------
# parameter presentations
#
# Two presentations of the template tau d_t + (omega^A_B x^B + rho^A) d_A
# with constant omega: BargmannElement (rho = beta t + sigma, constant
# parameter) and MilneStandardElement (rho and the parameter functions of
# time).  Each builds its field through _template_field and is refit from a
# field through solver._time_terms, the one reading of the template.

def _rotation_block(operation: str, omega: Sequence[Sequence[Fraction]], n: int) -> tuple:
    """omega read as an n x n block of canonical entries; a block that is
    not antisymmetric is refused."""
    omega = _exact_array(operation, omega, n, n)
    if any(omega[a][b] != -omega[b][a] for a in range(n) for b in range(n)):
        raise ValueError("rotation block must be antisymmetric")
    return omega


def _rotation_rows(n: int, entries: dict[tuple[int, int], Fraction]) -> tuple:
    """The n x n block holding entries[a, b] at (a, b) and its negative at
    (b, a), 1-based, zero elsewhere; an entry is refused unless it is an
    int or a Fraction, before it is negated."""
    rows = [[0] * n for _ in range(n)]
    for (a, b), v in entries.items():
        rows[a - 1][b - 1] = v = _exact(v)
        rows[b - 1][a - 1] = -v
    return tuple(map(tuple, rows))


def _template_field(
    omega: Sequence[Sequence[Fraction]], rho: Sequence[Poly], tau: Fraction
) -> TensorField:
    """tau d_t + (omega^A_B x^B + rho^A) d_A for a constant rotation block
    and time-only rho, built from the block's rows: the field that
    solver._time_terms reads back."""
    dim = len(rho) + 1
    units = [tuple(int(i == b) for i in range(dim)) for b in range(1, dim)]
    comps = [Poly.const(dim, tau)]
    for row, r in zip(omega, rho):
        # omega x is linear in space and rho constant in it: no term is shared
        comps.append(Poly._raw(dim, r.terms | {u: w for u, w in zip(units, row) if w}))
    return vector(dim, comps)


def _constant_rotation(e: ExtendedElement) -> tuple[tuple, list[dict], Fraction]:
    """The reading of e's field by solver._time_terms with a constant
    rotation part: the n x n rotation rows, rho^1 .. rho^n each as
    {t-exponent: coefficient}, and tau; ExtensionError off that shape."""
    read = _time_terms(e.x)
    if read is None:
        raise ExtensionError("field does not match the standard-case template")
    tau, omega, rho = read
    if any(w.keys() != {0} for w in omega.values()):
        raise ExtensionError("rotation part is not constant")
    n = e.x.dimension - 1
    # the reading holds both omega^A_B and omega^B_A = -omega^A_B
    rows = _rotation_rows(n, {(a, b): w[0] for (a, b), w in omega.items() if a < b})
    return rows, [rho.get(a, {}) for a in range(1, n + 1)], tau


@dataclass(frozen=True)
class BargmannElement:
    """Flat-structure full-stabilizer element by parameters: rotation block,
    boost and translation vectors, time translation, central charge.  Every
    entry is taken only as an int or a Fraction and kept canonical.  The
    inverse of to_field is bargmann_from_field."""

    omega: tuple[tuple[Fraction, ...], ...]
    beta: tuple[Fraction, ...]
    sigma: tuple[Fraction, ...]
    tau: Fraction
    xi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "beta", _exact_array("BargmannElement", self.beta, None))
        object.__setattr__(self, "sigma", _exact_array("BargmannElement", self.sigma, self.n))
        object.__setattr__(self, "omega", _rotation_block("BargmannElement", self.omega, self.n))
        object.__setattr__(self, "tau", _exact(self.tau))
        object.__setattr__(self, "xi", _exact(self.xi))

    @property
    def n(self) -> int:
        return len(self.beta)

    @property
    def dimension(self) -> int:
        return self.n + 1

    @classmethod
    def make(cls, n, omega=None, beta=None, sigma=None, tau=0, xi=0) -> "BargmannElement":
        """An element from 1-based parameter entries, zero elsewhere; an n
        that is not a non-negative int, parameters that are not mappings, an
        omega key that is not a pair, or an index that is not an int in
        range(1, n + 1), are refused."""
        _check_size("n", n, 0)
        omega, beta, sigma = omega or {}, beta or {}, sigma or {}
        _operands("BargmannElement.make", (omega, Mapping), (beta, Mapping), (sigma, Mapping))

        def checked(name, key, *indices):
            for a in indices:
                _check_size(f"{name} index", a, 1, n + 1)
            return key

        for key in omega:
            if type(key) is not tuple or len(key) != 2:
                _exact_array("BargmannElement.make", key, 2)  # refused here
        rotation = {checked("omega", key, *key): v for key, v in omega.items()}
        vectors = []
        for name, given in (("beta", beta), ("sigma", sigma)):
            vec = [0] * n
            for key, v in given.items():
                vec[checked(name, key, key) - 1] = v
            vectors.append(tuple(vec))
        return cls(_rotation_rows(n, rotation), *vectors, tau, xi)

    def to_field(self) -> TensorField:
        t = Poly.variable(self.n + 1, 0)
        rho = [b * t + s for b, s in zip(self.beta, self.sigma)]
        return _template_field(self.omega, rho, self.tau)


def bargmann_bracket(b1: BargmannElement, b2: BargmannElement) -> BargmannElement:
    """Centrally extended bracket on flat-structure parameters:

        omega'' = omega' omega - omega omega'
        beta''  = omega' beta - omega beta'
        sigma'' = omega' sigma - omega sigma' + beta' tau - beta tau'
        tau''   = 0
        xi''    = sigma . beta' - sigma' . beta
    """
    _operands("bargmann_bracket", (b1, BargmannElement, "any"), (b2, BargmannElement, "any"))
    n = b1.n

    def matmul(m1, m2):
        return [[sum(m1[a][k] * m2[k][b] for k in range(n)) for b in range(n)] for a in range(n)]

    def matvec(m, v):
        return [sum(m[a][k] * v[k] for k in range(n)) for a in range(n)]

    m1, m2 = b1.omega, b2.omega
    p21, p12 = matmul(m2, m1), matmul(m1, m2)
    omega = tuple(tuple(p21[a][b] - p12[a][b] for b in range(n)) for a in range(n))
    beta2, beta1 = matvec(m2, b1.beta), matvec(m1, b2.beta)
    sigma2, sigma1 = matvec(m2, b1.sigma), matvec(m1, b2.sigma)
    beta = tuple(beta2[a] - beta1[a] for a in range(n))
    sigma = tuple(
        sigma2[a] - sigma1[a] + b2.beta[a] * b1.tau - b1.beta[a] * b2.tau for a in range(n)
    )
    xi = sum(b1.sigma[a] * b2.beta[a] - b2.sigma[a] * b1.beta[a] for a in range(n))
    return BargmannElement(omega, beta, sigma, 0, xi)


@dataclass(frozen=True)
class MilneStandardElement:
    """Standard-case observer-stabilizer element: constant rotation block,
    time-dependent translation, time translation, time-function parameter.
    omega and tau are taken only as ints and Fractions and kept canonical;
    rho and xi only as Polys of dimension n + 1.  The inverse of
    to_extended is milne_standard_from_field."""

    omega: tuple[tuple[Fraction, ...], ...]
    rho: tuple[Poly, ...]  # functions of time only
    tau: Fraction
    xi: Poly  # function of time only

    def __post_init__(self):
        _operands("MilneStandardElement", *((p, Poly) for p in (*self.rho, self.xi)))
        if any(p.dimension != self.n + 1 for p in (*self.rho, self.xi)):
            raise ValueError(f"translation and parameter must have dimension {self.n + 1}")
        object.__setattr__(self, "omega", _rotation_block("MilneStandardElement", self.omega, self.n))
        object.__setattr__(self, "tau", _exact(self.tau))
        for r in self.rho:
            if not r.depends_only_on([0]):
                raise ValueError("translation part must depend on time only")
        if not self.xi.depends_only_on([0]):
            raise ValueError("parameter must depend on time only")

    @property
    def n(self) -> int:
        return len(self.rho)

    def to_field(self) -> TensorField:
        return _template_field(self.omega, self.rho, self.tau)

    def to_extended(self) -> ExtendedElement:
        return ExtendedElement(self.to_field(), self.xi)


def milne_standard_from_field(e: ExtendedElement) -> MilneStandardElement:
    """Exact refit of an extended element to the standard-case template."""
    _operands("milne_standard_from_field", (e, ExtendedElement))
    omega, rho, tau = _constant_rotation(e)
    if not e.f.depends_only_on([0]):
        raise ExtensionError("parameter must depend on time only")
    dim = e.x.dimension
    return MilneStandardElement(omega, tuple(_time_poly(dim, r) for r in rho), tau, e.f)


def bargmann_from_field(e: ExtendedElement) -> BargmannElement:
    """Exact refit of an extended element of the flat structure to its
    Bargmann parameters: rho = beta t + sigma and a constant parameter."""
    _operands("bargmann_from_field", (e, ExtendedElement))
    omega, rho, tau = _constant_rotation(e)
    if any(r.keys() - {0, 1} for r in rho):
        raise ExtensionError("translation part is not affine in time")
    origin = (0,) * e.x.dimension
    if e.f.terms.keys() - {origin}:
        raise ExtensionError("parameter is not constant")
    beta = tuple(r.get(1, 0) for r in rho)
    sigma = tuple(r.get(0, 0) for r in rho)
    return BargmannElement(omega, beta, sigma, tau, e.f.terms.get(origin, 0))

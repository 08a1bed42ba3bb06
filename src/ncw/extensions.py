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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, NamedTuple, Sequence

from .linalg import RationalMatrix, inconsistency_certificate, solve_inhomogeneous
from .poly import Poly, time_part
from .solver import (
    NotInFlavorError,
    SymmetryBasis,
    classify,
    solve_symmetries,
    structure_constants,
)
from .structures import NCBStructure, metric_gradient
from .tensors import (
    TensorField,
    apply_metric,
    directional,
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
        if (self.x.p, self.x.q) != (1, 0):
            raise ValueError("extended element needs a vector field")
        if self.x.dimension != self.f.dimension:
            raise ValueError("field and parameter dimensions disagree")


def boost_for_coriolis(x: TensorField, s: NCBStructure) -> TensorField:
    """The unique boost 1-form (modulo theta) fixing U: psi = h([U, X])."""
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
    _require(e1.x, s, "coriolis")
    _require(e2.x, s, "coriolis")
    return _bracket(e1.x, e1.f, e2.x, e2.f, s, "coriolis")


def _full_rhs(x: TensorField, s: NCBStructure) -> TensorField:
    """alpha_X = (-X(phi) + h(L_X V, V)) theta - h(L_X V)."""
    lowered = apply_metric(s.transverse, vector_bracket(x, s.v))
    scalar = pairing(lowered, s.v) - directional(x, s.phi)
    return s.base.theta.scale(scalar) - lowered


class _Stabilizer(NamedTuple):
    name: str
    dependence: list[int]  # the variables xi may depend on
    misplaced: str  # message for a xi outside them
    operator: Callable[[Poly, NCBStructure], TensorField]  # D in D(f) = R(X)
    rhs: Callable[[TensorField, NCBStructure], TensorField]  # R
    xi_part: Callable[[Poly], Poly]  # g where the variables xi lacks vanish


# each stabilizer's equation D(f) = R(X) for the full parameter f = xi + f_X;
# D kills xi, so the solve's post-check and the bracket check share it
_STABILIZERS = {
    "milne": _Stabilizer(
        "the observer stabilizer", [0],
        "observer-stabilizer parameter must depend on time only",
        lambda f, s: metric_gradient(s.base, f),
        lambda x, s: vector_bracket(s.v, x),
        time_part,
    ),
    "galilei": _Stabilizer(
        "the full stabilizer", [],
        "full-stabilizer parameter must be constant",
        lambda f, s: gradient(f),
        _full_rhs,
        lambda f: Poly.const(f.dimension, f.coefficient((0,) * f.dimension)),
    ),
}


def _parameter(x: TensorField, s: NCBStructure, flavor: str) -> Poly | None:
    """f_X of a field, membership checked by the solve; None when X does not
    extend to the flavor's stabilizer."""
    f, ok = milne_f_split(x, s) if flavor == "milne" else galilei_f_solve(x, s)
    return f if ok else None


def _integrate(x: TensorField, s: NCBStructure, flavor: str) -> tuple[Poly, bool]:
    """f_X of a member: the primitive of df over the variables xi does not
    depend on, zero where they vanish, checked exactly against D(f) = R(X);
    (0, False) when that part of df is not closed (X does not extend)."""
    if flavor == "milne" and any(not c.is_zero for c in s.base.theta.components[1:]):
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
        return Poly.zero(dim), False
    if not (st.operator(f, s) - rhs).is_zero:
        raise ExtensionError(f"{st.name} parameter failed verification")
    return f, True


def _radial_primitive(form: TensorField, axes: Sequence[int]) -> Poly | None:
    """The polynomial f with d_a f = form_a along the given axes, zero where
    their coordinates vanish; the other coordinates ride along as
    parameters.  None when the form is not closed along the axes."""
    comps = form.components
    if any(comps[a].partial(b) != comps[b].partial(a) for a, b in combinations(axes, 2)):
        return None
    terms: dict[tuple[int, ...], Fraction] = {}
    for a in axes:
        for exps, coeff in comps[a].terms.items():
            key = exps[:a] + (exps[a] + 1,) + exps[a + 1:]
            terms[key] = terms.get(key, 0) + coeff / (sum(exps[b] for b in axes) + 1)
    return Poly(form.dimension, terms)


def _bracket(
    x1: TensorField, f1: Poly | None, x2: TensorField, f2: Poly | None,
    s: NCBStructure, flavor: str,
) -> ExtendedElement:
    """([X, X'], X(f') - X'(f) - f_[X,X']) for checked operands with full
    parameters f = xi + f_X (None: the operand does not extend).

    The gauge bracket is a homomorphism and each stabilizer a subalgebra, so
    g = X(f') - X'(f) is a full parameter of [X, X']: f_[X,X'] is g less its
    xi part, which is the output.  No solve; f_[X,X'] is checked exactly
    against the stabilizer equation.  The metric-pair stabilizer has no
    f_[X,X']."""
    xb = vector_bracket(x1, x2)
    if flavor == "coriolis":
        return ExtendedElement(xb, directional(x1, f2) - directional(x2, f1))
    st = _STABILIZERS[flavor]
    if f1 is None or f2 is None:
        raise ExtensionError(f"element does not lie in {st.name}")
    g = directional(x1, f2) - directional(x2, f1)
    out = st.xi_part(g)
    if not (st.operator(g - out, s) - st.rhs(xb, s)).is_zero:
        raise ExtensionError(f"bracket left {st.name}")
    return ExtendedElement(xb, out)


def _checked_bracket(
    e1: ExtendedElement, e2: ExtendedElement, s: NCBStructure, flavor: str
) -> ExtendedElement:
    """The stabilizer bracket with each operand checked in turn: membership
    (by its parameter solve), then the form of its xi."""
    st = _STABILIZERS[flavor]
    full = []
    for e in (e1, e2):
        f = _parameter(e.x, s, flavor)
        if not e.f.depends_only_on(st.dependence):
            raise ExtensionError(st.misplaced)
        full.append(None if f is None else e.f + f)
    return _bracket(e1.x, full[0], e2.x, full[1], s, flavor)


# ----------------------------------------------------------------------
# observer stabilizer

def milne_f_split(x: TensorField, s: NCBStructure) -> tuple[Poly, bool]:
    """Solve gamma(df) = [V, X] for polynomial f with f_X(t, 0) = 0.

    For theta without spatial components (ExtensionError otherwise), h turns
    this into d_A f = h([V, X])_A, so f_X is the radial primitive of that
    form over the spatial axes.  Returns (f_X, True), or (0, False) when the
    form is not closed: X does not extend to the observer stabilizer."""
    _require(x, s, "milne")
    return _integrate(x, s, "milne")


def extended_mil_bracket(
    e1: ExtendedElement, e2: ExtendedElement, s: NCBStructure
) -> ExtendedElement:
    """Bracket on observer-stabilizer pairs (X, xi), xi a function of time.

    The parameter part X(xi' + f_X') - X'(xi + f_X) - f_[X,X'] is the time
    part of X(xi' + f_X') - X'(xi + f_X)."""
    return _checked_bracket(e1, e2, s, "milne")


def noncentrality_check(
    s: NCBStructure, basis: SymmetryBasis
) -> tuple[bool, tuple[int, Poly] | None]:
    """Whether the observer-stabilizer extension acts nontrivially on its
    time-function ideal.

    Checks every element first, through its parameter solve, then scans
    brackets against pure parameters t^k, k up to the basis degree, for the
    first witness (basis index, parameter output)."""
    if basis.flavor != "milne":
        raise ValueError(f"noncentrality needs a milne basis, got {basis.flavor}")
    params = [_parameter(x, s, "milne") for x in basis.fields]
    witness = _algebra(s, basis, "milne", params).witness
    return witness is not None, witness


# ----------------------------------------------------------------------
# full stabilizer

def galilei_f_solve(x: TensorField, s: NCBStructure) -> tuple[Poly, bool]:
    """Integrate  df = (-X(phi) + h(L_X V, V)) theta - h(L_X V)  exactly.

    Returns (f, True) with the primitive vanishing at the origin, or
    (0, False) when the right side is not closed (X does not extend)."""
    _require(x, s, "galilei")
    return _integrate(x, s, "galilei")


def extended_gal_bracket(
    e1: ExtendedElement, e2: ExtendedElement, s: NCBStructure
) -> ExtendedElement:
    """Bracket on full-stabilizer pairs (X, xi) with constant xi; the
    parameter output is the value of X(xi' + f_X') - X'(xi + f_X) at the
    origin, again constant (central extension)."""
    return _checked_bracket(e1, e2, s, "galilei")


def gal_extension_cocycle(basis: SymmetryBasis, s: NCBStructure) -> list[list[Fraction]]:
    """The central 2-cocycle induced on a full-symmetry basis: c_ij is the
    constant parameter output of the bracket of (X_i, 0) and (X_j, 0).
    Every element is checked first, through its parameter solve."""
    params = [_parameter(x, s, "galilei") for x in basis.fields]
    return _algebra(s, basis, "galilei", params).cocycle


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
    basis = solve_symmetries(s.induced_nc(), flavor, degree)
    fl = basis.flavor
    if fl == "coriolis":
        zeros = [Poly.zero(s.base.dimension)] * basis.dimension
        boosts = tuple(_boost(x, s) for x in basis.fields)
        return replace(_algebra(s, basis, fl, zeros), parameters=boosts)
    params = [f if ok else None for f, ok in (_integrate(x, s, fl) for x in basis.fields)]
    ext = _algebra(s, basis, fl, params)
    if fl == "milne":
        return ext
    return replace(ext, triviality=cocycle_triviality(basis, ext.cocycle))


def _algebra(
    s: NCBStructure, basis: SymmetryBasis, flavor: str, params: Sequence[Poly | None]
) -> Extension:
    """The extension of a basis whose fields have the full parameters params
    (zero for the metric-pair stabilizer; None: the field does not extend)."""
    fields = basis.fields
    k = len(fields)
    brackets = {
        (i, j): _bracket(fields[i], params[i], fields[j], params[j], s, flavor)
        for i, j in combinations(range(k), 2)
    }
    dim = s.base.dimension
    witness = cocycle = None
    if flavor == "milne":
        zero_x = TensorField.zero(dim, 1, 0)
        # (X_i, f_X) against (0, t^p): the zero field's own f is zero
        outputs = (
            (i, _bracket(x, params[i], zero_x, xi, s, flavor).f)
            for xi in (Poly.variable(dim, 0) ** p for p in range(1, max(basis.degree, 1) + 1))
            for i, x in enumerate(fields)
        )
        witness = next(((i, f) for i, f in outputs if not f.is_zero), None)
    elif flavor == "galilei":
        origin = (0,) * dim
        cocycle = [[Fraction(0)] * k for _ in range(k)]
        for (i, j), out in brackets.items():
            cocycle[i][j] = out.f.coefficient(origin)
            cocycle[j][i] = -cocycle[i][j]
    return Extension(basis, tuple(params), brackets, witness, cocycle)


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
    k = len(basis.fields)
    c = [[Fraction(v) for v in row] for row in cocycle]
    if len(c) != k or any(len(row) != k for row in c):
        raise CocycleError("cocycle matrix size does not match the basis")
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
        or [[Fraction(0)] * k]
    )
    rhs = [c[i][j] for (i, j) in pairs] or [Fraction(0)]
    solution = solve_inhomogeneous(matrix, rhs)
    if solution is not None:
        return TrivialityResult(True, solution[0], None, tuple(pairs))
    certificate = inconsistency_certificate(matrix, rhs)
    return TrivialityResult(False, None, certificate, tuple(pairs))


def coboundary_from_functional(
    basis: SymmetryBasis, functional: Sequence[object]
) -> list[list[Fraction]]:
    """The coboundary (d lambda)(X_i, X_j) = lambda([X_i, X_j]); handy for
    building known-trivial cocycles."""
    constants, closed = structure_constants(basis)
    if not closed:
        raise CocycleError("basis does not close")
    lam = [Fraction(v) for v in functional]
    k = len(basis.fields)
    return [
        [
            sum((constants[i][j][m] * lam[m] for m in range(k)), Fraction(0))
            for j in range(k)
        ]
        for i in range(k)
    ]


# ----------------------------------------------------------------------
# parameter presentations

@dataclass(frozen=True)
class BargmannElement:
    """Flat-structure full-stabilizer element by parameters: rotation block,
    boost and translation vectors, time translation, central charge."""

    omega: tuple[tuple[Fraction, ...], ...]
    beta: tuple[Fraction, ...]
    sigma: tuple[Fraction, ...]
    tau: Fraction
    xi: Fraction

    def __post_init__(self):
        n = len(self.beta)
        if len(self.omega) != n or any(len(r) != n for r in self.omega):
            raise ValueError("rotation block size mismatch")
        if len(self.sigma) != n:
            raise ValueError("translation vector size mismatch")
        for a in range(n):
            for b in range(n):
                if self.omega[a][b] != -self.omega[b][a]:
                    raise ValueError("rotation block must be antisymmetric")

    @property
    def n(self) -> int:
        return len(self.beta)

    @classmethod
    def make(cls, n, omega=None, beta=None, sigma=None, tau=0, xi=0) -> "BargmannElement":
        om = [[Fraction(0)] * n for _ in range(n)]
        if omega:
            for (a, b), v in omega.items():
                om[a - 1][b - 1] = Fraction(v)
                om[b - 1][a - 1] = -Fraction(v)
        be = [Fraction(0)] * n
        if beta:
            for a, v in beta.items():
                be[a - 1] = Fraction(v)
        si = [Fraction(0)] * n
        if sigma:
            for a, v in sigma.items():
                si[a - 1] = Fraction(v)
        return cls(
            tuple(tuple(r) for r in om),
            tuple(be),
            tuple(si),
            Fraction(tau),
            Fraction(xi),
        )

    def to_field(self) -> TensorField:
        dim = self.n + 1
        t = Poly.variable(dim, 0)
        comps = [Poly.const(dim, self.tau)]
        for a in range(1, dim):
            acc = Poly.const(dim, self.sigma[a - 1]) + self.beta[a - 1] * t
            for b in range(1, dim):
                acc = acc + self.omega[a - 1][b - 1] * Poly.variable(dim, b)
            comps.append(acc)
        return vector(dim, comps)


def bargmann_bracket(b1: BargmannElement, b2: BargmannElement) -> BargmannElement:
    """Centrally extended bracket on flat-structure parameters:

        omega'' = omega' omega - omega omega'
        beta''  = omega' beta - omega beta'
        sigma'' = omega' sigma - omega sigma' + beta' tau - beta tau'
        tau''   = 0
        xi''    = sigma . beta' - sigma' . beta
    """
    if b1.n != b2.n:
        raise ValueError("dimension mismatch")
    n = b1.n

    def matmul(m1, m2):
        return tuple(
            tuple(
                sum((m1[a][k] * m2[k][b] for k in range(n)), Fraction(0))
                for b in range(n)
            )
            for a in range(n)
        )

    def matvec(m, v):
        return tuple(
            sum((m[a][k] * v[k] for k in range(n)), Fraction(0)) for a in range(n)
        )

    m1, m2 = b1.omega, b2.omega
    p21 = matmul(m2, m1)
    p12 = matmul(m1, m2)
    omega = tuple(
        tuple(p21[a][b] - p12[a][b] for b in range(n)) for a in range(n)
    )
    beta = tuple(
        matvec(m2, b1.beta)[a] - matvec(m1, b2.beta)[a] for a in range(n)
    )
    sigma = tuple(
        matvec(m2, b1.sigma)[a]
        - matvec(m1, b2.sigma)[a]
        + b2.beta[a] * b1.tau
        - b1.beta[a] * b2.tau
        for a in range(n)
    )
    xi = sum(
        (b1.sigma[a] * b2.beta[a] - b2.sigma[a] * b1.beta[a] for a in range(n)),
        Fraction(0),
    )
    return BargmannElement(omega, beta, sigma, Fraction(0), xi)


@dataclass(frozen=True)
class MilneStandardElement:
    """Standard-case observer-stabilizer element: constant rotation block,
    time-dependent translation, time translation, time-function parameter."""

    omega: tuple[tuple[Fraction, ...], ...]
    rho: tuple[Poly, ...]  # functions of time only
    tau: Fraction
    xi: Poly  # function of time only

    def __post_init__(self):
        n = len(self.rho)
        if len(self.omega) != n or any(len(r) != n for r in self.omega):
            raise ValueError("rotation block size mismatch")
        for a in range(n):
            for b in range(n):
                if self.omega[a][b] != -self.omega[b][a]:
                    raise ValueError("rotation block must be antisymmetric")
        for r in self.rho:
            if not r.depends_only_on([0]):
                raise ValueError("translation part must depend on time only")
        if not self.xi.depends_only_on([0]):
            raise ValueError("parameter must depend on time only")

    @property
    def n(self) -> int:
        return len(self.rho)

    def to_field(self) -> TensorField:
        dim = self.n + 1
        comps = [Poly.const(dim, self.tau)]
        for a in range(1, dim):
            acc = self.rho[a - 1]
            for b in range(1, dim):
                acc = acc + self.omega[a - 1][b - 1] * Poly.variable(dim, b)
            comps.append(acc)
        return vector(dim, comps)

    def to_extended(self) -> ExtendedElement:
        return ExtendedElement(self.to_field(), self.xi)


def milne_standard_from_field(e: ExtendedElement) -> MilneStandardElement:
    """Exact refit of an extended element to the standard-case template."""
    from .solver import fit_time_template

    fit = fit_time_template(e.x)
    if fit is None:
        raise ExtensionError("field does not match the standard-case template")
    n = fit.n
    omega = [[Fraction(0)] * n for _ in range(n)]
    dim = n + 1
    zero = (0,) * dim
    for (a, b), w in fit.omega.items():
        if not w.depends_only_on([]):
            raise ExtensionError("rotation part is not constant")
        omega[a - 1][b - 1] = w.coefficient(zero)
        omega[b - 1][a - 1] = -w.coefficient(zero)
    return MilneStandardElement(
        tuple(tuple(r) for r in omega), fit.rho, fit.tau, e.f
    )

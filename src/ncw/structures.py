"""Galilei, Newton-Cartan, and Newton-Cartan-Bargmann structures.

A Galilei structure is a degenerate "metric" pair: a symmetric contravariant
tensor gamma of spatial rank n whose kernel is spanned by the closed clock
1-form theta.  A Newton-Cartan structure adds a torsion-free connection that
parallelizes both and whose curvature satisfies the Newtonian symmetry.  An
NCB structure presents the same data through a unit field U and a gauge
1-form A, equivalently through an observer V and a scalar potential.

Sign conventions resolved here once and used consistently everywhere:

* the force 2-form is F_ab = d_a A_b - d_b A_a (the exterior derivative of
  A with the 1/2-weighted antisymmetrization convention);
* the standard presets use the gauge pair U = d/dt, A = -phi.theta, which
  reproduces G_00^A = d_A phi through the geodesic-plus-force assembly;
* the observer dictionary is V = U - gamma(A), phi = gamma(A,A)/2 - A(U),
  and its inverse is A = -Ugamma(V) + (Ugamma(V,V)/2 - phi).theta.  The
  theta-coefficient sign in the inverse is forced by round-tripping with
  the forward dictionary; see the round-trip tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .linalg import SparseEliminator, adjugate, sparse_kernel
from .poly import Poly, Scalar, _exact
from .tensors import (
    Connection,
    TensorField,
    _add,
    _einsum,
    _neg,
    apply_metric,
    check_newtonian,
    covariant_derivative,
    curvature,
    gradient,
    one_form,
    pairing,
    vector,
)


class StructureError(ValueError):
    """A structure invariant failed; the message names the condition."""


# ----------------------------------------------------------------------
# Galilei structures

@dataclass(frozen=True)
class GalileiStructure:
    """Spacetime dimension n+1 with degenerate metric pair (gamma, theta)."""

    n: int
    gamma: TensorField  # (2,0)
    theta: TensorField  # (0,1)

    @property
    def dimension(self) -> int:
        return self.n + 1

    def validate(self, sample_points: Sequence[Sequence[object]] | None = None) -> None:
        self._valid_at_origin
        for pt in sample_points or ():
            self._check_point([_exact(v) for v in pt])

    @cached_property
    def _valid_at_origin(self) -> bool:
        """The global conditions and the origin, checked once per structure
        (a failure is not cached and raises again on the next call)."""
        self._valid_pair
        if not field_strength(self.theta).is_zero:
            raise StructureError("theta must be closed")
        self._check_point([0] * self.dimension)
        return True

    @cached_property
    def _valid_pair(self) -> bool:
        """Shapes, the symmetry of gamma and gamma(theta) = 0, checked once."""
        dim = self.dimension
        if (self.gamma.p, self.gamma.q) != (2, 0) or self.gamma.dimension != dim:
            raise StructureError("gamma must be a (2,0) tensor of matching dimension")
        if (self.theta.p, self.theta.q) != (0, 1) or self.theta.dimension != dim:
            raise StructureError("theta must be a 1-form of matching dimension")
        asymmetry = _add(self.gamma.nonzero, _neg(_einsum("ba->ab", self.gamma)))
        if asymmetry:
            raise StructureError("gamma not symmetric at ({},{})".format(*min(asymmetry)))
        kernel = _einsum("ak,k->a", self.gamma, self.theta)
        if kernel:
            (a,) = min(kernel)
            raise StructureError(f"theta is not in the kernel of gamma (component {a})")
        return True

    def _check_point(self, point: Sequence[Scalar]) -> None:
        where = f"({', '.join(map(str, point))})"
        on_theta = [a for (a,), c in self.theta.nonzero.items() if c.evaluate(point)]
        if not on_theta:
            raise StructureError(f"theta vanishes at sample point {where}")
        rows: list[dict[int, Scalar]] = [{} for _ in range(self.dimension)]
        for (a, b), c in self.gamma.nonzero.items():
            if v := c.evaluate(point):
                rows[a][b] = v
        # restrict to a coordinate complement of theta (every axis but the
        # last one theta has a component on) and check positive
        # definiteness by Sylvester's criterion; theta != 0 spans gamma's
        # kernel (_valid_pair), so passing it means rank n.  Without row
        # exchanges the k-th restricted row, reduced by the rows before it,
        # leads at column k with the k-th leading minor over the one before
        last = max(on_theta)
        column = {a: k for k, a in enumerate(a for a in range(self.dimension) if a != last)}
        elim = SparseEliminator(self.n)
        for a, k in column.items():
            reduced = elim.reduce({column[b]: v for b, v in rows[a].items() if b != last})
            if reduced.get(k, 0) <= 0:
                rank = self.dimension - len(sparse_kernel(rows, self.dimension))
                if rank != self.n:
                    raise StructureError(
                        f"gamma has rank {rank} (expected {self.n}) at {where}"
                    )
                raise StructureError(
                    f"gamma restricted transverse to theta is not positive "
                    f"definite at {where} (leading minor {k + 1})"
                )
            elim.add_row(reduced)


def flat_galilei(n: int) -> GalileiStructure:
    dim = n + 1

    def entry(idx):
        a, b = idx
        if a == b and a >= 1:
            return Poly.const(dim, 1)
        return Poly.zero(dim)

    gamma = TensorField.build(dim, 2, 0, entry)
    theta = one_form(dim, [Poly.const(dim, 1)] + [Poly.zero(dim)] * n)
    return GalileiStructure(n, gamma, theta)


# ----------------------------------------------------------------------
# transverse metric

def transverse_metric(g: GalileiStructure, u: TensorField) -> TensorField:
    """The symmetric (0,2) tensor determined by the two contractions
    h_ak gamma^{kb} = delta_a^b - U^b theta_a  and  h_ak U^k = 0.

    Closed form: for a unit field W (theta(W) = 1) and N = gamma + W(x)W,

      h(X, Y) = N^{-1}(X - theta(X) U, Y - theta(Y) U).

    N theta = W gives N^{-1} W = theta, and with it both contractions
    follow from N^{-1} N = 1 once gamma is symmetric with theta in its
    kernel, so those preconditions are all that is checked.  N^{-1} is
    adj(N)/det(N); h is polynomial exactly when det(N) is a nonzero
    constant, and StructureError names the determinant otherwise.  W is
    e_j / theta_j for the first constant nonzero theta_j (U when there is
    none), so that N does not depend on U.  When every entry of N is
    constant, the adjugate runs on the coefficients and is lifted to
    constant Polys; it is the same matrix, without Poly arithmetic.
    """
    g._valid_pair
    dim = g.dimension
    if pairing(g.theta, u) != Poly.const(dim, 1):
        raise StructureError("U must satisfy theta(U) = 1")
    j = min((j for (j,), c in g.theta.nonzero.items() if c.total_degree() == 0), default=None)
    if j is None:
        w = u.nonzero
    else:
        w = {(j,): Poly.const(dim, Fraction(1, g.theta.comp(j).coefficient((0,) * dim)))}
    n_entries = _add(g.gamma.nonzero, _einsum("a,b->ab", w, w))
    origin = (0,) * dim
    if all(c.total_degree() == 0 for c in n_entries.values()):
        adj, det = adjugate(
            [[n_entries[a, b].coefficient(origin) if (a, b) in n_entries else 0
              for b in range(dim)] for a in range(dim)]
        )
        adj = [[Poly.const(dim, v) for v in row] for row in adj]
        det = Poly.const(dim, det)
    else:
        adj, det = adjugate(
            [[n_entries.get((a, b), Poly.zero(dim)) for b in range(dim)] for a in range(dim)]
        )
    if det.is_zero:
        raise StructureError(
            "gamma + W(x)W is singular; gamma is rank deficient beyond the theta kernel"
        )
    if det.total_degree() > 0:
        raise StructureError(
            f"det(gamma + W(x)W) = {det} is not a nonzero constant; the "
            "transverse metric of U is not polynomial"
        )
    inverse = Fraction(1, det.coefficient(origin))
    n_inv = {(a, b): v * inverse for a, row in enumerate(adj) for b, v in enumerate(row) if v}
    # expand N^{-1}(PX, PY) with P = 1 - U(x)theta; m = N^{-1}(U, .)
    m = _einsum("k,kb->b", u, n_inv)
    tm = _einsum("a,b->ab", g.theta, m)
    entries = _add(
        n_inv,
        _neg(tm),
        _neg(_einsum("ba->ab", tm)),
        _einsum("a,b,k,k->ab", g.theta, g.theta, m, u),
    )
    return TensorField._raw(dim, 0, 2, entries)


# ----------------------------------------------------------------------
# connection construction

def geodesic_connection(g: GalileiStructure, u: TensorField) -> Connection:
    """The unique compatible connection making the unit field U geodesic and
    curl-free:

      UG_ab^c = gamma^{ck}( d_(a h_b)k - d_k h_ab / 2 ) + d_(a theta_b) U^c

    with h the transverse metric of U and round-bracket symmetrization
    carrying the 1/2 weight.
    """
    return _geodesic_connection(g, u, transverse_metric(g, u))


def _geodesic_connection(
    g: GalileiStructure, u: TensorField, h: TensorField
) -> Connection:
    """geodesic_connection with the transverse metric h of U given."""
    if not field_strength(g.theta).is_zero:
        raise StructureError("geodesic connection needs theta closed")
    # UG_ab^c = (P_abc + P_bac - gamma^{ck} d_k h_ab) / 2 with
    # P_abc = gamma^{ck} d_a h_bk + d_a theta_b U^c
    dh = h.derivative
    p = _add(_einsum("abk,ck->abc", dh, g.gamma), _einsum("ab,c->abc", g.theta.derivative, u))
    ug = _add(p, _einsum("bac->abc", p), _neg(_einsum("kab,ck->abc", dh, g.gamma)))
    half = Fraction(1, 2)
    return Connection(g.dimension, {i: v * half for i, v in ug.items()})


def field_strength(a_form: TensorField) -> TensorField:
    """F_ab = d_a A_b - d_b A_a; closed by construction."""
    if (a_form.p, a_form.q) != (0, 1):
        raise ValueError("field_strength needs a 1-form")
    d = a_form.derivative
    return TensorField._raw(a_form.dimension, 0, 2, _add(d, _neg(_einsum("ba->ab", d))))


def assemble_connection(
    ug: Connection, theta: TensorField, force: TensorField, gamma: TensorField
) -> Connection:
    """G_ab^c = UG_ab^c + theta_(a F_b)k gamma^{kc} with the 1/2 weight."""
    if _add(force.nonzero, _einsum("ba->ab", force)):
        raise StructureError("force form must be antisymmetric")
    q = _einsum("a,bk,kc->abc", theta, force, gamma)
    half = Fraction(1, 2)
    mixed = {i: v * half for i, v in _add(q, _einsum("bac->abc", q)).items()}
    return Connection(ug.dimension, _add(ug.nonzero, mixed))


# ----------------------------------------------------------------------
# NC and NCB structures

@dataclass(frozen=True)
class NCStructure:
    base: GalileiStructure
    connection: Connection

    def validate(self) -> None:
        self.base.validate()
        if not covariant_derivative(self.connection, self.base.gamma).is_zero:
            raise StructureError("connection does not parallelize gamma")
        if not covariant_derivative(self.connection, self.base.theta).is_zero:
            raise StructureError("connection does not parallelize theta")
        ok, witness = check_newtonian(curvature(self.connection), self.base.gamma)
        if not ok:
            raise StructureError(
                f"curvature violates the Newtonian symmetry at indices {witness}"
            )


@dataclass(frozen=True)
class NCBStructure:
    """Gauge presentation (gamma, theta, U, A), the only fields.  The derived
    observer dictionary is cached on first use, from those fields alone: V,
    phi and its gradient, the force form F and the transverse metric h."""

    base: GalileiStructure
    u: TensorField
    a_form: TensorField

    @cached_property
    def _observer(self) -> tuple[TensorField, Poly]:
        return observer_and_potential(self.base, self.u, self.a_form)

    @property
    def v(self) -> TensorField:
        return self._observer[0]

    @property
    def phi(self) -> Poly:
        return self._observer[1]

    @cached_property
    def dphi(self) -> TensorField:
        """The gradient of phi, taken once per structure."""
        return gradient(self.phi)

    @cached_property
    def force(self) -> TensorField:
        return field_strength(self.a_form)

    @cached_property
    def transverse(self) -> TensorField:
        return transverse_metric(self.base, self.u)

    def validate(self) -> None:
        self.base.validate()
        dim = self.base.dimension
        # theta(U) = 1 is checked where the transverse metric is built
        hu = _einsum("ak,k->a", self.transverse, self.u)
        # h_ak gamma^{kb} + theta_a U^b - delta_a^b, which must vanish
        defect = _add(
            _einsum("ak,kb->ab", self.transverse, self.base.gamma),
            _einsum("a,b->ab", self.base.theta, self.u),
            {(a, a): Poly.const(dim, -1) for a in range(dim)},
        )
        for a in range(dim):
            if (a,) in hu:
                raise StructureError("transverse metric does not annihilate U")
            if any(row == a for row, _ in defect):
                raise StructureError("transverse metric contraction failed")

    @cached_property
    def geodesic_part(self) -> Connection:
        """The geodesic connection of U, on the cached transverse metric."""
        return _geodesic_connection(self.base, self.u, self.transverse)

    @cached_property
    def _induced(self) -> NCStructure:
        conn = assemble_connection(
            self.geodesic_part, self.base.theta, self.force, self.base.gamma
        )
        return NCStructure(self.base, conn)

    def induced_connection(self) -> Connection:
        return self._induced.connection

    def induced_nc(self) -> NCStructure:
        return self._induced


def observer_and_potential(
    g: GalileiStructure, u: TensorField, a_form: TensorField
) -> tuple[TensorField, Poly]:
    """V = U - gamma(A);  phi = gamma(A,A)/2 - A(U)."""
    raised = apply_metric(g.gamma, a_form)
    v = u - raised
    phi = pairing(a_form, raised) * Fraction(1, 2) - pairing(a_form, u)
    return v, phi


def potential_to_gauge(
    g: GalileiStructure, u: TensorField, v: TensorField, phi: Poly
) -> TensorField:
    """A = -h(V) + (h(V,V)/2 - phi) theta with h the transverse metric of U.

    Round-trips with observer_and_potential; the standard gauge V = U gives
    A = -phi.theta.
    """
    return _gauge_and_transverse(g, u, v, phi)[0]


def _gauge_and_transverse(
    g: GalileiStructure, u: TensorField, v: TensorField, phi: Poly
) -> tuple[TensorField, TensorField]:
    """potential_to_gauge's A, and the transverse metric of U it used."""
    dim = g.dimension
    if pairing(g.theta, v) != Poly.const(dim, 1):
        raise StructureError("V must satisfy theta(V) = 1")
    h = transverse_metric(g, u)
    lowered = apply_metric(h, v)
    scalar = pairing(lowered, v) * Fraction(1, 2) - phi
    return g.theta.scale(scalar) - lowered, h


def observer_structure(
    g: GalileiStructure, u: TensorField, v: TensorField, phi: Poly
) -> NCBStructure:
    """The NCB structure of observer data (gamma, theta, U, V, phi): the gauge
    form A of potential_to_gauge, on the transverse metric of U that it
    computed, which the structure keeps instead of computing it again."""
    a_form, h = _gauge_and_transverse(g, u, v, phi)
    s = NCBStructure(g, u, a_form)
    s.__dict__["transverse"] = h  # the cached_property's slot
    return s


def ncb_structure(
    g: GalileiStructure, u: TensorField, a_form: TensorField
) -> NCBStructure:
    """The NCB structure of (gamma, theta, U, A).  The transverse metric of U
    is computed here, so that a U without a polynomial one is refused when
    the structure is built; V, phi and F wait for their first use."""
    if (a_form.p, a_form.q) != (0, 1) or a_form.dimension != g.dimension:
        raise ValueError("the gauge form A must be a 1-form of the structure's dimension")
    s = NCBStructure(g, u, a_form)
    s.transverse
    return s


def standard_structure(n: int, phi: Poly) -> NCBStructure:
    """The flat pair with U = d/dt and gauge form A = -phi.theta."""
    g = flat_galilei(n)
    dim = g.dimension
    if phi.dimension != dim:
        raise ValueError("potential dimension must be n+1")
    u = vector(dim, [Poly.const(dim, 1)] + [Poly.zero(dim)] * n)
    a_form = one_form(
        dim, [-phi * g.theta.comp(k) for k in range(dim)]
    )
    return ncb_structure(g, u, a_form)


def flat_structure(n: int) -> NCBStructure:
    return standard_structure(n, Poly.zero(n + 1))


def metric_gradient(g: GalileiStructure, f: Poly) -> TensorField:
    """gamma(df) as a vector field."""
    return apply_metric(g.gamma, gradient(f))


def geodesic_defect(conn: Connection, u: TensorField) -> TensorField:
    """U^a (nabla_a U)^c = U^a (d_a U^c + G_ab^c U^b) as a vector field, the
    covariant derivative of U contracted with U; zero iff U is geodesic."""
    du = covariant_derivative(conn, u)  # comp(c, a): index order upper, deriv
    return TensorField(conn.dimension, 1, 0, _einsum("a,ca->c", u, du))


def curl_defect(
    conn: Connection, u: TensorField, h: TensorField
) -> TensorField:
    """Antisymmetric part of the h-lowered covariant derivative of U."""
    du = covariant_derivative(conn, u)  # comp(c, a): index order upper, deriv
    q = _einsum("bk,ka->ab", h, du)
    return TensorField(conn.dimension, 0, 2, _add(q, _neg(_einsum("ba->ab", q))))

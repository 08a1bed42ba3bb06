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

The presets of one n (standard_structure, flat_structure) share one frame,
built on the first preset of that n and never at import: the flat pair with
its global and origin checks, U = d/dt, the transverse metric h with its
contractions, and the geodesic part of U, all checked once per process.
The pair also keeps its canonical Coriolis kernel once per degree bound
(GalileiStructure._coriolis_kernels, filled by solver.solve_symmetries), so
the presets of one n solve the metric-pair stage once per (n, d).
Each preset computes its own A = -phi.theta, force form F and assembled
connection with its torsion check, and NCStructure.validate checks its
parallelism, curvature and Newtonian symmetry; sample points are checked on
every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Sequence

from .linalg import SparseEliminator, adjugate, sparse_kernel
from .poly import Poly, Scalar, _check_size, _exact_array, _operands
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

    def __post_init__(self):
        _check_size("n", self.n, 1)
        # the structure itself stands for its dimension n + 1
        _operands("GalileiStructure", (self, GalileiStructure, "any"),
                  (self.gamma, TensorField, (2, 0)), (self.theta, TensorField, (0, 1)))

    @property
    def dimension(self) -> int:
        return self.n + 1

    def validate(self, sample_points: Sequence[Sequence[object]] | None = None) -> None:
        self._valid_at_origin
        for pt in _exact_array("GalileiStructure.validate", sample_points or (), None, self.dimension):
            self._check_point(pt)

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
        """The symmetry of gamma and gamma(theta) = 0, checked once; the
        shapes were checked when the structure was built."""
        if asymmetry := self.gamma._pair_asymmetry:
            raise StructureError("gamma not symmetric at ({},{})".format(*asymmetry))
        kernel = _einsum("ak,k->a", self.gamma, self.theta)
        if kernel:
            (a,) = min(kernel)
            raise StructureError(f"theta is not in the kernel of gamma (component {a})")
        return True

    @cached_property
    def _coriolis_kernels(self) -> dict[int, list[dict[int, Scalar]]]:
        """The canonical Coriolis kernel of this pair by degree bound, filled
        by solver.solve_symmetries, so that every structure on one pair
        solves stage one once per bound; a kernel is shared and never
        changed in place."""
        return {}

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
    _check_size("n", n, 1)
    dim = n + 1
    one = Poly.const(dim, 1)
    gamma = TensorField(dim, 2, 0, {(a, a): one for a in range(1, dim)})
    return GalileiStructure(n, gamma, one_form(dim, [one] + [Poly.zero(dim)] * n))


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
    none), so that N does not depend on U.  Every h is computed on Poly
    entries; the presets of one n share the h of their frame, computed once.
    """
    _operands("transverse_metric", (g, GalileiStructure, "any"), (u, TensorField, (1, 0)))
    g._valid_pair
    dim = g.dimension
    if pairing(g.theta, u) != Poly.const(dim, 1):
        raise StructureError("U must satisfy theta(U) = 1")
    origin = (0,) * dim
    zero = Poly.zero(dim)
    gamma, theta, uu = g.gamma.nonzero, g.theta.nonzero, u.nonzero
    j = min((j for (j,), c in theta.items() if c.total_degree() == 0), default=None)
    w = uu if j is None else {(j,): Poly.const(dim, Fraction(1, theta[(j,)].coefficient(origin)))}
    n_entries = _add(gamma, _einsum("a,b->ab", w, w))
    adj, det = adjugate(
        [[n_entries.get((a, b), zero) for b in range(dim)] for a in range(dim)]
    )
    if not det:
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
    m = _einsum("k,kb->b", uu, n_inv)
    tm = _einsum("a,b->ab", theta, m)
    entries = _add(
        n_inv,
        _neg(tm),
        _neg(_einsum("ba->ab", tm)),
        _einsum("a,b,k,k->ab", theta, theta, m, uu),
    )
    return TensorField._raw(dim, 0, 2, entries)


# ----------------------------------------------------------------------
# connection construction

def geodesic_connection(g: GalileiStructure, u: TensorField) -> Connection:
    """The geodesic part of the NCB structure (gamma, theta, U, A = 0); see
    NCBStructure.geodesic_part."""
    _operands("geodesic_connection", (g, GalileiStructure, "any"), (u, TensorField, (1, 0)))
    return NCBStructure(g, u, TensorField.zero(g.dimension, 0, 1)).geodesic_part


def field_strength(a_form: TensorField) -> TensorField:
    """F_ab = d_a A_b - d_b A_a; closed by construction."""
    _operands("field_strength", (a_form, TensorField, (0, 1)))
    d = a_form.derivative
    return TensorField._raw(a_form.dimension, 0, 2, _add(d, _neg(_einsum("ba->ab", d))))


def assemble_connection(
    ug: Connection, theta: TensorField, force: TensorField, gamma: TensorField
) -> Connection:
    """G_ab^c = UG_ab^c + theta_(a F_b)k gamma^{kc} with the 1/2 weight."""
    _operands("assemble_connection", (ug, Connection, "any"), (theta, TensorField, (0, 1)),
              (force, TensorField, (0, 2)), (gamma, TensorField, (2, 0)))
    f = force.nonzero
    if any(f.get((b, a)) != -v for (a, b), v in f.items()):
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

    def __post_init__(self):
        _operands("NCStructure", (self.base, GalileiStructure, "any"),
                  (self.connection, Connection, "any"))

    @property
    def dimension(self) -> int:
        return self.base.dimension

    def validate(self) -> None:
        self.base.validate()
        for name in ("gamma", "theta"):
            if not covariant_derivative(self.connection, getattr(self.base, name)).is_zero:
                raise StructureError(f"connection does not parallelize {name}")
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

    def __post_init__(self):
        _operands("NCBStructure", (self.base, GalileiStructure, "any"),
                  (self.u, TensorField, (1, 0)), (self.a_form, TensorField, (0, 1)))

    @property
    def dimension(self) -> int:
        return self.base.dimension

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
        self._valid_transverse

    @cached_property
    def _valid_transverse(self) -> bool:
        """h(U) = 0 and h gamma + theta(x)U = delta, checked once per
        structure (a failure is not cached and raises again on the next
        call); theta(U) = 1 is checked where h is built."""
        dim = self.base.dimension
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
        return True

    @cached_property
    def geodesic_part(self) -> Connection:
        """The unique compatible connection making the unit field U geodesic
        and curl-free:

          UG_ab^c = gamma^{ck}( d_(a h_b)k - d_k h_ab / 2 ) + d_(a theta_b) U^c

        with h the cached transverse metric of U and round-bracket
        symmetrization carrying the 1/2 weight.
        """
        g, h = self.base, self.transverse
        if not field_strength(g.theta).is_zero:
            raise StructureError("geodesic connection needs theta closed")
        # UG_ab^c = (P_abc + P_bac - gamma^{ck} d_k h_ab) / 2 with
        # P_abc = gamma^{ck} d_a h_bk + d_a theta_b U^c
        dh = h.derivative
        p = _add(
            _einsum("abk,ck->abc", dh, g.gamma), _einsum("ab,c->abc", g.theta.derivative, self.u)
        )
        ug = _add(p, _einsum("bac->abc", p), _neg(_einsum("kab,ck->abc", dh, g.gamma)))
        half = Fraction(1, 2)
        return Connection(g.dimension, {i: v * half for i, v in ug.items()})

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
    _operands("observer_and_potential", (g, GalileiStructure, "any"), (u, TensorField, (1, 0)),
              (a_form, TensorField, (0, 1)))
    raised = apply_metric(g.gamma, a_form)
    v = u - raised
    phi = pairing(a_form, raised) * Fraction(1, 2) - pairing(a_form, u)
    return v, phi


def observer_structure(
    g: GalileiStructure, u: TensorField, v: TensorField, phi: Poly
) -> NCBStructure:
    """The NCB structure of observer data (gamma, theta, U, V, phi), with

      A = -h(V) + (h(V,V)/2 - phi) theta

    and h the transverse metric of U, which the structure keeps instead of
    computing it again.  Round-trips with observer_and_potential; the
    standard gauge V = U gives A = -phi.theta.
    """
    _operands("observer_structure", (g, GalileiStructure, "any"), (u, TensorField, (1, 0)),
              (v, TensorField, (1, 0)), (phi, Poly, "any"))
    dim = g.dimension
    if pairing(g.theta, v) != Poly.const(dim, 1):
        raise StructureError("V must satisfy theta(V) = 1")
    h = transverse_metric(g, u)
    lowered = apply_metric(h, v)
    scalar = pairing(lowered, v) * Fraction(1, 2) - phi
    return _on_frame(g, u, g.theta.scale(scalar) - lowered, transverse=h)


_FRAME_VALUES = ("transverse", "_valid_transverse", "geodesic_part")


def _on_frame(
    g: GalileiStructure, u: TensorField, a_form: TensorField, **frame_values: object
) -> NCBStructure:
    """NCBStructure(g, u, a_form) holding values of its cached properties
    that depend on the frame (g, U) alone, named as in _FRAME_VALUES and
    computed on that same frame, so that they are not computed again."""
    s = NCBStructure(g, u, a_form)
    s.__dict__.update(frame_values)  # the cached_properties' slots
    return s


def ncb_structure(
    g: GalileiStructure, u: TensorField, a_form: TensorField
) -> NCBStructure:
    """The NCB structure of (gamma, theta, U, A).  The transverse metric of U
    is computed here, so that a U without a polynomial one is refused when
    the structure is built; V, phi and F wait for their first use."""
    _operands("ncb_structure", (g, GalileiStructure, "any"), (u, TensorField, (1, 0)),
              (a_form, TensorField, (0, 1)))
    s = NCBStructure(g, u, a_form)
    s.transverse
    return s


@cache
def _flat_frame(n: int) -> NCBStructure:
    """The flat pair with U = d/dt and A = 0, built on first use and checked
    once per n: the pair's global and origin checks, the transverse metric
    with its contractions, and the geodesic part."""
    g = flat_galilei(n)
    dim = g.dimension
    u = vector(dim, [Poly.const(dim, 1)] + [Poly.zero(dim)] * n)
    frame = NCBStructure(g, u, one_form(dim, [Poly.zero(dim)] * dim))
    frame.validate()
    frame.geodesic_part
    return frame


def _frame(n: int) -> NCBStructure:
    """_flat_frame(n) for a positive int n, checked before the cache is
    consulted: a bool is an int too, and True == 1 would be its key."""
    _check_size("n", n, 1)
    return _flat_frame(n)


def standard_structure(n: int, phi: Poly) -> NCBStructure:
    """The flat pair with U = d/dt and gauge form A = -phi.theta.  Every
    preset of one n shares that n's frame: the pair, U, h and the geodesic
    part, checked once; A, F and the connection are its own."""
    _operands("standard_structure", (phi, Poly))
    frame = _frame(n)
    g = frame.base
    dim = g.dimension
    if phi.dimension != dim:
        raise ValueError("potential dimension must be n+1")
    a_form = one_form(
        dim, [-phi * g.theta.comp(k) for k in range(dim)]
    )
    return _on_frame(
        g, frame.u, a_form, **{name: getattr(frame, name) for name in _FRAME_VALUES}
    )


def flat_structure(n: int) -> NCBStructure:
    return standard_structure(n, Poly.zero(_frame(n).base.dimension))


"""The Newtonian gauge group acting on NCB structures.

The infinitesimal action of a triple (X, psi, f) shifts the five fields by

    gamma  ->  L_X gamma
    theta  ->  L_X theta
    U      ->  L_X U + gamma(psi)
    V      ->  L_X V + gamma(df)
    phi    ->  X(phi) + V(f)

and the bracket of two triples is

    ([X, X'], L_X psi' - L_X' psi, X(f') - X'(f)).

The finite action shifts (U, V, phi) by a boost 1-form and a scalar gauge,
then pushes everything forward along a diffeomorphism; diffeomorphisms are
restricted to affine maps so polynomial coefficients stay polynomial.  The
induced Newton-Cartan data (gamma, theta, connection) only feels the
diffeomorphism: the (psi, f) shifts drop out of the reassembled connection,
which nc_projection_invariance_check verifies exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import RationalMatrix
from .poly import Poly
from .structures import (
    GalileiStructure,
    NCBStructure,
    metric_gradient,
    ncb_structure,
    potential_to_gauge,
)
from .tensors import (
    TensorField,
    _dense,
    _einsum,
    _field,
    _slots,
    apply_metric,
    directional,
    gradient,
    lie_derivative,
    pairing,
)


@dataclass(frozen=True)
class GaugeElement:
    """Infinitesimal gauge triple (X, psi, f)."""

    x: TensorField
    psi: TensorField
    f: Poly

    def __post_init__(self):
        if (self.x.p, self.x.q) != (1, 0):
            raise ValueError("X must be a vector field")
        if (self.psi.p, self.psi.q) != (0, 1):
            raise ValueError("psi must be a 1-form")
        dims = {self.x.dimension, self.psi.dimension, self.f.dimension}
        if len(dims) != 1:
            raise ValueError("gauge element dimensions disagree")

    @classmethod
    def zero(cls, dimension: int) -> "GaugeElement":
        return cls(
            TensorField.zero(dimension, 1, 0),
            TensorField.zero(dimension, 0, 1),
            Poly.zero(dimension),
        )


@dataclass(frozen=True)
class NCBVariation:
    """First-order variation of the five NCB fields."""

    d_gamma: TensorField
    d_theta: TensorField
    d_u: TensorField
    d_v: TensorField
    d_phi: Poly

    @property
    def is_zero(self) -> bool:
        return (
            self.d_gamma.is_zero
            and self.d_theta.is_zero
            and self.d_u.is_zero
            and self.d_v.is_zero
            and self.d_phi.is_zero
        )


def infinitesimal_gauge(s: NCBStructure, e: GaugeElement) -> NCBVariation:
    if e.x.dimension != s.base.dimension:
        raise ValueError("dimension mismatch")
    g = s.base
    return NCBVariation(
        d_gamma=lie_derivative(e.x, g.gamma),
        d_theta=lie_derivative(e.x, g.theta),
        d_u=lie_derivative(e.x, s.u) + apply_metric(g.gamma, e.psi),
        d_v=lie_derivative(e.x, s.v) + metric_gradient(g, e.f),
        d_phi=directional(e.x, s.phi) + directional(s.v, e.f),
    )


def gauge_bracket(e1: GaugeElement, e2: GaugeElement) -> GaugeElement:
    from .tensors import vector_bracket

    if e1.x.dimension != e2.x.dimension:
        raise ValueError("dimension mismatch")
    return GaugeElement(
        x=vector_bracket(e1.x, e2.x),
        psi=lie_derivative(e1.x, e2.psi) - lie_derivative(e2.x, e1.psi),
        f=directional(e1.x, e2.f) - directional(e2.x, e1.f),
    )


# ----------------------------------------------------------------------
# finite action

def _entries(m: RationalMatrix) -> dict[tuple[int, int], Fraction]:
    """The nonzero entries of a matrix keyed (row, column)."""
    return {(i, j): v for i, row in enumerate(m.entries) for j, v in enumerate(row) if v}


@dataclass(frozen=True)
class AffineDiffeo:
    """y = L x + c with L an invertible rational matrix."""

    linear: RationalMatrix
    translation: tuple[Fraction, ...]

    def __post_init__(self):
        if self.linear.rows != self.linear.cols:
            raise ValueError("linear part must be square")
        if len(self.translation) != self.linear.rows:
            raise ValueError("translation length mismatch")
        if self.linear.det() == 0:
            raise ValueError("affine map must be invertible")

    @classmethod
    def identity(cls, dimension: int) -> "AffineDiffeo":
        return cls(RationalMatrix.identity(dimension), (Fraction(0),) * dimension)

    @classmethod
    def make(cls, linear: Sequence[Sequence[object]], translation: Sequence[object]) -> "AffineDiffeo":
        return cls(
            RationalMatrix.from_rows(linear),
            tuple(Fraction(v) for v in translation),
        )

    @property
    def dimension(self) -> int:
        return self.linear.rows

    def inverse_images(self) -> list[Poly]:
        """Polynomials expressing old coordinates in terms of new ones,
        x = L^{-1}(y - c)."""
        dim = self.dimension
        shifted = {(j,): Poly.variable(dim, j) - c for j, c in enumerate(self.translation)}
        return list(_dense(dim, 1, _einsum("ij,j->i", _entries(self.linear.inverse()), shifted)))

    def push_scalar(self, f: Poly) -> Poly:
        return f.substitute(self.inverse_images())

    def push_tensor(self, t: TensorField) -> TensorField:
        """Pushforward: L on each upper slot, L^{-1} transposed on each lower,
        components composed with the inverse map."""
        images = self.inverse_images()
        moved = {idx: c.substitute(images) for idx, c in t.nonzero.items()}
        linear, inverse = _entries(self.linear), _entries(self.linear.inverse())
        # L^a_k per upper slot, (L^{-1})^k_b per lower slot, then the moved field
        out, src = _slots(t.rank, t.rank)
        terms = [o + k if slot < t.p else k + o for slot, (o, k) in enumerate(zip(out, src))]
        spec = ",".join(terms + [src]) + "->" + out
        entries = _einsum(spec, *[linear] * t.p, *[inverse] * t.q, moved)
        return _field(self.dimension, t.p, t.q, entries)


@dataclass(frozen=True)
class FiniteGauge:
    """Finite gauge transformation: boost 1-form, scalar gauge, affine map."""

    diffeo: AffineDiffeo
    boost: TensorField
    scalar: Poly

    def __post_init__(self):
        if (self.boost.p, self.boost.q) != (0, 1):
            raise ValueError("boost must be a 1-form")


def finite_gauge_apply(s: NCBStructure, gt: FiniteGauge) -> NCBStructure:
    """Shift (U, V, phi) by (boost, scalar), rebuild the gauge form from the
    shifted observer data, then push everything forward."""
    g = s.base
    dim = g.dimension
    if gt.diffeo.dimension != dim:
        raise ValueError("dimension mismatch")
    grad = gradient(gt.scalar)
    u_shift = s.u + apply_metric(g.gamma, gt.boost)
    v_shift = s.v + apply_metric(g.gamma, grad)
    gamma_df = apply_metric(g.gamma, grad)
    phi_shift = (
        s.phi
        + directional(s.v, gt.scalar)
        + pairing(grad, gamma_df) * Fraction(1, 2)
    )
    a_shift = potential_to_gauge(g, u_shift, v_shift, phi_shift)

    push = gt.diffeo.push_tensor
    new_base = GalileiStructure(
        g.n, push(g.gamma), push(g.theta)
    )
    return ncb_structure(new_base, push(u_shift), push(a_shift))


def nc_projection_invariance_check(
    s: NCBStructure, boost: TensorField, scalar: Poly
) -> bool:
    """True iff the reassembled connection from the (boost, scalar)-shifted
    NCB data equals the original, exactly."""
    gt = FiniteGauge(
        AffineDiffeo.identity(s.base.dimension), boost, scalar
    )
    shifted = finite_gauge_apply(s, gt)
    before = s.induced_connection()
    after = shifted.induced_connection()
    return all(
        (x - y).is_zero for x, y in zip(after.symbols, before.symbols)
    )

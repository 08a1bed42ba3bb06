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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .linalg import adjugate
from .poly import Poly, Scalar, _exact, _q
from .structures import (
    GalileiStructure,
    NCBStructure,
    metric_gradient,
    ncb_structure,
    observer_structure,
)
from .tensors import (
    TensorField,
    _einsum,
    _slots,
    apply_metric,
    directional,
    gradient,
    lie_derivative,
    pairing,
    vector_bracket,
)


@dataclass(frozen=True)
class GaugeElement:
    """Infinitesimal gauge triple (X, psi, f)."""

    x: TensorField
    psi: TensorField
    f: Poly

    def __post_init__(self):
        for value in (self.x, self.psi):
            if not isinstance(value, TensorField):
                raise TypeError(f"{value!r} is not a TensorField")
        if not isinstance(self.f, Poly):
            raise TypeError(f"{self.f!r} is not a Poly")
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
        d_phi=pairing(s.dphi, e.x) + directional(s.v, e.f),
    )


def gauge_bracket(e1: GaugeElement, e2: GaugeElement) -> GaugeElement:
    if e1.x.dimension != e2.x.dimension:
        raise ValueError("dimension mismatch")
    return GaugeElement(
        x=vector_bracket(e1.x, e2.x),
        psi=lie_derivative(e1.x, e2.psi) - lie_derivative(e2.x, e1.psi),
        f=directional(e1.x, e2.f) - directional(e2.x, e1.f),
    )


# ----------------------------------------------------------------------
# finite action

@dataclass(frozen=True)
class AffineDiffeo:
    """y = L x + c, with L an invertible rational matrix held as a tuple of
    rows.  The entries of L and c are taken only as ints and Fractions and
    kept canonical (``poly._exact``).  One adjugate gives det L, for the
    invertibility check, and L^{-1}; the nonzero entries of L and of
    L^{-1}, keyed (row, column), are kept once per map for the
    pushforwards."""

    linear: tuple[tuple[Scalar, ...], ...]
    translation: tuple[Scalar, ...]
    _maps: tuple[dict, dict] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = self.linear
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("entry grid does not match rows x cols")
        object.__setattr__(self, "linear", tuple(tuple(_exact(v) for v in row) for row in rows))
        object.__setattr__(self, "translation", tuple(_exact(v) for v in self.translation))
        n = len(self.linear)
        if not n:
            raise ValueError("linear part must not be empty")
        if any(len(row) != n for row in self.linear):
            raise ValueError("linear part must be square")
        if len(self.translation) != n:
            raise ValueError("translation length mismatch")
        adj, det = adjugate(self.linear)
        if det == 0:
            raise ValueError("affine map must be invertible")
        inv = Fraction(1, det)
        linear = {(i, j): v for i, row in enumerate(self.linear) for j, v in enumerate(row) if v}
        inverse = {(i, j): _q(v * inv) for i, row in enumerate(adj) for j, v in enumerate(row) if v}
        object.__setattr__(self, "_maps", (linear, inverse))

    @classmethod
    def identity(cls, dimension: int) -> "AffineDiffeo":
        rows = tuple(tuple(int(i == j) for j in range(dimension)) for i in range(dimension))
        return cls(rows, (0,) * dimension)

    @classmethod
    def make(cls, linear: Sequence[Sequence[object]], translation: Sequence[object]) -> "AffineDiffeo":
        return cls(tuple(map(tuple, linear)), tuple(translation))

    @property
    def dimension(self) -> int:
        return len(self.linear)

    def inverse_images(self) -> list[Poly]:
        """Polynomials expressing old coordinates in terms of new ones,
        x = L^{-1}(y - c)."""
        dim = self.dimension
        shifted = {(j,): Poly.variable(dim, j) - c for j, c in enumerate(self.translation)}
        images = _einsum("ij,j->i", self._maps[1], shifted)
        return [images.get((a,)) or Poly.zero(dim) for a in range(dim)]

    def push_scalar(self, f: Poly) -> Poly:
        return f.substitute(self.inverse_images())

    def push_tensor(self, t: TensorField) -> TensorField:
        """Pushforward: L on each upper slot, L^{-1} transposed on each lower,
        components composed with the inverse map."""
        images = self.inverse_images()
        moved = {idx: c.substitute(images) for idx, c in t.nonzero.items()}
        linear, inverse = self._maps
        # L^a_k per upper slot, (L^{-1})^k_b per lower slot, then the moved field
        out, src = _slots(t.rank, t.rank)
        terms = [o + k if slot < t.p else k + o for slot, (o, k) in enumerate(zip(out, src))]
        spec = ",".join(terms + [src]) + "->" + out
        entries = _einsum(spec, *[linear] * t.p, *[inverse] * t.q, moved)
        return TensorField(self.dimension, t.p, t.q, entries)


@dataclass(frozen=True)
class FiniteGauge:
    """Finite gauge transformation: boost 1-form, scalar gauge, affine map."""

    diffeo: AffineDiffeo
    boost: TensorField
    scalar: Poly

    def __post_init__(self):
        for value, article, kind in (
            (self.diffeo, "an", AffineDiffeo),
            (self.boost, "a", TensorField),
            (self.scalar, "a", Poly),
        ):
            if not isinstance(value, kind):
                raise TypeError(f"{value!r} is not {article} {kind.__name__}")
        if (self.boost.p, self.boost.q) != (0, 1):
            raise ValueError("boost must be a 1-form")


def _shifted(s: NCBStructure, boost: TensorField, scalar: Poly) -> NCBStructure:
    """Shift (U, V, phi) by (boost, scalar) and rebuild the gauge form from
    the shifted observer data, on the same base; the structure keeps the
    transverse metric of the shifted U that the gauge form was built on."""
    g = s.base
    grad = gradient(scalar)
    gamma_df = apply_metric(g.gamma, grad)
    u_shift = s.u + apply_metric(g.gamma, boost)
    v_shift = s.v + gamma_df
    phi_shift = (
        s.phi
        + directional(s.v, scalar)
        + pairing(grad, gamma_df) * Fraction(1, 2)
    )
    return observer_structure(g, u_shift, v_shift, phi_shift)


def finite_gauge_apply(s: NCBStructure, gt: FiniteGauge) -> NCBStructure:
    """Shift (U, V, phi) by (boost, scalar), rebuild the gauge form from the
    shifted observer data, then push everything forward."""
    if gt.diffeo.dimension != s.base.dimension:
        raise ValueError("dimension mismatch")
    shifted = _shifted(s, gt.boost, gt.scalar)
    g = shifted.base
    push = gt.diffeo.push_tensor
    new_base = GalileiStructure(g.n, push(g.gamma), push(g.theta))
    return ncb_structure(new_base, push(shifted.u), push(shifted.a_form))


def nc_projection_invariance_check(
    s: NCBStructure, boost: TensorField, scalar: Poly
) -> bool:
    """True iff the reassembled connection from the (boost, scalar)-shifted
    NCB data equals the original, exactly.  The shift keeps the base, so
    no diffeomorphism is applied."""
    return _shifted(s, boost, scalar).induced_connection() == s.induced_connection()

"""Every refusal of the public API, reached once: an argument of the wrong
type ends in a TypeError that names the type expected, and each shape,
size and dimension check raises its own error with its own message.

Only three refusals of ``src/ncw`` are not reached here or elsewhere: the
extension invariants ``_integrate``'s not-closed ``None``, its verification
failure and ``_bracket``'s "does not lie in", which only a symmetry field
that does not extend would reach.
"""

import re

import pytest

from ncw.extensions import (
    BargmannElement,
    CocycleError,
    ExtendedElement,
    MilneStandardElement,
    bargmann_bracket,
    bargmann_from_field,
    boost_for_coriolis,
    cocycle_triviality,
    gal_extension_cocycle,
    milne_standard_from_field,
    noncentrality_check,
)
from ncw.gauge import (
    AffineDiffeo,
    FiniteGauge,
    GaugeElement,
    finite_gauge_apply,
    gauge_bracket,
    infinitesimal_gauge,
    nc_projection_invariance_check,
)
from ncw.linalg import RationalMatrix
from ncw.poly import Poly
from ncw.solver import SymmetryBasis, classify, solve_symmetries, structure_constants
from ncw.structures import (
    GalileiStructure,
    StructureError,
    assemble_connection,
    field_strength,
    flat_structure,
    standard_structure,
)
from ncw.tensors import (
    Connection,
    TensorField,
    check_newtonian,
    covariant_derivative,
    curvature,
    directional,
    gradient,
    lie_derivative,
    lie_derivative_connection,
    raise_connection,
    raise_connection_transport,
    tensor_product,
    vector,
    vector_bracket,
)

P = Poly.variable(2, 1)  # x1 on the n = 1 structure: a Poly where a field belongs
X = TensorField.zero(2, 1, 0)
ONE_FORM = TensorField.zero(2, 0, 1)


def s():
    return flat_structure(1)


def nc():
    return s().induced_nc()


def basis():
    return solve_symmetries(nc(), "gal", 0)


def zero(dim, p, q):
    return TensorField.zero(dim, p, q)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lie_derivative(X, P), "lie_derivative needs a TensorField, not Poly"),
        (lambda: lie_derivative(P, X), "lie_derivative needs a TensorField, not Poly"),
        (lambda: covariant_derivative(nc().connection, P),
         "covariant_derivative needs a TensorField, not Poly"),
        (lambda: covariant_derivative(X, X),
         "covariant_derivative needs a Connection, not TensorField"),
        (lambda: tensor_product(X, P), "tensor_product needs a TensorField, not Poly"),
        (lambda: tensor_product(5, X), "tensor_product needs a TensorField, not int"),
        (lambda: classify(P, nc()), "classify needs a TensorField, not Poly"),
        (lambda: boost_for_coriolis(P, s()), "boost_for_coriolis needs a TensorField, not Poly"),
        (lambda: boost_for_coriolis(X, nc()),
         "boost_for_coriolis needs an NCBStructure, not NCStructure"),
        (lambda: nc_projection_invariance_check(s(), P, P),
         "nc_projection_invariance_check needs a TensorField, not Poly"),
        (lambda: nc_projection_invariance_check(s(), ONE_FORM, 5),
         "nc_projection_invariance_check needs a Poly, not int"),
        (lambda: nc_projection_invariance_check(nc(), ONE_FORM, P),
         "nc_projection_invariance_check needs an NCBStructure, not NCStructure"),
        (lambda: directional(X, 5), "directional needs a Poly, not int"),
        (lambda: directional(P, P), "directional needs a TensorField, not Poly"),
        (lambda: gradient(5), "gradient needs a Poly, not int"),
        (lambda: structure_constants(5), "structure_constants needs a SymmetryBasis, not int"),
        (lambda: noncentrality_check(s(), 5), "noncentrality_check needs a SymmetryBasis, not int"),
        (lambda: noncentrality_check(nc(), basis()),
         "noncentrality_check needs an NCBStructure, not NCStructure"),
        (lambda: gal_extension_cocycle(5, s()),
         "gal_extension_cocycle needs a SymmetryBasis, not int"),
        (lambda: gal_extension_cocycle(basis(), nc()),
         "gal_extension_cocycle needs an NCBStructure, not NCStructure"),
        (lambda: bargmann_bracket(BargmannElement.make(1), 5),
         "bargmann_bracket needs a BargmannElement, not int"),
        (lambda: bargmann_bracket(5, BargmannElement.make(1)),
         "bargmann_bracket needs a BargmannElement, not int"),
        (lambda: milne_standard_from_field(5),
         "milne_standard_from_field needs an ExtendedElement, not int"),
        (lambda: bargmann_from_field(X), "bargmann_from_field needs an ExtendedElement, not TensorField"),
        (lambda: finite_gauge_apply(s(), 5), "finite_gauge_apply needs a FiniteGauge, not int"),
        (lambda: finite_gauge_apply(5, None), "finite_gauge_apply needs an NCBStructure, not int"),
        (lambda: assemble_connection(nc().connection, s().base.theta, s().force, 5),
         "assemble_connection needs a TensorField, not int"),
        (lambda: assemble_connection(nc().connection, s().base.theta, P, s().base.gamma),
         "assemble_connection needs a TensorField, not Poly"),
        (lambda: assemble_connection(nc().connection, P, s().force, s().base.gamma),
         "assemble_connection needs a TensorField, not Poly"),
        (lambda: assemble_connection(s().base.gamma, s().base.theta, s().force, s().base.gamma),
         "assemble_connection needs a Connection, not TensorField"),
    ],
    ids=[
        "lie-derivative-tensor", "lie-derivative-field", "covariant-tensor",
        "covariant-connection", "tensor-product-second", "tensor-product-first", "classify",
        "boost-field", "boost-structure", "projection-boost", "projection-scalar",
        "projection-structure", "directional-function", "directional-field", "gradient",
        "structure-constants", "noncentrality-basis", "noncentrality-structure",
        "cocycle-basis", "cocycle-structure", "bargmann-second", "bargmann-first",
        "milne-refit", "bargmann-refit", "finite-gauge", "finite-gauge-structure",
        "assemble-gamma", "assemble-force", "assemble-theta", "assemble-connection",
    ],
)
def test_an_argument_of_the_wrong_type_is_refused(call, message):
    # each ended in an AttributeError, such as 'Poly' object has no attribute 'q'
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


def pair(gamma, theta):
    return GalileiStructure(2, gamma, theta)


@pytest.mark.parametrize(
    "call, kind, message",
    [
        # structures
        (lambda: pair(zero(3, 0, 1), zero(3, 0, 1)).validate(),
         StructureError, "gamma must be a (2,0) tensor of matching dimension"),
        (lambda: pair(zero(3, 2, 0), zero(3, 2, 0)).validate(),
         StructureError, "theta must be a 1-form of matching dimension"),
        (lambda: field_strength(X), ValueError, "field_strength needs a 1-form"),
        (lambda: standard_structure(2, P), ValueError, "potential dimension must be n+1"),
        # extensions
        (lambda: ExtendedElement(zero(3, 1, 0), P),
         ValueError, "field and parameter dimensions disagree"),
        (lambda: cocycle_triviality(SymmetryBasis(nc(), "galilei", 0, ()), [[0]]),
         CocycleError, "cocycle matrix size does not match the basis"),
        (lambda: BargmannElement(((0,),), (0, 0), (0, 0), 0, 0),
         ValueError, "rotation block size mismatch"),
        (lambda: BargmannElement(((0, 1), (1, 0)), (0, 0), (0, 0), 0, 0),
         ValueError, "rotation block must be antisymmetric"),
        (lambda: BargmannElement(((0, 0), (0, 0)), (0, 0), (0,), 0, 0),
         ValueError, "translation vector size mismatch"),
        (lambda: MilneStandardElement(((0,),), (P,), 0, Poly.zero(2)),
         ValueError, "translation part must depend on time only"),
        (lambda: MilneStandardElement(((0,),), (Poly.zero(2),), 0, P),
         ValueError, "parameter must depend on time only"),
        (lambda: bargmann_bracket(BargmannElement.make(1), BargmannElement.make(2)),
         ValueError, "dimension mismatch"),
        # gauge
        (lambda: infinitesimal_gauge(s(), GaugeElement.zero(3)), ValueError, "dimension mismatch"),
        (lambda: gauge_bracket(GaugeElement.zero(2), GaugeElement.zero(3)),
         ValueError, "dimension mismatch"),
        (lambda: finite_gauge_apply(
            s(), FiniteGauge(AffineDiffeo.identity(3), zero(3, 0, 1), Poly.zero(3))),
         ValueError, "dimension mismatch"),
        (lambda: GaugeElement(ONE_FORM, ONE_FORM, P), ValueError, "X must be a vector field"),
        (lambda: GaugeElement(X, X, P), ValueError, "psi must be a 1-form"),
        (lambda: GaugeElement(X, zero(3, 0, 1), P), ValueError, "gauge element dimensions disagree"),
        (lambda: FiniteGauge(AffineDiffeo.identity(2), X, P), ValueError, "boost must be a 1-form"),
        # linalg
        (lambda: RationalMatrix(2, 1, [[1]]), ValueError, "entry grid does not match rows x cols"),
        # poly
        (lambda: Poly(2, {(1,): 1}), ValueError, "exponent tuple (1,) has length 1, expected 2"),
        (lambda: setattr(P, "terms", {}), AttributeError, "Poly is immutable"),
        (lambda: Poly.variable(2, 2), ValueError, "variable index 2 out of range for dimension 2"),
        (lambda: P.evaluate([1]), ValueError, "point has wrong length"),
        (lambda: P.substitute([P]), ValueError, "need one image polynomial per coordinate"),
        (lambda: P.substitute([Poly.zero(2), Poly.zero(3)]),
         ValueError, "image polynomials must share a dimension"),
        (lambda: Poly.zero(3).extended(2), ValueError, "cannot shrink dimension"),
        # tensors
        (lambda: X + ONE_FORM, ValueError, "tensor shape mismatch"),
        (lambda: vector(2, [P]), ValueError, "need 2 components, got 1"),
        (lambda: tensor_product(X, zero(3, 1, 0)), ValueError, "dimension mismatch"),
        (lambda: vector_bracket(X, ONE_FORM),
         ValueError, "vector_bracket needs two vector fields of one dimension"),
        (lambda: lie_derivative(ONE_FORM, ONE_FORM),
         ValueError, "lie_derivative needs a vector field of matching dimension"),
        (lambda: lie_derivative_connection(zero(3, 1, 0), Connection.zero(2)),
         ValueError, "lie_derivative_connection needs a matching vector field"),
        (lambda: raise_connection(Connection.zero(2), zero(3, 2, 0), 1),
         ValueError, "dimension mismatch"),
        (lambda: raise_connection_transport(zero(2, 1, 1), zero(2, 2, 0), 1),
         ValueError, "raising needs a (1,2)-shaped transport and a (2,0) gamma of one dimension"),
        (lambda: covariant_derivative(Connection.zero(2), zero(3, 1, 0)),
         ValueError, "dimension mismatch"),
        (lambda: check_newtonian(curvature(Connection.zero(2)), zero(3, 2, 0)),
         ValueError, "dimension mismatch"),
    ],
    ids=[
        "pair-gamma", "pair-theta", "field-strength", "standard-potential",
        "extended-element", "cocycle-size", "rotation-size", "rotation-antisymmetry",
        "bargmann-translation", "milne-translation", "milne-parameter", "bargmann-bracket",
        "infinitesimal-gauge", "gauge-bracket", "finite-gauge", "gauge-x", "gauge-psi",
        "gauge-dimensions", "finite-gauge-boost", "matrix-grid", "poly-exponents",
        "poly-immutable", "poly-variable", "poly-evaluate", "poly-substitute-images",
        "poly-substitute-dimensions", "poly-extended", "tensor-shape", "vector-length",
        "tensor-product", "vector-bracket", "lie-derivative", "lie-derivative-connection",
        "raise-connection", "raise-transport", "covariant-derivative", "check-newtonian",
    ],
)
def test_each_check_refuses_with_its_own_error(call, kind, message):
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as raised:
        call()
    assert type(raised.value) is kind

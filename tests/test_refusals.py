"""Every refusal of the public API, reached once: an argument of the wrong
type ends in a TypeError that names the type expected, and each shape,
size and dimension check raises its own error with its own message.

Only three refusals of ``src/ncw`` are not reached here or elsewhere: the
extension invariants ``_integrate``'s not-closed ``None``, its verification
failure and ``_bracket``'s "does not lie in", which only a symmetry field
that does not extend would reach.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import ncw

from ncw.extensions import (
    BargmannElement,
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
    NCBStructure,
    NCStructure,
    assemble_connection,
    field_strength,
    flat_structure,
    observer_structure,
    standard_structure,
)
from ncw.tensors import (
    Connection,
    TensorField,
    apply_metric,
    check_newtonian,
    covariant_derivative,
    curvature,
    directional,
    gradient,
    lie_derivative,
    lie_derivative_connection,
    pairing,
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
         ValueError, "GalileiStructure needs a (2,0) field, not a (0,1) field"),
        (lambda: pair(zero(3, 2, 0), zero(3, 2, 0)).validate(),
         ValueError, "GalileiStructure needs a (0,1) field, not a (2,0) field"),
        (lambda: pair(zero(2, 2, 0), zero(2, 0, 1)),
         ValueError, "GalileiStructure needs operands of one dimension, not 3 and 2"),
        (lambda: GalileiStructure(P, P, P), ValueError, "n Poly[2](x1) is not a positive int"),
        (lambda: GalileiStructure(1, P, P), TypeError, "GalileiStructure needs a TensorField, not Poly"),
        (lambda: s().base.validate(5),
         TypeError, "GalileiStructure.validate needs a sequence, not int"),
        (lambda: s().base.validate([(0, 0, 0)]),
         ValueError, "GalileiStructure.validate needs 2 entries, not 3"),
        (lambda: NCStructure(P, P), TypeError, "NCStructure needs a GalileiStructure, not Poly"),
        (lambda: NCStructure(s().base, Connection.zero(3)),
         ValueError, "NCStructure needs operands of one dimension, not 2 and 3"),
        (lambda: NCBStructure(P, P, P), TypeError, "NCBStructure needs a GalileiStructure, not Poly"),
        (lambda: NCBStructure(s().base, ONE_FORM, ONE_FORM),
         ValueError, "NCBStructure needs a (1,0) field, not a (0,1) field"),
        (lambda: NCBStructure(s().base, X, zero(3, 0, 1)),
         ValueError, "NCBStructure needs operands of one dimension, not 2 and 3"),
        (lambda: field_strength(X), ValueError, "field_strength needs a (0,1) field, not a (1,0) field"),
        (lambda: standard_structure(2, P), ValueError, "potential dimension must be n+1"),
        # solver
        (lambda: SymmetryBasis(P, P, P, P), TypeError, "SymmetryBasis needs an NCStructure, not Poly"),
        (lambda: SymmetryBasis(nc(), "gal", 0, [X]), TypeError, "SymmetryBasis needs a tuple, not list"),
        (lambda: SymmetryBasis(nc(), "gravity", 0, (X,)),
         ValueError, "unknown symmetry flavor 'gravity'"),
        (lambda: SymmetryBasis(nc(), "gal", -1, (X,)), ValueError, "degree -1 is not a non-negative int"),
        (lambda: SymmetryBasis(nc(), "gal", 0, (ONE_FORM,)),
         ValueError, "SymmetryBasis needs a (1,0) field, not a (0,1) field"),
        (lambda: SymmetryBasis(nc(), "gal", 0, (X, zero(3, 1, 0))),
         ValueError, "SymmetryBasis needs operands of one dimension, not 2 and 3"),
        # extensions
        (lambda: ExtendedElement(zero(3, 1, 0), P),
         ValueError, "ExtendedElement needs operands of one dimension, not 3 and 2"),
        (lambda: cocycle_triviality(SymmetryBasis(nc(), "galilei", 0, ()), [[0]]),
         ValueError, "cocycle_triviality needs 0 entries, not 1"),
        (lambda: cocycle_triviality(basis(), 5),
         TypeError, "cocycle_triviality needs a sequence, not int"),
        (lambda: BargmannElement(((0,),), (0, 0), (0, 0), 0, 0),
         ValueError, "BargmannElement needs 2 entries, not 1"),
        (lambda: BargmannElement(((0,),), 5, (0,), 0, 0),
         TypeError, "BargmannElement needs a sequence, not int"),
        (lambda: BargmannElement(((0, 1), (1, 0)), (0, 0), (0, 0), 0, 0),
         ValueError, "rotation block must be antisymmetric"),
        (lambda: BargmannElement(((0, 0), (0, 0)), (0, 0), (0,), 0, 0),
         ValueError, "BargmannElement needs 2 entries, not 1"),
        (lambda: BargmannElement.make(2, beta=[1]),
         TypeError, "BargmannElement.make needs a Mapping, not list"),
        (lambda: BargmannElement.make(2, omega=[1]),
         TypeError, "BargmannElement.make needs a Mapping, not list"),
        (lambda: BargmannElement.make(2, sigma=(1,)),
         TypeError, "BargmannElement.make needs a Mapping, not tuple"),
        (lambda: BargmannElement.make(2, omega={(1, 2, 1): 1}),
         ValueError, "BargmannElement.make needs 2 entries, not 3"),
        (lambda: BargmannElement.make(2, omega={1: 1}),
         TypeError, "BargmannElement.make needs a sequence, not int"),
        (lambda: MilneStandardElement(((0,),), (P,), 0, Poly.zero(2)),
         ValueError, "translation part must depend on time only"),
        (lambda: MilneStandardElement(((0,),), (Poly.zero(2),), 0, P),
         ValueError, "parameter must depend on time only"),
        (lambda: MilneStandardElement(((0, 0),), (Poly.zero(2),), 0, Poly.zero(2)),
         ValueError, "MilneStandardElement needs 1 entry, not 2"),
        (lambda: bargmann_bracket(BargmannElement.make(1), BargmannElement.make(2)),
         ValueError, "bargmann_bracket needs operands of one dimension, not 2 and 3"),
        # gauge
        (lambda: infinitesimal_gauge(s(), GaugeElement.zero(3)),
         ValueError, "infinitesimal_gauge needs operands of one dimension, not 2 and 3"),
        (lambda: gauge_bracket(GaugeElement.zero(2), GaugeElement.zero(3)),
         ValueError, "gauge_bracket needs operands of one dimension, not 2 and 3"),
        (lambda: finite_gauge_apply(
            s(), FiniteGauge(AffineDiffeo.identity(3), zero(3, 0, 1), Poly.zero(3))),
         ValueError, "finite_gauge_apply needs operands of one dimension, not 2 and 3"),
        (lambda: GaugeElement(ONE_FORM, ONE_FORM, P),
         ValueError, "GaugeElement needs a (1,0) field, not a (0,1) field"),
        (lambda: GaugeElement(X, X, P), ValueError, "GaugeElement needs a (0,1) field, not a (1,0) field"),
        (lambda: GaugeElement(X, zero(3, 0, 1), P),
         ValueError, "GaugeElement needs operands of one dimension, not 2 and 3"),
        (lambda: FiniteGauge(AffineDiffeo.identity(2), X, P),
         ValueError, "FiniteGauge needs a (0,1) field, not a (1,0) field"),
        (lambda: AffineDiffeo.identity(True), ValueError, "dimension True is not a positive int"),
        (lambda: AffineDiffeo(((1,),), 5), TypeError, "AffineDiffeo needs a sequence, not int"),
        (lambda: AffineDiffeo.make([[1]], "1"), TypeError, "AffineDiffeo needs a sequence, not str"),
        # linalg
        (lambda: RationalMatrix(2, 1, [[1]]), ValueError, "RationalMatrix needs 2 entries, not 1"),
        (lambda: RationalMatrix(1, 2, [[1]]), ValueError, "RationalMatrix needs 2 entries, not 1"),
        (lambda: RationalMatrix.from_rows([[1, 2], [3]]),
         ValueError, "RationalMatrix needs 2 entries, not 1"),
        (lambda: RationalMatrix.from_rows(P), TypeError, "RationalMatrix needs a sequence, not Poly"),
        (lambda: RationalMatrix(True, 1, [[1]]), ValueError, "rows True is not a non-negative int"),
        (lambda: RationalMatrix(0, 2.0, []), ValueError, "cols 2.0 is not a non-negative int"),
        # poly
        (lambda: Poly(2, {(1,): 1}), ValueError, "exponent tuple needs 2 entries, not 1"),
        (lambda: Poly(2, 5), TypeError, "Poly needs a Mapping, not int"),
        (lambda: Poly(2, {5: 1}), TypeError, "exponent tuple needs a sequence, not int"),
        (lambda: Poly.monomial(2, (1,)), ValueError, "exponent tuple needs 2 entries, not 1"),
        (lambda: setattr(P, "terms", {}), AttributeError, "Poly is immutable"),
        (lambda: Poly.variable(2, 2), ValueError, "variable index 2 is not an int in range(0, 2)"),
        (lambda: P.evaluate([1]), ValueError, "Poly.evaluate needs 2 entries, not 1"),
        (lambda: P.evaluate("12"), TypeError, "Poly.evaluate needs a sequence, not str"),
        (lambda: P.substitute([P]), ValueError, "Poly.substitute needs 2 entries, not 1"),
        (lambda: P.substitute([Poly.zero(2), Poly.zero(3)]),
         ValueError, "Poly.substitute needs operands of one dimension, not 2 and 3"),
        (lambda: P.substitute([1, 2]), TypeError, "Poly.substitute needs a Poly, not int"),
        (lambda: P + Poly.zero(3),
         ValueError, "Poly arithmetic needs operands of one dimension, not 2 and 3"),
        (lambda: Poly.zero(3).extended(2), ValueError, "cannot shrink dimension"),
        (lambda: Poly.zero(1).extended(True), ValueError, "dimension True is not a positive int"),
        (lambda: Poly.zero(2).extended(2.5), ValueError, "dimension 2.5 is not a positive int"),
        (lambda: Poly.const(2.5, 1), ValueError, "dimension 2.5 is not a positive int"),
        (lambda: Poly.variable(2.5, 0), ValueError, "dimension 2.5 is not a positive int"),
        (lambda: Poly.variable(False, 0), ValueError, "dimension False is not a positive int"),
        # tensors
        (lambda: X + ONE_FORM, ValueError, "tensor addition needs a (1,0) field, not a (0,1) field"),
        (lambda: vector(2, [P]), ValueError, "vector needs 2 entries, not 1"),
        (lambda: vector(P, [P]), ValueError, "dimension Poly[2](x1) is not a positive int"),
        (lambda: X.comp(0, 0), ValueError, "index tuple needs 1 entry, not 2"),
        (lambda: X.comp(2), ValueError, "index 2 is not an int in range(0, 2)"),
        (lambda: tensor_product(X, zero(3, 1, 0)),
         ValueError, "tensor_product needs operands of one dimension, not 2 and 3"),
        (lambda: vector_bracket(X, ONE_FORM),
         ValueError, "vector_bracket needs a (1,0) field, not a (0,1) field"),
        (lambda: lie_derivative(ONE_FORM, ONE_FORM),
         ValueError, "lie_derivative needs a (1,0) field, not a (0,1) field"),
        (lambda: lie_derivative_connection(zero(3, 1, 0), Connection.zero(2)),
         ValueError, "lie_derivative_connection needs operands of one dimension, not 3 and 2"),
        (lambda: raise_connection(Connection.zero(2), zero(3, 2, 0), 1),
         ValueError, "raise_connection needs operands of one dimension, not 2 and 3"),
        (lambda: raise_connection(Connection.zero(2), zero(2, 2, 0), True),
         ValueError, "slots True is not an int in range(1, 3)"),
        (lambda: raise_connection(Connection.zero(2), zero(2, 2, 0), 2.0),
         ValueError, "slots 2.0 is not an int in range(1, 3)"),
        (lambda: raise_connection(Connection.zero(2), zero(2, 2, 0), 3),
         ValueError, "slots 3 is not an int in range(1, 3)"),
        (lambda: raise_connection_transport(zero(2, 1, 1), zero(2, 2, 0), 1),
         ValueError, "raise_connection_transport needs a (1,2) field, not a (1,1) field"),
        (lambda: covariant_derivative(Connection.zero(2), zero(3, 1, 0)),
         ValueError, "covariant_derivative needs operands of one dimension, not 2 and 3"),
        (lambda: check_newtonian(curvature(Connection.zero(2)), zero(3, 2, 0)),
         ValueError, "check_newtonian needs operands of one dimension, not 2 and 3"),
    ],
    ids=[
        "pair-gamma", "pair-theta", "pair-dimension", "pair-n", "pair-field",
        "validate-points", "validate-point-length", "nc-structure", "nc-dimension",
        "ncb-structure", "ncb-u", "ncb-dimension", "field-strength", "standard-potential",
        "basis-structure", "basis-fields", "basis-flavor", "basis-degree", "basis-field-shape",
        "basis-dimension", "extended-element", "cocycle-size", "cocycle-sequence", "rotation-size",
        "bargmann-beta-sequence", "rotation-antisymmetry", "bargmann-translation",
        "bargmann-make-beta", "bargmann-make-omega", "bargmann-make-sigma",
        "bargmann-make-omega-key", "bargmann-make-omega-int-key", "milne-translation",
        "milne-parameter", "milne-rotation-size", "bargmann-bracket",
        "infinitesimal-gauge", "gauge-bracket", "finite-gauge", "gauge-x", "gauge-psi",
        "gauge-dimensions", "finite-gauge-boost", "affine-identity-bool",
        "affine-translation-sequence", "affine-translation-str", "matrix-grid",
        "matrix-grid-row", "matrix-from-ragged-rows", "matrix-from-rows-sequence",
        "matrix-rows-bool", "matrix-cols-float",
        "poly-exponents", "poly-terms-mapping", "poly-exponents-sequence", "poly-monomial",
        "poly-immutable", "poly-variable", "poly-evaluate", "poly-evaluate-str",
        "poly-substitute-images", "poly-substitute-dimensions", "poly-substitute-ints",
        "poly-arithmetic", "poly-extended",
        "poly-extended-bool", "poly-extended-float", "poly-const-float", "poly-variable-float",
        "poly-variable-bool", "tensor-shape", "vector-length", "vector-dimension",
        "tensor-index-count", "tensor-index-range", "tensor-product",
        "vector-bracket", "lie-derivative", "lie-derivative-connection", "raise-connection",
        "raise-connection-slots-bool", "raise-connection-slots-float",
        "raise-connection-slots-range", "raise-transport", "covariant-derivative",
        "check-newtonian",
    ],
)
def test_each_check_refuses_with_its_own_error(call, kind, message):
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as raised:
        call()
    assert type(raised.value) is kind


@pytest.mark.parametrize(
    "call",
    [lambda: X + 5, lambda: 5 + X, lambda: X - P, lambda: P - X],
    ids=["field-plus-int", "int-plus-field", "field-minus-poly", "poly-minus-field"],
)
def test_field_arithmetic_with_a_non_field_is_refused(call):
    # X + 5 ended in "'int' object has no attribute 'dimension'"
    with pytest.raises(TypeError, match="^unsupported operand type"):
        call()


PUBLIC_FUNCTIONS = [
    value for name in ncw.__all__ if inspect.isfunction(value := getattr(ncw, name))
] + [apply_metric, pairing, raise_connection_transport, observer_structure]

PUBLIC_CLASSMETHODS = [
    getattr(cls, name)
    for cls in map(vars(ncw).get, ncw.__all__) if inspect.isclass(cls)
    for name, raw in vars(cls).items()
    if isinstance(raw, classmethod) and not name.startswith("_")
]

SWEEP = [(f, P) for f in PUBLIC_FUNCTIONS + PUBLIC_CLASSMETHODS] + [(P.substitute, [1, 2])]

SHARED_CHECKS = {"_check_size", "_operands", "_exact", "_exact_array"}


@pytest.mark.parametrize("function, value", SWEEP, ids=[f.__qualname__ for f, _ in SWEEP])
def test_no_public_function_ends_in_an_attribute_error(function, value):
    # value, a Poly (images that are not Polys for Poly.substitute), for
    # every required argument; curvature(P) ended in "'Poly' object has no
    # attribute 'nonzero'", P.substitute([1, 2]) in "'int' object has no
    # attribute 'dimension'", and Poly.monomial(P, P) in Python's own
    # "'Poly' object is not iterable": each is refused by a shared check
    required = [
        p for p in inspect.signature(function).parameters.values() if p.default is p.empty
    ]
    with pytest.raises((TypeError, ValueError)) as raised:
        function(*[value] * len(required))
    assert raised.traceback[-1].name in SHARED_CHECKS
    assert raised.traceback[-1].path.name == "poly.py"


def test_every_type_refusal_is_raised_by_a_shared_check():
    # a hand-written ``raise TypeError`` outside the shared checks would
    # bring back a second way to refuse an argument of the wrong type
    raisers = [
        (path.name, function, line)
        for path in sorted(Path(ncw.__file__).parent.glob("*.py"))
        for function, line in _type_error_raisers(ast.parse(path.read_text()))
    ]
    shared = {("poly.py", "_exact"), ("poly.py", "_operands"), ("poly.py", "_exact_array")}
    assert {(name, function) for name, function, _ in raisers} == shared, raisers


def _type_error_raisers(node: ast.AST, function: str | None = None) -> list:
    """(innermost enclosing function, line) of every ``raise TypeError``
    under node; None for the function at module level."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _type_error_raisers(child, child.name)
            continue
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id == "TypeError":
                found.append((function, child.lineno))
        found += _type_error_raisers(child, function)
    return found

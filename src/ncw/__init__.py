"""ncw: an exact-arithmetic workbench for Newton-Cartan spacetime structures
and their Galilean symmetry algebras.

Everything is computed over multivariate polynomials with rational
coefficients, so every identity in the test suite holds exactly; no
floating point appears anywhere.
"""

from .poly import Poly
from .linalg import RationalMatrix, nullspace, solve_inhomogeneous
from .tensors import (
    Connection,
    CurvatureField,
    TensorField,
    check_newtonian,
    covariant_derivative,
    curvature,
    lie_derivative,
    lie_derivative_connection,
    raise_connection,
    vector_bracket,
)
from .structures import (
    GalileiStructure,
    NCBStructure,
    NCStructure,
    StructureError,
    assemble_connection,
    field_strength,
    flat_galilei,
    flat_structure,
    geodesic_connection,
    ncb_structure,
    observer_and_potential,
    potential_to_gauge,
    standard_structure,
    transverse_metric,
)
from .gauge import (
    AffineDiffeo,
    FiniteGauge,
    GaugeElement,
    finite_gauge_apply,
    gauge_bracket,
    infinitesimal_gauge,
    nc_projection_invariance_check,
)
from .solver import (
    SymmetryBasis,
    classify,
    solve_symmetries,
    structure_constants,
    verify_coriolis_identity,
)
from .extensions import (
    BargmannElement,
    ExtendedElement,
    MilneStandardElement,
    bargmann_bracket,
    boost_for_coriolis,
    cocycle_triviality,
    extended_cor_bracket,
    extended_gal_bracket,
    extended_mil_bracket,
    galilei_f_solve,
    milne_f_split,
    noncentrality_check,
)

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "RationalMatrix",
    "nullspace",
    "solve_inhomogeneous",
    "Connection",
    "CurvatureField",
    "TensorField",
    "check_newtonian",
    "covariant_derivative",
    "curvature",
    "lie_derivative",
    "lie_derivative_connection",
    "raise_connection",
    "vector_bracket",
    "GalileiStructure",
    "NCBStructure",
    "NCStructure",
    "StructureError",
    "assemble_connection",
    "field_strength",
    "flat_galilei",
    "flat_structure",
    "geodesic_connection",
    "ncb_structure",
    "observer_and_potential",
    "potential_to_gauge",
    "standard_structure",
    "transverse_metric",
    "AffineDiffeo",
    "FiniteGauge",
    "GaugeElement",
    "finite_gauge_apply",
    "gauge_bracket",
    "infinitesimal_gauge",
    "nc_projection_invariance_check",
    "SymmetryBasis",
    "classify",
    "solve_symmetries",
    "structure_constants",
    "verify_coriolis_identity",
    "BargmannElement",
    "ExtendedElement",
    "MilneStandardElement",
    "bargmann_bracket",
    "boost_for_coriolis",
    "cocycle_triviality",
    "extended_cor_bracket",
    "extended_gal_bracket",
    "extended_mil_bracket",
    "galilei_f_solve",
    "milne_f_split",
    "noncentrality_check",
    "__version__",
]

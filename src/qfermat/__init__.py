"""Exact-arithmetic toolkit for the quantum Fermat quintic threefold.

The quintic relation t_0^5 + ... + t_4^5 together with the q-commutation
rules t_i t_j = zeta^{n_ij} t_j t_i (zeta a primitive fifth root of unity,
N a 5 x 5 parameter matrix over Z/5) defines a family of noncommutative
threefolds.  This package mechanizes the computations that family supports,
with no floating-point arithmetic anywhere a theorem is decided:

  - cyclotomic:  the field Q(zeta_5) with exact Fraction coordinates
  - qmatrix:     admissibility, genericity, and symmetry classification of
                 the parameter matrices
  - indices:     the 625-element index monoid with carries
  - structure:   structure constants of the 625-component sheaf algebra,
                 associativity certificates, the Frobenius pairing
  - rewrite:     normal forms and centrality in the generator presentation
  - fiber:       center, radical, and semisimplicity of fiber algebras
  - cohomology:  Hilbert polynomials and twisted-sheaf cohomology over P^3
  - cli:         the `qfermat` command-line entry point
"""

from .cyclotomic import CycNum, root_power
from .errors import BudgetExceededError, PreconditionError, ToolkitError
from .indices import (
    CarryVector,
    MultiIndex,
    enumerate_index_set,
    index_add,
    weight,
    weight_histogram,
)
from .qmatrix import (
    ClassificationReport,
    QMatrix,
    act_permute,
    act_scale,
    act_twist,
    canonical_generic_representative,
    canonical_representative,
    classify,
    enumerate_admissible,
    enumerate_generic,
    is_admissible,
    is_generic,
    orbit,
    orbit_representatives,
)
from .structure import (
    AssociativityReport,
    CyCertificate,
    PairingMatrix,
    StructureTable,
    build_table,
    cy_certificate,
    frobenius_pairing,
    is_symmetric_pairing,
    verify_associativity,
)
from .rewrite import AlgElement, graded_dimension, is_central, multiply, normal_form
from .fiber import (
    FiberAlgebra,
    FiberPoint,
    MonomialAlgebra,
    center_dim,
    is_semisimple,
    radical_dim,
    specialize,
)
from .cohomology import (
    RatPolynomial,
    TwistMultiset,
    algebra_twist_multiset,
    cohomology_dim,
    dt_polynomial_pair,
    hilbert_polynomial,
    sheaf_cohomology,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ToolkitError",
    "PreconditionError",
    "BudgetExceededError",
    "CycNum",
    "root_power",
    "MultiIndex",
    "CarryVector",
    "enumerate_index_set",
    "index_add",
    "weight",
    "weight_histogram",
    "QMatrix",
    "ClassificationReport",
    "is_admissible",
    "is_generic",
    "act_scale",
    "act_permute",
    "act_twist",
    "enumerate_generic",
    "enumerate_admissible",
    "orbit",
    "canonical_representative",
    "canonical_generic_representative",
    "orbit_representatives",
    "classify",
    "StructureTable",
    "PairingMatrix",
    "AssociativityReport",
    "CyCertificate",
    "build_table",
    "verify_associativity",
    "frobenius_pairing",
    "is_symmetric_pairing",
    "cy_certificate",
    "AlgElement",
    "normal_form",
    "multiply",
    "is_central",
    "graded_dimension",
    "FiberPoint",
    "FiberAlgebra",
    "MonomialAlgebra",
    "specialize",
    "center_dim",
    "radical_dim",
    "is_semisimple",
    "RatPolynomial",
    "TwistMultiset",
    "algebra_twist_multiset",
    "hilbert_polynomial",
    "cohomology_dim",
    "sheaf_cohomology",
    "dt_polynomial_pair",
]

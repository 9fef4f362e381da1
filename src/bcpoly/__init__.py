"""Exact bicomplex polynomial calculus.

Scalars, polynomial functions, constant-coefficient differential operators,
exact-order classification, and constructive decompositions over Gaussian
rationals, plus a canonical text/JSON serialization layer and a seeded
randomized verification harness.
"""

from .bicomplex import (
    Bicomplex,
    BicomplexError,
    GaussianRational,
    Hyperbolic,
    NullConeError,
    DAGGER,
    STAR,
    TILDE,
    E_MINUS,
    E_PLUS,
    I,
    J,
    K,
    ONE,
    ZERO,
)
from .classify import (
    ClassMembership,
    NotNilpotent,
    Signature,
    annihilation_order,
    class_membership,
    classification_report,
    laplacian_orders,
    pair_polyharmonic_order,
    polyharmonic_order,
    signature_by_degrees,
    signature_by_iteration,
)
from .decompose import (
    AlmansiDecomposition,
    ConjugateExpansion,
    MainDecomposition,
    MixedPairError,
    NotHyperbolicValued,
    NotInClass,
    NotRealValued,
    PreconditionViolation,
    almansi_bicomplex,
    almansi_complex,
    expand_conjugate_basis,
    expand_zstar,
    main_decomposition,
    rehyp_to_holomorphic,
    rehyp_to_polyholomorphic_A1,
    repart_to_polyanalytic,
)
from .expr import (
    ExprLimitError,
    ExprSyntaxError,
    JsonFormatError,
    format_function,
    format_poly,
    function_from_json,
    function_to_json,
    parse,
    parse_point,
)
from .operators import Operator, laplacian, wirtinger
from .polyfun import BicomplexFunction, EvalLimitError, Poly4
from .sampling import Sampler

__version__ = "0.1.0"

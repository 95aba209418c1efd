"""pdml: exact return-set computation for torus dynamics over F_p(t).

Computes sets {n : Phi^n(alpha) in V} for affine self-maps of split tori
over F_p(t), reduces them to polynomial-exponential equations
u_n = sum c_i p^(k_i n_i), classifies the solution sets into arithmetic
progressions plus p-sets with two-sided verification, and generates
hard instances from integer linear recurrences.
"""

from .errors import (
    ConstructionError,
    DomainError,
    InternalError,
    ParseError,
    PdmlError,
    ResourceLimitError,
    UnsupportedError,
    UsageError,
    ValidationError,
)
from .exact import (
    FpPoly,
    PrimeModulus,
    RatFunc,
    frobenius_power,
    ratfunc_int_pow,
)
from .lrs import (
    CharRoots,
    Lrs,
    lrs_char_roots,
    lrs_eval,
    lrs_nondegenerate_split,
    lrs_root_p_dependence,
    lrs_subsequence,
    lrs_zero_progression_certify,
)
from .psets import (
    ArithProg,
    PSet,
    ReturnSetDesc,
    ap_intersect_pset,
    desc_verify,
    pset_contains,
    pset_enumerate,
    pset_intersect_bounded,
    pset_membership,
)
from .pexp import (
    FArithSeq,
    FarithResult,
    PexpInstance,
    farith_solve,
    general_farith_intersect,
    pexp_classify,
    pexp_solve,
)
from .torus import (
    ObstructionVerdict,
    ReductionData,
    TorusPoint,
    TorusSelfMap,
    Variety,
    endo_apply,
    frobenius_obstruction,
    full_pipeline,
    minimal_polynomial,
    reduction_decompose,
    return_set,
    selfmap_iterate,
    variety_contains,
    verify_reduction,
)
from .constructions import (
    LrsEncoding,
    PsetVariety,
    build_pset_variety,
    dml_instance,
    encode_lrs,
    exponent_set,
    vandermonde_inverse,
)

__all__ = [
    "ConstructionError", "DomainError", "InternalError", "ParseError",
    "PdmlError", "ResourceLimitError", "UnsupportedError", "UsageError",
    "ValidationError",
    "FpPoly", "PrimeModulus", "RatFunc", "frobenius_power",
    "ratfunc_int_pow",
    "CharRoots", "Lrs", "lrs_char_roots", "lrs_eval",
    "lrs_nondegenerate_split", "lrs_root_p_dependence", "lrs_subsequence",
    "lrs_zero_progression_certify",
    "ArithProg", "PSet", "ReturnSetDesc", "ap_intersect_pset", "desc_verify",
    "pset_contains", "pset_enumerate", "pset_intersect_bounded",
    "pset_membership",
    "FArithSeq", "FarithResult", "PexpInstance", "farith_solve",
    "general_farith_intersect", "pexp_classify", "pexp_solve",
    "ObstructionVerdict", "ReductionData", "TorusPoint", "TorusSelfMap",
    "Variety", "endo_apply", "frobenius_obstruction", "full_pipeline",
    "minimal_polynomial", "reduction_decompose", "return_set",
    "selfmap_iterate", "variety_contains", "verify_reduction",
    "LrsEncoding", "PsetVariety", "build_pset_variety", "dml_instance",
    "encode_lrs", "exponent_set", "vandermonde_inverse",
]

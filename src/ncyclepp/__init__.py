"""n-cycle permutation polynomials over finite fields.

Library layout:

* field        -- GF(p^n) contexts, elements, traces, subgroups
* polyperm     -- sparse polynomials, permutation tables, cycle structure
* walsh        -- Walsh coefficients and the involution symmetry test
* criteria     -- algebraic n-cycle criteria for structured polynomial shapes
* families     -- constructors for the explicit families and parameter searches
* oracle       -- exhaustive brute-force verdicts and criterion cross-checks
* cli          -- command line front end
"""
from .criteria import (
    CriterionVerdict,
    RsParams,
    ShiftParams,
    additive_criterion,
    agw_commute_check,
    frobenius_twist_ncycle,
    monomial_ncycle,
    rs_single_criterion,
    rs_triple_criterion,
    shift_criterion,
    xh_lambda_criterion,
)
from .errors import (
    BadParams,
    CapExceeded,
    CtxMismatch,
    DegenerateH,
    DivisionByZero,
    HValueNotRootOfUnity,
    HypothesisViolated,
    InvalidSpec,
    InvalidSubfield,
    KernelViolation,
    NcycleError,
    NotDivisor,
    NotIrreducible,
    NotPermutation,
    NotPrime,
    NotSurjective,
    PrereqNotNcycle,
)
from .families import (
    FamilyInstance,
    LambdaSpec,
    build_additive,
    build_jieguo,
    build_rs_2to3m,
    build_shift,
    build_trace_theta,
    build_xh_lambda,
    build_xq_h_alpha,
    lambda_poly,
    lambda_spec,
    search_k_2to3m,
    solve_jieguo_congruences,
)
from .field import (
    DEFAULT_CAP,
    FieldCtx,
    FieldElement,
    make_field,
)
from .oracle import (
    CrossCheckReport,
    FuzzSummary,
    FuzzTrial,
    OracleVerdict,
    cross_check,
    exhaustive_verdict,
    random_family_fuzz,
)
from .polyperm import (
    CycleReport,
    PermMap,
    SparsePoly,
    compose,
    cycle_report_for_fn,
    cycle_structure,
    eval_int_expr,
    functional_power,
    identity_perm,
    is_ncycle,
    perm_from_images,
)
from .walsh import WALSH_CAP, WalshValue, walsh_coefficient, walsh_involution_test

__version__ = "0.1.0"

__all__ = [
    "BadParams", "CapExceeded", "CtxMismatch", "DegenerateH", "DivisionByZero",
    "HValueNotRootOfUnity", "HypothesisViolated", "InvalidSpec",
    "InvalidSubfield", "KernelViolation", "NcycleError", "NotDivisor",
    "NotIrreducible", "NotPermutation", "NotPrime", "NotSurjective",
    "PrereqNotNcycle",
    "DEFAULT_CAP", "FieldCtx", "FieldElement", "make_field",
    "CycleReport", "PermMap", "SparsePoly", "compose", "cycle_report_for_fn",
    "cycle_structure", "eval_int_expr", "functional_power", "identity_perm",
    "is_ncycle", "perm_from_images",
    "WALSH_CAP", "WalshValue", "walsh_coefficient", "walsh_involution_test",
    "CriterionVerdict", "RsParams", "ShiftParams", "additive_criterion",
    "agw_commute_check", "frobenius_twist_ncycle", "monomial_ncycle",
    "rs_single_criterion", "rs_triple_criterion", "shift_criterion",
    "xh_lambda_criterion",
    "FamilyInstance", "LambdaSpec", "build_additive", "build_jieguo",
    "build_rs_2to3m", "build_shift", "build_trace_theta", "build_xh_lambda",
    "build_xq_h_alpha", "lambda_poly", "lambda_spec", "search_k_2to3m",
    "solve_jieguo_congruences",
    "CrossCheckReport", "FuzzSummary", "FuzzTrial", "OracleVerdict",
    "cross_check", "exhaustive_verdict", "random_family_fuzz",
    "__version__",
]

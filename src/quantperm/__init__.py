"""Exact quantile tables, admissible permutations and triangular-array
representations of multinomial partial sums.

The pipeline: an OutcomeModel fixes m = 2^(M+1) exactly-valued outcomes
and their bit patterns; build_value_table sorts the n-fold sum values
into classes with multinomial counts; the index machinery ranks the
2^(n(M+1)) outcome sequences on the step side (sorted) and weight side
(decoded); admissible permutations carry one side onto the other, with
F_n the canonical one computable lazily in polynomially many tau1
queries; an explicit admissible permutation is also its representation,
the outcome-rank array whose rows decode its levels and satisfy the
row-sum, marginal and bijection invariants.
"""

from .errors import DomainError
from .exactnum import ExactScalar, parse_scalar
from .outcomes import (
    HaarSpec,
    OutcomeModel,
    build_haar,
    build_manual,
    builtin_model,
    haar_outcome,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    theta_squared,
)
from .multinomial import (
    OracleStats,
    ValueTable,
    build_value_table,
    composition_count,
    enumerate_compositions,
    multinomial_coefficient,
)
from .indexing import (
    alpha,
    beta_bruteforce,
    beta_fast,
    beta_fast_trace,
    decode_weight_index,
    encode_weight_index,
    enum_a,
    enum_b,
    is_n,
    is_star,
    istep,
    iweight,
    ria,
    rib,
    tau2,
)
from .permutations import (
    AdmissiblePermutation,
    canonical_permutation,
    count_admissible,
    f_perm,
    gamma_relation,
    inv_f,
    make_admissible,
    random_admissible,
)
from .layout import BitString, LayoutModel, eval_partial_sum, weight_index_of_bits
from .representation import (
    clt_table,
    normal_cdf,
    perm_from_representation,
    representation_from_perm,
)
from .bench import BenchRecord, bench_scaling, fit_loglog_slope, selftest

__version__ = "0.1.0"

__all__ = [
    "AdmissiblePermutation",
    "BenchRecord",
    "BitString",
    "DomainError",
    "ExactScalar",
    "HaarSpec",
    "LayoutModel",
    "OracleStats",
    "OutcomeModel",
    "ValueTable",
    "alpha",
    "bench_scaling",
    "beta_bruteforce",
    "beta_fast",
    "beta_fast_trace",
    "build_haar",
    "build_manual",
    "build_value_table",
    "builtin_model",
    "canonical_permutation",
    "clt_table",
    "composition_count",
    "count_admissible",
    "decode_weight_index",
    "encode_weight_index",
    "enum_a",
    "enum_b",
    "enumerate_compositions",
    "eval_partial_sum",
    "f_perm",
    "fit_loglog_slope",
    "gamma_relation",
    "haar_outcome",
    "inv_f",
    "is_n",
    "is_star",
    "istep",
    "iweight",
    "load_model",
    "make_admissible",
    "model_from_json",
    "model_to_json",
    "multinomial_coefficient",
    "normal_cdf",
    "parse_scalar",
    "perm_from_representation",
    "random_admissible",
    "representation_from_perm",
    "ria",
    "rib",
    "save_model",
    "selftest",
    "tau2",
    "theta_squared",
    "weight_index_of_bits",
]

"""Grid evaluation codes over finite fields, the CSS codes they induce,
locality certification, and exact bound checking."""

from .bounds import (
    BOUND_REGISTRY,
    BoundInput,
    BoundReport,
    classical_singleton_lrc,
    evaluate_all,
    gg_bound,
    griesmer_like,
    luo_css_bound,
    plotkin_like,
    plotkin_profile,
    q_singleton_pure,
    rational_to_json,
    sphere_packing_like,
    thm3_slack_lower_bound,
    weight_constrained_locality,
)
from .css import (
    CssRecord,
    LiftResult,
    css_from_grid,
    css_record_to_json,
    hermitian_lift,
)
from .errors import (
    AssertionFailed,
    BudgetError,
    BudgetExceeded,
    InternalCheckError,
    InvalidParameter,
    NotDualContaining,
    NotLocallyRecoverable,
    QlrcError,
    SearchBudgetExceeded,
)
from .gf import (
    FieldPair,
    FieldSpec,
    field_from_json,
    field_to_json,
    make_field,
    quadratic_extension,
    split_prime_power,
)
from .grid_codes import (
    DeltaParams,
    GridCodeRecord,
    GridParams,
    Monomial,
    build_code,
    build_grid_record,
    closed_forms,
    delta_perp_set,
    delta_set,
    make_delta_params,
    make_grid_params,
    monomial_distance,
    record_to_json,
    twist_vector,
    valid_a_values,
    valid_b_values,
)
from .linear_codes import (
    LinearCode,
    contains,
    coset_min_weight_bruteforce,
    default_budget,
    euclidean_dual,
    frobenius_map,
    from_spanning_set,
    full_code,
    hermitian_dual,
    in_row_space,
    min_distance_bruteforce,
    weight,
    zero_code,
)
from .lrc import (
    HeavyRowResult,
    LemmaFamilyCode,
    LocalityCertificate,
    LocalityEntry,
    certify_dual_words,
    certify_grid_lines,
    certify_locality,
    heavy_row_check,
    lemma_family,
)
from .verifier import (
    SweepResult,
    SweepSpec,
    VerdictRow,
    check_theorem,
    prime_powers,
    run_sweep,
)

__version__ = "0.1.0"

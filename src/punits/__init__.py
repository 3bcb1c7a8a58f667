"""Exact structure of V(Z_{p^e}G) for finite abelian p-groups G.

The theory module computes the closed-form invariant decomposition of the
normalized unit group; the oracle module re-derives it by exhaustive
enumeration at desk scale and verifies every closed form the library
implements.  See the README for the CLI and the acceptance suite.
"""

from .pgroup import (
    GroupSpec,
    agemo_order_exp,
    cyclic_factor_count,
    element_order,
    element_pow,
    enumerate_elements,
    omega_order_exp,
)
from .ring import (
    RingElement,
    RingSpec,
    augmentation,
    binomial_p_power,
    is_normalized_unit,
    lemma9_predicted_order,
    mul,
    p_reduced_factorization,
    reduce_mod,
    unit_inverse,
    unit_order,
)
from .zpelin import (
    ResidueMatrix,
    howell_form,
    ideal_power_generators,
    module_membership,
    module_size_exp,
    nilpotency_index,
)
from .theory import (
    AbelianInvariants,
    StructureReport,
    dimension_subgroup,
    p_rank_vzp,
    s_and_l,
    structure_report,
    v_invariants,
    v_order_exp,
    v_p_torsion_exp,
    vzp_factor_counts,
)
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    OrderHistogram,
    VerificationReport,
    enumerate_units,
    invariants_from_histogram,
    order_histogram,
    plan_checks,
    verify_check,
)
from .cli import (
    InstanceReport,
    SuiteConfig,
    SuiteInstance,
    default_suite_config,
    emit_report,
    parse_report_json,
    run_suite,
)

__version__ = "0.1.0"

"""Deterministic local quasi hidden variable models for nonsignaling scenarios.

The package verifies the general nonsignaling consistency condition of a
finite multipartite correlation scenario, constructs a single normalized
signed measure whose coordinate-projection marginals reproduce every joint
distribution, diagnoses it (Jordan split, total variation, product
expectations), determinizes stochastic one-space models, generates
quantum Born-rule families at small dimension, and decides by linear
programming whether a nonnegative (local hidden variable) measure exists.
"""

from .boxes import (
    CHSH_SCENARIO,
    chsh_local_vertices,
    chsh_pr_vertices,
    chsh_value,
    isotropic_box,
    local_deterministic_vertex,
    mix_families,
    pr_box,
    pr_type_vertex,
    random_nonsignaling_family,
    random_scenario_family,
    signaling_example,
    tensor_family,
    uniform_family,
)
from .construct import (
    DEFAULT_ATOM_BUDGET,
    DeterministicLqHVModel,
    JordanPair,
    SignedMeasure,
    StochasticLqHVModel,
    VerificationReport,
    build_deterministic_measure,
    coefficient,
    coefficient_identity_sum,
    coefficient_table,
    determinize,
    induced_family,
    jordan_decompose,
    product_expectation_family,
    product_expectation_model,
    verify_marginals,
)
from .errors import (
    AtomBudgetError,
    InputError,
    LqhvError,
    RepresentationError,
    SignalingError,
)
from .lp import LhvVerdict, certificate_gap, lhv_feasible, marginal_matrix
from .numeric import FLOAT, RATIONAL
from .quantum import (
    POVM,
    DensityMatrix,
    QuantumScenario,
    born_family,
    chsh_optimal_scenario,
    maximally_mixed,
    projective_qubit_povm,
    singlet_state,
)
from .scenario import (
    DistributionFamily,
    EprReport,
    MarginalFamily,
    Scenario,
    SettingTuple,
    Witness,
    check_nonsignaling,
    compare_scenarios_epr,
    convert_family,
    extract_marginal_family,
)

__version__ = "0.1.0"

__all__ = [
    "AtomBudgetError",
    "CHSH_SCENARIO",
    "DEFAULT_ATOM_BUDGET",
    "DensityMatrix",
    "DeterministicLqHVModel",
    "DistributionFamily",
    "EprReport",
    "FLOAT",
    "InputError",
    "JordanPair",
    "LhvVerdict",
    "LqhvError",
    "MarginalFamily",
    "POVM",
    "QuantumScenario",
    "RATIONAL",
    "RepresentationError",
    "Scenario",
    "SettingTuple",
    "SignalingError",
    "SignedMeasure",
    "StochasticLqHVModel",
    "VerificationReport",
    "Witness",
    "born_family",
    "build_deterministic_measure",
    "certificate_gap",
    "check_nonsignaling",
    "chsh_local_vertices",
    "chsh_optimal_scenario",
    "chsh_pr_vertices",
    "chsh_value",
    "coefficient",
    "coefficient_identity_sum",
    "coefficient_table",
    "compare_scenarios_epr",
    "convert_family",
    "determinize",
    "extract_marginal_family",
    "induced_family",
    "isotropic_box",
    "jordan_decompose",
    "lhv_feasible",
    "local_deterministic_vertex",
    "marginal_matrix",
    "maximally_mixed",
    "mix_families",
    "pr_box",
    "pr_type_vertex",
    "product_expectation_family",
    "product_expectation_model",
    "projective_qubit_povm",
    "random_nonsignaling_family",
    "random_scenario_family",
    "signaling_example",
    "singlet_state",
    "tensor_family",
    "uniform_family",
    "verify_marginals",
]

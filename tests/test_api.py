"""The public API, pinned: adding or removing an export shows up in this diff.

Submodules such as bellkit.lhv are importable but not part of __all__.
"""
import bellkit as bk

PUBLIC_API = [
    "BellInequality",
    "ConditionReport",
    "ConstructionTree",
    "CorrelationTable",
    "CorrelationTensor",
    "DensityMatrix",
    "ExperimentLayout",
    "GhzFamily",
    "InequalityViolated",
    "Leaf",
    "LhvModel",
    "MaximizationResult",
    "Node",
    "Observable",
    "PolytopeResult",
    "PureState",
    "ResourceLimitError",
    "SettingVector",
    "SignFunction",
    "TightnessReport",
    "build_442",
    "build_recursive",
    "check_tightness",
    "condition_multisetting_CN",
    "condition_two_qubit",
    "condition_two_setting_N",
    "construct_lhv_model",
    "correlation_tensor",
    "density_from_pure",
    "enumerate_sign_functions",
    "enumerate_vertices",
    "evaluate_inequality",
    "evaluate_model",
    "evaluate_sign_inequality",
    "general_bell_lhs",
    "ghz_state",
    "ghz_tensor_analytic",
    "hidden_probabilities",
    "maximize_bell_value",
    "mix_with_white_noise",
    "most_violated_sign_inequality",
    "polytope_membership",
    "quantum_correlation",
    "reduce_settings",
    "scarani_gisin_threshold",
    "sign_inequality",
    "singlet",
    "transformed_table",
    "tree_442",
    "tree_8842",
    "tree_88444",
    "tree_chain",
]


def test_public_api_is_pinned():
    assert sorted(bk.__all__) == PUBLIC_API


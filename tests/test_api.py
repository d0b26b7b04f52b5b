"""The public API, pinned: adding or removing an export shows up in this diff.

Submodules such as bellkit.lhv are importable but not part of __all__.
"""
import dataclasses

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
    "SignFunction",
    "TightnessReport",
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
    "general_bell_lhs",
    "ghz_state",
    "ghz_tensor_analytic",
    "maximize_bell_value",
    "mix_with_white_noise",
    "most_violated_sign_inequality",
    "polytope_membership",
    "scarani_gisin_threshold",
    "sign_inequality",
    "singlet",
    "tree_8842",
    "tree_88444",
    "tree_chain",
]


def test_public_api_is_pinned():
    assert sorted(bk.__all__) == PUBLIC_API


def test_condition_report_fields_and_json_keys_are_pinned():
    """upper and the per-restart fields are Python-only: the JSON keys, and so
    the stdout of `condition` and `scan`, do not include them."""
    fields = [f.name for f in dataclasses.fields(bk.ConditionReport)]
    assert fields == ["kind", "value", "upper", "violated", "frames", "certified", "seed",
                      "restart_values", "converged", "restarts_at_best"]
    report = bk.condition_two_setting_N(bk.correlation_tensor(bk.ghz_state(bk.GhzFamily(3, 0.3))),
                                        restarts=3)
    assert list(report.to_json_dict()) == ["kind", "value", "violated", "frames", "certified",
                                           "seed"]

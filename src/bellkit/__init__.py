"""Correlation-function Bell inequalities for N qubits.

Construction of two-setting and multisetting inequality families, explicit
local hidden-variable models and polytope membership for correlation data,
and quantum violation conditions on correlation tensors.
"""

from types import ModuleType as _ModuleType

from .errors import InequalityViolated, ResourceLimitError
from .families import (
    GhzFamily,
    ghz_state,
    ghz_tensor_analytic,
    mix_with_white_noise,
    scarani_gisin_threshold,
    singlet,
)
from .lhv import (
    BellInequality,
    CorrelationTable,
    ExperimentLayout,
    LhvModel,
    PolytopeResult,
    SignFunction,
    construct_lhv_model,
    enumerate_sign_functions,
    enumerate_vertices,
    evaluate_inequality,
    evaluate_model,
    evaluate_sign_inequality,
    general_bell_lhs,
    hidden_probabilities,
    most_violated_sign_inequality,
    polytope_membership,
    sign_inequality,
    transformed_table,
)
from .multiset import (
    ConstructionTree,
    Leaf,
    Node,
    Observable,
    TightnessReport,
    build_442,
    build_recursive,
    check_tightness,
    reduce_settings,
    tree_442,
    tree_8842,
    tree_88444,
    tree_chain,
)
from .qcond import (
    ConditionReport,
    MaximizationResult,
    condition_multisetting_CN,
    condition_two_qubit,
    condition_two_setting_N,
    maximize_bell_value,
)
from .qstate import (
    CorrelationTensor,
    DensityMatrix,
    PureState,
    SettingVector,
    correlation_tensor,
    density_from_pure,
    quantum_correlation,
)

__version__ = "0.1.0"

# the public names, not the submodules that importing them binds here
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]

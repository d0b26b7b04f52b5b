"""The limit policy: every cap and iteration budget is a name in bellkit.limits."""
import ast
from pathlib import Path

import pytest

import bellkit
from bellkit import limits
from bellkit.errors import ResourceLimitError
from bellkit.lhv import ExperimentLayout, _vertex_factors, enumerate_sign_functions
from bellkit.multiset import layout_tree
from bellkit.qcond import check_restarts
from bellkit.qstate import check_qubit_cap

SRC = Path(bellkit.__file__).parent

# name -> value; moving a limit means editing this table
POLICY = {
    "MAX_COUNT": 2**20,
    "MAX_SWEEPS": 500,
    "MAX_PAIR_ITERS": 30,
}


def test_policy_values():
    names = {name: getattr(limits, name) for name in dir(limits) if name.isupper()}
    assert names == POLICY
    assert all(type(value) is int for value in names.values())
    assert [limits.max_pivots(m, n) for m, n in ((1, 1), (2, 3), (40, 81))] == [300, 450, 6250]


def test_no_cap_defined_outside_the_policy_module():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "limits.py":
            continue
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            found += [f"{path.name}:{node.lineno}: {t.id}" for t in targets
                      if isinstance(t, ast.Name) and t.id.startswith("MAX_")]
    assert found == []


def test_caps_at_and_one_past_the_default_count():
    check_qubit_cap(10)
    with pytest.raises(ResourceLimitError, match="capped at 10 qubits"):
        check_qubit_cap(11)
    layout_tree((2,) * 20)
    with pytest.raises(ResourceLimitError, match="capped at 1048576 coefficient entries, got 2097152"):
        layout_tree((2,) * 21)
    _vertex_factors(ExperimentLayout((10, 10)))
    with pytest.raises(ResourceLimitError, match="2097152 strategies, cap is 1048576"):
        _vertex_factors(ExperimentLayout((10, 11)))
    check_restarts(2**20, 0)
    with pytest.raises(ResourceLimitError, match="capped at 1048576, got 1048577"):
        check_restarts(2**20 + 1, 0)
    next(enumerate_sign_functions(4))
    with pytest.raises(ResourceLimitError, match="capped at arity 4"):
        next(enumerate_sign_functions(5))


def test_derived_caps_follow_the_count(monkeypatch):
    """The qubit cap is the largest N with 4^N <= MAX_COUNT, the arity cap the
    largest N with 2^(2^N) <= MAX_COUNT (-1 when even N = 0 is too many)."""
    for count in [*range(1, 300), 2**20 - 1, 2**20 + 1, 2**32]:
        monkeypatch.setattr(limits, "MAX_COUNT", count)
        qubits = max(n for n in range(40) if 4**n <= count)
        check_qubit_cap(qubits)
        with pytest.raises(ResourceLimitError, match=f"capped at {qubits} qubits"):
            check_qubit_cap(qubits + 1)
        arity = max((n for n in range(7) if 2 ** 2**n <= count), default=-1)
        if arity >= 1:
            next(enumerate_sign_functions(arity))
        with pytest.raises(ResourceLimitError, match=f"capped at arity {arity}"):
            next(enumerate_sign_functions(arity + 1))

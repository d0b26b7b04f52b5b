"""The tolerance policy: every threshold is a name in bellkit.tolerance."""
import ast
from pathlib import Path

import bellkit
from bellkit import tolerance

SRC = Path(bellkit.__file__).parent

# name -> value; moving a threshold means editing this table
POLICY = {
    "BOUND_TOL": 1e-9,
    "EXACT_TOL": 1e-12,
    "PSD_TOL": 1e-10,
    "SWEEP_TOL": 1e-10,
    "ZERO_TOL": 1e-14,
    "ALPHA_SLACK": 1e-4,
}


def test_no_tolerance_literal_outside_the_policy_module():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tolerance.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0 < abs(node.value) < 1e-3):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def test_policy_values():
    names = {name: getattr(tolerance, name) for name in dir(tolerance) if name.isupper()}
    assert names == POLICY
    assert all(type(value) is float for value in names.values())

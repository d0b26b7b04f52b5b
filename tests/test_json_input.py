"""The exit contract of every JSON reader, fuzzed, and the one place numbers are read.

Each command that reads a JSON document is run in process on mutations of a
valid one, under the suite's filterwarnings = error, so a warning is a
failure too.  Whatever the mutation, the command exits 0, 2, 3 or 4 without
an exception; exits 2 and 4 print nothing on stdout, and exit 2 prints one
"error:" line.  A document its reader accepts comes back from to_json_dict
with the numbers it went in with.
"""
import ast
import contextlib
import copy
import io
import json
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import bellkit
import bellkit as bk
from bellkit import cli

SRC = Path(bellkit.__file__).parent

SINGLET_TENSOR = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]

#: command -> (argv, the reader it runs, a valid document)
COMMANDS = {
    "lhv": (["lhv", "--table", "-"], bk.CorrelationTable.from_json_dict,
            {"layout": [2, 2], "values": [[0.1, 0.2], [-0.3, 0.4]]}),
    "maximize": (["maximize", "--inequality", "-", "--state", "singlet", "--restarts", "2"],
                 bk.BellInequality.from_json_dict,
                 {"layout": [2, 2], "coefficients": [[1, 1], [1, -1]], "bound": 2}),
    "tensor": (["tensor", "--state-file", "-"], bk.PureState.from_json_dict,
               {"n_qubits": 2, "amplitudes": [[0.6, 0], [0, 0], [0, 0], [0, 0.8]]}),
    "condition": (["condition", "--kind", "two_setting_NS_2qubit", "--tensor-file", "-"],
                  bk.CorrelationTensor.from_json_dict,
                  {"n_qubits": 2, "full_components": SINGLET_TENSOR}),
}

#: what a mutation may put in place of a value: numbers a reader takes, a bool,
#: a string, null, other containers, huge and whole-valued numbers, non-finite ones
REPLACEMENTS = [0, 1, -1, 3, 0.25, -0.0, 2.0, True, False, "0.1", "2", None, {}, {"a": 1}, [],
                [1.0], [[0.5]], 1e300, -1e300, 10**400, -(10**400), 2**63, -(2**63), 2**63 - 1,
                1e19, float("nan"), float("inf"), -float("inf")]

#: replace is drawn as often as the three ops that change the nesting together
OPS = ["replace"] * 3 + ["drop", "append", "wrap"]


def paths(value, prefix=()):
    """Every path into nested dicts and lists, the root () first."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from paths(item, prefix + (key,))


def mutate(doc, pick: int, op: str, replacement):
    """doc with one op applied at the pick-th path: drop the key or entry, replace
    the value, append a copy of a list's last entry (or a number), or wrap it in a list."""
    all_paths, replacement = list(paths(doc)), copy.deepcopy(replacement)
    path = all_paths[pick % len(all_paths)]
    if not path:
        return replacement if op == "replace" else [doc]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    if op == "drop":
        del parent[key]
    elif op == "replace":
        parent[key] = replacement
    elif op == "append" and isinstance(value, list):
        value.append(copy.deepcopy(value[-1]) if value else 0.5)
    else:
        parent[key] = [value]
    return doc


def as_floats(value):
    """value with every number as a float, so that 2, 2.0 and an int64 compare equal."""
    if isinstance(value, dict):
        return {key: as_floats(item) for key, item in value.items()}
    if isinstance(value, list):
        return [as_floats(item) for item in value]
    return float(value)


def run_main(argv, text):
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)),
       st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(OPS),
                          st.sampled_from(range(len(REPLACEMENTS)))), min_size=1, max_size=2))
def test_mutated_documents_keep_the_exit_contract(command, mutations):
    argv, reader, valid = COMMANDS[command]
    doc = copy.deepcopy(valid)
    for pick, op, which in mutations:
        doc = mutate(doc, pick, op, REPLACEMENTS[which])
    text = json.dumps(doc)
    code, out, err = run_main(argv, text)
    assert code in (0, 2, 3, 4), (code, err)
    assert "Traceback" not in err
    if code in (2, 4):
        assert out == ""
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    try:
        back = reader(json.loads(text)).to_json_dict()
    except (ValueError, bk.ResourceLimitError):
        assert code in (2, 4), (code, out)
        return
    given_doc = json.loads(text)
    assert as_floats(back) == as_floats({key: given_doc[key] for key in back})


def test_the_valid_documents_are_accepted():
    for argv, reader, valid in COMMANDS.values():
        code, out, err = run_main(argv, json.dumps(valid))
        assert code in (0, 3) and out, (argv, err)
        assert as_floats(reader(valid).to_json_dict()) == as_floats(valid)


def test_no_json_reader_converts_numbers_itself():
    """from_json_dict and from_json_list look fields up and call a constructor;
    numbers are read only by qstate.json_array and json_int, so no reader calls numpy."""
    found, readers = [], 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in ("from_json_dict",
                                                                   "from_json_list"):
                readers += 1
                found += [f"{path.name}:{name.lineno}: {name.id}" for name in ast.walk(node)
                          if isinstance(name, ast.Name) and name.id in ("np", "numpy")]
    assert readers == 5
    assert found == []


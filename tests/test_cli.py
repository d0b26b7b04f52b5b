"""End-to-end command-line behavior: schemas, exit codes, reproducibility."""
import hashlib
import importlib.util
import io
import json
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellkit as bk
from bellkit.multiset import layout_tree
from bellkit.tolerance import BOUND_TOL


def run_cli(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "bellkit.cli", *args],
        capture_output=True, text=True, input=stdin,
    )
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# tensor


def test_tensor_singlet():
    code, out, _ = run_cli("tensor", "--state", "singlet")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"n_qubits", "full_components"}
    corr = np.array(data["full_components"])[1:, 1:]
    assert np.allclose(corr, -np.eye(3), atol=1e-12)


def test_tensor_ghz_spec():
    code, out, _ = run_cli("tensor", "--state", "ghz:N=2,alpha=0.7854")
    assert code == 0
    comp = np.array(json.loads(out)["full_components"])
    assert comp[1, 1] == pytest.approx(1.0, abs=1e-4)
    assert comp[2, 2] == pytest.approx(-1.0, abs=1e-4)
    assert comp[3, 3] == pytest.approx(1.0, abs=1e-9)


def test_tensor_from_state_file_stdin():
    state = bk.ghz_state(bk.GhzFamily(2, 0.3))
    code, out, _ = run_cli("tensor", "--state-file", "-",
                           stdin=json.dumps(state.to_json_dict()))
    assert code == 0
    comp = np.array(json.loads(out)["full_components"])
    assert comp[1, 1] == pytest.approx(np.sin(0.6), abs=1e-12)


def test_tensor_rejects_non_finite_state_file():
    code, out, err = run_cli("tensor", "--state-file", "-",
                             stdin='{"n_qubits":1,"amplitudes":[[NaN,0],[0,0]]}')
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_tensor_malformed_spec():
    code, _, err = run_cli("tensor", "--state", "ghz:N=oops,alpha=0.1")
    assert code == 2
    assert "error" in err

    code, _, _ = run_cli("tensor", "--state", "w:N=3")
    assert code == 2

    code, _, _ = run_cli("tensor")
    assert code == 2


@pytest.mark.parametrize("spec, message", [
    ("ghz:N=3,alpha=0.3,alpha=0.4",
     "parameter 'alpha' given twice in state spec 'ghz:N=3,alpha=0.3,alpha=0.4'"),
    ("noise:v=0.5(ghz:N=3,N=4,alpha=0.3)",
     "parameter 'N' given twice in state spec 'ghz:N=3,N=4,alpha=0.3'"),
    ("ghz:N=3,n=4,alpha=0.4", "ghz spec takes one of 'N' and 'n', got both in "
     "'ghz:N=3,n=4,alpha=0.4'"),
], ids=["alpha twice", "N twice under noise", "N and n"])
@pytest.mark.parametrize("command", [["tensor"], ["condition", "--kind", "multisetting_CN"]],
                         ids=["tensor", "condition"])
def test_state_spec_refuses_a_key_given_twice(capsys, command, spec, message):
    """A repeated key, or N next to n, is an input error, not a silent last-one-wins."""
    from bellkit import cli

    assert cli.main([*command, "--state", spec]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_tensor_noise_spec_round_trip():
    code, out, _ = run_cli("tensor", "--state", "noise:v=0.5(ghz:N=2,alpha=0.7854)")
    assert code == 0
    comp = np.array(json.loads(out)["full_components"])
    assert comp[3, 3] == pytest.approx(0.5, abs=1e-9)
    assert comp[0, 0] == 1.0


# ---------------------------------------------------------------------------
# lhv


def test_lhv_zero_table_model():
    table = {"layout": [2, 2], "values": [[0.0, 0.0], [0.0, 0.0]]}
    code, out, _ = run_cli("lhv", "--table", "-", stdin=json.dumps(table))
    assert code == 0
    model = json.loads(out)
    assert model == [{"strategy": [0, 0], "weight": 0.5}, {"strategy": [3, 0], "weight": 0.5}]


def test_lhv_chsh_violation_certificate():
    v = 1 / np.sqrt(2)
    table = {"layout": [2, 2], "values": [[v, v], [v, -v]]}
    code, out, err = run_cli("lhv", "--table", "-", stdin=json.dumps(table))
    assert code == 3
    cert = json.loads(out)
    assert set(cert) == {"layout", "coefficients", "bound"}
    assert cert["coefficients"] == [[2, 2], [2, -2]]
    assert cert["bound"] == 4
    assert "violation" in err


def test_lhv_multisetting_layout_routes_to_lp():
    v = 1 / np.sqrt(2)
    table = {"layout": [3, 2], "values": [[v, v], [v, -v], [1.0, 1.0]]}
    code, out, _ = run_cli("lhv", "--table", "-", stdin=json.dumps(table))
    assert code == 3
    cert = json.loads(out)
    assert cert["layout"] == [3, 2]

    inside = {"layout": [3, 2], "values": [[0.0, 0.0]] * 3}
    code, out, _ = run_cli("lhv", "--table", "-", stdin=json.dumps(inside))
    assert code == 0


def test_lhv_bad_inputs():
    code, _, _ = run_cli("lhv", "--table", "-", stdin="{not json")
    assert code == 2
    code, _, _ = run_cli("lhv", "--table", "-",
                         stdin=json.dumps({"layout": [2, 2], "values": [[2.0, 0], [0, 0]]}))
    assert code == 2
    code, _, _ = run_cli("lhv", "--table", "/nonexistent/path.json")
    assert code == 2


def test_lhv_rejects_non_finite_table():
    for token in ("NaN", "Infinity", "-Infinity"):
        code, out, err = run_cli("lhv", "--table", "-",
                                 stdin='{"layout":[2,2],"values":[[%s,0],[0,0]]}' % token)
        assert code == 2
        assert out == ""
        assert "finite" in err


def test_lhv_closed_form_model_of_2_to_the_14_strategies_fits_in_2_gib():
    """E = 1 at the first settings and 0 elsewhere has |f(s)| = 1 at every
    hidden sign pattern, so its model mixes all 2^14 of them.  The run gets a
    2 GiB address space: the model check's prediction must grow with the
    table, as one Walsh-Hadamard transform does, not with table times
    strategies, whose int64 vertex rows would take 2 GiB."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    values = np.zeros((2,) * 14)
    values.flat[0] = 1.0
    table = json.dumps({"layout": [2] * 14, "values": values.tolist()})
    proc = subprocess.run([sys.executable, "-m", "bellkit.cli", "lhv", "--table", "-"],
                          input=table, capture_output=True, text=True, preexec_fn=limit,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    model = json.loads(proc.stdout)
    assert len(model) == 2**14 and {record["weight"] for record in model} == {2.0**-14}


# ---------------------------------------------------------------------------
# generate


def test_generate_default_442_with_tightness():
    code, out, _ = run_cli("generate", "--layout", "4,4,2", "--check-tight")
    assert code == 0
    data = json.loads(out)
    assert data["inequality"]["bound"] == 16
    assert data["tightness"] == {
        "is_tight": True,
        "vertex_count": 256,
        "saturating_count": 128,
        "affine_rank": 32,
        "dimension": 32,
    }


def test_generate_two_setting_layout():
    code, out, _ = run_cli("generate", "--layout", "2,2", "--sign-fn", "0001")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == [[2, 2], [2, -2]]
    assert data["bound"] == 4


def test_generate_8842():
    code, out, _ = run_cli("generate", "--layout", "8,8,4,2")
    assert code == 0
    assert json.loads(out)["bound"] == 64


def test_generate_88444():
    code, out, _ = run_cli("generate", "--layout", "8,8,4,4,4")
    assert code == 0
    assert json.loads(out)["bound"] == 256


def test_generate_bad_requests():
    code, _, _ = run_cli("generate", "--layout", "4,4,2", "--sign-fn", "001",
                         "--sign-fn", "0001", "--sign-fn", "0001")
    assert code == 2
    code, _, _ = run_cli("generate", "--layout", "5,5")
    assert code == 2
    code, _, _ = run_cli("generate", "--layout", "4,4,2", "--sign-fn", "0001")
    assert code == 2


def test_generate_tightness_resource_cap():
    code, _, err = run_cli("generate", "--layout", "8,8,4,2", "--check-tight")
    assert code == 4
    assert "resource" in err
    # 2^46 strategies, refused before any vertex is enumerated
    code, out, err = run_cli("generate", "--layout", "16,16,8,4,2", "--check-tight")
    assert (code, out) == (4, "")
    assert err == "resource cap: layout has 70368744177664 strategies, cap is 1048576\n"


# ---------------------------------------------------------------------------
# condition / scan / maximize


def test_condition_singlet_violated_exit():
    code, out, _ = run_cli("condition", "--kind", "two_setting_NS_2qubit",
                           "--state", "singlet")
    assert code == 3
    report = json.loads(out)
    assert set(report) == {"kind", "value", "violated", "frames", "certified", "seed"}
    assert report["value"] == pytest.approx(2.0, abs=1e-9)


def test_condition_not_violated_exit():
    code, out, _ = run_cli("condition", "--kind", "two_setting_sufficient_N",
                           "--state", "ghz:N=3,alpha=0.1", "--restarts", "8")
    assert code == 0
    assert json.loads(out)["violated"] is False


def test_condition_tensor_file_input():
    tensor = bk.correlation_tensor(bk.density_from_pure(bk.singlet()))
    code, out, _ = run_cli("condition", "--kind", "multisetting_CN", "--tensor-file", "-",
                           stdin=json.dumps(tensor.to_json_dict()))
    assert code == 3
    assert json.loads(out)["value"] == pytest.approx(2.0, abs=1e-9)


def test_condition_kind_size_mismatch():
    code, _, _ = run_cli("condition", "--kind", "two_setting_NS_2qubit",
                         "--state", "ghz:N=3,alpha=0.1")
    assert code == 2


@pytest.mark.parametrize("kind", ["two_setting_sufficient_N", "multisetting_CN"])
def test_condition_rejects_zero_restarts(kind):
    code, out, err = run_cli("condition", "--kind", kind, "--state", "ghz:N=3,alpha=0.3",
                             "--restarts", "0")
    assert code == 2
    assert out == ""
    assert "restart" in err


def test_scan_csv_shape_and_determinism():
    args = ("scan", "--family", "ghz", "--n", "2,3", "--alpha-steps", "4",
            "--restarts", "6")
    code, out, _ = run_cli(*args)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "family,N,alpha,kind,value,violated"
    assert len(lines) == 1 + 2 * 4 * 2
    row = lines[1].split(",")
    assert row[0] == "ghz" and row[1] == "2" and row[3] == "two_setting_sufficient_N"

    again = run_cli(*args)[1]
    assert again == out


def test_scan_rows_are_the_condition_values(capsys):
    """scan builds each point's tensor as condition --state ghz: does, so the bytes agree."""
    from bellkit import cli

    args = ["--restarts", "5", "--seed", "2"]
    assert cli.main(["scan", "--family", "ghz", "--n", "3,4,5", "--alpha-steps", "5",
                     "--alpha-min", "0.1", "--alpha-max", "0.78", *args]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 30
    for _, n, alpha, kind, value, violated in rows:
        code = cli.main(["condition", "--kind", kind, "--state", f"ghz:N={n},alpha={alpha}",
                         *args])
        out = capsys.readouterr().out
        assert f'\n  "value": {value},\n' in out
        assert f'\n  "violated": {violated}\n' in out
        assert code == (3 if violated == "true" else 0)


def test_scan_input_errors():
    assert run_cli("scan", "--family", "ghz", "--n", "3", "--alpha-steps", "1")[0] == 2
    assert run_cli("scan", "--family", "ghz", "--n", "")[0] == 2
    assert run_cli("scan", "--family", "ghz", "--n", "3", "--kinds", "bogus")[0] == 2
    assert run_cli("scan", "--family", "ghz", "--n", "3", "--alpha-max", "2.0")[0] == 2


def test_scan_alpha_range_is_the_ghz_spec_rule():
    # 0.7854 is accepted by --state ghz:, so scan takes it as an endpoint too
    args = ("scan", "--family", "ghz", "--n", "3", "--alpha-steps", "2", "--restarts", "2")
    code, out, _ = run_cli(*args, "--alpha-min", "0.7", "--alpha-max", "0.7854")
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 2 * 2
    assert run_cli(*args, "--alpha-min", "-0.1")[0] == 2
    assert run_cli(*args, "--alpha-min", "0.5", "--alpha-max", "0.4")[0] == 2


def test_maximize_chsh_singlet():
    gen = run_cli("generate", "--layout", "2,2")[1]
    code, out, err = run_cli("maximize", "--inequality", "-", "--state", "singlet",
                             "--restarts", "8", stdin=gen)
    assert code == 3
    result = json.loads(out)
    assert result["value"] == pytest.approx(4 * np.sqrt(2), abs=1e-6)
    assert "violation" in err


def test_maximize_no_violation_exit_zero():
    gen = run_cli("generate", "--layout", "2,2")[1]
    code, out, _ = run_cli("maximize", "--inequality", "-",
                           "--state", "noise:v=0.1(singlet)", "--restarts", "5", stdin=gen)
    assert code == 0
    assert json.loads(out)["value"] <= 4.0


def test_maximize_rejects_zero_restarts():
    gen = run_cli("generate", "--layout", "2,2")[1]
    code, out, err = run_cli("maximize", "--inequality", "-", "--state", "singlet",
                             "--restarts", "0", stdin=gen)
    assert code == 2
    assert out == ""
    assert "restart" in err


def test_maximize_layout_tensor_mismatch():
    gen = run_cli("generate", "--layout", "2,2")[1]
    code, _, _ = run_cli("maximize", "--inequality", "-",
                         "--state", "ghz:N=3,alpha=0.2", stdin=gen)
    assert code == 2


def test_maximize_refuses_a_value_past_float64_and_keeps_one_below(monkeypatch, capsys):
    """The coefficients sum to 4e308; the singlet's value, 2 sqrt2 1e308, is past
    float64, while 1% of it on a noisy singlet is not.  In process, so that a
    numpy overflow warning would fail the test."""
    from bellkit import cli

    text = '{"layout":[2,2],"coefficients":[[1e308,1e308],[1e308,-1e308]],"bound":1e308}'
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(["maximize", "--inequality", "-", "--state", "singlet"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the best value ") and err.endswith(" overflows float64\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(["maximize", "--inequality", "-", "--state", "noise:v=0.01(singlet)"]) == 0
    out, err = capsys.readouterr()
    value = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in stdout"))["value"]
    assert value == pytest.approx(2 * np.sqrt(2) * 1e306, rel=1e-12)
    assert err == ""


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "tensor.json"
    code, out, _ = run_cli("tensor", "--state", "singlet", "--out", str(target))
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["n_qubits"] == 2


def test_tensor_out_file_matches_stdout(tmp_path):
    target = tmp_path / "tensor.json"
    args = ("tensor", "--state", "noise:v=0.6(ghz:N=3,alpha=0.4)")
    code, out, _ = run_cli(*args)
    assert code == 0
    assert run_cli(*args, "--out", str(target)) == (0, "", "")
    assert target.read_text() == out


def test_generate_out_file_matches_stdout(tmp_path):
    target = tmp_path / "inequality.json"
    args = ("generate", "--layout", "4,4,2", "--check-tight")
    code, out, _ = run_cli(*args)
    assert code == 0
    assert run_cli(*args, "--out", str(target)) == (0, "", "")
    assert target.read_text() == out


#: entries whose reprs are easy to get wrong: signed zero, the smallest
#: subnormal, an exponent form, a non-terminating binary fraction, the bound -1
AWKWARD_FLOATS = [-0.0, 5e-324, 1e-17, 0.1, -1.0]
#: the int64 extremes json must write in full, and a small negative
AWKWARD_INTS = [2**63 - 1, -(2**63 - 1), -64]
ARRAY_SHAPES = [(2,), (2, 2, 2), (4, 4, 2), (8, 8, 4, 2), (8, 8, 4, 4, 4), (2, 1, 3)] + [
    (4,) * n for n in range(1, 7)]


def arrays_to_lists(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: arrays_to_lists(value) for key, value in obj.items()}
    return obj


@pytest.mark.parametrize("shape", ARRAY_SHAPES, ids=["x".join(map(str, s)) for s in ARRAY_SHAPES])
def test_array_writer_matches_json_dumps(shape):
    from bellkit.cli import _dump_json

    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    row, size = shape[-1], int(np.prod(shape))
    # first of all, first in a later row, last in a row, last of all
    spots = sorted({0, row, row - 1, size - 1} - {size})
    for awkward, zeros in ((AWKWARD_FLOATS, (0.0, -0.0)), (AWKWARD_INTS, (0,))):
        dtype = np.array(awkward).dtype
        dense = np.resize(np.array(awkward + [1, 2, 3], dtype=dtype), size)
        rng.shuffle(dense)
        # and values drawn at random: all distinct as floats, repeated as ints
        cases = [dense, (rng.standard_normal(size) * 1e3).astype(dtype)]
        # the zero leaves, whose parts are shared, in the spots among nonzero
        # leaves, and the awkward values in the spots among zeros
        for zero in zeros:
            case = np.resize(np.array(awkward[1:] + [3], dtype=dtype), size)
            case[spots] = zero
            cases.append(case)
        for value in awkward:
            case = np.zeros(size, dtype=dtype)
            case[spots] = value
            cases.append(case)
        for case in cases:
            array = case.reshape(shape)
            inequality = {"bound": 4, "coefficients": array, "layout": list(shape)}
            for payload in (array, inequality,
                            {"inequality": inequality, "tightness": {"is_tight": True}}):
                # compared line by line: pytest renders a diff of two long strings slowly
                got = _dump_json(payload).split("\n")
                want = json.dumps(arrays_to_lists(payload), indent=2, sort_keys=True) + "\n"
                assert got == want.split("\n")


@pytest.mark.parametrize("shape", [(2,), (2, 1, 3), (4, 4, 2), (4, 4, 4), (4,) * 5],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_array_writer_zero_subtrees_match_json_dumps(shape):
    """Arrays made mostly of zero subtrees: none but zeros, so the whole array
    is one; one nonzero leaf first or last in a row, in a plane and in the
    array; and -0.0, which keeps its repr, as the only nonzero leaf of a
    subtree that is otherwise zero."""
    from bellkit.cli import _dump_json

    middle = tuple(size // 2 for size in shape)
    # first and last leaves of a row, a plane and the whole array
    spots = {middle[:len(shape) - depth] + (end,) * depth
             for depth in {1, min(2, len(shape)), len(shape)} for end in (0, -1)}
    cases = []
    for dtype, value in ((np.int64, -7), (np.float64, 2.5)):
        cases.append(np.zeros(shape, dtype=dtype))
        for spot in spots:
            case = np.zeros(shape, dtype=dtype)
            case[spot] = value
            cases.append(case)
    for spot in spots:
        for other in (None, tuple(-1 - i for i in spot)):  # alone, or a leaf far off
            case = np.zeros(shape)
            if other is not None:
                case[other] = 0.1
            case[spot] = -0.0
            cases.append(case)
    for array in cases:
        inequality = {"bound": 4, "coefficients": array, "layout": list(shape)}
        for payload in (array, {"inequality": inequality, "tightness": {"is_tight": True}}):
            want = json.dumps(arrays_to_lists(payload), indent=2, sort_keys=True) + "\n"
            assert _dump_json(payload) == want


def test_array_writer_peak_memory():
    """Beyond its text, writing a 4**8 GHZ tensor holds two bytes a leaf (the
    nonzero mask and the unit starts), the texts of its zero subtrees and the
    parts of about 1 500 units: under 5 bytes a leaf.  A writer that makes one
    or two parts per leaf holds 13.5."""
    from bellkit.cli import _dump_json

    tensor = bk.correlation_tensor(bk.ghz_state(bk.GhzFamily(8, 0.3)), visibilities=(0.7,))
    payload = {"n_qubits": 8, "full_components": tensor.components}
    size = len(_dump_json(payload))
    tracemalloc.start()
    try:
        _dump_json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= size + 5 * 4**8


def test_byte_stable_outputs():
    for args in (
        ("tensor", "--state", "ghz:N=3,alpha=0.2"),
        ("generate", "--layout", "4,4,2", "--check-tight"),
        ("condition", "--kind", "multisetting_CN", "--state", "ghz:N=3,alpha=0.2",
         "--restarts", "5"),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second
        assert first[0] in (0, 3)


# every exit-2 path below reports one line on stderr and nothing on stdout;
# the argparse case prints its usage first, so only its last line is pinned
CHSH_JSON = json.dumps({"layout": [2, 2], "coefficients": [[1, 1], [1, -1]], "bound": 2})
TABLE_22 = json.dumps({"layout": [2, 2], "values": [[0.1, 0.1], [0.1, 0.1]]})
KINDS = "two_setting_NS_2qubit, two_setting_sufficient_N, multisetting_CN"
EXIT_2_LINES = [
    pytest.param(("scan", "--family", "ghz", "--n", "3", "--kinds", "bogus"), None,
                 f"error: unknown condition kind 'bogus'; choose from {KINDS}",
                 id="scan --family ghz --n 3 --kinds bogus"),
    # every kind is checked before the first grid point runs
    pytest.param(("scan", "--family", "ghz", "--n", "9", "--alpha-min", "0.6", "--alpha-steps",
                  "2", "--kinds", "multisetting_CN,foo", "--restarts", "50"), None,
                 f"error: unknown condition kind 'foo'; choose from {KINDS}",
                 id="scan --family ghz --n 9 --alpha-min 0.6 --alpha-steps 2 "
                    "--kinds multisetting_CN,foo --restarts 50"),
    pytest.param(("scan", "--family", "ghz", "--n", "3", "--alpha-max", "inf", "--alpha-steps", "2"),
                 None, "error: alpha must lie in [0, pi/4]",
                 id="scan --family ghz --n 3 --alpha-max inf --alpha-steps 2"),
    pytest.param(("scan", "--family", "ghz", "--n", "3", "--alpha-min", "nan", "--alpha-steps", "2"),
                 None, "error: alpha must lie in [0, pi/4]",
                 id="scan --family ghz --n 3 --alpha-min nan --alpha-steps 2"),
    pytest.param(("condition", "--kind", "two_setting_NS_2qubit", "--state", "ghz:N=3,alpha=0.1"),
                 None, "error: two_setting_NS_2qubit applies to 2-qubit tensors only",
                 id="condition --kind two_setting_NS_2qubit --state ghz:N=3,alpha=0.1"),
    pytest.param(("tensor", "--state", "noise:v=2(singlet)"), None,
                 "error: visibility must lie in [0, 1]", id="tensor --state noise:v=2(singlet)"),
    pytest.param(("maximize", "--inequality", "-", "--state", "ghz:N=3,alpha=0.3"), CHSH_JSON,
                 "error: inequality and tensor party counts differ",
                 id="maximize --inequality - --state ghz:N=3,alpha=0.3"),
    pytest.param(("generate", "--layout", "2,2", "--sign-fn", "01"), None,
                 "error: sign bitstring '01' has arity 1, expected 2",
                 id="generate --layout 2,2 --sign-fn 01"),
    pytest.param(("lhv", "--table", "-"), "{not json",
                 "error: invalid JSON in '-': Expecting property name enclosed in double quotes: "
                 "line 1 column 2 (char 1)", id="lhv --table -"),
    pytest.param(("generate", "--layout", "2,2", "--signs", "0001"), None,
                 "bellkit: error: unrecognized arguments: --signs 0001",
                 id="generate --layout 2,2 --signs 0001"),
    # non-finite inequalities
    pytest.param(("maximize", "--inequality", "-", "--state", "singlet"),
                 CHSH_JSON.replace("[1, 1]", "[NaN, 1]"),
                 "error: not a valid Bell inequality: coefficients must be finite",
                 id="maximize --inequality - --state singlet"),
    pytest.param(("maximize", "--inequality", "-", "--state", "noise:v=0.5(singlet)"),
                 CHSH_JSON.replace("[1, 1]", "[Infinity, 1]"),
                 "error: not a valid Bell inequality: coefficients must be finite",
                 id="maximize --inequality - --state noise:v=0.5(singlet)"),
    pytest.param(("maximize", "--inequality", "-", "--state", "ghz:N=2,alpha=0.3"),
                 CHSH_JSON.replace('"bound": 2', '"bound": Infinity'),
                 "error: not a valid Bell inequality: bound must be finite",
                 id="maximize --inequality - --state ghz:N=2,alpha=0.3"),
    # a negative seed, also where no generator would be drawn from (the N=2 closed form)
    pytest.param(("condition", "--kind", "multisetting_CN", "--state", "ghz:N=2,alpha=0.3",
                  "--seed", "-1"), None, "error: seed must be a non-negative integer, got -1",
                 id="condition --kind multisetting_CN --state ghz:N=2,alpha=0.3 --seed -1"),
    pytest.param(("condition", "--kind", "multisetting_CN", "--state", "ghz:N=3,alpha=0.3",
                  "--seed", "-1"), None, "error: seed must be a non-negative integer, got -1",
                 id="condition --kind multisetting_CN --state ghz:N=3,alpha=0.3 --seed -1"),
    pytest.param(("condition", "--kind", "two_setting_sufficient_N", "--state",
                  "ghz:N=3,alpha=0.3", "--seed", "-2"), None,
                 "error: seed must be a non-negative integer, got -2",
                 id="condition --kind two_setting_sufficient_N --state ghz:N=3,alpha=0.3 --seed -2"),
    pytest.param(("scan", "--family", "ghz", "--n", "2,3", "--alpha-steps", "2", "--seed", "-1"),
                 None, "error: seed must be a non-negative integer, got -1",
                 id="scan --family ghz --n 2,3 --alpha-steps 2 --seed -1"),
    pytest.param(("maximize", "--inequality", "-", "--state", "singlet", "--seed", "-1"),
                 CHSH_JSON, "error: seed must be a non-negative integer, got -1",
                 id="maximize --inequality - --state singlet --seed -1"),
    # --seed and --restarts are checked for every kind, also the one that takes neither
    pytest.param(("condition", "--kind", "two_setting_NS_2qubit", "--state", "singlet",
                  "--seed", "-1"), None, "error: seed must be a non-negative integer, got -1",
                 id="condition --kind two_setting_NS_2qubit --state singlet --seed -1"),
    pytest.param(("condition", "--kind", "two_setting_NS_2qubit", "--state", "singlet",
                  "--restarts", "0"), None, "error: need at least one restart",
                 id="condition --kind two_setting_NS_2qubit --state singlet --restarts 0"),
    pytest.param(("scan", "--family", "ghz", "--n", "2", "--kinds", "two_setting_NS_2qubit",
                  "--seed", "-1"), None, "error: seed must be a non-negative integer, got -1",
                 id="scan --family ghz --n 2 --kinds two_setting_NS_2qubit --seed -1"),
    # an --out that cannot be written: a missing directory, and a directory
    pytest.param(("tensor", "--state", "ghz:N=3,alpha=0.3", "--out", "/nonexistent/dir/x"), None,
                 "error: cannot write '/nonexistent/dir/x': "
                 "[Errno 2] No such file or directory: '/nonexistent/dir/x'",
                 id="tensor --state ghz:N=3,alpha=0.3 --out /nonexistent/dir/x"),
    pytest.param(("tensor", "--state", "ghz:N=3,alpha=0.3", "--out", "."), None,
                 "error: cannot write '.': [Errno 21] Is a directory: '.'",
                 id="tensor --state ghz:N=3,alpha=0.3 --out ."),
    # integer fields that are not integers; the --out paths are never written
    *[pytest.param(("lhv", "--table", "-", "--out", f"/nonexistent/layout-{label}"),
                   TABLE_22.replace('"layout": [2, 2]', f'"layout": {layout}'),
                   "error: not a valid correlation table: "
                   f"a layout entry must be an integer, got {got}",
                   id=f"lhv --table - --out /nonexistent/layout-{label}")
      for label, layout, got in [
          ("inf", "[Infinity, 2]", "inf"), ("1e400", "[1e400, 2]", "inf"),
          ("2.5", "[2.5, 2]", "2.5"), ("true", "[true, 2]", "True"),
          ("str", '["2", 2]', "'2'")]],
    pytest.param(("lhv", "--table", "-", "--out", "/nonexistent/layout-str22"),
                 TABLE_22.replace('"layout": [2, 2]', '"layout": "22"'),
                 "error: not a valid correlation table: a layout must be a list of integers, "
                 "got '22'", id="lhv --table - --out /nonexistent/layout-str22"),
    *[pytest.param(("maximize", "--inequality", "-", "--state", state),
                   CHSH_JSON.replace('"layout": [2, 2]', f'"layout": {layout}'),
                   f"error: not a valid Bell inequality: a layout entry must be an integer, got {got}",
                   id=f"maximize --inequality - --state {state}")
      for state, layout, got in [("ghz:N=2,alpha=0.1", "[Infinity, 2]", "inf"),
                                 ("ghz:N=2,alpha=0.2", "[2, 2.5]", "2.5")]],
    *[pytest.param(("tensor", "--state-file", "-", "--out", f"/nonexistent/n-{label}"),
                   '{"n_qubits": %s, "amplitudes": [[1, 0], [0, 0]]}' % n,
                   f"error: not a valid pure state: n_qubits must be an integer, got {got}",
                   id=f"tensor --state-file - --out /nonexistent/n-{label}")
      for label, n, got in [("inf", "Infinity", "inf"), ("1e400", "1e400", "inf"),
                            ("2.7", "2.7", "2.7"), ("str", '"1"', "'1'"), ("true", "true", "True")]],
    pytest.param(("condition", "--kind", "two_setting_NS_2qubit", "--tensor-file", "-"),
                 '{"n_qubits": Infinity, "full_components": [1, 0, 0, 0]}',
                 "error: not a valid correlation tensor: n_qubits must be an integer, got inf",
                 id="condition --kind two_setting_NS_2qubit --tensor-file -"),
    pytest.param(("condition", "--kind", "multisetting_CN", "--tensor-file", "-"),
                 '{"n_qubits": 1.5, "full_components": [1, 0, 0, 0]}',
                 "error: not a valid correlation tensor: n_qubits must be an integer, got 1.5",
                 id="condition --kind multisetting_CN --tensor-file -"),
    # integers past float64 where floats are read: not finite, as 1e400 is not
    pytest.param(("lhv", "--table", "-", "--out", "/nonexistent/value-1e400"),
                 TABLE_22.replace("0.1", "1" + "0" * 400, 1),
                 "error: not a valid correlation table: correlation values must be finite",
                 id="lhv --table - --out /nonexistent/value-1e400"),
    pytest.param(("tensor", "--state-file", "-", "--out", "/nonexistent/amplitude-1e400"),
                 '{"n_qubits": 1, "amplitudes": [[1%s, 0], [0, 0]]}' % ("0" * 400),
                 "error: not a valid pure state: amplitudes must be finite",
                 id="tensor --state-file - --out /nonexistent/amplitude-1e400"),
    # a bool where a float is read, which numpy alone would take as 1.0
    pytest.param(("lhv", "--table", "-", "--out", "/nonexistent/value-true"),
                 '{"layout": [2, 2], "values": [[true, 0], [0, 0]]}',
                 "error: not a valid correlation table: "
                 "correlation values must be numbers, not true or false",
                 id="lhv --table - --out /nonexistent/value-true"),
    pytest.param(("maximize", "--inequality", "-", "--state", "singlet",
                  "--out", "/nonexistent/coefficient-true"),
                 '{"layout": [2, 2], "coefficients": [[true, 1], [1, -1]], "bound": 2}',
                 "error: not a valid Bell inequality: "
                 "coefficients must be numbers, not true or false",
                 id="maximize --inequality - --out /nonexistent/coefficient-true"),
    pytest.param(("tensor", "--state-file", "-", "--out", "/nonexistent/amplitude-true"),
                 '{"n_qubits": 1, "amplitudes": [[true, 0], [0, 0]]}',
                 "error: not a valid pure state: amplitudes must be numbers, not true or false",
                 id="tensor --state-file - --out /nonexistent/amplitude-true"),
    pytest.param(("condition", "--kind", "two_setting_NS_2qubit", "--tensor-file", "-",
                  "--out", "/nonexistent/component-true"),
                 '{"n_qubits": 2, "full_components": '
                 '[[1, 0, 0, 0], [0, true, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}',
                 "error: not a valid correlation tensor: "
                 "components must be numbers, not true or false",
                 id="condition --tensor-file - --out /nonexistent/component-true"),
    # a string where a number is read, which numpy alone would parse
    pytest.param(("lhv", "--table", "-", "--out", "/nonexistent/value-str"),
                 '{"layout": [2, 2], "values": [["0.1", 0], [0, 0]]}',
                 "error: not a valid correlation table: correlation values must be numbers, "
                 "not a string", id="lhv --table - --out /nonexistent/value-str"),
    pytest.param(("condition", "--kind", "multisetting_CN", "--tensor-file", "-",
                  "--out", "/nonexistent/component-str"),
                 '{"n_qubits": 1, "full_components": [1, 0, 0, "0"]}',
                 "error: not a valid correlation tensor: components must be numbers, not a string",
                 id="condition --tensor-file - --out /nonexistent/component-str"),
    # the bound is read as the coefficients are, as one number
    *[pytest.param(("maximize", "--inequality", "-", "--state", "singlet",
                    "--out", f"/nonexistent/bound-{label}"),
                   CHSH_JSON.replace('"bound": 2', f'"bound": {bound}'),
                   f"error: not a valid Bell inequality: bound {fault}",
                   id=f"maximize --inequality - --out /nonexistent/bound-{label}")
      for label, bound, fault in [
          ("true", "true", "must be a number, not true or false"),
          ("str", '"2"', "must be a number, not a string"),
          ("list", "[2]", "must have shape (), got (1,)")]],
    # documents of the wrong form: each line names the fields, not a Python exception
    pytest.param(("lhv", "--table", "-", "--out", "/nonexistent/document-list"), "[1, 2]",
                 "error: not a valid correlation table: "
                 "expected an object with fields 'layout', 'values'",
                 id="lhv --table - --out /nonexistent/document-list"),
    pytest.param(("lhv", "--table", "-", "--out", "/nonexistent/no-values"),
                 '{"layout": [2, 2]}',
                 "error: not a valid correlation table: "
                 "expected an object with fields 'layout', 'values'",
                 id="lhv --table - --out /nonexistent/no-values"),
    pytest.param(("lhv", "--table", "-", "--out", "/nonexistent/values-ragged"),
                 '{"layout": [2, 2], "values": [[0.1, 0], [0]]}',
                 "error: not a valid correlation table: "
                 "correlation values must be evenly nested lists, not ragged ones",
                 id="lhv --table - --out /nonexistent/values-ragged"),
    pytest.param(("tensor", "--state-file", "-", "--out", "/nonexistent/amplitude-unpaired"),
                 '{"n_qubits": 1, "amplitudes": [1, 0]}',
                 "error: not a valid pure state: amplitudes must have shape (2, 2), got (2,)",
                 id="tensor --state-file - --out /nonexistent/amplitude-unpaired"),
    # lists nested deeper than the shape, past numpy's 64 dimensions
    pytest.param(("lhv", "--table", "-", "--out", "/nonexistent/values-deep"),
                 '{"layout": [2, 2], "values": %s0.1%s}' % ("[" * 70, "]" * 70),
                 "error: not a valid correlation table: "
                 "correlation values must have shape (2, 2), got (1, 1, 1, ...)",
                 id="lhv --table - --out /nonexistent/values-deep"),
    # numbers in messages print as Python prints them
    *[pytest.param(("tensor", "--state-file", "-", "--out", f"/nonexistent/norm-{label}"),
                   '{"n_qubits": 1, "amplitudes": [[%s, 0], [0, 0]]}' % amplitude,
                   "error: not a valid pure state: "
                   f"state vector norm {norm} is not 1 within 1e-12",
                   id=f"tensor --state-file - --out /nonexistent/norm-{label}")
      for label, amplitude, norm in [("inf", "1e300", "inf"), ("1.1", "1.1", "1.1")]],
    # the [-1, 1] range is read with finiteness, before the identity component
    pytest.param(("condition", "--kind", "multisetting_CN", "--tensor-file", "-",
                  "--out", "/nonexistent/identity-2"),
                 '{"n_qubits": 1, "full_components": [2, 0, 0, 0]}',
                 "error: not a valid correlation tensor: "
                 "components must lie in [-1, 1] within 1e-9",
                 id="condition --tensor-file - --out /nonexistent/identity-2"),
]


@pytest.mark.parametrize("args, stdin, line", EXIT_2_LINES)
def test_exit_2_stderr_line(args, stdin, line):
    code, out, err = run_cli(*args, stdin=stdin)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    if line.startswith("error: "):
        assert err == line + "\n"
    else:
        assert err.splitlines()[-1] == line


@pytest.mark.parametrize("args, whole, integer", [
    (("lhv", "--table", "-"), TABLE_22.replace("[2, 2]", "[2.0, 2.0]"), TABLE_22),
    (("maximize", "--inequality", "-", "--state", "singlet"),
     CHSH_JSON.replace('"layout": [2, 2]', '"layout": [2.0, 2]'), CHSH_JSON),
    (("tensor", "--state-file", "-"), '{"n_qubits": 1.0, "amplitudes": [[1, 0], [0, 0]]}',
     '{"n_qubits": 1, "amplitudes": [[1, 0], [0, 0]]}'),
], ids=["lhv", "maximize", "tensor"])
def test_whole_valued_integer_fields_are_read_as_integers(monkeypatch, capsys, args, whole,
                                                           integer):
    from bellkit import cli

    outputs = []
    for text in (whole, integer):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        outputs.append((cli.main(list(args)), *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] in (0, 3) and outputs[0][1]


def test_whole_valued_coefficients_past_int64_are_read_as_floats(monkeypatch, capsys):
    """1e19 is whole-valued but no int64: read as -2^63, the inequality's value
    was 9.223372036854776e+18, with a RuntimeWarning from the cast."""
    from bellkit import cli

    text = '{"layout":[2,2],"coefficients":[[1e19,1],[1,-1]],"bound":2}'
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(["maximize", "--inequality", "-", "--state", "ghz:N=2,alpha=0.3"]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["value"] == 1e19
    assert err == "violation: value 1e+19 exceeds bound 2.0\n"


def test_deeply_nested_json_exits_2():
    code, out, err = run_cli("lhv", "--table", "-", stdin="[" * 5000)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON in '-': ")
    assert err.count("\n") == 1


def test_deeply_nested_noise_spec_parses():
    spec = "singlet"
    for _ in range(1200):
        spec = f"noise:v=1({spec})"
    assert run_cli("tensor", "--state", spec) == run_cli("tensor", "--state", "singlet")


def state_json(n: int, amplitudes) -> str:
    return json.dumps({"n_qubits": n, "amplitudes": [[a.real, a.imag] for a in amplitudes]})


#: inputs naming more qubits than the cap (10: 4^10 is limits.MAX_COUNT); each
#: is refused before anything of size 2**N is allocated
OVER_CAP = [
    (("tensor", "--state", "ghz:N=16,alpha=0.3"), None),
    (("tensor", "--state", "ghz:N=11,alpha=0.3"), None),
    (("tensor", "--state", "noise:v=0.7(ghz:N=11,alpha=0.3)"), None),
    (("condition", "--kind", "multisetting_CN", "--state", "ghz:N=16,alpha=0.3"), None),
    (("maximize", "--inequality", "-", "--state", "ghz:N=40,alpha=0.1"), CHSH_JSON),
    (("scan", "--family", "ghz", "--n", "3,16"), None),
    (("tensor", "--state-file", "-"), state_json(11, np.eye(2**11)[0])),
    (("tensor", "--state-file", "-"), state_json(10**10, [1.0])),
]


@pytest.mark.parametrize("args, stdin", OVER_CAP,
                         ids=[" ".join(case[0]) for case in OVER_CAP])
def test_qubit_cap_exits_4(args, stdin):
    code, out, err = run_cli(*args, stdin=stdin)
    assert (code, out) == (4, "")
    assert err == "resource cap: dense tensors are capped at 10 qubits\n"


#: generate layouts past limits.MAX_COUNT (2^20) coefficients; each is refused
#: before a default sign bitstring or a coefficient tensor is built
OVER_LAYOUT_CAP = [(4,) * 15 + (2,), (2,) * 30, (4,) * 10 + (2,), (2,) * 21,
                   (64, 64, 32, 16, 8, 4, 2)]


@pytest.mark.parametrize("layout", OVER_LAYOUT_CAP,
                         ids=["4,...,4,2 N=16", "2,...,2 N=30", "4,...,4,2 N=11", "2,...,2 N=21",
                              "2^(N-1),...,4,2 N=7"])
def test_layout_cap_exits_4(layout):
    code, out, err = run_cli("generate", "--layout", ",".join(map(str, layout)))
    assert (code, out) == (4, "")
    assert err == ("resource cap: layouts are capped at 1048576 coefficient entries, "
                   f"got {int(np.prod(layout))}\n")


def test_scan_grid_cap_exits_4():
    """2e9 alpha steps are refused before numpy allocates the 15 GB grid.

    The run gets a 2 GiB address space, so that a missing cap fails with a
    MemoryError instead of taking the machine's memory.
    """
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    proc = subprocess.run(
        [sys.executable, "-m", "bellkit.cli", "scan", "--family", "ghz", "--n", "3",
         "--alpha-steps", "2000000000"],
        capture_output=True, text=True, preexec_fn=limit, timeout=60)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "resource cap: scan grids are capped at 1048576 points, got 2000000000\n"


@pytest.mark.parametrize("n_list, steps, code", [
    ("3", 4, 0), ("3", 5, 4), ("2,3", 2, 0), ("2,3", 3, 4), ("2,3,4", 2, 4)])
def test_scan_grid_cap_counts_n_times_steps(monkeypatch, capsys, n_list, steps, code):
    """The count cap is lowered to 64, the least that still admits 3 qubits, and
    each N is listed 16 times, so a grid of 4 parameter points is the cap."""
    from bellkit import cli, limits

    assert limits.MAX_COUNT == 2**20
    monkeypatch.setattr(limits, "MAX_COUNT", 64)
    repeated = ",".join([n_list] * 16)
    assert cli.main(["scan", "--family", "ghz", "--n", repeated, "--alpha-steps", str(steps),
                     "--restarts", "1"]) == code
    captured = capsys.readouterr()
    points = 16 * len(n_list.split(",")) * steps
    if code == 4:
        assert (captured.out, captured.err) == (
            "", f"resource cap: scan grids are capped at 64 points, got {points}\n")
    else:
        assert points == 64
        assert len(captured.out.splitlines()) == 1 + 2 * 64


#: one command per restart loop, where without the cap each runs until it is
#: killed, and the two closed forms, which run no restarts but take the cap too
OVER_RESTART_CAP = {
    "condition": (("condition", "--kind", "multisetting_CN", "--state", "ghz:N=3,alpha=0.3"),
                  None),
    "scan": (("scan", "--family", "ghz", "--n", "3", "--alpha-steps", "2"), None),
    "maximize": (("maximize", "--inequality", "-", "--state", "singlet"), CHSH_JSON),
    "condition two_setting_NS_2qubit": (
        ("condition", "--kind", "two_setting_NS_2qubit", "--state", "singlet"), None),
    "condition multisetting_CN N=2": (
        ("condition", "--kind", "multisetting_CN", "--state", "singlet"), None),
}


@pytest.mark.parametrize("args, stdin", OVER_RESTART_CAP.values(), ids=OVER_RESTART_CAP.keys())
def test_restart_cap_exits_4(args, stdin):
    proc = subprocess.run(
        [sys.executable, "-m", "bellkit.cli", *args, "--restarts", "99999999999999999999"],
        capture_output=True, text=True, input=stdin, timeout=60)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == ("resource cap: restarts are capped at 1048576, "
                           "got 99999999999999999999\n")


@pytest.mark.parametrize("restarts, code", [(4, 3), (5, 4)])
def test_restart_cap_is_checked_before_any_restart_runs(monkeypatch, capsys, restarts, code):
    """The count cap is lowered to 64, the least that still admits 3 qubits, and
    16 restarts are asked for per parameter restart, so 4 is the cap."""
    from bellkit import cli, limits, qcond

    assert limits.MAX_COUNT == 2**20
    monkeypatch.setattr(limits, "MAX_COUNT", 64)
    drawn, draw = [], qcond._random_planes
    monkeypatch.setattr(qcond, "_random_planes", lambda *args: drawn.append(args) or draw(*args))
    assert cli.main(["condition", "--kind", "two_setting_sufficient_N",
                     "--state", "ghz:N=3,alpha=0.3", "--restarts", str(16 * restarts)]) == code
    captured = capsys.readouterr()
    if code == 4:
        assert (captured.out, captured.err) == (
            "", f"resource cap: restarts are capped at 64, got {16 * restarts}\n")
    else:
        assert json.loads(captured.out)["violated"]
    # the refused run draws no start planes
    assert bool(drawn) == (code == 3)


def test_tensor_state_file_norm_edge_exits_2():
    """Norm 1 + 8e-13 passes PureState; the identity component, the norm squared, does not."""
    rng = np.random.default_rng(4)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps *= (1 + 8e-13) / np.linalg.norm(amps)
    stdin = state_json(3, amps)
    assert bk.PureState.from_json_dict(json.loads(stdin)).n_qubits == 3
    code, out, err = run_cli("tensor", "--state-file", "-", stdin=stdin)
    assert (code, out) == (2, "")
    assert err == "error: identity component must be 1 within 1e-12\n"


def seeded_state(seed: int, n: int) -> bk.PureState:
    """A random complex n-qubit pure state."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return bk.PureState(n, amps / np.linalg.norm(amps))


def seeded_state_json(seed: int, n: int) -> str:
    """seeded_state as `--state-file` JSON."""
    return json.dumps(seeded_state(seed, n).to_json_dict())


def seeded_tensor_json(seed: int, n: int) -> str:
    """seeded_state's correlation tensor as `--tensor-file` JSON."""
    tensor = bk.correlation_tensor(bk.density_from_pure(seeded_state(seed, n)))
    return json.dumps(tensor.to_json_dict())


#: A fixed pseudo-random arity-10 sign function: 1024 bits from sha256.
SIGN_2_10 = "".join(
    f"{int(hashlib.sha256(f'bellkit 2^10 sign {k}'.encode()).hexdigest(), 16):0256b}"
    for k in range(4))


def generated_json(layout: tuple[int, ...]) -> str:
    """The inequality `generate --layout` prints with its default sign functions."""
    arities, tree = layout_tree(layout)
    signs = [bk.SignFunction.from_bitstring("0" * (2**a - 1) + "1") for a in arities]
    return json.dumps(bk.build_recursive(tree(signs)).to_json_dict())


# full sha256 of stdout, with the exit code, for commands whose bytes are
# pinned; the (3,3,3) table goes through the LP oracle
PINNED_TABLE = json.dumps({"layout": [3, 3, 3], "values": [[[0.3] * 3] * 3] * 3})
PINNED_OUTPUTS = [
    (("generate", "--layout", "2"), None,
     0, "a7e2c7a94d2373b3128c3cc7e987fb9734fe87fd615f4bd5c34ca3b3a6c8a37a"),
    (("generate", "--layout", "2,2,2"), None,
     0, "89add5422196a83f871d2969a1df663f25983fa9ce8754c5fc2bd33cedcbc931"),
    (("generate", "--layout", "2,2,2,2,2"), None,
     0, "6a2cb52cb125cfa8f002d1033f8faf9a738302a7d6536e677e04a33b4799f63b"),
    (("generate", "--layout", "4,4,2", "--check-tight"), None,
     0, "20833c7fc55b3527fbe1ee6277a920b70bc3b4855866c5b45bde46b424b9df4a"),
    (("generate", "--layout", "4,4,4,2", "--check-tight"), None,
     0, "999d5c7dd931807889b2ad63baa5cce1060cb8382ee8824a6637135e6be755da"),
    (("generate", "--layout", "4,4,4,4,2", "--check-tight"), None,
     0, "e297f8c6bbae4abcc4f1e777532ce90e94bb9acc3260ea3eee62ce2b5e34cb68"),
    (("generate", "--layout", "8,8,4,2"), None,
     0, "49dfe7fed8c20caf7c97723495f63c35a68149e4b093f2c102c2a54da4fc140e"),
    (("generate", "--layout", "8,8,4,4,4"), None,
     0, "7af991115163911c5f93aac04e0403de0783e732169dea3bdbc4fae45fceb9a0"),
    (("generate", "--layout", "16,16,8,4,2"), None,
     0, "7e1c4e46eee47496f99fb5ae4ecc0a655566d1466d998a1677f31b1d82980409"),
    # chosen sign functions: coefficients -64...64, a tight 4,4,4,2 facet
    # printed under "inequality", and a random-sign 8,8,4,2
    (("generate", "--layout", "8,8,4,4,4", "--sign-fn", "0110", "--sign-fn", "0111",
      "--sign-fn", "0001", "--sign-fn", "0110", "--sign-fn", "1000", "--sign-fn", "0110",
      "--sign-fn", "0010", "--sign-fn", "0110", "--sign-fn", "0100"), None,
     0, "75b9d9403f994723155531c19c01456ae79c8501aeae6dbdf5f5e5a777e72acc"),
    (("generate", "--layout", "4,4,4,2", "--check-tight", "--sign-fn", "0110",
      "--sign-fn", "01101001", "--sign-fn", "00010111"), None,
     0, "b0e755d5af3c8f9b38acf648c16d800769bffeb85902b5f780c50f90fd3e597d"),
    (("generate", "--layout", "8,8,4,2", "--sign-fn", "1001", "--sign-fn", "1000",
      "--sign-fn", "1111", "--sign-fn", "1111", "--sign-fn", "1000", "--sign-fn", "1011",
      "--sign-fn", "1111"), None,
     0, "6a58ff330fd129a903c41b8ed7add6b3c29c27ffd3487bbbc36250775136a2a6"),
    # two-setting members with chosen sign functions, checked for tightness
    (("generate", "--layout", "2,2,2", "--check-tight", "--sign-fn", "01101011"), None,
     0, "c2e60fcb0237b7a754a09a6a13f87c43a69a96d7f3f11ca293c8cbb13f4d7c9c"),
    (("generate", "--layout", "2,2,2,2", "--check-tight", "--sign-fn", "0010110101110001"),
     None, 0, "40460d2953c2e00cd30b009f0944abd791b08b1a78c8bd95e6fb7b46b3cf8386"),
    # a 1024-dimensional facet: 1024 saturating rows of 2048 vertices
    (("generate", "--layout", "2,2,2,2,2,2,2,2,2,2", "--check-tight", "--sign-fn", SIGN_2_10),
     None, 0, "2ba046fff9b49e0b919da1b2f57ba82220edbca1841bca05221bed70b96c9605"),
    (("lhv", "--table", "-"), PINNED_TABLE,
     0, "5651ba63d106d2bd9bdde3ba7383d2f069ce8842f608336090ba9619d1b19e0c"),
    (("tensor", "--state", "ghz:N=5,alpha=0.3"), None,
     0, "5a5ab5ae3a6f8037fc698d6fedab0727b6fbcd592bf7f57c69e345260593733d"),
    (("tensor", "--state", "noise:v=0.8(ghz:N=4,alpha=0.6)"), None,
     0, "fddc4bc74ff89f66ba1daa41bfa6c54c71472011ac61ea4040d0d671af160455"),
    (("tensor", "--state-file", "-"), seeded_state_json(3, 3),
     0, "9230c778a82412ed0d28b19bd4091d61b7648c66b7b5301bb8d55b852e7608f7"),
    # nested noise is applied level by level, innermost first: reversing the
    # levels or multiplying them together changes these bytes
    (("tensor", "--state", "noise:v=0.9(noise:v=0.3(noise:v=0.7(singlet)))"), None,
     0, "a0688b66b71f51bae6ae106ac544abecd914f7ef33d542025c2b3ee8469e312e"),
    # GHZ tensors, almost all zeros, pure and noisy
    (("tensor", "--state", "ghz:N=7,alpha=0.3"), None,
     0, "18598312d84d1c736aeab1c92c7e7cdb09fd411a84a5565313fc4c82006ff1b5"),
    (("tensor", "--state", "noise:v=0.6(ghz:N=8,alpha=0.5)"), None,
     0, "61baf5c0733bb560dcd9f55ed6fab7282e7bbbe00c4ab994c7c849ba3d4e8935"),
    # one amplitude, so one live flip column; a nonzero diagonal under noise
    (("tensor", "--state", "ghz:N=6,alpha=0.0"), None,
     0, "a2a77be6bfd2c4883dd9681fc4990669ee8f0255a82b1a0afe40335c3c53db82"),
    (("tensor", "--state", "noise:v=0.4(ghz:N=5,alpha=0.7853981633974483)"), None,
     0, "6310fa32f4065e40478c2a0840d9bdcb6ebb72883b0188f9b03ad8fc4709c347"),
    # nine qubits, past the range the hypothesis byte checks draw from
    (("tensor", "--state", "noise:v=0.7(ghz:N=9,alpha=0.3)"), None,
     0, "cd2afc45acb1258114a204340d0018db3d4f1ce44efba12410b0ef4d3f14b39e"),
    # "=" keeps this test's id apart from the 3-qubit state-file pin's
    (("tensor", "--state-file=-"), seeded_state_json(9, 9),
     0, "d22e631435bc4f7ce6d58c731fb28da1b762bc8f4827b7f3de7406ff73d65652"),
    # both optimizers on a pure and a noisy GHZ state, then see-saw ascent on
    # a 4,4,2 and a 2,2,2 member: the values, frames and settings they print
    (("condition", "--kind", "two_setting_sufficient_N", "--state", "ghz:N=4,alpha=0.3"), None,
     3, "ba05aa893db300c0d37c66efab11ecd2f39e50fb6880d93f045c010308fcb9cb"),
    (("condition", "--kind", "multisetting_CN", "--state", "ghz:N=4,alpha=0.3"), None,
     3, "5e11c245089e7b4c1a032b0baf6a8ec0d07adc66b5c7f5f3809531f224c30266"),
    # the largest N the benchmark's ghz_scan runs
    (("condition", "--kind", "multisetting_CN", "--state", "ghz:N=5,alpha=0.5"), None,
     3, "c01432d1b9c7fe8b79720e79d0708b22d0b64e3f5bfff01b01d12b4001045cf3"),
    (("condition", "--kind", "two_setting_sufficient_N",
      "--state", "noise:v=0.8(ghz:N=4,alpha=0.6)"), None,
     3, "6e89f33b044e58f48b9e02ac5a6775643967e6a3de2521da480b4bad3186d9b3"),
    (("condition", "--kind", "multisetting_CN", "--state", "noise:v=0.8(ghz:N=4,alpha=0.6)"),
     None, 3, "0a4f99b9ca2e88d20034cbcd98d6e141b9c619b80fd19ee6be3cfcbbe4980194"),
    # a generic 4-qubit state (default_rng(1000 + 10 N + s), N=4, s=0), where the
    # C_N bound is loose and all 50 restarts run
    (("condition", "--kind", "multisetting_CN", "--tensor-file", "-"), seeded_tensor_json(1040, 4),
     3, "454942e6ae50d165c38a9477700a7030625a7b376cee9ffb795193429a89b208"),
    (("maximize", "--inequality", "-", "--state", "ghz:N=3,alpha=0.3"),
     generated_json((4, 4, 2)),
     3, "18633662391c4c4ba2692d00844895e75f7008dec6eebf3b6b6a90bdc7457566"),
    # "=" keeps this test's id apart from the 4,4,2 pin's
    (("maximize", "--inequality=-", "--state", "ghz:N=3,alpha=0.3"),
     generated_json((2, 2, 2)),
     0, "c90a58134ed423fbf642f0d0fe06cf49727eb93a9297e74bfd0e1a8def838efc"),
]


@pytest.mark.parametrize("args, stdin, code, digest", PINNED_OUTPUTS,
                         ids=[" ".join(arg if len(arg) <= 64 else arg[:16] + "..."
                                       for arg in case[0]) for case in PINNED_OUTPUTS])
def test_pinned_output_bytes(args, stdin, code, digest):
    exit_code, out, _ = run_cli(*args, stdin=stdin)
    assert exit_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def sparse_state_json(n: int, entries: dict[int, complex]) -> str:
    """An n-qubit pure state with the given amplitudes and zeros elsewhere."""
    amps = np.zeros(2**n, complex)
    for z, amplitude in entries.items():
        amps[z] = amplitude
    return state_json(n, amps)


# tensor stdout on pure states whose amplitudes fill few of the 2**N flip
# columns psi(z) psi*(z XOR f): the sha256 of stdout, exit code 0
PINNED_STATE_FILES = {
    "6-qubit W state with complex phases": (
        sparse_state_json(6, {1 << q: np.exp(2j * np.pi * q / 6) / np.sqrt(6) for q in range(6)}),
        "8c175acf66af0d532e7c36805807e0d140f6bcd47b99e3e69afa8fe33bf42f2b"),
    "7-qubit state on 3 basis vectors": (
        sparse_state_json(7, {0b0000011: 0.6, 0b1010100: 0.64j, 0b1111111: -0.48}),
        "59c62e36666e1b0489778eabc9eac886c538c21bb2c7559c5db09a2a6bb75f06"),
}


@pytest.mark.parametrize("stdin, digest", PINNED_STATE_FILES.values(),
                         ids=PINNED_STATE_FILES.keys())
def test_pinned_state_file_bytes(stdin, digest):
    code, out, _ = run_cli("tensor", "--state-file", "-", stdin=stdin)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def test_pinned_lhv_certificate_bytes():
    """A table outside the 3,3 polytope by its own sign inequality: the LP stops
    at its first basis, and the certificate is that inequality, +-1
    coefficients and an integral bound, printed from lists by json.dumps."""
    table = '{"layout":[3,3],"values":[[1,1,1],[1,-1,0.5],[1,0.5,-1]]}'
    code, out, err = run_cli("lhv", "--table", "-", stdin=table)
    assert (code, err) == (3, "violation: value 8.0 exceeds bound 5.0\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0bac405a8036658eeee12aa7904e63ad0e0b26cab91c53c85d9c951a5ea2ba6e")


def test_pinned_lhv_late_certificate_bytes():
    """0.501 times the table above, just past the CHSH facet of settings 1 and
    2: phase 1 runs to its optimum, and the certificate, float coefficients
    with 0.0 among them, comes from the duals there."""
    table = ('{"layout":[3,3],"values":[[0.501,0.501,0.501],[0.501,-0.501,0.2505],'
             '[0.501,0.2505,-0.501]]}')
    code, out, err = run_cli("lhv", "--table", "-", stdin=table)
    assert (code, err) == (3, "violation: value 2.004 exceeds bound 2.0\n")
    assert json.loads(out)["coefficients"] == [[1, 1, 0], [1, -1, 0], [0, 0, 0]]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "11e8de41be6b4794cfc15454fcaa8a09336562939b66d1d6b8285281e3a0308c")
    result = bk.polytope_membership(bk.CorrelationTable.from_json_dict(json.loads(table)))
    assert result.lp_iterations == 13


def seeded_table_json(layout: tuple[int, ...], seed: int, scale: float | None) -> str:
    """A table from default_rng(seed): scale times a Dirichlet mixture of
    2*dim distinct vertices, or, with no scale, a point uniform in the cube."""
    rng = np.random.default_rng(seed)
    _, rows = bk.enumerate_vertices(bk.ExperimentLayout(layout))
    if scale is None:
        x = rng.uniform(-1.0, 1.0, rows.shape[1])
    else:
        k = min(2 * rows.shape[1], rows.shape[0])
        x = scale * rng.dirichlet(np.ones(k)) @ rows[rng.choice(len(rows), k, replace=False)]
    return json.dumps({"layout": list(layout), "values": x.reshape(layout).tolist()})


# lhv stdout on seeded tables: (layout, seed, scale) as seeded_table_json takes
# them, the exit code, the sha256 of stdout and the whole of stderr
PINNED_LHV_TABLES = {
    "2,2,2,2 closed-form model": (
        ((2, 2, 2, 2), 1, 0.9), 0,
        "bfcfb45b3d791a0086288c602240ec83b96330a91f15511f840f6f863c1ca66b", ""),
    "4,4,2 LP model": (
        ((4, 4, 2), 2, 0.9), 0,
        "d101b3aced1800ea6719ddf6b049239c20b3fc0f8b1220c9dc9aa0469d3ea0cb", ""),
    "4,4,2 certificate": (
        ((4, 4, 2), 3, None), 3,
        "00846197401784c816209443eb3f3f21e3120d19ba851233ec9aa00298726c87",
        "violation: value 15.21882380410106 exceeds bound 12.0\n"),
    "3,3,3,3 LP model": (
        ((3, 3, 3, 3), 4, 0.9), 0,
        "21e4f45efc830c606f19da3aa0d2ea6545cf505c07e52c87b6da2bbc2ef5850f", ""),
    "3,3,3,3 certificate": (
        ((3, 3, 3, 3), 5, None), 3,
        "31b2eedbe641342e822d8f340a6c44b4798e91d68ca4592d61c905f6d33cb135",
        "violation: value 41.30789725602362 exceeds bound 25.0\n"),
}


@pytest.mark.parametrize("table, code, digest, err", PINNED_LHV_TABLES.values(),
                         ids=PINNED_LHV_TABLES.keys())
def test_pinned_lhv_table_bytes(table, code, digest, err):
    result = run_cli("lhv", "--table", "-", stdin=seeded_table_json(*table))
    assert (result[0], hashlib.sha256(result[1].encode()).hexdigest(), result[2]) == (
        code, digest, err)


#: weights of at most 1e-14 each: zeros of both signs, a negative one that
#: LhvModel still accepts, subnormals, the smallest normal and tiny ones
DUST = st.sampled_from([0.0, -0.0, -1e-14, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
                        1e-17]) | st.floats(1e-300, 1e-14)


@st.composite
def lhv_models(draw) -> bk.LhvModel:
    """1-10 parties of 1-12 settings; records whose weights sum to 1, each
    1e-3 to 1 before the sum is scaled to 1 (a lone record weighs 1.0),
    plus up to 20 dust records."""
    layout = draw(st.lists(st.integers(1, 12), min_size=1, max_size=10))
    codes = st.tuples(*(st.integers(0, (1 << m) - 1) for m in layout))
    mass = draw(st.dictionaries(codes, st.floats(1e-3, 1.0), min_size=1, max_size=40))
    total = sum(mass.values())
    weights = {key: w / total for key, w in mass.items()}
    for key, w in draw(st.dictionaries(codes, DUST, max_size=20)).items():
        weights.setdefault(key, w)
    return bk.LhvModel(bk.ExperimentLayout(tuple(layout)), weights)


@settings(max_examples=200, deadline=None)
@given(lhv_models())
def test_model_writer_matches_json_dumps(model):
    from bellkit import cli

    assert cli._model_text(model) == json.dumps(model.to_json_list(), indent=2,
                                                sort_keys=True) + "\n"


class ReprFloat(float):
    """A float subclass whose repr json.dumps does not use: it writes float.__repr__."""

    def __repr__(self):
        return "ReprFloat()"


class ReprInt(int):
    """An int subclass whose repr json.dumps does not use: it writes int.__repr__."""

    def __repr__(self):
        return "ReprInt()"


#: leaves of every type json.dumps writes: None, bools, ints past 2**63, floats
#: with signed zeros, subnormals, NaN and infinities, np.float64 scalars, int
#: and float subclasses, and strings with non-ASCII and control characters
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(2**63 - 2, 2**80)
    | st.integers(-(2**80), -(2**63) + 2) | st.floats()
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, float("nan"), float("inf"),
                       -float("inf"), 1e16, 1.5e300])
    | st.floats().map(np.float64) | st.floats().map(ReprFloat) | st.integers().map(ReprInt)
    | st.text()
    | st.text(st.characters(max_codepoint=0x1f) | st.sampled_from("\\\"\x7f\u00e9\u2028\U0001f600")))

#: nested lists, tuples and str-keyed dicts of those leaves, empty ones included
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children, max_size=6) | st.tuples(children, children)
                      | st.lists(st.floats() | st.integers(), max_size=6)
                      | st.dictionaries(st.text(), children, max_size=6)),
    max_leaves=40)


@settings(max_examples=500, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(obj):
    from bellkit.cli import _dump_json

    assert _dump_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("leaf", [object(), {1, 2}, b"bytes", 1j, np.int64(3), np.bool_(True),
                                  np.float32(0.5)], ids=lambda leaf: type(leaf).__name__)
def test_json_writer_refuses_what_json_dumps_refuses(leaf):
    from bellkit.cli import _dump_json

    for obj in (leaf, [1.0, leaf], {"a": [leaf]}):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError, match="not JSON serializable"):
            _dump_json(obj)


def test_json_writer_refuses_keys_that_are_not_str():
    """json.dumps would write {1: 2} with the key "1"; no output has such a key."""
    from bellkit.cli import _dump_json

    with pytest.raises(TypeError, match="keys must be str"):
        _dump_json({"a": {1: 2}})


CHSH_TABLE = json.dumps({"layout": [2, 2], "values": [[1, 1], [1, -1]]})
OUTPUT_FORMAT_CALLS = {
    "tensor": (["tensor", "--state", "noise:v=0.9(ghz:N=3,alpha=0.2)"], None, 0),
    "lhv model": (["lhv", "--table", "-"], TABLE_22, 0),
    "lhv certificate": (["lhv", "--table", "-"], CHSH_TABLE, 3),
    "generate": (["generate", "--layout", "4,4,2"], None, 0),
    "generate --check-tight": (["generate", "--layout", "4,4,2", "--check-tight"], None, 0),
    "condition two_setting_NS_2qubit": (
        ["condition", "--kind", "two_setting_NS_2qubit", "--state", "singlet"], None, 3),
    "condition two_setting_sufficient_N": (
        ["condition", "--kind", "two_setting_sufficient_N", "--state", "ghz:N=4,alpha=0.3",
         "--restarts", "5"], None, 3),
    "condition multisetting_CN": (
        ["condition", "--kind", "multisetting_CN", "--state", "ghz:N=5,alpha=0.5"], None, 3),
    "maximize": (["maximize", "--inequality", "-", "--state", "singlet", "--restarts", "5"],
                 CHSH_JSON, 3),
}


@pytest.mark.parametrize("argv, stdin, code", OUTPUT_FORMAT_CALLS.values(),
                         ids=OUTPUT_FORMAT_CALLS.keys())
def test_stdout_is_its_json_dumped_again(monkeypatch, capsys, argv, stdin, code):
    """Every command's stdout is json.dumps(indent=2, sort_keys=True) of what it holds:
    the output format, checked independently of the sha256 pins of particular outputs."""
    from bellkit import cli

    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_lhv_certificate_keeps_signed_zeros(monkeypatch, capsys):
    """A float certificate with 0.0 and -0.0 among its coefficients prints
    what json.dumps prints for its to_json_dict()."""
    from bellkit import cli

    layout = bk.ExperimentLayout((3, 3))
    coefficients = np.array([[0.0, -0.0, 0.5], [-0.25, 0.0, -0.0], [1.0, -1.0, 5e-324]])
    certificate = bk.BellInequality(layout, coefficients, 2.0)
    monkeypatch.setattr(cli, "polytope_membership",
                        lambda table: bk.PolytopeResult(False, None, certificate))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"layout": [3, 3],
                                                             "values": [[0.0] * 3] * 3})))
    assert cli.main(["lhv", "--table", "-"]) == 3
    captured = capsys.readouterr()
    assert captured.out == json.dumps(certificate.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert captured.out.count("-0.0") == 2
    assert captured.err == "violation: value 0.0 exceeds bound 2.0\n"


def lp_model_from_stdout(table_json: str, out: str) -> tuple[bk.CorrelationTable, bk.LhvModel]:
    table = bk.CorrelationTable.from_json_dict(json.loads(table_json))
    return table, bk.LhvModel.from_json_list(table.layout, json.loads(out))


def test_pinned_lhv_output_reproduces_its_table():
    code, out, _ = run_cli("lhv", "--table", "-", stdin=PINNED_TABLE)
    assert code == 0
    table, model = lp_model_from_stdout(PINNED_TABLE, out)
    # an LP model has at most one record per basic column: dim + 1
    assert len(model.weights) <= table.values.size + 1
    assert np.allclose(bk.evaluate_model(model).values, table.values, rtol=0, atol=BOUND_TOL)


def test_lhv_finds_model_deep_inside_3333_polytope():
    """0.8 times a mixture of 8 vertices; Bland's entering rule gave up here (exit 4)."""
    rng = np.random.default_rng(0)
    _, rows = bk.enumerate_vertices(bk.ExperimentLayout((3, 3, 3, 3)))
    x = 0.8 * rng.dirichlet(np.ones(8)) @ rows[rng.choice(len(rows), 8, replace=False)]
    text = json.dumps({"layout": [3, 3, 3, 3], "values": x.reshape(3, 3, 3, 3).tolist()})
    code, out, err = run_cli("lhv", "--table", "-", stdin=text)
    assert (code, err) == (0, "")
    table, model = lp_model_from_stdout(text, out)
    assert np.allclose(bk.evaluate_model(model).values, table.values, rtol=0, atol=BOUND_TOL)


def test_lhv_boundary_table_gets_model():
    # the left-hand side 4 * (1 + 4e-13) is inside the shared tolerance
    table = {"layout": [2, 2], "values": (np.array([[.5, .5], [.5, -.5]]) * (1 + 4e-13)).tolist()}
    code, out, _ = run_cli("lhv", "--table", "-", stdin=json.dumps(table))
    assert code == 0
    assert sum(e["weight"] for e in json.loads(out)) == pytest.approx(1.0, abs=1e-12)


def test_lhv_simplex_iteration_cap_exits_4(monkeypatch, capsys):
    from bellkit import cli, limits

    monkeypatch.setattr(limits, "max_pivots", lambda rows, columns: 1)
    monkeypatch.setattr("sys.stdin", io.StringIO(PINNED_TABLE))
    assert cli.main(["lhv", "--table", "-"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource cap: simplex exceeded 1 iterations\n"


def test_parser_built_once_keeps_no_state_between_calls(capsys):
    from bellkit import cli

    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["generate", "--layout", "4,4,2", "--sign-fn", "0110",
                     "--sign-fn", "0001", "--sign-fn", "0111"]) == 0
    capsys.readouterr()
    assert cli.main(["generate", "--layout", "4,4,2"]) == 0
    assert capsys.readouterr().out == run_cli("generate", "--layout", "4,4,2")[1]


#: argvs through main's direct branch (a known command first) and through parse_args
PARSE_ARGVS = [
    [], ["-h"], ["--help"], ["bogus"], ["--bogus", "lhv"], ["lhv"], ["lhv", "-h"],
    ["lhv", "--he"], ["lhv", "--tab", "-"], ["lhv", "--table", "-", "extra"],
    ["lhv", "--table", "-", "--bogus"], ["generate", "--layout=2,2"],
    ["generate", "--lay", "2,2"], ["generate", "--layout", "2,2", "--", "x"],
    ["tensor", "--state", "singlet", "--state", "singlet"],
    ["condition", "--kind", "nope", "--state", "singlet"],
    ["condition", "--kind", "multisetting_CN", "--state", "singlet", "--restarts", "x"],
]


@pytest.mark.parametrize("argv", PARSE_ARGVS, ids=lambda argv: " ".join(argv) or "no argv")
def test_main_parses_as_parse_args_does(monkeypatch, capsys, argv):
    """main hands a known command's arguments to its parser alone; its exit
    status, stdout and stderr are those of the top-level parser's parse_args."""
    from bellkit import cli

    def through_parse_args(argv):
        args = cli.build_parser().parse_args(argv)
        return args.func(args)

    outcomes = []
    for run in (cli.main, through_parse_args):
        monkeypatch.setattr("sys.stdin", io.StringIO(TABLE_22))
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


def test_scan_refuses_an_unknown_kind_before_any_condition_runs(monkeypatch, capsys):
    from bellkit import cli

    def refuse(*args, **kwargs):
        raise AssertionError("a condition ran")

    for name in ("condition_two_qubit", "condition_two_setting_N", "condition_multisetting_CN"):
        monkeypatch.setattr(cli, name, refuse)
    assert cli.main(["scan", "--family", "ghz", "--n", "3", "--alpha-steps", "2",
                     "--kinds", "multisetting_CN,two_setting_sufficient_N,foo"]) == 2
    assert capsys.readouterr() == (
        "", f"error: unknown condition kind 'foo'; choose from {KINDS}\n")


def test_scan_refuses_the_two_qubit_kind_off_n2_before_any_condition_runs(monkeypatch,
                                                                          capsys):
    from bellkit import cli

    def refuse(*args, **kwargs):
        raise AssertionError("a condition ran")

    for name in ("condition_two_qubit", "condition_two_setting_N", "condition_multisetting_CN"):
        monkeypatch.setattr(cli, name, refuse)
    assert cli.main(["scan", "--family", "ghz", "--n", "2,3", "--alpha-steps", "20000",
                     "--kinds", "two_setting_NS_2qubit"]) == 2
    refused = capsys.readouterr()
    assert refused == ("", "error: two_setting_NS_2qubit applies to 2-qubit tensors only\n")
    # the same line condition prints
    monkeypatch.undo()
    assert cli.main(["condition", "--kind", "two_setting_NS_2qubit",
                     "--state", "ghz:N=3,alpha=0.3"]) == 2
    assert capsys.readouterr() == refused


def test_benchmark_tracer_records_hooked_names(capsys, monkeypatch):
    """bench/tracing.py wraps names in bellkit's namespaces; they must exist and be used.

    A facet check enumerates no vertices, so the vertex count comes from the
    lhv call: the 3,3 table's polytope has 8 x 4 distinct vertices.
    """
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from bellkit import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["generate", "--layout", "2,2,2"]) == 0
        assert cli.main(["generate", "--layout", "4,4,2", "--check-tight"]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"layout":[3,3],"values":[[1,1,1],[1,-1,0.5],[1,0.5,-1]]}'))
        assert cli.main(["lhv", "--table", "-"]) == 3
        for kind in ("two_setting_sufficient_N", "multisetting_CN"):
            assert cli.main(["condition", "--kind", kind, "--state", "ghz:N=3,alpha=0.3",
                             "--restarts", "7"]) == 3
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "multiset.build_recursive", "multiset.check_tightness",
            "lhv.enumerate_vertices", "qcond.condition_two_setting_N",
            "qcond.condition_multisetting_CN"} <= names
    assert sum(span[0] == "multiset.build_recursive" for span in tracer.spans) == 2
    assert tracer.counts["vertices"] == 32
    # the per-restart metric divides the qcond spans by this count
    assert tracer.counts["restarts"] == 14
    assert not hasattr(cli.main, "__wrapped__")  # uninstall put the originals back

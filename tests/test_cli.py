"""End-to-end command-line behavior: schemas, exit codes, reproducibility."""
import functools
import hashlib
import importlib.util
import io
import json
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellkit as bk
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


#: entries whose reprs are easy to get wrong: signed zero, the smallest
#: subnormal, an exponent form, a non-terminating binary fraction, the bound -1
AWKWARD_FLOATS = [-0.0, 5e-324, 1e-17, 0.1, -1.0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_tensor_writer_matches_json_dumps(n):
    from bellkit.cli import _dump_json, _dump_tensor_json

    rng = np.random.default_rng(n)
    comp = np.empty(4**n)
    comp[0] = 1.0
    comp[1:] = np.resize(AWKWARD_FLOATS + list(rng.uniform(-1, 1, 3)), comp.size - 1)
    rng.shuffle(comp[1:])
    cases = [comp]
    # sparse tensors, whose +0.0 entries are shared parts: the values next
    # to them sit first in a row, last in a row and last of all (n = 1 has
    # one row, led by the identity)
    for value in (-0.0, 5e-324, 1e-17):
        comp = np.zeros(4**n)
        comp[0] = 1.0
        comp[[i for i in (4, 3, 4**n - 1) if i < 4**n]] = value
        cases.append(comp)
    identity_only = np.zeros(4**n)
    identity_only[0] = 1.0
    cases.append(identity_only)
    if n >= 2:
        cases.append(bk.correlation_tensor(bk.ghz_state(bk.GhzFamily(n, 0.3))).components)
    for comp in cases:
        tensor = bk.CorrelationTensor(n, comp.reshape((4,) * n))
        # compared line by line: pytest renders a diff of two long strings slowly
        got = _dump_tensor_json(tensor).split("\n")
        assert got == _dump_json(tensor.to_json_dict()).split("\n")


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
KINDS = "two_setting_NS_2qubit, two_setting_sufficient_N, multisetting_CN"
EXIT_2_LINES = [
    (("scan", "--family", "ghz", "--n", "3", "--kinds", "bogus"), None,
     f"error: unknown condition kind 'bogus'; choose from {KINDS}"),
    (("condition", "--kind", "two_setting_NS_2qubit", "--state", "ghz:N=3,alpha=0.1"), None,
     "error: two_setting_NS_2qubit applies to 2-qubit tensors only"),
    (("tensor", "--state", "noise:v=2(singlet)"), None,
     "error: visibility must lie in [0, 1]"),
    (("maximize", "--inequality", "-", "--state", "ghz:N=3,alpha=0.3"), CHSH_JSON,
     "error: inequality and tensor party counts differ"),
    (("generate", "--layout", "2,2", "--sign-fn", "01"), None,
     "error: sign bitstring '01' has arity 1, expected 2"),
    (("lhv", "--table", "-"), "{not json",
     "error: invalid JSON in '-': Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    (("generate", "--layout", "2,2", "--signs", "0001"), None,
     "bellkit: error: unrecognized arguments: --signs 0001"),
    # non-finite inequalities; the states differ only to keep the test ids unique
    (("maximize", "--inequality", "-", "--state", "singlet"),
     CHSH_JSON.replace("[1, 1]", "[NaN, 1]"),
     "error: not a valid Bell inequality: coefficients must be finite"),
    (("maximize", "--inequality", "-", "--state", "noise:v=0.5(singlet)"),
     CHSH_JSON.replace("[1, 1]", "[Infinity, 1]"),
     "error: not a valid Bell inequality: coefficients must be finite"),
    (("maximize", "--inequality", "-", "--state", "ghz:N=2,alpha=0.3"),
     CHSH_JSON.replace('"bound": 2', '"bound": Infinity'),
     "error: not a valid Bell inequality: bound must be positive and finite"),
    # a negative seed, also where no generator would be drawn from (the N=2 closed form)
    (("condition", "--kind", "multisetting_CN", "--state", "ghz:N=2,alpha=0.3", "--seed", "-1"),
     None, "error: seed must be a non-negative integer, got -1"),
    (("condition", "--kind", "multisetting_CN", "--state", "ghz:N=3,alpha=0.3", "--seed", "-1"),
     None, "error: seed must be a non-negative integer, got -1"),
    (("condition", "--kind", "two_setting_sufficient_N", "--state", "ghz:N=3,alpha=0.3",
      "--seed", "-2"), None, "error: seed must be a non-negative integer, got -2"),
    (("scan", "--family", "ghz", "--n", "2,3", "--alpha-steps", "2", "--seed", "-1"), None,
     "error: seed must be a non-negative integer, got -1"),
    (("maximize", "--inequality", "-", "--state", "singlet", "--seed", "-1"), CHSH_JSON,
     "error: seed must be a non-negative integer, got -1"),
    # --seed and --restarts are checked for every kind, also the one that takes neither
    (("condition", "--kind", "two_setting_NS_2qubit", "--state", "singlet", "--seed", "-1"),
     None, "error: seed must be a non-negative integer, got -1"),
    (("condition", "--kind", "two_setting_NS_2qubit", "--state", "singlet", "--restarts", "0"),
     None, "error: need at least one restart"),
    (("scan", "--family", "ghz", "--n", "2", "--kinds", "two_setting_NS_2qubit", "--seed", "-1"),
     None, "error: seed must be a non-negative integer, got -1"),
    # an --out that cannot be written: a missing directory, and a directory
    (("tensor", "--state", "ghz:N=3,alpha=0.3", "--out", "/nonexistent/dir/x"), None,
     "error: cannot write '/nonexistent/dir/x': "
     "[Errno 2] No such file or directory: '/nonexistent/dir/x'"),
    (("tensor", "--state", "ghz:N=3,alpha=0.3", "--out", "."), None,
     "error: cannot write '.': [Errno 21] Is a directory: '.'"),
]


@pytest.mark.parametrize("args, stdin, line", EXIT_2_LINES,
                         ids=[" ".join(case[0]) for case in EXIT_2_LINES])
def test_exit_2_stderr_line(args, stdin, line):
    code, out, err = run_cli(*args, stdin=stdin)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    if line.startswith("error: "):
        assert err == line + "\n"
    else:
        assert err.splitlines()[-1] == line


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


#: inputs naming more qubits than MAX_QUBITS (10); each is refused before
#: anything of size 2**N is allocated
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


#: generate layouts past MAX_LAYOUT_ENTRIES (4^10 = 2^20 coefficients); each is
#: refused before a default sign bitstring or a coefficient tensor is built
OVER_LAYOUT_CAP = [(4,) * 15 + (2,), (2,) * 30, (4,) * 10 + (2,), (2,) * 21]


@pytest.mark.parametrize("layout", OVER_LAYOUT_CAP,
                         ids=["4,...,4,2 N=16", "2,...,2 N=30", "4,...,4,2 N=11", "2,...,2 N=21"])
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
    from bellkit import cli

    assert cli.MAX_SCAN_POINTS == 2**20
    monkeypatch.setattr(cli, "MAX_SCAN_POINTS", 4)
    assert cli.main(["scan", "--family", "ghz", "--n", n_list, "--alpha-steps", str(steps),
                     "--restarts", "1"]) == code
    captured = capsys.readouterr()
    if code == 4:
        points = len(n_list.split(",")) * steps
        assert (captured.out, captured.err) == (
            "", f"resource cap: scan grids are capped at 4 points, got {points}\n")
    else:
        assert len(captured.out.splitlines()) == 1 + 2 * 4


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


def seeded_state_json(seed: int, n: int) -> str:
    """A random complex n-qubit pure state as `--state-file` JSON."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return json.dumps(bk.PureState(n, amps / np.linalg.norm(amps)).to_json_dict())


# full sha256 of stdout for commands whose bytes are pinned; the (3,3,3)
# table goes through the LP oracle
PINNED_TABLE = json.dumps({"layout": [3, 3, 3], "values": [[[0.3] * 3] * 3] * 3})
PINNED_OUTPUTS = [
    (("generate", "--layout", "2"), None,
     "a7e2c7a94d2373b3128c3cc7e987fb9734fe87fd615f4bd5c34ca3b3a6c8a37a"),
    (("generate", "--layout", "2,2,2"), None,
     "89add5422196a83f871d2969a1df663f25983fa9ce8754c5fc2bd33cedcbc931"),
    (("generate", "--layout", "2,2,2,2,2"), None,
     "6a2cb52cb125cfa8f002d1033f8faf9a738302a7d6536e677e04a33b4799f63b"),
    (("generate", "--layout", "4,4,2", "--check-tight"), None,
     "20833c7fc55b3527fbe1ee6277a920b70bc3b4855866c5b45bde46b424b9df4a"),
    (("generate", "--layout", "4,4,4,2", "--check-tight"), None,
     "999d5c7dd931807889b2ad63baa5cce1060cb8382ee8824a6637135e6be755da"),
    (("generate", "--layout", "4,4,4,4,2", "--check-tight"), None,
     "e297f8c6bbae4abcc4f1e777532ce90e94bb9acc3260ea3eee62ce2b5e34cb68"),
    (("generate", "--layout", "8,8,4,2"), None,
     "49dfe7fed8c20caf7c97723495f63c35a68149e4b093f2c102c2a54da4fc140e"),
    (("generate", "--layout", "8,8,4,4,4"), None,
     "7af991115163911c5f93aac04e0403de0783e732169dea3bdbc4fae45fceb9a0"),
    (("lhv", "--table", "-"), PINNED_TABLE,
     "de4f7f36ca0e2f4901f8a7db805f4af49469f501711e7d880ccf2a0e96425616"),
    (("tensor", "--state", "ghz:N=5,alpha=0.3"), None,
     "5a5ab5ae3a6f8037fc698d6fedab0727b6fbcd592bf7f57c69e345260593733d"),
    (("tensor", "--state", "noise:v=0.8(ghz:N=4,alpha=0.6)"), None,
     "fddc4bc74ff89f66ba1daa41bfa6c54c71472011ac61ea4040d0d671af160455"),
    (("tensor", "--state-file", "-"), seeded_state_json(3, 3),
     "9230c778a82412ed0d28b19bd4091d61b7648c66b7b5301bb8d55b852e7608f7"),
    # nested noise is applied level by level, innermost first: reversing the
    # levels or multiplying them together changes these bytes
    (("tensor", "--state", "noise:v=0.9(noise:v=0.3(noise:v=0.7(singlet)))"), None,
     "a0688b66b71f51bae6ae106ac544abecd914f7ef33d542025c2b3ee8469e312e"),
    # GHZ tensors, almost all zeros, pure and noisy
    (("tensor", "--state", "ghz:N=7,alpha=0.3"), None,
     "18598312d84d1c736aeab1c92c7e7cdb09fd411a84a5565313fc4c82006ff1b5"),
    (("tensor", "--state", "noise:v=0.6(ghz:N=8,alpha=0.5)"), None,
     "61baf5c0733bb560dcd9f55ed6fab7282e7bbbe00c4ab994c7c849ba3d4e8935"),
    # nine qubits, past the range the hypothesis byte checks draw from
    (("tensor", "--state", "noise:v=0.7(ghz:N=9,alpha=0.3)"), None,
     "cd2afc45acb1258114a204340d0018db3d4f1ce44efba12410b0ef4d3f14b39e"),
    # "=" keeps this test's id apart from the 3-qubit state-file pin's
    (("tensor", "--state-file=-"), seeded_state_json(9, 9),
     "d22e631435bc4f7ce6d58c731fb28da1b762bc8f4827b7f3de7406ff73d65652"),
]


@pytest.mark.parametrize("args, stdin, digest", PINNED_OUTPUTS,
                         ids=[" ".join(case[0]) for case in PINNED_OUTPUTS])
def test_pinned_output_bytes(args, stdin, digest):
    code, out, _ = run_cli(*args, stdin=stdin)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    from bellkit import cli, lhv

    monkeypatch.setattr(lhv, "solve_feasibility",
                        functools.partial(lhv.solve_feasibility, max_iter=1))
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


def test_benchmark_tracer_records_hooked_names(capsys):
    """bench/tracing.py wraps names in bellkit's namespaces; they must exist and be used."""
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
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "multiset.build_recursive", "multiset.check_tightness",
            "lhv.enumerate_vertices"} <= names
    assert sum(span[0] == "multiset.build_recursive" for span in tracer.spans) == 2
    assert tracer.counts["vertices"] == 256
    assert not hasattr(cli.main, "__wrapped__")  # uninstall put the originals back

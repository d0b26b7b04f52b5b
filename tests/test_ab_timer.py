"""tools/ab_timer.py: two source trees timed in one process, and their outputs compared."""
import ast
import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

from bellkit import cli

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_timer.py"

#: appended to one copy's cli.py: the N=9 tensor jobs print one more line
ALTER = '''

_main = main


def main(argv=None):
    rc = _main(argv)
    if any("N=9" in arg for arg in argv):
        print("altered")
    return rc
'''


def test_bellkit_imports_itself_only_relatively():
    """The A/B timer imports copies of src/bellkit under other names, so no
    module may import bellkit by its absolute name."""
    absolute = []
    for path in sorted((ROOT / "src" / "bellkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            absolute += [f"{path.name}:{node.lineno} {name}" for name in names
                         if name.split(".")[0] == "bellkit"]
    assert absolute == []


def test_one_round_reports_the_jobs_whose_output_one_side_alters(tmp_path):
    for side in ("a", "b"):
        shutil.copytree(ROOT / "src" / "bellkit", tmp_path / side / "src" / "bellkit",
                        ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "b" / "src" / "bellkit" / "cli.py", "a") as cli:
        cli.write(ALTER)
    out = tmp_path / "ab.json"
    run = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "a"), str(tmp_path / "b"),
                          "--workload", "state_tensors", "--seed", "1", "--rounds", "1",
                          "--out", str(out)], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert json.loads(out.read_text()) == result
    assert result["rounds"] == 1 and result["jobs"] == 40
    assert [(d["cost_class"], d["call"], d["fields"]) for d in result["differ"]] == [
        ("N=9", 0, ["stdout"]), ("N=9", 0, ["stdout"])]
    assert result["sha256"]["a"] != result["sha256"]["b"]
    groups = result["groups"]
    assert set(groups) == {"total", "class N=6", "class N=7", "class N=8", "class N=9",
                           "call tensor"}
    for group in groups.values():
        assert len(group["ratios"]) == 1 and group["b_wins"] in (0, 1)
        assert group["min"] == group["median"] == group["max"] == group["a_ms"] / group["b_ms"]


def test_a_tree_without_bellkit_is_refused(tmp_path):
    run = subprocess.run([sys.executable, str(TOOL), str(tmp_path), str(ROOT),
                          "--workload", "state_tensors", "--seed", "1", "--rounds", "1"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert "no bellkit sources under" in run.stderr


def test_a_calls_file_runs_each_call_as_a_job(tmp_path):
    chsh = io.StringIO()
    with contextlib.redirect_stdout(chsh):
        assert cli.main(["generate", "--layout", "2,2"]) == 0
    calls = [{"argv": ["condition", "--kind", "multisetting_CN", "--state", "ghz:N=3,alpha=0.3",
                       "--restarts", "5"]},
             {"argv": ["maximize", "--inequality", "-", "--state", "singlet", "--restarts", "3"],
              "stdin": chsh.getvalue()},
             {"argv": ["condition", "--kind", "nonsense", "--state", "singlet"]}]
    path = tmp_path / "calls.json"
    path.write_text(json.dumps(calls))
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--calls", str(path),
                          "--rounds", "2"], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert (result["jobs"], result["differ"]) == (3, [])
    assert result["sha256"]["a"] == result["sha256"]["b"]
    kinds = ["condition multisetting_CN", "condition nonsense", "maximize"]
    assert list(result["groups"]) == ["total", *(f"class {k}" for k in kinds),
                                      *(f"call {k}" for k in kinds)]
    assert all(len(group["ratios"]) == 2 for group in result["groups"].values())


def run_calls(tmp_path, calls):
    path = tmp_path / "calls.json"
    path.write_text(json.dumps(calls))
    out = tmp_path / "ab.json"
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--calls", str(path),
                          "--rounds", "1", "--out", str(out)],
                         capture_output=True, text=True, timeout=300)
    return run, out


def test_each_side_counts_its_exit_codes_per_group(tmp_path):
    ghz = ["condition", "--kind", "multisetting_CN", "--state", "ghz:N=3,alpha=0.3",
           "--restarts", "5"]
    run, out = run_calls(tmp_path, [{"argv": ghz}, {"argv": ghz},
                                    {"argv": ["condition", "--state-file", "-"]}])
    assert run.returncode == 0, run.stderr
    groups = json.loads(out.read_text())["groups"]
    assert groups["total"]["exit_codes"] == {"a": {"2": 1, "3": 2}, "b": {"2": 1, "3": 2}}
    assert groups["class condition"]["exit_codes"] == {"a": {"2": 1}, "b": {"2": 1}}
    assert groups["call condition multisetting_CN"]["exit_codes"] == {"a": {"3": 2},
                                                                      "b": {"3": 2}}


def test_a_run_whose_every_call_fails_on_both_sides_is_refused(tmp_path):
    """condition takes --tensor-file, not --state-file: every call is argparse's usage
    error, and such a run compares nothing, so no result file is written."""
    run, out = run_calls(tmp_path, [{"argv": ["condition", "--state-file", "-"], "stdin": "{}"}
                                    for _ in range(3)])
    assert run.returncode == 1
    assert "every call ended in exit 2 or an exception on both sides" in run.stderr
    assert json.loads(run.stdout)["groups"]["total"]["exit_codes"] == {"a": {"2": 3},
                                                                       "b": {"2": 3}}
    assert not out.exists()


def test_source_digests_tell_two_copies_of_one_tree_from_two_trees(tmp_path):
    """Equal sources give equal digests, which mark an A/A run.  Tree b then
    gains, one at a time, a __pycache__ file, which the timer does not copy
    and which leaves its digest alone, a comment in one module and a data file
    in a new subdirectory, which each change its digest but no output."""
    for side in ("a", "b"):
        shutil.copytree(ROOT / "src" / "bellkit", tmp_path / side / "src" / "bellkit",
                        ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "calls.json"
    path.write_text(json.dumps([{"argv": ["tensor", "--state", "singlet"]}]))

    def digests():
        run = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "a"),
                              str(tmp_path / "b"), "--calls", str(path), "--rounds", "1"],
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout)
        assert result["differ"] == []
        return result["source_sha256"]

    seen = [digests()]
    assert seen[0]["a"] == seen[0]["b"]
    for name, moves in (("__pycache__/stale.pyc", False), ("limits.py", True),
                        ("data/extra.json", True)):
        target = tmp_path / "b" / "src" / "bellkit" / name
        target.parent.mkdir(exist_ok=True)
        with open(target, "a") as out:
            out.write("# a comment\n")
        seen.append(digests())
        assert seen[-1]["a"] == seen[0]["a"]
        assert (seen[-1]["b"] != seen[-2]["b"]) == moves, name

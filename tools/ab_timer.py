"""Time two bellkit source trees against each other in one process, and compare their outputs.

    python3 tools/ab_timer.py A_TREE B_TREE --workload ghz_scan --seed 5001 --rounds 12 \\
        [--out FILE]
    python3 tools/ab_timer.py A_TREE B_TREE --calls CALLS.json --rounds 12

Each tree is a checkout that holds src/bellkit, for example a `git archive`
copy of a commit.  Each tree's package is copied into a temporary directory
under its own name, bk_a and bk_b, and both are imported into this process;
that works because bellkit imports itself only relatively
(tests/test_ab_timer.py keeps it so).  The job list is the one
bench/workloads.py of this checkout makes for the workload and seed, or with
--calls, one job per entry of a JSON list of {"argv": [...], "stdin": text or
null}, its cost class the call kind below.

After one warm-up job per command path on each side, every job runs on both
sides in each of the rounds, through each side's cli.main.  The side that
runs a job first alternates from job to job and from round to round.  Per
cost class, per call kind (the command and its --kind) and in total, a
round's ratio is A's time over B's, so above 1 means B was faster.  For each
group the output gives both sides' median round time, the ratios, their
median and range, the rounds B won, and each side's count of every exit code
in the first round (an exception counts as "raised" and its type).  Every
call's exit code, stdout and stderr are compared between the sides in every
round, and the calls where any of them differ are listed, with a sha256 of
each side's first-round outputs.  Under `source_sha256`, a sha256 of each
tree's files under src/bellkit, relative paths and contents in path order,
tells an A/A run, two copies of one commit, from an A/B run.
The result is one JSON object on stdout, and in --out when given.  When every
call ends in exit 2 (a usage error included) or an exception on both sides,
nothing was compared: the result goes to stdout only, and the exit code is 1.
"""
from __future__ import annotations

import os

# One BLAS thread, as in bench/run.py, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import hashlib
import importlib
import io
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("a", "b")


def load_side(tree: Path, name: str, into: Path):
    """The cli module of tree's src/bellkit, imported as the package `name`."""
    source = tree / "src" / "bellkit"
    if not (source / "__init__.py").is_file():
        raise ValueError(f"no bellkit sources under {tree / 'src'}")
    shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def source_digest(tree: Path) -> str:
    """sha256 of the relative paths and contents of every file under tree's
    src/bellkit, subdirectories included, in path order; what load_side
    leaves out, __pycache__, is left out here too."""
    source = tree / "src" / "bellkit"
    digest = hashlib.sha256()
    for path in sorted(source.rglob("*")):
        name = path.relative_to(source)
        if path.is_file() and "__pycache__" not in name.parts:
            data = path.read_bytes()
            digest.update(f"{name.as_posix()}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def run_call(cli, call) -> tuple:
    """(exit code, stdout, stderr) of one CLI call; a raised exception is its own outcome."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(call.stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(call.argv))
    except SystemExit as exc:  # argparse's usage errors
        rc = exc.code
    except Exception as exc:  # a crash is an outcome to compare, not the end of the run
        rc = f"raised {type(exc).__name__}: {exc}"
    finally:
        sys.stdin = saved_stdin
    return rc, out.getvalue(), err.getvalue()


def call_kind(call) -> str:
    """The command of a call, with its --kind value where it has one."""
    argv = list(call.argv)
    if "--kind" in argv:
        return f"{argv[0]} {argv[argv.index('--kind') + 1]}"
    return argv[0]


def exit_code(rc) -> str:
    """The key an outcome's exit code is counted under: the code, or "raised" and the type."""
    return rc.split(":")[0] if isinstance(rc, str) and rc.startswith("raised ") else str(rc)


def call_groups(job, call) -> tuple[str, str, str]:
    return "total", f"class {job.cost_class}", f"call {call_kind(call)}"


def summary(a_ms: list[float], b_ms: list[float], codes: tuple[dict, dict]) -> dict:
    ratios = [a / b for a, b in zip(a_ms, b_ms)]
    return {"a_ms": statistics.median(a_ms), "b_ms": statistics.median(b_ms),
            "ratios": ratios, "median": statistics.median(ratios),
            "min": min(ratios), "max": max(ratios), "b_wins": sum(r > 1 for r in ratios),
            "exit_codes": {side: dict(sorted(c.items())) for side, c in zip(SIDES, codes)}}


def timed_rounds(clis, warmup, jobs, rounds: int):
    """Run the warm-up jobs, then every job on both sides in each round.

    Returns {group: (A's ms per round, B's ms per round)}, {group: each side's
    {exit code: calls} in the first round}, the sha256 of each side's
    first-round outcomes, and {(job index, call index): the outcome fields
    that differ}.
    """
    for job in warmup:
        for cli in clis:
            for call in job.calls:
                run_call(cli, call)
    groups = ["total", *sorted({f"class {job.cost_class}" for job in jobs}),
              *sorted({f"call {call_kind(call)}" for job in jobs for call in job.calls})]
    ms = {group: ([0.0] * rounds, [0.0] * rounds) for group in groups}
    codes = {group: (collections.Counter(), collections.Counter()) for group in groups}
    digests = [hashlib.sha256(), hashlib.sha256()]
    differ: dict[tuple[int, int], set[str]] = {}
    for r in range(rounds):
        for i, job in enumerate(jobs):
            outcomes = [[], []]
            for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                for call in job.calls:
                    start = time.perf_counter()
                    outcomes[side].append(run_call(clis[side], call))
                    elapsed = 1e3 * (time.perf_counter() - start)
                    for group in call_groups(job, call):
                        ms[group][side][r] += elapsed
            if r == 0:
                for side, outcome in enumerate(outcomes):
                    digests[side].update(repr(outcome).encode())
                    for call, (rc, _, _) in zip(job.calls, outcome):
                        for group in call_groups(job, call):
                            codes[group][side][exit_code(rc)] += 1
            for c, (a, b) in enumerate(zip(*outcomes)):
                for field, x, y in zip(("exit code", "stdout", "stderr"), a, b):
                    if x != y:
                        differ.setdefault((i, c), set()).add(field)
    return ms, codes, digests, differ


def listed_jobs(workloads, path: Path) -> tuple[list, list]:
    """The jobs of a --calls file, and the first job of each call kind as the warm-up."""
    jobs = [workloads.Job(call_kind(call), (call,)) for call in (
        workloads.Call(tuple(entry["argv"]), entry.get("stdin"))
        for entry in json.loads(path.read_text()))]
    return jobs, list({job.cost_class: job for job in reversed(jobs)}.values())


def compare(trees: tuple[Path, Path], rounds: int, workload: str | None = None,
            seed: int | None = None, calls: Path | None = None) -> dict:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    if calls is None:
        jobs = workloads.make_jobs(workload, seed)
        warmup = workloads.warmup_jobs(workload, jobs)
    else:
        jobs, warmup = listed_jobs(workloads, calls)
    sources = {side: source_digest(tree) for side, tree in zip(SIDES, trees)}
    with tempfile.TemporaryDirectory(prefix="ab_timer_") as scratch:
        sys.path.insert(0, scratch)
        clis = [load_side(tree, f"bk_{side}", Path(scratch)) for tree, side in zip(trees, SIDES)]
        ms, codes, digests, differ = timed_rounds(clis, warmup, jobs, rounds)
    return {
        "workload": workload, "seed": seed, "calls": str(calls) if calls else None,
        "rounds": rounds, "jobs": len(jobs),
        "trees": {side: str(tree) for side, tree in zip(SIDES, trees)},
        "groups": {group: summary(*times, codes[group]) for group, times in ms.items()},
        "sha256": {side: d.hexdigest() for side, d in zip(SIDES, digests)},
        "source_sha256": sources,
        "differ": [{"job": i, "call": c, "cost_class": jobs[i].cost_class,
                    "argv": list(jobs[i].calls[c].argv), "fields": sorted(fields)}
                   for (i, c), fields in sorted(differ.items())],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="the first source tree (the parent)")
    parser.add_argument("b", type=Path, help="the second source tree (the change)")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload",
                        choices=("ghz_scan", "local_tables", "facet_census", "state_tensors"))
    source.add_argument("--calls", type=Path, help="a JSON list of calls to run instead")
    parser.add_argument("--seed", type=int, help="the workload's seed")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--out", type=Path, help="a file to write the result to as well")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if (args.seed is None) != (args.workload is None):
        parser.error("--seed goes with --workload, and only with it")
    try:
        result = compare((args.a.resolve(), args.b.resolve()), args.rounds, args.workload,
                         args.seed, args.calls)
    except (KeyError, ValueError) as exc:
        print(f"ab_timer: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(result, indent=1)
    print(text)
    codes = result["groups"]["total"]["exit_codes"]
    if all(code == "2" or code.startswith("raised ") for side in codes.values() for code in side):
        print("ab_timer: every call ended in exit 2 or an exception on both sides, so "
              "nothing was compared", file=sys.stderr)
        return 1
    if args.out:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

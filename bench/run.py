"""bellkit's benchmark: one workload through the in-process CLI, checked and timed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's fixed job list for a number of whole rounds set by S
(workloads.ROUND_SECONDS), so that every run with the same S does the same
work, then checks every output against reference.py.  The last stdout line
is one JSON object: correct, attempted, failed, and the end-to-end metrics
(--trace 0) or the per-layer metrics from spans around bellkit's modules
(--trace 1).  Details in README.md.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np

import checks
import workloads
from speed import SAMPLE_EVERY_S, HostSpeed
from tracing import LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_ROUNDS = 2

END_TO_END = ("jobs_per_s", "job_p50_ms", "job_p90_ms", "setup_s", "peak_rss_mb")
UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms", "setup_s": "s",
         "peak_rss_mb": "MB"}


def _import_bellkit():
    """bellkit from this checkout's src/, never from anywhere else."""
    if not (SRC / "bellkit" / "__init__.py").is_file():
        sys.exit(f"bench: no bellkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bellkit.cli

    if Path(bellkit.cli.__file__).resolve().parent != (SRC / "bellkit").resolve():
        sys.exit(f"bench: imported bellkit from {bellkit.cli.__file__}, not {SRC}")
    return bellkit.cli


def call_cli(cli, argv, stdin: str | None) -> tuple[int, str]:
    """bellkit.cli.main(argv) with stdin fed and stdout captured."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
    finally:
        sys.stdin = saved_stdin
    return rc, out.getvalue()


def run_call(cli, call) -> tuple[int, str] | None:
    """Exit code and stdout of one call; None when it raised."""
    try:
        return call_cli(cli, call.argv, call.stdin)
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        print(f"bench: {' '.join(call.argv)} raised {exc!r}", file=sys.stderr)
        return None


def run_job(cli, job) -> list[tuple[int, str]] | None:
    """Exit code and stdout per call; None when a call raised."""
    outcomes = [run_call(cli, call) for call in job.calls]
    return None if None in outcomes else outcomes


def _packed(outcomes):
    """Outcomes with stdout compressed, so kept outputs barely add to peak memory."""
    return None if outcomes is None else [(rc, zlib.compress(out.encode(), 1))
                                          for rc, out in outcomes]


def _unpacked(packed):
    return None if packed is None else [(rc, zlib.decompress(z).decode()) for rc, z in packed]


def setup(workload: str, seed: int):
    """Import, input generation and one warm-up job per command path."""
    cli = _import_bellkit()
    jobs = workloads.make_jobs(workload, seed)
    for job in workloads.warmup_jobs(workload, jobs):
        run_job(cli, job)
    return cli, jobs


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its first job being ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True,
    ) as probe:
        line = probe.stdout.readline()
        seconds = time.perf_counter() - start
        probe.stdout.read()
    if probe.returncode != 0 or line.strip() != "ready":
        sys.exit(f"bench: setup probe failed with exit code {probe.returncode}")
    return seconds


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cost_classes(jobs, latencies: list[float]) -> dict:
    """Per cost class: job count and latency range; and the classes each percentile sits in."""
    labelled = sorted(zip(latencies, (job.cost_class for job in jobs)))
    classes: dict[str, list[float]] = {}
    for latency, label in labelled:
        classes.setdefault(label, []).append(1e3 * latency)
    out = {label: {"jobs": len(ms), "min_ms": ms[0], "median_ms": statistics.median(ms),
                   "max_ms": ms[-1]} for label, ms in classes.items()}
    for q in (50, 90):
        pos = q / 100 * (len(labelled) - 1)
        out[f"p{q}_between"] = sorted({labelled[int(pos)][1], labelled[-int(-pos)][1]})
    return out


def timed_rounds(cli, jobs, rounds: int, tracer, speed, between):
    """Run the job list `rounds` times, timing the host between jobs.

    Calls between() after each round.  Returns the seconds the rounds took,
    (start, end) of every call of every job in every round, the first round's outputs
    (None for a job that raised), the failed-job count and the problems
    found: any later round's output that differs from the first round's.
    """
    spans = []
    outputs: list = []
    failed = 0
    problems: list[str] = []
    elapsed = 0.0
    for r in range(rounds):
        start = time.perf_counter()
        spans.append([])
        for i, job in enumerate(jobs):
            if tracer:
                tracer.job = r * len(jobs) + i
            calls, outcomes = [], []
            for call in job.calls:
                speed.maybe_sample()
                t0 = time.perf_counter()
                outcomes.append(run_call(cli, call))
                t1 = time.perf_counter()
                calls.append((t0, t1))
                if t1 - t0 >= SAMPLE_EVERY_S:
                    speed.sample()
                if outcomes[-1] is None:
                    break
            spans[r].append(calls)
            outcomes = _packed(None if None in outcomes else outcomes)
            failed += outcomes is None
            if r == 0:
                outputs.append(outcomes)
            elif None not in (outcomes, outputs[i]) and outcomes != outputs[i]:
                problems.append(f"job {i} ({job.cost_class}): round {r + 1} output "
                                "differs from round 1")
        speed.sample()
        elapsed += time.perf_counter() - start
        between()
    return elapsed, spans, outputs, failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ghz_scan", "local_tables", "facet_census", "state_tensors"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    speed = HostSpeed()
    # Set-up probes run before the rounds and after each one, so that their
    # median is not taken from one phase of a host whose speed drifts.
    setup_times: list[float] = []

    def probe() -> None:
        if not args.trace:
            setup_times.append(setup_probe(args.workload, args.seed))

    probe()
    probe()
    cli, jobs = setup(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    rounds = max(MIN_ROUNDS, round(args.seconds / workloads.ROUND_SECONDS[args.workload]))
    if tracer:
        tracer.install()
    elapsed, spans, outputs, failed, problems = timed_rounds(
        cli, jobs, rounds, tracer, speed, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    attempted = rounds * len(jobs)

    notes = {"rng": np.random.default_rng([args.seed, 1])}  # strategy samples
    for job, packed in zip(jobs, outputs):
        if packed is not None:
            problems += checks.check_job(args.workload, job, _unpacked(packed), notes)
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    # Each job's latency: the median over rounds of its time at reference speed,
    # each call scaled by the host's speed around it.
    latency = [statistics.median(sum((t1 - t0) / speed.factor(t0, t1) for t0, t1 in calls)
                                 for calls in column) for column in zip(*spans)]
    raw_best = [min(sum(t1 - t0 for t0, t1 in calls) for calls in column)
                for column in zip(*spans)]
    slowdown = speed.run_factor()
    jobs_per_s = len(jobs) / sum(latency)
    info = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
            "jobs_per_round": len(jobs), "elapsed_s": elapsed,
            "host_slowdown": slowdown,
            "jobs_per_s": jobs_per_s,
            "raw_wall_jobs_per_s": attempted / elapsed,
            "raw_best_jobs_per_s": len(jobs) / sum(raw_best),
            "raw_setup_s": statistics.median(setup_times) if setup_times else None,
            "cost_classes": cost_classes(jobs, latency)}
    if "gauges" in notes:
        info["min_gauge_margin"] = min(abs(g - 1.0) for g in notes["gauges"])
    if tracer:
        values = tracer.layer_metrics(attempted, slowdown)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
        _, total = tracer.self_times()
        job_seconds = sum(t1 - t0 for row in spans for calls in row for t0, t1 in calls)
        info["span_coverage"] = total.get("cli.main", 0.0) / job_seconds
        info["layer_shares"] = tracer.layer_shares()
    else:
        values = {
            "jobs_per_s": jobs_per_s,
            "job_p50_ms": 1e3 * statistics.median(latency),
            "job_p90_ms": 1e3 * percentile(latency, 90),
            "setup_s": statistics.median(setup_times) / slowdown,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in END_TO_END}
    print(f"bench: {json.dumps(info)}", file=sys.stderr)

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"result": result, "info": info}) + "\n")
    if tracer:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""Summarise benchmark runs of a parent and a changed commit into one BENCH file.

Each input is a `bench/out/<workload>-seed<n>-trace0.json` file written by
`python3 bench/run.py ... --trace 0`, given after `--parent` or `--change`
according to the commit it measured.  The output holds, per workload and per
end-to-end metric of BENCHMARK.json, each side's run values, median and
quartiles, and how many same-seed pairs the change won.  A metric is marked
`unresolved` when the parent's quartile spread is wider than the metric's
bound times its median, so that a move inside the bound cannot be told from
noise, unless every change run beats every parent run.  Under a separate
`diagnostics` key it holds the same summary of the unscaled run facts in
`info`: the wall-clock rate and the set-up time, with the same-seed pairs the
change won, and the host slowdown that the scaled metrics are divided by, with
none; under `cost_classes`, each side's median over its runs of every cost
class's `median_ms`.  Traced runs (`--trace 1`), given after `--parent-trace`
and `--change-trace`, add a `per_layer` key: each side's median and quartiles
of every per-layer metric of BENCHMARK.json, with no pair wins, since those
rows count work and split time rather than make a claim.  Results of
tools/ab_timer.py, given after `--in-process`, go under a top-level key, one
entry per file in the order given, as the timer wrote them but without the
trees' paths, and with only the file name of a --calls list.  An A/B run, the
parent as tree A and the change as tree B, goes under `in_process`.  An A/A
run, two copies of one tree, goes under `in_process_aa`, with both sides
labelled "same"; its ratios are the timer's noise floor.  The timer's
`source_sha256` of the two trees tells them apart: they are equal on an A/A
run, and each entry keeps them, so an A/A run's tree can be matched against
the A/B runs' digests.

    python3 tools/bench_record.py --out BENCH_N.json \\
        --parent ../parent/bench/out/facet_census-seed1-trace0.json ... \\
        --change bench/out/facet_census-seed1-trace0.json ... \\
        --parent-trace ../parent/bench/out/facet_census-seed1-trace1.json ... \\
        --change-trace bench/out/facet_census-seed1-trace1.json ... \\
        --in-process ghz_scan-seed5001.json aa-ghz_scan-seed5001.json ...
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: run facts from `info`, summarised like the metrics but never counted as one:
#: name -> the better direction, or None where no pair wins are counted
DIAGNOSTICS = {"raw_wall_jobs_per_s": "higher", "raw_setup_s": "lower", "host_slowdown": None}


def load_runs(paths: list[str], traced: bool = False) -> dict[str, dict[int, dict]]:
    """{workload: {seed: run file}}, all traced or all not; a workload and seed
    given twice is an error."""
    runs: dict[str, dict[int, dict]] = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        info = data["info"]
        if "layer_shares" in info and not traced:
            raise ValueError(f"{path}: a traced run; end-to-end metrics come from --trace 0")
        if "layer_shares" not in info and traced:
            raise ValueError(f"{path}: an untraced run; per-layer metrics come from --trace 1")
        by_seed = runs.setdefault(info["workload"], {})
        if info["seed"] in by_seed:
            raise ValueError(f"{path}: seed {info['seed']} of {info['workload']} given twice")
        by_seed[info["seed"]] = data
    return runs


def load_in_process(paths: list[str]) -> dict[str, list[dict]]:
    """The tools/ab_timer.py results, in the order given, without the trees'
    paths: {"in_process": A/B runs, "in_process_aa": A/A runs}."""
    runs: dict[str, list[dict]] = {"in_process": [], "in_process_aa": []}
    for path in paths:
        data = json.loads(Path(path).read_text())
        sources = data["source_sha256"]
        runs["in_process_aa" if sources["a"] == sources["b"] else "in_process"].append(
            {"workload": data["workload"], "seed": data["seed"],
             "calls": data["calls"] and Path(data["calls"]).name,
             **{name: data[name] for name in ("rounds", "jobs", "groups", "sha256",
                                              "source_sha256", "differ")}})
    return runs


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def class_medians(runs: dict[int, dict]) -> dict[str, float]:
    """{cost class: median over the runs of its median_ms}; p50_between and the like skipped."""
    by_class: dict[str, list[float]] = {}
    for run in runs.values():
        for label, stats in run["info"]["cost_classes"].items():
            if isinstance(stats, dict):
                by_class.setdefault(label, []).append(stats["median_ms"])
    return {label: statistics.median(ms) for label, ms in sorted(by_class.items())}


def pair_wins(sides: dict[str, dict[int, dict]], value, higher: bool) -> tuple[int, int]:
    """(same-seed pairs, pairs where the change reads better); value(run) reads one run."""
    paired = sorted(set(sides["parent"]) & set(sides["change"]))
    wins = 0
    for seed in paired:
        p, c = value(sides["parent"][seed]), value(sides["change"][seed])
        wins += (c > p) if higher else (c < p)
    return len(paired), wins


def unresolved(row: dict, bound: float, higher: bool) -> bool:
    """The parent's q3 - q1 exceeds bound * median, and not every change run
    reads better than every parent run."""
    parent, change = row["parent"], row["change"]
    if parent["q3"] - parent["q1"] <= bound * parent["median"]:
        return False
    if higher:
        return min(change["values"]) <= max(parent["values"])
    return max(change["values"]) >= min(parent["values"])


def both_sides(parent: dict[str, dict[int, dict]], change: dict[str, dict[int, dict]],
               workload: str) -> dict[str, dict[int, dict]]:
    sides = {"parent": parent.get(workload, {}), "change": change.get(workload, {})}
    if any(len(runs) < 2 for runs in sides.values()):
        raise ValueError(f"{workload}: need at least 2 runs of each side")
    return sides


def record(parent: dict[str, dict[int, dict]], change: dict[str, dict[int, dict]],
           metrics: list[dict], traced: tuple[dict, dict], layers: list[dict]) -> dict:
    """One entry per workload; traced runs, (parent, change), add its per_layer rows."""
    out = {}
    for workload in sorted(set(parent) | set(change)):
        sides = both_sides(parent, change, workload)
        medians = {side: class_medians(runs) for side, runs in sides.items()}
        entry = {
            "seeds": {side: sorted(runs) for side, runs in sides.items()},
            "correct": all(r["result"]["correct"]
                           for runs in sides.values() for r in runs.values()),
            "attempted": {side: sum(r["result"]["attempted"] for r in runs.values())
                          for side, runs in sides.items()},
            "failed": {side: sum(r["result"]["failed"] for r in runs.values())
                       for side, runs in sides.items()},
            "metrics": {},
            "diagnostics": {},
            "cost_classes": {label: {side: medians[side].get(label) for side in sides}
                             for label in sorted(set(medians["parent"]) | set(medians["change"]))},
        }
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            row = {"unit": metric["unit"], "better": metric["better"]}
            for side, runs in sides.items():
                row[side] = summary([runs[s]["result"]["metrics"][name]["value"]
                                     for s in sorted(runs)])
            row["pairs"], row["change_won"] = pair_wins(
                sides, lambda run: run["result"]["metrics"][name]["value"], higher)
            row["unresolved"] = unresolved(row, metric["bound"], higher)
            entry["metrics"][name] = row
        for name, better in DIAGNOSTICS.items():
            row = {side: summary([runs[s]["info"][name] for s in sorted(runs)])
                   for side, runs in sides.items()}
            if better is not None:
                row["pairs"], row["change_won"] = pair_wins(
                    sides, lambda run: run["info"][name], better == "higher")
            entry["diagnostics"][name] = row
        out[workload] = entry
    for workload in sorted(set(traced[0]) | set(traced[1])):
        if workload not in out:
            raise ValueError(f"{workload}: traced runs but no end-to-end runs")
        sides = both_sides(*traced, workload)
        out[workload]["per_layer"] = {
            metric["name"]: {"unit": metric["unit"], "better": metric["better"],
                             **{side: summary([runs[s]["result"]["metrics"][metric["name"]]
                                               ["value"] for s in sorted(runs)])
                                for side, runs in sides.items()}}
            for metric in layers}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, metavar="RUN")
    parser.add_argument("--change", nargs="+", required=True, metavar="RUN")
    parser.add_argument("--parent-trace", nargs="+", default=[], metavar="RUN")
    parser.add_argument("--change-trace", nargs="+", default=[], metavar="RUN")
    parser.add_argument("--in-process", nargs="+", default=[], metavar="AB_RESULT")
    parser.add_argument("--out", required=True, help="BENCH_*.json file to write")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        traced = (load_runs(args.parent_trace, traced=True),
                  load_runs(args.change_trace, traced=True))
        workloads = record(load_runs(args.parent), load_runs(args.change),
                           benchmark["end_to_end"], traced, benchmark["per_layer"])
        in_process = load_in_process(args.in_process)
    except (KeyError, ValueError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    payload = {"command": benchmark["command"], "workloads": workloads}
    for key, sides in (("in_process", ("parent", "change")), ("in_process_aa", ("same", "same"))):
        if in_process[key]:
            payload[key] = {"a": sides[0], "b": sides[1], "runs": in_process[key]}
    Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""tools/bench_record.py: medians, quartiles and pair wins from benchmark run files."""
import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
SPEC = importlib.util.spec_from_file_location("bench_record", PATH)
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)
LAYERS = json.loads((PATH.parents[1] / "BENCHMARK.json").read_text())["per_layer"]


def write_run(directory: Path, side: str, seed: int, jobs_per_s: float, rss: float,
              traced: bool = False, class_ms: tuple[float, float] = (1.0, 5.0),
              raw_setup_s: float = 0.3) -> str:
    metrics = {"jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
               "job_p50_ms": {"value": 1000 / jobs_per_s, "unit": "ms"},
               "job_p90_ms": {"value": 2000 / jobs_per_s, "unit": "ms"},
               "setup_s": {"value": 0.25, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    info = {"workload": "facet_census", "seed": seed, "raw_wall_jobs_per_s": jobs_per_s / 2,
            "raw_setup_s": raw_setup_s, "host_slowdown": 1 + seed / 10,
            "cost_classes": {"2x2x2": {"jobs": 50, "min_ms": 0.5, "median_ms": class_ms[0],
                                       "max_ms": 9.0},
                             "4x4x2": {"jobs": 10, "min_ms": 2.0, "median_ms": class_ms[1],
                                       "max_ms": 9.0},
                             "p50_between": ["2x2x2"], "p90_between": ["2x2x2", "4x4x2"]}}
    if traced:
        info["layer_shares"] = {}
        metrics = {row["name"]: {"value": 0.0, "unit": row["unit"]} for row in LAYERS}
        metrics["simplex.pivots"]["value"] = 40.0 + seed
        metrics["simplex.us_per_pivot"]["value"] = jobs_per_s
    path = directory / f"{side}-{seed}.json"
    path.write_text(json.dumps({"result": {"correct": True, "attempted": 200, "failed": 0,
                                           "metrics": metrics}, "info": info}))
    return str(path)


def test_record_summarises_each_side_and_counts_pair_wins(tmp_path):
    parent = [write_run(tmp_path, "parent", s, v, 44.5) for s, v in ((1, 10), (2, 12), (3, 14))]
    change = [write_run(tmp_path, "change", s, v, r)
              for s, v, r in ((1, 100, 44.0), (2, 11, 44.0), (3, 140, 45.0), (4, 150, 44.0))]
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", *parent, "--change", *change, "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["facet_census"]
    assert entry["correct"]
    assert entry["attempted"] == {"parent": 600, "change": 800}
    assert entry["seeds"] == {"parent": [1, 2, 3], "change": [1, 2, 3, 4]}
    rate = entry["metrics"]["jobs_per_s"]
    assert rate["parent"]["median"] == 12
    assert (rate["parent"]["q1"], rate["parent"]["q3"]) == (11, 13)
    assert rate["change"]["median"] == 120
    assert (rate["pairs"], rate["change_won"]) == (3, 2)
    # lower is better for memory: seeds 1 and 2 won, seed 3 lost
    assert entry["metrics"]["peak_rss_mb"]["change_won"] == 2
    assert entry["metrics"]["job_p50_ms"]["change_won"] == 2
    # unscaled run facts are summarised apart from the metrics
    assert set(entry["metrics"]) == {"jobs_per_s", "job_p50_ms", "job_p90_ms", "setup_s",
                                     "peak_rss_mb"}
    diagnostics = entry["diagnostics"]
    assert set(diagnostics) == {"raw_wall_jobs_per_s", "raw_setup_s", "host_slowdown"}
    raw = diagnostics["raw_wall_jobs_per_s"]
    assert (raw["parent"]["median"], raw["parent"]["q1"], raw["parent"]["q3"]) == (6, 5.5, 6.5)
    assert raw["change"]["values"] == [50, 5.5, 70, 75]
    assert diagnostics["raw_setup_s"]["parent"]["median"] == 0.3
    assert diagnostics["host_slowdown"]["change"]["median"] == pytest.approx(1.25)
    assert "change_won" not in diagnostics["host_slowdown"]


def test_record_counts_pair_wins_for_the_raw_run_facts(tmp_path):
    """A higher wall-clock rate and a lower set-up time win a pair; the divisor counts none."""
    parent = [write_run(tmp_path, "parent", s, 10, 44.5, raw_setup_s=0.3) for s in (1, 2, 3)]
    change = [write_run(tmp_path, "change", s, v, 44.5, raw_setup_s=t)
              for s, v, t in ((1, 12, 0.2), (2, 8, 0.4), (3, 14, 0.25), (4, 20, 0.1))]
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", *parent, "--change", *change, "--out", str(out)]) == 0
    diagnostics = json.loads(out.read_text())["workloads"]["facet_census"]["diagnostics"]
    rate, setup = diagnostics["raw_wall_jobs_per_s"], diagnostics["raw_setup_s"]
    assert (rate["pairs"], rate["change_won"]) == (3, 2)
    assert (setup["pairs"], setup["change_won"]) == (3, 2)
    assert "pairs" not in diagnostics["host_slowdown"]


def test_record_refuses_runs_without_the_run_facts(tmp_path, capsys):
    parent = [write_run(tmp_path, "parent", s, 10, 44.5) for s in (1, 2)]
    change = [write_run(tmp_path, "change", s, 10, 44.5) for s in (1, 2)]
    data = json.loads(Path(change[0]).read_text())
    del data["info"]["host_slowdown"]
    Path(change[0]).write_text(json.dumps(data))
    out = str(tmp_path / "BENCH.json")
    assert bench_record.main(["--parent", *parent, "--change", *change, "--out", out]) == 2
    assert "host_slowdown" in capsys.readouterr().err


def test_record_refuses_traced_and_repeated_runs(tmp_path, capsys):
    parent = [write_run(tmp_path, "parent", s, 10, 44.5) for s in (1, 2)]
    traced = write_run(tmp_path, "change", 1, 100, 44.5, traced=True)
    plain = write_run(tmp_path, "change", 2, 100, 44.5)
    out = str(tmp_path / "BENCH.json")
    assert bench_record.main(["--parent", *parent, "--change", traced, plain, "--out", out]) == 2
    assert "traced run" in capsys.readouterr().err
    assert bench_record.main(["--parent", *parent, "--change", plain, plain, "--out", out]) == 2
    assert "given twice" in capsys.readouterr().err
    with pytest.raises(FileNotFoundError):
        Path(out).read_text()


def test_record_takes_each_sides_median_of_every_class_median(tmp_path):
    parent = [write_run(tmp_path, "parent", s, 10, 44.5, class_ms=ms)
              for s, ms in ((1, (1.0, 6.0)), (2, (3.0, 4.0)), (3, (2.0, 5.0)))]
    change = [write_run(tmp_path, "change", s, 12, 44.5, class_ms=ms)
              for s, ms in ((1, (0.5, 2.0)), (2, (0.7, 3.0)))]
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", *parent, "--change", *change, "--out", str(out)]) == 0
    classes = json.loads(out.read_text())["workloads"]["facet_census"]["cost_classes"]
    assert classes == {"2x2x2": {"parent": 2.0, "change": 0.6},
                       "4x4x2": {"parent": 5.0, "change": 2.5}}


@pytest.mark.parametrize("parent_rss, change_rss, flag", [
    # quartile spread 66-71 is wider than 0.1 * 66 and the sides overlap
    ((66.0, 65.9, 76.0, 66.1, 75.8), (67.0, 66.0, 66.2, 75.9, 66.1), True),
    # the same wide parent spread, but every change run reads below every parent run
    ((66.0, 65.9, 76.0, 66.1, 75.8), (65.0, 64.8, 65.1, 64.9, 65.2), False),
    # a parent spread inside the bound resolves the metric whatever the change reads
    ((66.0, 66.1, 66.2, 65.9, 66.0), (70.0, 60.0, 66.0, 80.0, 66.1), False),
])
def test_record_flags_a_metric_the_parent_spread_cannot_resolve(tmp_path, parent_rss,
                                                                change_rss, flag):
    parent = [write_run(tmp_path, "parent", s, 10 + s, r) for s, r in enumerate(parent_rss)]
    change = [write_run(tmp_path, "change", s, 20 + s, r) for s, r in enumerate(change_rss)]
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", *parent, "--change", *change, "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["facet_census"]["metrics"]
    assert metrics["peak_rss_mb"]["unresolved"] is flag
    # jobs_per_s: a parent spread of 2 on a median of 12, inside its 0.25 bound
    assert metrics["jobs_per_s"]["unresolved"] is False


def write_traced(directory: Path, side: str, seed: int, us_per_pivot: float) -> str:
    return write_run(directory, f"{side}-traced", seed, us_per_pivot, 44.5, traced=True)


def test_record_summarises_traced_runs_per_layer_without_pair_wins(tmp_path):
    parent = [write_run(tmp_path, "parent", s, 10, 44.5) for s in (1, 2)]
    change = [write_run(tmp_path, "change", s, 12, 44.5) for s in (1, 2)]
    parent_trace = [write_traced(tmp_path, "parent", s, v) for s, v in ((1, 30), (2, 50), (3, 40))]
    change_trace = [write_traced(tmp_path, "change", s, v) for s, v in ((1, 20), (2, 10))]
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", *parent, "--change", *change,
                              "--parent-trace", *parent_trace, "--change-trace", *change_trace,
                              "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["facet_census"]
    assert set(entry["metrics"]) == {"jobs_per_s", "job_p50_ms", "job_p90_ms", "setup_s",
                                     "peak_rss_mb"}
    per_layer = entry["per_layer"]
    assert set(per_layer) == {row["name"] for row in LAYERS}
    pivots, time = per_layer["simplex.pivots"], per_layer["simplex.us_per_pivot"]
    assert (pivots["unit"], pivots["better"]) == ("count", "lower")
    assert pivots["parent"]["values"] == [41, 42, 43]
    assert (time["parent"]["median"], time["parent"]["q1"], time["parent"]["q3"]) == (40, 35, 45)
    assert time["change"]["median"] == 15
    assert "pairs" not in pivots and "change_won" not in time
    # without traced runs there is no per_layer key
    assert bench_record.main(["--parent", *parent, "--change", *change, "--out", str(out)]) == 0
    assert "per_layer" not in json.loads(out.read_text())["workloads"]["facet_census"]


def test_record_refuses_untraced_or_unmatched_traced_runs(tmp_path, capsys):
    parent = [write_run(tmp_path, "parent", s, 10, 44.5) for s in (1, 2)]
    change = [write_run(tmp_path, "change", s, 12, 44.5) for s in (1, 2)]
    traced = [write_traced(tmp_path, "change", s, 20) for s in (1, 2)]
    out = str(tmp_path / "BENCH.json")
    common = ["--parent", *parent, "--change", *change, "--out", out]
    assert bench_record.main([*common, "--parent-trace", *parent[:1], "--change-trace",
                              *traced]) == 2
    assert "untraced run" in capsys.readouterr().err
    # traced runs of one side only, and of too few seeds
    assert bench_record.main([*common, "--change-trace", *traced]) == 2
    assert "need at least 2 runs of each side" in capsys.readouterr().err
    assert bench_record.main([*common, "--parent-trace", traced[0], "--change-trace",
                              traced[1]]) == 2
    assert "need at least 2 runs of each side" in capsys.readouterr().err
    with pytest.raises(FileNotFoundError):
        Path(out).read_text()

"""The benchmark's checkers accept bellkit's real outputs and reject corrupted ones.

    python3 -m pytest bench/test_checks.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bellkit.cli  # noqa: E402
import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from run import run_job  # noqa: E402


def _pick(jobs, cost_class, **facts):
    return next(j for j in jobs if j.cost_class == cost_class
                and all(j.facts[k] == v for k, v in facts.items()))


@pytest.fixture(scope="module")
def cases():
    """(workload, job, real outcomes) for the cases the corruptions start from."""
    rng = np.random.default_rng(7)
    tables = workloads.local_tables(rng)
    picked = {
        "ghz": ("ghz_scan", _pick(workloads.ghz_scan(rng), "N=3")),
        "inside_2x2": ("local_tables", _pick(tables, "2x2", generated_inside=True)),
        "inside_3x3": ("local_tables", _pick(tables, "3x3", generated_inside=True)),
        "outside_3x3": ("local_tables", _pick(tables, "3x3", generated_inside=False)),
        "facet_442": ("facet_census", _pick(workloads.facet_census(rng), "4x4x2", default=True)),
        "tensor": ("state_tensors", _pick(workloads.state_tensors(rng), "N=6")),
    }
    return {name: (w, job, run_job(bellkit.cli, job)) for name, (w, job) in picked.items()}


def _problems(workload, job, outcomes):
    return checks.check_job(workload, job, outcomes, {"rng": np.random.default_rng(0)})


def _edit(outcomes, index, edit):
    """Outcomes with call `index`'s JSON passed through edit(data) -> (rc or None, data)."""
    rc, text = outcomes[index]
    new_rc, data = edit(json.loads(text))
    out = list(outcomes)
    out[index] = (rc if new_rc is None else new_rc, json.dumps(data))
    return out


@pytest.mark.parametrize("name", ["ghz", "inside_2x2", "inside_3x3", "outside_3x3",
                                  "facet_442", "tensor"])
def test_real_outputs_pass(cases, name):
    workload, job, outcomes = cases[name]
    assert outcomes is not None
    assert _problems(workload, job, outcomes) == []


def test_flipped_table_verdict_is_rejected(cases):
    workload, job, outcomes = cases["inside_2x2"]
    (rc, text), = outcomes
    problems = _problems(workload, job, [(3, text)])
    assert any("certificate written" in p for p in problems)


def test_flipped_violated_flag_is_rejected(cases):
    workload, job, outcomes = cases["ghz"]

    def flip(report):
        report["violated"] = not report["violated"]
        return None, report

    problems = _problems(workload, job, _edit(outcomes, 1, flip))
    assert any("violated=" in p for p in problems)


def test_certificate_bound_below_vertex_maximum_is_rejected(cases):
    workload, job, outcomes = cases["outside_3x3"]
    assert outcomes[0][0] == 3

    def lower(cert):
        coeff = np.array(cert["coefficients"], dtype=float).ravel()
        cert["bound"] = float(np.max(reference.vertex_rows(job.facts["layout"]) @ coeff)) - 0.1
        return None, cert

    problems = _problems(workload, job, _edit(outcomes, 0, lower))
    assert any("vertex maximum" in p for p in problems)


def test_cn_value_below_envelope_is_rejected(cases):
    workload, job, outcomes = cases["ghz"]
    n, alpha = job.facts["n"], job.facts["alpha"]
    envelope = 2 ** (n - 2) * np.sin(2 * alpha) ** 2 + np.cos(2 * alpha) ** 2

    def lower(report):
        report["value"] = float(envelope - 1e-3)
        report["violated"] = report["value"] > 1 + 1e-9
        return (3 if report["violated"] else 0), report

    problems = _problems(workload, job, _edit(outcomes, 1, lower))
    assert any("outside [" in p for p in problems)


def test_tensor_component_off_by_1e_6_is_rejected(cases):
    workload, job, outcomes = cases["tensor"]

    def nudge(data):
        data["full_components"][1][2][0][0][0][0] += 1e-6
        return None, data

    problems = _problems(workload, job, _edit(outcomes, 0, nudge))
    assert any("off the closed form" in p for p in problems)


@pytest.mark.parametrize("name", ["inside_2x2", "inside_3x3"])
def test_model_weight_off_by_1e_6_is_rejected(cases, name):
    workload, job, outcomes = cases[name]

    def nudge(model):
        model[0]["weight"] += 1e-6
        return None, model

    problems = _problems(workload, job, _edit(outcomes, 0, nudge))
    assert any("sum to" in p for p in problems)


def test_wrong_saturating_count_is_rejected(cases):
    workload, job, outcomes = cases["facet_442"]

    def miscount(data):
        data["tightness"]["saturating_count"] += 1
        return None, data

    problems = _problems(workload, job, _edit(outcomes, 0, miscount))
    assert any("saturating_count" in p for p in problems)


def test_non_finite_json_is_rejected():
    with pytest.raises(ValueError):
        checks.strict_json('{"value": NaN}')

"""Checks of bellkit's CLI outputs against the computations in reference.py.

Each checker takes a job and the (exit code, stdout) of each of its calls and
returns a list of problems; an empty list means the output is correct.
Checkers may add figures to `notes` (the gauge of every table, for one).
"""
from __future__ import annotations

import json
import math

import numpy as np

import reference
from workloads import Job

TOL = 1e-9
TENSOR_TOL = 1e-10
EXIT_OK, EXIT_VIOLATION = 0, 3


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def _orthonormal(rows: np.ndarray) -> bool:
    return rows.shape == (2, 3) and np.max(np.abs(rows @ rows.T - np.eye(2))) <= TOL


def _two_setting_frames_value(block: np.ndarray, frames: list) -> tuple[float, list[str]]:
    planes = [np.array(f, dtype=float) for f in frames]
    problems = [f"frame {j + 1} is not orthonormal" for j, p in enumerate(planes)
                if not _orthonormal(p)]
    return float(np.sum(reference.contract(block, planes) ** 2)), problems


def _cn_frames_value(block: np.ndarray, terms: list) -> tuple[float, list[str]]:
    n = block.ndim
    total, problems = 0.0, []
    for entry in terms:
        term, planes = entry["term"], [np.array(f, dtype=float) for f in entry["frames"]]
        problems += [f"term {term} frame {j + 1} is not orthonormal"
                     for j, p in enumerate(planes) if not _orthonormal(p)]
        m = block
        for j in range(n, 2, -1):  # party j uses row term[j-3] of its plane
            m = np.tensordot(m, planes[j - 1][term[j - 3] - 1], axes=([j - 1], [0]))
        total += float(np.sum((planes[0] @ m @ planes[1].T) ** 2))
    return total, problems


def check_ghz(job: Job, outcomes: list[tuple[int, str]], notes: dict) -> list[str]:
    n, alpha = job.facts["n"], job.facts["alpha"]
    block = reference.correlation_block(n, alpha)
    sin2 = math.sin(2 * alpha) ** 2
    cos2 = math.cos(2 * alpha) ** 2
    problems = []
    for (rc, text), kind in zip(outcomes, ("two_setting_sufficient_N", "multisetting_CN")):
        report = strict_json(text)
        value = report["value"]
        where = f"{kind} N={n} alpha={alpha!r}"
        if report["kind"] != kind:
            problems.append(f"{where}: kind {report['kind']!r}")
        if report["violated"] != (value > 1 + TOL):
            problems.append(f"{where}: violated={report['violated']} but value {value!r}")
        if rc != (EXIT_VIOLATION if value > 1 + TOL else EXIT_OK):
            problems.append(f"{where}: exit code {rc} for value {value!r}")
        if kind == "two_setting_sufficient_N":
            low = max(2 ** (n - 1) * sin2, 1 + (n % 2 == 0) * sin2)
            high = reference.two_setting_upper(block)
            recomputed, frame_problems = _two_setting_frames_value(block, report["frames"])
        else:
            low = 2 ** (n - 2) * sin2 + cos2
            high = float(np.sum(block**2))
            recomputed, frame_problems = _cn_frames_value(block, report["frames"])
        problems += [f"{where}: {p}" for p in frame_problems]
        if not low - TOL <= value <= high + TOL:
            problems.append(f"{where}: value {value!r} outside [{low!r}, {high!r}]")
        if abs(recomputed - value) > TOL:
            problems.append(f"{where}: frames give {recomputed!r}, reported {value!r}")
    return problems


def check_table(job: Job, outcomes: list[tuple[int, str]], notes: dict) -> list[str]:
    layout, x = job.facts["layout"], job.facts["values"]
    (rc, text), = outcomes
    where = f"table {layout}"
    gauge = reference.polytope_gauge(layout, x)
    notes.setdefault("gauges", []).append(gauge)
    inside = gauge <= 1.0
    problems = []
    if inside != job.facts["generated_inside"]:
        problems.append(f"{where}: generated as inside={job.facts['generated_inside']}, "
                        f"gauge {gauge!r}")
    if all(m == 2 for m in layout):
        lhs = reference.two_setting_lhs(x)
        if (lhs <= 2 ** len(layout)) != inside:
            problems.append(f"{where}: sum |f| = {lhs!r} disagrees with gauge {gauge!r}")
    data = strict_json(text)
    if rc == EXIT_OK:
        if not inside:
            problems.append(f"{where}: model written for a table with gauge {gauge!r}")
        if not isinstance(data, list):
            return problems + [f"{where}: exit code 0 but the output is not a model"]
        weights, predicted = reference.model_table(layout, data)
        if np.any(weights < 0):
            problems.append(f"{where}: negative model weight {weights.min()!r}")
        if abs(weights.sum() - 1.0) > TOL:
            problems.append(f"{where}: model weights sum to {weights.sum()!r}")
        residual = float(np.max(np.abs(predicted - x)))
        if residual > TOL:
            problems.append(f"{where}: model misses the table by {residual!r}")
    elif rc == EXIT_VIOLATION:
        if inside:
            problems.append(f"{where}: certificate written for a table with gauge {gauge!r}")
        if not isinstance(data, dict):
            return problems + [f"{where}: exit code 3 but the output is not an inequality"]
        if tuple(data["layout"]) != layout:
            problems.append(f"{where}: certificate layout {data['layout']}")
        coeff = np.array(data["coefficients"], dtype=float).ravel()
        bound = float(data["bound"])
        vertex_max = float(np.max(reference.vertex_rows(layout) @ coeff))
        if vertex_max > bound + TOL:
            problems.append(f"{where}: vertex maximum {vertex_max!r} exceeds bound {bound!r}")
        value = float(coeff @ x.ravel())
        if not value > bound:
            problems.append(f"{where}: table value {value!r} does not exceed bound {bound!r}")
    else:
        problems.append(f"{where}: exit code {rc}")
    return problems


def check_facet(job: Job, outcomes: list[tuple[int, str]], notes: dict) -> list[str]:
    layout = job.facts["layout"]
    (rc, text), = outcomes
    where = f"generate {layout}"
    if rc != EXIT_OK:
        return [f"{where}: exit code {rc}"]
    data = strict_json(text)
    ineq = data["inequality"] if job.facts["check_tight"] else data
    problems = []
    if tuple(ineq["layout"]) != layout:
        problems.append(f"{where}: layout {ineq['layout']}")
    coeff = np.array(ineq["coefficients"])
    bound = ineq["bound"]
    if coeff.dtype.kind != "i" or not isinstance(bound, int):
        return problems + [f"{where}: coefficients or bound are not integers"]
    values = reference.strategy_values(layout, coeff, notes["rng"])
    if not np.all(np.abs(values) == bound):
        bad = values[np.abs(values) != bound]
        problems.append(f"{where}: {bad.size} strategies miss +-{bound}, e.g. {bad[0]!r}")
    if job.facts["check_tight"]:
        verts = reference.vertex_rows(layout)
        saturating = verts[verts @ coeff.ravel().astype(float) == bound]
        rank = reference.vertex_rank(saturating)
        dim = int(np.prod(layout))
        expected = {
            "vertex_count": verts.shape[0],
            "saturating_count": saturating.shape[0],
            "affine_rank": rank,
            "dimension": dim,
            "is_tight": rank == dim,
        }
        if job.facts["default"]:
            expected_default = {"vertex_count": 256, "saturating_count": 128,
                                "affine_rank": 32, "is_tight": True}
            if any(expected[k] != v for k, v in expected_default.items()):
                problems.append(f"{where}: reference census {expected} is not 256/128/32/tight")
        report = data["tightness"]
        for key, want in expected.items():
            if report[key] != want:
                problems.append(f"{where}: {key} {report[key]!r}, reference {want!r}")
    return problems


def check_tensor(job: Job, outcomes: list[tuple[int, str]], notes: dict) -> list[str]:
    n, alpha, v = job.facts["n"], job.facts["alpha"], job.facts["visibility"]
    (rc, text), = outcomes
    where = f"tensor N={n} alpha={alpha!r} v={v!r}"
    if rc != EXIT_OK:
        return [f"{where}: exit code {rc}"]
    data = strict_json(text)
    if data["n_qubits"] != n:
        return [f"{where}: n_qubits {data['n_qubits']}"]
    comp = np.array(data["full_components"], dtype=float)
    if comp.shape != (4,) * n:
        return [f"{where}: shape {comp.shape}"]
    err = float(np.max(np.abs(comp - reference.ghz_tensor(n, alpha, v))))
    if not err <= TENSOR_TOL:
        return [f"{where}: off the closed form by {err!r}"]
    return []


CHECKERS = {
    "ghz_scan": check_ghz,
    "local_tables": check_table,
    "facet_census": check_facet,
    "state_tensors": check_tensor,
}


def check_job(workload: str, job: Job, outcomes: list[tuple[int, str]], notes: dict) -> list[str]:
    """The workload's checker, with output it cannot read reported as a problem."""
    try:
        return CHECKERS[workload](job, outcomes, notes)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"{job.cost_class}: malformed output: {exc!r}"]

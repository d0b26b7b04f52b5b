"""The benchmark's four workloads: fixed job lists made from a seed.

A job is one or more in-process `bellkit` CLI calls plus the facts its
checker needs.  Each workload's list is one round; the list's make-up (the
counts below) is fixed, and the seed draws only the inputs.  The counts put
each reported percentile inside one cost class; README.md says which.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

import reference

RESTARTS = 50

#: ghz_scan: one job per (N, alpha stratum).  (0, pi/4] is cut into equal
#: strata and alpha is drawn from the top quarter of each, so the points sit
#: near the grid pi/12, pi/6, pi/4.  Below about pi/16 the optimizers' run
#: time varies up to 2x with alpha and the restart seed; points there made
#: the per-seed spread of every timing wider than any usable bound.
GHZ_NS = (3, 4, 5)
GHZ_STRATA = 3
GHZ_WINDOW = 0.25  # share of each stratum, at its top, that alpha is drawn from

#: local_tables: tables per layout and round; half inside, half outside.
#: The (3,3,3,3) LP costs 0.1-0.9 s with the table (its pivot count varies
#: 3x), so it gets few jobs; more of them made jobs_per_s swing with the seed.
TABLE_MIX = {
    (2, 2): 160,
    (2, 2, 2): 160,
    (3, 3): 32,
    (2, 2, 2, 2): 32,
    (3, 3, 3): 32,
    (4, 4, 2): 160,
    (3, 3, 3, 3): 8,
}
INSIDE_SCALE = (0.55, 0.95)  # inside tables: a vertex mixture times this factor
OUTSIDE_EXCESS = (0.05, 0.30)  # outside tables: a random inequality exceeded by this share

#: facet_census: (layout, sign-function arities, --check-tight, jobs per round).
FACET_MIX = (
    ((2, 2, 2), (3,), True, 6),
    ((2, 2, 2, 2), (4,), True, 6),
    ((8, 8, 4, 2), (2,) * 7, False, 6),
    ((8, 8, 4, 4, 4), (2,) * 9, False, 12),
    ((4, 4, 2), (2, 2, 2), True, 10),
    ((4, 4, 4, 2), (2, 3, 3), True, 10),
)

#: state_tensors: jobs per qubit count and round; pure and noisy alternate.
TENSOR_MIX = {6: 16, 7: 16, 8: 6, 9: 2}
VISIBILITY = (0.5, 0.95)


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    stdin: str | None = None


@dataclass(frozen=True)
class Job:
    cost_class: str
    calls: tuple[Call, ...]
    facts: dict = field(default_factory=dict, compare=False)


def _alpha(rng: np.random.Generator, lo: float = 0.0, hi: float = math.pi / 4) -> float:
    """Uniform on (lo, hi]."""
    return lo + (hi - lo) * (1.0 - rng.random())


def ghz_scan(rng: np.random.Generator) -> list[Job]:
    jobs = []
    width = (math.pi / 4) / GHZ_STRATA
    for n in GHZ_NS:
        for k in range(GHZ_STRATA):
            alpha = _alpha(rng, (k + 1 - GHZ_WINDOW) * width, (k + 1) * width)
            spec = f"ghz:N={n},alpha={alpha!r}"
            # The restart seed is fixed per grid point: drawing it too made the
            # optimizers' run time, and so every timing, vary far more by seed.
            calls = tuple(
                Call(("condition", "--kind", kind, "--state", spec,
                      "--restarts", str(RESTARTS), "--seed", str(10 * n + k)))
                for kind in ("two_setting_sufficient_N", "multisetting_CN")
            )
            jobs.append(Job(f"N={n}", calls, {"n": n, "alpha": alpha}))
    return jobs


def _inside_point(rng: np.random.Generator, verts: np.ndarray) -> np.ndarray:
    """A random mixture of 2*dim distinct vertices (all of them if there are fewer)."""
    k = min(2 * verts.shape[1], verts.shape[0])
    chosen = verts[rng.choice(verts.shape[0], k, replace=False)]
    return rng.dirichlet(np.ones(k)) @ chosen


def _outside_point(rng: np.random.Generator, verts: np.ndarray) -> np.ndarray:
    """A point of the cube that violates a random valid inequality c.x <= max_v c.v.

    Walks from a point p of the polytope towards sign(c) until c.x is
    (1 + excess) times the bound.
    """
    p = _inside_point(rng, verts)
    while True:
        c = rng.normal(size=verts.shape[1])
        bound = float(np.max(verts @ c))
        target = (1.0 + rng.uniform(*OUTSIDE_EXCESS)) * bound
        q = np.sign(c)
        if c @ q >= target:
            w = (target - c @ p) / (c @ q - c @ p)
            return p + w * (q - p)


def local_tables(rng: np.random.Generator) -> list[Job]:
    jobs = []
    for layout, count in TABLE_MIX.items():
        verts = reference.vertex_rows(layout)
        for i in range(count):
            inside = i % 2 == 0
            if inside:
                x = rng.uniform(*INSIDE_SCALE) * _inside_point(rng, verts)
            else:
                x = _outside_point(rng, verts)
            values = x.reshape(layout)
            text = json.dumps({"layout": list(layout), "values": values.tolist()})
            label = "x".join(map(str, layout))
            jobs.append(Job(label, (Call(("lhv", "--table", "-"), text),),
                            {"layout": layout, "values": values, "generated_inside": inside}))
    rng.shuffle(jobs)
    return jobs


def _bits(rng: np.random.Generator, arity: int) -> str:
    return "".join(str(b) for b in rng.integers(0, 2, 2**arity))


def facet_census(rng: np.random.Generator) -> list[Job]:
    jobs = []
    for layout, arities, tight, count in FACET_MIX:
        label = "x".join(map(str, layout))
        for i in range(count):
            argv = ["generate", "--layout", ",".join(map(str, layout))]
            default = layout == (4, 4, 2) and i == 0  # the CHSH triple, via the CLI default
            if not default:
                for arity in arities:
                    argv += ["--sign-fn", _bits(rng, arity)]
            if tight:
                argv.append("--check-tight")
            jobs.append(Job(label, (Call(tuple(argv)),),
                            {"layout": layout, "check_tight": tight, "default": default}))
    rng.shuffle(jobs)
    return jobs


def state_tensors(rng: np.random.Generator) -> list[Job]:
    jobs = []
    for n, count in TENSOR_MIX.items():
        for i in range(count):
            alpha = _alpha(rng)
            spec = f"ghz:N={n},alpha={alpha!r}"
            visibility = 1.0
            if i % 2 == 1:
                visibility = float(rng.uniform(*VISIBILITY))
                spec = f"noise:v={visibility!r}({spec})"
            jobs.append(Job(f"N={n}", (Call(("tensor", "--state", spec)),),
                            {"n": n, "alpha": alpha, "visibility": visibility}))
    rng.shuffle(jobs)
    return jobs


#: Seconds one round takes on the reference machine (README.md).  A run of
#: --seconds S does max(2, round(S / ROUND_SECONDS)) rounds, so every run with
#: the same S does the same work.
ROUND_SECONDS = {
    "ghz_scan": 3.6,
    "local_tables": 6.5,
    "facet_census": 4.0,
    "state_tensors": 3.5,
}

WORKLOADS = {
    "ghz_scan": ghz_scan,
    "local_tables": local_tables,
    "facet_census": facet_census,
    "state_tensors": state_tensors,
}

#: The cost class of each workload's warm-up jobs: one per command path.
WARMUP_CLASSES = {
    "ghz_scan": ("N=3",),
    "local_tables": ("2x2", "3x3"),
    "facet_census": ("2x2x2", "8x8x4x2"),
    "state_tensors": ("N=6",),
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](np.random.default_rng(seed))


def warmup_jobs(workload: str, jobs: list[Job]) -> list[Job]:
    """The last job of each warm-up class (for ghz_scan, the cheap top-alpha point)."""
    return [[j for j in jobs if j.cost_class == c][-1] for c in WARMUP_CLASSES[workload]]

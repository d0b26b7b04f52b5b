"""Spans around the calls into each bellkit module, recorded from outside bellkit.

`Tracer.install()` replaces the public entry points of each module with
wrappers, in the module namespaces the CLI and the library look them up in,
and `Tracer.uninstall()` puts the originals back.  A span is (name, start,
end, parent index, job id); spans stay in memory until the run writes them.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

# (layer.span name, module holding the name the caller looks up, attribute)
SPANS = (
    ("cli.main", "bellkit.cli", "main"),
    ("families.ghz_state", "bellkit.cli", "ghz_state"),
    ("families.mix_with_white_noise", "bellkit.cli", "mix_with_white_noise"),
    ("qstate.DensityMatrix", "bellkit.qstate", "DensityMatrix.__post_init__"),
    ("qstate.correlation_tensor", "bellkit.cli", "correlation_tensor"),
    ("qcond.condition_two_qubit", "bellkit.cli", "condition_two_qubit"),
    ("qcond.condition_two_setting_N", "bellkit.cli", "condition_two_setting_N"),
    ("qcond.condition_multisetting_CN", "bellkit.cli", "condition_multisetting_CN"),
    ("lhv.construct_lhv_model", "bellkit.cli", "construct_lhv_model"),
    ("lhv.most_violated_sign_inequality", "bellkit.cli", "most_violated_sign_inequality"),
    ("lhv.polytope_membership", "bellkit.cli", "polytope_membership"),
    ("lhv.enumerate_vertices", "bellkit.lhv", "enumerate_vertices"),
    ("lhv.enumerate_vertices", "bellkit.multiset", "enumerate_vertices"),
    ("simplex.solve_feasibility", "bellkit.lhv", "solve_feasibility"),
    ("multiset.build_recursive", "bellkit.cli", "build_recursive"),
    ("multiset.check_tightness", "bellkit.cli", "check_tightness"),
)

# per_layer metric -> (unit, better); the order of BENCHMARK.json
LAYER_METRICS = {
    "cli.self_ms": ("ms", "lower"),
    "qstate.density_ms": ("ms", "lower"),
    "qstate.tensor_ms": ("ms", "lower"),
    "qcond.cn_ms": ("ms", "lower"),
    "qcond.two_setting_ms": ("ms", "lower"),
    "qcond.ms_per_restart": ("ms", "lower"),
    "lhv.closed_form_ms": ("ms", "lower"),
    "lhv.enumerate_ms": ("ms", "lower"),
    "lhv.vertices": ("count", "lower"),
    "lhv.membership_self_ms": ("ms", "lower"),
    "simplex.solve_ms": ("ms", "lower"),
    "simplex.pivots": ("count", "lower"),
    "simplex.us_per_pivot": ("us", "lower"),
    "multiset.build_ms": ("ms", "lower"),
    "multiset.tightness_self_ms": ("ms", "lower"),
    "multiset.saturating": ("count", "lower"),
}


def _count(name: str, result, kwargs: dict) -> dict[str, float]:
    """Work counts from what bellkit returns, keyed like the metrics."""
    if name == "lhv.enumerate_vertices":
        return {"vertices": result[1].shape[0]}
    if name == "lhv.polytope_membership":
        return {"pivots": result.lp_iterations}
    if name == "multiset.check_tightness":
        return {"saturating": result.saturating_count}
    if name in ("qcond.condition_two_setting_N", "qcond.condition_multisetting_CN"):
        return {"restarts": kwargs.get("restarts", 50)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.job)
            for key, value in _count(name, result, kwargs).items():
                self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        import importlib

        for name, module_name, attr in SPANS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds per span name: (self time, total time); self time excludes child spans."""
        total: dict[str, float] = defaultdict(float)
        child: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent is not None:
                child[self.spans[parent][0]] += end - start
        return {name: total[name] - child[name] for name in total}, dict(total)

    def layer_metrics(self, jobs: int, slowdown: float) -> dict[str, float]:
        """The per-layer metrics, per job of the traced run, times divided by `slowdown`."""
        own, total = self.self_times()
        own = {name: seconds / slowdown for name, seconds in own.items()}
        total = {name: seconds / slowdown for name, seconds in total.items()}
        ms = lambda *names: 1e3 * sum(total.get(n, 0.0) for n in names) / jobs
        own_ms = lambda name: 1e3 * own.get(name, 0.0) / jobs
        condition_s = sum(total.get(n, 0.0) for n in (
            "qcond.condition_two_setting_N", "qcond.condition_multisetting_CN"))
        solve_s = total.get("simplex.solve_feasibility", 0.0)
        restarts, pivots = self.counts["restarts"], self.counts["pivots"]
        return {
            "cli.self_ms": own_ms("cli.main"),
            "qstate.density_ms": ms("qstate.DensityMatrix"),
            "qstate.tensor_ms": ms("qstate.correlation_tensor"),
            "qcond.cn_ms": ms("qcond.condition_multisetting_CN"),
            "qcond.two_setting_ms": ms("qcond.condition_two_setting_N"),
            "qcond.ms_per_restart": 1e3 * condition_s / restarts if restarts else 0.0,
            "lhv.closed_form_ms": ms("lhv.construct_lhv_model",
                                     "lhv.most_violated_sign_inequality"),
            "lhv.enumerate_ms": ms("lhv.enumerate_vertices"),
            "lhv.vertices": self.counts["vertices"] / jobs,
            "lhv.membership_self_ms": own_ms("lhv.polytope_membership"),
            "simplex.solve_ms": ms("simplex.solve_feasibility"),
            "simplex.pivots": pivots / jobs,
            "simplex.us_per_pivot": 1e6 * solve_s / pivots if pivots else 0.0,
            "multiset.build_ms": ms("multiset.build_recursive"),
            "multiset.tightness_self_ms": own_ms("multiset.check_tightness"),
            "multiset.saturating": self.counts["saturating"] / jobs,
        }

    def layer_shares(self) -> dict[str, float]:
        """Each layer's share of the summed self time of all spans."""
        own, _ = self.self_times()
        shares: dict[str, float] = defaultdict(float)
        for name, seconds in own.items():
            shares[name.split(".")[0]] += seconds
        whole = sum(shares.values()) or 1.0
        return {layer: seconds / whole for layer, seconds in sorted(shares.items())}

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "job"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
